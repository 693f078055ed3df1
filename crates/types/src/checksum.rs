//! The content checksum: XXH64 (seed 0) in safe Rust.
//!
//! This is the **only** hash that runs over object bytes. The write path
//! computes it once per stripe, over the bytes it stages for encoding
//! ([`Xxh64::append`]), and stores it as
//! [`crate::object::StripeMeta::checksum`]; every read verifies the bytes
//! it returns against the checksums of the stripes they came from before a
//! client sees them. The cache digests its entries with the same function.
//!
//! # The object checksum
//!
//! [`crate::object::ObjectMeta::checksum`] is not a second pass over the
//! bytes but the root over the stripe digests ([`object_checksum`]): XXH64
//! of each stripe's digest as 8 big-endian bytes, in stripe order. An
//! object of one stripe — up to the stripe size, and every empty object —
//! has that stripe's checksum as its own, i.e. [`checksum_hex`] of its
//! bytes. The root therefore follows from the stripe map alone, without
//! reading a byte, and a client that knows the stripe size recomputes it
//! from the payload with [`object_checksum_hex`]. Like a Merkle root over
//! block digests, it binds the bytes (through the stripe digests) *and*
//! their order and cut: the same bytes striped differently have another
//! root.
//!
//! XXH64 is not cryptographic: it detects corruption — a provider that
//! returns damaged bytes, a torn cache entry — not an adversary who can
//! choose the damage. It runs four independent multiply-rotate lanes over
//! 32-byte blocks, an order of magnitude faster than MD5 ([`crate::md5`]
//! stays for the fingerprints the paper specifies). The stored form is the
//! canonical big-endian digest as 16 lowercase hex characters.
//!
//! # Hashing while copying
//!
//! The bytes path never hashes a buffer it has just filled: the read path
//! builds its output and the write path its staged stripe with
//! [`Xxh64::append`], which copies the source onto the end of the
//! destination one 32-byte block at a time and feeds each block to the
//! lanes *by reading it back from the destination*. The digest therefore
//! covers exactly the bytes that end up in the buffer — the bytes a read
//! returns, the bytes a stripe's data chunks are cut from — not a source
//! that might differ from them, and each byte crosses the memory hierarchy
//! once instead of once to copy and once more to hash.
//!
//! The copy is free: XXH64's lanes are bound by the 64-bit multiplier (two
//! multiplies per 8-byte lane step), and the block copy and read-back fit
//! in the cycles those leave idle. On the 2-vCPU Xeon build host `append`
//! runs at the speed of [`xxh64`] alone, ≈ 0.08 ns/B, and takes ≈ 0.6× the
//! time of `extend_from_slice` followed by a separate hash at 8 MiB (≈ 0.8×
//! at 512 KiB, where the copy stays in cache) — `BENCH_raw_speed.json`,
//! `checksum.append`. The same multiplier bound is why the object checksum
//! is a root over stripe digests and not a second context over the bytes:
//! a second context costs a second hash (≈ 0.08 ns/B more), the root costs
//! one 8-byte update per stripe.

use crate::hex::hex_lower;

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per step of the four-lane main loop.
const BLOCK: usize = 32;

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("sliced to 8 bytes"))
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("sliced to 4 bytes"))
}

/// The four lanes after one 32-byte block.
#[inline(always)]
fn round_block([v1, v2, v3, v4]: [u64; 4], block: &[u8; BLOCK]) -> [u64; 4] {
    [
        round(v1, read_u64(&block[0..8])),
        round(v2, read_u64(&block[8..16])),
        round(v3, read_u64(&block[16..24])),
        round(v4, read_u64(&block[24..32])),
    ]
}

/// Runs the four lanes over every whole 32-byte block of `data` and returns
/// the unconsumed tail (< 32 bytes).
fn consume_blocks<'a>(lanes: &mut [u64; 4], data: &'a [u8]) -> &'a [u8] {
    let (blocks, tail) = data.as_chunks::<BLOCK>();
    *lanes = blocks.iter().fold(*lanes, round_block);
    tail
}

/// Streaming XXH64: feed data in arbitrary slices with [`Xxh64::update`];
/// [`Xxh64::digest`] equals [`xxh64`] of the concatenation.
///
/// The write path checksums a stripe as its bytes arrive, in parts of any
/// size, so no stripe is hashed after the fact.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Partial block carried between `update` calls (< 32 bytes used).
    buffer: [u8; BLOCK],
    buffered: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Xxh64 {
    /// Creates a fresh context (seed 0).
    pub fn new() -> Self {
        Xxh64 {
            lanes: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                0u64.wrapping_sub(PRIME_1),
            ],
            buffer: [0u8; BLOCK],
            buffered: 0,
            len: 0,
        }
    }

    /// Absorbs `data`; may be called any number of times.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let taken = self.top_up(data);
        if self.buffered > 0 {
            return; // `data` did not complete the carried block
        }
        let tail = consume_blocks(&mut self.lanes, &data[taken..]);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Appends `src` to `out` and absorbs the appended bytes, in one pass
    /// (see "Hashing while copying" in the module docs). Afterwards the
    /// context is exactly as if [`Xxh64::update`] had been called with
    /// `src`, and `out` ends with `src`.
    ///
    /// A partial block carried from an earlier call is first completed from
    /// the head of `src`; the rest of `src` then starts on a block boundary
    /// of the context, so each block is copied onto `out` and read back
    /// from there as it arrives.
    pub fn append(&mut self, out: &mut Vec<u8>, src: &[u8]) {
        out.reserve(src.len());
        self.len = self.len.wrapping_add(src.len() as u64);
        let (head, rest) = src.split_at(self.top_up(src));
        out.extend_from_slice(head);
        if self.buffered > 0 {
            return; // `src` did not complete the carried block
        }
        let (blocks, tail) = rest.as_chunks::<BLOCK>();
        let mut lanes = self.lanes;
        for block in blocks {
            out.extend_from_slice(block);
            let written = out
                .last_chunk::<BLOCK>()
                .expect("a block was just appended");
            lanes = round_block(lanes, written);
        }
        self.lanes = lanes;
        out.extend_from_slice(tail);
        self.buffer[..tail.len()].copy_from_slice(&out[out.len() - tail.len()..]);
        self.buffered = tail.len();
    }

    /// Completes the partial block carried from an earlier call from the
    /// head of `data`, absorbing it once it is whole; returns how many bytes
    /// of `data` it took (0 when no block was carried).
    fn top_up(&mut self, data: &[u8]) -> usize {
        if self.buffered == 0 {
            return 0;
        }
        let take = data.len().min(BLOCK - self.buffered);
        self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
        self.buffered += take;
        if self.buffered == BLOCK {
            self.lanes = round_block(self.lanes, &self.buffer);
            self.buffered = 0;
        }
        take
    }

    /// The digest of everything absorbed so far (the context stays usable).
    pub fn digest(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut hash = if self.len >= BLOCK as u64 {
            let mut hash = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for lane in [v1, v2, v3, v4] {
                hash = merge_round(hash, lane);
            }
            hash
        } else {
            // Fewer than one block ever arrived: the lanes are untouched
            // and the seed (0) stands in for them.
            PRIME_5
        };
        hash = hash.wrapping_add(self.len);

        let mut tail = &self.buffer[..self.buffered];
        while tail.len() >= 8 {
            hash = (hash ^ round(0, read_u64(tail)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            hash = (hash ^ (read_u32(tail) as u64).wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            tail = &tail[4..];
        }
        for &byte in tail {
            hash = (hash ^ (byte as u64).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }

        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }

    /// The digest in its stored form (see [`checksum_hex`]).
    pub fn finalize_hex(&self) -> String {
        stored_form(self.digest())
    }
}

fn stored_form(digest: u64) -> String {
    hex_lower(&digest.to_be_bytes())
}

/// The digest behind a stored checksum — the inverse of [`checksum_hex`] —
/// or `None` when `stored` is not a 16-character hex number.
pub fn parse_checksum_hex(stored: &str) -> Option<u64> {
    if stored.len() != 16 {
        return None;
    }
    u64::from_str_radix(stored, 16).ok()
}

/// XXH64 (seed 0) of `data`.
pub fn xxh64(data: &[u8]) -> u64 {
    let mut ctx = Xxh64::new();
    ctx.update(data);
    ctx.digest()
}

/// The stored form of a content checksum: [`xxh64`] as 16 lowercase hex
/// characters, most significant byte first.
pub fn checksum_hex(data: &[u8]) -> String {
    stored_form(xxh64(data))
}

/// The stored form of the checksum of an object whose stripes have the
/// digests `stripe_digests`, in stripe order (see "The object checksum" in
/// the module docs): the one stripe's own checksum for a one-stripe object,
/// otherwise XXH64 over the digests as 8 big-endian bytes each.
pub fn object_checksum(stripe_digests: &[u64]) -> String {
    match stripe_digests {
        [only] => stored_form(*only),
        digests => {
            let mut root = Xxh64::new();
            for digest in digests {
                root.update(&digest.to_be_bytes());
            }
            root.finalize_hex()
        }
    }
}

/// The object checksum of `data` stored in stripes of `stripe_size` bytes
/// (at least 1) — what a client recomputes from the payload it wrote or
/// read to compare with [`crate::object::ObjectMeta::checksum`]. An empty
/// `data` has no stripe here, and the root over no digests is
/// [`checksum_hex`] of no bytes — the checksum of the one empty stripe an
/// empty object is stored as.
pub fn object_checksum_hex(data: &[u8], stripe_size: usize) -> String {
    let digests: Vec<u64> = data.chunks(stripe_size.max(1)).map(xxh64).collect();
    object_checksum(&digests)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors of the XXH64 specification, seed 0.
    #[test]
    fn reference_vectors() {
        assert_eq!(checksum_hex(b""), "ef46db3751d8e999");
        assert_eq!(checksum_hex(b"a"), "d24ec4f1a98c6e5b");
        assert_eq!(checksum_hex(b"abc"), "44bc2cf5ad770999");
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn parse_inverts_the_stored_form_and_rejects_anything_else() {
        for data in [&b""[..], b"a", b"abc"] {
            assert_eq!(parse_checksum_hex(&checksum_hex(data)), Some(xxh64(data)));
        }
        assert_eq!(parse_checksum_hex("00000000000000ff"), Some(0xff));
        for bad in ["", "ff", "00000000000000fg", "00000000000000ff0"] {
            assert_eq!(parse_checksum_hex(bad), None, "{bad:?}");
        }
    }

    /// Every tail shape (8-byte words, one 4-byte word, single bytes) and
    /// the one-block boundary changes the digest when one bit flips.
    #[test]
    fn every_length_around_the_block_boundary_is_bit_sensitive() {
        for len in 0..=100usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let digest = xxh64(&data);
            assert_eq!(checksum_hex(&data).len(), 16);
            for flip in 0..len {
                let mut other = data.clone();
                other[flip] ^= 0x01;
                assert_ne!(digest, xxh64(&other), "len {len}, byte {flip}");
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot_byte_by_byte() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut ctx = Xxh64::new();
        for byte in &data {
            ctx.update(std::slice::from_ref(byte));
        }
        assert_eq!(ctx.digest(), xxh64(&data));
        assert_eq!(ctx.finalize_hex(), checksum_hex(&data));
        // `digest` does not consume: absorbing more continues the stream.
        ctx.update(&data);
        let doubled: Vec<u8> = data.iter().chain(data.iter()).copied().collect();
        assert_eq!(ctx.digest(), xxh64(&doubled));
    }

    #[test]
    fn the_object_checksum_is_the_root_over_the_stripe_digests() {
        let data: Vec<u8> = (0..2_500u32).map(|i| (i * 31 % 251) as u8).collect();
        // Up to one stripe — and for the empty object — it is the bytes'.
        for len in [0, 1, 999, 1_000] {
            let one = &data[..len];
            assert_eq!(
                object_checksum_hex(one, 1_000),
                checksum_hex(one),
                "len {len}"
            );
        }
        // Past it, XXH64 over the big-endian stripe digests, in order.
        let digests = [
            xxh64(&data[..1_000]),
            xxh64(&data[1_000..2_000]),
            xxh64(&data[2_000..]),
        ];
        let root: Vec<u8> = digests.iter().flat_map(|d| d.to_be_bytes()).collect();
        assert_eq!(object_checksum_hex(&data, 1_000), checksum_hex(&root));
        assert_eq!(object_checksum(&digests), checksum_hex(&root));
        assert_ne!(object_checksum_hex(&data, 1_000), checksum_hex(&data));
        // The cut and the order are part of what it binds.
        assert_ne!(
            object_checksum_hex(&data, 1_000),
            object_checksum_hex(&data, 1_250)
        );
        let swapped = [digests[1], digests[0], digests[2]];
        assert_ne!(object_checksum(&swapped), object_checksum(&digests));
    }
}
