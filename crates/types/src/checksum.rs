//! The content checksum: XXH64 (seed 0) in safe Rust.
//!
//! This is the **only** hash that runs over object bytes. The write path
//! computes it once per stripe and once across the whole object (streaming,
//! [`Xxh64`]); both values are stored in the metadata
//! ([`crate::object::StripeMeta::checksum`],
//! [`crate::object::ObjectMeta::checksum`]) and every read verifies the
//! bytes it returns against them before a client sees them. The cache
//! digests its entries with the same function.
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
//! builds its output and the write path its data shards with
//! [`Xxh64::append`] (and [`Xxh64::append_pair`]), which copies the source
//! onto the end of the destination one 32-byte block at a time and feeds
//! each block to the lanes *by reading it back from the destination*. The
//! digest therefore covers exactly the bytes that end up in the buffer —
//! not a source that might differ from them — and each byte crosses the
//! memory hierarchy once instead of once to copy and once more to hash.
//!
//! The copy is free: XXH64's lanes are bound by the 64-bit multiplier (two
//! multiplies per 8-byte lane step), and the block copy and read-back fit
//! in the cycles those leave idle. On the 2-vCPU Xeon build host `append`
//! runs at the speed of [`xxh64`] alone, ≈ 0.08 ns/B, and takes ≈ 0.6× the
//! time of `extend_from_slice` followed by a separate hash at 8 MiB (≈ 0.8×
//! at 512 KiB, where the copy stays in cache) — `BENCH_raw_speed.json`,
//! `checksum.append`. The two-context [`Xxh64::append_pair`] interleaves
//! two independent sets of lanes in one loop, which hides the read-back
//! and the loop overhead behind twice as much multiplier work: it costs
//! what two hashes cost (≈ 0.15 ns/B; one multiplier does not run two
//! contexts' multiplies at once) but no copy and no second read of the
//! source, ≈ 0.7× the time of a copy followed by two hashes at 8 MiB.

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

/// Appends `src` to `out` and absorbs it into every context of `contexts`,
/// in one pass: each 32-byte block of `src` is copied onto the end of `out`
/// and each context's lanes read their next whole block back from `out`.
///
/// A context carrying a partial block from an earlier call first completes
/// it from the head of `src`, so its blocks start at that offset into the
/// appended bytes and lag the copy by at most one block; contexts that
/// carry different partial blocks each keep their own offset.
#[inline(always)]
fn append_absorbing<const N: usize>(mut contexts: [&mut Xxh64; N], out: &mut Vec<u8>, src: &[u8]) {
    let base = out.len();
    out.reserve(src.len());
    // Where each context's next whole block starts in the appended bytes.
    let mut next = [0usize; N];
    for (ctx, next) in contexts.iter_mut().zip(&mut next) {
        ctx.len = ctx.len.wrapping_add(src.len() as u64);
        *next = ctx.top_up(src);
    }
    let mut lanes = contexts.each_ref().map(|ctx| ctx.lanes);
    let (blocks, tail) = src.as_chunks::<BLOCK>();
    for block in blocks {
        out.extend_from_slice(block);
        let written = &out[base..];
        for k in 0..N {
            // A context whose partial block `src` could not complete has
            // `next == src.len()` and never finds a block here.
            if let Some(block) = written.get(next[k]..).and_then(<[u8]>::first_chunk) {
                lanes[k] = round_block(lanes[k], block);
                next[k] += BLOCK;
            }
        }
    }
    out.extend_from_slice(tail);
    let written = &out[base..];
    for ((ctx, lanes), next) in contexts.into_iter().zip(lanes).zip(next) {
        ctx.lanes = lanes;
        if ctx.buffered == 0 {
            let rest = consume_blocks(&mut ctx.lanes, &written[next..]);
            ctx.buffer[..rest.len()].copy_from_slice(rest);
            ctx.buffered = rest.len();
        }
    }
}

/// Streaming XXH64: feed data in arbitrary slices with [`Xxh64::update`];
/// [`Xxh64::digest`] equals [`xxh64`] of the concatenation.
///
/// The multipart write path checksums a whole object while its stripes flow
/// through encode and upload, so the full payload is never resident.
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
    pub fn append(&mut self, out: &mut Vec<u8>, src: &[u8]) {
        append_absorbing([self], out, src);
    }

    /// [`Xxh64::append`] into two contexts at once — a stripe's and its
    /// object's — in the same pass: `src` is copied and read back once, and
    /// the two contexts' lanes run interleaved in one loop (see "Hashing
    /// while copying" in the module docs for what that buys).
    pub fn append_pair(&mut self, other: &mut Xxh64, out: &mut Vec<u8>, src: &[u8]) {
        append_absorbing([self, other], out, src);
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
}
