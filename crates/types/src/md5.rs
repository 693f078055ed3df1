//! A from-scratch MD5 implementation (RFC 1321) — the paper's fingerprint,
//! not a content hash.
//!
//! MD5 is used where the paper specifies it, always over a few dozen bytes
//! of *names* and always as a uniformly-distributing fingerprint, never for
//! security:
//!
//! * the metadata row key, `row_key = MD5(container | key)` (§III-D1);
//! * the chunk storage key, `skey = MD5(container | key | UUID)` (§III-D1) —
//!   the simulated providers salt their virtual latencies with it, so every
//!   determinism pin rests on it staying put;
//! * the object class id, `C(obj) = MD5(mime | discretize(size))` (§III-A);
//! * the HMAC that signs requests to a private storage resource (§III-E,
//!   [`hmac_md5`]);
//! * the digests that make traffic-trace outcomes comparable across runs
//!   (`sim::traffic`, `frontend::stats`).
//!
//! It is **not** run over object bytes. Stripe and object payloads are
//! checksummed with [`crate::checksum`] (XXH64), which is an order of
//! magnitude cheaper per byte; nothing on the put/get bytes path calls into
//! this module.

use crate::hex::hex_lower;

/// Per-round left-rotation amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Per-round additive constants, `floor(2^32 * abs(sin(i+1)))`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 context: feed data in arbitrary slices with
/// [`Md5::update`] and read the digest with [`Md5::finalize`].
///
/// The one-shot [`md5`] below is a thin wrapper and produces identical
/// digests.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Partial block carried between `update` calls (< 64 bytes used).
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context (RFC 1321 initial state).
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buffer: [0u8; 64],
            buffered: 0,
            len: 0,
        }
    }

    /// Absorbs `data`; may be called any number of times.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            } else {
                // `data` did not complete the carried block; it is fully
                // buffered and must stay so.
                return;
            }
        }
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            let mut full = [0u8; 64];
            full.copy_from_slice(block);
            self.compress(&full);
        }
        let tail = chunks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Total number of bytes absorbed so far.
    pub fn bytes_seen(&self) -> u64 {
        self.len
    }

    /// Pads, runs the final block(s) and returns the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        // Padding: append 0x80, then zeros, then the 64-bit little-endian
        // message length in bits, so the total is a multiple of 64 bytes.
        let bit_len = self.len.wrapping_mul(8);
        let mut tail = Vec::with_capacity(72);
        tail.push(0x80);
        while (self.buffered + tail.len()) % 64 != 56 {
            tail.push(0);
        }
        tail.extend_from_slice(&bit_len.to_le_bytes());
        // `update` would also count these bytes; feed the blocks directly.
        let mut rest: &[u8] = &tail;
        while !rest.is_empty() {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        debug_assert_eq!(self.buffered, 0);

        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&self.state[0].to_le_bytes());
        out[4..8].copy_from_slice(&self.state[1].to_le_bytes());
        out[8..12].copy_from_slice(&self.state[2].to_le_bytes());
        out[12..16].copy_from_slice(&self.state[3].to_le_bytes());
        out
    }

    /// Digest as a lowercase hex string.
    pub fn finalize_hex(self) -> String {
        hex_lower(&self.finalize())
    }

    /// One 64-byte block of the RFC 1321 compression function.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, word) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        }

        let (mut a, mut b, mut c, mut d) =
            (self.state[0], self.state[1], self.state[2], self.state[3]);
        for i in 0..64 {
            let (f, g) = match i {
                0..=15 => ((b & c) | (!b & d), i),
                16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let f = f.wrapping_add(a).wrapping_add(K[i]).wrapping_add(m[g]);
            a = d;
            d = c;
            c = b;
            b = b.wrapping_add(f.rotate_left(S[i]));
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// Computes the MD5 digest of `data` as 16 raw bytes.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

/// Computes the MD5 digest of `data` as a lowercase hex string.
pub fn md5_hex(data: &[u8]) -> String {
    hex_lower(&md5(data))
}

/// A keyed MD5-based HMAC (RFC 2104 construction with MD5 as the hash).
///
/// Used by the private-storage-resource substrate to sign requests with the
/// owner's private token, as described in §III-E of the paper.
pub fn hmac_md5(key: &[u8], message: &[u8]) -> [u8; 16] {
    const BLOCK: usize = 64;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..16].copy_from_slice(&md5(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(BLOCK + message.len());
    let mut outer = Vec::with_capacity(BLOCK + 16);
    for &b in &key_block {
        inner.push(b ^ 0x36);
    }
    inner.extend_from_slice(message);
    let inner_digest = md5(&inner);
    for &b in &key_block {
        outer.push(b ^ 0x5c);
    }
    outer.extend_from_slice(&inner_digest);
    md5(&outer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test vectors.
    #[test]
    fn rfc1321_test_vectors() {
        assert_eq!(md5_hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(md5_hex(b"a"), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(md5_hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            md5_hex(b"message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            md5_hex(b"abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            md5_hex(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            md5_hex(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    /// Inputs spanning the padding boundary (55, 56, 63, 64, 65 bytes) hit
    /// the one-block vs two-block padding paths.
    #[test]
    fn padding_boundaries() {
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x41u8; len];
            let digest = md5_hex(&data);
            assert_eq!(digest.len(), 32);
            // Digest changes when one byte changes.
            let mut other = data.clone();
            other[0] = 0x42;
            assert_ne!(digest, md5_hex(&other));
        }
    }

    /// Incremental updates produce the same digest as the one-shot function
    /// for every split point around block and padding boundaries.
    #[test]
    fn streaming_matches_one_shot_across_split_points() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 % 251) as u8).collect();
        let expected = md5(&data);
        for split in [0, 1, 17, 55, 56, 63, 64, 65, 127, 128, 129, 199, 200] {
            let mut ctx = Md5::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), expected, "split at {split}");
        }
        // Many tiny updates.
        let mut ctx = Md5::new();
        for b in &data {
            ctx.update(std::slice::from_ref(b));
        }
        assert_eq!(ctx.bytes_seen(), data.len() as u64);
        assert_eq!(ctx.finalize_hex(), md5_hex(&data));
    }

    /// RFC 2202 HMAC-MD5 test vectors.
    #[test]
    fn rfc2202_hmac_vectors() {
        let digest = hmac_md5(&[0x0b; 16], b"Hi There");
        assert_eq!(hex(&digest), "9294727a3638bb1c13f48ef8158bfc9d");

        let digest = hmac_md5(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&digest), "750c783e6ab0b503eaa86e310a5db738");

        let digest = hmac_md5(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&digest), "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
}
