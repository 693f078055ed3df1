//! Arithmetic over the Galois field GF(2⁸).
//!
//! Elements are bytes; addition is XOR; multiplication is polynomial
//! multiplication modulo the primitive polynomial `x⁸ + x⁴ + x³ + x² + 1`
//! (0x11d). Scalar multiplication and division go through log/exp tables
//! built once at first use.
//!
//! # The wide `mul_slice_xor` kernel
//!
//! `acc[i] ^= c · slice[i]` is the inner loop of Reed–Solomon encode and
//! decode, so it gets a dedicated wide kernel built on the **split
//! low/high-nibble-table formulation**: for a fixed coefficient `c`, the map
//! `s ↦ c·s` is GF(2)-linear in the bits of `s`, so it factors through the
//! two nibbles:
//!
//! ```text
//! c·s = LO_c[s & 0x0f] ^ HI_c[s >> 4]
//! LO_c[x] = c·x        (x in 0..16, products of the low-nibble bits)
//! HI_c[x] = c·(x << 4) (x in 0..16, products of the high-nibble bits)
//! ```
//!
//! Two 16-entry tables replace the 256-entry product row, and 16 entries is
//! exactly what a byte-shuffle instruction can look up in parallel. Three
//! kernel tiers implement the same formulation, picked once per process by
//! runtime feature detection (see [`active_kernel`]):
//!
//! * **Gfni** (x86-64 with GFNI+AVX2): `vgf2p8affineqb` applies the full
//!   8×8 GF(2) bit-matrix of `c·(·)` to 32 bytes per instruction. The
//!   affine matrix works for any reducing polynomial, including our
//!   non-default 0x11d — the matrix rows *are* the products `c·2ʲ`.
//! * **Avx2**: `vpshufb` looks the two nibble tables up for 32 bytes per
//!   shuffle (the classic PSHUFB trick); 64 bytes per unrolled iteration.
//! * **Portable** (safe Rust, any arch): the same linear decomposition
//!   evaluated bitwise over `u64` lanes, 64 bytes per iteration. Each of
//!   the 8 bit-planes `(x >> j) & 0x0101…01` selects the bytes whose bit
//!   `j` is set; multiplying by the single-byte constant `c·2ʲ` broadcasts
//!   the partial product into exactly those byte lanes (no cross-byte
//!   carries since `c·2ʲ < 256` and the selectors are 0/1), and the eight
//!   partial products XOR together — the nibble-table lookups unrolled
//!   into their 4+4 defining XOR terms, SWAR-style.
//!
//! Every tier is differential-tested against [`mul_slice_xor_reference`]
//! (the seed's per-byte log/exp loop, kept verbatim) across all 256
//! coefficients, odd lengths and misaligned slices.

use std::sync::OnceLock;

/// The primitive reducing polynomial (0x11d) without the leading x⁸ term.
const POLY: u16 = 0x11d;
/// Generator element whose powers enumerate all non-zero field elements.
const GENERATOR: u8 = 2;

struct Tables {
    /// exp[i] = generator^i, for i in 0..510 (doubled to avoid a modulo).
    exp: [u8; 512],
    /// log[x] = i such that generator^i = x, for x in 1..=255.
    log: [u16; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u16;
            // Multiply x by the generator (2) with reduction.
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
            // GENERATOR is 2, so a single shift suffices.
            let _ = GENERATOR;
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Adds two field elements (XOR).
#[inline]
pub(crate) fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts two field elements (identical to addition in GF(2⁸)).
#[inline]
pub(crate) fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
#[inline]
pub(crate) fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    let idx = t.log[a as usize] as usize + t.log[b as usize] as usize;
    t.exp[idx]
}

/// Divides `a` by `b`.
///
/// # Panics
/// Panics if `b` is zero.
#[inline]
pub(crate) fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let idx = 255 + t.log[a as usize] as usize - t.log[b as usize] as usize;
    t.exp[idx]
}

/// Multiplicative inverse of `a`.
///
/// # Panics
/// Panics if `a` is zero.
#[inline]
pub(crate) fn inv(a: u8) -> u8 {
    div(1, a)
}

/// Raises `a` to the power `n`.
pub(crate) fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    let log_a = t.log[a as usize] as u64;
    let idx = (log_a * n as u64) % 255;
    t.exp[idx as usize]
}

/// Below this length the per-byte log/exp path beats the wide kernels'
/// per-call setup (nibble tables / bit-plane constants).
const WIDE_KERNEL_THRESHOLD: usize = 64;

/// The wide-kernel tier selected by [`active_kernel`]. Exposed (doc-hidden)
/// so benches and differential tests can pin a specific tier via
/// [`mul_slice_xor_with`].
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// `vgf2p8affineqb`: one instruction per 32 bytes (x86-64, GFNI+AVX2).
    Gfni,
    /// `vpshufb` nibble lookups: ~4 instructions per 32 bytes (x86-64, AVX2).
    Avx2,
    /// Safe `u64` SWAR over bit-planes: ~32 ALU ops per 8 bytes (any arch).
    Portable,
}

impl Kernel {
    /// Stable lowercase name, used by benches when recording tier results.
    #[doc(hidden)]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Gfni => "gfni",
            Kernel::Avx2 => "avx2",
            Kernel::Portable => "portable",
        }
    }
}

/// Returns the best wide-kernel tier this CPU supports, detected once per
/// process.
#[doc(hidden)]
pub fn active_kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("gfni")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                return Kernel::Gfni;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
        }
        Kernel::Portable
    })
}

/// The two 16-entry nibble tables for coefficient `c`:
/// `lo[x] = c·x` and `hi[x] = c·(x << 4)`.
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for x in 0..16u8 {
        lo[x as usize] = mul(c, x);
        hi[x as usize] = mul(c, x << 4);
    }
    (lo, hi)
}

/// XORs `slice` into `acc` eight bytes at a time (the `c == 1` fast path).
fn xor_slice(slice: &[u8], acc: &mut [u8]) {
    let n = slice.len() & !7;
    for (sb, ab) in slice[..n].chunks_exact(8).zip(acc[..n].chunks_exact_mut(8)) {
        let x = u64::from_le_bytes(sb.try_into().unwrap());
        let a = u64::from_le_bytes(ab.as_ref().try_into().unwrap());
        ab.copy_from_slice(&(a ^ x).to_le_bytes());
    }
    for (a, &s) in acc[n..].iter_mut().zip(slice[n..].iter()) {
        *a ^= s;
    }
}

/// Per-byte nibble-table tail shared by every wide tier.
fn mul_tail_nibble(lo: &[u8; 16], hi: &[u8; 16], slice: &[u8], acc: &mut [u8]) {
    for (a, &s) in acc.iter_mut().zip(slice.iter()) {
        *a ^= lo[(s & 0x0f) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// Portable wide tier: the nibble-table linear map evaluated over `u64`
/// lanes, 64 bytes per outer iteration. See the module docs for why the
/// bit-plane multiply is carry-free.
fn mul_slice_xor_portable(c: u8, slice: &[u8], acc: &mut [u8]) {
    // Bit-plane constants: m[j] = c·2ʲ — the j-th XOR term of the nibble
    // tables (lo for j < 4, hi for j ≥ 4).
    let mut m = [0u64; 8];
    for (j, mj) in m.iter_mut().enumerate() {
        *mj = mul(c, 1u8 << j) as u64;
    }
    const LSB: u64 = 0x0101_0101_0101_0101;
    let n = slice.len() & !63;
    for (sb, ab) in slice[..n]
        .chunks_exact(64)
        .zip(acc[..n].chunks_exact_mut(64))
    {
        for (sw, aw) in sb.chunks_exact(8).zip(ab.chunks_exact_mut(8)) {
            let x = u64::from_le_bytes(sw.try_into().unwrap());
            let mut y = 0u64;
            for (j, &mj) in m.iter().enumerate() {
                y ^= ((x >> j) & LSB).wrapping_mul(mj);
            }
            let a = u64::from_le_bytes(aw.as_ref().try_into().unwrap());
            aw.copy_from_slice(&(a ^ y).to_le_bytes());
        }
    }
    let (lo, hi) = nibble_tables(c);
    mul_tail_nibble(&lo, &hi, &slice[n..], &mut acc[n..]);
}

/// x86-64 SIMD tiers. The only unsafe in this crate lives here; each
/// function's safety contract is "the corresponding CPU feature was
/// runtime-detected", enforced by the dispatchers below.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use core::arch::x86_64::*;

    /// Builds the `vgf2p8affineqb` matrix for `y = c·x` over 0x11d.
    ///
    /// Per the SDM, output bit `i` of each byte is
    /// `parity(A.byte[7-i] & x)`, so row `7-i` must hold, at bit `j`, bit
    /// `i` of `c·2ʲ` — i.e. the columns of the matrix are the bit-plane
    /// products `m[j] = c·2ʲ`, the same constants the portable tier uses.
    pub(super) fn affine_matrix(m: &[u64; 8]) -> u64 {
        let mut a = 0u64;
        for i in 0..8 {
            let mut row = 0u8;
            for (j, &mj) in m.iter().enumerate() {
                row |= ((mj as u8 >> i) & 1) << j;
            }
            a |= (row as u64) << (8 * (7 - i));
        }
        a
    }

    /// # Safety
    /// Caller must have runtime-detected `gfni` and `avx2`.
    #[target_feature(enable = "gfni,avx2")]
    pub(super) unsafe fn mul_slice_xor_gfni(matrix: u64, slice: &[u8], acc: &mut [u8]) {
        unsafe {
            let a_mat = _mm256_set1_epi64x(matrix as i64);
            let mut i = 0usize;
            let len = slice.len();
            while i + 64 <= len {
                let s0 = _mm256_loadu_si256(slice.as_ptr().add(i) as *const __m256i);
                let s1 = _mm256_loadu_si256(slice.as_ptr().add(i + 32) as *const __m256i);
                let p0 = _mm256_gf2p8affine_epi64_epi8::<0>(s0, a_mat);
                let p1 = _mm256_gf2p8affine_epi64_epi8::<0>(s1, a_mat);
                let d0 = acc.as_mut_ptr().add(i) as *mut __m256i;
                let d1 = acc.as_mut_ptr().add(i + 32) as *mut __m256i;
                _mm256_storeu_si256(d0, _mm256_xor_si256(_mm256_loadu_si256(d0), p0));
                _mm256_storeu_si256(d1, _mm256_xor_si256(_mm256_loadu_si256(d1), p1));
                i += 64;
            }
            while i + 32 <= len {
                let s = _mm256_loadu_si256(slice.as_ptr().add(i) as *const __m256i);
                let p = _mm256_gf2p8affine_epi64_epi8::<0>(s, a_mat);
                let d = acc.as_mut_ptr().add(i) as *mut __m256i;
                _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), p));
                i += 32;
            }
        }
    }

    /// # Safety
    /// Caller must have runtime-detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_slice_xor_avx2(
        lo: &[u8; 16],
        hi: &[u8; 16],
        slice: &[u8],
        acc: &mut [u8],
    ) {
        unsafe {
            // Broadcast each 16-entry table into both 128-bit lanes so
            // vpshufb looks it up lane-locally.
            let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr() as *const __m128i));
            let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr() as *const __m128i));
            let mask = _mm256_set1_epi8(0x0f);
            let mut i = 0usize;
            let len = slice.len();
            while i + 32 <= len {
                let s = _mm256_loadu_si256(slice.as_ptr().add(i) as *const __m256i);
                // High nibble: the epi64 shift drags neighbour bits into
                // 4..8 of each byte; the 0x0f mask discards them.
                let lo_n = _mm256_and_si256(s, mask);
                let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
                let p = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo_t, lo_n),
                    _mm256_shuffle_epi8(hi_t, hi_n),
                );
                let d = acc.as_mut_ptr().add(i) as *mut __m256i;
                _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), p));
                i += 32;
            }
        }
    }
}

/// Multiplies every byte of `slice` by the scalar `c`, XOR-accumulating into
/// `acc` (`acc[i] ^= c * slice[i]`). This is the inner loop of Reed–Solomon
/// encoding and decoding.
///
/// Slices of `WIDE_KERNEL_THRESHOLD` bytes or more go through the wide
/// nibble-table kernel tier picked by [`active_kernel`] (see the module
/// docs); shorter slices use the seed's per-byte log/exp loop, whose setup
/// cost is zero.
pub fn mul_slice_xor(c: u8, slice: &[u8], acc: &mut [u8]) {
    debug_assert_eq!(slice.len(), acc.len());
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(slice, acc);
        return;
    }
    if slice.len() < WIDE_KERNEL_THRESHOLD {
        let t = tables();
        let log_c = t.log[c as usize] as usize;
        for (a, &s) in acc.iter_mut().zip(slice.iter()) {
            if s != 0 {
                *a ^= t.exp[log_c + t.log[s as usize] as usize];
            }
        }
        return;
    }
    let ok = mul_slice_xor_with(active_kernel(), c, slice, acc);
    debug_assert!(ok, "active_kernel() returned an unsupported tier");
}

/// Runs the wide kernel of a specific tier (doc-hidden: benches and
/// differential tests only). Returns `false` — leaving `acc` untouched — if
/// the tier is not supported on this CPU. `c == 0` and `c == 1` take the
/// same shortcuts as [`mul_slice_xor`].
#[doc(hidden)]
pub fn mul_slice_xor_with(kernel: Kernel, c: u8, slice: &[u8], acc: &mut [u8]) -> bool {
    debug_assert_eq!(slice.len(), acc.len());
    if c == 0 {
        return true;
    }
    if c == 1 {
        xor_slice(slice, acc);
        return true;
    }
    match kernel {
        Kernel::Portable => {
            mul_slice_xor_portable(c, slice, acc);
            true
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Gfni => {
            if !(std::arch::is_x86_feature_detected!("gfni")
                && std::arch::is_x86_feature_detected!("avx2"))
            {
                return false;
            }
            let mut m = [0u64; 8];
            for (j, mj) in m.iter_mut().enumerate() {
                *mj = mul(c, 1u8 << j) as u64;
            }
            let matrix = simd::affine_matrix(&m);
            let n = slice.len() & !31;
            // SAFETY: gfni+avx2 were runtime-detected just above.
            #[allow(unsafe_code)]
            unsafe {
                simd::mul_slice_xor_gfni(matrix, &slice[..n], &mut acc[..n]);
            }
            let (lo, hi) = nibble_tables(c);
            mul_tail_nibble(&lo, &hi, &slice[n..], &mut acc[n..]);
            true
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return false;
            }
            let (lo, hi) = nibble_tables(c);
            let n = slice.len() & !31;
            // SAFETY: avx2 was runtime-detected just above.
            #[allow(unsafe_code)]
            unsafe {
                simd::mul_slice_xor_avx2(&lo, &hi, &slice[..n], &mut acc[..n]);
            }
            mul_tail_nibble(&lo, &hi, &slice[n..], &mut acc[n..]);
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Gfni | Kernel::Avx2 => false,
    }
}

/// The seed's `mul_slice_xor` loop (hoisted log lookup, per-byte branch and
/// double table load), kept verbatim as the baseline for
/// `benches/erasure.rs` and for differential tests.
pub fn mul_slice_xor_reference(c: u8, slice: &[u8], acc: &mut [u8]) {
    debug_assert_eq!(slice.len(), acc.len());
    if c == 0 {
        return;
    }
    if c == 1 {
        for (a, &s) in acc.iter_mut().zip(slice.iter()) {
            *a ^= s;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[c as usize] as usize;
    for (a, &s) in acc.iter_mut().zip(slice.iter()) {
        if s != 0 {
            *a ^= t.exp[log_c + t.log[s as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor_and_self_inverse() {
        assert_eq!(add(0x53, 0xca), 0x53 ^ 0xca);
        assert_eq!(add(0x53, 0x53), 0);
        assert_eq!(sub(0x53, 0xca), add(0x53, 0xca));
    }

    #[test]
    fn multiplication_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        for &(a, b, c) in &[(3u8, 7u8, 11u8), (0x53, 0xca, 0x01), (255, 254, 2)] {
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in 1..=255u8 {
            for b in [1u8, 2, 3, 29, 76, 143, 255] {
                let p = mul(a, b);
                assert_eq!(div(p, b), a);
                assert_eq!(div(p, a), b);
            }
            assert_eq!(mul(a, inv(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        div(5, 0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 29, 200] {
            let mut acc = 1u8;
            for n in 0..10u32 {
                assert_eq!(pow(a, n), if n == 0 { 1 } else { acc });
                if n > 0 || a != 0 {
                    acc = mul(acc, a);
                } else {
                    acc = 0;
                }
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn known_multiplication_value() {
        // 0x53 * 0xca = 0x01 under polynomial 0x11d? Verify via distributivity
        // against a slow bitwise reference implementation instead.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            for _ in 0..8 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in 0..=255u8 {
            for b in [0u8, 1, 2, 5, 29, 76, 143, 200, 255] {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_slice_xor_accumulates() {
        let src = [1u8, 2, 3, 4, 0];
        let mut acc = [0u8; 5];
        mul_slice_xor(3, &src, &mut acc);
        for i in 0..5 {
            assert_eq!(acc[i], mul(3, src[i]));
        }
        // XOR-ing the same contribution again cancels it.
        mul_slice_xor(3, &src, &mut acc);
        assert_eq!(acc, [0u8; 5]);
        // c = 0 contributes nothing; c = 1 copies.
        mul_slice_xor(0, &src, &mut acc);
        assert_eq!(acc, [0u8; 5]);
        mul_slice_xor(1, &src, &mut acc);
        assert_eq!(acc, src);
    }

    /// Deterministic xorshift fill so the differential corpus covers every
    /// byte value, zero runs included.
    fn fill_pseudo(buf: &mut [u8], mut seed: u64) {
        for (i, b) in buf.iter_mut().enumerate() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            // Inject zero runs: every 11th byte is forced to zero.
            *b = if i % 11 == 0 { 0 } else { (seed >> 24) as u8 };
        }
    }

    #[test]
    fn every_tier_matches_reference_all_coefficients_odd_lengths() {
        let mut data = vec![0u8; 2048 + 64];
        let mut base_acc = vec![0u8; 2048 + 64];
        fill_pseudo(&mut data, 0x5eed_cafe_f00d_0001);
        fill_pseudo(&mut base_acc, 0x5eed_cafe_f00d_0002);

        // Odd lengths, sub-64-byte slices, non-8- and non-32-aligned tails,
        // each at every source alignment 0–63.
        let lengths = [
            0usize, 1, 3, 7, 13, 31, 32, 33, 63, 64, 65, 95, 127, 129, 191, 256, 257, 511, 1021,
            2048,
        ];
        let offsets = 0..64usize;
        let tiers = [Kernel::Gfni, Kernel::Avx2, Kernel::Portable];

        for c in 0..=255u8 {
            for &len in &lengths {
                for off in offsets.clone() {
                    let slice = &data[off..off + len];
                    let mut expect = base_acc[off..off + len].to_vec();
                    mul_slice_xor_reference(c, slice, &mut expect);

                    let mut auto = base_acc[off..off + len].to_vec();
                    mul_slice_xor(c, slice, &mut auto);
                    assert_eq!(auto, expect, "auto path c={c} len={len} off={off}");

                    for tier in tiers {
                        let mut got = base_acc[off..off + len].to_vec();
                        if mul_slice_xor_with(tier, c, slice, &mut got) {
                            assert_eq!(got, expect, "{} c={c} len={len} off={off}", tier.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn active_kernel_is_supported() {
        // Whatever tier detection picked must actually run.
        let src = [0xa5u8; 128];
        let mut acc = [0u8; 128];
        assert!(mul_slice_xor_with(active_kernel(), 29, &src, &mut acc));
        let mut expect = [0u8; 128];
        mul_slice_xor_reference(29, &src, &mut expect);
        assert_eq!(acc, expect);
    }

    #[test]
    fn nibble_tables_split_the_product() {
        for c in [2u8, 3, 29, 143, 255] {
            let (lo, hi) = nibble_tables(c);
            for s in 0..=255u8 {
                assert_eq!(
                    lo[(s & 0x0f) as usize] ^ hi[(s >> 4) as usize],
                    mul(c, s),
                    "c={c} s={s}"
                );
            }
        }
    }

    #[test]
    fn mul_slice_xor_table_path_matches_per_byte_path() {
        // Long enough to take the product-table path; contents cover every
        // byte value including zero runs.
        let src: Vec<u8> = (0..1024u32).map(|i| (i % 256) as u8).collect();
        for c in [2u8, 3, 29, 76, 143, 254, 255] {
            let mut table_path = vec![0u8; src.len()];
            mul_slice_xor(c, &src, &mut table_path);
            // Reference: element-wise mul (the definition).
            for (i, (&out, &s)) in table_path.iter().zip(src.iter()).enumerate() {
                assert_eq!(out, mul(c, s), "c={c} i={i}");
            }
            // And the short-slice path agrees on a prefix.
            let mut short = vec![0u8; 32];
            mul_slice_xor(c, &src[..32], &mut short);
            assert_eq!(&short[..], &table_path[..32]);
        }
    }
}
