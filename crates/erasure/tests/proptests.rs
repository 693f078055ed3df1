//! Property-based tests for the erasure-coding substrate.

use proptest::prelude::*;
use scalia_erasure::codec::{
    decode_object, decode_object_append, decode_object_into, encode_object, encode_staged,
    staged_len, Chunk,
};
use scalia_erasure::gf256;
use scalia_erasure::rs::ReedSolomon;
use scalia_types::checksum::{checksum_hex, xxh64, Xxh64};
use scalia_types::error::ScaliaError;
use scalia_types::ErasureParams;

/// The widest code a placement can choose: one chunk per provider of the
/// paper catalog plus the provider the evaluation adds (§IV-D).
const MAX_CATALOG_WIDTH: u32 = 6;

/// The read path's decode — append onto a buffer that already holds bytes,
/// hashing on the way — against the reference decode into a window, for
/// every `(m, n)` a placement over the catalog can choose, every `m`-subset
/// of the chunks (data only, mixed, parity only), and lengths that are
/// empty, one byte, a shard ± 1 byte, a nominal stripe, a stripe + 1 and
/// odd tails; plus one stripe of a quarter megabyte and a byte.
#[test]
fn append_decode_matches_decode_into_for_every_catalog_geometry_and_subset() {
    const STRIPE: usize = 4096;
    const PREFIX: &[u8] = b"earlier stripes";
    let mut cases = 0;
    for n in 1..=MAX_CATALOG_WIDTH {
        for m in 1..=n {
            let params = ErasureParams::new(m, n).unwrap();
            let shard = 97 * m as usize;
            let mut lens = vec![0, 1, shard - 1, shard, shard + 1, STRIPE, STRIPE + 1];
            lens.extend([STRIPE + 13, 2 * STRIPE - 7]);
            if (m, n) == (3, 5) {
                lens.push((256 << 10) + 1);
            }
            for len in lens {
                let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7 * len) as u8).collect();
                let enc = encode_object(&data, params).unwrap();
                for mask in 0u32..(1 << n) {
                    if mask.count_ones() != m {
                        continue;
                    }
                    let subset: Vec<Chunk> = (0..n as usize)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| enc.chunks[i].clone())
                        .collect();
                    let mut reference = vec![0u8; len];
                    decode_object_into(&subset, params, &mut reference).unwrap();
                    let (mut out, mut checksum) = (PREFIX.to_vec(), Xxh64::new());
                    decode_object_append(&subset, params, len, &mut out, &mut checksum).unwrap();
                    let what = format!("({m},{n}) len {len} subset {mask:b}");
                    assert_eq!(&out[..PREFIX.len()], PREFIX, "{what}");
                    assert_eq!(&out[PREFIX.len()..], &reference[..], "{what}");
                    assert_eq!(&reference[..], &data[..], "{what}");
                    assert_eq!(checksum.digest(), xxh64(&data), "{what}");
                    cases += 1;
                }
                // Short of m usable chunks, both refuse and nothing is appended.
                let short = &enc.chunks[..m as usize - 1];
                let mut out = PREFIX.to_vec();
                let err = decode_object_append(short, params, len, &mut out, &mut Xxh64::new());
                assert!(matches!(err, Err(ScaliaError::NotEnoughChunks { .. })));
                assert_eq!(out, PREFIX);
            }
        }
    }
    assert_eq!(cases, 120 * 9 + 10);
}

/// The write path's encode — the stripe staged in a buffer, padded in
/// place, its data chunks cut from it — against `encode_object`, chunk for
/// chunk, for every `(m, n)` a placement over the catalog can choose and
/// lengths that are empty, one byte, a shard ± 1 byte, 4 KiB, a 512 KiB
/// stripe and one byte short of it, and
/// odd tails; staged at exactly [`staged_len`] (no reallocation: the data
/// chunks start in the staged allocation) and at the length alone (the pad
/// grows it, same chunks).
#[test]
fn staged_encode_equals_encode_object_for_every_catalog_geometry() {
    const STRIPE: usize = 512 * 1024;
    for n in 1..=MAX_CATALOG_WIDTH {
        for m in 1..=n {
            let params = ErasureParams::new(m, n).unwrap();
            let shard = 97 * m as usize;
            let mut lens = vec![0, 1, shard - 1, shard, shard + 1, 4096, STRIPE - 1, STRIPE];
            lens.extend([4096 + 13, 3 * 4096 - 7]);
            for len in lens {
                let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7 * len) as u8).collect();
                let what = format!("({m},{n}) len {len}");
                let reference = encode_object(&data, params).unwrap();
                assert_eq!(
                    encode_staged(data.to_vec(), params).unwrap(),
                    reference,
                    "{what}"
                );

                let mut staged = Vec::with_capacity(staged_len(len, m));
                staged.extend_from_slice(&data);
                let base = staged.as_ptr();
                let encoded = encode_staged(staged, params).unwrap();
                assert_eq!(encoded, reference, "{what}");
                assert_eq!(encoded.chunks[0].data.as_ptr(), base, "{what}: reallocated");
                assert_eq!(
                    encoded.stored_bytes(),
                    staged_len(len, m) / m as usize * n as usize
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A staged encode of random bytes equals `encode_object`'s for random
    /// `(m, n)`, whatever the staging buffer's spare capacity.
    #[test]
    fn staged_encode_matches_encode_object(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        m in 1u32..7,
        extra in 0u32..4,
        spare in 0usize..64,
    ) {
        let params = ErasureParams::new(m, m + extra).unwrap();
        let mut staged = Vec::with_capacity(data.len() + spare);
        staged.extend_from_slice(&data);
        prop_assert_eq!(
            encode_staged(staged, params).unwrap(),
            encode_object(&data, params).unwrap()
        );
    }

    /// The wide `mul_slice_xor` kernel agrees with the seed's per-byte
    /// reference for arbitrary coefficient, length and offset — including
    /// slices shorter than the 64-byte wide threshold and tails that are
    /// not 8- or 32-byte aligned.
    #[test]
    fn wide_kernel_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        acc_seed in proptest::collection::vec(any::<u8>(), 0..4096),
        c in any::<u8>(),
        offset in 0usize..16,
    ) {
        let len = data.len().min(acc_seed.len());
        let offset = offset.min(len);
        let slice = &data[offset..len];
        let base = &acc_seed[offset..len];

        let mut expect = base.to_vec();
        gf256::mul_slice_xor_reference(c, slice, &mut expect);

        let mut auto = base.to_vec();
        gf256::mul_slice_xor(c, slice, &mut auto);
        prop_assert_eq!(&auto, &expect);

        // Each tier individually (skipped when unsupported on this CPU).
        for tier in [gf256::Kernel::Gfni, gf256::Kernel::Avx2, gf256::Kernel::Portable] {
            let mut got = base.to_vec();
            if gf256::mul_slice_xor_with(tier, c, slice, &mut got) {
                prop_assert_eq!(&got, &expect, "tier {}", tier.name());
            }
        }
    }

    /// Encoding then decoding from a random m-subset of chunks reproduces the
    /// original data for random (m, n) and random payloads.
    #[test]
    fn roundtrip_any_m_subset(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        m in 1u32..6,
        extra in 0u32..4,
        seed in any::<u64>(),
    ) {
        let n = m + extra;
        let params = ErasureParams::new(m, n).unwrap();
        let enc = encode_object(&data, params).unwrap();

        // Pick a pseudo-random m-subset of the chunks.
        let mut indices: Vec<usize> = (0..n as usize).collect();
        let mut state = seed;
        for i in (1..indices.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            indices.swap(i, j);
        }
        let subset: Vec<_> = indices[..m as usize]
            .iter()
            .map(|&i| enc.chunks[i].clone())
            .collect();

        let decoded = decode_object(&subset, params, enc.original_len).unwrap();
        prop_assert_eq!(&decoded[..], &data[..]);
    }

    /// The systematic property: the first m chunks concatenated (and
    /// truncated) are exactly the original data.
    #[test]
    fn systematic_prefix_property(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        m in 1u32..5,
        extra in 1u32..4,
    ) {
        let n = m + extra;
        let params = ErasureParams::new(m, n).unwrap();
        let enc = encode_object(&data, params).unwrap();
        let mut concatenated = Vec::new();
        for chunk in &enc.chunks[..m as usize] {
            concatenated.extend_from_slice(&chunk.data);
        }
        concatenated.truncate(data.len());
        prop_assert_eq!(concatenated, data);
    }

    /// Raw Reed-Solomon: every shard has the same length and parity shards
    /// are deterministic.
    #[test]
    fn encode_is_deterministic(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        m in 1usize..5,
        extra in 0usize..4,
    ) {
        let n = m + extra;
        let rs = ReedSolomon::new(m, n).unwrap();
        let shard_len = data.len().div_ceil(m).max(1);
        let mut shards = Vec::new();
        for i in 0..m {
            let start = (i * shard_len).min(data.len());
            let end = ((i + 1) * shard_len).min(data.len());
            let mut s = data[start..end].to_vec();
            s.resize(shard_len, 0);
            shards.push(s);
        }
        let a = rs.encode_parity(&shards).unwrap();
        let b = rs.encode_parity(&shards).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|s| s.len() == shard_len));
        prop_assert_eq!(a.len(), n - m);
    }

    /// A damaged byte in any chunk a decode uses is never silently served:
    /// either it sat in padding and the decoded bytes are intact, or the
    /// decoded bytes fail the content checksum stored at write time (chunks
    /// carry none of their own).
    #[test]
    fn corruption_detected(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        flip_byte in any::<u8>(),
        chunk_idx in 0usize..4,
        partner in 0usize..3,
        byte_idx in any::<usize>(),
    ) {
        let params = ErasureParams::new(2, 4).unwrap();
        let enc = encode_object(&data, params).unwrap();
        let stored_checksum = checksum_hex(&data);

        let mut corrupted = enc.chunks[chunk_idx].clone();
        let mut payload = corrupted.data.to_vec();
        let shard_len = payload.len();
        let pos = byte_idx % shard_len;
        payload[pos] ^= if flip_byte == 0 { 1 } else { flip_byte };
        corrupted.data = bytes::Bytes::from(payload);

        let other = enc.chunks[(chunk_idx + 1 + partner) % 4].clone();
        let decoded = decode_object(&[corrupted, other], params, enc.original_len).unwrap();
        let intact = decoded[..] == data[..];
        prop_assert_eq!(checksum_hex(&decoded) == stored_checksum, intact);
        // The code is MDS: a damaged shard byte moves at least one data
        // shard's byte at the same position, so only padding can hide it.
        if shard_len + pos < data.len() {
            prop_assert!(!intact, "chunk {chunk_idx} byte {pos} vanished");
        }
    }
}
