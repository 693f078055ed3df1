//! Object-level erasure codec.
//!
//! The Scalia engine stores a data object (or one stripe of it) as `n`
//! [`Chunk`]s, any `m` of which reconstruct it. This module handles padding,
//! shard splitting and reassembly on top of [`crate::rs`], moving each byte
//! once per direction. Encoding starts from a *staged* stripe — the
//! plaintext in one buffer of `m × shard_len` bytes ([`staged_len`]) —
//! pads it in place and cuts the `m` data chunks out of it as windows of
//! that one allocation ([`encode_staged`]); only parity is computed.
//! Decoding appends the data shards onto the caller's output. The write
//! path stages the bytes and the read path appends them through the
//! hashing copy ([`scalia_types::checksum::Xxh64::append`],
//! [`decode_object_append`]), so no byte is read a second time to checksum
//! it. Everything runs on the calling thread: the engine's stripes are at
//! most 512 KiB with one or two parity rows, far too little work to pay for
//! a hand-off to another thread.
//!
//! Chunks carry no header and no checksum. Integrity is the caller's: the
//! engine stores one content checksum per stripe in the metadata at write
//! time and verifies the *decoded* bytes against it, which covers every
//! chunk that contributed to them.

use crate::rs::{ReedSolomon, RsError};
use bytes::Bytes;
use scalia_types::checksum::Xxh64;
use scalia_types::error::ScaliaError;
use scalia_types::ErasureParams;

/// One erasure-coded chunk of an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Index of the chunk within the code (0-based, `< n`).
    pub index: u32,
    /// Chunk payload.
    pub data: Bytes,
}

impl Chunk {
    /// Creates a chunk.
    pub fn new(index: u32, data: Bytes) -> Self {
        Chunk { index, data }
    }

    /// Size of the chunk payload in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the chunk payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The result of encoding an object: its chunks plus the original length
/// needed to strip padding at decode time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedObject {
    /// The `n` chunks, in index order.
    pub chunks: Vec<Chunk>,
    /// Erasure-coding parameters used.
    pub params: ErasureParams,
    /// Original object length in bytes (before padding).
    pub original_len: usize,
}

impl EncodedObject {
    /// Total bytes stored across all chunks (the raw footprint, which is
    /// `original_len × n / m` up to padding).
    pub fn stored_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

fn rs_error(err: RsError) -> ScaliaError {
    ScaliaError::DecodeFailed(err.to_string())
}

/// Shard length of an object of `len` bytes split `m` ways: `ceil(len / m)`,
/// at least 1 so empty objects still encode.
fn shard_len_for(len: usize, m: usize) -> usize {
    len.div_ceil(m).max(1)
}

/// Size of the buffer a stripe of `len` bytes is staged in for `m` data
/// shards: `m × shard_len`, the plaintext plus the zero padding of the last
/// shard. A staging buffer allocated with exactly this capacity is never
/// reallocated — not by the appends, not by the padding, not when
/// [`encode_staged`] freezes it.
pub fn staged_len(len: usize, m: u32) -> usize {
    let m = (m as usize).max(1);
    shard_len_for(len, m) * m
}

/// Encodes the stripe staged in `staged` — its bytes are the plaintext —
/// into `params.n` chunks, without copying it.
///
/// The buffer is zero-padded in place to [`staged_len`] and frozen, and the
/// `m` data chunks are consecutive windows of that one allocation
/// ([`Bytes::slice`]): the code is systematic, so the data shards *are*
/// the plaintext. Only the `n − m` parity chunks are computed. Stage with a
/// capacity of [`staged_len`] and nothing is reallocated; any other
/// capacity still encodes the same chunks.
pub fn encode_staged(
    mut staged: Vec<u8>,
    params: ErasureParams,
) -> Result<EncodedObject, ScaliaError> {
    let m = params.m as usize;
    let rs = ReedSolomon::new(m, params.n as usize).map_err(rs_error)?;
    let original_len = staged.len();
    let shard_len = shard_len_for(original_len, m);
    staged.resize(m * shard_len, 0);
    let staged = Bytes::from(staged);
    let data: Vec<Bytes> = (0..m)
        .map(|i| staged.slice(i * shard_len..(i + 1) * shard_len))
        .collect();
    let parity = rs.encode_parity(&data).map_err(rs_error)?;
    Ok(EncodedObject {
        chunks: data
            .into_iter()
            .chain(parity.into_iter().map(Bytes::from))
            .enumerate()
            .map(|(i, shard)| Chunk::new(i as u32, shard))
            .collect(),
        params,
        original_len,
    })
}

/// Splits `data` into `params.m` equally-sized (zero-padded) shards and
/// encodes them into `params.n` chunks: one copy of `data` into a staging
/// buffer of [`staged_len`] bytes, then [`encode_staged`].
pub fn encode_object(data: &[u8], params: ErasureParams) -> Result<EncodedObject, ScaliaError> {
    let mut staged = Vec::with_capacity(staged_len(data.len(), params.m));
    staged.extend_from_slice(data);
    encode_staged(staged, params)
}

/// The chunks a decode of an object of `original_len` bytes can use: the
/// first occurrence of each in-range index whose payload has the shard
/// length that object was encoded with.
fn usable_shards(
    chunks: &[Chunk],
    params: ErasureParams,
    original_len: usize,
) -> Vec<(usize, &[u8])> {
    let shard_len = shard_len_for(original_len, params.m as usize);
    let mut seen = vec![false; params.n as usize];
    chunks
        .iter()
        .filter_map(|chunk| {
            let idx = chunk.index as usize;
            let usable = idx < seen.len() && !seen[idx] && chunk.len() == shard_len;
            usable.then(|| {
                seen[idx] = true;
                (idx, &chunk.data[..])
            })
        })
        .collect()
}

/// Reassembles an object of `out.len()` bytes from any `m` (or more) of its
/// chunks, straight into `out` — the rebuild path of
/// [`decode_object_append`] when a data shard is missing, and the reference
/// it is tested against.
///
/// Chunks with an out-of-range or repeated index, or whose length is not
/// the shard length of an `out.len()`-byte object, are ignored; if fewer
/// than `m` usable chunks remain, [`ScaliaError::NotEnoughChunks`] is
/// returned. Data chunks are copied into place (`m` slice copies when all
/// are present); only missing data shards are rebuilt from parity. The
/// bytes are **not** verified — compare them with the checksum stored when
/// the object was written.
pub fn decode_object_into(
    chunks: &[Chunk],
    params: ErasureParams,
    out: &mut [u8],
) -> Result<(), ScaliaError> {
    let m = params.m as usize;
    let rs = ReedSolomon::new(m, params.n as usize).map_err(rs_error)?;
    let shards = usable_shards(chunks, params, out.len());
    if shards.len() < m {
        return Err(ScaliaError::NotEnoughChunks {
            available: shards.len(),
            required: m,
        });
    }
    rs.reconstruct_into(&shards, out).map_err(rs_error)
}

/// Reassembles an object of `len` bytes from any `m` (or more) of its
/// chunks onto the end of `out`, absorbing every appended byte into
/// `checksum` — the read path's decode and verification pass in one.
///
/// The code is systematic, so when every data shard covering the object is
/// among the usable chunks the object *is* those shards, cut to `len`: they
/// are appended in index order with [`Xxh64::append`], which hashes each
/// block as it reads it back from `out`, and no Reed–Solomon work (not even
/// building the coder) happens. Only a missing data shard takes the
/// reconstruct path: `out` grows by `len` bytes, [`decode_object_into`]
/// rebuilds the object into them, and the rebuilt window is absorbed.
///
/// Chunks are chosen and rejected exactly as [`decode_object_into`] does,
/// and the appended bytes equal what it writes. On error `out` is left as
/// it was. The bytes are **not** verified — compare `checksum` with the
/// checksum stored when the object was written.
pub fn decode_object_append(
    chunks: &[Chunk],
    params: ErasureParams,
    len: usize,
    out: &mut Vec<u8>,
    checksum: &mut Xxh64,
) -> Result<(), ScaliaError> {
    let m = params.m as usize;
    ReedSolomon::check_params(m, params.n as usize).map_err(rs_error)?;
    let shards = usable_shards(chunks, params, len);
    if shards.len() < m {
        return Err(ScaliaError::NotEnoughChunks {
            available: shards.len(),
            required: m,
        });
    }
    let shard_len = shard_len_for(len, m);
    let data_rows: Option<Vec<&[u8]>> = (0..len.div_ceil(shard_len))
        .map(|row| shards.iter().find(|(idx, _)| *idx == row).map(|s| s.1))
        .collect();
    let start = out.len();
    match data_rows {
        Some(rows) => {
            out.reserve(len);
            for (row, shard) in rows.into_iter().enumerate() {
                let take = (len - row * shard_len).min(shard_len);
                checksum.append(out, &shard[..take]);
            }
        }
        None => {
            out.resize(start + len, 0);
            if let Err(err) = decode_object_into(chunks, params, &mut out[start..]) {
                out.truncate(start);
                return Err(err);
            }
            checksum.update(&out[start..]);
        }
    }
    Ok(())
}

/// [`decode_object_into`] a freshly allocated buffer of `original_len`
/// bytes.
pub fn decode_object(
    chunks: &[Chunk],
    params: ErasureParams,
    original_len: usize,
) -> Result<Bytes, ScaliaError> {
    let mut out = vec![0u8; original_len];
    decode_object_into(chunks, params, &mut out)?;
    Ok(Bytes::from(out))
}

/// Decodes only the byte range `[offset, offset + len)` of an object.
///
/// The code is systematic: data shard `i` holds plaintext bytes
/// `[i * shard_len, (i + 1) * shard_len)`. When every data shard covering
/// the range is present among the usable chunks, the range is copied out of
/// them without running Reed–Solomon reconstruction; otherwise this falls
/// back to a full [`decode_object`] and slices the result. Either way the
/// output equals `decode_object(..)[offset..offset + len]` (clamped to the
/// object's end; an empty range decodes to empty bytes) — and, like it, is
/// unverified: a range cannot be checked against a whole-stripe checksum.
pub fn decode_object_range(
    chunks: &[Chunk],
    params: ErasureParams,
    original_len: usize,
    offset: usize,
    len: usize,
) -> Result<Bytes, ScaliaError> {
    let end = offset.saturating_add(len).min(original_len);
    if offset >= end {
        return Ok(Bytes::new());
    }
    let shard_len = shard_len_for(original_len, params.m as usize);
    let covering = offset / shard_len..=(end - 1) / shard_len;

    // Fast path: all covering data shards present.
    let shards = usable_shards(chunks, params, original_len);
    let mut out = Vec::with_capacity(end - offset);
    for row in covering {
        let Some((_, shard)) = shards.iter().find(|(idx, _)| *idx == row) else {
            // Slow path: a covering data shard is missing; rebuild from
            // whatever m usable chunks exist and slice.
            return Ok(decode_object(chunks, params, original_len)?.slice(offset..end));
        };
        let shard_start = row * shard_len;
        let from = offset.max(shard_start) - shard_start;
        let to = (end - shard_start).min(shard_len);
        out.extend_from_slice(&shard[from..to]);
    }
    Ok(Bytes::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(m: u32, n: u32) -> ErasureParams {
        ErasureParams::new(m, n).unwrap()
    }

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn roundtrip_all_chunks() {
        let data = sample_data(1000);
        let enc = encode_object(&data, params(3, 4)).unwrap();
        assert_eq!(enc.chunks.len(), 4);
        assert_eq!(enc.original_len, 1000);
        let decoded = decode_object(&enc.chunks, enc.params, enc.original_len).unwrap();
        assert_eq!(&decoded[..], &data[..]);
    }

    #[test]
    fn roundtrip_with_only_m_chunks() {
        let data = sample_data(4097);
        let enc = encode_object(&data, params(3, 5)).unwrap();
        // Drop two chunks (providers down): use chunks 1, 3, 4.
        let subset = vec![
            enc.chunks[1].clone(),
            enc.chunks[3].clone(),
            enc.chunks[4].clone(),
        ];
        let decoded = decode_object(&subset, enc.params, enc.original_len).unwrap();
        assert_eq!(&decoded[..], &data[..]);
    }

    #[test]
    fn duplicate_chunks_do_not_help() {
        let data = sample_data(100);
        let enc = encode_object(&data, params(2, 3)).unwrap();
        let dup = vec![enc.chunks[0].clone(), enc.chunks[0].clone()];
        let err = decode_object(&dup, enc.params, enc.original_len).unwrap_err();
        assert!(matches!(
            err,
            ScaliaError::NotEnoughChunks {
                available: 1,
                required: 2
            }
        ));
    }

    #[test]
    fn empty_and_tiny_objects() {
        for len in [0usize, 1, 2, 3] {
            let data = sample_data(len);
            let enc = encode_object(&data, params(3, 5)).unwrap();
            assert_eq!(enc.chunks.len(), 5);
            let decoded = decode_object(&enc.chunks[2..], enc.params, enc.original_len).unwrap();
            assert_eq!(&decoded[..], &data[..], "len={len}");
        }
    }

    #[test]
    fn mirroring_stores_full_copies() {
        let data = sample_data(100);
        let enc = encode_object(&data, params(1, 3)).unwrap();
        for chunk in &enc.chunks {
            assert_eq!(chunk.len(), 100);
            let decoded =
                decode_object(std::slice::from_ref(chunk), enc.params, enc.original_len).unwrap();
            assert_eq!(&decoded[..], &data[..]);
        }
        // Raw footprint is 3× the object size.
        assert_eq!(enc.stored_bytes(), 300);
    }

    #[test]
    fn storage_overhead_matches_params() {
        let data = sample_data(9000);
        let enc = encode_object(&data, params(3, 4)).unwrap();
        let expected = (9000.0 * enc.params.storage_overhead()) as usize;
        assert!(enc.stored_bytes().abs_diff(expected) <= 4);
    }

    #[test]
    fn large_object_roundtrip_uses_parallel_path() {
        // A stripe of a quarter megabyte and more: the result must be
        // indistinguishable from the small-object path, including after
        // losing n - m chunks (two of the three data rows rebuilt).
        let data = sample_data((256 << 10) + 12_345);
        let enc = encode_object(&data, params(3, 5)).unwrap();
        assert_eq!(enc.chunks.len(), 5);
        let subset = vec![
            enc.chunks[0].clone(),
            enc.chunks[3].clone(),
            enc.chunks[4].clone(),
        ];
        let decoded = decode_object(&subset, enc.params, enc.original_len).unwrap();
        assert_eq!(&decoded[..], &data[..]);
    }

    #[test]
    fn range_decode_matches_full_decode_slice() {
        let data = sample_data(4097);
        let enc = encode_object(&data, params(3, 5)).unwrap();
        let full = decode_object(&enc.chunks, enc.params, enc.original_len).unwrap();
        let shard_len = 4097usize.div_ceil(3);
        for (offset, len) in [
            (0usize, 0usize),
            (0, 1),
            (0, 4097),
            (1, 4096),
            (shard_len - 1, 2), // spans shard boundary
            (shard_len, shard_len),
            (4096, 1),
            (4096, 100), // clamps at EOF
            (5000, 10),  // entirely past EOF
            (2 * shard_len - 3, 7),
        ] {
            let end = offset.saturating_add(len).min(4097);
            let expected = if offset >= end {
                &[][..]
            } else {
                &full[offset..end]
            };
            // All chunks present: fast path.
            let got = decode_object_range(&enc.chunks, enc.params, enc.original_len, offset, len)
                .unwrap();
            assert_eq!(&got[..], expected, "fast path offset={offset} len={len}");
            // Drop the data shards covering the range: forces reconstruction.
            let parity_only: Vec<Chunk> = enc.chunks[3..].to_vec();
            let mut some: Vec<Chunk> = parity_only;
            some.push(enc.chunks[0].clone());
            let got =
                decode_object_range(&some, enc.params, enc.original_len, offset, len).unwrap();
            assert_eq!(&got[..], expected, "slow path offset={offset} len={len}");
        }
    }

    #[test]
    fn decode_into_a_window_equals_the_plaintext_for_every_m_subset() {
        // The differential the read path rests on: for every m-subset of the
        // chunks (data-only, mixed and parity-only), decoding straight into
        // a window of a larger buffer reproduces the plaintext and touches
        // nothing outside the window — for lengths that do and do not
        // divide by m, shorter than m, and empty.
        let (m, n) = (3u32, 5u32);
        for len in [0usize, 1, 2, 3, 4, 100, 999, 1000, 1001] {
            let data = sample_data(len);
            let enc = encode_object(&data, params(m, n)).unwrap();
            for mask in 0u32..(1 << n) {
                if mask.count_ones() != m {
                    continue;
                }
                let subset: Vec<Chunk> = (0..n as usize)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| enc.chunks[i].clone())
                    .collect();
                let mut buffer = vec![0xEEu8; len + 14];
                decode_object_into(&subset, enc.params, &mut buffer[7..7 + len]).unwrap();
                assert_eq!(&buffer[7..7 + len], &data[..], "len {len} subset {mask:b}");
                assert!(
                    buffer[..7]
                        .iter()
                        .chain(&buffer[7 + len..])
                        .all(|&b| b == 0xEE),
                    "len {len} subset {mask:b}: wrote outside the window"
                );
            }
        }
    }

    #[test]
    fn a_stripe_staged_through_the_hashing_copy_encodes_as_encode_object() {
        // The write path stages a stripe in parts through `Xxh64::append`
        // and encodes the staging buffer: the chunks are `encode_object`'s,
        // and the digest covers the plaintext — never the padding the seal
        // adds afterwards.
        for len in [0usize, 1, 31, 32, 33, 1000, 1001] {
            let data = sample_data(len);
            let (mut staged, mut checksum) = (Vec::with_capacity(staged_len(len, 3)), Xxh64::new());
            for part in data.chunks(97) {
                checksum.append(&mut staged, part);
            }
            let encoded = encode_staged(staged, params(3, 5)).unwrap();
            assert_eq!(
                encoded,
                encode_object(&data, params(3, 5)).unwrap(),
                "len {len}"
            );
            assert_eq!(checksum.digest(), scalia_types::checksum::xxh64(&data));
        }
    }

    #[test]
    fn chunks_of_the_wrong_length_or_index_are_unusable() {
        let data = sample_data(300);
        let enc = encode_object(&data, params(2, 4)).unwrap();
        let mut chunks = enc.chunks.clone();
        // A truncated and an over-long chunk cannot be shards of a 300-byte
        // object; an index past n is not part of the code.
        chunks[0].data = chunks[0].data.slice(..100);
        chunks[1].data = Bytes::from(vec![0u8; 151]);
        chunks[2].index = 9;
        let err = decode_object(&chunks, enc.params, enc.original_len).unwrap_err();
        assert!(matches!(
            err,
            ScaliaError::NotEnoughChunks {
                available: 1,
                required: 2
            }
        ));
        // Asking for a different length than was encoded is the same error,
        // never a mis-sliced object.
        assert!(decode_object(&enc.chunks, enc.params, 500).is_err());
    }

    #[test]
    fn data_chunks_are_windows_of_the_staging_allocation_never_reallocated() {
        let data = sample_data(1001);
        let mut staged = Vec::with_capacity(staged_len(data.len(), 3));
        staged.extend_from_slice(&data);
        let base = staged.as_ptr();
        let enc = encode_staged(staged, params(3, 5)).unwrap();
        let c = &enc.chunks[2];
        assert_eq!((c.index, c.len(), c.is_empty()), (2, 334, false));
        // Data chunks are the plaintext windows, zero-padded at the tail.
        assert_eq!(&enc.chunks[0].data[..], &data[..334]);
        assert_eq!(&c.data[..333], &data[668..]);
        assert_eq!(c.data[333], 0);
        // Data chunk i starts i shards into the very allocation the stripe
        // was staged in: padding and freezing moved nothing.
        for (i, chunk) in enc.chunks[..3].iter().enumerate() {
            assert_eq!(chunk.data.as_ptr(), base.wrapping_add(i * 334), "chunk {i}");
        }
        // Parity is computed into buffers of its own.
        let staged_range = base as usize..base as usize + 3 * 334;
        for chunk in &enc.chunks[3..] {
            assert!(!staged_range.contains(&(chunk.data.as_ptr() as usize)));
        }
    }
}
