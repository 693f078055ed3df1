//! Systematic Reed–Solomon coding.
//!
//! The encode matrix is built by taking an `n × m` Vandermonde matrix and
//! right-multiplying it by the inverse of its top `m × m` block. The result
//! has the identity as its first `m` rows (so data shards are stored
//! verbatim — *systematic* coding) and keeps the Vandermonde property that
//! **any** `m` rows form an invertible matrix, so any `m` shards reconstruct
//! the data.
//!
//! Encoding and reconstruction run on the calling thread, one matrix row at
//! a time: a stripe has at most a few parity or missing data rows (a 4-of-5
//! stripe has one), and the GF(256) kernel streams each row at memory speed.

use crate::gf256;
use crate::matrix::Matrix;

/// A Reed–Solomon coder for fixed `(m, n)` parameters.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data_shards: usize,
    total_shards: usize,
    encode_matrix: Matrix,
}

/// Errors returned by the Reed–Solomon coder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Invalid `(m, n)` parameters.
    InvalidParams {
        /// Requested number of data shards.
        m: usize,
        /// Requested total number of shards.
        n: usize,
    },
    /// Fewer than `m` shards were supplied for reconstruction.
    NotEnoughShards {
        /// Number of shards supplied.
        available: usize,
        /// Number of shards required.
        required: usize,
    },
    /// Supplied shards do not all have the same length.
    ShardLengthMismatch,
    /// A shard index is out of range or duplicated.
    InvalidShardIndex(usize),
    /// The selected decode matrix was singular (should not happen with
    /// well-formed inputs).
    SingularMatrix,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::InvalidParams { m, n } => write!(f, "invalid RS params m={m} n={n}"),
            RsError::NotEnoughShards {
                available,
                required,
            } => {
                write!(
                    f,
                    "not enough shards: {available} available, {required} required"
                )
            }
            RsError::ShardLengthMismatch => write!(f, "shards have different lengths"),
            RsError::InvalidShardIndex(i) => write!(f, "invalid shard index {i}"),
            RsError::SingularMatrix => write!(f, "decode matrix is singular"),
        }
    }
}

impl std::error::Error for RsError {}

impl ReedSolomon {
    /// Creates a coder with `m` data shards and `n` total shards
    /// (`0 < m ≤ n ≤ 255`).
    pub fn new(m: usize, n: usize) -> Result<Self, RsError> {
        Self::check_params(m, n)?;
        // Vandermonde (n × m), normalised so the top m×m block is identity.
        let vandermonde = Matrix::vandermonde(n, m);
        let top = vandermonde.select_rows(&(0..m).collect::<Vec<_>>());
        let top_inv = top.invert().ok_or(RsError::SingularMatrix)?;
        let encode_matrix = vandermonde.mul(&top_inv);
        Ok(ReedSolomon {
            data_shards: m,
            total_shards: n,
            encode_matrix,
        })
    }

    /// Whether [`ReedSolomon::new`] accepts `(m, n)`, without building the
    /// coder.
    pub(crate) fn check_params(m: usize, n: usize) -> Result<(), RsError> {
        if m == 0 || n == 0 || m > n || n > 255 {
            return Err(RsError::InvalidParams { m, n });
        }
        Ok(())
    }

    fn validate_data_shards<S: AsRef<[u8]>>(&self, data_shards: &[S]) -> Result<usize, RsError> {
        if data_shards.len() != self.data_shards {
            return Err(RsError::NotEnoughShards {
                available: data_shards.len(),
                required: self.data_shards,
            });
        }
        let shard_len = data_shards[0].as_ref().len();
        if data_shards.iter().any(|s| s.as_ref().len() != shard_len) {
            return Err(RsError::ShardLengthMismatch);
        }
        Ok(shard_len)
    }

    /// Computes the `n − m` parity shards of `m` equally-sized data shards,
    /// in row order. The code is systematic — the data shards *are* the
    /// first `m` shards of the encoding — so parity is all there is to
    /// compute and the caller's data is never copied. Each parity shard is
    /// one row of the encode matrix applied to all data shards.
    pub fn encode_parity<S: AsRef<[u8]>>(
        &self,
        data_shards: &[S],
    ) -> Result<Vec<Vec<u8>>, RsError> {
        let shard_len = self.validate_data_shards(data_shards)?;
        let parity_row = |row: usize| {
            let mut parity = vec![0u8; shard_len];
            for (col, data) in data_shards.iter().enumerate() {
                gf256::mul_slice_xor(self.encode_matrix.get(row, col), data.as_ref(), &mut parity);
            }
            parity
        };
        Ok((self.data_shards..self.total_shards)
            .map(parity_row)
            .collect())
    }

    /// Reconstructs the data from any `m` (or more) shards, straight into
    /// `out`.
    ///
    /// `shards` is a list of `(shard_index, shard_data)` pairs; indices refer
    /// to the position of the shard in the encoding (0-based, data shards
    /// first). `out` receives the concatenation of the data shards cut to
    /// `out.len()`: data shard `r` lands in
    /// `out[r × shard_len .. (r + 1) × shard_len]`, clipped to the buffer —
    /// so a caller that knows the unpadded length passes a buffer of exactly
    /// that length and no padding is ever written. `out.len()` may not
    /// exceed `m × shard_len` ([`RsError::ShardLengthMismatch`]).
    ///
    /// Data shards that were supplied are copied into place; only the
    /// missing ones cost field arithmetic (one row of the inverted
    /// sub-matrix each).
    pub(crate) fn reconstruct_into<S: AsRef<[u8]>>(
        &self,
        shards: &[(usize, S)],
        out: &mut [u8],
    ) -> Result<(), RsError> {
        let m = self.data_shards;
        if shards.len() < m {
            return Err(RsError::NotEnoughShards {
                available: shards.len(),
                required: m,
            });
        }
        let shard_len = shards[0].1.as_ref().len();
        if shards.iter().any(|(_, s)| s.as_ref().len() != shard_len) || out.len() > m * shard_len {
            return Err(RsError::ShardLengthMismatch);
        }
        let mut by_index: Vec<Option<&[u8]>> = vec![None; self.total_shards];
        for (idx, shard) in shards {
            if *idx >= self.total_shards || by_index[*idx].is_some() {
                return Err(RsError::InvalidShardIndex(*idx));
            }
            by_index[*idx] = Some(shard.as_ref());
        }
        if out.is_empty() {
            return Ok(());
        }

        // Supplied data shards land verbatim; the rest become decode jobs.
        let mut missing: Vec<(usize, &mut [u8])> = Vec::new();
        for (row, window) in out.chunks_mut(shard_len).enumerate() {
            match by_index[row] {
                Some(shard) => window.copy_from_slice(&shard[..window.len()]),
                None => missing.push((row, window)),
            }
        }
        if missing.is_empty() {
            return Ok(());
        }

        // Decode from the first m shards in index order (data before
        // parity): invert the rows of the encode matrix they came from.
        let chosen: Vec<(usize, &[u8])> = by_index
            .iter()
            .enumerate()
            .filter_map(|(idx, shard)| shard.map(|s| (idx, s)))
            .take(m)
            .collect();
        let indices: Vec<usize> = chosen.iter().map(|&(idx, _)| idx).collect();
        let decode = self
            .encode_matrix
            .select_rows(&indices)
            .invert()
            .ok_or(RsError::SingularMatrix)?;
        for (row, window) in missing {
            window.fill(0);
            for (col, (_, shard)) in chosen.iter().enumerate() {
                gf256::mul_slice_xor(decode.get(row, col), &shard[..window.len()], window);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shards(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    /// All `n` shards of the systematic encoding: the data, then parity.
    fn encode(rs: &ReedSolomon, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        let parity = rs.encode_parity(data)?;
        Ok(data.iter().cloned().chain(parity).collect())
    }

    /// The `m` data shards rebuilt from `shards`.
    fn reconstruct(rs: &ReedSolomon, shards: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>, RsError> {
        let shard_len = shards.first().map_or(0, |(_, s)| s.len());
        let mut flat = vec![0xEEu8; rs.data_shards * shard_len];
        rs.reconstruct_into(shards, &mut flat)?;
        Ok(flat.chunks(shard_len).map(<[u8]>::to_vec).collect())
    }

    #[test]
    fn parameter_validation() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(5, 4).is_err());
        assert!(ReedSolomon::new(3, 256).is_err());
        assert!(ReedSolomon::new(3, 4).is_ok());
        assert!(ReedSolomon::new(4, 4).is_ok());
        assert!(ReedSolomon::new(1, 1).is_ok());
    }

    #[test]
    fn encoding_is_systematic() {
        // The data shards are the first m shards of the code: the top of the
        // encode matrix is the identity, and decoding from them is a copy.
        let rs = ReedSolomon::new(3, 5).unwrap();
        let data = sample_shards(3, 64);
        assert_eq!(rs.encode_parity(&data).unwrap().len(), 2);
        for row in 0..3 {
            for col in 0..3 {
                assert_eq!(rs.encode_matrix.get(row, col), (row == col) as u8);
            }
        }
        let supplied: Vec<(usize, Vec<u8>)> = data.iter().cloned().enumerate().collect();
        assert_eq!(reconstruct(&rs, &supplied).unwrap(), data);
    }

    #[test]
    fn reconstruct_from_every_m_subset() {
        let (m, n) = (3, 5);
        let rs = ReedSolomon::new(m, n).unwrap();
        let data = sample_shards(m, 40);
        let encoded = encode(&rs, &data).unwrap();

        // Every possible m-subset of the n shards must reconstruct the data.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let subset = vec![
                        (a, encoded[a].clone()),
                        (b, encoded[b].clone()),
                        (c, encoded[c].clone()),
                    ];
                    let rebuilt = reconstruct(&rs, &subset).unwrap();
                    assert_eq!(rebuilt, data, "subset ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn reconstruct_into_clips_the_padding_and_ignores_supply_order() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        let data = sample_shards(3, 40);
        let encoded = encode(&rs, &data).unwrap();
        let flat: Vec<u8> = data.concat();
        // Parity first, data last: the order shards arrive in is irrelevant.
        let supplied = vec![
            (4, encoded[4].as_slice()),
            (3, encoded[3].as_slice()),
            (1, encoded[1].as_slice()),
        ];
        // Every output length: mid-shard, on a shard boundary, one shard
        // only, empty — rebuilt rows are clipped exactly like copied ones.
        for len in [120usize, 119, 81, 80, 79, 41, 40, 1, 0] {
            let mut out = vec![0xEEu8; len];
            rs.reconstruct_into(&supplied, &mut out).unwrap();
            assert_eq!(out, &flat[..len], "len {len}");
        }
        let mut too_long = vec![0u8; 121];
        assert_eq!(
            rs.reconstruct_into(&supplied, &mut too_long).unwrap_err(),
            RsError::ShardLengthMismatch
        );
    }

    #[test]
    fn mirroring_mode_m_equals_one() {
        let rs = ReedSolomon::new(1, 3).unwrap();
        let data = vec![vec![9u8, 8, 7, 6]];
        let encoded = encode(&rs, &data).unwrap();
        // Every shard alone reconstructs the data.
        for (i, shard) in encoded.iter().enumerate() {
            let rebuilt = reconstruct(&rs, &[(i, shard.clone())]).unwrap();
            assert_eq!(rebuilt, data);
        }
    }

    #[test]
    fn no_redundancy_mode_m_equals_n() {
        let rs = ReedSolomon::new(4, 4).unwrap();
        let data = sample_shards(4, 16);
        assert!(rs.encode_parity(&data).unwrap().is_empty());
        let supplied: Vec<(usize, Vec<u8>)> = data.iter().cloned().enumerate().collect();
        assert_eq!(reconstruct(&rs, &supplied).unwrap(), data);
    }

    #[test]
    fn error_cases() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        let data = sample_shards(3, 8);
        let encoded = encode(&rs, &data).unwrap();

        // Too few shards.
        let err =
            reconstruct(&rs, &[(0, encoded[0].clone()), (1, encoded[1].clone())]).unwrap_err();
        assert!(matches!(
            err,
            RsError::NotEnoughShards {
                available: 2,
                required: 3
            }
        ));

        // Mismatched lengths.
        let err = reconstruct(
            &rs,
            &[
                (0, encoded[0].clone()),
                (1, encoded[1][..4].to_vec()),
                (2, encoded[2].clone()),
            ],
        )
        .unwrap_err();
        assert_eq!(err, RsError::ShardLengthMismatch);

        // Duplicate index.
        let err = reconstruct(
            &rs,
            &[
                (0, encoded[0].clone()),
                (0, encoded[0].clone()),
                (2, encoded[2].clone()),
            ],
        )
        .unwrap_err();
        assert_eq!(err, RsError::InvalidShardIndex(0));

        // Out-of-range index.
        let err = reconstruct(
            &rs,
            &[
                (0, encoded[0].clone()),
                (1, encoded[1].clone()),
                (9, encoded[2].clone()),
            ],
        )
        .unwrap_err();
        assert_eq!(err, RsError::InvalidShardIndex(9));

        // Wrong number of data shards to encode.
        assert!(matches!(
            rs.encode_parity(&sample_shards(2, 8)).unwrap_err(),
            RsError::NotEnoughShards { .. }
        ));
        // Mismatched data shard lengths.
        let mut bad = sample_shards(3, 8);
        bad[1].pop();
        assert_eq!(
            rs.encode_parity(&bad).unwrap_err(),
            RsError::ShardLengthMismatch
        );
    }

    #[test]
    fn corrupting_a_parity_shard_changes_reconstruction_inputs_only() {
        // Reconstruction from the *data* shards ignores parity corruption.
        let rs = ReedSolomon::new(2, 4).unwrap();
        let data = sample_shards(2, 32);
        let mut encoded = encode(&rs, &data).unwrap();
        encoded[3][0] ^= 0xff;
        let rebuilt =
            reconstruct(&rs, &[(0, encoded[0].clone()), (1, encoded[1].clone())]).unwrap();
        assert_eq!(rebuilt, data);
    }
}
