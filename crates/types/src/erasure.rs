//! `(m, n)` erasure-coding parameters.
//!
//! An `(m, n)` erasure code splits a data object into `n` chunks such that
//! any `m ≤ n` of them reconstruct the original. The rate `r = m/n` is the
//! fraction of chunks required; the storage blow-up is `1/r = n/m`
//! (§II-A1 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of an `(m, n)` erasure code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ErasureParams {
    /// Reconstruction threshold: minimum chunks needed to rebuild the data.
    pub m: u32,
    /// Total number of chunks produced.
    pub n: u32,
}

impl ErasureParams {
    /// Creates `(m, n)` parameters. Returns `None` when the combination is
    /// invalid (`m = 0`, `n = 0` or `m > n`).
    pub fn new(m: u32, n: u32) -> Option<Self> {
        if m == 0 || n == 0 || m > n {
            None
        } else {
            Some(ErasureParams { m, n })
        }
    }

    /// The storage overhead factor `1 / r = n / m`: how much raw capacity is
    /// consumed per byte of user data.
    pub fn storage_overhead(self) -> f64 {
        self.n as f64 / self.m as f64
    }
}

impl fmt::Display for ErasureParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.m, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ErasureParams::new(3, 4).is_some());
        assert!(ErasureParams::new(4, 4).is_some());
        assert!(ErasureParams::new(0, 4).is_none());
        assert!(ErasureParams::new(5, 4).is_none());
        assert!(ErasureParams::new(1, 0).is_none());
    }

    #[test]
    fn raid_analogues() {
        // RAID-1 mirroring is (1, n); RAID-5 striping is (n - 1, n).
        let mirror = ErasureParams::new(1, 2).unwrap();
        assert_eq!(mirror.storage_overhead(), 2.0);
        let raid5 = ErasureParams::new(3, 4).unwrap();
        assert_eq!(raid5.n - raid5.m, 1, "one parity chunk");
        assert!(ErasureParams::new(1, 1).is_some() && ErasureParams::new(2, 1).is_none());
    }

    #[test]
    fn rate_and_overhead() {
        let p = ErasureParams::new(3, 4).unwrap();
        assert!((p.storage_overhead() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.to_string(), "(3,4)");
    }
}
