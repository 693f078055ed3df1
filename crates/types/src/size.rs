//! Byte sizes.
//!
//! Cloud providers bill storage and bandwidth per **decimal** gigabyte
//! (1 GB = 10⁹ bytes), so [`ByteSize`] uses decimal multiples throughout.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Bytes per (decimal) kilobyte.
pub(crate) const KB: u64 = 1_000;
/// Bytes per (decimal) megabyte.
pub(crate) const MB: u64 = 1_000_000;
/// Bytes per (decimal) gigabyte.
pub(crate) const GB: u64 = 1_000_000_000;

/// A size in bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from kilobytes (10³ bytes).
    pub const fn from_kb(kb: u64) -> Self {
        ByteSize(kb * KB)
    }

    /// Creates a size from megabytes (10⁶ bytes).
    pub const fn from_mb(mb: u64) -> Self {
        ByteSize(mb * MB)
    }

    /// Creates a size from gigabytes (10⁹ bytes).
    pub const fn from_gb(gb: u64) -> Self {
        ByteSize(gb * GB)
    }

    /// Raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Size in fractional gigabytes — the unit providers charge for.
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / GB as f64
    }

    /// Size in fractional megabytes.
    pub(crate) fn as_mb(self) -> f64 {
        self.0 as f64 / MB as f64
    }

    /// Returns `true` if the size is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Ceiling division by a chunk count: the per-chunk size when an object
    /// of this size is split into `m` equally-sized data chunks (the last
    /// chunk is zero-padded by the erasure coder).
    pub fn div_ceil(self, m: usize) -> ByteSize {
        if m == 0 {
            return self;
        }
        ByteSize(self.0.div_ceil(m as u64))
    }

    /// Rounds the size up to the closest megabyte, as the paper's
    /// `discretize()` function does for object classification.
    pub fn discretize_mb(self) -> u64 {
        if self.0 == 0 {
            0
        } else {
            self.0.div_ceil(MB)
        }
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |acc, s| acc + s)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= GB {
            write!(f, "{:.3} GB", self.as_gb())
        } else if self.0 >= MB {
            write!(f, "{:.3} MB", self.as_mb())
        } else if self.0 >= KB {
            write!(f, "{:.3} KB", self.0 as f64 / KB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_conversions() {
        assert_eq!(ByteSize::from_kb(250).bytes(), 250_000);
        assert_eq!(ByteSize::from_mb(1).bytes(), 1_000_000);
        assert_eq!(ByteSize::from_gb(2).bytes(), 2_000_000_000);
        assert!((ByteSize::from_mb(500).as_gb() - 0.5).abs() < 1e-12);
        assert!((ByteSize::from_kb(250).as_mb() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn div_ceil_splits_into_chunks() {
        let s = ByteSize::from_bytes(10);
        assert_eq!(s.div_ceil(3).bytes(), 4);
        assert_eq!(s.div_ceil(5).bytes(), 2);
        assert_eq!(s.div_ceil(0), s);
    }

    #[test]
    fn discretize_rounds_up_to_megabytes() {
        assert_eq!(ByteSize::from_kb(250).discretize_mb(), 1);
        assert_eq!(ByteSize::from_mb(1).discretize_mb(), 1);
        assert_eq!(ByteSize::from_bytes(1_000_001).discretize_mb(), 2);
        assert_eq!(ByteSize::ZERO.discretize_mb(), 0);
    }

    #[test]
    fn arithmetic_and_display() {
        let a = ByteSize::from_mb(40);
        let b = ByteSize::from_mb(2);
        assert_eq!((a + b).bytes(), 42 * MB);
        assert_eq!((a - b).bytes(), 38 * MB);
        assert_eq!((b * 3).bytes(), 6 * MB);
        assert_eq!(ByteSize::from_bytes(100).to_string(), "100 B");
        assert_eq!(ByteSize::from_gb(1).to_string(), "1.000 GB");
        assert_eq!(
            ByteSize::from_mb(1).saturating_sub(ByteSize::from_mb(2)),
            ByteSize::ZERO
        );
    }
}
