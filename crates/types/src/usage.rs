//! Resource usage vectors.
//!
//! Both the billing meters of the provider substrate and the per-object
//! access statistics are expressed as a [`ResourceUsage`]: storage held over
//! time (GB-hours), bandwidth in, bandwidth out, and the number of API
//! operations. This is exactly the 4-dimensional vector the paper's
//! `computePrice()` multiplies against a provider's pricing policy.

use crate::size::ByteSize;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Resources consumed at (or predicted for) a storage provider.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceUsage {
    /// Storage held, in GB-hours (1 GB stored for 1 hour = 1.0).
    pub storage_gb_hours: f64,
    /// Bytes uploaded to the provider.
    pub bw_in: ByteSize,
    /// Bytes downloaded from the provider.
    pub bw_out: ByteSize,
    /// Number of API operations (PUT/GET/DELETE/LIST).
    pub ops: u64,
}

impl ResourceUsage {
    /// The zero usage vector.
    pub const ZERO: ResourceUsage = ResourceUsage {
        storage_gb_hours: 0.0,
        bw_in: ByteSize::ZERO,
        bw_out: ByteSize::ZERO,
        ops: 0,
    };

    /// Usage consisting only of stored data: `size` held for `hours` hours.
    pub fn storage(size: ByteSize, hours: f64) -> Self {
        ResourceUsage {
            storage_gb_hours: size.as_gb() * hours,
            ..ResourceUsage::ZERO
        }
    }

    /// Usage consisting only of inbound bandwidth.
    pub fn upload(size: ByteSize) -> Self {
        ResourceUsage {
            bw_in: size,
            ..ResourceUsage::ZERO
        }
    }

    /// Usage consisting only of outbound bandwidth.
    pub fn download(size: ByteSize) -> Self {
        ResourceUsage {
            bw_out: size,
            ..ResourceUsage::ZERO
        }
    }

    /// Usage consisting only of API operations.
    pub fn operations(ops: u64) -> Self {
        ResourceUsage {
            ops,
            ..ResourceUsage::ZERO
        }
    }

    /// Scales every component by a non-negative factor. Used to extrapolate
    /// per-sampling-period statistics over a whole decision period.
    pub fn scale(&self, factor: f64) -> ResourceUsage {
        ResourceUsage {
            storage_gb_hours: self.storage_gb_hours * factor,
            bw_in: ByteSize::from_bytes((self.bw_in.bytes() as f64 * factor).round() as u64),
            bw_out: ByteSize::from_bytes((self.bw_out.bytes() as f64 * factor).round() as u64),
            ops: (self.ops as f64 * factor).round() as u64,
        }
    }
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;
    fn add(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            storage_gb_hours: self.storage_gb_hours + rhs.storage_gb_hours,
            bw_in: self.bw_in + rhs.bw_in,
            bw_out: self.bw_out + rhs.bw_out,
            ops: self.ops + rhs.ops,
        }
    }
}

impl AddAssign for ResourceUsage {
    fn add_assign(&mut self, rhs: ResourceUsage) {
        *self = *self + rhs;
    }
}

impl Sum for ResourceUsage {
    fn sum<I: Iterator<Item = ResourceUsage>>(iter: I) -> ResourceUsage {
        iter.fold(ResourceUsage::ZERO, |acc, u| acc + u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let u = ResourceUsage::storage(ByteSize::from_gb(2), 3.0);
        assert!((u.storage_gb_hours - 6.0).abs() < 1e-12);
        assert!(ResourceUsage::upload(ByteSize::from_mb(1)).bw_in == ByteSize::from_mb(1));
        assert!(ResourceUsage::download(ByteSize::from_mb(1)).bw_out == ByteSize::from_mb(1));
        assert_eq!(ResourceUsage::operations(42).ops, 42);
    }

    #[test]
    fn addition_accumulates_componentwise() {
        let a = ResourceUsage::storage(ByteSize::from_gb(1), 1.0)
            + ResourceUsage::upload(ByteSize::from_mb(10))
            + ResourceUsage::operations(5);
        let b = ResourceUsage::download(ByteSize::from_mb(20)) + ResourceUsage::operations(3);
        let total = a + b;
        assert!((total.storage_gb_hours - 1.0).abs() < 1e-12);
        assert_eq!(total.bw_in, ByteSize::from_mb(10));
        assert_eq!(total.bw_out, ByteSize::from_mb(20));
        assert_eq!(total.ops, 8);
    }

    #[test]
    fn scale_extrapolates() {
        let per_period = ResourceUsage {
            storage_gb_hours: 0.5,
            bw_in: ByteSize::from_mb(2),
            bw_out: ByteSize::from_mb(4),
            ops: 10,
        };
        let day = per_period.scale(24.0);
        assert!((day.storage_gb_hours - 12.0).abs() < 1e-12);
        assert_eq!(day.bw_in, ByteSize::from_mb(48));
        assert_eq!(day.bw_out, ByteSize::from_mb(96));
        assert_eq!(day.ops, 240);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![ResourceUsage::operations(1); 5];
        let total: ResourceUsage = parts.into_iter().sum();
        assert_eq!(total.ops, 5);
    }
}
