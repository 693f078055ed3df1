//! Provider pricing policies.
//!
//! A [`PricingPolicy`] mirrors the columns of the paper's Fig. 3: USD per GB
//! for storage (per month), bandwidth in and out, and USD per 1000 requests
//! for operations.

use scalia_types::money::Money;
use scalia_types::time::HOURS_PER_MONTH;
use scalia_types::usage::ResourceUsage;
use serde::{Deserialize, Serialize};

/// Prices charged by a storage provider.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingPolicy {
    /// USD per GB-month of storage.
    pub storage_gb_month: Money,
    /// USD per GB of inbound bandwidth.
    pub bandwidth_in_gb: Money,
    /// USD per GB of outbound bandwidth.
    pub bandwidth_out_gb: Money,
    /// USD per 1000 API operations.
    pub ops_per_1000: Money,
}

impl PricingPolicy {
    /// Creates a pricing policy from dollar amounts (as printed in Fig. 3).
    pub fn from_dollars(storage: f64, bw_in: f64, bw_out: f64, ops_1k: f64) -> Self {
        PricingPolicy {
            storage_gb_month: Money::from_dollars(storage),
            bandwidth_in_gb: Money::from_dollars(bw_in),
            bandwidth_out_gb: Money::from_dollars(bw_out),
            ops_per_1000: Money::from_dollars(ops_1k),
        }
    }

    /// The cost of a resource-usage vector under this policy.
    pub(crate) fn cost(&self, usage: &ResourceUsage) -> Money {
        // Scale the monthly price directly by fractional months to avoid the
        // precision loss of first rounding a per-hour price to micro-dollars.
        let storage = self
            .storage_gb_month
            .scale(usage.storage_gb_hours / HOURS_PER_MONTH as f64);
        let bw_in = self.bandwidth_in_gb.scale(usage.bw_in.as_gb());
        let bw_out = self.bandwidth_out_gb.scale(usage.bw_out.as_gb());
        let ops = self.ops_per_1000.scale(usage.ops as f64 / 1000.0);
        storage + bw_in + bw_out + ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_types::size::ByteSize;

    #[test]
    fn storage_cost_prorates_by_hour() {
        // $0.14 per GB-month → storing 1 GB for 720 h costs $0.14.
        let p = PricingPolicy::from_dollars(0.14, 0.1, 0.15, 0.01);
        let usage = ResourceUsage::storage(ByteSize::from_gb(1), 720.0);
        let cost = p.cost(&usage);
        assert!((cost.dollars() - 0.14).abs() < 1e-4);
    }

    #[test]
    fn bandwidth_and_ops_costs() {
        let p = PricingPolicy::from_dollars(0.0, 0.10, 0.15, 0.01);
        let usage = ResourceUsage {
            storage_gb_hours: 0.0,
            bw_in: ByteSize::from_gb(2),
            bw_out: ByteSize::from_gb(3),
            ops: 5000,
        };
        let cost = p.cost(&usage);
        // 2*0.10 + 3*0.15 + 5*0.01 = 0.20 + 0.45 + 0.05 = 0.70
        assert!((cost.dollars() - 0.70).abs() < 1e-6);
    }

    #[test]
    fn zero_usage_costs_nothing() {
        let p = PricingPolicy::from_dollars(0.14, 0.1, 0.15, 0.01);
        assert_eq!(p.cost(&ResourceUsage::ZERO), Money::ZERO);
        assert_eq!(
            PricingPolicy::from_dollars(0.0, 0.0, 0.0, 0.0).cost(&ResourceUsage::operations(1000)),
            Money::ZERO
        );
    }

    #[test]
    fn rackspace_free_operations() {
        // Rackspace CloudFiles charges $0 per operation in Fig. 3.
        let rs = PricingPolicy::from_dollars(0.15, 0.08, 0.18, 0.0);
        let usage = ResourceUsage::operations(1_000_000);
        assert_eq!(rs.cost(&usage), Money::ZERO);
    }

    #[test]
    fn fractional_gb_billing() {
        let p = PricingPolicy::from_dollars(0.0, 0.0, 0.15, 0.0);
        // 1 MB out = 0.001 GB → $0.00015
        let usage = ResourceUsage::download(ByteSize::from_mb(1));
        assert_eq!(p.cost(&usage), Money::from_dollars(0.00015));
    }
}
