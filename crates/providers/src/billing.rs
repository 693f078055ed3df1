//! Billing meters.
//!
//! A `BillingMeter` accumulates the resources consumed at one provider and
//! converts them into money using the provider's pricing policy. The
//! simulator owns one meter per provider per accounted entity (e.g. per
//! candidate placement strategy) to produce the cumulative-cost curves of the
//! evaluation.

use crate::pricing::PricingPolicy;
use scalia_types::money::Money;
use scalia_types::size::ByteSize;
use scalia_types::usage::ResourceUsage;

/// Accumulates resource usage and prices it under a pricing policy.
#[derive(Debug, Clone)]
pub(crate) struct BillingMeter {
    pricing: PricingPolicy,
    usage: ResourceUsage,
}

impl BillingMeter {
    /// Creates a meter with no accumulated usage.
    pub(crate) fn new(pricing: PricingPolicy) -> Self {
        BillingMeter {
            pricing,
            usage: ResourceUsage::ZERO,
        }
    }

    /// Records arbitrary usage.
    pub(crate) fn record(&mut self, usage: ResourceUsage) {
        self.usage += usage;
    }

    /// Records an upload of `size` bytes plus one PUT operation.
    pub(crate) fn record_put(&mut self, size: ByteSize) {
        self.usage += ResourceUsage::upload(size) + ResourceUsage::operations(1);
    }

    /// Records a download of `size` bytes plus one GET operation.
    pub(crate) fn record_get(&mut self, size: ByteSize) {
        self.usage += ResourceUsage::download(size) + ResourceUsage::operations(1);
    }

    /// Records one DELETE operation (no bandwidth).
    pub(crate) fn record_delete(&mut self) {
        self.usage += ResourceUsage::operations(1);
    }

    /// Records `size` bytes being held for `hours` hours.
    pub(crate) fn record_storage(&mut self, size: ByteSize, hours: f64) {
        self.usage += ResourceUsage::storage(size, hours);
    }

    /// Total accumulated usage.
    pub(crate) fn usage(&self) -> ResourceUsage {
        self.usage
    }

    /// Total accumulated cost under the meter's pricing policy.
    pub(crate) fn total_cost(&self) -> Money {
        self.pricing.cost(&self.usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> BillingMeter {
        BillingMeter::new(PricingPolicy::from_dollars(0.14, 0.10, 0.15, 0.01))
    }

    #[test]
    fn put_get_delete_accounting() {
        let mut m = meter();
        m.record_put(ByteSize::from_gb(1));
        m.record_get(ByteSize::from_gb(2));
        m.record_delete();
        let u = m.usage();
        assert_eq!(u.bw_in, ByteSize::from_gb(1));
        assert_eq!(u.bw_out, ByteSize::from_gb(2));
        assert_eq!(u.ops, 3);
        // 1*0.10 + 2*0.15 + 3/1000*0.01
        let expected = 0.10 + 0.30 + 0.00003;
        assert!((m.total_cost().dollars() - expected).abs() < 1e-6);
    }

    #[test]
    fn storage_accounting() {
        let mut m = meter();
        m.record_storage(ByteSize::from_gb(10), 72.0);
        // 10 GB * 72 h = 720 GB-hours = 1 GB-month → $0.14
        assert!((m.total_cost().dollars() - 0.14).abs() < 1e-4);
    }

    #[test]
    fn record_arbitrary_usage_composes() {
        let mut m = meter();
        m.record(ResourceUsage::operations(500));
        m.record(ResourceUsage::operations(500));
        assert_eq!(m.usage().ops, 1000);
        assert!((m.total_cost().dollars() - 0.01).abs() < 1e-9);
    }
}
