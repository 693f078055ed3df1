//! Provider descriptors.
//!
//! A [`ProviderDescriptor`] is everything the placement engine needs to know
//! about a storage provider: identity, whether it is a public cloud or a
//! private resource, SLA, pricing, zones of operation, optional chunk-size
//! constraint and optional capacity (for private resources).

use crate::latency::LatencyModel;
use crate::pricing::PricingPolicy;
use crate::sla::ProviderSla;
use scalia_types::ids::ProviderId;
use scalia_types::size::ByteSize;
use scalia_types::zone::ZoneSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a provider is a public cloud or a corporate private resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProviderKind {
    /// A public cloud storage provider (billed per use).
    PublicCloud,
    /// A corporate-owned private storage resource (capacity-limited).
    Private,
}

/// Full description of a storage provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderDescriptor {
    /// Stable identifier within the catalog.
    pub id: ProviderId,
    /// Short display name, e.g. `"S3(h)"`.
    pub name: String,
    /// Longer description, e.g. `"Amazon S3 (High)"`.
    pub description: String,
    /// Public cloud or private resource.
    pub kind: ProviderKind,
    /// Advertised durability/availability SLA.
    pub sla: ProviderSla,
    /// Pricing policy.
    pub pricing: PricingPolicy,
    /// Zones the provider operates in.
    pub zones: ZoneSet,
    /// Maximum size of a single stored chunk, if the provider constrains it
    /// (§III-A2: "Provider constraints in chunk size are taken into account").
    pub max_chunk_size: Option<ByteSize>,
    /// Total capacity, for private resources (`None` = effectively unlimited).
    pub capacity: Option<ByteSize>,
    /// Deterministic response-time model of the provider's data path
    /// (defaults to `LatencyModel::ZERO`: instantaneous).
    pub latency: LatencyModel,
    /// Observed per-chunk read latency summary (typically a windowed p95 of
    /// real GET round-trips), in microseconds. `None` until enough samples
    /// accumulate; when set it overrides the advertised model in
    /// [`ProviderDescriptor::read_latency_us`], so placement and hedging
    /// trust what the provider *does* over what its descriptor claims.
    pub observed_read_latency_us: Option<u64>,
}

impl ProviderDescriptor {
    /// Creates a public-cloud provider descriptor with no chunk-size or
    /// capacity constraint.
    pub fn public(
        id: ProviderId,
        name: impl Into<String>,
        description: impl Into<String>,
        sla: ProviderSla,
        pricing: PricingPolicy,
        zones: ZoneSet,
    ) -> Self {
        ProviderDescriptor {
            id,
            name: name.into(),
            description: description.into(),
            kind: ProviderKind::PublicCloud,
            sla,
            pricing,
            zones,
            max_chunk_size: None,
            capacity: None,
            latency: LatencyModel::ZERO,
            observed_read_latency_us: None,
        }
    }

    /// Creates a private-resource descriptor with a capacity limit.
    pub fn private(
        id: ProviderId,
        name: impl Into<String>,
        sla: ProviderSla,
        pricing: PricingPolicy,
        zones: ZoneSet,
        capacity: ByteSize,
    ) -> Self {
        ProviderDescriptor {
            id,
            name: name.into(),
            description: "private storage resource".into(),
            kind: ProviderKind::Private,
            sla,
            pricing,
            zones,
            max_chunk_size: None,
            capacity: Some(capacity),
            latency: LatencyModel::ZERO,
            observed_read_latency_us: None,
        }
    }

    /// Builder-style override of the chunk-size constraint.
    pub fn with_max_chunk_size(mut self, size: ByteSize) -> Self {
        self.max_chunk_size = Some(size);
        self
    }

    /// Builder-style override of the provider's latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style override of the observed read-latency summary.
    pub fn with_observed_read_latency_us(mut self, observed: Option<u64>) -> Self {
        self.observed_read_latency_us = observed;
        self
    }

    /// The provider's expected latency for reading one chunk of
    /// `chunk_bytes` bytes, in microseconds: the observed summary when one
    /// exists, otherwise the advertised model's jitter-free expectation.
    /// This is the latency the cost model prices and the hedged read ranks
    /// by.
    pub fn read_latency_us(&self, chunk_bytes: u64) -> u64 {
        match self.observed_read_latency_us {
            Some(observed) => observed,
            None => self.latency.expected_us(chunk_bytes),
        }
    }

    /// Returns `true` if the provider can hold a chunk of the given size.
    pub fn accepts_chunk(&self, chunk_size: ByteSize) -> bool {
        match self.max_chunk_size {
            Some(max) => chunk_size <= max,
            None => true,
        }
    }
}

impl fmt::Display for ProviderDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] dur {} avail {} zones [{}] storage {}/GB-month",
            self.name,
            self.id,
            self.sla.durability,
            self.sla.availability,
            self.zones,
            self.pricing.storage_gb_month
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_types::zone::Zone;

    fn sample() -> ProviderDescriptor {
        ProviderDescriptor::public(
            ProviderId::new(0),
            "S3(h)",
            "Amazon S3 (High)",
            ProviderSla::from_percent(99.999999999, 99.9),
            PricingPolicy::from_dollars(0.14, 0.1, 0.15, 0.01),
            ZoneSet::of(&[Zone::EU, Zone::US, Zone::APAC]),
        )
    }

    #[test]
    fn public_provider_has_no_capacity_limit() {
        let p = sample();
        assert_eq!(p.kind, ProviderKind::PublicCloud);
        assert_ne!(p.kind, ProviderKind::Private);
        assert!(p.capacity.is_none());
        assert!(p.accepts_chunk(ByteSize::from_gb(100)));
    }

    #[test]
    fn chunk_size_constraint() {
        let p = sample().with_max_chunk_size(ByteSize::from_mb(5));
        assert!(p.accepts_chunk(ByteSize::from_mb(5)));
        assert!(p.accepts_chunk(ByteSize::from_kb(1)));
        assert!(!p.accepts_chunk(ByteSize::from_mb(6)));
    }

    #[test]
    fn private_resource_descriptor() {
        let p = ProviderDescriptor::private(
            ProviderId::new(9),
            "nas-1",
            ProviderSla::from_percent(99.99, 99.5),
            PricingPolicy::from_dollars(0.0, 0.0, 0.0, 0.0),
            ZoneSet::of(&[Zone::EU]),
            ByteSize::from_gb(10),
        );
        assert_eq!(p.kind, ProviderKind::Private);
        assert_eq!(p.capacity, Some(ByteSize::from_gb(10)));
    }

    #[test]
    fn latency_model_defaults_to_zero_and_is_overridable() {
        let p = sample();
        assert!(
            p.latency.is_zero(),
            "catalog default must stay latency-free"
        );
        let slow = sample().with_latency(LatencyModel::slow(3));
        assert!(!slow.latency.is_zero());
        assert!(slow.latency.expected_us(0) > 0);
    }

    #[test]
    fn observed_latency_overrides_the_advertised_model() {
        let p = sample().with_latency(LatencyModel::new(30, 0, 0, 1));
        assert_eq!(p.observed_read_latency_us, None);
        assert_eq!(p.read_latency_us(1_000), 30_000, "modelled fallback");
        let observed = p.with_observed_read_latency_us(Some(250_000));
        assert_eq!(
            observed.read_latency_us(1_000),
            250_000,
            "observation beats the advertisement"
        );
        assert_eq!(
            observed
                .with_observed_read_latency_us(None)
                .read_latency_us(1_000),
            30_000,
            "forgiveness restores the model"
        );
    }

    #[test]
    fn display_contains_name_and_prices() {
        let s = sample().to_string();
        assert!(s.contains("S3(h)"));
        assert!(s.contains("99.9%"));
    }
}
