//! The provider catalog.
//!
//! A [`ProviderCatalog`] is the dynamic set `P(obj)` of storage providers
//! available for placement. Providers can be registered at run time (new
//! offerings appearing — §IV-D), and marked unavailable during transient
//! outages (§IV-E).
//!
//! [`ProviderCatalog::paper_catalog`] reproduces the paper's Fig. 3 exactly.

use crate::descriptor::ProviderDescriptor;
use crate::pricing::PricingPolicy;
use crate::sla::ProviderSla;
use parking_lot::RwLock;
use scalia_types::ids::ProviderId;
use scalia_types::zone::{Zone, ZoneSet};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A thread-safe, mutable catalog of storage providers.
///
/// Every mutation (registration, deregistration, availability marking)
/// bumps a monotonically increasing [`version`](Self::version); consumers
/// that cache placement decisions key them by this version so any catalog
/// change invalidates the cache.
#[derive(Debug, Default)]
pub struct ProviderCatalog {
    inner: RwLock<CatalogInner>,
    version: AtomicU64,
}

/// Relative shift (in percent) below which a refreshed observed-latency
/// summary is considered noise: the published value is kept and the catalog
/// version is *not* bumped, so steady-state refreshes don't thrash the
/// placement cache. 25 % comfortably exceeds the latency models' jitter.
pub(crate) const OBSERVED_LATENCY_SHIFT_PCT: u64 = 25;

#[derive(Debug, Default)]
struct CatalogInner {
    providers: BTreeMap<ProviderId, ProviderDescriptor>,
    /// Providers currently marked unreachable (transient outage).
    unavailable: BTreeMap<ProviderId, bool>,
    next_id: u32,
}

impl ProviderCatalog {
    /// Creates an empty catalog.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates an empty catalog wrapped in an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The current catalog version: bumped by every mutation. Placement
    /// caches key their entries by this value.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Registers a provider described by a closure that receives the id the
    /// catalog assigned. Returns the assigned id.
    pub(crate) fn register_with(
        &self,
        build: impl FnOnce(ProviderId) -> ProviderDescriptor,
    ) -> ProviderId {
        let mut inner = self.inner.write();
        let id = ProviderId::new(inner.next_id);
        inner.next_id += 1;
        let descriptor = build(id);
        inner.providers.insert(id, descriptor);
        drop(inner);
        self.bump_version();
        id
    }

    /// Registers an already-built descriptor, overriding its id with a fresh
    /// catalog-assigned one. Returns the assigned id.
    pub fn register(&self, mut descriptor: ProviderDescriptor) -> ProviderId {
        self.register_with(move |id| {
            descriptor.id = id;
            descriptor
        })
    }

    /// Returns the descriptor of a provider.
    pub fn get(&self, id: ProviderId) -> Option<ProviderDescriptor> {
        self.inner.read().providers.get(&id).cloned()
    }

    /// All registered providers, in id order.
    pub fn all(&self) -> Vec<ProviderDescriptor> {
        self.inner.read().providers.values().cloned().collect()
    }

    /// All providers that are currently reachable (not in a transient
    /// outage), in id order. This is the set the placement algorithm works
    /// on during a provider failure (§III-D3).
    pub fn available(&self) -> Vec<ProviderDescriptor> {
        let inner = self.inner.read();
        inner
            .providers
            .values()
            .filter(|p| !inner.unavailable.get(&p.id).copied().unwrap_or(false))
            .cloned()
            .collect()
    }

    /// Number of registered providers.
    pub fn len(&self) -> usize {
        self.inner.read().providers.len()
    }

    /// Returns `true` if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes a provider's observed read-latency summary (a windowed p95
    /// in microseconds, `None` when too few recent samples exist) into its
    /// descriptor, so placement searches and hedged reads see it.
    ///
    /// The update is **hysteretic**: a summary that did not shift materially
    /// — same presence and within `OBSERVED_LATENCY_SHIFT_PCT` percent of
    /// the published value — is dropped entirely, leaving the descriptor and
    /// the catalog [`version`](Self::version) untouched. Rankings therefore
    /// only move (and placement caches only invalidate) when observations
    /// actually changed the picture, not on every jittery refresh. Returns
    /// `true` if the catalog changed.
    pub fn set_observed_read_latency(&self, id: ProviderId, observed: Option<u64>) -> bool {
        let mut inner = self.inner.write();
        let Some(descriptor) = inner.providers.get_mut(&id) else {
            return false;
        };
        let current = descriptor.observed_read_latency_us;
        let material = match (current, observed) {
            (None, None) => false,
            (None, Some(_)) | (Some(_), None) => true,
            (Some(old), Some(new)) => {
                let (lo, hi) = (old.min(new) as u128, old.max(new) as u128);
                hi * 100 > lo * (100 + OBSERVED_LATENCY_SHIFT_PCT as u128)
            }
        };
        if !material {
            return false;
        }
        descriptor.observed_read_latency_us = observed;
        drop(inner);
        self.bump_version();
        true
    }

    /// The observed read-latency summary currently published for a provider.
    pub fn observed_read_latency(&self, id: ProviderId) -> Option<u64> {
        self.inner
            .read()
            .providers
            .get(&id)
            .and_then(|p| p.observed_read_latency_us)
    }

    /// Marks a provider unreachable (start of a transient outage).
    pub fn mark_unavailable(&self, id: ProviderId) {
        self.inner.write().unavailable.insert(id, true);
        self.bump_version();
    }

    /// Marks a provider reachable again (outage over).
    pub fn mark_available(&self, id: ProviderId) {
        self.inner.write().unavailable.remove(&id);
        self.bump_version();
    }

    /// Returns `true` if the provider is currently reachable.
    pub fn is_available(&self, id: ProviderId) -> bool {
        let inner = self.inner.read();
        inner.providers.contains_key(&id) && !inner.unavailable.get(&id).copied().unwrap_or(false)
    }

    /// Builds the paper's Fig. 3 catalog: S3(h), S3(l), Rackspace CloudFiles,
    /// Microsoft Azure and Google Storage, with their exact prices and SLAs.
    pub fn paper_catalog() -> Arc<Self> {
        let catalog = Self::shared();
        catalog.register_with(s3_high);
        catalog.register_with(s3_low);
        catalog.register_with(rackspace);
        catalog.register_with(azure);
        catalog.register_with(google);
        catalog
    }
}

/// Amazon S3 (High durability): 99.999999999 / 99.9, EU+US+APAC,
/// $0.14 / $0.10 / $0.15 / $0.01.
pub fn s3_high(id: ProviderId) -> ProviderDescriptor {
    ProviderDescriptor::public(
        id,
        "S3(h)",
        "Amazon S3 (High)",
        ProviderSla::from_percent(99.999999999, 99.9),
        PricingPolicy::from_dollars(0.14, 0.10, 0.15, 0.01),
        ZoneSet::of(&[Zone::EU, Zone::US, Zone::APAC]),
    )
}

/// Amazon S3 (Low / reduced redundancy): 99.99 / 99.9, EU+US+APAC,
/// $0.093 / $0.10 / $0.15 / $0.01.
pub fn s3_low(id: ProviderId) -> ProviderDescriptor {
    ProviderDescriptor::public(
        id,
        "S3(l)",
        "Amazon S3 (Low)",
        ProviderSla::from_percent(99.99, 99.9),
        PricingPolicy::from_dollars(0.093, 0.10, 0.15, 0.01),
        ZoneSet::of(&[Zone::EU, Zone::US, Zone::APAC]),
    )
}

/// Rackspace CloudFiles: 99.9999 / 99.9, US, $0.15 / $0.08 / $0.18 / $0.00.
pub fn rackspace(id: ProviderId) -> ProviderDescriptor {
    ProviderDescriptor::public(
        id,
        "RS",
        "Rackspace CloudFiles",
        ProviderSla::from_percent(99.9999, 99.9),
        PricingPolicy::from_dollars(0.15, 0.08, 0.18, 0.0),
        ZoneSet::of(&[Zone::US]),
    )
}

/// Microsoft Azure: 99.9999 / 99.9, US, $0.15 / $0.10 / $0.15 / $0.01.
pub fn azure(id: ProviderId) -> ProviderDescriptor {
    ProviderDescriptor::public(
        id,
        "Azu",
        "Microsoft Azure",
        ProviderSla::from_percent(99.9999, 99.9),
        PricingPolicy::from_dollars(0.15, 0.10, 0.15, 0.01),
        ZoneSet::of(&[Zone::US]),
    )
}

/// Google Storage: 99.9999 / 99.9, US, $0.17 / $0.10 / $0.15 / $0.01.
pub fn google(id: ProviderId) -> ProviderDescriptor {
    ProviderDescriptor::public(
        id,
        "Ggl",
        "Google Storage",
        ProviderSla::from_percent(99.9999, 99.9),
        PricingPolicy::from_dollars(0.17, 0.10, 0.15, 0.01),
        ZoneSet::of(&[Zone::US]),
    )
}

/// The hypothetical cheaper provider registered at hour 400 of the §IV-D
/// scenario: $0.09 / $0.10 / $0.15 / $0.01, durability 99.9999, avail 99.9.
pub fn cheapstor(id: ProviderId) -> ProviderDescriptor {
    ProviderDescriptor::public(
        id,
        "CheapStor",
        "CheapStor (new provider)",
        ProviderSla::from_percent(99.9999, 99.9),
        PricingPolicy::from_dollars(0.09, 0.10, 0.15, 0.01),
        ZoneSet::of(&[Zone::US]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_matches_fig3() {
        let catalog = ProviderCatalog::paper_catalog();
        assert_eq!(catalog.len(), 5);
        let all = catalog.all();
        let names: Vec<&str> = all.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["S3(h)", "S3(l)", "RS", "Azu", "Ggl"]);

        let s3h = &all[0];
        assert!((s3h.pricing.storage_gb_month.dollars() - 0.14).abs() < 1e-9);
        assert!((s3h.sla.durability.probability() - 0.99999999999).abs() < 1e-15);
        assert!(s3h.zones.contains(Zone::EU) && s3h.zones.contains(Zone::APAC));

        let s3l = &all[1];
        assert!((s3l.pricing.storage_gb_month.dollars() - 0.093).abs() < 1e-9);

        let rs = &all[2];
        assert_eq!(rs.pricing.ops_per_1000.dollars(), 0.0);
        assert!((rs.pricing.bandwidth_out_gb.dollars() - 0.18).abs() < 1e-9);
        assert!(rs.zones.contains(Zone::US) && !rs.zones.contains(Zone::EU));

        let ggl = &all[4];
        assert!((ggl.pricing.storage_gb_month.dollars() - 0.17).abs() < 1e-9);
    }

    #[test]
    fn ids_are_assigned_sequentially_and_stable() {
        let catalog = ProviderCatalog::new();
        let a = catalog.register_with(s3_high);
        let b = catalog.register_with(s3_low);
        assert_ne!(a, b);
        assert_eq!(catalog.get(a).unwrap().id, a);
        assert_eq!(catalog.get(b).unwrap().id, b);
        let c = catalog.register_with(azure);
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn availability_marking() {
        let catalog = ProviderCatalog::paper_catalog();
        let all = catalog.all();
        let s3l_id = all[1].id;
        assert!(catalog.is_available(s3l_id));
        assert_eq!(catalog.available().len(), 5);

        catalog.mark_unavailable(s3l_id);
        assert!(!catalog.is_available(s3l_id));
        assert_eq!(catalog.available().len(), 4);
        assert!(catalog.available().iter().all(|p| p.id != s3l_id));

        catalog.mark_available(s3l_id);
        assert!(catalog.is_available(s3l_id));
        assert_eq!(catalog.available().len(), 5);
    }

    #[test]
    fn every_mutation_bumps_the_version() {
        let catalog = ProviderCatalog::new();
        let v0 = catalog.version();
        let id = catalog.register_with(cheapstor);
        let v1 = catalog.version();
        assert!(v1 > v0, "register must bump the version");
        catalog.mark_unavailable(id);
        let v2 = catalog.version();
        assert!(v2 > v1, "outage must bump the version");
        catalog.mark_available(id);
        assert!(catalog.version() > v2, "recovery must bump the version");
    }

    #[test]
    fn observed_latency_updates_are_hysteretic() {
        let catalog = ProviderCatalog::paper_catalog();
        let id = catalog.all()[0].id;
        let v0 = catalog.version();

        // First publication is material: descriptor + version move.
        assert!(catalog.set_observed_read_latency(id, Some(40_000)));
        assert_eq!(catalog.observed_read_latency(id), Some(40_000));
        assert_eq!(
            catalog.get(id).unwrap().observed_read_latency_us,
            Some(40_000)
        );
        let v1 = catalog.version();
        assert!(v1 > v0);

        // A jittery refresh within the shift band is dropped entirely.
        assert!(!catalog.set_observed_read_latency(id, Some(44_000)));
        assert_eq!(catalog.observed_read_latency(id), Some(40_000));
        assert_eq!(catalog.version(), v1, "noise must not bump the version");

        // A material shift (>25 %) replaces the summary and invalidates.
        assert!(catalog.set_observed_read_latency(id, Some(120_000)));
        assert_eq!(catalog.observed_read_latency(id), Some(120_000));
        assert!(catalog.version() > v1);

        // Forgiveness (None) is always material; repeating it is not.
        let v2 = catalog.version();
        assert!(catalog.set_observed_read_latency(id, None));
        assert_eq!(catalog.observed_read_latency(id), None);
        assert!(catalog.version() > v2);
        let v3 = catalog.version();
        assert!(!catalog.set_observed_read_latency(id, None));
        assert_eq!(catalog.version(), v3);

        // Unknown providers are a no-op.
        assert!(!catalog.set_observed_read_latency(ProviderId::new(99), Some(1)));
    }

    #[test]
    fn unknown_provider_is_not_available() {
        let catalog = ProviderCatalog::new();
        assert!(!catalog.is_available(ProviderId::new(42)));
        assert!(catalog.get(ProviderId::new(42)).is_none());
    }

    #[test]
    fn register_prebuilt_descriptor_overrides_id() {
        let catalog = ProviderCatalog::new();
        let descriptor = s3_high(ProviderId::new(999));
        let id = catalog.register(descriptor);
        assert_ne!(id, ProviderId::new(999));
        assert_eq!(catalog.get(id).unwrap().name, "S3(h)");
    }
}
