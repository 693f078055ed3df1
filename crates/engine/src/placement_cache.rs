//! Memoization of placement decisions.
//!
//! The periodic optimiser, the active-repair pass and the write path all
//! call Algorithm 1 — and during one optimisation cycle they overwhelmingly
//! call it with the *same inputs*: objects of the same class, under the same
//! storage rule, against the same provider catalog. The paper's design
//! already groups objects into classes precisely because class members share
//! access behaviour; re-running the subset search for each member is pure
//! waste.
//!
//! [`PlacementCache`] memoizes the chosen provider set + threshold, keyed by
//!
//! * the **storage rule** (all constraint fields),
//! * the **object class** — the exact class identifier
//!   (`C(obj) = MD5(mime | discretize(size))`), so only true class members
//!   ever share a decision (the coarse cross-class power-of-two sharing of
//!   earlier revisions is gone),
//! * the **usage bucket** — each predicted-usage dimension quantized to its
//!   power-of-two bucket, which catches *temporal* drift: when a class's
//!   access pattern moves materially (a Slashdot spike), its key changes
//!   and the search re-runs instead of revalidating a stale set forever,
//! * the **catalog version** — any provider registration, removal or
//!   outage bumps the version ([`scalia_providers::catalog::ProviderCatalog::version`])
//!   and implicitly invalidates every cached decision.
//!
//! A hit is **revalidated** against the caller's exact usage with
//! `PlacementEngine::evaluate_set` (the cached set must still be feasible —
//! e.g. chunk-size limits bind to the exact object size) and the expected
//! cost is recomputed exactly; only the expensive subset *search* is
//! skipped. Within a usage bucket the cached set may be marginally
//! off-optimal for an individual object (bounded by the bucket width); the
//! optimizer's migration gate compares exact costs, so a cached set is never
//! migrated to unless it actually saves money.

use parking_lot::RwLock;
use scalia_core::cost::PredictedUsage;
use scalia_core::decision::rule_fingerprint;
use scalia_core::placement::{Placement, PlacementDecision, PlacementEngine};
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::rules::StorageRule;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bound on distinct cached decisions.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The quantized usage-class component of a cache key: every dimension is
/// reduced to its power-of-two bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UsageClassKey {
    size: u8,
    bw_in: u8,
    bw_out: u8,
    reads: u8,
    writes: u8,
    duration_hours: u8,
}

fn bucket(v: u64) -> u8 {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as u8
    }
}

impl UsageClassKey {
    /// Quantizes a predicted usage.
    pub fn of(usage: &PredictedUsage) -> Self {
        UsageClassKey {
            size: bucket(usage.size.bytes()),
            bw_in: bucket(usage.bw_in.bytes()),
            bw_out: bucket(usage.bw_out.bytes()),
            reads: bucket(usage.reads),
            writes: bucket(usage.writes),
            duration_hours: bucket(usage.duration_hours.max(0.0).round() as u64),
        }
    }
}

/// The full cache key: rule + exact object class + usage bucket + catalog
/// version.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlacementCacheKey {
    catalog_version: u64,
    rule_name: String,
    rule_fingerprint: [u64; 5],
    class_id: String,
    usage: UsageClassKey,
}

impl PlacementCacheKey {
    fn new(
        catalog_version: u64,
        rule: &StorageRule,
        class_id: &str,
        usage: &PredictedUsage,
    ) -> Self {
        PlacementCacheKey {
            catalog_version,
            rule_name: rule.name.clone(),
            rule_fingerprint: rule_fingerprint(rule),
            class_id: class_id.to_string(),
            usage: UsageClassKey::of(usage),
        }
    }
}

/// Hit/miss counters of a [`PlacementCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementCacheStats {
    /// Searches answered from the cache.
    pub hits: u64,
    /// Searches that ran the full subset search.
    pub misses: u64,
}

/// A bounded, thread-safe memo of placement decisions.
///
/// Concurrency: lookups take a **read** lock (concurrent optimiser shards
/// revalidate hits fully in parallel) and no lock is ever held across a
/// subset search or a revalidation — the write lock is taken only for the
/// final insert of a freshly-computed decision. Racing threads may both run
/// the same search on a miss; last insert wins, which is harmless because
/// both computed the same optimum for the same catalog version.
#[derive(Debug)]
pub struct PlacementCache {
    entries: RwLock<HashMap<PlacementCacheKey, Arc<Placement>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl Default for PlacementCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlacementCache {
    /// Creates a cache bounded to [`DEFAULT_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a cache bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        PlacementCache {
            entries: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Runs (or reuses) the placement search for `rule` + `class_id` +
    /// `usage` against the catalog snapshot produced by `providers` (the
    /// available set at `catalog_version`). The supplier is only invoked on
    /// a miss, so cache hits never pay the catalog clone.
    ///
    /// On a hit, the cached provider set is revalidated against the exact
    /// usage and its cost recomputed exactly; on a miss (or failed
    /// revalidation) the full search runs and the winning placement is
    /// memoized.
    pub fn best_placement(
        &self,
        engine: &PlacementEngine,
        rule: &StorageRule,
        class_id: &str,
        usage: &PredictedUsage,
        providers: impl FnOnce() -> Vec<ProviderDescriptor>,
        catalog_version: u64,
    ) -> Result<PlacementDecision, scalia_types::error::ScaliaError> {
        let key = PlacementCacheKey::new(catalog_version, rule, class_id, usage);
        let cached = self.entries.read().get(&key).cloned();
        if let Some(placement) = cached {
            if let Some((m, price)) =
                PlacementEngine::evaluate_set(rule, usage, &placement.providers)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PlacementDecision {
                    placement: Placement {
                        providers: placement.providers.clone(),
                        // The exact-usage threshold can differ within the
                        // bucket (chunk-size limits bind to the true size).
                        m,
                    },
                    expected_cost: price,
                });
            }
            // Cached set no longer feasible for this exact usage: fall
            // through to a fresh search (and overwrite the entry).
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let decision = engine.best_placement(rule, usage, &providers())?;
        let mut entries = self.entries.write();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            // Simple bound: drop everything. Entries are cheap to rebuild
            // (one search each) and stale versions never get hit anyway.
            entries.clear();
        }
        entries.insert(key, Arc::new(decision.placement.clone()));
        Ok(decision)
    }

    /// Hit/miss counters since creation.
    pub fn stats(&self) -> PlacementCacheStats {
        PlacementCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Returns `true` if no decision is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached decision (tests and manual invalidation).
    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::{azure, google, rackspace, s3_high, s3_low};
    use scalia_types::ids::ProviderId;
    use scalia_types::reliability::Reliability;
    use scalia_types::size::ByteSize;
    use scalia_types::zone::ZoneSet;

    fn catalog() -> Vec<ProviderDescriptor> {
        vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
            rackspace(ProviderId::new(2)),
            azure(ProviderId::new(3)),
            google(ProviderId::new(4)),
        ]
    }

    fn rule() -> StorageRule {
        StorageRule::new(
            "cache",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        )
    }

    #[test]
    fn repeated_searches_hit_the_cache() {
        let cache = PlacementCache::new();
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(1), 24.0);
        let first = cache
            .best_placement(&engine, &rule(), "cls", &usage, catalog, 7)
            .unwrap();
        let second = cache
            .best_placement(&engine, &rule(), "cls", &usage, catalog, 7)
            .unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn same_bucket_usage_reuses_the_decision_with_exact_cost() {
        let cache = PlacementCache::new();
        let engine = PlacementEngine::new();
        // Same power-of-two bucket (600 KB and 1000 KB are both in
        // (2^19, 2^20] bytes), different exact size.
        let a = PredictedUsage::storage_only(ByteSize::from_kb(600), 24.0);
        let b = PredictedUsage::storage_only(ByteSize::from_kb(1000), 24.0);
        let da = cache
            .best_placement(&engine, &rule(), "cls", &a, catalog, 1)
            .unwrap();
        let db = cache
            .best_placement(&engine, &rule(), "cls", &b, catalog, 1)
            .unwrap();
        assert_eq!(cache.stats().hits, 1, "same class must hit");
        assert!(da.placement.same_as(&db.placement));
        // The cost is recomputed for the exact usage, not copied.
        assert!(db.expected_cost > da.expected_cost);
    }

    #[test]
    fn catalog_version_change_invalidates() {
        let cache = PlacementCache::new();
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(1), 24.0);
        cache
            .best_placement(&engine, &rule(), "cls", &usage, catalog, 1)
            .unwrap();
        cache
            .best_placement(&engine, &rule(), "cls", &usage, catalog, 2)
            .unwrap();
        assert_eq!(cache.stats().misses, 2, "new catalog version must miss");
    }

    #[test]
    fn different_rules_do_not_share_entries() {
        let cache = PlacementCache::new();
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(1), 24.0);
        cache
            .best_placement(&engine, &rule(), "cls", &usage, catalog, 1)
            .unwrap();
        let stricter = rule().with_lockin(0.2);
        let d = cache
            .best_placement(&engine, &stricter, "cls", &usage, catalog, 1)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(
            d.placement.providers.len(),
            5,
            "lock-in 0.2 needs 5 providers"
        );
    }

    #[test]
    fn infeasible_revalidation_falls_back_to_search() {
        let cache = PlacementCache::new();
        let engine = PlacementEngine::new();
        // Seed the class entry with a small object…
        let small = PredictedUsage::storage_only(ByteSize::from_kb(600), 24.0);
        let mut providers = catalog();
        providers[0] = providers[0]
            .clone()
            .with_max_chunk_size(ByteSize::from_kb(700));
        let d_small = cache
            .best_placement(&engine, &rule(), "cls", &small, || providers.clone(), 3)
            .unwrap();
        // …then ask for a same-bucket larger object that breaks the cached
        // set's chunk limit (if the limited provider was chosen).
        let large = PredictedUsage::storage_only(ByteSize::from_kb(1000), 24.0);
        let d_large = cache
            .best_placement(&engine, &rule(), "cls", &large, || providers.clone(), 3)
            .unwrap();
        let chunk = large.size.div_ceil(d_large.placement.m as usize);
        for p in &d_large.placement.providers {
            assert!(p.accepts_chunk(chunk), "revalidation must keep feasibility");
        }
        let _ = d_small;
    }

    #[test]
    fn capacity_bound_holds() {
        let cache = PlacementCache::with_capacity(2);
        let engine = PlacementEngine::new();
        for i in 0..5u64 {
            let usage = PredictedUsage::storage_only(ByteSize::from_kb(10 << i), 24.0);
            cache
                .best_placement(&engine, &rule(), "cls", &usage, catalog, 1)
                .unwrap();
        }
        assert!(cache.len() <= 2);
        cache.clear();
        assert!(cache.is_empty());
    }
}
