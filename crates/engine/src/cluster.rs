//! The multi-datacenter Scalia deployment.
//!
//! A [`ScaliaCluster`] wires together the full architecture of Fig. 4: per
//! datacenter a cache, a database node (via the replicated store) and a set
//! of stateless engines with their log agents; clients send requests
//! "indifferently to each datacenter", which the cluster models by routing
//! requests round-robin across all engines. The cluster also owns the
//! simulation clock: [`ScaliaCluster::tick`] advances time, charges storage
//! at every provider, flushes the log-aggregation pipeline into the
//! statistics tables and reconciles the database replicas.

use crate::cache::Cache;
use crate::engine::Engine;
use crate::infra::Infrastructure;
use crate::optimizer::{OptimizationReport, PeriodicOptimizer};
use crate::repair::{drain_repair_queue, RepairDrainReport};
use bytes::Bytes;
use parking_lot::Mutex;
use scalia_core::migration::MigrationBudget;
use scalia_core::placement::PlacementEngine;
use scalia_core::trend::TrendDetector;
use scalia_metastore::logagg::{LogAgent, LogAggregator};
use scalia_providers::catalog::ProviderCatalog;
use scalia_types::error::Result;
use scalia_types::ids::{DatacenterId, EngineId};
use scalia_types::money::Money;
use scalia_types::object::{ObjectKey, ObjectMeta};
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::time::{Duration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One datacenter of the deployment.
struct DatacenterRuntime {
    #[allow(dead_code)]
    id: DatacenterId,
    cache: Arc<Cache>,
}

/// A running multi-datacenter Scalia deployment.
pub struct ScaliaCluster {
    infra: Arc<Infrastructure>,
    datacenters: Vec<DatacenterRuntime>,
    engines: Vec<Arc<Engine>>,
    aggregator: LogAggregator,
    optimizer: PeriodicOptimizer,
    next_engine: AtomicUsize,
    repair_budget: MigrationBudget,
    repair_placement: PlacementEngine,
    last_repair_drain: Mutex<RepairDrainReport>,
}

/// Builder for [`ScaliaCluster`].
pub struct ScaliaClusterBuilder {
    datacenters: u32,
    engines_per_datacenter: u32,
    catalog: Option<Arc<ProviderCatalog>>,
    cache_capacity: ByteSize,
    migration_budget: MigrationBudget,
}

impl Default for ScaliaClusterBuilder {
    fn default() -> Self {
        ScaliaClusterBuilder {
            datacenters: 2,
            engines_per_datacenter: 2,
            catalog: None,
            cache_capacity: ByteSize::from_mb(256),
            migration_budget: MigrationBudget::UNLIMITED,
        }
    }
}

impl ScaliaClusterBuilder {
    /// Number of datacenters (default 2, as in the paper's Fig. 4).
    pub fn datacenters(mut self, n: u32) -> Self {
        self.datacenters = n.max(1);
        self
    }

    /// Number of engines per datacenter (default 2).
    pub fn engines_per_datacenter(mut self, n: u32) -> Self {
        self.engines_per_datacenter = n.max(1);
        self
    }

    /// Provider catalog to broker over (default: the paper's Fig. 3 catalog).
    pub fn catalog(mut self, catalog: Arc<ProviderCatalog>) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Per-datacenter cache capacity (default 256 MB; zero disables caching).
    pub fn cache_capacity(mut self, capacity: ByteSize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Per-cycle migration budget of the periodic optimiser (default:
    /// unlimited). With a budget, candidate migrations are executed
    /// best-savings-per-byte-first and the tail is deferred to the next
    /// cycle.
    pub fn migration_budget(mut self, budget: MigrationBudget) -> Self {
        self.migration_budget = budget;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> ScaliaCluster {
        let catalog = self.catalog.unwrap_or_else(ProviderCatalog::paper_catalog);
        let infra = Infrastructure::new(catalog, self.datacenters, Duration::HOUR);

        let mut datacenters = Vec::new();
        for dc in 0..self.datacenters {
            datacenters.push(DatacenterRuntime {
                id: DatacenterId::new(dc),
                cache: Cache::shared(self.cache_capacity),
            });
        }
        let all_caches: Vec<Arc<Cache>> = datacenters.iter().map(|d| d.cache.clone()).collect();

        let mut engines = Vec::new();
        let mut agents = Vec::new();
        let mut engine_id = 0u32;
        for dc in 0..self.datacenters {
            for _ in 0..self.engines_per_datacenter {
                let agent = LogAgent::shared();
                agents.push(agent.clone());
                engines.push(Arc::new(Engine::new(
                    EngineId::new(engine_id),
                    DatacenterId::new(dc),
                    infra.clone(),
                    datacenters[dc as usize].cache.clone(),
                    all_caches.clone(),
                    agent,
                    PlacementEngine::new(),
                )));
                engine_id += 1;
            }
        }

        ScaliaCluster {
            infra,
            datacenters,
            engines,
            aggregator: LogAggregator::new(agents),
            optimizer: PeriodicOptimizer::new(TrendDetector::default(), PlacementEngine::new())
                .with_migration_budget(self.migration_budget),
            next_engine: AtomicUsize::new(0),
            repair_budget: self.migration_budget,
            repair_placement: PlacementEngine::new(),
            last_repair_drain: Mutex::new(RepairDrainReport::default()),
        }
    }
}

impl ScaliaCluster {
    /// Starts building a cluster.
    pub fn builder() -> ScaliaClusterBuilder {
        ScaliaClusterBuilder::default()
    }

    /// The shared infrastructure handle.
    pub fn infra(&self) -> &Arc<Infrastructure> {
        &self.infra
    }

    /// Number of engines across all datacenters.
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// A specific engine (index order: datacenter-major).
    pub fn engine(&self, index: usize) -> &Arc<Engine> {
        &self.engines[index % self.engines.len()]
    }

    /// All engines.
    pub fn engines(&self) -> &[Arc<Engine>] {
        &self.engines
    }

    /// The per-datacenter caches.
    pub fn caches(&self) -> Vec<Arc<Cache>> {
        self.datacenters.iter().map(|d| d.cache.clone()).collect()
    }

    fn route(&self) -> &Arc<Engine> {
        let idx = self.next_engine.fetch_add(1, Ordering::Relaxed);
        &self.engines[idx % self.engines.len()]
    }

    /// Stores an object through a (round-robin chosen) engine.
    pub fn put(
        &self,
        key: &ObjectKey,
        data: impl Into<Bytes>,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
    ) -> Result<ObjectMeta> {
        self.route()
            .put(key, data.into(), mime, rule, ttl_hint_hours)
    }

    /// Reads an object through a (round-robin chosen) engine.
    pub fn get(&self, key: &ObjectKey) -> Result<Bytes> {
        self.route().get(key)
    }

    /// Deletes an object through a (round-robin chosen) engine.
    pub fn delete(&self, key: &ObjectKey) -> Result<()> {
        self.route().delete(key)
    }

    /// Lists a container through a (round-robin chosen) engine.
    pub fn list(&self, container: &str) -> Vec<ObjectKey> {
        self.route().list(container)
    }

    /// Advances simulated time: charges storage at every provider, retries
    /// postponed deletes, flushes the log-aggregation pipeline into the
    /// statistics tables, garbage-collects the statistics footprint (class
    /// sample caps, rollup retention), drains the durability-repair queue
    /// under the configured migration budget and runs one anti-entropy
    /// round across the database replicas. That round replays hinted
    /// handoffs and compares the replicas' content digests; it moves rows
    /// only where they differ, so an hour without a partition pays for no
    /// metadata traffic however large the store has grown.
    pub fn tick(&self, now: SimTime) {
        self.infra.advance_clock(now);
        let stats = self.infra.statistics(DatacenterId::new(0));
        self.aggregator.flush(&stats, self.infra.next_timestamp());
        stats.gc_statistics(self.infra.current_period());
        if let Ok(report) = drain_repair_queue(
            &self.engines[0],
            &self.infra,
            &self.repair_placement,
            &self.repair_budget,
            now,
        ) {
            *self.last_repair_drain.lock() = report;
        }
        self.infra.database().anti_entropy();
    }

    /// Outcome of the repair-queue drain of the most recent [`Self::tick`].
    pub fn last_repair_drain(&self) -> RepairDrainReport {
        *self.last_repair_drain.lock()
    }

    /// Runs one periodic optimisation procedure (§III-A3), class-centric:
    /// one placement search per `(class, rule)` group of the accessed set,
    /// migrations batched under the configured budget. Pass `force = true`
    /// to re-evaluate every group even if its class trend did not change
    /// (used right after the provider catalog changes).
    pub fn run_optimization(&self, force: bool) -> OptimizationReport {
        self.optimizer.run(&self.engines, &self.infra, force)
    }

    /// Row keys whose beneficial migrations the budget pushed to a later
    /// cycle.
    pub fn deferred_migrations(&self) -> usize {
        self.optimizer.deferred_backlog()
    }

    /// Total amount billed by all providers so far.
    pub fn total_cost(&self) -> Money {
        self.infra.total_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_types::reliability::Reliability;
    use scalia_types::zone::ZoneSet;

    fn rule() -> StorageRule {
        StorageRule::new(
            "t",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        )
    }

    #[test]
    fn builder_defaults_produce_working_cluster() {
        let cluster = ScaliaCluster::builder().build();
        assert_eq!(cluster.engine_count(), 4);
        assert_eq!(cluster.caches().len(), 2);
        assert_eq!(cluster.infra().catalog().len(), 5);
    }

    #[test]
    fn requests_round_robin_across_engines_and_datacenters() {
        let cluster = ScaliaCluster::builder()
            .datacenters(2)
            .engines_per_datacenter(1)
            .build();
        let key = ObjectKey::new("c", "k");
        cluster
            .put(
                &key,
                vec![1u8; 10_000],
                "application/octet-stream",
                rule(),
                None,
            )
            .unwrap();
        // Consecutive reads hit different engines (different datacenters) and
        // both succeed.
        assert_eq!(cluster.get(&key).unwrap().len(), 10_000);
        assert_eq!(cluster.get(&key).unwrap().len(), 10_000);
    }

    #[test]
    fn tick_flushes_access_statistics() {
        let cluster = ScaliaCluster::builder().build();
        let key = ObjectKey::new("c", "hot");
        cluster
            .put(&key, vec![1u8; 5_000], "image/png", rule(), None)
            .unwrap();
        for _ in 0..5 {
            cluster.get(&key).unwrap();
        }
        // Every write of the hour reached both database replicas, so the
        // tick's anti-entropy round finds equal digests and touches no row.
        let nodes = cluster.infra().database().nodes();
        assert!(nodes.len() > 1);
        assert!(nodes.iter().all(|n| n.digest() == nodes[0].digest()));
        cluster.tick(SimTime::from_hours(1));
        let history = cluster.engine(0).history(&key);
        assert_eq!(history.len(), 1);
        assert_eq!(history.records()[0].reads, 5);
        assert_eq!(history.records()[0].writes, 1);
    }

    #[test]
    fn total_cost_grows_with_time() {
        let cluster = ScaliaCluster::builder().build();
        let key = ObjectKey::new("c", "big");
        cluster
            .put(
                &key,
                vec![0u8; 2_000_000],
                "application/x-tar",
                rule(),
                None,
            )
            .unwrap();
        let right_after = cluster.total_cost();
        cluster.tick(SimTime::from_hours(720));
        assert!(cluster.total_cost() > right_after);
    }

    #[test]
    fn same_class_writes_share_one_placement_search() {
        let cluster = ScaliaCluster::builder().build();
        // Twenty same-size PNGs: same rule, same usage class, same catalog
        // version ⇒ one search, nineteen cache hits.
        for i in 0..20 {
            let key = ObjectKey::new("photos", format!("img{i}.png"));
            cluster
                .put(&key, vec![7u8; 300_000], "image/png", rule(), None)
                .unwrap();
        }
        let stats = cluster.infra().placement_cache_stats();
        assert_eq!(stats.misses, 1, "one search for the whole class");
        assert_eq!(stats.hits, 19, "remaining writes must be served from cache");
    }

    #[test]
    fn catalog_change_invalidates_placement_cache() {
        let cluster = ScaliaCluster::builder().build();
        let put = |name: &str| {
            cluster
                .put(
                    &ObjectKey::new("c", name),
                    vec![1u8; 100_000],
                    "image/png",
                    rule(),
                    None,
                )
                .unwrap()
        };
        put("a.png");
        put("b.png");
        assert_eq!(cluster.infra().placement_cache_stats().misses, 1);
        // A new provider bumps the catalog version: the next same-class
        // write must re-run the search (and may adopt the new provider).
        cluster
            .infra()
            .register_provider(scalia_providers::catalog::cheapstor(
                scalia_types::ids::ProviderId::new(0),
            ));
        put("c.png");
        assert_eq!(
            cluster.infra().placement_cache_stats().misses,
            2,
            "catalog mutation must invalidate the cache"
        );
    }

    #[test]
    fn zero_cache_cluster_still_serves_reads() {
        let cluster = ScaliaCluster::builder()
            .cache_capacity(ByteSize::ZERO)
            .build();
        let key = ObjectKey::new("c", "k");
        cluster
            .put(&key, vec![2u8; 40_000], "image/gif", rule(), None)
            .unwrap();
        assert_eq!(cluster.get(&key).unwrap().len(), 40_000);
        let (hits, _misses) = cluster.caches()[0].stats();
        assert_eq!(hits, 0);
    }
}
