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
use crate::engine::{load_class, ClassIds, Engine};
use crate::infra::Infrastructure;
use crate::optimizer::{OptimizationReport, PeriodicOptimizer};
use crate::repair::{drain_repair_queue, RepairDrainReport};
use bytes::Bytes;
use parking_lot::Mutex;
use scalia_core::migration::MigrationBudget;
use scalia_core::placement::PlacementEngine;
use scalia_core::trend::TrendDetector;
use scalia_metastore::journal::StoreCheckpoint;
use scalia_metastore::logagg::{LogAgent, LogAggregator};
use scalia_providers::catalog::ProviderCatalog;
use scalia_types::error::Result;
use scalia_types::ids::{DatacenterId, EngineId};
use scalia_types::money::Money;
use scalia_types::object::{ObjectKey, ObjectMeta};
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::time::SimTime;
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
        let infra = Infrastructure::new(catalog, self.datacenters);

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

    /// Crash recovery: recovers the metastore from `checkpoint` and empties
    /// every datacenter's cache, soft state a crash loses. A commit that
    /// crashed before invalidating the caches, and that recovery completes,
    /// would otherwise leave a datacenter serving the old payload. Clearing
    /// a cache bumps its generation, so a populate in flight is refused.
    pub fn recover(&self, checkpoint: &StoreCheckpoint) {
        self.infra.database().recover(checkpoint);
        self.datacenters.iter().for_each(|dc| dc.cache.clear());
    }

    /// Advances simulated time: charges storage at every provider, retries
    /// postponed deletes, flushes the log-aggregation pipeline into the
    /// statistics tables (each object's class derived from its metadata
    /// record), garbage-collects the statistics footprint (class
    /// sample caps, rollup retention), drains the durability-repair queue
    /// under the configured migration budget and runs one anti-entropy
    /// round across the database replicas. That round replays hinted
    /// handoffs and compares the replicas' content digests; it moves rows
    /// only where they differ, so an hour without a partition pays for no
    /// metadata traffic however large the store has grown.
    pub fn tick(&self, now: SimTime) {
        self.infra.advance_clock(now);
        let local = DatacenterId::new(0);
        let stats = self.infra.statistics(local);
        let mut class_ids = ClassIds::default();
        self.aggregator
            .flush(stats, self.infra.next_timestamp(), |row_key| {
                load_class(&self.infra, local, row_key, &mut class_ids)
            });
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

    /// With the only metastore node down, a put is refused — and stays
    /// refused: no hint or journal record lands it once the node is back,
    /// not at the next tick's anti-entropy round and not at recovery. Nor
    /// does it leave a chunk at the providers: none right after the
    /// refusal, none once the node is back and the cluster ticked.
    fn assert_a_refused_put_never_lands(
        put: impl Fn(&ScaliaCluster, &ObjectKey) -> Result<ObjectMeta>,
    ) {
        let cluster = ScaliaCluster::builder().datacenters(1).build();
        let db = cluster.infra().database();
        let checkpoint = db.checkpoint();
        let key = ObjectKey::new("c", "refused.bin");
        let stored_chunks = || -> usize {
            let backends = cluster.infra().backends();
            backends.iter().map(|b| b.object_count()).sum()
        };
        db.nodes()[0].set_up(false);
        let err = put(&cluster, &key).unwrap_err();
        assert!(
            matches!(
                err,
                scalia_types::error::ScaliaError::DatacenterUnavailable(0)
            ),
            "{err}"
        );
        assert_eq!(db.pending_hints(), 0);
        assert_eq!(stored_chunks(), 0, "a refused put leaves its chunks");
        db.nodes()[0].set_up(true);
        cluster.tick(SimTime::from_hours(1));
        assert_eq!(
            stored_chunks(),
            0,
            "a refused put's chunks outlive the tick"
        );
        let absent = |cluster: &ScaliaCluster| {
            assert!(cluster.get(&key).is_err(), "a refused put is readable");
            assert!(cluster.list("c").is_empty(), "a refused put is listed");
        };
        absent(&cluster);
        db.recover(&checkpoint);
        absent(&cluster);
    }

    #[test]
    fn a_put_the_metastore_refused_never_lands() {
        assert_a_refused_put_never_lands(|cluster, key| {
            cluster.put(key, vec![5u8; 4096], "image/gif", rule(), None)
        });
    }

    #[test]
    fn a_multipart_put_the_metastore_refused_never_lands() {
        assert_a_refused_put_never_lands(|cluster, key| {
            let mut upload = cluster.engine(0).begin_put(key, "image/gif", rule(), None);
            upload.put_part(&[5u8; 4096])?;
            upload.complete_put()
        });
    }

    /// Across puts, deletes, ticks and the tick's statistics GC, the class
    /// mean a put prices with — memoised in the deployment's one
    /// statistics store per datacenter — equals what a fresh store scans,
    /// bit for bit, in every datacenter.
    #[test]
    fn the_class_mean_a_put_prices_with_equals_a_fresh_scan() {
        use scalia_core::classify::ObjectClass;
        use scalia_metastore::stats::StatisticsStore;
        let cluster = ScaliaCluster::builder().datacenters(2).build();
        let infra = cluster.infra();
        let class = ObjectClass::of("image/gif", ByteSize::from_bytes(4096));
        let bits = |mean: Option<scalia_types::usage::ResourceUsage>| {
            mean.map(|u| (u.storage_gb_hours.to_bits(), u.bw_in, u.bw_out, u.ops))
        };
        let check = |step: &str| {
            for dc in (0..2).map(DatacenterId::new) {
                let fresh = StatisticsStore::new(infra.database().clone(), dc);
                assert_eq!(
                    bits(infra.statistics(dc).mean_class_usage(class.id())),
                    bits(fresh.mean_class_usage(class.id())),
                    "{step}, {dc}"
                );
            }
        };
        // A delete samples the usage its statistics row recorded, so each
        // hour deletes half of what the previous ticks flushed.
        let mut live: Vec<ObjectKey> = Vec::new();
        for hour in 1..=4u64 {
            for i in 0..8 {
                let key = ObjectKey::new("c", format!("h{hour}-{i}"));
                cluster
                    .put(&key, vec![hour as u8; 4096], "image/gif", rule(), None)
                    .unwrap();
                cluster.get(&key).unwrap();
                live.push(key);
            }
            check(&format!("hour {hour}, puts"));
            cluster.tick(SimTime::from_hours(hour));
            check(&format!("hour {hour}, tick"));
            for key in std::mem::take(&mut live).into_iter().step_by(2) {
                cluster.delete(&key).unwrap();
                check(&format!("hour {hour}, delete {key}"));
            }
        }
        assert!(infra
            .statistics(DatacenterId::new(0))
            .mean_class_usage(class.id())
            .is_some());
    }

    /// A tick's statistics flush is one transaction — one `Begin` and one
    /// `Commit` whatever it writes — and an idle tick journals nothing.
    #[test]
    fn a_ticks_statistics_commit_as_one_transaction() {
        let cluster = ScaliaCluster::builder().build();
        let db = cluster.infra().database();
        for i in 0..3 {
            let key = ObjectKey::new("c", format!("k{i}"));
            let mime = ["image/png", "image/gif", "text/plain"][i];
            cluster
                .put(&key, vec![1u8; 10_000], mime, rule(), None)
                .unwrap();
            cluster.get(&key).unwrap();
        }
        let before = db.journal().len();
        cluster.tick(SimTime::from_hours(1));
        assert_eq!(
            db.journal().len() - before,
            2,
            "three objects, three classes"
        );
        cluster.tick(SimTime::from_hours(2));
        assert_eq!(
            db.journal().len() - before,
            2,
            "an idle tick journals nothing"
        );
    }

    /// A crash inside a tick's flush leaves all of its statistics or none:
    /// once the flush's batch is logged, recovery restores the object's
    /// period cell, its dirty mark and its class's rollup delta together;
    /// a crash before the batch is logged restores none of them.
    #[test]
    fn a_ticks_statistics_are_all_or_nothing_across_a_crash() {
        use scalia_core::classify::ObjectClass;
        use scalia_metastore::model::Timestamp;
        use scalia_providers::failure::FaultPlan;

        for (label, lands) in [("txn::torn", true), ("txn::before-log", false)] {
            let cluster = ScaliaCluster::builder().build();
            let infra = cluster.infra();
            let db = infra.database();
            let stats = infra.statistics(DatacenterId::new(0));
            // The only member of its class, so its rollup is its history.
            let key = ObjectKey::new("c", "alone.bin");
            let meta = cluster
                .put(&key, vec![3u8; 12_345], "application/x-alone", rule(), None)
                .unwrap();
            let class = ObjectClass::of(&meta.mime, meta.size);
            cluster.get(&key).unwrap();
            cluster.get(&key).unwrap();

            let checkpoint = db.checkpoint();
            let plan = Arc::new(FaultPlan::new());
            plan.arm(label);
            infra.set_fault_plan(Some(plan));
            cluster.tick(SimTime::from_hours(1));
            infra.set_fault_plan(None);
            db.recover(&checkpoint);

            let history = stats.history(&key.row_key(), 24);
            let rollup = stats.class_period_records(class.id(), 24);
            let marked = stats
                .objects_accessed_since_classified(Timestamp::new(3600, 0))
                .0
                .contains(&(key.row_key(), Some(class.id().to_string())));
            assert_eq!(!history.is_empty(), lands, "{label}: period cell");
            assert_eq!(marked, lands, "{label}: dirty mark");
            assert_eq!(!rollup.is_empty(), lands, "{label}: rollup delta");
            let from_rollup: Vec<_> = rollup
                .iter()
                .map(|(_, record)| (record.stats, record.objects))
                .collect();
            let from_history: Vec<_> = history.records().iter().map(|p| (*p, 1)).collect();
            assert_eq!(from_rollup, from_history, "{label}: singleton rollup");
        }
    }

    /// Which replica answers each read, pinned on two metastore nodes that
    /// diverged: node 0 holds what was written while node 1 was down, and
    /// node 1 what was written while node 0 was down (no anti-entropy ran,
    /// so the hints stay queued). The repair reads prefer datacenter 0, a
    /// class mean its store's own datacenter, and LIST merges every up
    /// node. With both nodes down the repair reads fail.
    #[test]
    fn each_read_is_served_by_the_replica_it_prefers() {
        use crate::repair::{enqueue, queue_entries, repair_provider};
        use scalia_metastore::stats::StatisticsStore;
        use scalia_types::error::ScaliaError;
        use scalia_types::usage::ResourceUsage;

        let cluster = ScaliaCluster::builder()
            .datacenters(2)
            .engines_per_datacenter(1)
            .build();
        let (infra, engine) = (cluster.infra(), cluster.engine(0));
        let db = infra.database();
        let put = |name: &str| {
            let key = ObjectKey::new("c", name);
            let data = Bytes::from(vec![1u8; 4096]);
            engine.put(&key, data, "image/gif", rule(), None).unwrap();
            key
        };
        let shared = put("shared");
        // Objects, queue entries and a class usage sample that reach only
        // the node that is up.
        let diverge = |down: usize, names: &[&str], ops: u64| {
            db.nodes()[down].set_up(false);
            for name in names {
                enqueue(infra, &put(name), "provider-outage").unwrap();
            }
            let usage = ResourceUsage::operations(ops);
            let sample = StatisticsStore::class_usage_op("pin", &usage, infra.next_timestamp());
            db.transaction(vec![sample]).unwrap();
            db.nodes()[down].set_up(true);
        };
        diverge(1, &["on-0-a", "on-0-b"], 10);
        diverge(0, &["on-1"], 70);
        let victim = engine.read_metadata(&shared).unwrap().striping.stripes[0].chunks[0].provider;

        let listed = || -> Vec<String> { engine.list("c").into_iter().map(|k| k.key).collect() };
        let means = || {
            [0, 1].map(|dc| {
                let stats = infra.statistics(DatacenterId::new(dc));
                stats.mean_class_usage("pin").map(|u| u.ops)
            })
        };
        let queued = || -> Result<Vec<String>> {
            let mut keys: Vec<String> = queue_entries(infra)?
                .into_iter()
                .map(|(_, entry)| entry.key.key)
                .collect();
            keys.sort_unstable();
            Ok(keys)
        };
        let affected = || {
            repair_provider(engine, infra, victim, &PlacementEngine::new())
                .map(|report| report.objects_affected)
        };

        assert_eq!(listed(), ["on-0-a", "on-0-b", "on-1", "shared"]);
        assert_eq!(means(), [Some(10), Some(70)]);

        db.nodes()[0].set_up(false);
        assert_eq!(queued().unwrap(), ["on-1"]);
        assert_eq!(affected().unwrap(), 2);
        assert_eq!(listed(), ["on-1", "shared"]);
        assert_eq!(means(), [Some(70), Some(70)]);

        db.nodes()[0].set_up(true);
        db.nodes()[1].set_up(false);
        assert_eq!(queued().unwrap(), ["on-0-a", "on-0-b"]);
        assert_eq!(affected().unwrap(), 3);
        assert_eq!(listed(), ["on-0-a", "on-0-b", "shared"]);
        assert_eq!(means(), [Some(10), Some(10)]);

        db.nodes()[0].set_up(false);
        let unavailable = |err| matches!(err, ScaliaError::DatacenterUnavailable(_));
        assert!(queued().is_err_and(unavailable));
        assert!(affected().is_err_and(unavailable));
        assert!(listed().is_empty());
        assert_eq!(means(), [None, None]);
    }

    /// An overwrite that crashes after its commit is logged never reaches
    /// the cache invalidation, and recovery then commits it. Recovering the
    /// cluster empties every datacenter's cache, so the datacenter that had
    /// cached the old payload reads the recovered version too.
    #[test]
    fn after_a_crashed_overwrite_every_datacenter_reads_the_recovered_version() {
        use scalia_providers::failure::FaultPlan;

        let cluster = ScaliaCluster::builder()
            .datacenters(2)
            .engines_per_datacenter(1)
            .build();
        let infra = cluster.infra();
        let key = ObjectKey::new("c", "k");
        let put = |byte: u8| {
            let data = Bytes::from(vec![byte; 4096]);
            cluster.engine(0).put(&key, data, "image/gif", rule(), None)
        };
        put(1).unwrap();
        assert_eq!(cluster.engine(1).get(&key).unwrap()[0], 1);

        let checkpoint = infra.database().checkpoint();
        let plan = Arc::new(FaultPlan::new());
        plan.arm("txn::applied");
        infra.set_fault_plan(Some(plan));
        let err = put(2).unwrap_err();
        assert!(
            matches!(&err, scalia_types::error::ScaliaError::Crashed(label) if label == "txn::applied"),
            "{err}"
        );
        infra.set_fault_plan(None);
        cluster.recover(&checkpoint);

        for engine in cluster.engines() {
            let read = engine.get(&key).unwrap();
            let bytes = (read.len(), read.iter().all(|&b| b == 2));
            assert_eq!(bytes, (4096, true), "{}", engine.datacenter());
        }
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
