//! The one adapter between the benchmark and the program under test.
//!
//! Workloads and the ledger call the program only through this file, so a
//! refactor that changes a public signature is absorbed here — by a
//! `benchmark` issue that edits this file first — and nowhere else. It
//! prefers the `ScaliaCluster` facade and the highest-level function each
//! layer has. It does not call what ROADMAP item 3 will delete or merge
//! (`chunk_io::{write_chunks*, upload_encoded*, fetch_and_reassemble,
//! fetch_stripe}`, `Engine::fetch_and_reassemble`,
//! `Infrastructure::take_last_io_latency`, `run_optimization_per_object`,
//! `core::{reference, combinations, heuristic}`,
//! `exhaustive_search_without_dominance`) and never reads
//! `StripingMeta.stripes`: stripe layout goes through `stripe_count` and
//! `stripe_view`.

use scalia::core::cost::PredictedUsage;
use scalia::core::placement::PlacementEngine;
use scalia::engine::cache::Cache;
use scalia::engine::cluster::ScaliaCluster;
use scalia::engine::engine::Engine;
use scalia::engine::gc::sweep_orphan_chunks;
use scalia::engine::repair::repair_provider;
use scalia::engine::streaming::MultipartUpload;
use scalia::erasure::codec::{decode_object, decode_object_range, encode_object};
use scalia::metastore::journal::JournalOp;
use scalia::metastore::logagg::{AccessKind, AccessLogRecord};
use scalia::providers::backend::{SimulatedStore, StoreOp};
use scalia::providers::catalog::{cheapstor, ProviderCatalog};
use scalia::sim::experiment::run_cost_comparison;
use scalia::sim::scenarios;
use scalia::sim::traffic::{tenant_rule, traffic_cluster};
use scalia::types::md5::md5_hex;
use scalia::types::reliability::Reliability;
use scalia::types::zone::ZoneSet;
use std::sync::Arc;

pub use bytes::Bytes;
pub use scalia::engine::optimizer::OptimizationReport;
pub use scalia::erasure::codec::Chunk;
pub use scalia::frontend::{
    FrontendConfig, FrontendReport, FrontendService, OpKind, OpStatus, S3Op, SubmitOutcome,
    TenantId,
};
pub use scalia::providers::descriptor::ProviderDescriptor;
pub use scalia::sim::traffic::{
    fill_byte, generate_trace, object_key, ArrivalPattern, OpMix, TenantSpec, TraceOp,
    TrafficEvent, TrafficSpec,
};
#[cfg(test)]
pub use scalia::sim::traffic::{replay_trace, trace_digest};
pub use scalia::types::erasure::ErasureParams;
pub use scalia::types::error::ScaliaError;
pub use scalia::types::ids::ProviderId;
pub use scalia::types::object::{ObjectKey, ObjectMeta};
pub use scalia::types::rules::StorageRule;
pub use scalia::types::size::ByteSize;
pub use serde_json::Value;

pub type Result<T> = std::result::Result<T, ScaliaError>;

/// MIME type of every object the closed-loop workloads write.
pub const OCTET_STREAM: &str = "application/octet-stream";

/// The rule the closed-loop workloads write under: five nines durability,
/// four nines availability, any zone, at least two providers. On the paper
/// catalog it places 4 KiB objects 3-of-4 and larger ones 4-of-5.
pub fn bench_rule() -> StorageRule {
    StorageRule::new(
        "bench",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// The rule the traffic harness's tenants write under (they differ by name
/// only).
pub fn traffic_rule() -> StorageRule {
    tenant_rule("web")
}

/// Worker count of the program's own rayon pool (left at its default).
pub fn pool_workers() -> usize {
    rayon::current_num_threads()
}

/// The program's public counters, read from outside. Metrics are deltas of
/// two snapshots taken around a timed phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub chunk_puts: u64,
    pub chunk_gets: u64,
    pub chunk_deletes: u64,
    pub stored_bytes: u64,
    pub billed_usd: f64,
    pub journal_records: u64,
    pub rows: u64,
    pub pending_hints: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub placement_hits: u64,
    pub placement_misses: u64,
    pub pending_deletes: u64,
}

/// A running deployment plus the handles the driver needs around it.
pub struct Sut {
    cluster: Arc<ScaliaCluster>,
    caches: Vec<Arc<Cache>>,
}

impl Sut {
    fn wrap(cluster: Arc<ScaliaCluster>) -> Sut {
        let caches = cluster.caches();
        Sut { cluster, caches }
    }

    /// The default deployment: 2 datacenters × 2 engines over the paper
    /// catalog, with the given per-datacenter cache capacity.
    pub fn default_cluster(cache_capacity: ByteSize) -> Sut {
        Sut::wrap(Arc::new(
            ScaliaCluster::builder()
                .catalog(ProviderCatalog::paper_catalog())
                .cache_capacity(cache_capacity)
                .build(),
        ))
    }

    /// The traffic harness's deployment (1 datacenter × 2 engines, latency
    /// catalog) and the provider ids outage events index into.
    pub fn traffic_cluster(spec: &TrafficSpec) -> (Sut, Vec<ProviderId>) {
        let (cluster, providers) = traffic_cluster(spec);
        (Sut::wrap(cluster), providers)
    }

    pub fn engine_count(&self) -> usize {
        self.cluster.engine_count()
    }

    fn engine(&self, index: usize) -> &Arc<Engine> {
        self.cluster.engine(index)
    }

    // -- client ops through the facade (round-robin routed) ---------------

    pub fn put(&self, key: &ObjectKey, data: Bytes, mime: &str) -> Result<ObjectMeta> {
        self.cluster.put(key, data, mime, bench_rule(), None)
    }

    pub fn get(&self, key: &ObjectKey) -> Result<Bytes> {
        self.cluster.get(key)
    }

    pub fn delete(&self, key: &ObjectKey) -> Result<()> {
        self.cluster.delete(key)
    }

    pub fn list(&self, container: &str) -> Vec<ObjectKey> {
        self.cluster.list(container)
    }

    // -- client ops on a chosen engine (the facade has no range read or
    //    multipart, and a warm read must land on the datacenter it warmed) --

    pub fn get_on(&self, engine: usize, key: &ObjectKey) -> Result<Bytes> {
        self.engine(engine).get(key)
    }

    pub fn get_range_on(
        &self,
        engine: usize,
        key: &ObjectKey,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        self.engine(engine).get_range(key, offset, len)
    }

    pub fn delete_on(&self, engine: usize, key: &ObjectKey) -> Result<()> {
        self.engine(engine).delete(key)
    }

    pub fn begin_put_on(&self, engine: usize, key: &ObjectKey) -> MultipartUpload<&Engine> {
        self.engine(engine)
            .begin_put(key, OCTET_STREAM, bench_rule(), None)
    }

    pub fn read_metadata(&self, key: &ObjectKey) -> Result<ObjectMeta> {
        self.engine(0).read_metadata(key)
    }

    // -- the operator's side ------------------------------------------------

    /// `ScaliaCluster::tick` at a whole hour.
    pub fn tick_hour(&self, hour: u64) {
        self.cluster
            .tick(scalia::types::time::SimTime::from_hours(hour));
    }

    /// `ScaliaCluster::tick` at a whole second.
    pub fn tick_secs(&self, secs: u64) {
        self.cluster
            .tick(scalia::types::time::SimTime::from_secs(secs));
    }

    pub fn run_optimization(&self, force: bool) -> OptimizationReport {
        self.cluster.run_optimization(force)
    }

    pub fn repaired_by_last_tick(&self) -> u64 {
        self.cluster.last_repair_drain().repaired as u64
    }

    pub fn deferred_migrations(&self) -> u64 {
        self.cluster.deferred_migrations() as u64
    }

    /// Registers the paper's cheaper provider (§IV-D).
    pub fn register_cheapstor(&self) -> ProviderId {
        self.cluster
            .infra()
            .register_provider(cheapstor(ProviderId::new(0)))
    }

    pub fn set_provider_down(&self, provider: ProviderId, down: bool) {
        self.cluster.infra().set_provider_down(provider, down);
    }

    /// Active repair of everything holding a chunk on `provider`; returns
    /// `(objects repaired, objects failed)`.
    pub fn repair_provider(&self, provider: ProviderId) -> Result<(u64, u64)> {
        let report = repair_provider(
            self.engine(0),
            self.cluster.infra(),
            provider,
            &PlacementEngine::new(),
        )?;
        Ok((report.objects_repaired as u64, report.objects_failed as u64))
    }

    /// One direct anti-entropy pass — `tick`'s only separable stage.
    pub fn anti_entropy(&self) {
        self.cluster.infra().database().anti_entropy();
    }

    /// Injects `reads` whole-object read records for the current period into
    /// one engine's log agent, as that engine's read path would.
    pub fn inject_reads(&self, engine: usize, key: &ObjectKey, size: u64, reads: u32) {
        let engine = self.engine(engine);
        let period = self.cluster.infra().current_period();
        let row_key = key.row_key();
        for _ in 0..reads {
            engine.log_agent().log(AccessLogRecord {
                engine: engine.id(),
                object_row_key: row_key.clone(),
                period,
                kind: AccessKind::Read,
                bytes: ByteSize::from_bytes(size),
                object_size: ByteSize::from_bytes(size),
            });
        }
    }

    /// Orphan chunks found (and deleted) by the GC sweep; the cluster must
    /// be quiescent with every provider up.
    pub fn sweep_orphans(&self) -> u64 {
        sweep_orphan_chunks(self.cluster.infra()).orphans_deleted as u64
    }

    pub fn all_providers(&self) -> Vec<ProviderDescriptor> {
        self.cluster.infra().catalog().all()
    }

    pub fn stripe_size(&self) -> usize {
        self.cluster.infra().stripe_size_bytes() as usize
    }

    // -- counters -----------------------------------------------------------

    pub fn counters(&self) -> Counters {
        let infra = self.cluster.infra();
        let mut c = Counters::default();
        for backend in infra.backends() {
            c.chunk_puts += backend.latency_snapshot(StoreOp::Put).count;
            c.chunk_gets += backend.latency_snapshot(StoreOp::Get).count;
            c.chunk_deletes += backend.latency_snapshot(StoreOp::Delete).count;
            c.stored_bytes += backend.stored_bytes().bytes();
        }
        c.billed_usd = infra.total_cost().dollars();
        let database = infra.database();
        c.journal_records = database.journal().len() as u64;
        c.rows = database.nodes().iter().map(|n| n.row_count() as u64).sum();
        c.pending_hints = database.pending_hints() as u64;
        (c.cache_hits, c.cache_misses) = self.cache_stats();
        let placement = infra.placement_cache_stats();
        c.placement_hits = placement.hits;
        c.placement_misses = placement.misses;
        c.pending_deletes = infra.pending_delete_count() as u64;
        c
    }

    /// `(hits, misses)` summed over the datacenter caches — cheap enough to
    /// read around a single op.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.caches.iter().fold((0, 0), |(h, m), cache| {
            let (hits, misses) = cache.stats();
            (h + hits, m + misses)
        })
    }

    // -- the front end --------------------------------------------------------

    /// A front end over this deployment with the spec's tenants registered.
    pub fn frontend(&self, spec: &TrafficSpec) -> (FrontendService, Vec<TenantId>) {
        let mut frontend = FrontendService::new(Arc::clone(&self.cluster), spec.frontend.clone());
        let tenants = spec
            .tenants
            .iter()
            .map(|t| frontend.register_tenant(&t.name, t.weight, t.sla_us, tenant_rule(&t.name)))
            .collect();
        (frontend, tenants)
    }
}

/// Scalia's % over the ideal cost on the three paper scenarios the policy
/// simulator shares `core` with: `(gallery, slashdot, adding_provider)`.
pub fn cost_over_ideal_pct() -> (f64, f64, f64) {
    let catalog = ProviderCatalog::paper_catalog().all();
    let over = |workload| run_cost_comparison(&workload, &catalog).scalia_over_cost();
    (
        over(scenarios::gallery()),
        over(scenarios::slashdot()),
        over(scenarios::adding_provider()),
    )
}

/// A second deployment built like the measured one, whose layers the ledger
/// drives one at a time through their public entry points. Nothing here
/// touches the measured cluster, so its counters stay exact.
pub struct Shadow {
    cluster: Arc<ScaliaCluster>,
    placement: PlacementEngine,
    /// A cache large enough to hold any payload, for timing a hit.
    hit_cache: Cache,
}

impl Shadow {
    pub fn like_default(cache_capacity: ByteSize) -> Shadow {
        Shadow::of(Sut::default_cluster(cache_capacity).cluster)
    }

    pub fn like_traffic(spec: &TrafficSpec) -> Shadow {
        Shadow::of(Sut::traffic_cluster(spec).0.cluster)
    }

    fn of(cluster: Arc<ScaliaCluster>) -> Shadow {
        Shadow {
            cluster,
            placement: PlacementEngine::new(),
            hit_cache: Cache::new(ByteSize::from_mb(64)),
        }
    }

    /// Mirrors [`Sut::register_cheapstor`], so replays of ops placed on the
    /// new provider find its store.
    pub fn register_cheapstor(&self) {
        self.cluster
            .infra()
            .register_provider(cheapstor(ProviderId::new(0)));
    }

    fn store(&self, provider: ProviderId) -> Arc<SimulatedStore> {
        self.cluster
            .infra()
            .backend(provider)
            .expect("the shadow catalog equals the measured one")
    }

    /// `types`: one MD5 pass.
    pub fn md5(&self, data: &[u8]) -> String {
        md5_hex(data)
    }

    /// `engine::placement_cache`: the write path's placement lookup.
    pub fn placement_cached(&self, rule: &StorageRule, size: u64) -> Result<()> {
        let bytes = ByteSize::from_bytes(size);
        let class = scalia::core::classify::ObjectClass::of(OCTET_STREAM, bytes);
        self.cluster
            .infra()
            .best_placement_cached(&self.placement, rule, class.id(), &default_usage(bytes))
            .map(|_| ())
    }

    /// `core`: one uncached placement search over the current catalog.
    pub fn placement_search(&self, rule: &StorageRule, size: u64) -> Result<()> {
        let providers = self.cluster.infra().catalog().available();
        self.placement
            .best_placement(rule, &default_usage(ByteSize::from_bytes(size)), &providers)
            .map(|_| ())
    }

    /// `erasure`: encode one stripe.
    pub fn encode(&self, data: &[u8], params: ErasureParams) -> Result<Vec<Chunk>> {
        encode_object(data, params).map(|encoded| encoded.chunks)
    }

    /// `erasure`: checksum the fetched parts into chunks and decode one
    /// stripe from them, as the read path does between fetch and result.
    pub fn decode(
        &self,
        parts: Vec<(u32, Bytes)>,
        params: ErasureParams,
        len: usize,
    ) -> Result<Bytes> {
        decode_object(&chunks_of(parts), params, len)
    }

    /// `erasure`: the same for a byte range of one stripe.
    pub fn decode_range(
        &self,
        parts: Vec<(u32, Bytes)>,
        params: ErasureParams,
        len: usize,
        offset: usize,
        range_len: usize,
    ) -> Result<Bytes> {
        decode_object_range(&chunks_of(parts), params, len, offset, range_len)
    }

    /// `providers`: one chunk upload.
    pub fn chunk_put(&self, provider: ProviderId, key: &str, data: Bytes) -> Result<()> {
        self.store(provider).timed_put(key, data).0
    }

    /// `providers`: one chunk download.
    pub fn chunk_get(&self, provider: ProviderId, key: &str) -> Result<Bytes> {
        self.store(provider).timed_get(key).0
    }

    /// Drops a replayed chunk so the shadow stores do not grow (untimed).
    pub fn chunk_drop(&self, provider: ProviderId, key: &str) {
        let _ = self.store(provider).timed_delete(key);
    }

    /// `serde_json` shim: metadata to a `Value` tree.
    pub fn meta_to_value(&self, meta: &ObjectMeta) -> Value {
        serde_json::to_value(meta).expect("the shim's to_value cannot fail")
    }

    /// `serde_json` shim: a `Value` tree back to metadata.
    pub fn meta_from_value(&self, value: Value) -> ObjectMeta {
        serde_json::from_value(value).expect("round trip of a value to_value produced")
    }

    /// `metastore`: one journaled transaction shaped like a put commit —
    /// metadata, optimiser digest, container index, debt clearance and the
    /// two MVCC prunes.
    pub fn commit_transaction(&self, meta: &ObjectMeta, value: Value) -> Result<usize> {
        let row_key = meta.row_key();
        let timestamp = self.cluster.infra().next_timestamp();
        let put = |row_key: String, column: &str, value: Value| JournalOp::Put {
            row_key,
            column: column.to_string(),
            value,
            timestamp,
        };
        let prune = |column: &str| JournalOp::Prune {
            row_key: row_key.clone(),
            column: column.to_string(),
        };
        let digest = format!(
            "{}|{}|{}",
            meta.rule.name,
            meta.size.bytes(),
            meta.striping.n()
        );
        let ops = vec![
            put(row_key.clone(), "meta", value),
            put(row_key.clone(), "opt", Value::String(digest)),
            put(
                format!("container:{}", meta.key.container),
                &meta.key.key,
                Value::Bool(true),
            ),
            JournalOp::DeleteColumn {
                row_key: row_key.clone(),
                column: "debt".to_string(),
            },
            prune("meta"),
            prune("opt"),
        ];
        self.cluster
            .infra()
            .database()
            .transaction(ops)
            .map(|pruned| pruned.len())
    }

    /// `metastore`: the read path's metadata lookup.
    pub fn get_latest_meta(&self, row_key: &str) -> Option<Value> {
        self.cluster
            .infra()
            .database()
            .get_latest(scalia::types::ids::DatacenterId::new(0), row_key, "meta")
            .map(|cell| cell.value)
    }

    /// `engine::cache`: a lookup in the shadow deployment's own cache (a miss
    /// when its capacity is zero, as on the measured cluster).
    pub fn cache_get(&self, row_key: &str) -> Option<Bytes> {
        self.cluster.caches()[0].get(row_key)
    }

    /// `engine::cache`: populate after a cold read.
    pub fn cache_put(&self, row_key: &str, data: Bytes) {
        self.cluster.caches()[0].put(row_key, data);
    }

    /// Drops a key from the shadow deployment's cache (untimed).
    pub fn cache_drop(&self, row_key: &str) {
        self.cluster.caches()[0].invalidate(row_key);
    }

    /// `engine::cache`: stages a payload in a cache that holds any payload,
    /// so the next [`Shadow::hit_cache_get`] is a guaranteed hit (untimed).
    pub fn hit_cache_stage(&self, row_key: &str, data: Bytes) {
        self.hit_cache.put(row_key, data);
    }

    /// `engine::cache`: a lookup that hits.
    pub fn hit_cache_get(&self, row_key: &str) -> Option<Bytes> {
        self.hit_cache.get(row_key)
    }

    pub fn hit_cache_drop(&self, row_key: &str) {
        self.hit_cache.invalidate(row_key);
    }
}

fn chunks_of(parts: Vec<(u32, Bytes)>) -> Vec<Chunk> {
    parts
        .into_iter()
        .map(|(index, data)| Chunk::new(index, data))
        .collect()
}

/// The usage the write path predicts for an object whose class has no
/// statistics yet: storage only, over the default 24-period decision window.
fn default_usage(size: ByteSize) -> PredictedUsage {
    PredictedUsage::storage_only(size, 24.0)
}
