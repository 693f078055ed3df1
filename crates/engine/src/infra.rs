//! Shared infrastructure of a Scalia deployment.
//!
//! [`Infrastructure`] bundles everything every engine in every datacenter
//! needs a handle to: the provider catalog and the per-provider simulated
//! backends, the replicated metadata database and the statistics store, the
//! simulation clock, the queue of deletes postponed because a provider was
//! unreachable (§III-D3), the provider failure detector, the
//! deployment-wide per-operation latency histograms behind
//! [`Infrastructure::io_latency_snapshot`], and the provider
//! [`LatencyObservatory`].
//!
//! # Failure detector
//!
//! §III-D3 has one rule for a provider that fails: "the provider is marked
//! as unavailable". The chunk-I/O layer reports every failure here. A hard
//! unreachability error marks the provider unavailable in the catalog at
//! once; [`FAILURE_DETECTOR_THRESHOLD`] consecutive transport errors do the
//! same; a data-level answer (a missing chunk, a full resource, a rejected
//! signature) never counts. Every clock advance re-probes the providers the
//! detector disabled and returns those whose backend answers again.
//!
//! # One latency view per tick
//!
//! Chunk I/O records every successful round-trip into the observatory
//! ([`Infrastructure::with_observatory`]), and every provider a read ranks out
//! of its race. Between two clock advances those windows are written to
//! and never read. [`Infrastructure::advance_clock`] rotates them and
//! publishes one view. Read and upload hedge deadlines read that view. The
//! read p95s also go into the catalog, where placement and read ranking
//! find them on the descriptor; the catalog adds a 25 % hysteresis so that
//! jitter does not invalidate the placement cache, so a descriptor may lag
//! the view by up to that much. An operation's deadlines and ranking are
//! therefore a function of the last tick alone, never of which other
//! operations recorded before it.

use crate::placement_cache::{PlacementCache, PlacementCacheStats};
use parking_lot::{Mutex, RwLock};
use scalia_core::cost::PredictedUsage;
use scalia_core::placement::{PlacementDecision, PlacementEngine};
use scalia_metastore::model::Timestamp;
use scalia_metastore::replication::{CrashHook, ReplicatedStore};
use scalia_metastore::stats::StatisticsStore;
use scalia_providers::backend::{OpLatencies, SimulatedStore, StoreOp};
use scalia_providers::catalog::ProviderCatalog;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_providers::failure::FaultPlan;
use scalia_providers::observatory::LatencyObservatory;
use scalia_types::error::ScaliaError;
use scalia_types::ids::{DatacenterId, ProviderId};
use scalia_types::latency::LatencySnapshot;
use scalia_types::money::Money;
use scalia_types::object::ObjectVersionId;
use scalia_types::time::{Duration, SimTime};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of lock shards for per-row commit locks. Concurrent operations
/// on different objects almost never contend; operations on the same
/// object serialise on its shard.
const LOCK_SHARDS: usize = 64;

/// Consecutive chunk-I/O failures after which the failure detector marks a
/// provider unavailable in the catalog (a hard "connection refused" —
/// [`ScaliaError::ProviderUnavailable`] — trips it immediately, §III-D3).
pub const FAILURE_DETECTOR_THRESHOLD: u32 = 3;

/// First retry backoff of a failed pending delete or repair (doubles per
/// failure).
const RETRY_BACKOFF_BASE_SECS: u64 = 60;

/// Backoff ceiling of a failed pending delete or repair.
const RETRY_BACKOFF_CAP_SECS: u64 = 3_600;

/// Spread of the deterministic per-item jitter added to the retry backoff.
const RETRY_BACKOFF_JITTER_SECS: u64 = 30;

fn shard_of(key: &str) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % LOCK_SHARDS
}

/// A delete that could not be executed because the provider was down; it is
/// retried when the provider recovers, with exponential backoff and
/// deterministic per-item jitter after each *attempted-and-failed* retry
/// (a retry skipped because the provider is still unreachable costs no
/// attempt and adds no backoff).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PendingDelete {
    /// Provider holding the stale chunk.
    pub provider: ProviderId,
    /// Chunk key to delete.
    pub chunk_key: String,
    /// Retries attempted so far (reachable provider, delete still failed).
    pub attempts: u32,
    /// Simulated time (seconds) before which the item is not retried.
    pub not_before_secs: u64,
}

/// Backoff applied after retry number `attempts` (1-based) of a failed
/// pending delete (keyed by its chunk key) or repair (keyed by its queue
/// row): base 60 s doubling per failure, capped at one hour, plus a
/// deterministic jitter derived from the key and attempt count so a burst
/// of retries queued by one outage doesn't thunder back in lockstep.
pub(crate) fn retry_backoff_secs(key: &str, attempts: u32) -> u64 {
    let exponent = attempts.saturating_sub(1).min(6);
    let base = RETRY_BACKOFF_BASE_SECS << exponent;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    attempts.hash(&mut hasher);
    let jitter = hasher.finish() % RETRY_BACKOFF_JITTER_SECS;
    (base + jitter).min(RETRY_BACKOFF_CAP_SECS)
}

/// Shared state of one Scalia deployment.
pub struct Infrastructure {
    catalog: Arc<ProviderCatalog>,
    backends: RwLock<HashMap<ProviderId, Arc<SimulatedStore>>>,
    database: Arc<ReplicatedStore>,
    /// One statistics store per datacenter, reading from its own node by
    /// preference; each keeps its memo of class means across calls.
    statistics: Vec<StatisticsStore>,
    clock_secs: AtomicU64,
    write_seq: AtomicU64,
    pending_deletes: Mutex<Vec<PendingDelete>>,
    /// Cumulative count of pending-delete retry *attempts* (provider
    /// reachable, delete issued) — successful or not.
    delete_retries: AtomicU64,
    row_commit_locks: Vec<Mutex<()>>,
    placement_cache: PlacementCache,
    /// Failure detector: consecutive chunk-I/O failures per provider.
    failure_counts: Mutex<HashMap<ProviderId, u32>>,
    /// Deterministic chaos plan (crash points + transport storms); when
    /// installed, engine-step and metastore crash points consult it.
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    /// Providers the detector (not an operator) marked unavailable; these
    /// are re-probed — and re-enabled when their backend responds — on
    /// every clock advance.
    detector_disabled: Mutex<HashSet<ProviderId>>,
    /// Deployment-wide per-operation latency histograms (virtual µs),
    /// recorded by the chunk-I/O layer per object-level put/get/delete.
    io_latencies: Mutex<OpLatencies>,
    /// Virtual makespan of the most recent recorded operation of each
    /// class, for [`Infrastructure::take_last_io_latency`] (indexed
    /// put / get / delete). Meaningful to callers that serialise their
    /// engine calls (the front-end's virtual-time executor does).
    last_io_latencies: Mutex<[Option<u64>; 3]>,
    /// Windows of *successful* chunk round-trips (virtual µs) per provider,
    /// and the view the last clock advance published from them (see "One
    /// latency view per tick" in the module docs).
    latency: Mutex<LatencyObservatory<ProviderId>>,
    /// Stripe size of the write pipeline, in bytes.
    stripe_size_bytes: AtomicU64,
    /// Per-deployment object-version sequence. Versions are minted from
    /// *this* counter, not the process-global one, so the storage keys a
    /// deployment derives (and therefore its key-salted virtual latencies)
    /// depend only on its own operation history — the property that makes
    /// a seeded traffic replay bit-reproducible no matter what other
    /// clusters ran earlier in the same process.
    version_counter: AtomicU64,
}

/// The sampling period of the statistics pipeline (§III-C2): one hour, as
/// in the paper. Access logs aggregate per period, and decision periods are
/// whole numbers of it.
pub const SAMPLING_PERIOD: Duration = Duration::HOUR;

/// Default stripe size — the one size policy of the write path: an object
/// up to this size is one erasure group, a larger one a map of them.
/// 512 KiB keeps the pipeline's high-water buffering (one stripe encoding +
/// one stripe of chunks in flight) comfortably under a few MiB at any
/// realistic `n/m`.
pub(crate) const DEFAULT_STRIPE_SIZE_BYTES: u64 = 512 * 1024;

impl Infrastructure {
    /// Creates the infrastructure for a deployment spanning `datacenters`
    /// datacenters, with backends for every provider already in the catalog.
    pub fn new(catalog: Arc<ProviderCatalog>, datacenters: u32) -> Arc<Self> {
        let database = Arc::new(ReplicatedStore::with_datacenters(datacenters.max(1)));
        let statistics = (0..datacenters.max(1))
            .map(|dc| StatisticsStore::new(database.clone(), DatacenterId::new(dc)))
            .collect();
        let infra = Arc::new(Infrastructure {
            catalog: catalog.clone(),
            backends: RwLock::new(HashMap::new()),
            database,
            statistics,
            clock_secs: AtomicU64::new(0),
            write_seq: AtomicU64::new(0),
            pending_deletes: Mutex::new(Vec::new()),
            delete_retries: AtomicU64::new(0),
            row_commit_locks: (0..LOCK_SHARDS).map(|_| Mutex::new(())).collect(),
            placement_cache: PlacementCache::new(),
            failure_counts: Mutex::new(HashMap::new()),
            fault_plan: Mutex::new(None),
            detector_disabled: Mutex::new(HashSet::new()),
            io_latencies: Mutex::new(OpLatencies::default()),
            last_io_latencies: Mutex::new([None; 3]),
            latency: Mutex::new(LatencyObservatory::new()),
            stripe_size_bytes: AtomicU64::new(DEFAULT_STRIPE_SIZE_BYTES),
            version_counter: AtomicU64::new(1),
        });
        for descriptor in catalog.all() {
            infra.ensure_backend(&descriptor);
        }
        infra
    }

    /// The provider catalog.
    pub fn catalog(&self) -> &Arc<ProviderCatalog> {
        &self.catalog
    }

    /// The replicated metadata database.
    pub fn database(&self) -> &Arc<ReplicatedStore> {
        &self.database
    }

    /// Runs Algorithm 1 through the deployment-wide placement decision
    /// cache: identical searches (same rule, same object class, same usage
    /// bucket, same catalog version) are answered from the memo; every
    /// catalog mutation bumps the version and implicitly invalidates it.
    /// All placement call sites (write path, periodic optimiser, active
    /// repair) go through here.
    pub fn best_placement_cached(
        &self,
        engine: &PlacementEngine,
        rule: &scalia_types::rules::StorageRule,
        class_id: &str,
        usage: &PredictedUsage,
    ) -> Result<PlacementDecision, scalia_types::error::ScaliaError> {
        // Read the version BEFORE the provider snapshot: if a catalog
        // mutation races in between, the decision computed from the stale
        // snapshot is cached under the already-invalidated old version
        // instead of poisoning the new one.
        let version = self.catalog.version();
        self.placement_cache.best_placement(
            engine,
            rule,
            class_id,
            usage,
            || self.catalog.available(),
            version,
        )
    }

    /// Hit/miss counters of the placement decision cache.
    pub fn placement_cache_stats(&self) -> PlacementCacheStats {
        self.placement_cache.stats()
    }

    /// The statistics store of the given datacenter. A datacenter the
    /// deployment does not have reads as datacenter 0's store does: from
    /// the first reachable node.
    pub fn statistics(&self, datacenter: DatacenterId) -> &StatisticsStore {
        self.statistics
            .get(datacenter.0 as usize)
            .unwrap_or(&self.statistics[0])
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.clock_secs.load(Ordering::SeqCst))
    }

    /// The index of the current sampling period.
    pub fn current_period(&self) -> u64 {
        self.now().period_index(SAMPLING_PERIOD)
    }

    /// Advances the simulated clock, ticking every provider backend so they
    /// charge storage for the elapsed time, retrying postponed deletes, and
    /// publishing the latency view the next tick's operations read.
    pub fn advance_clock(&self, now: SimTime) {
        self.clock_secs.store(now.secs(), Ordering::SeqCst);
        for backend in self.backends.read().values() {
            backend.tick(now);
        }
        self.retry_pending_deletes();
        self.reprobe_failed_providers();
        self.publish_latency_view();
    }

    /// A fresh, strictly monotonic metadata timestamp for the current time.
    pub fn next_timestamp(&self) -> Timestamp {
        Timestamp::new(
            self.clock_secs.load(Ordering::SeqCst),
            self.write_seq.fetch_add(1, Ordering::SeqCst),
        )
    }

    /// Registers a provider (catalog + backend). Returns its assigned id.
    pub fn register_provider(&self, descriptor: ProviderDescriptor) -> ProviderId {
        let id = self.catalog.register(descriptor);
        let registered = self.catalog.get(id).expect("just registered");
        self.ensure_backend(&registered);
        id
    }

    fn ensure_backend(&self, descriptor: &ProviderDescriptor) {
        let mut backends = self.backends.write();
        backends
            .entry(descriptor.id)
            .or_insert_with(|| SimulatedStore::shared(descriptor.clone()));
    }

    /// The backend of a provider, if it exists.
    pub fn backend(&self, provider: ProviderId) -> Option<Arc<SimulatedStore>> {
        self.backends.read().get(&provider).cloned()
    }

    /// All provider backends.
    pub fn backends(&self) -> Vec<Arc<SimulatedStore>> {
        self.backends.read().values().cloned().collect()
    }

    /// Takes a provider down or up, both in the catalog (so the placement
    /// engine avoids it) and at its backend (so requests fail).
    pub fn set_provider_down(&self, provider: ProviderId, down: bool) {
        if down {
            self.catalog.mark_unavailable(provider);
        } else {
            self.catalog.mark_available(provider);
        }
        if let Some(backend) = self.backend(provider) {
            backend.set_down(down);
        }
    }

    /// Total money accrued across all provider backends — what the data
    /// owner would actually be billed.
    pub fn total_cost(&self) -> Money {
        self.backends
            .read()
            .values()
            .map(|b| b.accrued_cost())
            .sum()
    }

    // ------------------------------------------------------------------
    // Failure detector (§III-D3)
    // ------------------------------------------------------------------

    /// Feeds one chunk-I/O failure into the failure detector. A hard
    /// unreachability error ([`ScaliaError::ProviderUnavailable`]) marks the
    /// provider unavailable in the catalog immediately — §III-D3's "the
    /// provider is marked as unavailable"; transport-level trouble counts
    /// toward [`FAILURE_DETECTOR_THRESHOLD`] consecutive failures.
    ///
    /// Data-level responses from a live provider are **not** reachability
    /// evidence and never touch availability: a missing chunk is the normal
    /// aftermath of an MVCC prune racing a reader, a full private resource
    /// and a rejected signature are provider *answers*. Knocking providers
    /// out for those would let a burst of contended overwrites shrink the
    /// catalog until writes find no feasible placement.
    ///
    /// Detector-tripped providers are re-probed (and re-enabled when their
    /// backend responds again) on every clock advance.
    pub(crate) fn report_provider_failure(&self, provider: ProviderId, error: &ScaliaError) {
        let tripped = match error {
            ScaliaError::ProviderUnavailable(_) => true,
            ScaliaError::ChunkMissing { .. }
            | ScaliaError::CapacityExceeded(_)
            | ScaliaError::AuthenticationFailed(_) => false,
            _ => {
                let mut counts = self.failure_counts.lock();
                let count = counts.entry(provider).or_insert(0);
                *count += 1;
                *count >= FAILURE_DETECTOR_THRESHOLD
            }
        };
        if tripped {
            self.catalog.mark_unavailable(provider);
            self.detector_disabled.lock().insert(provider);
        }
    }

    /// Feeds one chunk-I/O success into the failure detector, resetting the
    /// provider's consecutive-failure count.
    pub(crate) fn report_provider_success(&self, provider: ProviderId) {
        self.failure_counts.lock().remove(&provider);
    }

    /// Re-probes every provider the failure detector disabled: if its
    /// backend responds again, the provider returns to the catalog and its
    /// failure count resets. Providers taken down by an operator (or an
    /// outage schedule still in effect) stay down.
    fn reprobe_failed_providers(&self) {
        let disabled: Vec<ProviderId> = self.detector_disabled.lock().iter().copied().collect();
        for provider in disabled {
            if self.backend(provider).is_some_and(|b| b.is_up()) {
                self.catalog.mark_available(provider);
                self.detector_disabled.lock().remove(&provider);
                self.failure_counts.lock().remove(&provider);
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-operation latency accounting
    // ------------------------------------------------------------------

    /// Records the virtual makespan (µs) of one object-level chunk-I/O
    /// operation — the parallel fan-out's critical path, not the sum of its
    /// provider round-trips.
    pub(crate) fn record_io_latency(&self, op: StoreOp, us: u64) {
        self.io_latencies.lock().of(op).record(us);
        self.last_io_latencies.lock()[Self::op_index(op)] = Some(us);
    }

    /// Percentile summary of the recorded object-level latencies of `op`.
    pub fn io_latency_snapshot(&self, op: StoreOp) -> LatencySnapshot {
        self.io_latencies.lock().of(op).snapshot()
    }

    fn op_index(op: StoreOp) -> usize {
        match op {
            StoreOp::Put => 0,
            StoreOp::Get => 1,
            StoreOp::Delete => 2,
        }
    }

    /// The virtual makespan (µs) of the most recent object-level operation
    /// of class `op`, consuming it — a second take before another operation
    /// records returns `None`. Operations served without chunk I/O (cache
    /// hits, metadata-only requests) record nothing.
    ///
    /// Only meaningful when the caller serialises its engine calls (the
    /// front-end's virtual-time executor does); with concurrent callers the
    /// value may belong to another caller's operation.
    pub fn take_last_io_latency(&self, op: StoreOp) -> Option<u64> {
        self.last_io_latencies.lock()[Self::op_index(op)].take()
    }

    /// Mints the next object version id from this deployment's own
    /// sequence (see the `version_counter` field): version ids — and the
    /// storage keys derived from them — depend only on this deployment's
    /// operation history, never on other clusters in the same process.
    pub(crate) fn next_version(&self, salt: &str) -> ObjectVersionId {
        ObjectVersionId::with_counter(salt, self.version_counter.fetch_add(1, Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // Observed provider latency (feeds placement, ranking and hedging)
    // ------------------------------------------------------------------

    /// Runs `f` on the provider latency observatory, under its lock: chunk
    /// I/O records every round-trip into it and reads hedge deadlines from
    /// its published view. `f` must not call back into this
    /// `Infrastructure`'s latency methods (the lock is not reentrant).
    pub fn with_observatory<R>(
        &self,
        f: impl FnOnce(&mut LatencyObservatory<ProviderId>) -> R,
    ) -> R {
        f(&mut self.latency.lock())
    }

    /// Rotates the observation windows (one sampling period per window, so
    /// a provider whose latest windows are clean — or empty, because no
    /// read asks for it any more — is forgiven within two periods) and
    /// publishes the new view. The read p95s go into the catalog, which
    /// applies its hysteresis and bumps its version only on material
    /// shifts, invalidating the placement cache exactly when rankings can
    /// move. Zero-latency catalogs publish nothing and are unaffected.
    fn publish_latency_view(&self) {
        let reads: Vec<(ProviderId, Option<u64>)> = {
            let mut latency = self.latency.lock();
            latency.rotate();
            let view = latency.publish();
            view.reads().map(|(&provider, us)| (provider, us)).collect()
        };
        for (provider, observed) in reads {
            self.catalog.set_observed_read_latency(provider, observed);
        }
    }

    /// Queues a delete that could not reach its provider. The first retry is
    /// due immediately; backoff only accrues after a retry that reached the
    /// provider and still failed.
    pub(crate) fn postpone_delete(&self, provider: ProviderId, chunk_key: String) {
        self.pending_deletes.lock().push(PendingDelete {
            provider,
            chunk_key,
            attempts: 0,
            not_before_secs: 0,
        });
    }

    /// Number of deletes still waiting for their provider to recover.
    pub fn pending_delete_count(&self) -> usize {
        self.pending_deletes.lock().len()
    }

    /// Retries every *due* postponed delete whose provider is reachable
    /// again. An item whose provider is still down is kept untouched (no
    /// attempt is charged); an item that was actually retried and failed is
    /// re-queued with exponential backoff plus deterministic jitter (see
    /// `retry_backoff_secs`).
    pub fn retry_pending_deletes(&self) {
        let now_secs = self.clock_secs.load(Ordering::SeqCst);
        let mut pending = self.pending_deletes.lock();
        let mut remaining = Vec::new();
        for mut delete in pending.drain(..) {
            if now_secs < delete.not_before_secs {
                remaining.push(delete);
                continue;
            }
            let Some(backend) = self.backend(delete.provider).filter(|b| b.is_up()) else {
                remaining.push(delete);
                continue;
            };
            self.delete_retries.fetch_add(1, Ordering::SeqCst);
            if backend.delete(&delete.chunk_key).is_err() {
                delete.attempts += 1;
                delete.not_before_secs =
                    now_secs + retry_backoff_secs(&delete.chunk_key, delete.attempts);
                remaining.push(delete);
            }
        }
        *pending = remaining;
    }

    // ------------------------------------------------------------------
    // Chaos fault plans
    // ------------------------------------------------------------------

    /// Installs (or clears, with `None`) the deterministic chaos plan. The
    /// plan's crash points are consulted by the engine's write path via
    /// `Infrastructure::crash_point` and wired into the replicated store's
    /// transaction crash hook; its transport storms are armed onto the
    /// targeted provider backends immediately.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault_plan.lock() = plan.clone();
        match plan {
            Some(plan) => {
                for storm in plan.take_storms() {
                    if let Some(backend) = self.backend(storm.provider) {
                        backend.inject_transport_errors(storm.ops as u64);
                    }
                }
                let hook_plan = plan.clone();
                let hook: CrashHook = Arc::new(move |label: &str| hook_plan.check(label));
                self.database.set_crash_hook(Some(hook));
            }
            None => self.database.set_crash_hook(None),
        }
    }

    /// Consults the installed chaos plan at a named engine step, failing
    /// with [`ScaliaError::Crashed`] if the point is armed. A no-op (always
    /// `Ok`) without a plan.
    pub(crate) fn crash_point(&self, label: &str) -> Result<(), ScaliaError> {
        let plan = self.fault_plan.lock().clone();
        match plan {
            Some(plan) if plan.check(label) => Err(ScaliaError::Crashed(label.to_string())),
            _ => Ok(()),
        }
    }

    /// Stripe size of the write pipeline, in bytes.
    pub fn stripe_size_bytes(&self) -> u64 {
        self.stripe_size_bytes.load(Ordering::Relaxed).max(1)
    }

    /// Sets the stripe size (tests use small stripes to cross stripe
    /// boundaries cheaply). Affects only objects written after the change;
    /// every object's own stripe map is authoritative.
    pub fn set_stripe_size_bytes(&self, bytes: u64) {
        self.stripe_size_bytes
            .store(bytes.max(1), Ordering::Relaxed);
    }

    /// Serialises metadata commits for one object: `Engine::commit_version`
    /// (the commit of every put and re-placement) and `Engine::delete` hold
    /// this guard around their read-validate-commit sections so MVCC
    /// pruning and version garbage collection see a consistent latest
    /// version. The lock is sharded by row-key hash and is **never** held
    /// across a placement search or provider upload — only across the
    /// metadata mutation itself.
    pub(crate) fn lock_row_commit(&self, row_key: &str) -> parking_lot::MutexGuard<'_, ()> {
        self.row_commit_locks[shard_of(row_key)].lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scalia_providers::catalog::cheapstor;

    fn infra() -> Arc<Infrastructure> {
        Infrastructure::new(ProviderCatalog::paper_catalog(), 2)
    }

    /// Consecutive failures currently recorded against a provider.
    fn failure_count(infra: &Infrastructure, provider: ProviderId) -> u32 {
        infra
            .failure_counts
            .lock()
            .get(&provider)
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn backends_exist_for_every_catalog_provider() {
        let infra = infra();
        assert_eq!(infra.backends().len(), 5);
        for provider in infra.catalog().all() {
            assert!(infra.backend(provider.id).is_some());
        }
        assert!(infra.backend(ProviderId::new(99)).is_none());
    }

    #[test]
    fn clock_and_timestamps_are_monotonic() {
        let infra = infra();
        assert_eq!(infra.now(), SimTime::ZERO);
        infra.advance_clock(SimTime::from_hours(5));
        assert_eq!(infra.now(), SimTime::from_hours(5));
        assert_eq!(infra.current_period(), 5);
        let t1 = infra.next_timestamp();
        let t2 = infra.next_timestamp();
        assert!(t2 > t1);
    }

    #[test]
    fn registering_a_provider_adds_its_backend() {
        let infra = infra();
        let id = infra.register_provider(cheapstor(ProviderId::new(0)));
        assert!(infra.backend(id).is_some());
        assert_eq!(infra.catalog().len(), 6);
    }

    #[test]
    fn provider_outage_toggles_catalog_and_backend() {
        let infra = infra();
        let target = infra.catalog().all()[1].id;
        infra.set_provider_down(target, true);
        assert!(!infra.catalog().is_available(target));
        assert!(!infra.backend(target).unwrap().is_up());
        infra.set_provider_down(target, false);
        assert!(infra.catalog().is_available(target));
        assert!(infra.backend(target).unwrap().is_up());
    }

    #[test]
    fn postponed_deletes_retry_after_recovery() {
        let infra = infra();
        let target = infra.catalog().all()[0].id;
        let backend = infra.backend(target).unwrap();
        backend
            .put("stale-chunk", Bytes::from_static(b"x"))
            .unwrap();

        infra.set_provider_down(target, true);
        infra.postpone_delete(target, "stale-chunk".to_string());
        infra.retry_pending_deletes();
        assert_eq!(infra.pending_delete_count(), 1, "provider still down");

        infra.set_provider_down(target, false);
        infra.advance_clock(SimTime::from_hours(1));
        assert_eq!(infra.pending_delete_count(), 0);
        assert!(!backend.exists("stale-chunk").unwrap());
    }

    #[test]
    fn failed_delete_retries_back_off_then_drain() {
        let infra = infra();
        let target = infra.catalog().all()[0].id;
        let backend = infra.backend(target).unwrap();
        backend.put("stale", Bytes::from_static(b"x")).unwrap();
        infra.postpone_delete(target, "stale".to_string());
        assert_eq!(infra.delete_retries.load(Ordering::SeqCst), 0);

        // A transport storm makes the first retry reach the provider and
        // still fail: the item is charged an attempt and backs off.
        backend.inject_transport_errors(1);
        infra.retry_pending_deletes();
        assert_eq!(infra.pending_delete_count(), 1);
        assert_eq!(infra.delete_retries.load(Ordering::SeqCst), 1);

        // While backing off, further retry passes don't even attempt it.
        infra.retry_pending_deletes();
        assert_eq!(infra.delete_retries.load(Ordering::SeqCst), 1);

        // First-failure backoff is at most 90 s; two minutes later the
        // retry runs (via the clock advance) and succeeds.
        infra.advance_clock(SimTime::from_secs(120));
        assert_eq!(infra.pending_delete_count(), 0);
        assert_eq!(infra.delete_retries.load(Ordering::SeqCst), 2);
        assert!(!backend.exists("stale").unwrap());
    }

    #[test]
    fn crash_points_fire_through_the_installed_plan() {
        let infra = infra();
        assert!(infra.crash_point("put::after-upload").is_ok(), "no plan");
        let plan = Arc::new(FaultPlan::new());
        plan.arm("put::after-upload");
        infra.set_fault_plan(Some(plan.clone()));
        assert!(infra.crash_point("put::other").is_ok());
        assert!(infra.crash_point("put::after-upload").is_err());
        assert!(infra.crash_point("put::after-upload").is_ok(), "one-shot");
        assert_eq!(plan.fired(), vec!["put::after-upload".to_string()]);
        infra.set_fault_plan(None);
        assert!(infra.fault_plan.lock().is_none());
    }

    #[test]
    fn hard_unreachability_trips_the_failure_detector_immediately() {
        let infra = infra();
        let target = infra.catalog().all()[0].id;
        assert!(infra.catalog().is_available(target));
        infra.report_provider_failure(target, &ScaliaError::ProviderUnavailable(target));
        assert!(
            !infra.catalog().is_available(target),
            "ProviderUnavailable must mark the provider unavailable at once"
        );
        // The backend itself is up, so the next clock advance re-probes and
        // restores the provider.
        infra.advance_clock(SimTime::from_hours(1));
        assert!(infra.catalog().is_available(target));
        assert_eq!(failure_count(&infra, target), 0);
    }

    #[test]
    fn soft_errors_count_to_the_threshold_and_successes_reset() {
        let infra = infra();
        let target = infra.catalog().all()[1].id;
        let soft = ScaliaError::Internal("transport timeout".into());
        for _ in 0..FAILURE_DETECTOR_THRESHOLD - 1 {
            infra.report_provider_failure(target, &soft);
        }
        assert!(infra.catalog().is_available(target), "below threshold");
        assert_eq!(
            failure_count(&infra, target),
            FAILURE_DETECTOR_THRESHOLD - 1
        );
        // A success resets the streak.
        infra.report_provider_success(target);
        assert_eq!(failure_count(&infra, target), 0);
        // A full streak trips the detector.
        for _ in 0..FAILURE_DETECTOR_THRESHOLD {
            infra.report_provider_failure(target, &soft);
        }
        assert!(!infra.catalog().is_available(target));
    }

    #[test]
    fn data_level_errors_never_touch_availability() {
        // A provider that *answers* — even with "no such chunk" (the normal
        // aftermath of MVCC pruning racing a reader) or "capacity full" —
        // is alive. No volume of such answers may shrink the catalog.
        let infra = infra();
        let target = infra.catalog().all()[3].id;
        let missing = ScaliaError::ChunkMissing {
            provider: target,
            chunk_key: "k".into(),
        };
        for _ in 0..10 * FAILURE_DETECTOR_THRESHOLD {
            infra.report_provider_failure(target, &missing);
            infra.report_provider_failure(target, &ScaliaError::CapacityExceeded(target));
        }
        assert!(infra.catalog().is_available(target));
        assert_eq!(failure_count(&infra, target), 0);
    }

    #[test]
    fn reprobe_leaves_operator_disabled_providers_down() {
        let infra = infra();
        let target = infra.catalog().all()[2].id;
        // Down for real (backend + catalog): reads will feed the detector,
        // but the re-probe must not resurrect it while the backend is down.
        infra.set_provider_down(target, true);
        infra.report_provider_failure(target, &ScaliaError::ProviderUnavailable(target));
        infra.advance_clock(SimTime::from_hours(1));
        assert!(
            !infra.catalog().is_available(target),
            "backend is down; re-probe must not re-enable"
        );
        infra.set_provider_down(target, false);
        infra.advance_clock(SimTime::from_hours(2));
        assert!(infra.catalog().is_available(target));
    }

    #[test]
    fn io_latency_histograms_accumulate_per_operation() {
        let infra = infra();
        assert_eq!(infra.io_latency_snapshot(StoreOp::Get).count, 0);
        infra.record_io_latency(StoreOp::Get, 1_000);
        infra.record_io_latency(StoreOp::Get, 3_000);
        infra.record_io_latency(StoreOp::Put, 500);
        let get = infra.io_latency_snapshot(StoreOp::Get);
        assert_eq!(get.count, 2);
        assert_eq!(get.max_us, 3_000);
        assert_eq!(infra.io_latency_snapshot(StoreOp::Put).count, 1);
        assert_eq!(infra.io_latency_snapshot(StoreOp::Delete).count, 0);
    }

    #[test]
    fn observed_read_latencies_publish_and_decay() {
        use scalia_providers::observatory::OBSERVED_MIN_SAMPLES;
        let infra = infra();
        let target = infra.catalog().all()[0].id;

        // Below the sample floor nothing is published.
        for _ in 0..OBSERVED_MIN_SAMPLES - 1 {
            infra.with_observatory(|o| o.record_read(target, 80_000));
        }
        infra.advance_clock(SimTime::from_hours(1));
        assert_eq!(infra.catalog().observed_read_latency(target), None);

        // Enough samples: nothing moves until the clock advances, then the
        // p95 summary reaches the catalog descriptor.
        for _ in 0..2 * OBSERVED_MIN_SAMPLES {
            infra.with_observatory(|o| o.record_read(target, 80_000));
        }
        assert_eq!(infra.catalog().observed_read_latency(target), None);
        infra.advance_clock(SimTime::from_hours(2));
        let published = infra.catalog().observed_read_latency(target).unwrap();
        assert!(published >= 80_000);
        assert_eq!(
            infra.with_observatory(|o| o.published().read_us(&target)),
            Some(published)
        );
        assert_eq!(
            infra.catalog().get(target).unwrap().read_latency_us(1),
            published,
            "placement-visible latency must be the observed summary"
        );

        // Two idle periods later the window has decayed: the provider is
        // forgiven and the advertised model speaks again.
        infra.advance_clock(SimTime::from_hours(3));
        infra.advance_clock(SimTime::from_hours(4));
        assert_eq!(infra.catalog().observed_read_latency(target), None);
    }

    #[test]
    fn write_latencies_publish_into_the_view_not_the_catalog() {
        use scalia_providers::observatory::OBSERVED_MIN_SAMPLES;
        let infra = infra();
        let target = infra.catalog().all()[2].id;
        for _ in 0..OBSERVED_MIN_SAMPLES {
            infra.with_observatory(|o| o.record_write(target, 50_000));
        }
        let write_us = || infra.with_observatory(|o| o.published().write_us(&target));
        assert_eq!(write_us(), None);
        infra.advance_clock(SimTime::from_hours(1));
        assert_eq!(write_us(), Some(50_000));
        assert_eq!(infra.catalog().observed_read_latency(target), None);
    }

    #[test]
    fn zero_latency_observations_never_touch_the_catalog() {
        // The default catalogs are zero-latency: reads record 0 µs. Those
        // summaries must never be published — otherwise every deployment
        // would pay a placement-cache invalidation for nothing.
        use scalia_providers::observatory::OBSERVED_MIN_SAMPLES;
        let infra = infra();
        let target = infra.catalog().all()[1].id;
        let version = infra.catalog().version();
        for _ in 0..10 * OBSERVED_MIN_SAMPLES {
            infra.with_observatory(|o| o.record_read(target, 0));
        }
        infra.advance_clock(SimTime::from_hours(1));
        assert_eq!(infra.catalog().observed_read_latency(target), None);
        assert_eq!(
            infra.catalog().version(),
            version,
            "zero summaries must not bump the catalog version"
        );
    }

    #[test]
    fn total_cost_aggregates_backends() {
        let infra = infra();
        let backend = infra.backends()[0].clone();
        backend.put("k", Bytes::from(vec![0u8; 1_000_000])).unwrap();
        assert!(infra.total_cost().is_positive());
    }
}
