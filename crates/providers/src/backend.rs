//! Simulated provider object stores.
//!
//! Each provider is backed by a [`SimulatedStore`]: an in-memory key/value
//! object store with the S3-like put/get/delete/list interface the Scalia
//! engine programs against, and:
//!
//! * request/bandwidth metering (feeding a `BillingMeter`),
//! * storage metering via an explicit [`SimulatedStore::tick`] that charges
//!   GB-hours for the bytes currently held,
//! * failure injection — an [`OutageSchedule`] plus a manual up/down switch —
//!   so the evaluation can take providers offline (§IV-E),
//! * a capacity limit for private resources,
//! * a deterministic response-time model ([`crate::latency::LatencyModel`],
//!   from the provider descriptor): every operation — including errors —
//!   reports a *virtual* latency in microseconds through the `timed_*`
//!   variants, recorded into per-operation histograms. A latency is a
//!   number the caller schedules in virtual time, never a wait: a
//!   round-trip returns as soon as the store has applied it.
//!   [`SimulatedStore::set_stall_us`] injects an additive stall to model a
//!   limping provider.

use crate::billing::BillingMeter;
use crate::descriptor::ProviderDescriptor;
use crate::failure::OutageSchedule;
use crate::latency::salt_of;
use bytes::Bytes;
use parking_lot::Mutex;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::ProviderId;
use scalia_types::latency::{LatencyHistogram, LatencySnapshot};
use scalia_types::money::Money;
use scalia_types::size::ByteSize;
use scalia_types::time::SimTime;
use scalia_types::usage::ResourceUsage;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The operation classes a store records latency for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// Chunk uploads.
    Put,
    /// Chunk downloads.
    Get,
    /// Chunk deletions.
    Delete,
}

/// One latency histogram per [`StoreOp`] — the single place that maps an
/// operation class to its histogram (shared by the per-store recording here
/// and the deployment-wide object-level recording in the engine).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpLatencies {
    put: LatencyHistogram,
    get: LatencyHistogram,
    delete: LatencyHistogram,
}

impl OpLatencies {
    /// The histogram recording operations of class `op`.
    pub fn of(&mut self, op: StoreOp) -> &mut LatencyHistogram {
        match op {
            StoreOp::Put => &mut self.put,
            StoreOp::Get => &mut self.get,
            StoreOp::Delete => &mut self.delete,
        }
    }
}

struct StoreState {
    /// Chunks by key. Every round-trip is a point access, so the map hashes;
    /// only [`SimulatedStore::list`] needs key order, and sorts.
    objects: HashMap<String, Bytes>,
    stored_bytes: ByteSize,
    meter: BillingMeter,
    latencies: OpLatencies,
    manually_down: bool,
    now: SimTime,
    last_tick: SimTime,
}

/// An in-memory, metered, failure-injectable object store for one provider.
pub struct SimulatedStore {
    descriptor: ProviderDescriptor,
    outages: OutageSchedule,
    state: Mutex<StoreState>,
    /// Additive virtual stall applied to every operation (limping provider).
    stall_us: AtomicU64,
    /// Transport-error storm: the next N operations fail with a retryable
    /// soft error while the provider is nominally up (chaos injection).
    soft_faults: AtomicU64,
}

impl SimulatedStore {
    /// Creates a store for the given provider with no scheduled outages.
    pub(crate) fn new(descriptor: ProviderDescriptor) -> Self {
        Self::with_outages(descriptor, OutageSchedule::always_up())
    }

    /// Creates a store with a pre-programmed outage schedule.
    pub(crate) fn with_outages(descriptor: ProviderDescriptor, outages: OutageSchedule) -> Self {
        let meter = BillingMeter::new(descriptor.pricing);
        SimulatedStore {
            descriptor,
            outages,
            state: Mutex::new(StoreState {
                objects: HashMap::new(),
                stored_bytes: ByteSize::ZERO,
                meter,
                latencies: OpLatencies::default(),
                manually_down: false,
                now: SimTime::ZERO,
                last_tick: SimTime::ZERO,
            }),
            stall_us: AtomicU64::new(0),
            soft_faults: AtomicU64::new(0),
        }
    }

    /// Creates a store wrapped in an [`Arc`] for sharing across engines.
    pub fn shared(descriptor: ProviderDescriptor) -> Arc<Self> {
        Arc::new(Self::new(descriptor))
    }

    /// The provider descriptor backing this store.
    pub fn descriptor(&self) -> &ProviderDescriptor {
        &self.descriptor
    }

    /// Manually takes the provider down (in addition to scheduled outages).
    pub fn set_down(&self, down: bool) {
        self.state.lock().manually_down = down;
    }

    /// Returns `true` if the provider is reachable right now.
    pub fn is_up(&self) -> bool {
        let state = self.state.lock();
        !state.manually_down && self.outages.is_up(state.now)
    }

    /// Advances the store's clock to `now`, charging storage GB-hours for
    /// the bytes held since the previous tick.
    pub fn tick(&self, now: SimTime) {
        let mut state = self.state.lock();
        if now <= state.last_tick {
            state.now = now;
            return;
        }
        let hours = now.since(state.last_tick).as_hours();
        let held = state.stored_bytes;
        state.meter.record_storage(held, hours);
        state.last_tick = now;
        state.now = now;
    }

    /// Bytes currently stored.
    pub fn stored_bytes(&self) -> ByteSize {
        self.state.lock().stored_bytes
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> usize {
        self.state.lock().objects.len()
    }

    /// Accumulated resource usage (bandwidth, operations, storage GB-hours).
    pub fn usage(&self) -> ResourceUsage {
        self.state.lock().meter.usage()
    }

    /// Accumulated cost under the provider's pricing policy.
    pub fn accrued_cost(&self) -> Money {
        self.state.lock().meter.total_cost()
    }

    /// Injects an additive virtual stall (microseconds) into every
    /// operation, modelling a limping provider. Zero clears the stall.
    pub fn set_stall_us(&self, us: u64) {
        self.stall_us.store(us, Ordering::SeqCst);
    }

    /// The currently injected stall, in microseconds.
    pub(crate) fn stall_us(&self) -> u64 {
        self.stall_us.load(Ordering::SeqCst)
    }

    /// Per-operation latency summary (virtual microseconds).
    pub fn latency_snapshot(&self, op: StoreOp) -> LatencySnapshot {
        self.state.lock().latencies.of(op).snapshot()
    }

    /// The virtual latency of one operation: the descriptor's model sampled
    /// for this key and payload, plus any injected stall. Errors pay the
    /// base round-trip (`bytes = 0`).
    fn latency_us(&self, key: &str, bytes: u64) -> u64 {
        self.descriptor.latency.sample_us(bytes, salt_of(key)) + self.stall_us()
    }

    /// Starts a transport-error storm: the next `ops` operations fail with a
    /// retryable [`ScaliaError::Internal`] error while the provider remains
    /// nominally up — feeding the failure detector's count-to-threshold path
    /// rather than the immediate `ProviderUnavailable` path. Zero clears any
    /// remaining storm.
    pub fn inject_transport_errors(&self, ops: u64) {
        self.soft_faults.store(ops, Ordering::SeqCst);
    }

    /// Operations still covered by an injected transport-error storm.
    pub fn pending_transport_errors(&self) -> u64 {
        self.soft_faults.load(Ordering::SeqCst)
    }

    fn check_up(&self, state: &StoreState) -> Result<()> {
        if state.manually_down || self.outages.is_down(state.now) {
            return Err(ScaliaError::ProviderUnavailable(self.descriptor.id));
        }
        // Consume one storm token per operation: the request dies on the
        // wire before it is billed or applied.
        if self
            .soft_faults
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(ScaliaError::Internal(format!(
                "injected transport error at {}",
                self.descriptor.id
            )));
        }
        Ok(())
    }
}

impl SimulatedStore {
    /// The provider this store belongs to.
    pub fn provider_id(&self) -> ProviderId {
        self.descriptor.id
    }

    /// Stores `data` under `key`, overwriting any previous value.
    pub fn put(&self, key: &str, data: Bytes) -> Result<()> {
        self.timed_put(key, data).0
    }

    /// Retrieves the value stored under `key`.
    pub fn get(&self, key: &str) -> Result<Bytes> {
        self.timed_get(key).0
    }

    /// Deletes the value stored under `key` (idempotent).
    pub fn delete(&self, key: &str) -> Result<()> {
        self.timed_delete(key).0
    }

    /// Lists all keys with the given prefix, in key order. O(keys stored)
    /// plus a sort of the matches.
    pub fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut state = self.state.lock();
        self.check_up(&state)?;
        state.meter.record(ResourceUsage::operations(1));
        let mut keys: Vec<String> = state
            .objects
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort_unstable();
        Ok(keys)
    }

    /// Returns `true` if a value is stored under `key`.
    pub fn exists(&self, key: &str) -> Result<bool> {
        let mut state = self.state.lock();
        self.check_up(&state)?;
        state.meter.record(ResourceUsage::operations(1));
        Ok(state.objects.contains_key(key))
    }

    /// [`SimulatedStore::put`] returning the operation's virtual latency in
    /// microseconds alongside the result. Errors pay the base round-trip.
    pub fn timed_put(&self, key: &str, data: Bytes) -> (Result<()>, u64) {
        let payload = data.len() as u64;
        let mut state = self.state.lock();
        let result = self.put_locked(&mut state, key, data);
        let us = self.latency_us(key, if result.is_ok() { payload } else { 0 });
        state.latencies.of(StoreOp::Put).record(us);
        (result, us)
    }

    /// [`SimulatedStore::get`] returning the operation's virtual latency in
    /// microseconds alongside the result.
    pub fn timed_get(&self, key: &str) -> (Result<Bytes>, u64) {
        let mut state = self.state.lock();
        let result = self.get_locked(&mut state, key);
        let payload = result.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        let us = self.latency_us(key, payload);
        state.latencies.of(StoreOp::Get).record(us);
        (result, us)
    }

    /// [`SimulatedStore::delete`] returning the operation's virtual latency in
    /// microseconds alongside the result.
    pub fn timed_delete(&self, key: &str) -> (Result<()>, u64) {
        let mut state = self.state.lock();
        let result = self.delete_locked(&mut state, key);
        let us = self.latency_us(key, 0);
        state.latencies.of(StoreOp::Delete).record(us);
        (result, us)
    }

    fn put_locked(&self, state: &mut StoreState, key: &str, data: Bytes) -> Result<()> {
        self.check_up(state)?;
        let new_size = ByteSize::from_bytes(data.len() as u64);

        // Enforce capacity for private resources ("will never grow beyond
        // the limit set in the properties of the resource", §III-E).
        if let Some(capacity) = self.descriptor.capacity {
            let existing = state
                .objects
                .get(key)
                .map(|old| ByteSize::from_bytes(old.len() as u64))
                .unwrap_or(ByteSize::ZERO);
            let projected = state.stored_bytes.saturating_sub(existing) + new_size;
            if projected > capacity {
                // The rejected request still counts as an operation.
                state.meter.record(ResourceUsage::operations(1));
                return Err(ScaliaError::CapacityExceeded(self.descriptor.id));
            }
        }

        state.meter.record_put(new_size);
        if let Some(old) = state.objects.insert(key.to_string(), data) {
            state.stored_bytes = state
                .stored_bytes
                .saturating_sub(ByteSize::from_bytes(old.len() as u64));
        }
        state.stored_bytes += new_size;
        Ok(())
    }

    fn get_locked(&self, state: &mut StoreState, key: &str) -> Result<Bytes> {
        self.check_up(state)?;
        match state.objects.get(key).cloned() {
            Some(data) => {
                state
                    .meter
                    .record_get(ByteSize::from_bytes(data.len() as u64));
                Ok(data)
            }
            None => {
                state.meter.record(ResourceUsage::operations(1));
                Err(ScaliaError::ChunkMissing {
                    provider: self.descriptor.id,
                    chunk_key: key.to_string(),
                })
            }
        }
    }

    fn delete_locked(&self, state: &mut StoreState, key: &str) -> Result<()> {
        self.check_up(state)?;
        state.meter.record_delete();
        if let Some(old) = state.objects.remove(key) {
            state.stored_bytes = state
                .stored_bytes
                .saturating_sub(ByteSize::from_bytes(old.len() as u64));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{rackspace, s3_high};
    use crate::pricing::PricingPolicy;
    use crate::sla::ProviderSla;
    use scalia_types::zone::{Zone, ZoneSet};

    fn store() -> SimulatedStore {
        SimulatedStore::new(s3_high(ProviderId::new(0)))
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let s = store();
        s.put("a/b", Bytes::from_static(b"hello")).unwrap();
        assert!(s.exists("a/b").unwrap());
        assert_eq!(s.get("a/b").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.stored_bytes(), ByteSize::from_bytes(5));
        s.delete("a/b").unwrap();
        assert!(!s.exists("a/b").unwrap());
        assert_eq!(s.stored_bytes(), ByteSize::ZERO);
        // Missing get returns ChunkMissing.
        assert!(matches!(
            s.get("a/b").unwrap_err(),
            ScaliaError::ChunkMissing { .. }
        ));
        // Delete is idempotent.
        s.delete("a/b").unwrap();
    }

    #[test]
    fn overwrite_replaces_stored_bytes() {
        let s = store();
        s.put("k", Bytes::from(vec![0u8; 100])).unwrap();
        s.put("k", Bytes::from(vec![0u8; 40])).unwrap();
        assert_eq!(s.stored_bytes(), ByteSize::from_bytes(40));
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn list_filters_by_prefix() {
        let s = store();
        // Stored out of key order: `list` returns key order whatever the
        // insertion order (six keys, so a hash order is rarely sorted).
        for key in [
            "other.0", "skey1.1", "skey1.0", "skey2.1", "skey1.2", "skey2.0",
        ] {
            s.put(key, Bytes::from_static(b"x")).unwrap();
        }
        let keys = s.list("skey1").unwrap();
        assert_eq!(keys, ["skey1.0", "skey1.1", "skey1.2"]);
        assert_eq!(
            s.list("").unwrap(),
            ["other.0", "skey1.0", "skey1.1", "skey1.2", "skey2.0", "skey2.1"]
        );
    }

    #[test]
    fn metering_tracks_bandwidth_and_ops() {
        let s = store();
        s.put("k", Bytes::from(vec![1u8; 1_000_000])).unwrap();
        s.get("k").unwrap();
        s.get("k").unwrap();
        let usage = s.usage();
        assert_eq!(usage.bw_in, ByteSize::from_mb(1));
        assert_eq!(usage.bw_out, ByteSize::from_mb(2));
        assert_eq!(usage.ops, 3);
        assert!(s.accrued_cost().is_positive());
    }

    #[test]
    fn tick_charges_storage_over_time() {
        let s = store();
        s.put("k", Bytes::from(vec![1u8; 1_000_000_000])).unwrap();
        s.tick(SimTime::from_hours(720));
        let usage = s.usage();
        assert!((usage.storage_gb_hours - 720.0).abs() < 1e-6);
        // 1 GB for a month at $0.14 plus 1 GB in at $0.10 plus 1 op.
        assert!((s.accrued_cost().dollars() - 0.24001).abs() < 1e-3);
        // Ticking backwards or to the same time charges nothing more.
        s.tick(SimTime::from_hours(700));
        s.tick(SimTime::from_hours(720));
        assert!((s.usage().storage_gb_hours - 720.0).abs() < 1e-6);
    }

    #[test]
    fn manual_failure_injection() {
        let s = store();
        s.put("k", Bytes::from_static(b"v")).unwrap();
        s.set_down(true);
        assert!(!s.is_up());
        assert!(matches!(
            s.get("k").unwrap_err(),
            ScaliaError::ProviderUnavailable(_)
        ));
        assert!(matches!(
            s.put("k2", Bytes::from_static(b"v")).unwrap_err(),
            ScaliaError::ProviderUnavailable(_)
        ));
        s.set_down(false);
        assert!(s.is_up());
        assert_eq!(s.get("k").unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn scheduled_outage_follows_clock() {
        let s = SimulatedStore::with_outages(
            rackspace(ProviderId::new(2)),
            OutageSchedule::from_hours(&[(60, 120)]),
        );
        s.put("k", Bytes::from_static(b"v")).unwrap();
        s.tick(SimTime::from_hours(61));
        assert!(!s.is_up());
        assert!(s.get("k").is_err());
        s.tick(SimTime::from_hours(120));
        assert!(s.is_up());
        assert!(s.get("k").is_ok());
    }

    #[test]
    fn timed_ops_report_model_latency_deterministically() {
        use crate::latency::LatencyModel;
        // 10 ms RTT, 1 MB/s, no jitter: a 1 MB get takes 10 ms + 1 s.
        let descriptor = s3_high(ProviderId::new(0)).with_latency(LatencyModel::new(10, 1, 0, 42));
        let s = SimulatedStore::new(descriptor);
        let (put_result, put_us) = s.timed_put("k", Bytes::from(vec![0u8; 1_000_000]));
        put_result.unwrap();
        assert_eq!(put_us, 10_000 + 1_000_000);
        let (get_result, get_us) = s.timed_get("k");
        get_result.unwrap();
        assert_eq!(get_us, put_us, "same key, same payload, same latency");
        // A repeated request reproduces exactly.
        assert_eq!(s.timed_get("k").1, get_us);
        // Errors pay the base round-trip only.
        let (missing, err_us) = s.timed_get("nope");
        assert!(missing.is_err());
        assert_eq!(err_us, 10_000);
        // Histograms saw every operation.
        assert_eq!(s.latency_snapshot(StoreOp::Get).count, 3);
        assert_eq!(s.latency_snapshot(StoreOp::Put).count, 1);
        assert_eq!(s.latency_snapshot(StoreOp::Delete).count, 0);
    }

    #[test]
    fn zero_model_keeps_operations_instantaneous() {
        let s = store();
        let (result, us) = s.timed_put("k", Bytes::from_static(b"v"));
        result.unwrap();
        assert_eq!(us, 0, "default catalog must stay latency-free");
        assert_eq!(s.timed_get("k").1, 0);
    }

    #[test]
    fn stall_injection_adds_to_every_operation() {
        let s = store();
        s.set_stall_us(50_000);
        assert_eq!(s.stall_us(), 50_000);
        let (_, us) = s.timed_put("k", Bytes::from_static(b"v"));
        assert_eq!(us, 50_000);
        // Down providers stall too (the connection attempt hangs).
        s.set_down(true);
        let (result, err_us) = s.timed_get("k");
        assert!(result.is_err());
        assert_eq!(err_us, 50_000);
        s.set_stall_us(0);
        s.set_down(false);
        assert_eq!(s.timed_get("k").1, 0);
    }

    #[test]
    fn transport_storm_fails_exactly_n_ops_then_clears() {
        let s = store();
        s.put("k", Bytes::from_static(b"v")).unwrap();
        s.inject_transport_errors(3);
        assert_eq!(s.pending_transport_errors(), 3);
        assert!(s.is_up(), "storming provider stays nominally up");
        for _ in 0..3 {
            assert!(matches!(s.get("k").unwrap_err(), ScaliaError::Internal(_)));
        }
        assert_eq!(s.pending_transport_errors(), 0);
        assert_eq!(s.get("k").unwrap(), Bytes::from_static(b"v"));
        // Storms gate every operation class, and zero clears them early.
        s.inject_transport_errors(10);
        assert!(s.put("k2", Bytes::from_static(b"w")).is_err());
        assert!(s.delete("k").is_err());
        assert!(s.exists("k").is_err());
        s.inject_transport_errors(0);
        assert!(s.exists("k").unwrap());
    }

    #[test]
    fn capacity_limit_enforced() {
        let descriptor = ProviderDescriptor::private(
            ProviderId::new(7),
            "nas",
            ProviderSla::from_percent(99.9, 99.5),
            PricingPolicy::from_dollars(0.0, 0.0, 0.0, 0.0),
            ZoneSet::of(&[Zone::EU]),
            ByteSize::from_bytes(150),
        );
        let s = SimulatedStore::new(descriptor);
        s.put("a", Bytes::from(vec![0u8; 100])).unwrap();
        assert!(matches!(
            s.put("b", Bytes::from(vec![0u8; 100])).unwrap_err(),
            ScaliaError::CapacityExceeded(_)
        ));
        // Overwriting the existing object within capacity is allowed.
        s.put("a", Bytes::from(vec![0u8; 150])).unwrap();
        assert_eq!(s.stored_bytes(), ByteSize::from_bytes(150));
    }
}
