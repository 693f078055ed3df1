//! Unified chunk I/O: every provider round-trip of the data path.
//!
//! Scalia stores an object as `n` erasure-coded chunks on `n` providers and
//! serves it back from the best `m` of them (§III-D). Until this layer
//! existed, each life-cycle hand-rolled its own sequential provider loop —
//! a put summed `n` round-trips, a get summed `m`, and no scenario could
//! observe a slow provider at all. All four call sites (write, read, delete
//! and the repair/migration path through
//! [`crate::engine::Engine::replace_placement`]) now route through this
//! module, which fans a group's round-trips out so that the group costs its
//! slowest member, not their sum — on the work-stealing pool when a
//! provider really waits, on the calling thread when latency is virtual
//! (see "Virtual time, real time" below):
//!
//! * [`write_chunks`] — **fanned-out upload**, one round-trip per chunk,
//!   with abort-on-first-hard-failure: the first provider error flips an
//!   abort flag (uploads not yet started are skipped), every chunk that did
//!   land is rolled back (deleted, or queued as a postponed delete if the
//!   provider is unreachable), and the failing provider is reported to the
//!   failure detector and returned to the caller so the write can be
//!   re-placed on the remaining providers.
//! * [`fetch_chunks`] — **hedged first-`m`-of-`n` read**: the best `m`
//!   providers are raced — ranked by expected read latency
//!   (the *observed* summary once enough samples exist, the advertised
//!   model otherwise), with the read-price order breaking latency ties —
//!   so a provider that has recently been slow is demoted to parity rank
//!   while a latency-free catalog keeps the seed's exact price order.
//!   The moment any ranked fetch errors, or exceeds its hedge deadline —
//!   the provider's observed p95 once warm, a multiple of its modelled
//!   latency until then ([`hedge_deadline_us`]) — the next-ranked parity
//!   provider is promoted into the race. The read returns as soon as `m`
//!   chunks are in hand — in wall-clock mode a straggler keeps running
//!   detached on the pool and simply finds its result unneeded. Every
//!   outcome feeds the failure
//!   detector (§III-D3) and every success feeds the provider's
//!   observed-latency window, closing the adaptation loop.
//! * [`write_chunks_tolerant`] — the **degraded-capable upload**: every
//!   chunk is attempted (no abort-on-first-failure) and the write survives
//!   with any `k ≥ m` of its `n` chunks; the failed providers come back to
//!   the caller, which decides whether the surviving subset clears the
//!   rule's availability floor (the degraded-write fallback of the engine's
//!   put path).
//! * [`delete_chunks`] — **fanned-out delete** with the postponed-delete
//!   semantics for unreachable providers.
//! * [`upload_encoded`] / [`upload_encoded_tolerant`] / [`fetch_stripe`] /
//!   [`fetch_range`] — the **stripe-granular face** of the same machinery,
//!   used by the staged streaming pipeline
//!   ([`crate::streaming`]): an upload takes an already-encoded stripe (so
//!   the pipeline can encode stripe k+1 while stripe k is in flight) and a
//!   per-stripe chunk-key salt, and a range read fetches (hedged
//!   `m`-of-`n`), decodes and verifies only the stripes that cover its byte
//!   window — the rollback, postponed-delete and failure-detector semantics
//!   above apply per stripe, unchanged.
//!
//! # Integrity
//!
//! Chunks carry no checksum of their own. Every read decodes straight into
//! its output buffer and verifies the decoded stripe against the content
//! checksum ([`scalia_types::checksum`]) stored in the metadata when the
//! stripe was written — one pass per byte, covering every chunk that
//! contributed. A mismatch fails the read closed; it is never served and
//! never cached.
//!
//! # Virtual time, real time
//!
//! Latencies are *virtual* by default: deterministic microseconds from each
//! provider's [`scalia_providers::latency::LatencyModel`], a function of
//! `(key, bytes)`. A virtual round-trip is a map insert and a counter bump
//! that *reports* how long it would have taken: there is no waiting to
//! overlap, and handing it to another thread costs a queue hand-off, a
//! wake-up and a join for nothing. Every fan-out of this module (`fan_out`,
//! the hedged read's launches) therefore runs virtual round-trips **on the
//! calling thread, in input order**. The hedging timeline, the recorded
//! makespans and the providers' bills do not depend on who ran a
//! round-trip, so they are exactly reproducible at any pool size; an
//! aborted upload skips precisely the chunks after the failed one.
//!
//! The pool is used when, and only when, a participating backend really
//! waits in wall-clock time
//! ([`scalia_providers::backend::SimulatedStore::real_sleep_enabled`] — the
//! `chunk_io` bench, the `SCALIA_LATENCY_REAL_SLEEP` CI step, what a
//! networked backend would report): the round-trips of a group then overlap
//! on pool workers (a sleeping worker needs no core), and the read
//! controller hedges by wall clock — it parks on a condvar and promotes
//! parity when a ranked fetch blows its real deadline, so a stalled
//! provider cannot hold the read hostage.
//!
//! The object-level makespans (critical path of the fan-out, not the sum of
//! round-trips) are recorded into the deployment-wide per-operation latency
//! histograms ([`Infrastructure::io_latency_snapshot`]).

use crate::infra::Infrastructure;
use bytes::Bytes;
use rayon::prelude::*;
use scalia_core::cost::{cheapest_read_providers, chunk_bytes_for};
use scalia_core::placement::Placement;
use scalia_erasure::codec::{decode_object_into, encode_object, Chunk, EncodedObject};
use scalia_providers::backend::{SimulatedStore, StoreOp};
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_providers::latency::LatencyModel;
use scalia_types::checksum::checksum_hex;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::ProviderId;
use scalia_types::object::{ChunkLocation, ObjectMeta, StripingMeta};
use scalia_types::size::ByteSize;
use scalia_types::ErasureParams;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hedging policy of the first-`m`-of-`n` read.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Fallback: a ranked fetch is hedged once its latency exceeds this
    /// multiple of the provider's modelled (jitter-free) latency for the
    /// chunk size — used until the provider has enough *observed* samples.
    pub deadline_multiplier: u32,
    /// Floor of the hedge deadline, in virtual microseconds, so zero-latency
    /// catalogs (the default) never hedge on latency — only on errors.
    pub min_deadline_us: u64,
    /// Observed percentile used as the hedge deadline once enough samples
    /// exist: a fetch that outlives the provider's recent p`observed_percentile`
    /// gets its parity promoted. Tighter than the modelled fallback for any
    /// healthy provider (p95 ≈ 1.1× nominal vs 3× nominal), so deadlines
    /// *tighten* as observations accumulate.
    pub observed_percentile: f64,
    /// Minimum observed samples (in the provider's sliding window) before
    /// the observed deadline replaces the modelled fallback. Set to
    /// `u64::MAX` to pin the pre-adaptive fixed-deadline behaviour
    /// (baselines and A/B tests).
    pub min_observed_samples: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            deadline_multiplier: 3,
            min_deadline_us: 2_000,
            observed_percentile: crate::infra::OBSERVED_PERCENTILE,
            min_observed_samples: crate::infra::OBSERVED_MIN_SAMPLES,
        }
    }
}

impl HedgeConfig {
    /// The default policy with adaptation disabled: deadlines stay at the
    /// fixed modelled multiple forever (the PR 3 behaviour), regardless of
    /// observations. Used as the baseline the adaptive policy is measured
    /// against.
    pub fn fixed_deadline() -> Self {
        HedgeConfig {
            min_observed_samples: u64::MAX,
            ..HedgeConfig::default()
        }
    }
}

/// The hedge deadline of one fetch from `provider`: the provider's observed
/// read-latency percentile when at least `config.min_observed_samples`
/// recent samples exist, otherwise `config.deadline_multiplier ×` the
/// modelled latency for the chunk size — floored by `min_deadline_us`
/// either way.
pub fn hedge_deadline_us(
    infra: &Infrastructure,
    provider: ProviderId,
    latency: &LatencyModel,
    chunk_bytes: u64,
    config: &HedgeConfig,
) -> u64 {
    infra
        .observed_read_percentile_with_min(
            provider,
            config.observed_percentile,
            config.min_observed_samples,
        )
        .unwrap_or_else(|| {
            latency
                .expected_us(chunk_bytes)
                .saturating_mul(config.deadline_multiplier as u64)
        })
        .max(config.min_deadline_us)
}

/// The upload hedge deadline of one chunk-PUT to `provider`:
/// `deadline_multiplier ×` the provider's *observed* write-latency
/// percentile once warm (recorded by every successful upload into the same
/// `DecayingHistogram` observation loop the read path uses), the same
/// multiple of the modelled latency until then. An upload that outlives
/// this deadline is treated as a failed-slow provider: the chunk is rolled
/// back and the write re-placed on the remaining providers, so a provider
/// stalling anomalously on PUTs cannot hold a write hostage.
///
/// Unlike the read hedge — where outliving the raw p95 merely races an
/// extra parity fetch — a write overrun aborts real work, so the deadline
/// keeps the multiplier headroom above the p95: healthy jitter (by
/// definition ~5 % of round-trips land past the p95) must never fail a
/// write, while a multi-second stall on a ~30 ms provider still trips it.
/// The adaptation is in the *base*: a provider whose observed writes are
/// far from its advertised model gets a deadline grounded in reality.
pub fn write_hedge_deadline_us(
    infra: &Infrastructure,
    provider: ProviderId,
    latency: &LatencyModel,
    chunk_bytes: u64,
    config: &HedgeConfig,
) -> u64 {
    infra
        .observed_write_percentile_with_min(
            provider,
            config.observed_percentile,
            config.min_observed_samples,
        )
        .unwrap_or_else(|| latency.expected_us(chunk_bytes))
        .saturating_mul(config.deadline_multiplier as u64)
        .max(config.min_deadline_us)
}

/// A failed parallel upload: which provider broke the write, and how.
/// Already-uploaded chunks have been rolled back by the time this is
/// returned; the caller decides whether to re-place and retry.
#[derive(Debug)]
pub struct WriteFailure {
    /// The provider whose upload failed (`None` when the failure was not
    /// attributable to one provider, e.g. an encoding error).
    pub provider: Option<ProviderId>,
    /// The underlying error.
    pub error: ScaliaError,
}

impl From<WriteFailure> for ScaliaError {
    fn from(failure: WriteFailure) -> ScaliaError {
        failure.error
    }
}

// ---------------------------------------------------------------------------
// Fan-out
// ---------------------------------------------------------------------------

/// Runs one provider round-trip per job — `round_trip(backend, provider,
/// item)`, the backend resolved here — and returns the results in input
/// order. The jobs go to the pool only if one of their backends really
/// waits in wall-clock time; otherwise there is nothing to overlap and they
/// run on the calling thread, in order (see "Virtual time, real time" in
/// the module docs).
fn fan_out<T: Sync, R: Send>(
    infra: &Infrastructure,
    jobs: &[(ProviderId, T)],
    round_trip: impl Fn(Option<&SimulatedStore>, ProviderId, &T) -> R + Send + Sync,
) -> Vec<R> {
    type Resolved<'a, T> = (Option<Arc<SimulatedStore>>, &'a (ProviderId, T));
    let resolved: Vec<Resolved<T>> = jobs.iter().map(|job| (infra.backend(job.0), job)).collect();
    let run =
        |(backend, (provider, item)): &Resolved<T>| round_trip(backend.as_deref(), *provider, item);
    let backends = resolved.iter().filter_map(|(backend, _)| backend.as_ref());
    if backends
        .into_iter()
        .any(|backend| backend.real_sleep_enabled())
    {
        resolved.par_iter().map(run).collect()
    } else {
        resolved.iter().map(run).collect()
    }
}

// ---------------------------------------------------------------------------
// Upload
// ---------------------------------------------------------------------------

enum UploadOutcome {
    Uploaded {
        location: ChunkLocation,
        us: u64,
    },
    Failed(ProviderId, ScaliaError),
    /// Skipped because another upload had already failed.
    Aborted,
}

/// Encodes `data` for `placement` and uploads one chunk per provider under
/// the default upload-hedge policy. See [`write_chunks_with`].
pub fn write_chunks(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    data: &Bytes,
) -> std::result::Result<StripingMeta, WriteFailure> {
    write_chunks_with(infra, placement, skey, data, &HedgeConfig::default())
}

/// Encodes `data` for `placement` and uploads one chunk per provider
/// (`fan_out`). On the first hard failure the remaining uploads
/// are aborted, every chunk that already landed is deleted again (or queued
/// as a postponed delete), and the failing provider is reported to the
/// failure detector and returned in the [`WriteFailure`]. An upload
/// exceeding its hedge deadline ([`write_hedge_deadline_us`] — the observed
/// PUT p95 once warm, a modelled multiple until then) counts as a failure
/// of its provider: the landed chunk is rolled back so the caller can
/// re-place the write without the straggler.
pub fn write_chunks_with(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    data: &Bytes,
    config: &HedgeConfig,
) -> std::result::Result<StripingMeta, WriteFailure> {
    let params = placement.erasure_params();
    let encoded = encode_object(data, params).map_err(|error| WriteFailure {
        provider: None,
        error,
    })?;
    upload_encoded(infra, placement, skey, &encoded, config)
}

/// Uploads an already-encoded object's chunks, one per provider of
/// `placement`, with abort-on-first-failure and rollback —
/// the upload half of [`write_chunks_with`], split out so the streaming
/// pipeline can encode stripe `k+1` while stripe `k`'s chunks are in
/// flight.
pub fn upload_encoded(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    encoded: &EncodedObject,
    config: &HedgeConfig,
) -> std::result::Result<StripingMeta, WriteFailure> {
    upload(infra, placement, skey, encoded, config, true).map(|write| write.striping)
}

/// The upload behind both faces. `strict` aborts on the first failure —
/// uploads not yet started are skipped — and needs every chunk to land;
/// otherwise every chunk is attempted and `m` suffice. Short of that, what
/// did land is rolled back and the first (lowest-index) failure returned.
fn upload(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    encoded: &EncodedObject,
    config: &HedgeConfig,
    strict: bool,
) -> std::result::Result<PartialWrite, WriteFailure> {
    let abort = strict.then(|| AtomicBool::new(false));
    let pairs = encoded.chunks.iter().zip(&placement.providers);
    let jobs: Vec<_> = pairs.map(|pair| (pair.1.id, pair)).collect();
    let outcomes = fan_out(infra, &jobs, |backend, _, (chunk, provider)| {
        upload_one(
            infra,
            backend,
            chunk,
            provider,
            skey,
            abort.as_ref(),
            config,
        )
    });

    let mut locations: Vec<ChunkLocation> = Vec::with_capacity(jobs.len());
    let mut failed: Vec<(ProviderId, ScaliaError)> = Vec::new();
    let mut makespan_us = 0u64;
    for outcome in outcomes {
        match outcome {
            UploadOutcome::Uploaded { location, us } => {
                locations.push(location);
                makespan_us = makespan_us.max(us);
            }
            UploadOutcome::Failed(provider, error) => failed.push((provider, error)),
            UploadOutcome::Aborted => {}
        }
    }
    let striping = StripingMeta::single(locations, placement.m, skey.to_string());
    let needed = if strict {
        jobs.len()
    } else {
        placement.m.max(1) as usize
    };
    if striping.chunks.len() < needed {
        let landed = striping.all_chunk_refs();
        fan_out(infra, &landed, |backend, provider, chunk_key| {
            delete_or_postpone(infra, backend, provider, chunk_key)
        });
        let (provider, error) = failed
            .into_iter()
            .next()
            .expect("a chunk that did not land failed or followed a failure");
        return Err(WriteFailure {
            provider: Some(provider),
            error,
        });
    }
    // The put's virtual makespan is the slowest chunk upload — the critical
    // path of the fan-out, not the sum of the round-trips.
    infra.record_io_latency(StoreOp::Put, makespan_us);
    Ok(PartialWrite { striping, failed })
}

fn upload_one(
    infra: &Infrastructure,
    backend: Option<&SimulatedStore>,
    chunk: &Chunk,
    provider: &ProviderDescriptor,
    skey: &str,
    abort: Option<&AtomicBool>,
    config: &HedgeConfig,
) -> UploadOutcome {
    if abort.is_some_and(|a| a.load(Ordering::SeqCst)) {
        return UploadOutcome::Aborted;
    }
    let chunk_key = format!("{skey}.{}", chunk.index);
    let failed = |error| {
        if let Some(abort) = abort {
            abort.store(true, Ordering::SeqCst);
        }
        UploadOutcome::Failed(provider.id, error)
    };
    let Some(backend) = backend else {
        return failed(ScaliaError::ProviderUnavailable(provider.id));
    };
    let deadline_us = write_hedge_deadline_us(
        infra,
        provider.id,
        &provider.latency,
        chunk.data.len() as u64,
        config,
    );
    let (result, us) = backend.timed_put(&chunk_key, chunk.data.clone());
    match result {
        Ok(()) if us > deadline_us => {
            // The upload landed but blew its hedge deadline: a provider
            // stalling far beyond its recent (or modelled) write behaviour.
            // Waiting it out made this write's makespan `us` already; treat
            // it as a failed-slow provider so the caller re-places the
            // *next* attempt without it. The landed chunk is rolled back —
            // the striping that will be committed must not reference it.
            // The overrun itself still feeds the observation window (it is
            // a real, successful round-trip — evidence the deadline should
            // widen if this is the provider's new normal).
            infra.record_provider_write_latency(provider.id, us);
            let error = ScaliaError::Internal(format!(
                "chunk PUT to provider {} took {us}µs, past its {deadline_us}µs hedge deadline",
                provider.id
            ));
            infra.report_provider_failure(provider.id, &error);
            delete_or_postpone(infra, Some(backend), provider.id, &chunk_key);
            failed(error)
        }
        Ok(()) => {
            infra.report_provider_success(provider.id);
            infra.record_provider_write_latency(provider.id, us);
            let location = ChunkLocation {
                index: chunk.index,
                provider: provider.id,
            };
            UploadOutcome::Uploaded { location, us }
        }
        Err(error) => {
            infra.report_provider_failure(provider.id, &error);
            failed(error)
        }
    }
}

// ---------------------------------------------------------------------------
// Tolerant (degraded-capable) upload
// ---------------------------------------------------------------------------

/// A tolerant upload's outcome: the striping over every chunk that
/// landed (original erasure indices preserved) plus the providers whose
/// chunk did not.
#[derive(Debug)]
pub struct PartialWrite {
    /// Striping over the surviving chunks only. Degraded iff
    /// `striping.chunks.len()` is below the placement width.
    pub striping: StripingMeta,
    /// Providers whose chunk did not land, with the error each produced.
    pub failed: Vec<(ProviderId, ScaliaError)>,
}

/// Encodes `data` for `placement` and uploads one chunk per provider
/// **without** abort-on-first-failure: every upload is attempted
/// and the write survives as long as at least `m` chunks land. This is the
/// degraded-write fallback of [`crate::engine::Engine::put`] — once
/// re-placement is exhausted, the caller checks the surviving subset
/// against the rule's availability floor and, if it passes, commits the
/// partial striping with a durability debt for the repair queue to
/// backfill. If fewer than `m` chunks land, the landed ones are rolled back
/// and the first failure is returned, exactly like [`write_chunks_with`].
pub fn write_chunks_tolerant(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    data: &Bytes,
    config: &HedgeConfig,
) -> std::result::Result<PartialWrite, WriteFailure> {
    let params = placement.erasure_params();
    let encoded = encode_object(data, params).map_err(|error| WriteFailure {
        provider: None,
        error,
    })?;
    upload_encoded_tolerant(infra, placement, skey, &encoded, config)
}

/// The upload half of [`write_chunks_tolerant`] for an already-encoded
/// object — the streaming pipeline's degraded-landing fallback per stripe.
pub fn upload_encoded_tolerant(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    encoded: &EncodedObject,
    config: &HedgeConfig,
) -> std::result::Result<PartialWrite, WriteFailure> {
    upload(infra, placement, skey, encoded, config, false)
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

/// Deletes every chunk of a striping, postponing chunks whose provider is
/// unreachable ("the deletion of the chunk residing at a faulty provider is
/// postponed until the provider recovers", §III-D3). Striped objects delete
/// every stripe's chunks in one fan-out.
pub fn delete_chunks(infra: &Infrastructure, striping: &StripingMeta) {
    let refs = striping.all_chunk_refs();
    if refs.is_empty() {
        return;
    }
    let latencies = fan_out(infra, &refs, |backend, provider, chunk_key| {
        delete_or_postpone(infra, backend, provider, chunk_key)
    });
    let makespan = latencies.into_iter().max().unwrap_or(0);
    infra.record_io_latency(StoreOp::Delete, makespan);
}

/// Deletes one chunk, falling back to a postponed delete when the provider
/// is down or the delete fails. Returns the virtual latency paid.
fn delete_or_postpone(
    infra: &Infrastructure,
    backend: Option<&SimulatedStore>,
    provider: ProviderId,
    chunk_key: &str,
) -> u64 {
    let attempted = backend
        .filter(|b| b.is_up())
        .map(|b| b.timed_delete(chunk_key));
    match attempted {
        Some((Ok(()), us)) => us,
        Some((Err(_), us)) => {
            infra.postpone_delete(provider, chunk_key.to_string());
            us
        }
        None => {
            infra.postpone_delete(provider, chunk_key.to_string());
            0
        }
    }
}

// ---------------------------------------------------------------------------
// Hedged first-m-of-n read
// ---------------------------------------------------------------------------

/// One fetch task's report back to the controller.
struct FetchReply {
    slot: usize,
    result: Result<Bytes>,
    us: u64,
}

/// The rendezvous between detached fetch tasks and the controller (only
/// fetches that really wait are detached).
#[derive(Default)]
struct FetchBoard {
    replies: Mutex<Vec<FetchReply>>,
    cv: Condvar,
    /// Detached fetches some thread has begun to run — a statistic the
    /// controller compares with the number it launched (`Relaxed`: it
    /// publishes nothing).
    started: AtomicUsize,
}

impl FetchBoard {
    fn push(&self, reply: FetchReply) {
        self.replies.lock().unwrap().push(reply);
        self.cv.notify_all();
    }

    fn take(&self) -> Vec<FetchReply> {
        std::mem::take(&mut *self.replies.lock().unwrap())
    }

    /// Parks briefly unless a reply is already waiting, and returns whether
    /// one is now. The short timeout bounds the reaction time to wall-clock
    /// hedge deadlines (real-sleep mode) without busy-spinning.
    fn wait_brief(&self) -> bool {
        let guard = self.replies.lock().unwrap();
        if !guard.is_empty() {
            return true;
        }
        let (guard, _) = self
            .cv
            .wait_timeout(guard, Duration::from_micros(500))
            .unwrap();
        !guard.is_empty()
    }
}

/// One launched fetch.
struct Slot {
    candidate: usize,
    virt_start_us: u64,
    deadline_us: u64,
    real_start: Instant,
    hedged: bool,
    done: bool,
}

/// One ranked fetch candidate: where the chunk lives and how fast its
/// provider is modelled to answer (all `Copy` — the descriptor itself is
/// not needed past ranking).
#[derive(Clone, Copy)]
struct Candidate {
    location: ChunkLocation,
    latency: LatencyModel,
}

struct HedgedRead<'a> {
    infra: &'a Arc<Infrastructure>,
    striping: &'a StripingMeta,
    config: &'a HedgeConfig,
    chunk_bytes: u64,
    /// Chunk locations and their latency models, cheapest-read first.
    candidates: Vec<Candidate>,
    /// Where pool tasks report; created by the first fetch that needs one.
    board: Option<Arc<FetchBoard>>,
    /// Fetches handed to the pool so far. Non-zero once any involved store
    /// really sleeps its latency: the read then hedges by wall clock.
    detached: usize,
    /// Replies not yet folded into the timeline (see [`Self::run`]).
    pending: Vec<FetchReply>,
    slots: Vec<Slot>,
    next_candidate: usize,
    /// Successful fetches: (virtual completion time, chunk).
    oks: Vec<(u64, Chunk)>,
    /// Latest virtual event time observed, used to timestamp late launches.
    virtual_frontier_us: u64,
}

impl<'a> HedgedRead<'a> {
    /// Launches the next-ranked candidate (skipping providers with no
    /// backend, which are reported as hard failures). A fetch whose backend
    /// really waits is detached onto the pool and reports to the board; a
    /// virtual one has nothing to wait for, runs here and lands in
    /// `pending`. Either way the fetch itself reports its outcome to the
    /// failure detector, so a straggler that errors *after* the read already
    /// returned still accumulates failure evidence (the controller only
    /// folds replies into the timeline).
    fn launch_next(&mut self, virt_start_us: u64) {
        while self.next_candidate < self.candidates.len() {
            let candidate = self.candidates[self.next_candidate];
            self.next_candidate += 1;
            let provider = candidate.location.provider;
            let Some(backend) = self.infra.backend(provider) else {
                self.infra
                    .report_provider_failure(provider, &ScaliaError::ProviderUnavailable(provider));
                continue;
            };
            let really_waits = backend.real_sleep_enabled();
            let deadline_us = hedge_deadline_us(
                self.infra,
                provider,
                &candidate.latency,
                self.chunk_bytes,
                self.config,
            );
            let slot = self.slots.len();
            self.slots.push(Slot {
                candidate: self.next_candidate - 1,
                virt_start_us,
                deadline_us,
                real_start: Instant::now(),
                hedged: false,
                done: false,
            });
            let chunk_key = self.striping.chunk_key(candidate.location.index);
            let infra = Arc::clone(self.infra);
            let fetch = move || {
                let (result, us) = backend.timed_get(&chunk_key);
                match &result {
                    Ok(_) => {
                        infra.report_provider_success(provider);
                        // Feed the observed-latency summary the placement
                        // ranking and future hedge deadlines adapt to. A
                        // straggler that lands after the read returned
                        // still counts — slow providers cannot hide behind
                        // the hedge.
                        infra.record_provider_read_latency(provider, us);
                    }
                    // §III-D3: feed the failure detector instead of
                    // silently skipping the provider. Error round-trips pay
                    // only the base RTT and carry no payload, so they do
                    // NOT feed the latency summary — a refusing provider
                    // must not look fast.
                    Err(error) => infra.report_provider_failure(provider, error),
                }
                FetchReply { slot, result, us }
            };
            if really_waits {
                let board = Arc::clone(self.board.get_or_insert_with(Default::default));
                self.detached += 1;
                rayon::spawn(move || {
                    board.started.fetch_add(1, Ordering::Relaxed);
                    board.push(fetch())
                });
            } else {
                self.pending.push(fetch());
            }
            return;
        }
    }

    /// Folds one reply into the hedging timeline (the detector was already
    /// fed by the fetch task itself).
    fn process(&mut self, reply: FetchReply) {
        let (candidate, virt_start_us, deadline_us, hedged) = {
            let slot = &mut self.slots[reply.slot];
            slot.done = true;
            (
                slot.candidate,
                slot.virt_start_us,
                slot.deadline_us,
                slot.hedged,
            )
        };
        match reply.result {
            Ok(bytes) => {
                let completion = virt_start_us + reply.us;
                self.virtual_frontier_us = self.virtual_frontier_us.max(completion);
                let index = self.candidates[candidate].location.index;
                self.oks.push((completion, Chunk::new(index, bytes)));
                // The fetch succeeded but blew its deadline: in the hedged
                // timeline a parity fetch was already launched at the
                // deadline — launch it now (virtual mode learns about the
                // overrun only when the reply lands; real mode has usually
                // hedged already via the wall clock, `hedged` dedupes).
                if reply.us > deadline_us && !hedged {
                    self.slots[reply.slot].hedged = true;
                    self.launch_next(virt_start_us + deadline_us);
                }
            }
            Err(_) => {
                // Promote the next-ranked parity provider at the moment the
                // error was observed — unless this slot was already hedged
                // past its wall-clock deadline, in which case its
                // replacement is in flight and a second promotion would
                // burn (and bill) a candidate for nothing.
                let failed_at = virt_start_us + reply.us;
                self.virtual_frontier_us = self.virtual_frontier_us.max(failed_at);
                if !hedged {
                    self.slots[reply.slot].hedged = true;
                    self.launch_next(failed_at);
                }
            }
        }
    }

    /// Promotes parity for every in-flight fetch that exceeded its hedge
    /// deadline in *wall-clock* time (only meaningful when stores really
    /// sleep their latency).
    fn hedge_overdue_by_wall_clock(&mut self) {
        for slot_index in 0..self.slots.len() {
            let (due, virt_hedge_start) = {
                let slot = &self.slots[slot_index];
                let overdue = !slot.done
                    && !slot.hedged
                    && slot.real_start.elapsed() >= Duration::from_micros(slot.deadline_us);
                (overdue, slot.virt_start_us + slot.deadline_us)
            };
            if due {
                self.slots[slot_index].hedged = true;
                self.launch_next(virt_hedge_start);
            }
        }
    }

    fn run(mut self, m: usize) -> Result<Vec<Chunk>> {
        // Race the cheapest m providers.
        for _ in 0..m {
            self.launch_next(0);
        }
        // Virtual mode holds the generation's replies in `pending` — every
        // launch has already run by the time the loop looks — and folds them
        // in *virtual-completion* order (ties by slot index). Hedge
        // promotions — which consume ranked candidates and stamp their
        // launch times — thereby replay the simulated timeline, whatever
        // order the fetches were issued in. Real-sleep mode keeps arrival
        // order: there the wall clock is the race.
        loop {
            let wall_clock = self.detached > 0;
            if wall_clock {
                // Also flushes any virtual replies buffered before a late
                // launch flipped the read into wall-clock mode.
                let arrived = self.board.as_ref().map(|b| b.take()).unwrap_or_default();
                for reply in std::mem::take(&mut self.pending).into_iter().chain(arrived) {
                    self.process(reply);
                }
            }
            let undone = self.slots.iter().filter(|s| !s.done).count();
            if !wall_clock {
                if !self.pending.is_empty() {
                    let mut replies = std::mem::take(&mut self.pending);
                    replies.sort_by_key(|reply| {
                        (self.slots[reply.slot].virt_start_us + reply.us, reply.slot)
                    });
                    for reply in replies {
                        self.process(reply);
                    }
                    continue; // processing may have launched hedges
                }
                // Quiesced with nothing buffered: the hedge timeline is
                // settled and the winners are the m earliest *virtual*
                // completions — otherwise a virtually-slow fetch would
                // "win" merely by being processed first.
                if self.oks.len() >= m {
                    break;
                }
                if self.next_candidate < self.candidates.len() {
                    let frontier = self.virtual_frontier_us;
                    self.launch_next(frontier);
                    continue;
                }
                break; // nothing in flight, nothing left to try
            }
            // Wall-clock mode: the first m arrivals win and stragglers stay
            // detached.
            if self.oks.len() >= m {
                break;
            }
            if undone == 0 {
                if self.next_candidate < self.candidates.len() {
                    let frontier = self.virtual_frontier_us;
                    self.launch_next(frontier);
                    continue;
                }
                break;
            }
            // Promote parity past overdue deadlines, then park until the
            // next reply (or the short timeout).
            self.hedge_overdue_by_wall_clock();
            if let Some(board) = self.board.as_ref().filter(|_| self.pending.is_empty()) {
                // A fetch nobody has begun by then has no worker to run it:
                // reads issued from inside pool tasks can occupy every pool
                // thread with controllers like this one, each waiting for
                // the others. Run a queued task here instead — it stalls
                // this read's hedging for one round-trip, which a pool with
                // no free thread could not have served anyway.
                if !board.wait_brief() && board.started.load(Ordering::Relaxed) < self.detached {
                    rayon::yield_now();
                }
            }
        }

        if self.oks.len() < m {
            return Err(ScaliaError::NotEnoughChunks {
                available: self.oks.len(),
                required: m,
            });
        }
        // First m completions of the hedged timeline win; the read's
        // makespan is the slowest of the winners.
        self.oks.sort_by_key(|(completion, _)| *completion);
        let makespan = self.oks[m - 1].0;
        self.infra.record_io_latency(StoreOp::Get, makespan);
        Ok(self
            .oks
            .into_iter()
            .take(m)
            .map(|(_, chunk)| chunk)
            .collect())
    }
}

/// Fetches any `m` of the striping's `n` chunks with a hedged race over the
/// cheapest providers (see the module docs for the full protocol). Records
/// the read's virtual makespan and feeds every per-provider outcome into
/// the failure detector.
pub fn fetch_chunks(
    infra: &Arc<Infrastructure>,
    striping: &StripingMeta,
    object_size: ByteSize,
    config: &HedgeConfig,
) -> Result<Vec<Chunk>> {
    let m = striping.m.max(1) as usize;
    // Rank chunk locations by the read cost of their provider first (the
    // seed's order, so billing ties break exactly as before), then by
    // *expected read latency* — the observed summary when the provider has
    // enough recent samples, the advertised model otherwise. The sort is
    // stable, so on a latency-free catalog (every key 0) the fan-out is
    // still the static price order; once observations accumulate, a
    // slow-but-cheap provider drops to parity rank and the fast providers
    // are raced first. The descriptors (one unavoidable clone each, made by
    // the catalog lookup) live only as long as the ranking; the race itself
    // needs just the `Copy` location + latency model.
    let mut locations: Vec<ChunkLocation> = Vec::with_capacity(striping.chunks.len());
    let mut descriptors: Vec<ProviderDescriptor> = Vec::with_capacity(striping.chunks.len());
    for location in &striping.chunks {
        if let Some(descriptor) = infra.catalog().get(location.provider) {
            locations.push(*location);
            descriptors.push(descriptor);
        }
    }
    let chunk_gb = object_size.as_gb() / striping.m.max(1) as f64;
    let chunk_bytes = chunk_bytes_for(object_size, striping.m);
    let mut order = cheapest_read_providers(&descriptors, locations.len() as u32, chunk_gb);
    // Precompute the latency keys (one lock acquisition each, none held
    // while sorting) — the sample floor is the hedging policy's, so
    // ranking and deadlines trust observations under the same conditions.
    let latency_keys: Vec<u64> = locations
        .iter()
        .zip(descriptors.iter())
        .map(|(location, descriptor)| {
            infra
                .observed_read_percentile_with_min(
                    location.provider,
                    config.observed_percentile,
                    config.min_observed_samples,
                )
                .unwrap_or_else(|| descriptor.latency.expected_us(chunk_bytes))
        })
        .collect();
    order.sort_by_key(|&i| latency_keys[i]);
    let candidates: Vec<Candidate> = order
        .into_iter()
        .map(|i| Candidate {
            location: locations[i],
            latency: descriptors[i].latency,
        })
        .collect();

    let read = HedgedRead {
        infra,
        striping,
        config,
        chunk_bytes,
        candidates,
        board: None,
        detached: 0,
        pending: Vec::new(),
        slots: Vec::new(),
        next_candidate: 0,
        oks: Vec::new(),
        virtual_frontier_us: 0,
    };
    let chunks = read.run(m)?;
    Ok(chunks)
}

/// Fetches any `m` chunks of one erasure group — a classic object's single
/// chunk set, or one stripe's (`view`) — with the hedged race, decodes them
/// straight into `out` (whose length is the group's plaintext length) and
/// verifies the result against `checksum`, the content checksum stored in
/// the metadata when the group was written.
///
/// This is the only way bytes leave the providers for a client: a provider
/// that returns damaged bytes fails the read ([`ScaliaError::DecodeFailed`])
/// instead of reaching the caller or the cache.
fn read_group_into(
    infra: &Arc<Infrastructure>,
    view: &StripingMeta,
    checksum: &str,
    out: &mut [u8],
    config: &HedgeConfig,
) -> Result<()> {
    // `code_width()`, not `chunks.len()`: a degraded striping keeps the
    // surviving chunks' original erasure indices, and the decoder must see
    // the width those indices were encoded under.
    let params = ErasureParams::new(view.m, view.code_width())
        .ok_or_else(|| ScaliaError::Internal("invalid striping metadata".into()))?;
    let chunks = fetch_chunks(infra, view, ByteSize::from_bytes(out.len() as u64), config)?;
    decode_object_into(&chunks, params, out)?;
    if checksum_hex(out) != checksum {
        return Err(ScaliaError::DecodeFailed(format!(
            "the bytes decoded from chunks {}.* fail their stored checksum",
            view.skey
        )));
    }
    Ok(())
}

/// Fetches chunks with [`fetch_chunks`] and reassembles the object,
/// tolerating up to `n − m` failed or straggling providers. One output
/// buffer is allocated up front; striped objects fetch and decode stripe by
/// stripe — each stripe runs its own hedged `m`-of-`n` race, lands directly
/// in its window of the output and is checksum-verified there — so the
/// transient working set beyond the output buffer is the `m` fetched chunks
/// of one stripe. A classic object is its own single stripe, verified
/// against the object checksum.
pub fn fetch_and_reassemble(
    infra: &Arc<Infrastructure>,
    meta: &ObjectMeta,
    config: &HedgeConfig,
) -> Result<Bytes> {
    let striping = &meta.striping;
    let Some(map) = &striping.stripes else {
        let mut out = vec![0u8; meta.size.bytes() as usize];
        read_group_into(infra, striping, &meta.checksum, &mut out, config)?;
        return Ok(Bytes::from(out));
    };
    let mut out = vec![0u8; map.total_len() as usize];
    let mut rest = &mut out[..];
    for (i, stripe) in map.stripes.iter().enumerate() {
        let (window, tail) = rest.split_at_mut(stripe.len as usize);
        read_group_into(
            infra,
            &striping.stripe_view(i),
            &stripe.checksum,
            window,
            config,
        )?;
        rest = tail;
    }
    Ok(Bytes::from(out))
}

/// Fetches and decodes one stripe of a striped object with the hedged
/// `m`-of-`n` race, verifying the stripe's recorded plaintext checksum.
pub fn fetch_stripe(
    infra: &Arc<Infrastructure>,
    striping: &StripingMeta,
    index: usize,
    config: &HedgeConfig,
) -> Result<Bytes> {
    let map = striping
        .stripes
        .as_ref()
        .ok_or_else(|| ScaliaError::Internal("fetch_stripe on single-stripe object".into()))?;
    let stripe = &map.stripes[index];
    let mut out = vec![0u8; stripe.len as usize];
    read_group_into(
        infra,
        &striping.stripe_view(index),
        &stripe.checksum,
        &mut out,
        config,
    )?;
    Ok(Bytes::from(out))
}

/// Fetches only the chunks needed to serve the byte range
/// `[offset, offset + len)` of an object: for a striped object just the
/// covering stripes (each still a hedged `m`-of-`n` race); for a classic
/// single-stripe object its one chunk set. Checksums cover whole stripes,
/// so a stripe the range only touches part of is decoded and verified in
/// full before the requested window is cut from it — no byte is returned
/// that a stored checksum did not vouch for. The result equals the same
/// slice of a full read, clamped to the object's end — an empty or past-EOF
/// range is empty bytes.
pub fn fetch_range(
    infra: &Arc<Infrastructure>,
    meta: &ObjectMeta,
    offset: u64,
    len: u64,
    config: &HedgeConfig,
) -> Result<Bytes> {
    let size = meta.size.bytes();
    let end = offset.saturating_add(len).min(size);
    if offset >= end {
        return Ok(Bytes::new());
    }
    let striping = &meta.striping;
    let Some(map) = &striping.stripes else {
        // The single stripe IS the covering stripe.
        let whole = fetch_and_reassemble(infra, meta, config)?;
        return Ok(whole.slice(offset as usize..end as usize));
    };
    let mut out = vec![0u8; (end - offset) as usize];
    let mut rest = &mut out[..];
    for i in map.covering(offset, end) {
        let stripe = &map.stripes[i];
        let stripe_start = map.stripe_offset(i);
        let from = (offset.max(stripe_start) - stripe_start) as usize;
        let to = (end - stripe_start).min(stripe.len) as usize;
        let (window, tail) = rest.split_at_mut(to - from);
        if to - from == stripe.len as usize {
            // Whole stripe needed: decode and verify it in place.
            read_group_into(
                infra,
                &striping.stripe_view(i),
                &stripe.checksum,
                window,
                config,
            )?;
        } else {
            window.copy_from_slice(&fetch_stripe(infra, striping, i, config)?[from..to]);
        }
        rest = tail;
    }
    Ok(Bytes::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::backend::ObjectStore;
    use scalia_providers::catalog::ProviderCatalog;
    use scalia_types::time::Duration as SimDuration;

    fn infra() -> Arc<Infrastructure> {
        Infrastructure::new(ProviderCatalog::paper_catalog(), 1, SimDuration::HOUR)
    }

    fn placement_of(infra: &Infrastructure, count: usize, m: u32) -> Placement {
        Placement {
            providers: infra.catalog().all().into_iter().take(count).collect(),
            m,
        }
    }

    fn stored_total(infra: &Infrastructure) -> u64 {
        infra
            .backends()
            .iter()
            .map(|b| b.stored_bytes().bytes())
            .sum()
    }

    #[test]
    fn parallel_write_places_one_chunk_per_provider() {
        let infra = infra();
        let placement = placement_of(&infra, 3, 2);
        let data = Bytes::from(vec![5u8; 90_000]);
        let striping = write_chunks(&infra, &placement, "skey-w", &data).unwrap();
        assert_eq!(striping.chunks.len(), 3);
        assert_eq!(striping.m, 2);
        // Locations come back in chunk-index order regardless of which
        // upload finished first.
        for (i, location) in striping.chunks.iter().enumerate() {
            assert_eq!(location.index, i as u32);
            assert_eq!(location.provider, placement.providers[i].id);
        }
        // One put recorded at the object level.
        assert_eq!(infra.io_latency_snapshot(StoreOp::Put).count, 1);
        // And the payload reassembles.
        let chunks = fetch_chunks(
            &infra,
            &striping,
            ByteSize::from_bytes(90_000),
            &HedgeConfig::default(),
        )
        .unwrap();
        assert_eq!(chunks.len(), 2);
    }

    #[test]
    fn failed_upload_rolls_back_landed_chunks_and_names_the_provider() {
        let infra = infra();
        let placement = placement_of(&infra, 3, 2);
        let victim = placement.providers[1].id;
        infra.backend(victim).unwrap().set_down(true);

        let data = Bytes::from(vec![7u8; 60_000]);
        let failure = write_chunks(&infra, &placement, "skey-x", &data).unwrap_err();
        assert_eq!(failure.provider, Some(victim));
        assert!(matches!(
            failure.error,
            ScaliaError::ProviderUnavailable(p) if p == victim
        ));
        assert_eq!(
            stored_total(&infra),
            0,
            "chunks that landed before the failure must be rolled back"
        );
        // §III-D3: the hard failure marked the provider unavailable.
        assert!(!infra.catalog().is_available(victim));
    }

    #[test]
    fn tolerant_write_survives_a_down_provider_and_reassembles() {
        let infra = infra();
        let placement = placement_of(&infra, 4, 2);
        let victim = placement.providers[2].id;
        infra.backend(victim).unwrap().set_down(true);

        let data = Bytes::from(vec![6u8; 80_000]);
        let partial =
            write_chunks_tolerant(&infra, &placement, "skey-t", &data, &HedgeConfig::default())
                .unwrap();
        assert_eq!(partial.striping.chunks.len(), 3, "3 of 4 chunks landed");
        assert_eq!(partial.failed.len(), 1);
        assert_eq!(partial.failed[0].0, victim);
        assert!(partial.striping.chunks.iter().all(|c| c.provider != victim));
        // The degraded striping reads back through the normal hedged path.
        let chunks = fetch_chunks(
            &infra,
            &partial.striping,
            ByteSize::from_bytes(80_000),
            &HedgeConfig::default(),
        )
        .unwrap();
        assert_eq!(chunks.len(), 2);

        // With fewer than m survivors the tolerant write rolls back and
        // fails like the strict one.
        for provider in placement.providers.iter().take(3) {
            infra.backend(provider.id).unwrap().set_down(true);
        }
        let err = write_chunks_tolerant(
            &infra,
            &placement,
            "skey-t2",
            &data,
            &HedgeConfig::default(),
        )
        .unwrap_err();
        assert!(err.provider.is_some());
        let last = placement.providers[3].id;
        assert!(
            !infra.backend(last).unwrap().exists("skey-t2.3").unwrap(),
            "the lone surviving chunk must be rolled back"
        );
    }

    #[test]
    fn hedged_read_promotes_parity_past_a_dead_ranked_provider() {
        let infra = infra();
        let placement = placement_of(&infra, 4, 2);
        let data = Bytes::from(vec![9u8; 120_000]);
        let striping = write_chunks(&infra, &placement, "skey-h", &data).unwrap();

        // Kill the cheapest-ranked provider (the one a sequential reader
        // would contact first).
        let descriptors: Vec<ProviderDescriptor> = striping
            .chunks
            .iter()
            .filter_map(|c| infra.catalog().get(c.provider))
            .collect();
        let chunk_gb = ByteSize::from_bytes(120_000).as_gb() / 2.0;
        let ranked = cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb);
        let victim = striping.chunks[ranked[0]].provider;
        infra.backend(victim).unwrap().set_down(true);

        let chunks = fetch_chunks(
            &infra,
            &striping,
            ByteSize::from_bytes(120_000),
            &HedgeConfig::default(),
        )
        .unwrap();
        assert_eq!(chunks.len(), 2);
        let encoded = encode_object(&data, placement.erasure_params()).unwrap();
        assert!(
            chunks.iter().all(|c| encoded.chunks.contains(c)),
            "fetched chunks must be the bytes that were uploaded"
        );
        // The read reported the dead provider to the failure detector.
        assert!(!infra.catalog().is_available(victim));
    }

    #[test]
    fn hedged_read_does_not_wait_out_a_stalled_provider() {
        let infra = infra();
        let placement = placement_of(&infra, 3, 1);
        let data = Bytes::from(vec![3u8; 40_000]);
        let striping = write_chunks(&infra, &placement, "skey-s", &data).unwrap();

        let descriptors: Vec<ProviderDescriptor> = striping
            .chunks
            .iter()
            .filter_map(|c| infra.catalog().get(c.provider))
            .collect();
        let chunk_gb = ByteSize::from_bytes(40_000).as_gb();
        let ranked = cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb);
        let stalled = striping.chunks[ranked[0]].provider;
        let parity = striping.chunks[ranked[1]].provider;

        // The ranked provider limps: 10 virtual seconds per request.
        const STALL_US: u64 = 10_000_000;
        infra.backend(stalled).unwrap().set_stall_us(STALL_US);
        let parity_gets_before = infra
            .backend(parity)
            .unwrap()
            .latency_snapshot(scalia_providers::backend::StoreOp::Get)
            .count;

        let chunks = fetch_chunks(
            &infra,
            &striping,
            ByteSize::from_bytes(40_000),
            &HedgeConfig::default(),
        )
        .unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].data, data, "1-of-3: every chunk is the payload");

        // The hedge promoted the parity provider…
        let parity_gets_after = infra
            .backend(parity)
            .unwrap()
            .latency_snapshot(scalia_providers::backend::StoreOp::Get)
            .count;
        assert!(
            parity_gets_after > parity_gets_before,
            "the parity provider must have been raced"
        );
        // …and the read's virtual makespan beat the stall by a wide margin.
        let read = infra.io_latency_snapshot(StoreOp::Get);
        assert!(read.count >= 1);
        assert!(
            read.max_us < STALL_US / 2,
            "read makespan {}µs must not wait out the {}µs stall",
            read.max_us,
            STALL_US
        );
    }

    #[test]
    fn hedge_deadline_tightens_once_observations_accumulate() {
        use crate::infra::OBSERVED_MIN_SAMPLES;
        let infra = infra();
        let provider = infra.catalog().all()[0].id;
        // A ~30 ms provider with healthy jitter: p95 of real round-trips
        // sits near 1.1× nominal, far under the 3× modelled fallback.
        let model = LatencyModel::new(30, 0, 10, 7);
        let config = HedgeConfig::default();
        let cold = hedge_deadline_us(&infra, provider, &model, 1_000, &config);
        assert_eq!(cold, 3 * 30_000, "cold deadline is the modelled multiple");

        for salt in 0..4 * OBSERVED_MIN_SAMPLES {
            infra.record_provider_read_latency(provider, model.sample_us(1_000, salt));
        }
        let warm = hedge_deadline_us(&infra, provider, &model, 1_000, &config);
        assert!(
            warm < cold && warm >= 30_000 * 9 / 10,
            "warm deadline {warm} must tighten to the observed p95, not below the floor"
        );
        // The fixed-deadline baseline ignores the observations entirely.
        assert_eq!(
            hedge_deadline_us(
                &infra,
                provider,
                &model,
                1_000,
                &HedgeConfig::fixed_deadline()
            ),
            cold
        );
        // And the 2 ms floor still holds for near-instant providers.
        assert_eq!(
            hedge_deadline_us(
                &infra,
                provider,
                &LatencyModel::ZERO,
                0,
                &HedgeConfig::fixed_deadline()
            ),
            2_000
        );
    }

    #[test]
    fn observed_slow_provider_is_demoted_out_of_the_initial_fanout() {
        use crate::infra::OBSERVED_MIN_SAMPLES;
        let infra = infra();
        let placement = placement_of(&infra, 3, 1);
        let data = Bytes::from(vec![8u8; 50_000]);
        let striping = write_chunks(&infra, &placement, "skey-rank", &data).unwrap();

        // The price-ranked first choice develops a bad observed record.
        let chunk_gb = ByteSize::from_bytes(50_000).as_gb();
        let descriptors: Vec<ProviderDescriptor> = striping
            .chunks
            .iter()
            .filter_map(|c| infra.catalog().get(c.provider))
            .collect();
        let ranked = cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb);
        let tainted = striping.chunks[ranked[0]].provider;
        for _ in 0..2 * OBSERVED_MIN_SAMPLES {
            infra.record_provider_read_latency(tainted, 500_000);
        }

        let gets_before = infra
            .backend(tainted)
            .unwrap()
            .latency_snapshot(StoreOp::Get)
            .count;
        let chunks = fetch_chunks(
            &infra,
            &striping,
            ByteSize::from_bytes(50_000),
            &HedgeConfig::default(),
        )
        .unwrap();
        assert_eq!(chunks.len(), 1);
        let gets_after = infra
            .backend(tainted)
            .unwrap()
            .latency_snapshot(StoreOp::Get)
            .count;
        assert_eq!(
            gets_before, gets_after,
            "the observed-slow provider must be demoted to parity rank and never contacted"
        );
    }

    #[test]
    fn read_fails_cleanly_when_too_few_chunks_survive() {
        let infra = infra();
        let placement = placement_of(&infra, 3, 2);
        let data = Bytes::from(vec![1u8; 30_000]);
        let striping = write_chunks(&infra, &placement, "skey-f", &data).unwrap();
        for provider in striping.providers().into_iter().take(2) {
            infra.backend(provider).unwrap().set_down(true);
        }
        let err = fetch_chunks(
            &infra,
            &striping,
            ByteSize::from_bytes(30_000),
            &HedgeConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ScaliaError::NotEnoughChunks {
                available: 1,
                required: 2
            }
        ));
    }

    #[test]
    fn parallel_delete_removes_everything_and_postpones_on_outage() {
        let infra = infra();
        let placement = placement_of(&infra, 3, 2);
        let data = Bytes::from(vec![2u8; 45_000]);
        let striping = write_chunks(&infra, &placement, "skey-d", &data).unwrap();
        let victim = striping.chunks[0].provider;
        infra.backend(victim).unwrap().set_down(true);

        delete_chunks(&infra, &striping);
        assert_eq!(infra.pending_delete_count(), 1, "down provider postpones");
        let survivors: u64 = infra
            .backends()
            .iter()
            .filter(|b| b.descriptor().id != victim)
            .map(|b| b.stored_bytes().bytes())
            .sum();
        assert_eq!(survivors, 0, "reachable providers delete immediately");
        assert_eq!(infra.io_latency_snapshot(StoreOp::Delete).count, 1);

        infra.backend(victim).unwrap().set_down(false);
        infra.retry_pending_deletes();
        assert_eq!(stored_total(&infra), 0);
    }
}
