//! Unified chunk I/O: every provider round-trip of the data path.
//!
//! Scalia stores an object as `n` erasure-coded chunks on `n` providers and
//! serves it back from the best `m` of them (§III-D). Until this layer
//! existed, each life-cycle hand-rolled its own sequential provider loop —
//! a put summed `n` round-trips, a get summed `m`, and no scenario could
//! observe a slow provider at all. All four call sites (write, read, delete
//! and the repair/migration path through
//! [`crate::engine::Engine::replace_placement`]) now route through this
//! module, one stripe — one erasure group — at a time. A group's
//! round-trips are concurrent in virtual time, so the group costs its
//! slowest member, not their sum (see "Virtual time" below):
//!
//! * [`upload`] — **fanned-out upload** of one already-encoded stripe, one
//!   round-trip per chunk. *Strict* (every first landing attempt): the
//!   first provider error stops the upload — later chunks are not sent —
//!   and every chunk must land. *Tolerant* (the degraded landing, once
//!   re-placement is exhausted): every chunk is attempted and the stripe
//!   survives with any `k ≥ m` of its `n` chunks; the caller decides
//!   whether the surviving subset clears the rule's availability floor.
//!   Short of what it needs, either rolls back every chunk that did land
//!   (deleted, or queued as a postponed delete if the provider is
//!   unreachable) and returns the failing provider — already reported to
//!   the failure detector — so the write can be re-placed on the remaining
//!   providers.
//! * [`fetch_chunks`] — **hedged first-`m`-of-`n` read**: the best `m`
//!   providers are raced — ranked by expected read latency
//!   ([`ProviderDescriptor::read_latency_us`], the function placement
//!   prices with: the p95 the last tick published, the advertised model
//!   otherwise), with the read-price order breaking latency ties — so a
//!   provider the last tick saw being slow is demoted to parity rank while
//!   a latency-free catalog keeps the seed's exact price order. The moment
//!   any raced fetch errors, or outlives its hedge deadline — the published
//!   p95, `HEDGE_MULTIPLIER` × the modelled latency while none is
//!   published ([`hedge_deadline_us`]) — the next-ranked parity provider is
//!   promoted into the race. The read returns as soon as `m` chunks are in
//!   hand; a straggler's reply is simply unneeded. Every outcome feeds the
//!   failure detector (§III-D3); every success, and every provider the
//!   ranking put behind the raced `m`, feeds the observatory
//!   ([`Infrastructure::with_observatory`]), which the next clock advance
//!   publishes: that closes the adaptation loop.
//! * `delete_chunks` — **fanned-out delete** with the postponed-delete
//!   semantics for unreachable providers.
//! * `fetch_and_reassemble` / `fetch_stripe` / `fetch_range` — the
//!   object-level reads over the stripe map, three faces of one verified
//!   read (`read_stripes`): each stripe they touch is fetched (hedged
//!   `m`-of-`n`), decoded and verified on its own, and a range read touches
//!   only the stripes that cover its byte window.
//!
//! # Integrity
//!
//! Chunks carry no checksum of their own. A read builds its output with
//! `Vec::with_capacity` — no byte of it is zero-filled first — and appends
//! each stripe's data shards onto it in index order through
//! [`scalia_types::checksum::Xxh64::append`], which hashes every block as it
//! reads it back from the output: decode, copy and verification are **one
//! pass per byte**, and the digest covers exactly the bytes returned. The
//! digest is compared with the content checksum stored in the metadata
//! when the stripe was written *before the next stripe is fetched*; only a
//! stripe missing a data shard is rebuilt from parity
//! ([`scalia_erasure::codec::decode_object_into`]) and then hashed. A
//! mismatch fails the read closed; it is never served and never cached.
//!
//! # Virtual time
//!
//! Latencies are *virtual*: deterministic microseconds from each provider's
//! [`scalia_providers::latency::LatencyModel`], a function of `(key,
//! bytes)`. A round-trip is a map insert and a counter bump that *reports*
//! how long it would have taken; nothing waits. Every round-trip therefore
//! runs on the calling thread, in order, and a fan-out's recorded makespan
//! is its slowest member.
//!
//! The hedged read is one discrete-event loop over that virtual time. Each
//! launch runs its fetch at once — side effects (bills, detector reports,
//! observations) happen in launch order — and schedules the fetch's
//! *reply* at `start + latency` and, when the latency outlives the
//! deadline, its *deadline* at `start + deadline`. The loop pops events in
//! time order (at one instant a reply before a deadline, then by launch):
//! a deadline, or a reply carrying an error, promotes the next-ranked
//! candidate at that instant, and the read ends at the reply that puts the
//! `m`-th chunk in hand. A fetch is replaced at most once — an erroring
//! fetch that already passed its deadline was replaced there — and no
//! deadline that passes after the read is served launches anything.
//!
//! What a round-trip observes is recorded, never read back within the tick:
//! read ranking (from the catalog descriptors) and every hedge deadline
//! (from the observatory's view) come from what the last clock advance
//! published (see "One latency view per tick" in [`crate::infra`]), not
//! from the live observation windows. An operation's hedging timeline, its
//! recorded makespan and the bills it causes are therefore a function of
//! its inputs and the last tick alone — the same whether it ran first or
//! last in its tick, on one client thread or several; a strict upload that
//! fails skips precisely the chunks after the failed one.
//!
//! The object-level makespans (critical path of the fan-out, not the sum of
//! round-trips) are recorded into the deployment-wide per-operation latency
//! histograms ([`Infrastructure::io_latency_snapshot`]).

use crate::infra::Infrastructure;
use bytes::Bytes;
use scalia_core::cost::{cheapest_read_providers, chunk_bytes_for};
use scalia_core::placement::Placement;
use scalia_erasure::codec::{decode_object_append, Chunk, EncodedObject};
use scalia_providers::backend::StoreOp;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_providers::observatory::LatencyView;
use scalia_types::checksum::{parse_checksum_hex, Xxh64};
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::ProviderId;
use scalia_types::object::{ChunkLocation, ObjectMeta, StripeMeta};
use scalia_types::size::ByteSize;
use scalia_types::ErasureParams;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// A hedge deadline is this multiple of a latency estimate: of the modelled
/// latency while no p95 is published, and of the published write p95.
pub(crate) const HEDGE_MULTIPLIER: u64 = 3;

/// Floor of every hedge deadline, in virtual microseconds, so zero-latency
/// catalogs (the default) never hedge on latency — only on errors.
pub(crate) const MIN_HEDGE_DEADLINE_US: u64 = 2_000;

/// The hedge deadline of one chunk fetch from `provider`: the read p95 in
/// the last tick's `view`, or `HEDGE_MULTIPLIER` × the modelled latency
/// for the chunk size while none is published — floored at
/// `MIN_HEDGE_DEADLINE_US` either way. The published p95 is tighter than
/// the modelled multiple for any healthy provider (≈ 1.1× nominal vs 3×),
/// so deadlines tighten once a tick has observed the provider.
pub fn hedge_deadline_us(
    view: &LatencyView<ProviderId>,
    provider: &ProviderDescriptor,
    chunk_bytes: u64,
) -> u64 {
    view.read_us(&provider.id)
        .unwrap_or_else(|| {
            provider
                .latency
                .expected_us(chunk_bytes)
                .saturating_mul(HEDGE_MULTIPLIER)
        })
        .max(MIN_HEDGE_DEADLINE_US)
}

/// The upload hedge deadline of one chunk-PUT to `provider`:
/// `HEDGE_MULTIPLIER` × the write p95 in the last tick's `view`, or × the
/// modelled latency while none is published — floored at
/// `MIN_HEDGE_DEADLINE_US`. An upload that outlives this
/// deadline is treated as a failed-slow provider: the chunk is rolled back
/// and the write re-placed on the remaining providers, so a provider
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
    view: &LatencyView<ProviderId>,
    provider: &ProviderDescriptor,
    chunk_bytes: u64,
) -> u64 {
    view.write_us(&provider.id)
        .unwrap_or_else(|| provider.latency.expected_us(chunk_bytes))
        .saturating_mul(HEDGE_MULTIPLIER)
        .max(MIN_HEDGE_DEADLINE_US)
}

/// A failed parallel upload: which provider broke the write, and how.
/// Already-uploaded chunks have been rolled back by the time this is
/// returned; the caller decides whether to re-place and retry.
#[derive(Debug)]
pub struct WriteFailure {
    /// The provider whose upload failed.
    pub provider: ProviderId,
    /// The underlying error.
    pub error: ScaliaError,
}

impl From<WriteFailure> for ScaliaError {
    fn from(failure: WriteFailure) -> ScaliaError {
        failure.error
    }
}

// ---------------------------------------------------------------------------
// Upload
// ---------------------------------------------------------------------------

/// Uploads an already-encoded stripe's chunks, one per provider of
/// `placement`, under `{skey}.{chunk index}`, and returns where they landed,
/// in chunk-index order. `strict` stops at the first failure — later chunks
/// are not sent — and needs every chunk to land; otherwise every chunk is
/// attempted and `m` suffice (a *degraded* landing: fewer locations than
/// providers, original erasure indices kept). Short of that, what did land
/// is rolled back — deleted again, or queued as a postponed delete — and the
/// first (lowest-index) failure is returned, its provider already reported
/// to the failure detector. An upload exceeding its hedge deadline
/// ([`write_hedge_deadline_us`] — the observed PUT p95 once warm, a modelled
/// multiple until then) counts as a failure of its provider: the landed
/// chunk is rolled back so the caller can re-place the write without the
/// straggler.
pub fn upload(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    encoded: &EncodedObject,
    strict: bool,
) -> std::result::Result<Vec<ChunkLocation>, WriteFailure> {
    let mut locations: Vec<ChunkLocation> = Vec::with_capacity(encoded.chunks.len());
    let mut first_failure: Option<WriteFailure> = None;
    let mut makespan_us = 0u64;
    for (chunk, provider) in encoded.chunks.iter().zip(&placement.providers) {
        match upload_one(infra, chunk, provider, skey) {
            Ok((location, us)) => {
                locations.push(location);
                makespan_us = makespan_us.max(us);
            }
            Err(error) => {
                first_failure.get_or_insert(WriteFailure {
                    provider: provider.id,
                    error,
                });
                if strict {
                    break;
                }
            }
        }
    }
    let landed_enough = if strict {
        first_failure.is_none()
    } else {
        locations.len() >= placement.m.max(1) as usize
    };
    if !landed_enough {
        for location in &locations {
            let chunk_key = format!("{skey}.{}", location.index);
            delete_or_postpone(infra, location.provider, &chunk_key);
        }
        return Err(first_failure.expect("a stripe short of chunks had a failed upload"));
    }
    // The put's virtual makespan is the slowest chunk upload — the critical
    // path of the fan-out, not the sum of the round-trips.
    infra.record_io_latency(StoreOp::Put, makespan_us);
    Ok(locations)
}

/// Uploads one chunk; on success returns where it landed and the virtual
/// latency paid.
fn upload_one(
    infra: &Infrastructure,
    chunk: &Chunk,
    provider: &ProviderDescriptor,
    skey: &str,
) -> Result<(ChunkLocation, u64)> {
    let Some(backend) = infra.backend(provider.id) else {
        return Err(ScaliaError::ProviderUnavailable(provider.id));
    };
    let chunk_key = format!("{skey}.{}", chunk.index);
    let chunk_bytes = chunk.data.len() as u64;
    let deadline_us =
        infra.with_observatory(|o| write_hedge_deadline_us(o.published(), provider, chunk_bytes));
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
            // a real, successful round-trip — evidence the next tick's
            // deadline should widen if this is the provider's new normal).
            infra.with_observatory(|o| o.record_write(provider.id, us));
            let error = ScaliaError::Internal(format!(
                "chunk PUT to provider {} took {us}µs, past its {deadline_us}µs hedge deadline",
                provider.id
            ));
            infra.report_provider_failure(provider.id, &error);
            delete_or_postpone(infra, provider.id, &chunk_key);
            Err(error)
        }
        Ok(()) => {
            infra.report_provider_success(provider.id);
            infra.with_observatory(|o| o.record_write(provider.id, us));
            let location = ChunkLocation {
                index: chunk.index,
                provider: provider.id,
            };
            Ok((location, us))
        }
        Err(error) => {
            infra.report_provider_failure(provider.id, &error);
            Err(error)
        }
    }
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

/// Deletes every chunk of `stripes` in one fan-out, postponing chunks whose
/// provider is unreachable ("the deletion of the chunk residing at a faulty
/// provider is postponed until the provider recovers", §III-D3).
pub(crate) fn delete_chunks(infra: &Infrastructure, stripes: &[StripeMeta]) {
    let mut refs = stripes.iter().flat_map(StripeMeta::chunk_refs).peekable();
    if refs.peek().is_none() {
        return;
    }
    let makespan = refs
        .map(|(provider, chunk_key)| delete_or_postpone(infra, provider, &chunk_key))
        .max()
        .unwrap_or(0);
    infra.record_io_latency(StoreOp::Delete, makespan);
}

/// Deletes one chunk, falling back to a postponed delete when the provider
/// is down or the delete fails. Returns the virtual latency paid.
fn delete_or_postpone(infra: &Infrastructure, provider: ProviderId, chunk_key: &str) -> u64 {
    let attempted = infra
        .backend(provider)
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

/// One ranked fetch candidate: where the chunk lives and its hedge deadline
/// (both `Copy` — the descriptor itself is not needed past ranking).
#[derive(Clone, Copy)]
struct Candidate {
    location: ChunkLocation,
    deadline_us: u64,
}

/// One launched fetch: its chunk index, its reply until the loop takes it,
/// and whether it outlived its deadline (and was replaced there).
struct Fetch {
    index: u32,
    reply: Option<Result<Bytes>>,
    overran: bool,
}

/// What happens to a launched fetch at an instant of the read's timeline.
/// At one instant a reply comes before a deadline: a reply landing exactly
/// at the deadline is in time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Reply,
    Deadline,
}

/// The hedged read's discrete-event loop (see "Virtual time" in the module
/// docs).
struct HedgedRead<'a> {
    infra: &'a Infrastructure,
    stripe: &'a StripeMeta,
    /// Chunk locations and their hedge deadlines, cheapest-read first, not
    /// yet launched.
    candidates: std::vec::IntoIter<Candidate>,
    /// Launched fetches, in launch order.
    fetches: Vec<Fetch>,
    /// Pending events: (virtual time, event, fetch), earliest first.
    events: BinaryHeap<Reverse<(u64, Event, usize)>>,
}

impl HedgedRead<'_> {
    /// Launches the next-ranked candidate at virtual time `at_us`, skipping
    /// providers with no backend (reported as hard failures). The fetch
    /// runs here and reports its outcome to the failure detector at once,
    /// so a straggler whose reply the read never needs still accumulates
    /// evidence; the loop only schedules its reply (and deadline).
    fn launch_next(&mut self, at_us: u64) {
        for candidate in self.candidates.by_ref() {
            let provider = candidate.location.provider;
            let Some(backend) = self.infra.backend(provider) else {
                self.infra
                    .report_provider_failure(provider, &ScaliaError::ProviderUnavailable(provider));
                continue;
            };
            let (reply, us) = backend.timed_get(&self.stripe.chunk_key(candidate.location.index));
            match &reply {
                Ok(_) => {
                    self.infra.report_provider_success(provider);
                    // Feed the observation window the next tick publishes
                    // for placement, ranking and deadlines. A straggler the
                    // read no longer needs still counts — slow providers
                    // cannot hide behind the hedge.
                    self.infra.with_observatory(|o| o.record_read(provider, us));
                }
                // §III-D3: feed the failure detector instead of silently
                // skipping the provider. Error round-trips pay only the
                // base RTT and carry no payload, so they do NOT feed the
                // latency summary — a refusing provider must not look fast.
                Err(error) => self.infra.report_provider_failure(provider, error),
            }
            let fetch = self.fetches.len();
            let overran = us > candidate.deadline_us;
            self.fetches.push(Fetch {
                index: candidate.location.index,
                reply: Some(reply),
                overran,
            });
            self.events.push(Reverse((at_us + us, Event::Reply, fetch)));
            if overran {
                let deadline = at_us + candidate.deadline_us;
                self.events
                    .push(Reverse((deadline, Event::Deadline, fetch)));
            }
            return;
        }
    }

    /// Races the `m` best-ranked candidates at time 0 and runs the timeline
    /// until `m` chunks are in hand; the read's makespan is the instant the
    /// `m`-th arrived.
    fn run(mut self, m: usize) -> Result<Vec<Chunk>> {
        for _ in 0..m {
            self.launch_next(0);
        }
        let mut chunks = Vec::with_capacity(m);
        while let Some(Reverse((at_us, event, fetch))) = self.events.pop() {
            let fetch = &mut self.fetches[fetch];
            let promote = match event {
                Event::Deadline => true,
                Event::Reply => match fetch.reply.take().expect("one reply per fetch") {
                    Ok(bytes) => {
                        chunks.push(Chunk::new(fetch.index, bytes));
                        if chunks.len() == m {
                            self.infra.record_io_latency(StoreOp::Get, at_us);
                            return Ok(chunks);
                        }
                        false
                    }
                    // An overrun fetch was replaced at its deadline already.
                    Err(_) => !fetch.overran,
                },
            };
            if promote {
                self.launch_next(at_us);
            }
        }
        Err(ScaliaError::NotEnoughChunks {
            available: chunks.len(),
            required: m,
        })
    }
}

/// Fetches any `m` of the stripe's `n` chunks with a hedged race over the
/// cheapest providers (see the module docs for the full protocol). Records
/// the read's virtual makespan and feeds every per-provider outcome into
/// the failure detector. `stripe_len` is the stripe's plaintext length.
pub fn fetch_chunks(
    infra: &Infrastructure,
    stripe: &StripeMeta,
    stripe_len: ByteSize,
) -> Result<Vec<Chunk>> {
    let m = stripe.m.max(1) as usize;
    // Rank chunk locations by the read cost of their provider first (the
    // seed's order, so billing ties break exactly as before), then by
    // *expected read latency* — the p95 the last tick published, the
    // advertised model otherwise. The sort is stable, so on a latency-free
    // catalog (every key 0) the fan-out is still the static price order;
    // once a tick publishes a slow-but-cheap provider, it drops to parity
    // rank and the fast providers are raced first. The descriptors (one
    // unavoidable clone each, made by the catalog lookup) live only as long
    // as the ranking; the race itself needs just the `Copy` location and
    // deadline.
    let mut locations: Vec<ChunkLocation> = Vec::with_capacity(stripe.chunks.len());
    let mut descriptors: Vec<ProviderDescriptor> = Vec::with_capacity(stripe.chunks.len());
    for location in &stripe.chunks {
        if let Some(descriptor) = infra.catalog().get(location.provider) {
            locations.push(*location);
            descriptors.push(descriptor);
        }
    }
    let chunk_gb = stripe_len.as_gb() / stripe.m.max(1) as f64;
    let chunk_bytes = chunk_bytes_for(stripe_len, stripe.m);
    let mut order = cheapest_read_providers(&descriptors, locations.len() as u32, chunk_gb);
    order.sort_by_key(|&i| descriptors[i].read_latency_us(chunk_bytes));
    // One lock: the providers ranked behind the `m` raced first are passed
    // over (they keep their published p95, see the observatory's
    // "Forgiveness"), and every candidate's deadline comes from the view.
    let candidates: Vec<Candidate> = infra.with_observatory(|observatory| {
        for &i in order.iter().skip(m) {
            observatory.record_passed_over(locations[i].provider);
        }
        let view = observatory.published();
        order
            .iter()
            .map(|&i| Candidate {
                location: locations[i],
                deadline_us: hedge_deadline_us(view, &descriptors[i], chunk_bytes),
            })
            .collect()
    });

    HedgedRead {
        infra,
        stripe,
        candidates: candidates.into_iter(),
        fetches: Vec::new(),
        events: BinaryHeap::new(),
    }
    .run(m)
}

/// Reads stripes `stripes` of an object onto one output buffer of exactly
/// their total plaintext length — the one way bytes leave the providers for
/// a client.
///
/// Stripe by stripe, in order: any `m` chunks are fetched with the hedged
/// race ([`fetch_chunks`]), appended onto the buffer and hashed in the same
/// pass ([`decode_object_append`]), and the digest is compared with the
/// stripe's stored checksum *before the next stripe is fetched*. A provider
/// that returns damaged bytes fails the read ([`ScaliaError::DecodeFailed`])
/// instead of reaching the caller or the cache; the transient working set
/// beyond the output buffer is the `m` fetched chunks of one stripe.
fn read_stripes(
    infra: &Infrastructure,
    meta: &ObjectMeta,
    stripes: Range<usize>,
) -> Result<Vec<u8>> {
    let size = meta.size.bytes();
    let striping = &meta.striping;
    let total: u64 = stripes.clone().map(|i| striping.stripe_len(i, size)).sum();
    let mut out = Vec::with_capacity(total as usize);
    for i in stripes {
        let stripe = striping.stripe_view(i);
        let len = striping.stripe_len(i, size);
        // `code_width()`, not `chunks.len()`: a degraded stripe keeps the
        // surviving chunks' original erasure indices, and the decoder must
        // see the width those indices were encoded under.
        let params = ErasureParams::new(stripe.m, stripe.code_width())
            .ok_or_else(|| ScaliaError::Internal("invalid striping metadata".into()))?;
        let chunks = fetch_chunks(infra, stripe, ByteSize::from_bytes(len))?;
        let mut checksum = Xxh64::new();
        decode_object_append(&chunks, params, len as usize, &mut out, &mut checksum)?;
        if parse_checksum_hex(&stripe.checksum) != Some(checksum.digest()) {
            return Err(ScaliaError::DecodeFailed(format!(
                "the bytes decoded from chunks {}.* fail their stored checksum",
                stripe.skey
            )));
        }
    }
    Ok(out)
}

/// Reassembles the whole object, tolerating up to `n − m` failed or
/// straggling providers per stripe (`read_stripes` over every stripe).
pub(crate) fn fetch_and_reassemble(infra: &Infrastructure, meta: &ObjectMeta) -> Result<Bytes> {
    let out = read_stripes(infra, meta, 0..meta.striping.stripe_count())?;
    if out.len() as u64 != meta.size.bytes() {
        return Err(short_stripe_map(meta));
    }
    Ok(Bytes::from(out))
}

/// No stored checksum vouches for bytes past the last recorded stripe, so a
/// read that would need them fails closed.
fn short_stripe_map(meta: &ObjectMeta) -> ScaliaError {
    ScaliaError::DecodeFailed(format!(
        "the stripe map of {} is shorter than the object",
        meta.key
    ))
}

/// Fetches and decodes stripe `index` of an object with the hedged
/// `m`-of-`n` race, verifying the stripe's recorded plaintext checksum.
pub(crate) fn fetch_stripe(
    infra: &Infrastructure,
    meta: &ObjectMeta,
    index: usize,
) -> Result<Bytes> {
    read_stripes(infra, meta, index..index + 1).map(Bytes::from)
}

/// Fetches only the chunks needed to serve the byte range
/// `[offset, offset + len)` of an object: those of the covering stripes
/// (each still a hedged `m`-of-`n` race). Checksums cover whole stripes, so
/// every covering stripe is read and verified in full (`read_stripes`)
/// and the range is a shared slice of that verified buffer — no byte is
/// returned that a stored checksum did not vouch for, and none is copied
/// twice; the slice keeps the covering stripes' buffer alive. The result
/// equals the same slice of a full read, clamped to the object's end — an
/// empty or past-EOF range is empty bytes and fetches nothing.
pub(crate) fn fetch_range(
    infra: &Infrastructure,
    meta: &ObjectMeta,
    offset: u64,
    len: u64,
) -> Result<Bytes> {
    let end = offset.saturating_add(len).min(meta.size.bytes());
    if offset >= end {
        return Ok(Bytes::new());
    }
    let striping = &meta.striping;
    let covering = striping.covering(offset, end);
    if striping.stripe_offset(covering.end) < end {
        return Err(short_stripe_map(meta));
    }
    let start = striping.stripe_offset(covering.start);
    let stripes = Bytes::from(read_stripes(infra, meta, covering)?);
    Ok(stripes.slice((offset - start) as usize..(end - start) as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_erasure::codec::encode_object;
    use scalia_providers::catalog::ProviderCatalog;
    use scalia_types::checksum::checksum_hex;
    use scalia_types::time::Duration as SimDuration;
    use std::sync::Arc;

    fn infra() -> Arc<Infrastructure> {
        Infrastructure::new(ProviderCatalog::paper_catalog(), 1, SimDuration::HOUR)
    }

    fn placement_of(infra: &Infrastructure, count: usize, m: u32) -> Placement {
        Placement {
            providers: infra.catalog().all().into_iter().take(count).collect(),
            m,
        }
    }

    /// Encodes `data` for `placement` and uploads it as one stripe.
    fn write(
        infra: &Infrastructure,
        placement: &Placement,
        skey: &str,
        data: &[u8],
        strict: bool,
    ) -> std::result::Result<StripeMeta, WriteFailure> {
        let encoded = encode_object(data, placement.erasure_params()).unwrap();
        let chunks = upload(infra, placement, skey, &encoded, strict)?;
        Ok(StripeMeta {
            chunks,
            m: placement.m,
            checksum: checksum_hex(data),
            skey: skey.to_string(),
        })
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
        let data = vec![5u8; 90_000];
        let stripe = write(&infra, &placement, "skey-w", &data, true).unwrap();
        assert_eq!(stripe.chunks.len(), 3);
        assert_eq!(stripe.m, 2);
        // Locations come back in chunk-index order regardless of which
        // upload finished first.
        for (i, location) in stripe.chunks.iter().enumerate() {
            assert_eq!(location.index, i as u32);
            assert_eq!(location.provider, placement.providers[i].id);
        }
        // One put recorded at the object level.
        assert_eq!(infra.io_latency_snapshot(StoreOp::Put).count, 1);
        // And the payload reassembles.
        let chunks = fetch_chunks(&infra, &stripe, ByteSize::from_bytes(90_000)).unwrap();
        assert_eq!(chunks.len(), 2);
    }

    #[test]
    fn failed_upload_rolls_back_landed_chunks_and_names_the_provider() {
        let infra = infra();
        let placement = placement_of(&infra, 3, 2);
        let victim = placement.providers[1].id;
        infra.backend(victim).unwrap().set_down(true);

        let data = vec![7u8; 60_000];
        let failure = write(&infra, &placement, "skey-x", &data, true).unwrap_err();
        assert_eq!(failure.provider, victim);
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

        let data = vec![6u8; 80_000];
        let partial = write(&infra, &placement, "skey-t", &data, false).unwrap();
        assert_eq!(partial.chunks.len(), 3, "3 of 4 chunks landed");
        assert!(partial.chunks.iter().all(|c| c.provider != victim));
        assert_eq!(partial.code_width(), 4, "original erasure indices kept");
        // The degraded stripe reads back through the normal hedged path.
        let chunks = fetch_chunks(&infra, &partial, ByteSize::from_bytes(80_000)).unwrap();
        assert_eq!(chunks.len(), 2);

        // With fewer than m survivors the tolerant write rolls back and
        // fails like the strict one.
        for provider in placement.providers.iter().take(3) {
            infra.backend(provider.id).unwrap().set_down(true);
        }
        write(&infra, &placement, "skey-t2", &data, false).unwrap_err();
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
        let data = vec![9u8; 120_000];
        let stripe = write(&infra, &placement, "skey-h", &data, true).unwrap();

        // Kill the cheapest-ranked provider (the one a sequential reader
        // would contact first).
        let descriptors: Vec<ProviderDescriptor> = stripe
            .chunks
            .iter()
            .filter_map(|c| infra.catalog().get(c.provider))
            .collect();
        let chunk_gb = ByteSize::from_bytes(120_000).as_gb() / 2.0;
        let ranked = cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb);
        let victim = stripe.chunks[ranked[0]].provider;
        infra.backend(victim).unwrap().set_down(true);

        let chunks = fetch_chunks(&infra, &stripe, ByteSize::from_bytes(120_000)).unwrap();
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
        let data = vec![3u8; 40_000];
        let stripe = write(&infra, &placement, "skey-s", &data, true).unwrap();

        let descriptors: Vec<ProviderDescriptor> = stripe
            .chunks
            .iter()
            .filter_map(|c| infra.catalog().get(c.provider))
            .collect();
        let chunk_gb = ByteSize::from_bytes(40_000).as_gb();
        let ranked = cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb);
        let stalled = stripe.chunks[ranked[0]].provider;
        let parity = stripe.chunks[ranked[1]].provider;

        // The ranked provider limps: 10 virtual seconds per request.
        const STALL_US: u64 = 10_000_000;
        infra.backend(stalled).unwrap().set_stall_us(STALL_US);
        let parity_gets_before = infra
            .backend(parity)
            .unwrap()
            .latency_snapshot(scalia_providers::backend::StoreOp::Get)
            .count;

        let chunks = fetch_chunks(&infra, &stripe, ByteSize::from_bytes(40_000)).unwrap();
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
        use scalia_providers::latency::LatencyModel;
        use scalia_providers::observatory::OBSERVED_MIN_SAMPLES;
        use scalia_types::time::SimTime;
        let infra = infra();
        let provider = infra.catalog().all()[0].id;
        // A ~30 ms provider with healthy jitter: p95 of real round-trips
        // sits near 1.1× nominal, far under the 3× modelled fallback.
        let model = LatencyModel::new(30, 0, 10, 7);
        let descriptor = infra.catalog().get(provider).unwrap().with_latency(model);
        let deadline =
            || infra.with_observatory(|o| hedge_deadline_us(o.published(), &descriptor, 1_000));
        let cold = deadline();
        assert_eq!(cold, 3 * 30_000, "cold deadline is the modelled multiple");

        for salt in 0..4 * OBSERVED_MIN_SAMPLES {
            let us = model.sample_us(1_000, salt);
            infra.with_observatory(|o| o.record_read(provider, us));
        }
        // Observations take effect at the next clock advance, not before.
        assert_eq!(deadline(), cold);
        infra.advance_clock(SimTime::from_hours(1));
        let warm = deadline();
        assert!(
            warm < cold && warm >= 30_000 * 9 / 10,
            "warm deadline {warm} must tighten to the observed p95, not below the floor"
        );
        // And the 2 ms floor still holds for near-instant providers.
        let instant = infra.catalog().get(infra.catalog().all()[1].id).unwrap();
        assert_eq!(
            infra.with_observatory(|o| hedge_deadline_us(o.published(), &instant, 0)),
            MIN_HEDGE_DEADLINE_US
        );
    }

    #[test]
    fn observed_slow_provider_is_demoted_out_of_the_initial_fanout() {
        use scalia_providers::observatory::OBSERVED_MIN_SAMPLES;
        use scalia_types::time::SimTime;
        let infra = infra();
        let placement = placement_of(&infra, 3, 1);
        let data = vec![8u8; 50_000];
        let stripe = write(&infra, &placement, "skey-rank", &data, true).unwrap();

        // The price-ranked first choice develops a bad observed record.
        let chunk_gb = ByteSize::from_bytes(50_000).as_gb();
        let descriptors: Vec<ProviderDescriptor> = stripe
            .chunks
            .iter()
            .filter_map(|c| infra.catalog().get(c.provider))
            .collect();
        let ranked = cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb);
        let tainted = stripe.chunks[ranked[0]].provider;
        for _ in 0..2 * OBSERVED_MIN_SAMPLES {
            infra.with_observatory(|o| o.record_read(tainted, 500_000));
        }
        infra.advance_clock(SimTime::from_hours(1));
        let convicted = infra.catalog().observed_read_latency(tainted);
        assert!(convicted.is_some());

        let gets = || {
            infra
                .backend(tainted)
                .unwrap()
                .latency_snapshot(StoreOp::Get)
                .count
        };
        let gets_before = gets();
        // Its evidence decays out two ticks later, but every read in
        // between ranked it out of the race: it is not forgiven for the
        // samples it was denied, so it is never contacted.
        for hour in 2..6 {
            let chunks = fetch_chunks(&infra, &stripe, ByteSize::from_bytes(50_000)).unwrap();
            assert_eq!(chunks.len(), 1);
            infra.advance_clock(SimTime::from_hours(hour));
            assert_eq!(infra.catalog().observed_read_latency(tainted), convicted);
        }
        assert_eq!(
            gets_before,
            gets(),
            "the observed-slow provider must be demoted to parity rank and never contacted"
        );
    }

    #[test]
    fn read_fails_cleanly_when_too_few_chunks_survive() {
        let infra = infra();
        let placement = placement_of(&infra, 3, 2);
        let data = vec![1u8; 30_000];
        let stripe = write(&infra, &placement, "skey-f", &data, true).unwrap();
        for provider in stripe.providers().into_iter().take(2) {
            infra.backend(provider).unwrap().set_down(true);
        }
        let err = fetch_chunks(&infra, &stripe, ByteSize::from_bytes(30_000)).unwrap_err();
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
        let data = vec![2u8; 45_000];
        let stripe = write(&infra, &placement, "skey-d", &data, true).unwrap();
        let victim = stripe.chunks[0].provider;
        infra.backend(victim).unwrap().set_down(true);

        delete_chunks(&infra, std::slice::from_ref(&stripe));
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
