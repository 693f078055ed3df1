//! The write path — every object, one stripe at a time — with its
//! multipart/append face, and range reads.
//!
//! Every object is a map of ≥ 1 fixed-size **stripes**
//! ([`crate::infra::Infrastructure::stripe_size_bytes`], 512 KiB by default;
//! an empty object is one empty stripe), each erasure-coded, placed, landed,
//! verified and repaired on its own. The stripe boundary is the only size
//! policy: an object no larger than one stripe is exactly the paper's
//! Fig. 11 record, anything larger is several of them.
//!
//! * **Put** — [`Engine::put`] is `begin_put_with_hint` → feed the whole
//!   payload → `complete_put`; multipart feeds it in parts. A stripe
//!   *opens* when its first byte arrives: it is placed (a cached decision)
//!   and given one staging buffer of exactly
//!   `m × shard_len` bytes ([`staged_len`]). Every byte is appended there
//!   through the hashing copy ([`Xxh64::append`]), so the stripe's checksum
//!   is read back from the very bytes that will be stored. The stripe
//!   *seals* once it is full (or at `complete_put`, for the tail): the
//!   stripe before it lands, then the staging buffer is padded in place,
//!   frozen and cut into the data chunks ([`encode_staged`]) — only parity
//!   is computed. So the order place `k` → land `k − 1` → encode `k`
//!   holds, peak transient buffering is O(stripe), never O(object), and
//!   each byte is copied once and hashed once. The object's checksum is no
//!   second pass over the bytes but the root over the stripe digests
//!   ([`object_checksum`]), taken at the commit over the digests kept at
//!   each seal.
//!   Dropping the part buffer, the per-shard copy and the second
//!   (whole-object) XXH64 context took the benchmark's `large_stream` put
//!   (8 MiB in 256 KiB parts, 16 stripes) from 2 212–2 447 to 1 185–
//!   1 359 µs p50 on the 2-vCPU Xeon host (medians of six batches of ten
//!   pairs over two seeds, 10/10 each); what is left of it is the
//!   copy-and-hash (≈ 55 %) and parity (≈ 25 %). Nothing overlaps the
//!   encode, which runs on the caller: landing a stripe
//!   ([`chunk_io::upload`]) is a few map inserts on the caller, whose chunk
//!   uploads overlap only in virtual time. Handing each encode to a worker
//!   thread to overlap the landing cost more than it hid: removing that
//!   hand-off alone took the same put from 3 009 to 2 681 µs p50 and its
//!   peak RSS from 73.8 to 62.0 MiB (10/10 alternating pairs, seed 1).
//! * **Multipart / append** — [`Engine::begin_put`], [`MultipartUpload::put_part`]
//!   and [`MultipartUpload::complete_put`] expose the same pipeline to
//!   callers that produce data incrementally. Parts may be any size; a part
//!   is staged where it lands in its stripe, and the stripe seals whenever
//!   a stripe's worth of bytes has accumulated. The assembled
//!   stripe map commits in **one** metastore transaction through the
//!   engine's one commit step (`Engine::commit_version`, a re-placement's
//!   too). A landing that fails, or a commit the metastore refuses (no
//!   database node up, so nothing is journaled), leaves nothing: the
//!   upload deletes every chunk it landed. A crash
//!   ([`ScaliaError::Crashed`]) deletes nothing, as a dead process would
//!   not: the previous version stands unless recovery redoes a logged
//!   commit, and [`crate::gc::sweep_orphan_chunks`] takes whatever chunks
//!   no record names.
//! * **Range reads** — [`Engine::get_range`] serves `[offset, offset+len)`
//!   by fetching only the covering stripes (each still a hedged
//!   `m`-of-`n` race), via `crate::chunk_io::fetch_range`.
//!
//! # Per-stripe durability semantics
//!
//! A stripe lands through one ladder (`MultipartUpload::land_stripe`):
//! fanned-out upload that stops at its first failure and rolls back, bounded
//! re-placement (capped by `crate::engine::WRITE_ATTEMPTS`) excluding the
//! failed provider, and — once re-placement is exhausted — a *degraded*
//! tolerant landing accepted iff `k ≥ m` chunks survive **and** the
//! surviving providers still clear the rule's availability floor. Degraded
//! stripes accumulate into one durability debt recorded (with its
//! repair-queue entry) atomically with the commit; the repair path migrates
//! objects stripe by stripe and its full-width commit settles the debt. A
//! put that cannot land a stripe rolls back every stripe that already did.
//!
//! # Chunk keys
//!
//! A put draws its version — the paper's UUID — when it begins, and stripe
//! 0 stores under the object's own storage key `skey`
//! ([`StripingMeta::storage_key`]: chunk `j` at `{skey}.{j}`, the paper's
//! key), stripe `i ≥ 1` under `{skey}.s{i}`. A landing **retry never reuses
//! a key**: a failed attempt's rollback may have postponed a chunk delete on
//! a provider that flapped down mid-rollback, and that delete fires
//! unconditionally on recovery — a retry under the same keys could land a
//! committed chunk exactly where the pending delete will strike. Every
//! retry of any stripe therefore draws a fresh version and derives its key
//! from that; the key a stripe finally landed under is recorded in
//! [`StripeMeta::skey`].

use crate::chunk_io;
use crate::engine::{Engine, WRITE_ATTEMPTS};
use bytes::Bytes;
use scalia_core::availability::get_availability;
use scalia_core::classify::ObjectClass;
use scalia_core::cost::PredictedUsage;
use scalia_core::placement::Placement;
use scalia_erasure::codec::{
    decode_object, encode_object, encode_staged, staged_len, EncodedObject,
};
use scalia_metastore::logagg::AccessKind;
use scalia_types::checksum::{object_checksum, Xxh64};
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::ProviderId;
use scalia_types::object::{
    ChunkLocation, ObjectKey, ObjectMeta, ObjectVersionId, StripeMeta, StripingMeta,
};
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use std::borrow::Borrow;
use std::sync::Arc;

/// Bound on metadata re-reads when a range read races MVCC garbage
/// collection (mirrors the retry bound of [`Engine::get`]).
const RANGE_READ_ATTEMPTS: usize = 3;

/// The stripe being filled: placed when its first byte arrived, its bytes
/// staged where its data chunks will be cut from.
struct OpenStripe {
    /// The placement this stripe will be encoded for.
    placement: Placement,
    /// The stripe's plaintext so far, in an allocation of
    /// [`staged_len`]`(expected length, m)` bytes that the seal pads and
    /// freezes in place.
    staged: Vec<u8>,
    /// Content checksum of `staged`, absorbed as each byte was appended.
    checksum: Xxh64,
}

/// One encoded-but-not-yet-landed stripe held by the pipeline. Holds only
/// the *encoded* chunks — the data chunks are the staged plaintext, which
/// the rare retry that needs to re-encode for a different placement
/// recovers from them ([`decode_object`]), so the pipeline never holds two
/// copies of a stripe's plaintext.
struct EncodedStripe {
    /// Stripe index within the object.
    index: usize,
    /// The placement this stripe is encoded for.
    placement: Placement,
    /// The encoded chunks.
    encoded: EncodedObject,
    /// Content checksum of the stripe plaintext (verified on every read).
    checksum: String,
}

impl EncodedStripe {
    /// The committed record of this stripe, landed at `chunks` under `skey`.
    fn landed(self, chunks: Vec<ChunkLocation>, skey: String) -> StripeMeta {
        StripeMeta {
            chunks,
            m: self.placement.m,
            checksum: self.checksum,
            skey,
        }
    }
}

/// The storage key of stripe `index` of the version whose storage key is
/// `skey` (see "Chunk keys" in the module docs).
pub(crate) fn stripe_skey(skey: String, index: usize) -> String {
    if index == 0 {
        skey
    } else {
        format!("{skey}.s{index}")
    }
}

/// An in-progress upload (see the module docs).
///
/// Obtain one with [`Engine::begin_put`], feed it with
/// [`MultipartUpload::put_part`] and finish with
/// [`MultipartUpload::complete_put`] (or discard it with
/// [`MultipartUpload::abort_put`]). Nothing is visible to readers until
/// `complete_put` commits; an upload dropped without completing leaves at
/// most orphaned chunks for the GC sweep, never a torn object.
///
/// The upload is generic over how it holds its engine: [`Engine::begin_put`]
/// borrows (`MultipartUpload<&Engine>`, the ergonomic default for inline
/// call sites), while [`Engine::begin_put_shared`] clones an [`Arc`] so the
/// upload can outlive the borrow — the front-end's upload-id registry keeps
/// sessions alive across requests this way.
pub struct MultipartUpload<E: Borrow<Engine> = Arc<Engine>> {
    engine: E,
    key: ObjectKey,
    /// `key`'s metadata row, computed once for the whole upload.
    row_key: String,
    mime: String,
    rule: StorageRule,
    ttl_hint_hours: Option<f64>,
    /// Size, class and usage fixed at `begin_put` (from the size hint when
    /// given): every stripe prices its placement identically.
    hint: ByteSize,
    class: ObjectClass,
    usage: PredictedUsage,
    /// Version allocated up front; every first landing attempt derives its
    /// stripe key from it.
    version: ObjectVersionId,
    stripe_size: usize,
    /// The stripe being filled (`None` between a seal and the next byte).
    open: Option<OpenStripe>,
    /// The content digest of every stripe sealed so far, in index order:
    /// the leaves of the object checksum ([`object_checksum`]).
    digests: Vec<u64>,
    total_len: u64,
    /// Stripes already landed at providers, in index order.
    stripes: Vec<StripeMeta>,
    /// The last encoded stripe: it lands once the next stripe is placed, or
    /// in `complete_put` (so placement, landing and encoding keep the order
    /// place `k` → land `k − 1` → encode `k`).
    in_hand: Option<EncodedStripe>,
    /// Chunks landed / wanted across all stripes; a shortfall becomes one
    /// durability debt at commit.
    have_total: u64,
    want_total: u64,
    peak_buffer_bytes: usize,
    failed: bool,
}

impl Engine {
    /// Starts a multipart upload (see [`crate::streaming`]). Parts fed via
    /// [`MultipartUpload::put_part`] may be any size; nothing becomes
    /// visible until [`MultipartUpload::complete_put`].
    pub fn begin_put(
        &self,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
    ) -> MultipartUpload<&Engine> {
        self.begin_put_with_hint(key, mime, rule, ttl_hint_hours, None)
    }

    /// [`Engine::begin_put`] with an expected total size. The hint only
    /// sharpens the class/usage prediction the per-stripe placement search
    /// prices with — the upload accepts any actual length.
    pub fn begin_put_with_hint(
        &self,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
        size_hint: Option<ByteSize>,
    ) -> MultipartUpload<&Engine> {
        Engine::multipart(self, key, mime, rule, ttl_hint_hours, size_hint)
    }

    /// [`Engine::begin_put_with_hint`] holding the engine by [`Arc`]: the
    /// returned upload is `'static`, so it can live in a session registry
    /// (the front-end keeps one per client upload id) instead of being
    /// confined to the borrow of a single call frame.
    pub fn begin_put_shared(
        self: &Arc<Self>,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
        size_hint: Option<ByteSize>,
    ) -> MultipartUpload {
        Engine::multipart(Arc::clone(self), key, mime, rule, ttl_hint_hours, size_hint)
    }

    /// Shared constructor behind both `begin_put` flavours.
    fn multipart<E: Borrow<Engine>>(
        engine: E,
        key: &ObjectKey,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
        size_hint: Option<ByteSize>,
    ) -> MultipartUpload<E> {
        let this = engine.borrow();
        let stripe_size = this.infra().stripe_size_bytes() as usize;
        let hint = size_hint.unwrap_or(ByteSize::from_bytes(stripe_size as u64));
        let class = ObjectClass::of(mime, hint);
        let usage = this.predict_usage(&class, hint, ttl_hint_hours);
        let row_key = key.row_key();
        let version = this.infra().next_version(&row_key);
        MultipartUpload {
            engine,
            key: key.clone(),
            row_key,
            mime: mime.to_string(),
            rule,
            ttl_hint_hours,
            hint,
            class,
            usage,
            version,
            stripe_size,
            open: None,
            digests: Vec::new(),
            total_len: 0,
            stripes: Vec::new(),
            in_hand: None,
            have_total: 0,
            want_total: 0,
            peak_buffer_bytes: 0,
            failed: false,
        }
    }

    /// Reads the byte range `[offset, offset + len)` of an object, fetching
    /// only the stripes that cover it (each a hedged `m`-of-`n` race). The
    /// result equals `get(key)[offset..offset+len]` clamped to the object's
    /// end; an empty or past-EOF range yields empty bytes. A cached object
    /// is sliced in memory without provider traffic, after re-verifying the
    /// cached blocks (stripes) the range touches — and only those — against
    /// the digests recorded when the entry was populated
    /// (`crate::cache::Cache::get_range`).
    pub fn get_range(&self, key: &ObjectKey, offset: u64, len: u64) -> Result<Bytes> {
        let row_key = key.row_key();
        if let Some((slice, size)) = self.local_cache().get_range(&row_key, offset, len) {
            self.log_access(
                &row_key,
                AccessKind::Read,
                ByteSize::from_bytes(slice.len() as u64),
                ByteSize::from_bytes(size),
            );
            return Ok(slice);
        }

        // Same MVCC race handling as `Engine::get`: a concurrent overwrite
        // may prune the version whose chunks are in flight; re-read the
        // metadata and retry, bounded. Partial payloads never populate the
        // cache — only full reads do.
        let mut last_err = ScaliaError::ObjectNotFound(key.clone());
        for _ in 0..RANGE_READ_ATTEMPTS {
            let meta = self.read_meta(key, &row_key)?;
            match chunk_io::fetch_range(self.infra(), &meta, offset, len) {
                Ok(bytes) => {
                    self.log_access(
                        &row_key,
                        AccessKind::Read,
                        ByteSize::from_bytes(bytes.len() as u64),
                        meta.size,
                    );
                    return Ok(bytes);
                }
                Err(err @ (ScaliaError::NotEnoughChunks { .. } | ScaliaError::DecodeFailed(_))) => {
                    last_err = err;
                }
                Err(err) => return Err(err),
            }
        }
        Err(last_err)
    }
}

impl<E: Borrow<Engine>> MultipartUpload<E> {
    /// The engine this upload writes through.
    fn engine(&self) -> &Engine {
        self.engine.borrow()
    }

    /// The stripe size this upload seals at, in bytes (snapshotted at
    /// [`Engine::begin_put`]).
    pub fn stripe_size(&self) -> usize {
        self.stripe_size
    }

    /// Total bytes appended so far.
    pub fn bytes_appended(&self) -> u64 {
        self.total_len
    }

    /// High-water mark of the pipeline's transient buffering: the staged
    /// stripe + the held encoded stripe + the seal in progress. O(stripe)
    /// by construction.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer_bytes
    }

    /// Appends bytes to the object. Each byte is staged in its stripe
    /// through the hashing copy (the first byte of a stripe places it), and
    /// whenever a stripe is full it seals: the previously encoded stripe's
    /// chunks are uploaded and the staged stripe is encoded in place. An
    /// error means the upload is failed — [`MultipartUpload::complete_put`]
    /// will refuse — and every stripe that had landed has been rolled back.
    pub fn put_part(&mut self, part: &[u8]) -> Result<()> {
        self.feed(part, false)
    }

    /// Feeds `part` to the pipeline. With `last`, `part` ends the object —
    /// how [`Engine::put`], which has the whole payload in hand, feeds it —
    /// so the stripe holding its tail is staged at its exact size instead
    /// of a full stripe's.
    pub(crate) fn feed(&mut self, part: &[u8], last: bool) -> Result<()> {
        self.check_live()?;
        self.absorb(part, last).map_err(|err| self.fail(err))
    }

    /// [`MultipartUpload::feed`] proper: stages `part` stripe by stripe and
    /// seals every stripe it fills.
    fn absorb(&mut self, mut part: &[u8], last: bool) -> Result<()> {
        self.total_len += part.len() as u64;
        while !part.is_empty() {
            let mut stripe = match self.open.take() {
                Some(stripe) => stripe,
                None => {
                    let len = if last { part.len() } else { self.stripe_size };
                    self.open_stripe(len.min(self.stripe_size))?
                }
            };
            let take = part.len().min(self.stripe_size - stripe.staged.len());
            stripe.checksum.append(&mut stripe.staged, &part[..take]);
            part = &part[take..];
            if stripe.staged.len() == self.stripe_size {
                self.seal(stripe)?;
            } else {
                self.open = Some(stripe);
                self.note_buffered(0);
            }
        }
        Ok(())
    }

    /// Lands the tail, commits the assembled stripe map in one metastore
    /// transaction and returns the new metadata. An upload that cannot land
    /// its tail, or whose commit the metastore refuses, rolls back every
    /// stripe that already landed; a crash ([`ScaliaError::Crashed`]) rolls
    /// back nothing.
    pub fn complete_put(mut self) -> Result<ObjectMeta> {
        self.check_live()?;
        if let Err(err) = self.land_tail() {
            return Err(self.fail(err));
        }
        let MultipartUpload {
            engine,
            key,
            row_key,
            mime,
            rule,
            ttl_hint_hours,
            hint,
            class,
            version,
            stripe_size,
            digests,
            total_len,
            stripes,
            have_total,
            want_total,
            ..
        } = self;
        let engine = engine.borrow();

        // The root over the stripe digests: a one-stripe object's checksum
        // is its stripe's.
        let checksum = object_checksum(&digests);
        let size = ByteSize::from_bytes(total_len);
        // The hint priced the placements; the class the object is recorded
        // under follows its real size (the same one when the hint was exact,
        // as `Engine::put`'s is).
        let final_class = if size == hint {
            class
        } else {
            ObjectClass::of(&mime, size)
        };

        // Chaos crash point: every chunk is at its provider, nothing is
        // committed. The write is not acked; the orphaned chunks belong to
        // the GC sweep.
        engine.infra().crash_point("put::after-upload")?;

        let meta = ObjectMeta {
            key,
            version,
            mime,
            size,
            checksum,
            rule,
            written_at: engine.infra().now(),
            ttl_hint_hours,
            striping: StripingMeta {
                stripe_size: stripe_size as u64,
                stripes,
            },
        };

        // One journaled transaction: metadata, container index, debt +
        // repair entry (or debt clearance), MVCC prune and the dirty mark
        // tagged with `final_class` — the class-centric optimiser sweeps
        // the accessed set *by class tag*, so an object committed without
        // its mark would not be reconsidered. A put expects no version: the
        // freshest write wins.
        let debt = want_total > have_total;
        engine.commit_version(
            &row_key,
            &meta,
            None,
            debt,
            Some(final_class.id()),
            "put::after-commit",
        )?;
        engine.log_access(&row_key, AccessKind::Write, size, size);
        Ok(meta)
    }

    /// Seals the open stripe — a short final stripe, or the one empty
    /// stripe of an empty object — and lands the stripe in hand.
    fn land_tail(&mut self) -> Result<()> {
        let tail = match self.open.take() {
            Some(tail) => Some(tail),
            None if self.stripes.is_empty() && self.in_hand.is_none() => Some(self.open_stripe(0)?),
            None => None,
        };
        if let Some(tail) = tail {
            self.seal(tail)?;
        }
        match self.in_hand.take() {
            Some(last) => self.land(last),
            None => Ok(()),
        }
    }

    /// Abandons the upload, deleting every stripe chunk that already landed
    /// (the in-hand stripe was never uploaded). Nothing was committed, so
    /// readers never saw any of it.
    pub fn abort_put(mut self) {
        self.roll_back();
    }

    /// Refuses to go on with an upload that already failed.
    fn check_live(&self) -> Result<()> {
        if self.failed {
            return Err(ScaliaError::Internal(
                "multipart upload already failed".into(),
            ));
        }
        Ok(())
    }

    /// Marks the upload failed by `err` and — unless `err` is a crash,
    /// whose debris must stay for the GC sweep exactly as a dead process
    /// would leave it — rolls back what it landed.
    fn fail(&mut self, err: ScaliaError) -> ScaliaError {
        self.failed = true;
        if !matches!(err, ScaliaError::Crashed(_)) {
            self.roll_back();
        }
        err
    }

    fn roll_back(&mut self) {
        self.open = None;
        self.in_hand = None;
        let landed = std::mem::take(&mut self.stripes);
        chunk_io::delete_chunks(self.engine().infra(), &landed);
    }

    /// Folds the pipeline's current transient footprint into the high-water
    /// mark: staged plaintext + held encoded stripe + `extra` (the seal in
    /// progress).
    fn note_buffered(&mut self, extra: usize) {
        let staged = self.open.as_ref().map_or(0, |open| open.staged.len());
        let held = self
            .in_hand
            .as_ref()
            .map_or(0, |s| s.encoded.stored_bytes());
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(staged + held + extra);
    }

    /// Opens the next stripe, expected to hold `len` bytes: places it and
    /// allocates its staging buffer at the size [`encode_staged`] will pad
    /// it to, so it is never reallocated — unless the stripe ends shorter
    /// than expected (a multipart tail), which the seal shrinks once.
    fn open_stripe(&self, len: usize) -> Result<OpenStripe> {
        let placement =
            match self
                .engine()
                .place_excluding(&self.rule, &self.class, &self.usage, &[])
            {
                Ok(placement) => placement,
                // The search turned infeasible mid-stream (e.g. the failure
                // detector dropped a provider after earlier stripes landed
                // degraded): keep targeting the set the previous stripe
                // sealed with and let the tolerant landing decide.
                Err(err) => match &self.in_hand {
                    Some(prev) => prev.placement.clone(),
                    None => return Err(err),
                },
            };
        Ok(OpenStripe {
            staged: Vec::with_capacity(staged_len(len, placement.m)),
            placement,
            checksum: Xxh64::new(),
        })
    }

    /// One pipeline step: land the stripe sealed before `stripe` (which was
    /// placed when it opened), then encode `stripe` where it was staged —
    /// its checksum was taken as its bytes arrived.
    fn seal(&mut self, stripe: OpenStripe) -> Result<()> {
        let OpenStripe {
            placement,
            staged,
            checksum,
        } = stripe;
        let index = self.stripes.len() + usize::from(self.in_hand.is_some());
        // Charge the seal: plaintext being encoded + its encoded output +
        // whatever is already held (the held stripe lands before the encode
        // runs, and the data chunks are the staged plaintext, so this is an
        // upper bound).
        let encoded_estimate =
            staged.len() * placement.providers.len().max(1) / placement.m.max(1) as usize;
        self.note_buffered(staged.len() + encoded_estimate);

        if let Some(prev) = self.in_hand.take() {
            self.land(prev)?;
        }
        let encoded = encode_staged(staged, placement.erasure_params())?;
        self.digests.push(checksum.digest());
        self.in_hand = Some(EncodedStripe {
            index,
            placement,
            encoded,
            checksum: checksum.finalize_hex(),
        });
        self.note_buffered(0);
        Ok(())
    }

    /// Lands one encoded stripe ([`MultipartUpload::land_stripe`]) and
    /// records it.
    fn land(&mut self, stripe: EncodedStripe) -> Result<()> {
        let landed = self.land_stripe(stripe)?;
        self.record_landed(landed)
    }

    /// Records a landed stripe and the `want` chunks its placement called
    /// for.
    fn record_landed(&mut self, (stripe, want): (StripeMeta, u64)) -> Result<()> {
        self.have_total += stripe.n() as u64;
        self.want_total += want;
        self.stripes.push(stripe);
        // Chaos crash point: a stripe's chunks are durable at providers but
        // the stripe map is not committed — a crash here must leave the
        // previous object version intact and only orphan bytes for the GC
        // sweep.
        self.engine().infra().crash_point("put_part::after-stripe")
    }

    /// Lands one encoded stripe: fanned-out upload with rollback, then —
    /// bounded by [`WRITE_ATTEMPTS`], as §III-D3 prescribes — re-placement
    /// over the remaining providers (the failed provider may or may not have
    /// tripped the failure detector, e.g. a full private resource stays
    /// catalog-available, so it is excluded from the search explicitly;
    /// re-encoding only when the `(m, n)` geometry changes — the systematic
    /// data shards reconstruct the plaintext in memory, no provider reads,
    /// and the stripe checksum taken as the stripe was staged still holds —
    /// and with it the object's root — so nothing is hashed again), and the
    /// degraded tolerant fallback once attempts, or feasible placements, are
    /// exhausted. The first attempt stores under the
    /// upload's version's key, every later one under a freshly drawn
    /// version's (see "Chunk keys" in the module docs). Returns the landed
    /// stripe and the chunk count its placement wanted, for debt accounting.
    fn land_stripe(&self, mut stripe: EncodedStripe) -> Result<(StripeMeta, u64)> {
        let infra = self.engine().infra();
        let index = stripe.index;
        let skey_of = |version| stripe_skey(StripingMeta::storage_key(&self.key, version), index);
        let mut skey = skey_of(self.version);
        let mut excluded: Vec<ProviderId> = Vec::new();
        loop {
            let failure =
                match chunk_io::upload(infra, &stripe.placement, &skey, &stripe.encoded, true) {
                    Ok(chunks) => {
                        let want = chunks.len() as u64;
                        return Ok((stripe.landed(chunks, skey), want));
                    }
                    Err(failure) => failure,
                };
            excluded.push(failure.provider);
            let replacement = if excluded.len() < WRITE_ATTEMPTS {
                self.engine()
                    .place_excluding(&self.rule, &self.class, &self.usage, &excluded)
                    .ok()
            } else {
                None
            };
            skey = skey_of(infra.next_version(&self.row_key));
            let Some(next) = replacement else {
                // Degrade on the placement whose upload just failed, or
                // surface that failure.
                return self.land_degraded(stripe, skey).ok_or(failure.error);
            };
            if next.erasure_params() != stripe.placement.erasure_params() {
                let plain = decode_object(
                    &stripe.encoded.chunks,
                    stripe.encoded.params,
                    stripe.encoded.original_len,
                )?;
                stripe.encoded = encode_object(&plain, next.erasure_params())?;
            }
            stripe.placement = next;
        }
    }

    /// The degraded landing of one stripe: every chunk attempted tolerantly,
    /// the partial landing accepted iff `k ≥ m` chunks survive and the
    /// surviving providers still meet the rule's availability floor; rolled
    /// back, and `None`, otherwise.
    fn land_degraded(&self, stripe: EncodedStripe, skey: String) -> Option<(StripeMeta, u64)> {
        let infra = self.engine().infra();
        let placement = &stripe.placement;
        let chunks = chunk_io::upload(infra, placement, &skey, &stripe.encoded, false).ok()?;
        let want = placement.providers.len() as u64;
        // Everything may have landed after all (the earlier failure was
        // transient): a full-width stripe, no debt.
        let durable = chunks.len() as u64 == want || {
            let surviving: Vec<_> = chunks
                .iter()
                .filter_map(|c| infra.catalog().get(c.provider))
                .collect();
            surviving.len() == chunks.len()
                && get_availability(&surviving, placement.m).meets(self.rule.availability)
        };
        let landed = stripe.landed(chunks, skey);
        if durable {
            Some((landed, want))
        } else {
            // Not durable enough to acknowledge: roll the landing back.
            chunk_io::delete_chunks(infra, std::slice::from_ref(&landed));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ScaliaCluster;
    use scalia_types::checksum::checksum_hex;
    use scalia_types::reliability::Reliability;
    use scalia_types::zone::ZoneSet;

    fn rule() -> StorageRule {
        StorageRule::new(
            "staging",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        )
    }

    /// The open stripe's staging buffer: where it is and how big.
    fn staging<E: Borrow<Engine>>(upload: &MultipartUpload<E>) -> (*const u8, usize) {
        let open = upload.open.as_ref().expect("a stripe is open");
        (open.staged.as_ptr(), open.staged.capacity())
    }

    #[test]
    fn a_stripe_is_staged_once_in_the_allocation_its_data_chunks_are_cut_from() {
        let cluster = ScaliaCluster::builder()
            .datacenters(1)
            .engines_per_datacenter(1)
            .build();
        let engine = cluster.engine(0);
        // A prime stripe size: no `m > 1` divides it, so a stripe is staged
        // in more bytes than it holds, and its tail below too.
        let stripe = 524_287;
        engine.infra().set_stripe_size_bytes(stripe as u64);
        let data: Vec<u8> = (0..stripe + 701).map(|i| (i * 31 % 251) as u8).collect();
        let key = ObjectKey::new("staging", "parts.bin");
        let mut upload = engine.begin_put(&key, "application/octet-stream", rule(), None);

        // The first byte opens the stripe at its final size: `m × shard_len`.
        const PART: usize = 4_093;
        upload.put_part(&data[..PART]).unwrap();
        let m = upload.open.as_ref().unwrap().placement.m;
        let (base, capacity) = staging(&upload);
        assert_eq!(capacity, staged_len(stripe, m));
        assert!(capacity > stripe, "the padding is part of the allocation");
        // No later part moves or grows it.
        let mut fed = PART;
        while fed + PART < stripe {
            upload.put_part(&data[fed..fed + PART]).unwrap();
            fed += PART;
            assert_eq!(staging(&upload), (base, capacity), "after {fed} bytes");
        }

        // The part that fills the stripe seals it: its data chunks are
        // consecutive windows of that same allocation, and its checksum is
        // the stripe's bytes'.
        upload.put_part(&data[fed..stripe + 1]).unwrap();
        let held = upload.in_hand.as_ref().expect("the full stripe sealed");
        let shard_len = stripe.div_ceil(m as usize);
        for (i, chunk) in held.encoded.chunks[..m as usize].iter().enumerate() {
            assert_eq!(
                chunk.data.as_ptr(),
                base.wrapping_add(i * shard_len),
                "chunk {i}"
            );
        }
        assert_eq!(held.checksum, checksum_hex(&data[..stripe]));
        // Its last byte opened the next stripe, at a full stripe's size: a
        // multipart upload cannot know where it ends.
        assert_eq!(staging(&upload).1, staged_len(stripe, m));
        upload.abort_put();

        // `Engine::put` can: the stripe holding its tail is staged at the
        // tail's exact size.
        let mut upload = engine.begin_put(&key, "application/octet-stream", rule(), None);
        upload.feed(&data, true).unwrap();
        assert_eq!(staging(&upload).1, staged_len(701, m));
        let meta = upload.complete_put().unwrap();
        assert_eq!(
            meta.striping.stripe_view(1).checksum,
            checksum_hex(&data[stripe..])
        );
    }
}
