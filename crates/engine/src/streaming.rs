//! The staged stripe pipeline: streaming writes, range reads and the
//! multipart/append API.
//!
//! A classic [`Engine::put`] holds the whole payload (and its full encoded
//! footprint) resident while the chunks fan out — fine for photos, hopeless
//! for backups. This module restructures the large-object data path around
//! fixed-size **stripes** ([`crate::infra::Infrastructure::stripe_size_bytes`]):
//!
//! * **Streaming put** — [`Engine::put`] auto-routes payloads above the
//!   threshold ([`crate::infra::Infrastructure::streaming_threshold_bytes`])
//!   through a [`MultipartUpload`] that feeds one stripe at a time. The
//!   pipeline is staged: stripe `k + 1` is *encoded* while stripe `k`'s
//!   chunks are *in flight* ([`rayon::join`] overlaps the CPU-bound encode
//!   with the provider-bound upload), so peak transient buffering is
//!   O(stripe), never O(object). Each stripe's content checksum and the
//!   streaming whole-object checksum ([`scalia_types::checksum`]) are both
//!   taken at the seal, while the stripe's bytes are in cache for the
//!   encode — the full payload is never resident in this module.
//! * **Multipart / append** — [`Engine::begin_put`], [`MultipartUpload::put_part`]
//!   and [`MultipartUpload::complete_put`] expose the same pipeline to
//!   callers that produce data incrementally. Parts may be any size; stripes
//!   seal whenever a stripe's worth of bytes has accumulated. The assembled
//!   stripe map commits in **one** metastore transaction
//!   ([`Engine::commit_metadata_with_debt`]) under the row commit lock, so a
//!   crash anywhere before [`MultipartUpload::complete_put`] returns leaves
//!   the previous object version fully intact and at most some orphaned
//!   stripe chunks for [`crate::gc::sweep_orphan_chunks`].
//! * **Range reads** — [`Engine::get_range`] serves `[offset, offset+len)`
//!   by fetching only the covering stripes (each still a hedged
//!   `m`-of-`n` race over the cheapest providers), via
//!   [`crate::chunk_io::fetch_range`].
//!
//! # Per-stripe durability semantics
//!
//! Every stripe lands with the same machinery as a classic put: parallel
//! upload with abort-on-first-failure and rollback, bounded re-placement
//! (capped by [`crate::engine::WRITE_ATTEMPTS`]) excluding the failed
//! provider, and — once re-placement is exhausted — a *degraded* tolerant
//! landing accepted iff `k ≥ m` chunks survive **and** the surviving
//! providers still clear the rule's availability floor. Degraded stripes
//! accumulate into one durability debt recorded (with its repair-queue
//! entry) atomically with the commit, exactly like a degraded classic put;
//! the repair path migrates striped objects stripe by stripe and its
//! full-width commit settles the debt.
//!
//! # Stripe chunk keys
//!
//! Each landing *attempt* of each stripe uses a fresh storage key
//! (`{base}.s{i}` nominally, `{base}.s{i}.r{attempt}` on retries): a failed
//! attempt's rollback may have postponed a chunk delete on a provider that
//! flapped down mid-rollback, and that delete fires unconditionally on
//! recovery — a retry reusing the same keys could land a committed chunk
//! exactly where the pending delete will strike. The committed key is
//! recorded per stripe in [`StripeMeta::skey`].

use crate::chunk_io::{self, HedgeConfig};
use crate::engine::{Engine, WRITE_ATTEMPTS};
use bytes::Bytes;
use scalia_core::availability::get_availability;
use scalia_core::classify::ObjectClass;
use scalia_core::cost::PredictedUsage;
use scalia_core::placement::Placement;
use scalia_erasure::codec::{decode_object, encode_object, EncodedObject};
use scalia_metastore::logagg::AccessKind;
use scalia_types::checksum::{checksum_hex, Xxh64};
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::ProviderId;
use scalia_types::object::{
    ObjectKey, ObjectMeta, ObjectVersionId, StripeMap, StripeMeta, StripingMeta,
};
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use std::borrow::Borrow;
use std::sync::Arc;

/// Bound on metadata re-reads when a range read races MVCC garbage
/// collection (mirrors the retry bound of [`Engine::get`]).
const RANGE_READ_ATTEMPTS: usize = 3;

/// One encoded-but-not-yet-landed stripe held by the pipeline. Holds only
/// the *encoded* chunks — the plaintext is recoverable from the systematic
/// data shards ([`decode_object`]) on the rare retry that needs to
/// re-encode for a different placement, so the pipeline never holds both
/// representations at once.
struct EncodedStripe {
    /// Stripe index within the object.
    index: usize,
    /// The placement this stripe is encoded for.
    placement: Placement,
    /// The encoded chunks.
    encoded: EncodedObject,
    /// Plaintext length of the stripe.
    len: u64,
    /// Content checksum of the stripe plaintext (verified on every read).
    checksum: String,
}

/// The storage key of one landing attempt of one stripe: nominally
/// `{base}.s{index}`, salted `.r{attempt}` on retries (see the module docs
/// on why reusing keys across attempts is unsafe).
fn stripe_skey(base: &str, index: usize, attempt: usize) -> String {
    if attempt == 0 {
        format!("{base}.s{index}")
    } else {
        format!("{base}.s{index}.r{attempt}")
    }
}

/// `true` for errors produced by [`crate::infra::Infrastructure::crash_point`]:
/// an injected crash must propagate *without* cleanup (a real crash would
/// not run it) so chaos tests observe genuine crash debris.
fn is_injected_crash(err: &ScaliaError) -> bool {
    matches!(err, ScaliaError::Internal(msg) if msg.starts_with("crash injected"))
}

/// An in-progress streaming upload (see the module docs).
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
    mime: String,
    rule: StorageRule,
    ttl_hint_hours: Option<f64>,
    /// Class and usage fixed at `begin_put` (from the size hint when given):
    /// every stripe prices its placement identically.
    class: ObjectClass,
    usage: PredictedUsage,
    /// Version allocated up front; all stripe keys derive from it.
    version: ObjectVersionId,
    base_skey: String,
    stripe_size: usize,
    /// Plaintext bytes not yet sealed into a stripe (< `stripe_size`
    /// between calls).
    buffer: Vec<u8>,
    /// Streaming whole-object checksum over the stripes sealed so far.
    object_checksum: Xxh64,
    total_len: u64,
    /// Stripes already landed at providers, in index order.
    stripes: Vec<StripeMeta>,
    /// The placement the previous stripe sealed with — the fallback when the
    /// placement search turns infeasible mid-stream (e.g. the failure
    /// detector dropped a provider after earlier stripes landed degraded):
    /// like the classic degraded write, later stripes keep targeting the
    /// original set and let the tolerant landing decide.
    last_placement: Option<Placement>,
    /// The encoded stripe whose upload overlaps the next seal.
    in_hand: Option<EncodedStripe>,
    sealed: usize,
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
        let stripe_size = this.infra().stripe_size_bytes().max(1) as usize;
        let hint = size_hint.unwrap_or(ByteSize::from_bytes(stripe_size as u64));
        let class = ObjectClass::of(mime, hint);
        let usage = this.predict_usage(&class, hint, ttl_hint_hours);
        let version = this.infra().next_version(&key.row_key());
        let base_skey = StripingMeta::storage_key(key, version);
        MultipartUpload {
            engine,
            key: key.clone(),
            mime: mime.to_string(),
            rule,
            ttl_hint_hours,
            class,
            usage,
            version,
            base_skey,
            stripe_size,
            buffer: Vec::new(),
            object_checksum: Xxh64::new(),
            total_len: 0,
            stripes: Vec::new(),
            last_placement: None,
            in_hand: None,
            sealed: 0,
            have_total: 0,
            want_total: 0,
            peak_buffer_bytes: 0,
            failed: false,
        }
    }

    /// The streaming write path [`Engine::put`] routes large payloads
    /// through: feeds the payload stripe by stripe into a multipart upload,
    /// so the *pipeline's* transient buffering (plaintext + encoded) stays
    /// O(stripe) regardless of object size. The committed metadata carries
    /// the full stripe map; the object checksum equals the classic path's
    /// whole-payload checksum.
    pub(crate) fn put_streaming(
        &self,
        key: &ObjectKey,
        data: Bytes,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
    ) -> Result<ObjectMeta> {
        let size_hint = ByteSize::from_bytes(data.len() as u64);
        let mut upload = self.begin_put_with_hint(key, mime, rule, ttl_hint_hours, Some(size_hint));
        let step = upload.stripe_size();
        let mut offset = 0usize;
        while offset < data.len() {
            let end = (offset + step).min(data.len());
            if let Err(err) = upload.put_part(&data[offset..end]) {
                // Mirror the classic path's failed-put cleanup — except for
                // injected crashes, whose debris must stay for the GC sweep
                // exactly as a real crash would leave it.
                if !is_injected_crash(&err) {
                    upload.abort_put();
                }
                return Err(err);
            }
            offset = end;
        }
        upload.complete_put()
    }

    /// Reads the byte range `[offset, offset + len)` of an object, fetching
    /// only what the range needs: the covering stripes of a striped object
    /// (each a hedged `m`-of-`n` race), or the single chunk set — decoded
    /// through the systematic range fast path — of a classic one. The
    /// result equals `get(key)[offset..offset+len]` clamped to the object's
    /// end; an empty or past-EOF range yields empty bytes. A cached object
    /// is sliced in memory without provider traffic, after re-verifying the
    /// cached blocks (stripes) the range touches — and only those — against
    /// the digests recorded when the entry was populated
    /// ([`crate::cache::Cache::get_range`]).
    pub fn get_range(&self, key: &ObjectKey, offset: u64, len: u64) -> Result<Bytes> {
        let row_key = key.row_key();
        if let Some((slice, size)) = self.local_cache().get_range(&row_key, offset, len) {
            self.log_access(
                key,
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
            let meta = self.read_metadata(key)?;
            match chunk_io::fetch_range(self.infra(), &meta, offset, len, &HedgeConfig::default()) {
                Ok(bytes) => {
                    self.log_access(
                        key,
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

    /// Migrates a striped object to `new_placement` stripe by stripe: each
    /// stripe is fetched (hedged), re-encoded for the new placement and
    /// uploaded under fresh per-stripe keys, keeping the resident working
    /// set O(stripe). The commit is the same conditional (version-validated)
    /// commit as a classic migration — and, being full-width, settles any
    /// degraded-write debt atomically.
    pub(crate) fn replace_placement_striped(
        &self,
        key: &ObjectKey,
        new_placement: &Placement,
        old_meta: ObjectMeta,
    ) -> Result<ObjectMeta> {
        let map =
            old_meta.striping.stripes.as_ref().ok_or_else(|| {
                ScaliaError::Internal("striped migration of unstriped object".into())
            })?;
        let version = self.infra().next_version(&key.row_key());
        let base_skey = StripingMeta::storage_key(key, version);
        let config = HedgeConfig::default();
        let params = new_placement.erasure_params();

        let mut new_stripes: Vec<StripeMeta> = Vec::with_capacity(map.stripes.len());
        let mut land_err: Option<ScaliaError> = None;
        for (i, old_stripe) in map.stripes.iter().enumerate() {
            let landed = chunk_io::fetch_stripe(self.infra(), &old_meta.striping, i, &config)
                .and_then(|plain| {
                    let encoded = encode_object(&plain, params)?;
                    let skey = stripe_skey(&base_skey, i, 0);
                    let striping = chunk_io::upload_encoded(
                        self.infra(),
                        new_placement,
                        &skey,
                        &encoded,
                        &config,
                    )
                    .map_err(ScaliaError::from)?;
                    Ok(StripeMeta {
                        chunks: striping.chunks,
                        m: striping.m,
                        len: old_stripe.len,
                        // The plaintext is unchanged (fetch_stripe verified
                        // it against this very digest).
                        checksum: old_stripe.checksum.clone(),
                        skey,
                    })
                });
            match landed {
                Ok(stripe) => new_stripes.push(stripe),
                Err(err) => {
                    land_err = Some(err);
                    break;
                }
            }
        }
        let striping = StripingMeta::striped(
            base_skey,
            new_placement.m,
            StripeMap {
                stripe_size: map.stripe_size,
                stripes: new_stripes,
            },
        );
        if let Some(err) = land_err {
            // Roll back the stripes that already landed on the new
            // placement; the old version is untouched.
            chunk_io::delete_chunks(self.infra(), &striping);
            return Err(err);
        }
        let new_meta = ObjectMeta {
            version,
            written_at: old_meta.written_at,
            striping,
            ..old_meta.clone()
        };
        self.commit_replacement(key, old_meta.version, &new_meta)?;
        Ok(new_meta)
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

    /// High-water mark of the pipeline's transient buffering: unsealed
    /// plaintext + the held encoded stripe + the seal in progress. O(stripe)
    /// by construction — the streaming bench asserts it.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer_bytes
    }

    /// Appends bytes to the object. Whenever a full stripe's worth has
    /// accumulated the stripe seals: its plaintext leaves the buffer, is
    /// encoded, and the *previously* encoded stripe's chunks are uploaded
    /// concurrently with the encode (the staged pipeline). An error means
    /// the upload is failed — [`MultipartUpload::complete_put`] will refuse;
    /// call [`MultipartUpload::abort_put`] to reclaim landed chunks (or
    /// drop the upload and let the GC sweep collect them).
    pub fn put_part(&mut self, part: &[u8]) -> Result<()> {
        if self.failed {
            return Err(ScaliaError::Internal(
                "multipart upload already failed".into(),
            ));
        }
        let result = self.absorb(part);
        self.failed |= result.is_err();
        result
    }

    /// [`MultipartUpload::put_part`] proper: seals every stripe `part`
    /// completes and buffers what is left over.
    fn absorb(&mut self, mut part: &[u8]) -> Result<()> {
        self.total_len += part.len() as u64;
        while !part.is_empty() {
            if self.buffer.is_empty() && part.len() >= self.stripe_size {
                // A whole stripe lies contiguous in the caller's part: seal
                // straight from it, no copy into the buffer.
                let (stripe, rest) = part.split_at(self.stripe_size);
                self.seal_stripe(stripe)?;
                part = rest;
                continue;
            }
            let take = part.len().min(self.stripe_size - self.buffer.len());
            self.buffer.extend_from_slice(&part[..take]);
            part = &part[take..];
            self.note_buffered(0);
            if self.buffer.len() == self.stripe_size {
                let stripe = std::mem::take(&mut self.buffer);
                self.seal_stripe(&stripe)?;
                // Keep the allocation for the next stripe's parts.
                self.buffer = stripe;
                self.buffer.clear();
            }
        }
        Ok(())
    }

    /// Lands the tail, commits the assembled stripe map in one metastore
    /// transaction and returns the new metadata. An upload whose payload
    /// never filled a single stripe falls back to the classic single-stripe
    /// path — its on-provider layout is bit-identical to a plain
    /// [`Engine::put`] of the same bytes.
    pub fn complete_put(mut self) -> Result<ObjectMeta> {
        if self.failed {
            return Err(ScaliaError::Internal(
                "multipart upload already failed".into(),
            ));
        }
        if self.stripes.is_empty() && self.in_hand.is_none() {
            // Everything fits one classic stripe and nothing has been
            // uploaded yet: delegate wholesale. `put_single`, not `put` —
            // re-routing could recurse when stripe size > threshold.
            let data = Bytes::from(std::mem::take(&mut self.buffer));
            return self.engine().put_single(
                &self.key,
                data,
                &self.mime,
                self.rule.clone(),
                self.ttl_hint_hours,
            );
        }

        // Seal the tail (a short final stripe), then land the stripe still
        // in hand. Both go through the same pipeline step.
        let result = (|| -> Result<()> {
            let tail = std::mem::take(&mut self.buffer);
            if !tail.is_empty() {
                self.seal_stripe(&tail)?;
            }
            if let Some(last) = self.in_hand.take() {
                self.land(last)?;
            }
            Ok(())
        })();
        if let Err(err) = result {
            self.failed = true;
            return Err(err);
        }

        let size = ByteSize::from_bytes(self.total_len);
        let final_class = ObjectClass::of(&self.mime, size);
        let striping = StripingMeta::striped(
            self.base_skey.clone(),
            self.stripes.first().map(|s| s.m).unwrap_or(1),
            StripeMap {
                stripe_size: self.stripe_size as u64,
                stripes: std::mem::take(&mut self.stripes),
            },
        );
        let meta = ObjectMeta {
            key: self.key.clone(),
            version: self.version,
            mime: self.mime.clone(),
            size,
            checksum: self.object_checksum.finalize_hex(),
            rule: self.rule.clone(),
            written_at: self.engine().infra().now(),
            ttl_hint_hours: self.ttl_hint_hours,
            striping,
        };

        // Same crash point as the classic path: every chunk is at its
        // provider, nothing is committed.
        self.engine().infra().crash_point("put::after-upload")?;

        // One journaled transaction: metadata, optimiser digest, container
        // index, debt + repair entry (or debt clearance), MVCC prunes —
        // under the row commit lock, atomically with the invalidation.
        let debt = (self.want_total > self.have_total).then(|| {
            serde_json::json!({
                "reason": "degraded-write",
                "have": self.have_total,
                "want": self.want_total,
            })
        });
        let deprecated = {
            let _commit = self.engine().infra().lock_row_commit(&meta.row_key());
            let deprecated =
                self.engine()
                    .commit_metadata_with_debt(&meta, debt, Some(final_class.id()))?;
            self.engine().invalidate_everywhere(&meta.row_key());
            deprecated
        };
        self.engine().infra().crash_point("put::after-commit")?;
        for striping in &deprecated {
            self.engine().delete_chunks(striping);
        }
        self.engine()
            .log_access(&self.key, AccessKind::Write, size, size);
        Ok(meta)
    }

    /// Abandons the upload, deleting every stripe chunk that already landed
    /// (the in-hand stripe was never uploaded). Nothing was committed, so
    /// readers never saw any of it.
    pub fn abort_put(mut self) {
        self.in_hand = None;
        if self.stripes.is_empty() {
            return;
        }
        let striping = StripingMeta::striped(
            self.base_skey.clone(),
            self.stripes.first().map(|s| s.m).unwrap_or(1),
            StripeMap {
                stripe_size: self.stripe_size as u64,
                stripes: std::mem::take(&mut self.stripes),
            },
        );
        chunk_io::delete_chunks(self.engine().infra(), &striping);
    }

    /// Folds the pipeline's current transient footprint into the high-water
    /// mark: unsealed plaintext + held encoded stripe + `extra` (the seal in
    /// progress).
    fn note_buffered(&mut self, extra: usize) {
        let now = self.buffer.len()
            + self
                .in_hand
                .as_ref()
                .map(|s| s.encoded.stored_bytes())
                .unwrap_or(0)
            + extra;
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(now);
    }

    /// One pipeline step: encode `plain` as the next stripe while the
    /// previously encoded stripe (if any) uploads — the two run concurrently
    /// under [`rayon::join`], overlapping CPU with provider I/O. Stripes seal
    /// in object order, so the whole-object checksum streams across them
    /// here, in the same pass through the cache as the stripe's own.
    fn seal_stripe(&mut self, plain: &[u8]) -> Result<()> {
        self.object_checksum.update(plain);
        let index = self.sealed;
        self.sealed += 1;
        let placement =
            match self
                .engine()
                .place_excluding(&self.rule, &self.class, &self.usage, &[])
            {
                Ok(placement) => placement,
                Err(err) => self.last_placement.clone().ok_or(err)?,
            };
        self.last_placement = Some(placement.clone());
        // Charge the seal: plaintext being encoded + its encoded output +
        // whatever is already held.
        let encoded_estimate =
            plain.len() * placement.providers.len().max(1) / placement.m.max(1) as usize;
        self.note_buffered(plain.len() + encoded_estimate);

        let engine = self.engine.borrow();
        let rule = &self.rule;
        let class = &self.class;
        let usage = &self.usage;
        let base_skey = &self.base_skey;
        let prev = self.in_hand.take();

        let encode = |placement: Placement, plain: &[u8]| -> Result<EncodedStripe> {
            let checksum = checksum_hex(plain);
            let encoded = encode_object(plain, placement.erasure_params())?;
            Ok(EncodedStripe {
                index,
                len: plain.len() as u64,
                checksum,
                placement,
                encoded,
            })
        };

        let (landed, fresh) = match prev {
            Some(prev) => {
                let (landed, fresh) = rayon::join(
                    || land_stripe(engine, rule, class, usage, base_skey, prev),
                    || encode(placement, plain),
                );
                (Some(landed), fresh?)
            }
            None => (None, encode(placement, plain)?),
        };
        if let Some(landed) = landed {
            let (stripe, have, want) = landed?;
            self.have_total += have;
            self.want_total += want;
            self.stripes.push(stripe);
            // Chaos crash point: a stripe's chunks are durable at providers
            // but the stripe map is not committed — a crash here must leave
            // the previous object version intact and only orphan bytes for
            // the GC sweep.
            self.engine()
                .infra()
                .crash_point("put_part::after-stripe")?;
        }
        self.in_hand = Some(fresh);
        self.note_buffered(0);
        Ok(())
    }

    /// Lands one encoded stripe and records it.
    fn land(&mut self, stripe: EncodedStripe) -> Result<()> {
        let (meta, have, want) = land_stripe(
            self.engine.borrow(),
            &self.rule,
            &self.class,
            &self.usage,
            &self.base_skey,
            stripe,
        )?;
        self.have_total += have;
        self.want_total += want;
        self.stripes.push(meta);
        self.engine()
            .infra()
            .crash_point("put_part::after-stripe")?;
        Ok(())
    }
}

/// Uploads one encoded stripe with the classic put's retry ladder: parallel
/// upload with rollback, bounded re-placement excluding the failed provider
/// (re-encoding only when the `(m, n)` geometry changes — the systematic
/// data shards reconstruct the plaintext in memory, no provider reads), and
/// the degraded tolerant fallback once attempts are exhausted. Returns the
/// landed stripe plus its `(have, want)` chunk counts for debt accounting.
fn land_stripe(
    engine: &Engine,
    rule: &StorageRule,
    class: &ObjectClass,
    usage: &PredictedUsage,
    base_skey: &str,
    mut stripe: EncodedStripe,
) -> Result<(StripeMeta, u64, u64)> {
    let config = HedgeConfig::default();
    let mut excluded: Vec<ProviderId> = Vec::new();
    loop {
        let attempt = excluded.len();
        let skey = stripe_skey(base_skey, stripe.index, attempt);
        match chunk_io::upload_encoded(
            engine.infra(),
            &stripe.placement,
            &skey,
            &stripe.encoded,
            &config,
        ) {
            Ok(striping) => {
                let want = striping.chunks.len() as u64;
                return Ok((
                    StripeMeta {
                        chunks: striping.chunks,
                        m: striping.m,
                        len: stripe.len,
                        checksum: stripe.checksum,
                        skey,
                    },
                    want,
                    want,
                ));
            }
            Err(failure) => {
                let Some(provider) = failure.provider else {
                    return Err(failure.error);
                };
                if excluded.len() + 1 >= WRITE_ATTEMPTS {
                    // Attempts exhausted: degrade on this placement or
                    // surface the upload error.
                    return land_degraded(
                        engine,
                        rule,
                        &stripe,
                        base_skey,
                        attempt + 1,
                        failure.error,
                    );
                }
                excluded.push(provider);
                match engine.place_excluding(rule, class, usage, &excluded) {
                    Ok(next) => {
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
                    // Re-placement found nothing: degrade on the placement
                    // whose upload just failed.
                    Err(_) => {
                        return land_degraded(
                            engine,
                            rule,
                            &stripe,
                            base_skey,
                            attempt + 1,
                            failure.error,
                        )
                    }
                }
            }
        }
    }
}

/// The degraded landing of one stripe — the per-stripe mirror of the
/// classic put's degraded write: every chunk attempted tolerantly, the
/// partial landing accepted iff `k ≥ m` chunks survive and the surviving
/// providers still meet the rule's availability floor; rolled back (and
/// `original` surfaced) otherwise.
fn land_degraded(
    engine: &Engine,
    rule: &StorageRule,
    stripe: &EncodedStripe,
    base_skey: &str,
    attempt: usize,
    original: ScaliaError,
) -> Result<(StripeMeta, u64, u64)> {
    let config = HedgeConfig::default();
    let skey = stripe_skey(base_skey, stripe.index, attempt);
    let Ok(partial) = chunk_io::upload_encoded_tolerant(
        engine.infra(),
        &stripe.placement,
        &skey,
        &stripe.encoded,
        &config,
    ) else {
        return Err(original);
    };
    let want = stripe.placement.providers.len() as u64;
    let have = partial.striping.chunks.len() as u64;
    if have == want {
        // Everything landed after all (the earlier failure was transient):
        // a full-width stripe, no debt.
        return Ok((
            StripeMeta {
                chunks: partial.striping.chunks,
                m: partial.striping.m,
                len: stripe.len,
                checksum: stripe.checksum.clone(),
                skey,
            },
            have,
            want,
        ));
    }
    let surviving: Vec<_> = partial
        .striping
        .chunks
        .iter()
        .filter_map(|c| engine.infra().catalog().get(c.provider))
        .collect();
    let availability = get_availability(&surviving, partial.striping.m);
    if surviving.len() == partial.striping.chunks.len() && availability.meets(rule.availability) {
        Ok((
            StripeMeta {
                chunks: partial.striping.chunks,
                m: partial.striping.m,
                len: stripe.len,
                checksum: stripe.checksum.clone(),
                skey,
            },
            have,
            want,
        ))
    } else {
        // Not durable enough to acknowledge: roll the landing back.
        chunk_io::delete_chunks(engine.infra(), &partial.striping);
        Err(original)
    }
}
