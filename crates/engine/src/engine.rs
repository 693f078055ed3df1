//! The stateless Scalia engine.
//!
//! An [`Engine`] is the component a client request lands on. It implements
//! the write, read and delete life-cycles of §III-D:
//!
//! * **write** — classify the object, predict its usage (from its class
//!   statistics when it has no history), compute the best provider set
//!   (Algorithm 1), erasure-code the payload stripe by stripe, store one
//!   chunk per provider under `skey = MD5(container | key | UUID)`, write
//!   the metadata version to the database, clean up deprecated versions
//!   (MVCC), and invalidate the caches of every datacenter;
//! * **read** — serve from the local cache if possible, otherwise read the
//!   metadata, race the cheapest `m` providers with a hedged fetch
//!   (promoting parity providers past errors and stragglers), reassemble,
//!   populate the cache;
//! * **delete** — remove the chunks (postponing deletes to unreachable
//!   providers), fold the object's lifetime and mean usage into its class
//!   statistics, and drop the metadata.
//!
//! Every write goes through the staged stripe pipeline in
//! [`crate::streaming`] (each stripe staged where its data chunks are cut
//! from, O(stripe) transient buffering): [`Engine::put`] feeds it a whole
//! payload, the multipart API ([`Engine::begin_put`] → `put_part` →
//! `complete_put`) feeds it incrementally, and [`Engine::get_range`] serves
//! byte ranges by fetching only the stripes that cover the requested window.
//!
//! Engines are stateless: everything they touch lives in the shared
//! [`Infrastructure`], so adding engines scales the deployment linearly.
//! Every provider round-trip goes through the chunk-I/O layer
//! ([`crate::chunk_io`]): puts and deletes fan out one round-trip per chunk,
//! concurrent in virtual time and run in order on the calling thread, so
//! put/get latency scales with the slowest provider instead of summing
//! round-trips.

use crate::cache::{BlockDigests, Cache};
use crate::chunk_io;
use crate::infra::{Infrastructure, SAMPLING_PERIOD};
use crate::streaming::stripe_skey;
use bytes::Bytes;
use scalia_core::classify::ObjectClass;
use scalia_core::cost::PredictedUsage;
use scalia_core::decision;
use scalia_core::placement::{Placement, PlacementEngine};
use scalia_erasure::codec::encode_object;
use scalia_metastore::journal::JournalOp;
use scalia_metastore::logagg::{AccessKind, AccessLogRecord, LogAgent};
use scalia_metastore::stats::StatisticsStore;
use scalia_types::checksum::parse_checksum_hex;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::{DatacenterId, EngineId, ProviderId};
use scalia_types::object::{ObjectKey, ObjectMeta, ObjectVersionId, StripeMeta, StripingMeta};
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::stats::AccessHistory;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Default decision period, in sampling periods, for freshly written objects
/// whose class has no statistics yet (24 hourly periods = 1 day).
pub(crate) const DEFAULT_DECISION_PERIODS: usize = 24;

/// Bound on the landing attempts of one stripe: it runs at most this many
/// parallel uploads, i.e. it survives up to `WRITE_ATTEMPTS − 1`
/// provider-side upload failures before the error is surfaced (§III-D3's
/// mark-unavailable-and-retry, made finite).
pub(crate) const WRITE_ATTEMPTS: usize = 3;

/// A stateless Scalia engine.
pub struct Engine {
    id: EngineId,
    datacenter: DatacenterId,
    infra: Arc<Infrastructure>,
    local_cache: Arc<Cache>,
    all_caches: Vec<Arc<Cache>>,
    log_agent: Arc<LogAgent>,
    placement: PlacementEngine,
}

impl Engine {
    /// Creates an engine.
    ///
    /// `all_caches` must contain the cache of every datacenter (including
    /// this engine's own) so writes can invalidate them all.
    pub(crate) fn new(
        id: EngineId,
        datacenter: DatacenterId,
        infra: Arc<Infrastructure>,
        local_cache: Arc<Cache>,
        all_caches: Vec<Arc<Cache>>,
        log_agent: Arc<LogAgent>,
        placement: PlacementEngine,
    ) -> Self {
        Engine {
            id,
            datacenter,
            infra,
            local_cache,
            all_caches,
            log_agent,
            placement,
        }
    }

    /// The engine's identifier.
    pub fn id(&self) -> EngineId {
        self.id
    }

    /// The datacenter hosting this engine.
    pub(crate) fn datacenter(&self) -> DatacenterId {
        self.datacenter
    }

    /// The engine's log agent (drained by the datacenter's log aggregator).
    pub fn log_agent(&self) -> &Arc<LogAgent> {
        &self.log_agent
    }

    /// The shared infrastructure handle.
    pub fn infra(&self) -> &Arc<Infrastructure> {
        &self.infra
    }

    /// This datacenter's cache (the one local reads are served from).
    pub(crate) fn local_cache(&self) -> &Cache {
        &self.local_cache
    }

    // ------------------------------------------------------------------
    // Write
    // ------------------------------------------------------------------

    /// Stores (or overwrites) an object: `begin_put_with_hint` → seal →
    /// `complete_put`, whatever its size ([`crate::streaming`]). The payload
    /// is cut at the stripe boundary
    /// ([`Infrastructure::stripe_size_bytes`]) — the only size policy there
    /// is: up to one stripe it lands as one erasure group, the paper's
    /// record; past it, stripes seal one at a time and the pipeline's
    /// transient buffering stays O(stripe). The whole payload is fed as the
    /// last part, so the stripe holding its tail is staged at its exact
    /// size.
    pub fn put(
        &self,
        key: &ObjectKey,
        data: Bytes,
        mime: &str,
        rule: StorageRule,
        ttl_hint_hours: Option<f64>,
    ) -> Result<ObjectMeta> {
        let size = ByteSize::from_bytes(data.len() as u64);
        let mut upload = self.begin_put_with_hint(key, mime, rule, ttl_hint_hours, Some(size));
        upload.feed(&data, true)?;
        upload.complete_put()
    }

    /// Predicts the object's usage over the default decision period: the
    /// class statistics when available (Fig. 6), storage-only otherwise,
    /// with the optimisation horizon bounded by the TTL hint.
    pub(crate) fn predict_usage(
        &self,
        class: &ObjectClass,
        size: ByteSize,
        ttl_hint_hours: Option<f64>,
    ) -> PredictedUsage {
        let stats = self.infra.statistics(self.datacenter);
        decision::first_usage(
            size,
            stats.mean_class_usage(class.id()).as_ref(),
            DEFAULT_DECISION_PERIODS,
            SAMPLING_PERIOD,
            ttl_hint_hours,
        )
    }

    /// Runs the placement search. The common no-exclusions case is routed
    /// through the shared placement decision cache (keyed by rule + exact
    /// object class + usage bucket + catalog version), so a burst of
    /// same-class writes prices one search, not one per object; retries
    /// with excluded providers search directly — the cache cannot express
    /// an ad-hoc exclusion.
    pub(crate) fn place_excluding(
        &self,
        rule: &StorageRule,
        class: &ObjectClass,
        usage: &PredictedUsage,
        excluded: &[ProviderId],
    ) -> Result<Placement> {
        if excluded.is_empty() {
            let decision =
                self.infra
                    .best_placement_cached(&self.placement, rule, class.id(), usage)?;
            return Ok(decision.placement);
        }
        let providers: Vec<_> = self
            .infra
            .catalog()
            .available()
            .into_iter()
            .filter(|p| !excluded.contains(&p.id))
            .collect();
        let decision = self.placement.best_placement(rule, usage, &providers)?;
        Ok(decision.placement)
    }

    /// Commits `meta` as the object's new version — the one commit step of
    /// every put and re-placement — and reclaims exactly the chunks its
    /// outcome orphans. `row_key` is `meta`'s row.
    ///
    /// Under the row commit lock it checks `expect`: a re-placement passes
    /// the version it re-coded and the object must still be at it, a put
    /// passes `None` and reads nothing. It then commits
    /// [`Self::commit_ops`] as one journaled transaction, so a crash
    /// replays to the old or the new version, never a torn mixture, and
    /// invalidates the caches — atomically with the commit, since a
    /// reader's epoch-gated populate ([`Engine::get`]) takes the same lock.
    /// No provider round trip happens under the lock. After it:
    /// - a commit deletes the deprecated versions' chunks once the
    ///   `after_commit` crash point has passed;
    /// - a conflict, a vanished object or a refused batch (no metastore
    ///   node up) leaves no record naming `meta`'s chunks: they are deleted;
    /// - a crash ([`ScaliaError::Crashed`]) deletes nothing: recovery
    ///   redoes a logged batch, and the orphan sweep ([`crate::gc`]) takes
    ///   whatever no record names.
    pub(crate) fn commit_version(
        &self,
        row_key: &str,
        meta: &ObjectMeta,
        expect: Option<ObjectVersionId>,
        debt: bool,
        class_id: Option<&str>,
        after_commit: &str,
    ) -> Result<()> {
        let committed = {
            let _commit = self.infra.lock_row_commit(row_key);
            let current = expect.map(|_| self.read_meta(&meta.key, row_key));
            match current.transpose() {
                Ok(Some(current)) if Some(current.version) != expect => {
                    Err(ScaliaError::Conflict(format!(
                        "{} moved to version {} before version {} committed",
                        meta.key, current.version, meta.version
                    )))
                }
                Ok(_) => {
                    let ops = self.commit_ops(row_key, meta, debt, class_id);
                    let pruned = self.infra.database().transaction(ops);
                    if pruned.is_ok() {
                        self.invalidate_everywhere(row_key);
                    }
                    pruned
                }
                Err(err) => Err(err),
            }
        };
        match committed {
            Ok(pruned) => {
                self.infra.crash_point(after_commit)?;
                // The pruned set also holds repair-queue cells: they are not
                // metadata records, so they fail to decode and drop out.
                let deprecated = pruned
                    .iter()
                    .filter_map(|cell| decode_meta(&cell.value).ok());
                for old in deprecated.filter(|old| old.version != meta.version) {
                    self.delete_chunks(&old.striping);
                }
                Ok(())
            }
            Err(crash @ ScaliaError::Crashed(_)) => Err(crash),
            Err(err) => {
                self.delete_chunks(&meta.striping);
                Err(err)
            }
        }
    }

    /// The ops of one [`Self::commit_version`] transaction, all under one
    /// fresh timestamp. A clean client write is five: metadata, container
    /// index, debt clearance, metadata prune, dirty mark.
    fn commit_ops(
        &self,
        row_key: &str,
        meta: &ObjectMeta,
        debt: bool,
        class_id: Option<&str>,
    ) -> Vec<JournalOp> {
        let row_key = row_key.to_string();
        let timestamp = self.infra.next_timestamp();
        let mut ops = vec![
            JournalOp::Put {
                row_key: row_key.clone(),
                column: "meta".to_string(),
                value: Value::Bytes(meta.encode_record()),
                timestamp,
            },
            // Container index for LIST.
            JournalOp::Put {
                row_key: format!("container:{}", meta.key.container),
                column: meta.key.key.clone(),
                value: json!(true),
                timestamp,
            },
        ];
        if debt {
            // The mark alone: the repair-queue item carries the reason.
            ops.push(JournalOp::Put {
                row_key: row_key.clone(),
                column: "debt".to_string(),
                value: json!(true),
                timestamp,
            });
            ops.push(JournalOp::Put {
                row_key: crate::repair::queue_row_key(&row_key),
                column: "item".to_string(),
                value: crate::repair::queue_item(&meta.key, "degraded-write"),
                timestamp,
            });
            ops.push(JournalOp::Prune {
                row_key: crate::repair::queue_row_key(&row_key),
                column: "item".to_string(),
            });
        } else {
            // A full-width commit settles any outstanding debt.
            ops.push(JournalOp::DeleteColumn {
                row_key: row_key.clone(),
                column: "debt".to_string(),
            });
        }
        // MVCC: the freshest version wins; deprecated versions are removed
        // from the database here, their chunks by the caller.
        ops.push(JournalOp::Prune {
            row_key: row_key.clone(),
            column: "meta".to_string(),
        });
        if let Some(class_id) = class_id {
            ops.push(StatisticsStore::dirty_mark_op(
                &row_key,
                Some(class_id),
                timestamp,
            ));
        }
        ops
    }

    // ------------------------------------------------------------------
    // Read
    // ------------------------------------------------------------------

    /// Reads an object, serving it from the cache when possible.
    ///
    /// A read races MVCC garbage collection: a concurrent overwrite may
    /// prune the version whose chunks are being fetched. The read therefore
    /// retries a bounded number of times with freshly-read metadata before
    /// giving up — each retry observes a strictly newer version, so the loop
    /// cannot live-lock.
    pub fn get(&self, key: &ObjectKey) -> Result<Bytes> {
        let row_key = key.row_key();
        if let Some(data) = self.local_cache.get(&row_key) {
            self.log_access(
                &row_key,
                AccessKind::Read,
                ByteSize::from_bytes(data.len() as u64),
                ByteSize::from_bytes(data.len() as u64),
            );
            return Ok(data);
        }

        const READ_ATTEMPTS: usize = 3;
        let mut last_err = ScaliaError::ObjectNotFound(key.clone());
        for _ in 0..READ_ATTEMPTS {
            // Snapshot the cache's invalidation epoch BEFORE the metadata
            // read: any write committed after this point bumps it.
            let epoch = self.local_cache.read_epoch(&row_key);
            let meta = self.read_meta(key, &row_key)?;
            match chunk_io::fetch_and_reassemble(&self.infra, &meta) {
                Ok(data) => {
                    self.populate_cache_if_unchanged(&row_key, &meta, &data, epoch);
                    self.log_access(&row_key, AccessKind::Read, meta.size, meta.size);
                    return Ok(data);
                }
                // Chunks vanished or failed mid-read: the version was likely
                // deprecated by a concurrent writer. Re-read and retry.
                Err(err @ (ScaliaError::NotEnoughChunks { .. } | ScaliaError::DecodeFailed(_))) => {
                    last_err = err;
                }
                Err(err) => return Err(err),
            }
        }
        Err(last_err)
    }

    /// Populates the local cache with a freshly-reassembled payload — but
    /// only if no write invalidated the key since the `epoch` snapshot
    /// taken before the metadata read.
    ///
    /// Without the gate, a slow reader could insert pre-overwrite bytes
    /// *after* the writer's invalidation, and the stale entry would then be
    /// served until the next write of the same key. Writers commit and
    /// invalidate atomically under the row commit lock; taking the same
    /// lock here means an unchanged epoch proves no commit has deprecated
    /// the payload — closing the race **without** the extra metadata read
    /// per uncached get the previous revalidate-by-re-reading scheme paid.
    ///
    /// `data` must be the payload [`chunk_io::fetch_and_reassemble`] has
    /// just returned for `meta`: every stripe of it was verified against the
    /// checksum `meta` records, so the entry is cached under those checksums
    /// and no byte is hashed again.
    fn populate_cache_if_unchanged(
        &self,
        row_key: &str,
        meta: &ObjectMeta,
        data: &Bytes,
        epoch: u64,
    ) {
        if !self.local_cache.admits(data.len()) {
            return; // nothing to order against the writers
        }
        let digests = recorded_block_digests(meta);
        let _commit = self.infra.lock_row_commit(row_key);
        self.local_cache
            .put_if_epoch(row_key, data.clone(), digests, epoch);
    }

    /// Reads and decodes the current metadata version of an object.
    pub fn read_metadata(&self, key: &ObjectKey) -> Result<ObjectMeta> {
        self.read_meta(key, &key.row_key())
    }

    /// [`Self::read_metadata`] for a caller that already holds the row key.
    /// The record is decoded straight out of the stored cell, under the
    /// node's read lock, without copying it.
    pub(crate) fn read_meta(&self, key: &ObjectKey, row_key: &str) -> Result<ObjectMeta> {
        self.infra
            .database()
            .with_latest(self.datacenter, row_key, "meta", |cell| {
                decode_meta(&cell.value)
            })
            .ok_or_else(|| ScaliaError::ObjectNotFound(key.clone()))?
    }

    /// Lists the keys currently stored in a container, in key order.
    ///
    /// The container-index row is read through the replicated merged-row
    /// path ([`scalia_metastore::replication::ReplicatedStore::get_row_merged`]):
    /// per column the freshest cell across **all** up replicas wins. Reading
    /// a single node — as this method once did — served whatever replica
    /// happened to be first, and a node that was down during writes and came
    /// back before anti-entropy replayed its hints would silently drop
    /// recent puts from (or resurrect recent deletes into) the listing.
    /// That read takes each node's latest cells only, so a listed key costs
    /// the returned [`ObjectKey`]'s strings and no copy of the index row's
    /// version lists.
    pub fn list(&self, container: &str) -> Vec<ObjectKey> {
        let row = format!("container:{container}");
        self.infra
            .database()
            .get_row_merged(&row)
            .into_iter()
            .filter(|(_, cell)| cell.value == json!(true))
            .map(|(column, _)| ObjectKey::new(container, column))
            .collect()
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Deletes an object: removes its chunks (postponing deletes on
    /// unreachable providers), folds its lifetime and usage into its class
    /// statistics, and drops its metadata.
    ///
    /// Everything the metastore learns of the delete — the class samples,
    /// the metadata row drop, the container-index tombstone, the statistics
    /// row drop — is one journaled transaction: a crash leaves the object
    /// wholly present or wholly gone, never listed without metadata or
    /// survived by its statistics.
    pub fn delete(&self, key: &ObjectKey) -> Result<()> {
        let row_key = key.row_key();
        // The metadata mutation runs under the row commit lock (a migration
        // committing between our read and the row drop would otherwise leak
        // its freshly-written chunks); the provider-facing chunk deletion
        // happens after release, like every other call site.
        let commit_guard = self.infra.lock_row_commit(&row_key);
        let meta = self.read_meta(key, &row_key)?;
        let stats = self.infra.statistics(self.datacenter);
        let timestamp = self.infra.next_timestamp();

        // Fold the object's observed lifetime and mean per-period usage into
        // its class statistics as its rows are dropped.
        let lifetime_hours = self.infra.now().since(meta.written_at).as_hours();
        let class = ObjectClass::of(&meta.mime, meta.size);
        let mut ops = vec![StatisticsStore::class_lifetime_op(
            class.id(),
            lifetime_hours,
            timestamp,
        )];
        let history = stats.history(&row_key, scalia_types::stats::DEFAULT_HISTORY_LEN);
        if !history.is_empty() {
            let mean = history.mean_usage_over_last(history.len(), SAMPLING_PERIOD.as_hours());
            ops.push(StatisticsStore::class_usage_op(
                class.id(),
                &mean,
                timestamp,
            ));
        }
        ops.push(JournalOp::DeleteRow {
            row_key: row_key.clone(),
        });
        ops.push(JournalOp::Put {
            row_key: format!("container:{}", key.container),
            column: key.key.clone(),
            value: json!(false),
            timestamp,
        });
        ops.push(StatisticsStore::delete_object_stats_op(&row_key));
        self.infra.database().transaction(ops)?;
        // Invalidate under the commit lock — atomic with the metadata drop,
        // so an in-flight reader's epoch-gated populate cannot resurrect
        // the deleted payload.
        self.invalidate_everywhere(&row_key);
        drop(commit_guard);
        // Chaos crash point: the delete is durable but its chunks are still
        // at the providers — the orphan sweep reconciles them.
        self.infra.crash_point("delete::after-commit")?;

        // Chunk deletion (provider round-trips) after the metadata is gone:
        // in-flight readers of the old version already tolerate vanishing
        // chunks, and unreachable providers get a postponed delete.
        self.delete_chunks(&meta.striping);
        Ok(())
    }

    /// Deletes every chunk of a striping in parallel, postponing chunks
    /// whose provider is unreachable ("the deletion of the chunk residing
    /// at a faulty provider is postponed until the provider recovers").
    pub(crate) fn delete_chunks(&self, striping: &StripingMeta) {
        chunk_io::delete_chunks(&self.infra, &striping.stripes);
    }

    // ------------------------------------------------------------------
    // Re-placement (used by the periodic optimiser and active repair)
    // ------------------------------------------------------------------

    /// Moves an object to a new placement, stripe by stripe: each stripe is
    /// fetched (hedged) and verified, re-encoded for the new `(m, n)` and
    /// uploaded under the keys of a fresh version, keeping the resident
    /// working set O(stripe); then the new metadata version commits through
    /// the engine's one commit step (`commit_version`, the put's too) and
    /// the old chunks are deleted. Returns the new metadata. The commit is
    /// full-width, so it settles any degraded-write debt atomically.
    ///
    /// The commit is **conditional** (optimistic concurrency): the re-coded
    /// payload is only valid for the version that was read, so if a client
    /// write (or another migration) committed a newer version in the
    /// meantime, committing ours would silently revert the client's data.
    /// In that case the freshly-written chunks are rolled back and
    /// [`ScaliaError::Conflict`] is returned — the optimiser simply skips
    /// the object; it will be reconsidered next cycle. A commit the
    /// metastore refuses rolls them back too. A crash
    /// ([`ScaliaError::Crashed`]) rolls back nothing: once its transaction
    /// was logged, recovery commits the new version, whose chunks must then
    /// be there. Crash points visited: the transaction's `txn::*`, then
    /// `replace::after-commit` (committed, old chunks not yet deleted).
    pub fn replace_placement(
        &self,
        key: &ObjectKey,
        new_placement: &Placement,
    ) -> Result<ObjectMeta> {
        let row_key = key.row_key();
        let old_meta = self.read_meta(key, &row_key)?;
        let version = self.infra.next_version(&row_key);
        let base_skey = StripingMeta::storage_key(key, version);
        let params = new_placement.erasure_params();

        // Chunk uploads happen outside the commit lock (they may be slow).
        // No re-placement on failure here: the caller chose this placement
        // deliberately; a failed provider just fails the migration (the
        // optimiser retries the object next cycle), and chunk_io has
        // already rolled back the failed stripe's partial upload.
        let mut stripes: Vec<StripeMeta> = Vec::with_capacity(old_meta.striping.stripe_count());
        for (i, old_stripe) in old_meta.striping.stripes.iter().enumerate() {
            let skey = stripe_skey(base_skey.clone(), i);
            let landed = chunk_io::fetch_stripe(&self.infra, &old_meta, i)
                .and_then(|plain| encode_object(&plain, params))
                .and_then(|encoded| {
                    chunk_io::upload(&self.infra, new_placement, &skey, &encoded, true)
                        .map_err(ScaliaError::from)
                });
            match landed {
                Ok(chunks) => stripes.push(StripeMeta {
                    chunks,
                    m: new_placement.m,
                    // The plaintext is unchanged (`fetch_stripe` verified it
                    // against this very checksum).
                    checksum: old_stripe.checksum.clone(),
                    skey,
                }),
                Err(err) => {
                    // Roll back the stripes that already landed on the new
                    // placement; the old version is untouched.
                    chunk_io::delete_chunks(&self.infra, &stripes);
                    return Err(err);
                }
            }
        }

        let old_version = old_meta.version;
        let new_meta = ObjectMeta {
            version,
            striping: StripingMeta {
                stripe_size: old_meta.striping.stripe_size,
                stripes,
            },
            ..old_meta
        };
        self.commit_version(
            &row_key,
            &new_meta,
            Some(old_version),
            false,
            None,
            "replace::after-commit",
        )?;
        Ok(new_meta)
    }

    /// The access history of an object, as recorded by the statistics
    /// pipeline.
    pub fn history(&self, key: &ObjectKey) -> AccessHistory {
        self.infra
            .statistics(self.datacenter)
            .history(&key.row_key(), scalia_types::stats::DEFAULT_HISTORY_LEN)
    }

    pub(crate) fn invalidate_everywhere(&self, row_key: &str) {
        for cache in &self.all_caches {
            cache.invalidate(row_key);
        }
    }

    pub(crate) fn log_access(
        &self,
        row_key: &str,
        kind: AccessKind,
        bytes: ByteSize,
        size: ByteSize,
    ) {
        self.log_agent.log(AccessLogRecord {
            engine: self.id,
            object_row_key: row_key.to_string(),
            period: self.infra.current_period(),
            kind,
            bytes,
            object_size: size,
        });
    }
}

/// Decodes a `meta` cell: the record [`Engine::commit_version`] wrote
/// ([`ObjectMeta::decode_record`]). Any other value is an error.
pub(crate) fn decode_meta(value: &Value) -> Result<ObjectMeta> {
    match value {
        Value::Bytes(record) => ObjectMeta::decode_record(record),
        _ => Err(ScaliaError::Internal(
            "metadata record: the meta cell holds no record".to_string(),
        )),
    }
}

/// The current metadata of the object at `row_key` as the replica nearest
/// `datacenter` holds it, decoded straight out of the stored cell (the
/// record is not copied); `None` when the object is gone or its record does
/// not decode.
pub(crate) fn load_meta(
    infra: &Infrastructure,
    datacenter: DatacenterId,
    row_key: &str,
) -> Option<ObjectMeta> {
    infra
        .database()
        .with_latest(datacenter, row_key, "meta", |cell| {
            decode_meta(&cell.value).ok()
        })
        .flatten()
}

/// The class of the object at `row_key`, derived from its metadata record
/// ([`load_meta`]): no copy of it is stored; `ids` turns the record's mime
/// and size into the class id. `None` when the object has no readable
/// record.
pub(crate) fn load_class(
    infra: &Infrastructure,
    datacenter: DatacenterId,
    row_key: &str,
    ids: &mut ClassIds,
) -> Option<String> {
    load_meta(infra, datacenter, row_key).map(|meta| ids.id(&meta.mime, meta.size))
}

/// Class ids by mime, then by size in whole megabytes — the two inputs of
/// [`ObjectClass::of`] — so a caller that resolves many objects (a flush,
/// an optimisation pass) hashes each distinct class once.
#[derive(Default)]
pub(crate) struct ClassIds(HashMap<String, HashMap<u64, String>>);

impl ClassIds {
    /// `ObjectClass::of(mime, size).id()`, memoised.
    fn id(&mut self, mime: &str, size: ByteSize) -> String {
        let mb = size.discretize_mb();
        if let Some(id) = self.0.get(mime).and_then(|by_mb| by_mb.get(&mb)) {
            return id.clone();
        }
        let id = ObjectClass::of(mime, size).id().to_string();
        self.0
            .entry(mime.to_string())
            .or_default()
            .insert(mb, id.clone());
        id
    }
}

/// The block digests `meta` records for its payload, in the cache's terms:
/// one block per stripe under [`StripeMeta::checksum`]. `None` when a
/// recorded checksum does not parse, which leaves the cache to hash the
/// payload itself.
fn recorded_block_digests(meta: &ObjectMeta) -> Option<BlockDigests> {
    let striping = &meta.striping;
    Some(BlockDigests {
        block_len: usize::try_from(striping.stripe_size).ok()?,
        digests: striping
            .stripes
            .iter()
            .map(|stripe| parse_checksum_hex(&stripe.checksum))
            .collect::<Option<Vec<u64>>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ScaliaCluster;
    use scalia_types::reliability::Reliability;

    fn cluster() -> ScaliaCluster {
        ScaliaCluster::builder()
            .datacenters(2)
            .engines_per_datacenter(2)
            .build()
    }

    fn rule() -> StorageRule {
        StorageRule::new(
            "test",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            scalia_types::zone::ZoneSet::all(),
            0.5,
        )
    }

    #[test]
    fn put_get_roundtrip_through_engine() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("photos", "cat.jpg");
        let payload = Bytes::from(vec![7u8; 300_000]);
        let meta = engine
            .put(&key, payload.clone(), "image/jpeg", rule(), None)
            .unwrap();
        assert!(meta.striping.n() >= 2, "lock-in 0.5 needs ≥2 providers");
        assert_eq!(meta.size, ByteSize::from_bytes(300_000));

        // Any engine (any datacenter) can read it back.
        for idx in 0..cluster.engine_count() {
            let data = cluster.engine(idx).get(&key).unwrap();
            assert_eq!(data, payload);
        }
    }

    /// The memoised class id is `ObjectClass::of`'s, for sizes on either
    /// side of a megabyte boundary and on a second lookup.
    #[test]
    fn class_ids_are_object_class_ids() {
        let mut ids = ClassIds::default();
        for _ in 0..2 {
            for mime in ["image/png", "text/plain", ""] {
                for bytes in [0, 1, 999_999, 1_000_000, 1_000_001, 7_340_032] {
                    let size = ByteSize::from_bytes(bytes);
                    assert_eq!(ids.id(mime, size), ObjectClass::of(mime, size).id());
                }
            }
        }
    }

    /// A `meta` cell that holds no valid record — garbage bytes, or a value
    /// tree — fails the read path with `Internal`, gives the object no
    /// class, and the orphan sweep skips it and completes.
    #[test]
    fn an_undecodable_meta_cell_is_an_internal_error() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let infra = cluster.infra();
        let key = ObjectKey::new("photos", "garbled.jpg");
        engine
            .put(
                &key,
                Bytes::from(vec![3u8; 5_000]),
                "image/jpeg",
                rule(),
                None,
            )
            .unwrap();
        let class_of =
            |ids: &mut ClassIds| load_class(infra, DatacenterId::new(0), &key.row_key(), ids);
        let class = ObjectClass::of("image/jpeg", ByteSize::from_bytes(5_000));
        assert_eq!(
            class_of(&mut ClassIds::default()).as_deref(),
            Some(class.id())
        );
        for garbage in [
            Value::Bytes(vec![1, 0xff, 0xff, 0xff, 0xff, 7].into_boxed_slice()),
            Value::Bytes(Box::default()),
            json!({ "key": "not a record" }),
        ] {
            infra
                .database()
                .transaction(vec![JournalOp::Put {
                    row_key: key.row_key(),
                    column: "meta".to_string(),
                    value: garbage,
                    timestamp: infra.next_timestamp(),
                }])
                .unwrap();
            let err = engine.get(&key).unwrap_err();
            assert!(matches!(err, ScaliaError::Internal(_)), "{err}");
            assert_eq!(class_of(&mut ClassIds::default()), None);
            let report = crate::gc::sweep_orphan_chunks(infra);
            assert!(
                report.chunks_referenced > 0,
                "the first version still counts"
            );
            assert_eq!(report.orphans_deleted, 0);
        }
    }

    #[test]
    fn read_miss_reports_not_found() {
        let cluster = cluster();
        let err = cluster
            .engine(0)
            .get(&ObjectKey::new("photos", "missing.jpg"))
            .unwrap_err();
        assert!(matches!(err, ScaliaError::ObjectNotFound(_)));
    }

    #[test]
    fn overwrite_cleans_up_previous_version_chunks() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("docs", "report.pdf");
        engine
            .put(
                &key,
                Bytes::from(vec![1u8; 100_000]),
                "application/pdf",
                rule(),
                None,
            )
            .unwrap();
        let stored_after_first: u64 = cluster
            .infra()
            .backends()
            .iter()
            .map(|b| b.stored_bytes().bytes())
            .sum();
        engine
            .put(
                &key,
                Bytes::from(vec![2u8; 100_000]),
                "application/pdf",
                rule(),
                None,
            )
            .unwrap();
        let stored_after_second: u64 = cluster
            .infra()
            .backends()
            .iter()
            .map(|b| b.stored_bytes().bytes())
            .sum();
        // The old version's chunks were deleted, so the footprint stays flat
        // (within a small tolerance for padding differences).
        assert!(
            stored_after_second <= stored_after_first + 1024,
            "old chunks must be garbage collected: {stored_after_first} -> {stored_after_second}"
        );
        // And the content served is the new one.
        assert_eq!(engine.get(&key).unwrap()[0], 2u8);
    }

    #[test]
    fn cache_serves_repeated_reads_without_provider_traffic() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("photos", "logo.png");
        engine
            .put(
                &key,
                Bytes::from(vec![3u8; 50_000]),
                "image/png",
                rule(),
                None,
            )
            .unwrap();
        engine.get(&key).unwrap();
        let ops_after_first: u64 = cluster
            .infra()
            .backends()
            .iter()
            .map(|b| b.usage().ops)
            .sum();
        for _ in 0..10 {
            engine.get(&key).unwrap();
        }
        let ops_after_many: u64 = cluster
            .infra()
            .backends()
            .iter()
            .map(|b| b.usage().ops)
            .sum();
        assert_eq!(
            ops_after_first, ops_after_many,
            "cached reads must not touch the providers"
        );
    }

    #[test]
    fn delete_removes_chunks_and_metadata() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("backups", "db.tar");
        engine
            .put(
                &key,
                Bytes::from(vec![9u8; 200_000]),
                "application/x-tar",
                rule(),
                None,
            )
            .unwrap();
        engine.delete(&key).unwrap();
        assert!(matches!(
            engine.get(&key).unwrap_err(),
            ScaliaError::ObjectNotFound(_)
        ));
        let stored: u64 = cluster
            .infra()
            .backends()
            .iter()
            .map(|b| b.stored_bytes().bytes())
            .sum();
        assert_eq!(stored, 0, "all chunks must be removed");
        assert!(engine.list("backups").is_empty());
    }

    #[test]
    fn list_reflects_puts_and_deletes() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let k1 = ObjectKey::new("pics", "a.gif");
        let k2 = ObjectKey::new("pics", "b.gif");
        engine
            .put(&k1, Bytes::from(vec![1u8; 1000]), "image/gif", rule(), None)
            .unwrap();
        engine
            .put(&k2, Bytes::from(vec![1u8; 1000]), "image/gif", rule(), None)
            .unwrap();
        let mut listed = engine.list("pics");
        listed.sort();
        assert_eq!(listed, vec![k1.clone(), k2.clone()]);
        engine.delete(&k1).unwrap();
        assert_eq!(engine.list("pics"), vec![k2]);
        assert!(engine.list("other").is_empty());
    }

    #[test]
    fn read_survives_a_provider_outage() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("photos", "holiday.jpg");
        let payload = Bytes::from(vec![5u8; 400_000]);
        let meta = engine
            .put(&key, payload.clone(), "image/jpeg", rule(), None)
            .unwrap();
        assert!(meta.striping.n() > meta.striping.m(), "needs redundancy");

        // Take down one provider that holds a chunk; reads must still work.
        let victim = meta.striping.stripe_view(0).chunks[0].provider;
        cluster.infra().set_provider_down(victim, true);
        // Bypass the cache to force a provider read.
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(engine.get(&key).unwrap(), payload);
    }

    #[test]
    fn delete_during_outage_is_postponed_until_recovery() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("backups", "weekly.tar");
        let meta = engine
            .put(
                &key,
                Bytes::from(vec![8u8; 120_000]),
                "application/x-tar",
                rule(),
                None,
            )
            .unwrap();
        let victim = meta.striping.stripe_view(0).chunks[0].provider;
        cluster.infra().set_provider_down(victim, true);

        engine.delete(&key).unwrap();
        assert!(cluster.infra().pending_delete_count() > 0);
        let victim_backend = cluster.infra().backend(victim).unwrap();
        assert!(
            victim_backend.object_count() > 0,
            "chunk still there while down"
        );

        cluster.infra().set_provider_down(victim, false);
        cluster.infra().retry_pending_deletes();
        assert_eq!(cluster.infra().pending_delete_count(), 0);
        assert_eq!(victim_backend.object_count(), 0);
    }

    #[test]
    fn replace_placement_moves_chunks() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("photos", "move-me.jpg");
        let payload = Bytes::from(vec![4u8; 250_000]);
        engine
            .put(&key, payload.clone(), "image/jpeg", rule(), None)
            .unwrap();

        // Force a mirroring placement on the two S3 offerings.
        let all = cluster.infra().catalog().all();
        let new_placement = Placement {
            providers: vec![all[0].clone(), all[1].clone()],
            m: 1,
        };
        let new_meta = engine.replace_placement(&key, &new_placement).unwrap();
        assert_eq!(new_meta.striping.m(), 1);
        assert_eq!(new_meta.striping.n(), 2);
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(engine.get(&key).unwrap(), payload);
        // Only the two chosen providers hold data now.
        for backend in cluster.infra().backends() {
            let holds = backend.object_count() > 0;
            let chosen = new_meta
                .striping
                .provider_set()
                .contains(&backend.descriptor().id);
            assert_eq!(holds, chosen, "provider {}", backend.descriptor().name);
        }
    }

    #[test]
    fn list_merges_past_a_lagging_replica() {
        // Regression for the single-replica listing bug: a node that was
        // down during writes and came back *before* anti-entropy replayed
        // its hints must not make `list` drop committed keys or resurrect
        // deleted ones.
        let cluster = cluster();
        let engine = cluster.engine(0);
        let db = cluster.infra().database().clone();
        let kept = ObjectKey::new("pics", "kept.gif");
        let doomed = ObjectKey::new("pics", "doomed.gif");
        let fresh = ObjectKey::new("pics", "fresh.gif");
        engine
            .put(
                &kept,
                Bytes::from(vec![1u8; 1000]),
                "image/gif",
                rule(),
                None,
            )
            .unwrap();
        engine
            .put(
                &doomed,
                Bytes::from(vec![1u8; 1000]),
                "image/gif",
                rule(),
                None,
            )
            .unwrap();

        // An hour passes: the log aggregator writes the objects' statistics
        // rows, so the delete below has every kind of row to drop.
        cluster.tick(scalia_types::time::SimTime::from_hours(1));
        let doomed_rows = |node: &scalia_metastore::NoSqlNode| -> Vec<String> {
            let mut rows = Vec::new();
            node.visit(scalia_metastore::store::Rows::Prefix(""), |row| {
                if row.key().contains(&doomed.row_key()) {
                    rows.push(row.key().to_string());
                }
            });
            rows
        };
        assert_eq!(
            doomed_rows(&db.nodes()[0]).len(),
            2,
            "the metadata row and the statistics row"
        );

        // The local datacenter's node misses a put and a delete...
        db.nodes()[0].set_up(false);
        engine
            .put(
                &fresh,
                Bytes::from(vec![2u8; 1000]),
                "image/gif",
                rule(),
                None,
            )
            .unwrap();
        engine.delete(&doomed).unwrap();
        // ...and comes back lagging: its hints have not been replayed yet.
        db.nodes()[0].set_up(true);
        assert!(db.pending_hints() > 0, "the replica must really be lagging");

        let mut listed = engine.list("pics");
        listed.sort();
        assert_eq!(
            listed,
            vec![fresh.clone(), kept.clone()],
            "list must merge the freshest cells across replicas, not trust the lagging one"
        );

        // Anti-entropy settles the replica; the listing is unchanged.
        db.anti_entropy();
        assert_eq!(db.pending_hints(), 0);
        let mut listed = engine.list("pics");
        listed.sort();
        assert_eq!(listed, vec![fresh, kept]);

        // The delete was hinted like the put: the lagging replica dropped
        // the object's rows instead of handing them back to the others, so
        // no replica serves metadata whose chunks are gone.
        for local in 0..2 {
            assert!(matches!(
                cluster.engine(local * 2).get(&doomed),
                Err(ScaliaError::ObjectNotFound(_))
            ));
        }
        for node in db.nodes() {
            assert_eq!(doomed_rows(node), Vec::<String>::new());
        }
    }

    #[test]
    fn dirty_mark_commits_atomically_with_the_metadata() {
        use scalia_providers::failure::FaultPlan;

        let cluster = cluster();
        let engine = cluster.engine(0);
        let infra = cluster.infra().clone();
        let db = infra.database();
        let stats = infra.statistics(DatacenterId::new(0));
        let payload = || Bytes::from(vec![6u8; 150_000]);
        let class = ObjectClass::of("application/pdf", ByteSize::from_bytes(150_000));
        let tag_of = |key: &ObjectKey| {
            stats
                .objects_accessed_since_classified(scalia_metastore::Timestamp::ZERO)
                .0
                .into_iter()
                .find(|(row_key, _)| *row_key == key.row_key())
                .map(|(_, tag)| tag)
        };

        // One put is one transaction: a Begin and a Commit record, nothing
        // beside them — the class-tagged dirty mark rides in the batch.
        let key = ObjectKey::new("docs", "classed.pdf");
        let records_before = db.journal().len();
        engine
            .put(&key, payload(), "application/pdf", rule(), None)
            .unwrap();
        assert_eq!(db.journal().len() - records_before, 2);
        assert_eq!(tag_of(&key), Some(Some(class.id().to_string())));

        // A crash once the batch is logged recovers to metadata *and* dirty
        // mark; a crash before it is logged recovers to neither. There is
        // no state in which the object is committed but missing from the
        // optimiser's accessed set.
        for (label, commits) in [("txn::before-log", false), ("txn::torn", true)] {
            let key = ObjectKey::new("docs", format!("{label}.pdf"));
            let checkpoint = db.checkpoint();
            let plan = Arc::new(FaultPlan::new());
            plan.arm(label);
            infra.set_fault_plan(Some(plan));
            assert!(engine
                .put(&key, payload(), "application/pdf", rule(), None)
                .is_err());
            infra.set_fault_plan(None);
            db.recover(&checkpoint);
            assert_eq!(engine.read_metadata(&key).is_ok(), commits, "{label}");
            assert_eq!(
                tag_of(&key),
                commits.then(|| Some(class.id().to_string())),
                "{label}: the dirty mark must share the metadata's fate"
            );
        }
    }

    /// Lands `data` (one stripe) on `placement` as a fresh, uncommitted
    /// version of `base`'s object: what a re-placement holds when it
    /// reaches its commit.
    fn landed_version(
        engine: &Engine,
        base: &ObjectMeta,
        data: &[u8],
        placement: &Placement,
    ) -> ObjectMeta {
        let version = engine.infra.next_version(&base.key.row_key());
        let skey = StripingMeta::storage_key(&base.key, version);
        let encoded = encode_object(data, placement.erasure_params()).unwrap();
        let chunks = chunk_io::upload(&engine.infra, placement, &skey, &encoded, true).unwrap();
        let stripe = StripeMeta {
            chunks,
            m: placement.m,
            checksum: base.checksum.clone(),
            skey,
        };
        ObjectMeta {
            version,
            striping: StripingMeta {
                stripe_size: base.striping.stripe_size,
                stripes: vec![stripe],
            },
            ..base.clone()
        }
    }

    fn stored_chunks(cluster: &ScaliaCluster) -> u32 {
        let backends = cluster.infra().backends();
        backends.iter().map(|b| b.object_count() as u32).sum()
    }

    /// A commit that expects a version the object has moved past is a
    /// conflict: nothing commits, the new version's chunks are deleted, and
    /// the newer write stays readable.
    #[test]
    fn a_stale_expectation_conflicts_and_takes_its_chunks_back() {
        let cluster = cluster();
        let engine = cluster.engine(0);
        let key = ObjectKey::new("commit", "stale.bin");
        let payload = |fill: u8| Bytes::from(vec![fill; 30_000]);
        let first = engine
            .put(&key, payload(1), "image/png", rule(), None)
            .unwrap();
        let moved = landed_version(
            engine,
            &first,
            &payload(1),
            &Placement {
                providers: cluster.infra().catalog().available(),
                m: 2,
            },
        );
        let newer = engine
            .put(&key, payload(2), "image/png", rule(), None)
            .unwrap();
        assert!(stored_chunks(&cluster) > newer.striping.n());

        let err = engine
            .commit_version(
                &key.row_key(),
                &moved,
                Some(first.version),
                false,
                None,
                "replace::after-commit",
            )
            .unwrap_err();
        assert!(matches!(err, ScaliaError::Conflict(_)), "{err}");
        assert_eq!(stored_chunks(&cluster), newer.striping.n());
        assert_eq!(engine.read_metadata(&key).unwrap(), newer);
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(engine.get(&key).unwrap(), payload(2));
    }

    /// A commit no metastore node accepts leaves no record naming the new
    /// version's chunks, so it deletes them; the old version is untouched.
    #[test]
    fn a_refused_commit_takes_its_chunks_back() {
        let cluster = ScaliaCluster::builder()
            .datacenters(1)
            .engines_per_datacenter(1)
            .build();
        let engine = cluster.engine(0);
        let db = cluster.infra().database();
        let key = ObjectKey::new("commit", "refused.bin");
        let data = Bytes::from(vec![5u8; 30_000]);
        let old = engine
            .put(&key, data.clone(), "image/png", rule(), None)
            .unwrap();
        let all = cluster.infra().catalog().all();
        let mirrored = Placement {
            providers: vec![all[0].clone(), all[1].clone()],
            m: 1,
        };
        let new = landed_version(engine, &old, &data, &mirrored);
        assert_eq!(stored_chunks(&cluster), old.striping.n() + 2);

        db.nodes()[0].set_up(false);
        let err = engine
            .commit_version(&key.row_key(), &new, None, false, None, "put::after-commit")
            .unwrap_err();
        db.nodes()[0].set_up(true);
        assert_eq!(err, ScaliaError::DatacenterUnavailable(0));
        assert_eq!(stored_chunks(&cluster), old.striping.n());
        assert_eq!(engine.read_metadata(&key).unwrap(), old);
        assert_eq!(engine.get(&key).unwrap(), data);
    }

    /// What each commit costs, counted: the journal records it appends, the
    /// per-provider usage it adds (`[ops, bytes in, bytes out]`, in provider
    /// id order) and the chunks the providers hold after it — for a 4 KiB
    /// put, its overwrite, a re-placement, a put the metastore refuses and a
    /// delete. With cache 0 no step is served from memory, so every count
    /// is exact.
    #[test]
    fn each_commit_costs_exactly_its_counted_round_trips() {
        let cluster = ScaliaCluster::builder()
            .datacenters(1)
            .engines_per_datacenter(1)
            .cache_capacity(ByteSize::ZERO)
            .build();
        let engine = cluster.engine(0);
        let infra = cluster.infra();
        let db = infra.database();
        let key = ObjectKey::new("costs", "k.bin");
        let put = |fill: u8| {
            engine.put(
                &key,
                Bytes::from(vec![fill; 4096]),
                "image/png",
                rule(),
                None,
            )
        };
        let counters = || {
            let mut backends = infra.backends();
            backends.sort_by_key(|b| b.descriptor().id);
            let usage: Vec<[u64; 3]> = backends
                .iter()
                .map(|b| b.usage())
                .map(|u| [u.ops, u.bw_in.bytes(), u.bw_out.bytes()])
                .collect();
            let chunks: usize = backends.iter().map(|b| b.object_count()).sum();
            (db.journal().len(), usage, chunks)
        };
        let mut costs = Vec::new();
        let mut measure = |op: &'static str, run: &dyn Fn()| {
            let (records, usage, _) = counters();
            run();
            let (records_after, usage_after, chunks) = counters();
            let usage: Vec<[u64; 3]> = usage_after
                .iter()
                .zip(&usage)
                .map(|(after, before)| [0, 1, 2].map(|i| after[i] - before[i]))
                .collect();
            costs.push((op, records_after - records, usage, chunks));
        };

        measure("put", &|| {
            put(1).unwrap();
        });
        measure("overwrite", &|| {
            put(2).unwrap();
        });
        measure("replace", &|| {
            let all = infra.catalog().all();
            let mirrored = Placement {
                providers: vec![all[0].clone(), all[1].clone()],
                m: 1,
            };
            engine.replace_placement(&key, &mirrored).unwrap();
        });
        measure("refused put", &|| {
            db.nodes()[0].set_up(false);
            let refused = put(3).unwrap_err();
            db.nodes()[0].set_up(true);
            assert!(matches!(refused, ScaliaError::DatacenterUnavailable(0)));
        });
        measure("delete", &|| engine.delete(&key).unwrap());
        assert_eq!(
            engine.get(&key),
            Err(ScaliaError::ObjectNotFound(key.clone()))
        );

        // A put lands a 3-of-4 stripe of 1 366-byte chunks in one Begin +
        // Commit pair; its overwrite also deletes the four old chunks. The
        // re-placement reads three data chunks, writes the 4 KiB mirror
        // twice and deletes the four old chunks. A refused put lands its
        // chunks, takes them back and journals nothing. A delete removes
        // the two mirrored chunks.
        #[rustfmt::skip]
        let expected = vec![
            ("put", 2, vec![[1, 1366, 0], [1, 1366, 0], [1, 1366, 0], [1, 1366, 0], [0; 3]], 4),
            ("overwrite", 2, vec![[2, 1366, 0], [2, 1366, 0], [2, 1366, 0], [2, 1366, 0], [0; 3]], 4),
            ("replace", 2, vec![[3, 4096, 1366], [3, 4096, 1366], [2, 0, 1366], [1, 0, 0], [0; 3]], 2),
            ("refused put", 0, vec![[2, 1366, 0], [2, 1366, 0], [2, 1366, 0], [2, 1366, 0], [0; 3]], 2),
            ("delete", 2, vec![[1, 0, 0], [1, 0, 0], [0; 3], [0; 3], [0; 3]], 0),
        ];
        assert_eq!(costs, expected);
    }

    #[test]
    fn an_object_row_holds_only_its_record_and_its_debt() {
        let cluster = ScaliaCluster::builder()
            .datacenters(1)
            .engines_per_datacenter(1)
            .build();
        let engine = cluster.engine(0);
        let infra = cluster.infra();
        let db = infra.database();
        let columns = |key: &ObjectKey| -> Vec<String> {
            db.get_row_merged(&key.row_key())
                .into_iter()
                .map(|(column, _)| column)
                .collect()
        };
        let stats_row = |key: &ObjectKey| {
            db.get_row_merged(&format!("stats:obj:{}", key.row_key()))
                .into_iter()
                .map(|(column, _)| column)
                .collect::<Vec<_>>()
        };
        let payload = || Bytes::from(vec![4u8; 20_000]);

        // A clean put commits five ops and leaves one column.
        let clean = ObjectKey::new("rows", "clean.bin");
        let meta = engine
            .put(&clean, payload(), "image/png", rule(), None)
            .unwrap();
        let class = ObjectClass::of(&meta.mime, meta.size);
        assert_eq!(
            engine
                .commit_ops(&clean.row_key(), &meta, false, Some(class.id()))
                .len(),
            5
        );
        assert_eq!(columns(&clean), ["meta"]);
        assert!(
            stats_row(&clean).is_empty(),
            "no statistics row before the first flush"
        );

        // A degraded put adds the debt column, and nothing else.
        let victim = infra.catalog().all()[0].id;
        infra.backend(victim).unwrap().set_down(true);
        let degraded = ObjectKey::new("rows", "degraded.bin");
        let wide = StorageRule::new(
            "wide",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.0),
            scalia_types::zone::ZoneSet::all(),
            0.2,
        );
        engine
            .put(&degraded, payload(), "image/png", wide, None)
            .unwrap();
        assert_eq!(columns(&degraded), ["debt", "meta"]);
        let row = db.get_row_merged(&degraded.row_key());
        let (_, debt) = row.iter().find(|(column, _)| column == "debt").unwrap();
        assert_eq!(
            debt.value,
            json!(true),
            "the debt cell is a mark; the queue item holds the reason"
        );
        infra.set_provider_down(victim, false);

        // A migration commits the record alone.
        let meta = engine.read_metadata(&clean).unwrap();
        let everywhere = Placement {
            providers: infra.catalog().available(),
            m: meta.striping.m(),
        };
        let moved = engine.replace_placement(&clean, &everywhere).unwrap();
        assert_ne!(moved.version, meta.version);
        assert_eq!(columns(&clean), ["meta"]);

        // The first flush writes the statistics row.
        cluster.tick(scalia_types::time::SimTime::from_hours(1));
        assert!(!stats_row(&clean).is_empty());
    }
}
