//! The statistics tables.
//!
//! Three families of rows are kept (paper Fig. 6, extended):
//!
//! * **per-object** access statistics — one column per sampling period with
//!   the storage / bandwidth / operation counters of that period. The row
//!   appears at the object's first statistics flush. An object's class is
//!   not stored here: it is derived from the object's metadata record
//!   wherever it is needed, so it cannot drift from the record;
//! * **per-class** statistics — resource-usage samples and lifetime samples
//!   of all objects of a class, used to pick a good *first* placement for
//!   new objects and to estimate time-left-to-live, plus incrementally
//!   maintained **per-period rollups** (one column per `(period, member)`
//!   contribution) that feed class-level trend detection and the
//!   one-search-per-class optimisation pipeline;
//! * the **dirty-set index** — one row per time bucket whose columns are
//!   the row keys of objects accessed or modified in that bucket. The
//!   periodic optimiser's accessed-set fetch visits the range of buckets
//!   since its previous run on every up replica, so the cells it reads
//!   scale with the number of objects actually touched, not with the
//!   number of rows stored.
//!
//! Statistics rows are always written with globally unique `(row, column,
//! timestamp)` coordinates, so — as the paper notes — they never conflict.
//! Writers build [`JournalOp`]s and commit them through
//! [`ReplicatedStore::transaction`]: the log aggregator a whole flush as one
//! batch, the garbage collectors each pass's deletions as one batch.

use crate::journal::JournalOp;
use crate::model::Timestamp;
use crate::replication::ReplicatedStore;
use crate::store::{RowView, Rows};
use parking_lot::Mutex;
use scalia_types::ids::DatacenterId;
use scalia_types::size::ByteSize;
use scalia_types::stats::{AccessHistory, PeriodStats};
use scalia_types::usage::ResourceUsage;
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;

/// Prefix of per-object statistics rows.
const OBJ_PREFIX: &str = "stats:obj:";
/// Prefix of per-class statistics rows.
const CLASS_PREFIX: &str = "stats:class:";
/// Prefix of dirty-set index rows (`stats:dirty:{bucket:012}`).
const DIRTY_PREFIX: &str = "stats:dirty:";
/// Exclusive upper bound of the dirty-set row-key range (`;` = `:` + 1, so
/// every `stats:dirty:…` key sorts strictly below it).
const DIRTY_END: &str = "stats:dirty;";
/// Width of one dirty-set time bucket, in simulated seconds. A pure index
/// partition (not a semantic sampling period): entries land in the bucket of
/// their write timestamp, so a fetch "since `t`" only ever needs buckets
/// `>= t / DIRTY_BUCKET_SECS`.
pub(crate) const DIRTY_BUCKET_SECS: u64 = 3600;
/// Cap on retained per-class lifetime and usage sample columns; garbage
/// collection drops the oldest samples beyond it, so a churning deployment's
/// class rows stay bounded.
pub const MAX_CLASS_SAMPLES: usize = 512;
/// Rollup columns older than this many sampling periods are dropped by
/// [`StatisticsStore::gc_statistics`] — matching the per-object history
/// bound ([`scalia_types::stats::DEFAULT_HISTORY_LEN`]).
pub(crate) const CLASS_ROLLUP_RETENTION: u64 = scalia_types::stats::DEFAULT_HISTORY_LEN as u64;

/// One aggregated per-period class rollup record: the summed member
/// statistics of the period and the number of distinct members contributing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPeriodRecord {
    /// Member statistics summed over every contributing object.
    pub stats: PeriodStats,
    /// Number of distinct objects that contributed to the period.
    pub objects: u64,
}

/// The statistics store shared by engines and the periodic optimiser.
pub struct StatisticsStore {
    /// The store every statistics write commits to, as a transaction.
    pub(crate) db: Arc<ReplicatedStore>,
    local: DatacenterId,
    /// [`Self::mean_class_usage`]'s memo, by class id.
    class_means: Mutex<HashMap<String, ClassMean>>,
    /// Usage-sample scans [`Self::mean_class_usage`] ran (memo misses).
    #[cfg(test)]
    mean_scans: std::sync::atomic::AtomicUsize,
}

/// A memoised class mean: the mean of the usage samples of a class row as
/// one node held it, and that row's digest when it did.
#[derive(Debug, Clone, Copy)]
struct ClassMean {
    node: DatacenterId,
    digest: u64,
    mean: Option<ResourceUsage>,
}

impl StatisticsStore {
    /// Creates a statistics store on top of a replicated database, reading
    /// from the given local datacenter by preference.
    pub fn new(db: Arc<ReplicatedStore>, local: DatacenterId) -> Self {
        StatisticsStore {
            db,
            local,
            class_means: Mutex::new(HashMap::new()),
            #[cfg(test)]
            mean_scans: Default::default(),
        }
    }

    fn obj_row(object_row_key: &str) -> String {
        format!("{OBJ_PREFIX}{object_row_key}")
    }

    fn class_row(class_id: &str) -> String {
        format!("{CLASS_PREFIX}{class_id}")
    }

    fn dirty_row(bucket: u64) -> String {
        format!("{DIRTY_PREFIX}{bucket:012}")
    }

    fn dirty_bucket(timestamp: Timestamp) -> u64 {
        timestamp.secs / DIRTY_BUCKET_SECS
    }

    /// Visits `rows` on the nearest up replica, this store's datacenter
    /// first. With no node up there is nothing to read, and no row is seen.
    fn visit(&self, rows: Rows, visit: impl FnMut(RowView)) {
        let _ = self.db.visit(self.local, rows, visit);
    }

    /// The op that records the statistics of one completed sampling period
    /// of an object. The log aggregator commits it with the object's
    /// [`Self::dirty_mark_op`], tagged with its class, so the optimiser can
    /// group the accessed set by class without reading any per-object
    /// metadata.
    pub(crate) fn period_op(
        object_row_key: &str,
        stats: &PeriodStats,
        timestamp: Timestamp,
    ) -> JournalOp {
        JournalOp::Put {
            row_key: Self::obj_row(object_row_key),
            column: format!("period:{:012}", stats.period),
            value: json!({
                "period": stats.period,
                "storage": stats.storage.bytes(),
                "bw_in": stats.bw_in.bytes(),
                "bw_out": stats.bw_out.bytes(),
                "reads": stats.reads,
                "writes": stats.writes,
            }),
            timestamp,
        }
    }

    /// The op that marks an object accessed/modified in the dirty-set
    /// index: one cell in the row of the timestamp's bucket, whose value is
    /// the object's class when known. The periodic optimiser's accessed-set
    /// fetch range-scans these rows, and the class tags let it group the
    /// set with no metadata reads at all. Besides the log aggregator's
    /// flush, the engine's put commits one in the transaction that commits
    /// the metadata: a freshly written object belongs in the optimiser's
    /// accessed set even before its first statistics flush, and can never
    /// be stored yet missing from it.
    pub fn dirty_mark_op(
        object_row_key: &str,
        class_id: Option<&str>,
        timestamp: Timestamp,
    ) -> JournalOp {
        JournalOp::Put {
            row_key: Self::dirty_row(Self::dirty_bucket(timestamp)),
            column: object_row_key.to_string(),
            value: class_id.map_or(json!(true), |class_id| json!(class_id)),
            timestamp,
        }
    }

    /// The op that folds one pre-aggregated per-period **delta** into a
    /// class rollup: `stats` summed over `objects` distinct members, as the
    /// log aggregator computes per flush. Every delta lands under a unique
    /// column (never conflicts, associative at read time), so reading a
    /// class's usage series costs O(periods), not O(members × periods) —
    /// the amortisation §III-A1 asks for.
    pub(crate) fn class_period_op(
        class_id: &str,
        stats: &PeriodStats,
        objects: u64,
        timestamp: Timestamp,
    ) -> JournalOp {
        JournalOp::Put {
            row_key: Self::class_row(class_id),
            column: format!(
                "p:{:012}:{}:{}",
                stats.period, timestamp.secs, timestamp.seq
            ),
            value: json!({
                "storage": stats.storage.bytes(),
                "bw_in": stats.bw_in.bytes(),
                "bw_out": stats.bw_out.bytes(),
                "reads": stats.reads,
                "writes": stats.writes,
                "objects": objects,
            }),
            timestamp,
        }
    }

    /// Reconstructs the access history of an object from its statistics row,
    /// keeping at most `max_periods` most recent periods.
    pub fn history(&self, object_row_key: &str, max_periods: usize) -> AccessHistory {
        let mut history = AccessHistory::new(max_periods.max(1));
        // Period columns sort lexicographically because the period index is
        // zero-padded.
        let mut periods: Vec<PeriodStats> = Vec::new();
        self.visit(Rows::Key(&Self::obj_row(object_row_key)), |row| {
            for (_, cell) in row.latest_with_prefix("period:") {
                periods.push(PeriodStats {
                    period: cell.value["period"].as_u64().unwrap_or(0),
                    storage: ByteSize::from_bytes(cell.value["storage"].as_u64().unwrap_or(0)),
                    bw_in: ByteSize::from_bytes(cell.value["bw_in"].as_u64().unwrap_or(0)),
                    bw_out: ByteSize::from_bytes(cell.value["bw_out"].as_u64().unwrap_or(0)),
                    reads: cell.value["reads"].as_u64().unwrap_or(0),
                    writes: cell.value["writes"].as_u64().unwrap_or(0),
                });
            }
        });
        periods.sort_by_key(|p| p.period);
        // Fill the gaps: a sampling period with no recorded accesses is a
        // real observation of zero activity, which the trend detector must
        // see (otherwise a burst followed by silence looks like a plateau).
        let mut previous: Option<&PeriodStats> = None;
        let mut filled: Vec<PeriodStats> = Vec::with_capacity(periods.len());
        for p in &periods {
            if let Some(prev) = previous {
                let mut missing = prev.period + 1;
                while missing < p.period {
                    filled.push(PeriodStats {
                        period: missing,
                        storage: prev.storage,
                        ..PeriodStats::empty(missing)
                    });
                    missing += 1;
                }
            }
            filled.push(*p);
            previous = Some(p);
        }
        for p in filled {
            history.push(p);
        }
        history
    }

    /// Object row keys accessed or modified at or after `since` — the set
    /// `A` the periodic optimiser shards across engines.
    ///
    /// Served by a [`Rows::Range`] visit of the dirty-set rows of buckets
    /// `>= bucket(since)` on every up replica: it reads only the cells
    /// written since the previous procedure, though finding those rows in
    /// the hashed row index filters every row key (see [`crate::store`]).
    /// Dirty entries always land in the bucket of their write timestamp, so
    /// `ts >= since` implies `bucket >= bucket(since)` — no qualifying entry
    /// can hide in an earlier bucket.
    ///
    /// Each entry carries its class tag (the value the put commit or the log
    /// aggregator wrote into the dirty-set index), so the class-centric
    /// optimiser groups the set by class **without reading any per-object
    /// metadata**. A `None` tag marks an object that had no readable
    /// metadata record when its statistics were flushed. Entries are deduplicated — the **newest classified**
    /// mark wins, so an object reclassified by an overwrite is grouped
    /// under its current class — and returned in deterministic first-seen
    /// index order, **not** sorted by key; sorting a 10⁴-entry fetch every
    /// cycle would cost more than the scan itself, and the class sweep
    /// re-sorts per class anyway. Also returns the number of index cells
    /// scanned.
    pub fn objects_accessed_since_classified(
        &self,
        since: Timestamp,
    ) -> (Vec<(String, Option<String>)>, usize) {
        let start = Self::dirty_row(Self::dirty_bucket(since));
        let mut entries: Vec<(String, Option<String>)> = Vec::new();
        // Per entry: the timestamp of the classified mark currently held
        // (ZERO while unclassified).
        let mut tag_ts: Vec<Timestamp> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut scanned = 0usize;
        // Union over every up replica: the fetch must not miss a mark a
        // lagging replica holds alone, because the optimiser's `last_run`
        // watermark advances past it and would filter the healed cell
        // forever. The newest-classified-wins merge below is replica-order
        // independent. The visit borrows every cell: only qualifying keys
        // (and their class tags) are cloned out of the store, once per
        // distinct object.
        let buckets = Rows::Range(&start, DIRTY_END);
        self.db.visit_each_up(buckets, |row| {
            for (column, cell) in row.latest_with_prefix("") {
                scanned += 1;
                if cell.timestamp < since {
                    continue;
                }
                let class = cell.value.as_str();
                match index.get(column) {
                    Some(&at) => {
                        // The newest classified mark wins: a classified tag
                        // beats an unclassified one, and a later class
                        // (object reclassified by an overwrite) beats an
                        // earlier one.
                        if class.is_some() && cell.timestamp > tag_ts[at] {
                            entries[at].1 = class.map(str::to_string);
                            tag_ts[at] = cell.timestamp;
                        }
                    }
                    None => {
                        index.insert(column.to_string(), entries.len());
                        tag_ts.push(if class.is_some() {
                            cell.timestamp
                        } else {
                            Timestamp::ZERO
                        });
                        entries.push((column.to_string(), class.map(str::to_string)));
                    }
                }
            }
        });
        (entries, scanned)
    }

    /// Drops every dirty-set index row strictly older than `cutoff`'s
    /// bucket, in one transaction. Safe to call with the previous
    /// procedure's `since`: entries in older buckets have timestamps
    /// `< cutoff` and can never qualify for a future fetch (whose `since`
    /// only grows).
    pub fn prune_dirty_before(&self, cutoff: Timestamp) -> usize {
        let end = Self::dirty_row(Self::dirty_bucket(cutoff));
        let mut stale: Vec<String> = Vec::new();
        let buckets = Rows::Range(DIRTY_PREFIX, &end);
        self.db.visit_each_up(buckets, |row| {
            stale.push(row.key().to_string());
        });
        stale.sort_unstable();
        stale.dedup();
        let pruned = stale.len();
        let ops = stale
            .into_iter()
            .map(|row_key| JournalOp::DeleteRow { row_key })
            .collect();
        self.db.transaction(ops).map_or(0, |_| pruned)
    }

    /// The op that records a per-period resource-usage sample for a class
    /// of objects (the engine's delete commits it, and the lifetime sample,
    /// in the transaction that drops the object's rows).
    pub fn class_usage_op(
        class_id: &str,
        usage: &ResourceUsage,
        timestamp: Timestamp,
    ) -> JournalOp {
        JournalOp::Put {
            row_key: Self::class_row(class_id),
            column: format!("usage:{}:{}", timestamp.secs, timestamp.seq),
            value: json!({
                "storage_gb_hours": usage.storage_gb_hours,
                "bw_in": usage.bw_in.bytes(),
                "bw_out": usage.bw_out.bytes(),
                "ops": usage.ops,
            }),
            timestamp,
        }
    }

    /// Mean per-period resource usage observed for a class, if any sample
    /// exists. This feeds the first placement of brand-new objects
    /// (§III-A1, Fig. 6), so every put asks it.
    ///
    /// The mean is memoised per class, under the node that answered and
    /// the class row's digest there (see [`crate::store`], "Content
    /// digest"). A call visits the row — one hash probe — and returns the
    /// memo while both match; otherwise it scans the row's `usage:` samples
    /// and memoises their mean under the digest read under the scan's own
    /// read lock, so a sample committed after the scan changes the digest
    /// the next call reads and is never hidden behind a stale mean. The
    /// memo is exact, not approximate: any version added to or
    /// removed from the row (a delete's sample, a tick's rollup, garbage
    /// collection) changes the digest, a stored version's value never
    /// changes (a timestamp names one write), and the scan sums the samples
    /// in column order as it always has — so a hit returns, bit for bit,
    /// what a scan of the same row would.
    pub fn mean_class_usage(&self, class_id: &str) -> Option<ResourceUsage> {
        let memo = self.class_means.lock().get(class_id).copied();
        let (mut mean, mut scanned) = (None, None);
        self.visit(Rows::Key(&Self::class_row(class_id)), |row| {
            let (node, digest) = (row.datacenter(), row.digest());
            if let Some(memo) = memo.filter(|m| m.node == node && m.digest == digest) {
                mean = memo.mean;
                return;
            }
            let mut total = ResourceUsage::ZERO;
            let mut samples = 0usize;
            for (_, cell) in row.latest_with_prefix("usage:") {
                total += ResourceUsage {
                    storage_gb_hours: cell.value["storage_gb_hours"].as_f64().unwrap_or(0.0),
                    bw_in: ByteSize::from_bytes(cell.value["bw_in"].as_u64().unwrap_or(0)),
                    bw_out: ByteSize::from_bytes(cell.value["bw_out"].as_u64().unwrap_or(0)),
                    ops: cell.value["ops"].as_u64().unwrap_or(0),
                };
                samples += 1;
            }
            mean = (samples > 0).then(|| total.scale(1.0 / samples as f64));
            scanned = Some(ClassMean { node, digest, mean });
        });
        if let Some(scanned) = scanned {
            #[cfg(test)]
            self.mean_scans
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.class_means
                .lock()
                .insert(class_id.to_string(), scanned);
        }
        mean
    }

    /// The class's per-period rollup, aggregated at read time: for each of
    /// the `max_periods` most recent recorded periods, the summed member
    /// statistics and the number of distinct contributing members, oldest
    /// first. One row read per class — the class-centric optimiser reads
    /// `K` of these per cycle instead of one history row per object.
    pub fn class_period_records(
        &self,
        class_id: &str,
        max_periods: usize,
    ) -> Vec<(u64, ClassPeriodRecord)> {
        let mut by_period: std::collections::BTreeMap<u64, ClassPeriodRecord> =
            std::collections::BTreeMap::new();
        // Every delta column is a pre-aggregated per-flush contribution
        // (summed member statistics + distinct-object count); period-wise
        // addition over them is associative, so any write interleaving
        // reads back to the same aggregate.
        self.visit(Rows::Key(&Self::class_row(class_id)), |row| {
            for (column, cell) in row.latest_with_prefix("p:") {
                let Some(period) = rollup_period(column) else {
                    continue;
                };
                let entry = by_period.entry(period).or_insert(ClassPeriodRecord {
                    stats: PeriodStats::empty(period),
                    objects: 0,
                });
                entry.objects += cell.value["objects"].as_u64().unwrap_or(0);
                entry.stats.storage +=
                    ByteSize::from_bytes(cell.value["storage"].as_u64().unwrap_or(0));
                entry.stats.bw_in +=
                    ByteSize::from_bytes(cell.value["bw_in"].as_u64().unwrap_or(0));
                entry.stats.bw_out +=
                    ByteSize::from_bytes(cell.value["bw_out"].as_u64().unwrap_or(0));
                entry.stats.reads += cell.value["reads"].as_u64().unwrap_or(0);
                entry.stats.writes += cell.value["writes"].as_u64().unwrap_or(0);
            }
        });
        let mut records: Vec<(u64, ClassPeriodRecord)> = by_period.into_iter().collect();
        if records.len() > max_periods.max(1) {
            records.drain(..records.len() - max_periods.max(1));
        }
        records
    }

    /// Garbage-collects the statistics tables: caps every class's lifetime
    /// and usage sample columns at [`MAX_CLASS_SAMPLES`] (oldest dropped)
    /// and drops rollup columns older than `CLASS_ROLLUP_RETENTION`
    /// sampling periods, all in one transaction. Returns the number of
    /// columns removed. Together with [`Self::delete_object_stats_op`] and
    /// [`Self::prune_dirty_before`] this bounds the statistics footprint by
    /// live objects + known classes.
    pub fn gc_statistics(&self, current_period: u64) -> usize {
        let rollup_cutoff = current_period.saturating_sub(CLASS_ROLLUP_RETENTION);
        let mut ops = Vec::new();
        self.visit(Rows::Prefix(CLASS_PREFIX), |row| {
            let delete = |column: &str| JournalOp::DeleteColumn {
                row_key: row.key().to_string(),
                column: column.to_string(),
            };
            for (column, _) in row.latest_with_prefix("p:") {
                if rollup_period(column).is_some_and(|period| period < rollup_cutoff) {
                    ops.push(delete(column));
                }
            }
            for prefix in ["lifetime:", "usage:"] {
                let mut samples: Vec<(Timestamp, &str)> = row
                    .latest_with_prefix(prefix)
                    .map(|(column, cell)| (cell.timestamp, column))
                    .collect();
                if samples.len() > MAX_CLASS_SAMPLES {
                    samples.sort_unstable();
                    let stale = samples.drain(..samples.len() - MAX_CLASS_SAMPLES);
                    ops.extend(stale.map(|(_, column)| delete(column)));
                }
            }
        });
        let removed = ops.len();
        self.db.transaction(ops).map_or(0, |_| removed)
    }

    /// The op that records the observed lifetime (in hours) of a deleted
    /// object of a class. These samples build the class's deletion-time
    /// distribution (paper Fig. 5, left).
    pub fn class_lifetime_op(
        class_id: &str,
        lifetime_hours: f64,
        timestamp: Timestamp,
    ) -> JournalOp {
        JournalOp::Put {
            row_key: Self::class_row(class_id),
            column: format!("lifetime:{}:{}", timestamp.secs, timestamp.seq),
            value: json!(lifetime_hours),
            timestamp,
        }
    }

    /// All recorded lifetime samples (hours) of a class.
    pub fn class_lifetimes(&self, class_id: &str) -> Vec<f64> {
        let mut lifetimes: Vec<f64> = Vec::new();
        self.visit(Rows::Key(&Self::class_row(class_id)), |row| {
            let samples = row.latest_with_prefix("lifetime:");
            lifetimes.extend(samples.filter_map(|(_, cell)| cell.value.as_f64()));
        });
        lifetimes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        lifetimes
    }

    /// The op that deletes the statistics row of an object (as the object
    /// is deleted and its lifetime folded into its class statistics).
    pub fn delete_object_stats_op(object_row_key: &str) -> JournalOp {
        JournalOp::DeleteRow {
            row_key: Self::obj_row(object_row_key),
        }
    }
}

/// The period of a class rollup column (`p:{period:012}:…`).
fn rollup_period(column: &str) -> Option<u64> {
    column
        .strip_prefix("p:")
        .and_then(|rest| rest.get(..12))
        .and_then(|p| p.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::NoSqlNode;
    use scalia_types::error::Result;

    /// The op constructors, each committed as its own transaction — the
    /// write-through form these tests were written against.
    impl StatisticsStore {
        fn commit(&self, ops: Vec<JournalOp>) -> Result<()> {
            self.db.transaction(ops).map(drop)
        }
        fn record_class_usage(&self, c: &str, u: &ResourceUsage, ts: Timestamp) -> Result<()> {
            self.commit(vec![Self::class_usage_op(c, u, ts)])
        }
        /// An object's period cell and its dirty mark, as a flush writes
        /// them.
        fn flush_period(
            &self,
            row: &str,
            class_id: Option<&str>,
            stats: &PeriodStats,
            ts: Timestamp,
        ) -> Result<()> {
            self.commit(vec![
                Self::period_op(row, stats, ts),
                Self::dirty_mark_op(row, class_id, ts),
            ])
        }
        fn record_period(&self, row: &str, stats: &PeriodStats, ts: Timestamp) -> Result<()> {
            self.flush_period(row, None, stats, ts)
        }
        fn mark_dirty(&self, row: &str, class_id: Option<&str>, ts: Timestamp) -> Result<()> {
            self.commit(vec![Self::dirty_mark_op(row, class_id, ts)])
        }
        fn record_class_delta(
            &self,
            class_id: &str,
            stats: &PeriodStats,
            objects: u64,
            ts: Timestamp,
        ) -> Result<()> {
            self.commit(vec![Self::class_period_op(class_id, stats, objects, ts)])
        }
        /// All class ids with at least one statistics row.
        fn known_classes(&self) -> Vec<String> {
            let mut classes = Vec::new();
            self.visit(Rows::Prefix(CLASS_PREFIX), |row| {
                classes.extend(row.key().strip_prefix(CLASS_PREFIX).map(str::to_string));
            });
            classes
        }
        fn record_class_lifetime(&self, c: &str, hours: f64, ts: Timestamp) -> Result<()> {
            self.commit(vec![Self::class_lifetime_op(c, hours, ts)])
        }
        fn delete_object_stats(&self, row: &str) {
            self.commit(vec![Self::delete_object_stats_op(row)])
                .unwrap();
        }
        /// The accessed set's keys, sorted.
        fn objects_accessed_since(&self, since: Timestamp) -> Vec<String> {
            let mut keys = self.objects_accessed_since_with_cost(since).0;
            keys.sort_unstable();
            keys
        }
        /// The accessed set's keys, plus the number of index cells the range
        /// scan examined.
        fn objects_accessed_since_with_cost(&self, since: Timestamp) -> (Vec<String>, usize) {
            let (classified, scanned) = self.objects_accessed_since_classified(since);
            let keys = classified.into_iter().map(|(key, _)| key).collect();
            (keys, scanned)
        }
    }

    fn store() -> StatisticsStore {
        StatisticsStore::new(
            Arc::new(ReplicatedStore::with_datacenters(2)),
            DatacenterId::new(0),
        )
    }

    #[test]
    fn class_reads_follow_the_local_datacenter_first_policy() {
        // The replicas hold *different* class rows (a partition's view), so
        // which node answered is observable: a DC-1 store must read DC-1's.
        let db = Arc::new(ReplicatedStore::with_datacenters(2));
        let usage =
            |ops: u64| json!({"storage_gb_hours": 0.0, "bw_in": 0, "bw_out": 0, "ops": ops});
        let ts = Timestamp::new(1, 0);
        let (dc0, dc1) = (&db.nodes()[0], &db.nodes()[1]);
        dc0.put("stats:class:c", "usage:1:0", usage(10), ts);
        dc0.put("stats:class:c", "lifetime:1:0", json!(1.0), ts);
        dc0.put("stats:class:only-dc0", "lifetime:1:0", json!(1.0), ts);
        dc1.put("stats:class:c", "usage:1:0", usage(70), ts);
        dc1.put("stats:class:c", "lifetime:1:0", json!(7.0), ts);

        let local = StatisticsStore::new(db.clone(), DatacenterId::new(1));
        assert_eq!(local.mean_class_usage("c").unwrap().ops, 70);
        assert_eq!(local.class_lifetimes("c"), vec![7.0]);
        assert_eq!(local.known_classes(), vec!["c".to_string()]);
        // The other node is the fallback, not the default.
        dc1.set_up(false);
        assert_eq!(local.mean_class_usage("c").unwrap().ops, 10);
        assert_eq!(local.class_lifetimes("c"), vec![1.0]);
        assert_eq!(local.known_classes().len(), 2);
    }

    fn stats(period: u64, reads: u64, writes: u64) -> PeriodStats {
        PeriodStats {
            period,
            storage: ByteSize::from_mb(1),
            bw_in: ByteSize::from_kb(writes * 100),
            bw_out: ByteSize::from_kb(reads * 100),
            reads,
            writes,
        }
    }

    #[test]
    fn per_object_history_roundtrip() {
        let s = store();
        for period in 0..5 {
            s.record_period(
                "obj1",
                &stats(period, period * 2, 1),
                Timestamp::new(period * 3600, 0),
            )
            .unwrap();
        }
        let history = s.history("obj1", 100);
        assert_eq!(history.len(), 5);
        assert_eq!(history.records()[0].period, 0);
        assert_eq!(history.records()[4].period, 4);
        assert_eq!(history.records()[4].reads, 8);
        // Bounded history keeps only the most recent periods.
        let bounded = s.history("obj1", 2);
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.records()[0].period, 3);
        // Unknown object yields an empty history.
        assert!(s.history("unknown", 10).is_empty());
    }

    #[test]
    fn objects_accessed_since_filters_by_timestamp() {
        let s = store();
        s.record_period("obj1", &stats(0, 1, 0), Timestamp::new(100, 0))
            .unwrap();
        s.record_period("obj2", &stats(0, 1, 0), Timestamp::new(200, 0))
            .unwrap();
        s.record_class_usage(
            "classX",
            &ResourceUsage::operations(1),
            Timestamp::new(300, 0),
        )
        .unwrap();
        let recent = s.objects_accessed_since(Timestamp::new(150, 0));
        assert_eq!(recent, vec!["obj2".to_string()]);
        let all = s.objects_accessed_since(Timestamp::ZERO);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn accessed_set_fetch_scans_only_recent_buckets() {
        let s = store();
        // 100 objects touched in bucket 0…
        for i in 0..100 {
            s.record_period(
                &format!("old{i}"),
                &stats(0, 1, 0),
                Timestamp::new(10 + i, 0),
            )
            .unwrap();
        }
        // …and 3 objects in bucket 1.
        for i in 0..3 {
            s.record_period(
                &format!("fresh{i}"),
                &stats(1, 1, 0),
                Timestamp::new(DIRTY_BUCKET_SECS + 5 + i, 0),
            )
            .unwrap();
        }
        let since = Timestamp::new(DIRTY_BUCKET_SECS, 0);
        let (mut keys, scanned) = s.objects_accessed_since_with_cost(since);
        keys.sort_unstable();
        assert_eq!(keys, vec!["fresh0", "fresh1", "fresh2"]);
        // The range scan starts at bucket(since): the 100 bucket-0 entries
        // (×2 replicas) are never visited.
        assert!(
            scanned <= 3 * 2,
            "fetch scanned {scanned} cells for 3 touched objects"
        );
        // The full set is still reachable from the epoch.
        assert_eq!(s.objects_accessed_since(Timestamp::ZERO).len(), 103);
    }

    #[test]
    fn prune_dirty_drops_consumed_buckets() {
        let s = store();
        s.record_period("a", &stats(0, 1, 0), Timestamp::new(10, 0))
            .unwrap();
        s.record_period(
            "b",
            &stats(1, 1, 0),
            Timestamp::new(DIRTY_BUCKET_SECS + 1, 0),
        )
        .unwrap();
        let records = s.db.journal().len();
        let pruned = s.prune_dirty_before(Timestamp::new(DIRTY_BUCKET_SECS, 0));
        assert_eq!(pruned, 1, "one dirty row per bucket");
        assert_eq!(s.db.journal().len() - records, 2, "one transaction");
        // The pruned bucket's entries are gone; the newer bucket survives.
        assert_eq!(s.objects_accessed_since(Timestamp::ZERO), vec!["b"]);
        // Pruning again is a no-op, and journals nothing.
        assert_eq!(
            s.prune_dirty_before(Timestamp::new(DIRTY_BUCKET_SECS, 0)),
            0
        );
        assert_eq!(s.db.journal().len() - records, 2);
    }

    #[test]
    fn freshly_written_object_is_dirty_before_any_flush() {
        let s = store();
        s.mark_dirty("newborn", Some("class-x"), Timestamp::new(50, 0))
            .unwrap();
        assert_eq!(s.objects_accessed_since(Timestamp::ZERO), vec!["newborn"]);
    }

    #[test]
    fn class_rollup_sums_flush_deltas_per_period() {
        let s = store();
        // One aggregator flush: a period-0 delta over two members and a
        // period-1 delta over one (summed member statistics + count).
        let mut p0 = stats(0, 6, 1);
        p0.storage = ByteSize::from_mb(2);
        s.record_class_delta("cls", &p0, 2, Timestamp::new(3600, 0))
            .unwrap();
        s.record_class_delta("cls", &stats(1, 6, 0), 1, Timestamp::new(3600, 1))
            .unwrap();
        let records = s.class_period_records("cls", 100);
        assert_eq!(records.len(), 2);
        let (p0, r0) = records[0];
        assert_eq!(p0, 0);
        assert_eq!(r0.objects, 2);
        assert_eq!(r0.stats.reads, 6);
        assert_eq!(r0.stats.writes, 1);
        assert_eq!(r0.stats.storage, ByteSize::from_mb(2));
        let (p1, r1) = records[1];
        assert_eq!(p1, 1);
        assert_eq!(r1.objects, 1);
        assert_eq!(r1.stats.reads, 6);
        // A later flush contributing to period 0 again *adds* — every delta
        // lands under a unique column, so reads aggregate associatively.
        s.record_class_delta("cls", &stats(0, 4, 0), 1, Timestamp::new(9000, 0))
            .unwrap();
        let records = s.class_period_records("cls", 100);
        assert_eq!(records[0].1.objects, 3);
        assert_eq!(records[0].1.stats.reads, 10);
        // The period bound keeps only the most recent periods.
        let bounded = s.class_period_records("cls", 1);
        assert_eq!(bounded.len(), 1);
        assert_eq!(bounded[0].0, 1);
        // Unknown class: empty.
        assert!(s.class_period_records("nope", 10).is_empty());
    }

    #[test]
    fn accessed_set_carries_class_tags() {
        let s = store();
        s.mark_dirty("obj1", Some("cls-a"), Timestamp::new(10, 0))
            .unwrap();
        // An unclassified mark (no class known at write time)…
        s.record_period("obj2", &stats(0, 1, 0), Timestamp::new(20, 0))
            .unwrap();
        // …and a classified flush of obj1 in a later bucket.
        s.flush_period(
            "obj1",
            Some("cls-a"),
            &stats(1, 2, 0),
            Timestamp::new(DIRTY_BUCKET_SECS + 5, 0),
        )
        .unwrap();
        let (mut keys, _) = s.objects_accessed_since_classified(Timestamp::ZERO);
        keys.sort_unstable();
        assert_eq!(
            keys,
            vec![
                ("obj1".to_string(), Some("cls-a".to_string())),
                ("obj2".to_string(), None),
            ]
        );
    }

    #[test]
    fn gc_caps_class_samples_and_rollup_retention() {
        let s = store();
        s.mark_dirty("obj", Some("c"), Timestamp::new(1, 0))
            .unwrap();
        for i in 0..MAX_CLASS_SAMPLES + 40 {
            s.record_class_lifetime("c", i as f64, Timestamp::new(10 + i as u64, 0))
                .unwrap();
            s.record_class_usage(
                "c",
                &ResourceUsage::operations(i as u64),
                Timestamp::new(10 + i as u64, 1),
            )
            .unwrap();
        }
        // One rollup delta far in the past, one recent.
        s.record_class_delta("c", &stats(0, 1, 0), 1, Timestamp::new(5000, 0))
            .unwrap();
        s.record_class_delta(
            "c",
            &stats(CLASS_ROLLUP_RETENTION + 100, 1, 0),
            1,
            Timestamp::new(6000, 0),
        )
        .unwrap();
        let journaled = s.db.journal().len();
        let removed = s.gc_statistics(CLASS_ROLLUP_RETENTION + 101);
        assert!(removed >= 81, "removed only {removed} columns");
        assert_eq!(s.db.journal().len() - journaled, 2, "one transaction");
        let lifetimes = s.class_lifetimes("c");
        assert_eq!(lifetimes.len(), MAX_CLASS_SAMPLES);
        // The oldest samples were the ones dropped.
        assert_eq!(lifetimes[0], 40.0);
        let records = s.class_period_records("c", 100);
        assert_eq!(records.len(), 1, "over-retention rollup must be dropped");
        assert_eq!(records[0].0, CLASS_ROLLUP_RETENTION + 100);
        // A second pass finds nothing left to remove, and journals nothing.
        assert_eq!(s.gc_statistics(CLASS_ROLLUP_RETENTION + 101), 0);
        assert_eq!(s.db.journal().len() - journaled, 2);
    }

    #[test]
    fn class_usage_mean() {
        let s = store();
        assert!(s.mean_class_usage("c").is_none());
        s.record_class_usage(
            "c",
            &ResourceUsage {
                storage_gb_hours: 1.0,
                bw_in: ByteSize::from_mb(10),
                bw_out: ByteSize::from_mb(20),
                ops: 10,
            },
            Timestamp::new(1, 0),
        )
        .unwrap();
        s.record_class_usage(
            "c",
            &ResourceUsage {
                storage_gb_hours: 3.0,
                bw_in: ByteSize::from_mb(30),
                bw_out: ByteSize::from_mb(40),
                ops: 30,
            },
            Timestamp::new(2, 0),
        )
        .unwrap();
        let mean = s.mean_class_usage("c").unwrap();
        assert!((mean.storage_gb_hours - 2.0).abs() < 1e-12);
        assert_eq!(mean.bw_in, ByteSize::from_mb(20));
        assert_eq!(mean.bw_out, ByteSize::from_mb(30));
        assert_eq!(mean.ops, 20);
    }

    #[test]
    fn class_lifetimes_accumulate_sorted() {
        let s = store();
        s.record_class_lifetime("c", 5.0, Timestamp::new(1, 0))
            .unwrap();
        s.record_class_lifetime("c", 2.0, Timestamp::new(2, 0))
            .unwrap();
        s.record_class_lifetime("c", 3.5, Timestamp::new(3, 0))
            .unwrap();
        assert_eq!(s.class_lifetimes("c"), vec![2.0, 3.5, 5.0]);
        assert!(s.class_lifetimes("unknown").is_empty());
        assert_eq!(s.known_classes(), vec!["c".to_string()]);
    }

    #[test]
    fn delete_object_stats_removes_row() {
        let s = store();
        s.record_period("obj1", &stats(0, 1, 0), Timestamp::new(1, 0))
            .unwrap();
        assert_eq!(s.history("obj1", 10).len(), 1);
        s.delete_object_stats("obj1");
        assert!(s.history("obj1", 10).is_empty());
    }

    #[test]
    fn statistics_survive_datacenter_failure() {
        let s = store();
        s.record_period("obj1", &stats(0, 3, 1), Timestamp::new(1, 0))
            .unwrap();
        // Local datacenter goes down; history is served by the replica.
        s.db.nodes()[0].set_up(false);
        let history = s.history("obj1", 10);
        assert_eq!(history.len(), 1);
        assert_eq!(history.records()[0].reads, 3);
    }

    /// The oracle the memo must equal: a plain scan of every `usage:`
    /// sample of the class row on `node`, summed in column order.
    fn scanned_mean(node: &NoSqlNode, class_id: &str) -> Option<ResourceUsage> {
        let mut samples: Vec<ResourceUsage> = Vec::new();
        node.visit(Rows::Key(&StatisticsStore::class_row(class_id)), |row| {
            samples.extend(
                row.latest_with_prefix("usage:")
                    .map(|(_, cell)| ResourceUsage {
                        storage_gb_hours: cell.value["storage_gb_hours"].as_f64().unwrap_or(0.0),
                        bw_in: ByteSize::from_bytes(cell.value["bw_in"].as_u64().unwrap_or(0)),
                        bw_out: ByteSize::from_bytes(cell.value["bw_out"].as_u64().unwrap_or(0)),
                        ops: cell.value["ops"].as_u64().unwrap_or(0),
                    }),
            );
        });
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let total: ResourceUsage = samples.into_iter().sum();
        Some(total.scale(1.0 / n))
    }

    /// A mean compared bit for bit, `f64` included.
    fn bits(mean: Option<ResourceUsage>) -> Option<(u64, u64, u64, u64)> {
        mean.map(|u| {
            (
                u.storage_gb_hours.to_bits(),
                u.bw_in.bytes(),
                u.bw_out.bytes(),
                u.ops,
            )
        })
    }

    /// A usage sample that sums inexactly in floating point, so a mean
    /// summed in another order would differ in its last bits.
    fn sample(i: u64) -> ResourceUsage {
        ResourceUsage {
            storage_gb_hours: 0.1 * i as f64 + 1.0 / (i as f64 + 3.0),
            bw_in: ByteSize::from_bytes(1_000 + 7 * i),
            bw_out: ByteSize::from_bytes(3 * i),
            ops: i % 5,
        }
    }

    fn scans(s: &StatisticsStore) -> usize {
        s.mean_scans.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Across samples (deletes), rollups (ticks), a dropped column and
    /// `gc_statistics` trims, the memoised mean equals a fresh scan bit for
    /// bit after every step, and a row that did not change is not scanned
    /// again.
    #[test]
    fn the_memoised_class_mean_equals_a_fresh_scan_bit_for_bit() {
        let s = store();
        let node = Arc::clone(&s.db.nodes()[0]);
        let check = |step: &str| {
            assert_eq!(
                bits(s.mean_class_usage("c")),
                bits(scanned_mean(&node, "c")),
                "{step}"
            );
        };
        check("no row");
        let mut secs = 0;
        for round in 0..6u64 {
            for i in 0..110 {
                secs += 1;
                let ts = Timestamp::new(secs, 0);
                s.record_class_usage("c", &sample(round * 110 + i), ts)
                    .unwrap();
                if i % 37 == 0 {
                    check(&format!("round {round}, sample {i}"));
                }
            }
            secs += 1;
            s.record_class_delta("c", &stats(round, 2, 1), 2, Timestamp::new(secs, 0))
                .unwrap();
            check(&format!("round {round}, rollup"));
            let before = scans(&s);
            check(&format!("round {round}, unchanged"));
            assert_eq!(scans(&s), before, "an unchanged row is not rescanned");
            s.commit(vec![JournalOp::DeleteColumn {
                row_key: StatisticsStore::class_row("c"),
                column: format!("usage:{}:0", secs - 3),
            }])
            .unwrap();
            check(&format!("round {round}, dropped column"));
            s.gc_statistics(round);
            check(&format!("round {round}, gc"));
        }
        let mut samples = 0;
        node.visit(Rows::Key(&StatisticsStore::class_row("c")), |row| {
            samples = row.latest_with_prefix("usage:").count();
        });
        assert_eq!(samples, MAX_CLASS_SAMPLES, "gc trimmed the samples");
    }

    /// With a full row of samples, a second call serves the memo: no scan.
    #[test]
    fn a_second_call_on_an_unchanged_row_does_no_scan() {
        let s = store();
        for i in 0..MAX_CLASS_SAMPLES as u64 {
            s.record_class_usage("c", &sample(i), Timestamp::new(i + 1, 0))
                .unwrap();
        }
        let first = s.mean_class_usage("c");
        assert_eq!(scans(&s), 1);
        let second = s.mean_class_usage("c");
        assert_eq!(scans(&s), 1, "the second call scanned");
        assert_eq!(bits(first), bits(second));
        assert_eq!(bits(second), bits(scanned_mean(&s.db.nodes()[0], "c")));
    }

    /// A sample committed between two calls is seen by the second, on the
    /// local node and on the node a read falls back to.
    #[test]
    fn a_sample_committed_between_two_calls_is_always_seen() {
        let s = store();
        for i in 0..40u64 {
            s.record_class_usage("c", &sample(i), Timestamp::new(i + 1, 0))
                .unwrap();
            // The local node while it is up, else the other one.
            let node = &s.db.nodes()[usize::from(!s.db.nodes()[0].is_up())];
            assert_eq!(
                bits(s.mean_class_usage("c")),
                bits(scanned_mean(node, "c")),
                "sample {i}"
            );
            assert_eq!(scans(&s), i as usize + 1, "sample {i} was not rescanned");
            // Switch the answering node every ten samples.
            if i % 10 == 9 {
                let local = &s.db.nodes()[0];
                local.set_up(!local.is_up());
            }
        }
    }
}
