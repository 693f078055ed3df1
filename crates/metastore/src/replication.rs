//! Multi-datacenter replication.
//!
//! The paper's database layer replicates every row in all datacenters so
//! that read requests can always be served locally and write requests
//! succeed "as long as a single database node is up and running", with the
//! datacenters becoming eventually consistent after a partition heals
//! (§III-D3). [`ReplicatedStore`] implements that behaviour over a set of
//! [`NoSqlNode`]s: every mutation goes to every reachable node, a node that
//! is down gets the mutation queued as a hinted handoff, and
//! [`ReplicatedStore::anti_entropy`] replays the hints and reconciles
//! whatever still differs.
//!
//! # Anti-entropy costs O(divergence)
//!
//! Replicas that received the same writes hold the same cell versions, so
//! the common round — no partition since the last one — should move no
//! data. Each node therefore maintains a **content digest** (see
//! [`crate::store`]): per row, the XOR of a 64-bit hash of `(row_key,
//! column, timestamp)` over the stored cell versions; per node, the XOR of
//! its row digests. Both are updated inside the write that changes the
//! version set. A round then
//!
//! 1. replays hinted handoffs, oldest first, to the nodes that are back;
//! 2. compares the node digests of the reachable nodes and **stops if they
//!    are equal** — no lock held longer than one word read, no row cloned,
//!    nothing written;
//! 3. otherwise merge-joins the nodes' `(row_key, row_digest)` sequences and
//!    merges version sets only for the rows whose digests differ, copying
//!    each such row's cells into the nodes that lack them.
//!
//! **Why `(row, column, timestamp)` is enough.** A timestamp names one
//! write: every writer draws it from `Infrastructure::next_timestamp`, which
//! is unique per deployment, and replication hands the same cell to every
//! node. Two nodes holding a version with the same coordinates hold the
//! same value, so the value need not be hashed — which keeps the digest
//! update off the payload and lets `restore` rebuild it from timestamps
//! alone.
//!
//! **What equal digests prove.** That the nodes store the same *set of
//! version coordinates*, up to a 2⁻⁶⁴ collision. They do not prove the
//! values are equal: a writer that bypasses the store and puts different
//! values under one timestamp on two nodes is not detected (the merge of a
//! row that diverged for another reason still resolves such a pair, last
//! node wins). They also say nothing about unreachable nodes, which are
//! reconciled when they return.
//!
//! **Deletes are hinted too.** A hint carries the [`JournalOp`] the node
//! missed, whatever its kind, and hints replay in arrival order. A node
//! that was down for a `DeleteRow`, `DeleteColumn` or `Prune` would
//! otherwise come back holding versions every other replica dropped, and
//! the merge — which only ever adds versions — would copy them back to all
//! of them: a deleted object's metadata would reappear with its chunks
//! gone. A row that diverged *without* a hint (a write applied to one node
//! directly, a hint queue lost in a crash) still merges to the union of its
//! versions, pruned ones included.
//!
//! Every mutation is additionally recorded in a [`WriteAheadJournal`] so the
//! store survives a crash: [`ReplicatedStore::checkpoint`] snapshots the
//! nodes and truncates the journal's committed prefix, and
//! [`ReplicatedStore::recover`] rebuilds the nodes from a checkpoint plus a
//! journal replay. Multi-operation commits go through
//! [`ReplicatedStore::transaction`], whose write-ahead `Begin` record makes
//! the whole batch atomic across a crash (see [`crate::journal`]).
//!
//! # A mutation is a batch
//!
//! Every front door — the single-op methods and `transaction` alike — turns
//! its [`JournalOp`]s into `LoggedOp`s once and hands the whole slice to
//! each node in turn (`NoSqlNode::apply_batch`): one write-lock
//! acquisition per replica, and for a `Put` one `Arc` bump per replica (see
//! "One value, shared" in [`crate::journal`]). A node that is down misses
//! the whole batch and is hinted its ops in op order, so replay keeps the
//! order a put-then-delete depends on.

use crate::journal::{
    JournalOp, JournalRecord, LoggedOp, OpKind, StoreCheckpoint, WriteAheadJournal,
};
use crate::model::{Cell, Column, Timestamp};
use crate::store::NoSqlNode;
use parking_lot::Mutex;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::DatacenterId;
use serde_json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A mutation that could not reach a node (hinted handoff).
#[derive(Debug, Clone)]
struct Hint {
    datacenter: DatacenterId,
    op: LoggedOp,
}

/// What one [`ReplicatedStore::anti_entropy`] round did — its work counts,
/// so tests and operators can see that an in-sync round moved nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Hinted handoffs delivered to nodes that are back up.
    pub hints_replayed: usize,
    /// Hinted handoffs still queued for nodes that are down.
    pub hints_remaining: usize,
    /// Distinct row keys whose digests were compared across the reachable
    /// nodes (0 when the node digests already matched).
    pub rows_compared: usize,
    /// Rows whose digests differed and whose version sets were merged.
    pub rows_merged: usize,
    /// Cell versions written into nodes that lacked them.
    pub cells_copied: usize,
}

/// A crash-injection hook: called with a crash-point label, returns `true`
/// when the operation must abort *right there* with no cleanup (the chaos
/// harness arms these through a fault plan).
pub type CrashHook = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// A store replicated across every datacenter's database node.
pub struct ReplicatedStore {
    nodes: Vec<Arc<NoSqlNode>>,
    hints: Mutex<VecDeque<Hint>>,
    journal: WriteAheadJournal,
    crash_hook: Mutex<Option<CrashHook>>,
}

impl ReplicatedStore {
    /// Creates a replicated store over the given nodes (one per datacenter).
    pub(crate) fn new(nodes: Vec<Arc<NoSqlNode>>) -> Self {
        ReplicatedStore {
            nodes,
            hints: Mutex::new(VecDeque::new()),
            journal: WriteAheadJournal::new(),
            crash_hook: Mutex::new(None),
        }
    }

    /// Creates a store with `datacenters` fresh nodes.
    pub fn with_datacenters(datacenters: u32) -> Self {
        let nodes = (0..datacenters)
            .map(|i| NoSqlNode::shared(DatacenterId::new(i)))
            .collect();
        Self::new(nodes)
    }

    /// The underlying nodes.
    pub fn nodes(&self) -> &[Arc<NoSqlNode>] {
        &self.nodes
    }

    /// The node of a specific datacenter, if it exists.
    pub(crate) fn node(&self, datacenter: DatacenterId) -> Option<&Arc<NoSqlNode>> {
        self.nodes.iter().find(|n| n.datacenter() == datacenter)
    }

    /// Number of queued hinted-handoff mutations.
    pub fn pending_hints(&self) -> usize {
        self.hints.lock().len()
    }

    /// Writes a cell to every reachable node. Nodes that are down get a
    /// hinted handoff replayed by [`Self::anti_entropy`]. Fails only if *no*
    /// node accepted the write. Accepted writes are recorded in the
    /// write-ahead journal (as auto-committed redo records) so crash
    /// recovery can replay them.
    pub fn put(
        &self,
        row_key: &str,
        column: &str,
        value: Value,
        timestamp: Timestamp,
    ) -> Result<()> {
        let op = JournalOp::Put {
            row_key: row_key.to_string(),
            column: column.to_string(),
            value,
            timestamp,
        };
        self.apply(op).map(drop)
    }

    /// Applies a batch of ops, in order, to every reachable node and queues
    /// it as hinted handoffs for every node that is down (no journaling —
    /// shared by the journaling front doors and the recovery replay).
    /// Returns the cells the batch's `Prune`s removed (union across nodes,
    /// deduplicated by timestamp, sorted). Only a batch with a `Put` that no
    /// node accepted is an error: a delete or prune of data no reachable
    /// node holds has nothing to fail at.
    fn apply_batch(&self, ops: &[LoggedOp]) -> Result<Column> {
        let mut accepted = 0;
        let mut removed = Column::new();
        for node in &self.nodes {
            match node.apply_batch(ops) {
                Some(cells) => {
                    accepted += 1;
                    for cell in cells {
                        if !removed.iter().any(|c| c.timestamp == cell.timestamp) {
                            removed.push(cell);
                        }
                    }
                }
                None => self.hints.lock().extend(ops.iter().map(|op| Hint {
                    datacenter: node.datacenter(),
                    op: op.clone(),
                })),
            }
        }
        let writes = ops.iter().any(|op| matches!(op.kind, OpKind::Put { .. }));
        if accepted == 0 && writes {
            return Err(ScaliaError::DatacenterUnavailable(
                self.nodes.first().map(|n| n.datacenter().0).unwrap_or(0),
            ));
        }
        removed.sort_by_key(|c| c.timestamp);
        Ok(removed)
    }

    /// Atomically applies a batch of operations under write-ahead logging:
    /// the whole op list is journaled as one `Begin` record before any node
    /// sees any of it, and a `Commit` record lands only after every op
    /// applied. A crash anywhere in between leaves a `Begin` without a
    /// `Commit`, which [`Self::recover`] redoes — so the batch is all-or-
    /// nothing across a crash (old state if the crash beat the `Begin`
    /// record, new state otherwise).
    ///
    /// Returns the union of cells removed by the batch's `Prune` ops
    /// (deduplicated by timestamp, sorted) — the engine deletes their
    /// chunks.
    ///
    /// Crash points visited (in order): `txn::before-log`, `txn::logged`,
    /// `txn::torn`, `txn::applied`. Each node applies the batch in one
    /// step, so there is no moment *between* two ops to crash at any more;
    /// a crash armed at `txn::torn` instead applies the batch's first op —
    /// and only that — to the replicas before aborting, which leaves exactly
    /// the partial state the point has always stood for (one op of a logged
    /// batch durable in the nodes, the rest only in the journal) for
    /// `recover` to finish.
    pub fn transaction(&self, ops: Vec<JournalOp>) -> Result<Column> {
        self.crash_check("txn::before-log")?;
        let ops: Arc<[LoggedOp]> = ops.into_iter().map(LoggedOp::from).collect();
        let txid = self.journal.begin(Arc::clone(&ops));
        self.crash_check("txn::logged")?;
        if let Some(head) = ops.get(..1) {
            if let Err(crash) = self.crash_check("txn::torn") {
                self.apply_batch(head)?;
                return Err(crash);
            }
        }
        let removed = self.apply_batch(&ops)?;
        self.crash_check("txn::applied")?;
        self.journal.commit(txid);
        Ok(removed)
    }

    /// Installs a crash-injection hook (see [`CrashHook`]). The chaos
    /// harness uses this to abort journaled operations at named points.
    pub fn set_crash_hook(&self, hook: Option<CrashHook>) {
        *self.crash_hook.lock() = hook;
    }

    /// Visits a crash point: aborts with an internal error when the
    /// installed hook says the label is armed.
    fn crash_check(&self, label: &str) -> Result<()> {
        let hook = self.crash_hook.lock().clone();
        match hook {
            Some(hook) if hook(label) => {
                Err(ScaliaError::Internal(format!("crash injected at {label}")))
            }
            _ => Ok(()),
        }
    }

    /// The store's write-ahead journal.
    pub fn journal(&self) -> &WriteAheadJournal {
        &self.journal
    }

    /// Snapshots every node's rows — a down node's too: they are on its
    /// disk, only unreachable — and truncates the journal's committed
    /// prefix: the durable baseline [`Self::recover`] restores from. Take
    /// checkpoints at quiescent points (no in-flight transactions).
    pub fn checkpoint(&self) -> StoreCheckpoint {
        let node_rows = self.nodes.iter().map(|n| n.durable_rows()).collect();
        self.journal.truncate_committed();
        StoreCheckpoint { node_rows }
    }

    /// Crash recovery: restores every node from `checkpoint` (bringing it
    /// up), drops volatile hinted handoffs, and replays the journal in
    /// order. Committed transactions and auto-committed singles are redone
    /// as logged; a `Begin` without a `Commit` (a transaction interrupted by
    /// the crash) is **redone to completion** — its intent was durable — and
    /// then marked committed, so recovery is idempotent. After recovery the
    /// store holds either the pre-transaction or the post-transaction state
    /// for every interrupted commit, never a torn mixture.
    pub fn recover(&self, checkpoint: &StoreCheckpoint) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.set_up(true);
            let rows = checkpoint.node_rows.get(i).cloned().unwrap_or_default();
            node.restore(rows);
        }
        self.hints.lock().clear();
        let uncommitted = self.journal.uncommitted();
        for record in self.journal.records() {
            match record {
                JournalRecord::Apply(op) => {
                    let _ = self.apply_batch(std::slice::from_ref(&op));
                }
                JournalRecord::Begin { ops, .. } => {
                    let _ = self.apply_batch(&ops);
                }
                JournalRecord::Commit { .. } => {}
            }
        }
        for txid in uncommitted {
            self.journal.commit(txid);
        }
    }

    /// The first reachable node, preferring the caller's local datacenter —
    /// the single read policy every best-effort single-replica read
    /// delegates to. Allocation-free: this sits under the hottest metadata
    /// reads.
    pub(crate) fn read_node(&self, local: DatacenterId) -> Option<&Arc<NoSqlNode>> {
        self.nodes
            .iter()
            .find(|n| n.is_up() && n.datacenter() == local)
            .or_else(|| self.nodes.iter().find(|n| n.is_up()))
    }

    /// Reads the latest version of a column from the first reachable node
    /// (preferring the caller's local datacenter).
    pub fn get_latest(&self, local: DatacenterId, row_key: &str, column: &str) -> Option<Cell> {
        self.read_node(local)
            .and_then(|n| n.get_latest(row_key, column))
    }

    /// Reads one row from **every** up replica and merges it: per column,
    /// the cell with the highest timestamp across all replicas wins (the
    /// same last-write-wins rule MVCC applies within a node).
    ///
    /// This is the replicated read for row-shaped queries (e.g. the
    /// container index behind LIST): [`Self::get_latest`] serves from a
    /// *single* node, which is correct only for the node anti-entropy has
    /// caught up — a replica that was down during writes and came back
    /// before its hints replayed would otherwise serve arbitrarily stale
    /// cells. Merging across replicas reads through that lag: any up node
    /// that accepted the write supplies the fresh cell.
    pub fn get_row_merged(&self, row_key: &str) -> BTreeMap<String, Arc<Cell>> {
        let mut merged: BTreeMap<String, Arc<Cell>> = BTreeMap::new();
        for node in self.nodes.iter().filter(|n| n.is_up()) {
            let Some(row) = node.get_row(row_key) else {
                continue;
            };
            for (column, cells) in row {
                let Some(cell) = cells.into_iter().max_by_key(|c| c.timestamp) else {
                    continue;
                };
                match merged.get(&column) {
                    Some(existing) if existing.timestamp >= cell.timestamp => {}
                    _ => {
                        merged.insert(column, cell);
                    }
                }
            }
        }
        merged
    }

    /// Applies `read` to the latest version of a column on the first
    /// reachable node (preferring `local`) without cloning the cell — see
    /// `NoSqlNode::with_latest`.
    pub fn with_latest<T>(
        &self,
        local: DatacenterId,
        row_key: &str,
        column: &str,
        read: impl FnOnce(&Cell) -> T,
    ) -> Option<T> {
        self.read_node(local)
            .and_then(|n| n.with_latest(row_key, column, read))
    }

    /// Applies one auto-committed op and journals it — what [`Self::put`],
    /// [`Self::delete_row`], [`Self::delete_column`] and
    /// [`Self::prune_old_versions`] are shorthand for. Returns the cells a
    /// `Prune` removed.
    pub(crate) fn apply(&self, op: JournalOp) -> Result<Column> {
        let op = LoggedOp::from(op);
        let removed = self.apply_batch(std::slice::from_ref(&op))?;
        self.journal.log_apply(op);
        Ok(removed)
    }

    /// Deletes a row on every reachable node, hinting the ones that are
    /// down (journaled).
    pub fn delete_row(&self, row_key: &str) {
        let row_key = row_key.to_string();
        let _ = self.apply(JournalOp::DeleteRow { row_key });
    }

    /// Deletes a single column of a row on every reachable node, hinting
    /// the ones that are down (statistics garbage collection: dropping
    /// over-retention samples). Journaled.
    pub(crate) fn delete_column(&self, row_key: &str, column: &str) {
        let _ = self.apply(JournalOp::DeleteColumn {
            row_key: row_key.to_string(),
            column: column.to_string(),
        });
    }

    /// Prunes deprecated versions of a column on every reachable node
    /// (hinting the ones that are down) and returns the union of removed
    /// cells (deduplicated by timestamp). Journaled.
    pub fn prune_old_versions(&self, row_key: &str, column: &str) -> Column {
        self.apply(JournalOp::Prune {
            row_key: row_key.to_string(),
            column: column.to_string(),
        })
        .unwrap_or_default()
    }

    /// Delivers queued hinted handoffs, oldest first, to the nodes that are
    /// back up; hints for nodes still down stay queued in order.
    fn replay_hints(&self, report: &mut AntiEntropyReport) {
        let mut hints = self.hints.lock();
        let mut remaining = VecDeque::new();
        while let Some(hint) = hints.pop_front() {
            let delivered = self
                .node(hint.datacenter)
                .is_some_and(|node| node.apply_batch(std::slice::from_ref(&hint.op)).is_some());
            if delivered {
                report.hints_replayed += 1;
            } else {
                remaining.push_back(hint);
            }
        }
        report.hints_remaining = remaining.len();
        *hints = remaining;
    }

    /// One anti-entropy round, making the reachable datacenters eventually
    /// consistent at a cost proportional to how far they diverged (see the
    /// module docs): replays hinted handoffs, returns at once if the
    /// reachable nodes' digests agree, and otherwise merges the version
    /// sets of exactly the rows whose digests differ — every reachable node
    /// ends up with the union of the versions any of them held for those
    /// rows.
    pub fn anti_entropy(&self) -> AntiEntropyReport {
        let mut report = AntiEntropyReport::default();
        self.replay_hints(&mut report);

        let up: Vec<&NoSqlNode> = self
            .nodes
            .iter()
            .filter(|n| n.is_up())
            .map(Arc::as_ref)
            .collect();
        let Some((first, rest)) = up.split_first() else {
            return report;
        };
        let digest = first.digest();
        if rest.iter().all(|n| n.digest() == digest) {
            return report;
        }

        let (compared, divergent) = NoSqlNode::divergent_rows(&up);
        report.rows_compared = compared;
        report.rows_merged = divergent.len();
        for row_key in &divergent {
            let copies: Vec<_> = up.iter().map(|n| n.get_row(row_key)).collect();
            for (source, copy) in copies.iter().enumerate() {
                let Some(row) = copy else { continue };
                for (target, node) in up.iter().enumerate() {
                    if target != source {
                        report.cells_copied += node.merge_row(row_key, row);
                    }
                }
            }
        }
        report
    }

    /// The differential oracle for [`Self::anti_entropy`]: the full merge
    /// it replaced — every cell version of every reachable node re-put into
    /// every reachable node. O(store) per round; tests only.
    #[cfg(test)]
    fn anti_entropy_full_merge(&self) {
        self.replay_hints(&mut AntiEntropyReport::default());
        let snapshots: Vec<_> = self
            .nodes
            .iter()
            .filter(|n| n.is_up())
            .map(|n| (n.clone(), n.snapshot()))
            .collect();
        for (_, snapshot) in &snapshots {
            for (row_key, row) in snapshot {
                for (column, cells) in row {
                    for cell in cells {
                        for (target, _) in &snapshots {
                            target.put(row_key, column, cell.value.clone(), cell.timestamp);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn store() -> ReplicatedStore {
        ReplicatedStore::with_datacenters(2)
    }

    #[test]
    fn writes_replicate_to_all_datacenters() {
        let s = store();
        s.put("r", "c", json!("v"), Timestamp::new(1, 0)).unwrap();
        for node in s.nodes() {
            assert_eq!(node.get_latest("r", "c").unwrap().value, json!("v"));
        }
        assert_eq!(s.pending_hints(), 0);
    }

    #[test]
    fn reads_prefer_local_datacenter_but_fail_over() {
        let s = store();
        s.put("r", "c", json!(1), Timestamp::new(1, 0)).unwrap();
        // Take dc_0 down; a dc_0-local read must still succeed via dc_1.
        s.nodes()[0].set_up(false);
        let cell = s.get_latest(DatacenterId::new(0), "r", "c").unwrap();
        assert_eq!(cell.value, json!(1));
    }

    #[test]
    fn write_succeeds_while_one_node_is_down_then_heals() {
        let s = store();
        s.nodes()[1].set_up(false);
        s.put("r", "c", json!("during-outage"), Timestamp::new(5, 0))
            .unwrap();
        assert_eq!(s.pending_hints(), 1);
        // The down node has nothing yet.
        s.nodes()[1].set_up(true);
        assert!(s.nodes()[1].get_latest("r", "c").is_none());
        // Anti-entropy replays the hint.
        s.anti_entropy();
        assert_eq!(s.pending_hints(), 0);
        assert_eq!(
            s.nodes()[1].get_latest("r", "c").unwrap().value,
            json!("during-outage")
        );
    }

    #[test]
    fn write_fails_only_when_all_nodes_down() {
        let s = store();
        s.nodes()[0].set_up(false);
        s.nodes()[1].set_up(false);
        let err = s.put("r", "c", json!(1), Timestamp::new(1, 0)).unwrap_err();
        assert!(matches!(err, ScaliaError::DatacenterUnavailable(_)));
    }

    #[test]
    fn anti_entropy_merges_divergent_nodes() {
        let s = store();
        // Simulate a partition: each datacenter gets a different concurrent
        // write applied only locally.
        s.nodes()[0].put("r", "c", json!("a"), Timestamp::new(10, 0));
        s.nodes()[1].put("r", "c", json!("b"), Timestamp::new(10, 1));
        s.anti_entropy();
        for node in s.nodes() {
            let versions = node.get_versions("r", "c");
            assert_eq!(versions.len(), 2, "both versions present after merge");
            assert_eq!(node.get_latest("r", "c").unwrap().value, json!("b"));
        }
    }

    #[test]
    fn deletes_and_prunes_a_down_node_missed_are_hinted_and_not_resurrected() {
        let s = store();
        s.put("r", "meta", json!("v1"), Timestamp::new(1, 0))
            .unwrap();
        s.put("r", "meta", json!("v2"), Timestamp::new(2, 0))
            .unwrap();
        s.put("r", "debt", json!(true), Timestamp::new(2, 1))
            .unwrap();
        s.put("gone", "c", json!(1), Timestamp::new(3, 0)).unwrap();

        // dc_1 misses one op of every kind, and a put + delete of one row.
        s.nodes()[1].set_up(false);
        s.delete_row("gone");
        s.delete_column("r", "debt");
        assert_eq!(s.prune_old_versions("r", "meta").len(), 1);
        s.put("r", "meta", json!("v3"), Timestamp::new(4, 0))
            .unwrap();
        s.put("brief", "c", json!(1), Timestamp::new(5, 0)).unwrap();
        s.delete_row("brief");
        assert_eq!(s.pending_hints(), 6);

        // Still down: nothing is delivered, nothing is dropped.
        let report = s.anti_entropy();
        assert_eq!((report.hints_replayed, report.hints_remaining), (0, 6));

        // Back up, lagging: it still holds what the others deleted.
        s.nodes()[1].set_up(true);
        assert!(s.nodes()[1].get_row("gone").is_some());
        let report = s.anti_entropy();
        assert_eq!((report.hints_replayed, report.hints_remaining), (6, 0));
        assert_eq!(
            (report.rows_merged, report.cells_copied),
            (0, 0),
            "replaying the hints in order converges the nodes by itself"
        );
        for node in s.nodes() {
            assert!(node.get_row("gone").is_none(), "deleted row stays deleted");
            assert!(node.get_row("brief").is_none(), "put-then-delete in order");
            assert!(node.get_versions("r", "debt").is_empty());
            let versions: Vec<Value> = node
                .get_versions("r", "meta")
                .into_iter()
                .map(|c| c.value.clone())
                .collect();
            assert_eq!(versions, vec![json!("v2"), json!("v3")]);
        }
        assert_eq!(s.nodes()[0].digest(), s.nodes()[1].digest());
    }

    #[test]
    fn anti_entropy_work_is_proportional_to_divergence() {
        let s = store();
        for i in 0..10_000u64 {
            s.put(&format!("row-{i:05}"), "c", json!(i), Timestamp::new(1, i))
                .unwrap();
        }
        // In sync: the node digests match and nothing else is looked at.
        assert_eq!(s.anti_entropy(), AntiEntropyReport::default());

        // Diverge 7 rows: extra versions on either node, and a row only
        // dc_1 has.
        for i in 0..4u64 {
            s.nodes()[0].put(
                &format!("row-{i:05}"),
                "c",
                json!("a"),
                Timestamp::new(2, i),
            );
        }
        for i in 4..6u64 {
            s.nodes()[1].put(
                &format!("row-{i:05}"),
                "d",
                json!("b"),
                Timestamp::new(2, i),
            );
        }
        s.nodes()[1].put("row-new", "c", json!("b"), Timestamp::new(2, 6));
        assert_eq!(
            s.anti_entropy(),
            AntiEntropyReport {
                rows_compared: 10_001,
                rows_merged: 7,
                cells_copied: 7,
                ..AntiEntropyReport::default()
            }
        );
        for node in s.nodes() {
            assert_eq!(node.row_count(), 10_001);
            assert_eq!(node.get_versions("row-00000", "c").len(), 2);
            node.assert_digests_consistent("after merge");
        }
        assert_eq!(s.anti_entropy(), AntiEntropyReport::default());

        // A node that is down is left out of the comparison.
        s.nodes()[0].put("row-00009", "c", json!("a"), Timestamp::new(3, 0));
        s.nodes()[1].set_up(false);
        assert_eq!(s.anti_entropy(), AntiEntropyReport::default());
        s.nodes()[1].set_up(true);
        assert_eq!(s.anti_entropy().rows_merged, 1);
    }

    #[test]
    fn concurrent_transactions_and_anti_entropy_keep_every_version_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        const WRITERS: u64 = 3;
        const COMMITS: u64 = 300;
        let s = ReplicatedStore::with_datacenters(3);
        // Writers and the anti-entropy loop start together; the loop keeps
        // running rounds until the last writer has committed, so rounds
        // overlap transactions that have reached some nodes and not others.
        let start = Barrier::new(WRITERS as usize + 1);
        let writing = AtomicUsize::new(WRITERS as usize);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (s, start, writing) = (&s, &start, &writing);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..COMMITS {
                        let put = |row_key: String| JournalOp::Put {
                            row_key,
                            column: "c".into(),
                            value: json!([w, i]),
                            timestamp: Timestamp::new(i, w),
                        };
                        s.transaction(vec![put("shared".into()), put(format!("own-{w}"))])
                            .unwrap();
                    }
                    writing.fetch_sub(1, Ordering::SeqCst);
                });
            }
            scope.spawn(|| {
                start.wait();
                while writing.load(Ordering::SeqCst) > 0 {
                    s.anti_entropy();
                }
            });
        });
        s.anti_entropy();

        let mut shared: Vec<Timestamp> = (0..WRITERS)
            .flat_map(|w| (0..COMMITS).map(move |i| Timestamp::new(i, w)))
            .collect();
        shared.sort();
        for node in s.nodes() {
            let timestamps = |row: &str| -> Vec<Timestamp> {
                node.get_versions(row, "c")
                    .iter()
                    .map(|c| c.timestamp)
                    .collect()
            };
            assert_eq!(timestamps("shared"), shared, "none lost, none twice");
            for w in 0..WRITERS {
                let own: Vec<Timestamp> = (0..COMMITS).map(|i| Timestamp::new(i, w)).collect();
                assert_eq!(timestamps(&format!("own-{w}")), own);
            }
            for cell in node.get_versions("shared", "c") {
                assert_eq!(
                    cell.value,
                    json!([cell.timestamp.seq, cell.timestamp.secs]),
                    "a version keeps the value it was written with"
                );
            }
            node.assert_digests_consistent("after concurrent rounds");
            assert_eq!(node.digest(), s.nodes()[0].digest());
        }
        assert_eq!(s.anti_entropy(), AntiEntropyReport::default());
    }

    #[test]
    fn prune_old_versions_across_datacenters() {
        let s = store();
        s.put("r", "c", json!("old"), Timestamp::new(1, 0)).unwrap();
        s.put("r", "c", json!("new"), Timestamp::new(2, 0)).unwrap();
        let removed = s.prune_old_versions("r", "c");
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].value, json!("old"));
        for node in s.nodes() {
            assert_eq!(node.get_versions("r", "c").len(), 1);
        }
    }

    #[test]
    fn delete_row_everywhere() {
        let s = store();
        s.put("r", "c", json!(1), Timestamp::new(1, 0)).unwrap();
        s.delete_row("r");
        for node in s.nodes() {
            assert!(node.get_latest("r", "c").is_none());
        }
    }

    #[test]
    fn transaction_applies_all_ops_and_returns_pruned_cells() {
        let s = store();
        s.put("r", "meta", json!("old"), Timestamp::new(1, 0))
            .unwrap();
        let removed = s
            .transaction(vec![
                JournalOp::Put {
                    row_key: "r".into(),
                    column: "meta".into(),
                    value: json!("new"),
                    timestamp: Timestamp::new(2, 0),
                },
                JournalOp::Put {
                    row_key: "container:c".into(),
                    column: "k".into(),
                    value: json!(true),
                    timestamp: Timestamp::new(2, 0),
                },
                JournalOp::Prune {
                    row_key: "r".into(),
                    column: "meta".into(),
                },
            ])
            .unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].value, json!("old"));
        for node in s.nodes() {
            assert_eq!(node.get_versions("r", "meta").len(), 1);
            assert_eq!(node.get_latest("r", "meta").unwrap().value, json!("new"));
            assert!(node.get_latest("container:c", "k").is_some());
        }
        assert!(s.journal().uncommitted().is_empty());
    }

    #[test]
    fn recovery_replays_journal_onto_checkpoint() {
        let s = store();
        s.put("a", "c", json!(1), Timestamp::new(1, 0)).unwrap();
        let cp = s.checkpoint();
        // Post-checkpoint history: a put, a delete, a committed transaction.
        s.put("b", "c", json!(2), Timestamp::new(2, 0)).unwrap();
        s.delete_row("a");
        s.transaction(vec![JournalOp::Put {
            row_key: "t".into(),
            column: "c".into(),
            value: json!(3),
            timestamp: Timestamp::new(3, 0),
        }])
        .unwrap();
        // Crash: wipe the nodes entirely, then recover.
        for node in s.nodes() {
            node.restore(Vec::new());
        }
        s.recover(&cp);
        for node in s.nodes() {
            assert!(node.get_latest("a", "c").is_none(), "delete replayed");
            assert_eq!(node.get_latest("b", "c").unwrap().value, json!(2));
            assert_eq!(node.get_latest("t", "c").unwrap().value, json!(3));
        }
    }

    #[test]
    fn crash_mid_transaction_recovers_to_new_state_atomically() {
        for label in ["txn::logged", "txn::torn", "txn::applied"] {
            let s = store();
            s.put("r", "meta", json!("old"), Timestamp::new(1, 0))
                .unwrap();
            let cp = s.checkpoint();
            let fire = label.to_string();
            s.set_crash_hook(Some(Arc::new(move |l: &str| l == fire)));
            let err = s
                .transaction(vec![
                    JournalOp::Put {
                        row_key: "r".into(),
                        column: "meta".into(),
                        value: json!("new"),
                        timestamp: Timestamp::new(2, 0),
                    },
                    JournalOp::Prune {
                        row_key: "r".into(),
                        column: "meta".into(),
                    },
                ])
                .unwrap_err();
            assert!(matches!(err, ScaliaError::Internal(_)), "{label}");
            s.set_crash_hook(None);
            s.recover(&cp);
            // The Begin record was durable, so recovery redoes the whole
            // batch: exactly one version, the new one, on every node.
            for node in s.nodes() {
                assert_eq!(node.get_versions("r", "meta").len(), 1, "{label}");
                assert_eq!(
                    node.get_latest("r", "meta").unwrap().value,
                    json!("new"),
                    "{label}"
                );
            }
            assert!(s.journal().uncommitted().is_empty(), "{label}");
            // Recovery is idempotent.
            s.recover(&cp);
            for node in s.nodes() {
                assert_eq!(node.get_versions("r", "meta").len(), 1, "{label}");
            }
        }
    }

    #[test]
    fn crash_before_log_leaves_old_state() {
        let s = store();
        s.put("r", "meta", json!("old"), Timestamp::new(1, 0))
            .unwrap();
        let cp = s.checkpoint();
        s.set_crash_hook(Some(Arc::new(|l: &str| l == "txn::before-log")));
        assert!(s
            .transaction(vec![JournalOp::Put {
                row_key: "r".into(),
                column: "meta".into(),
                value: json!("new"),
                timestamp: Timestamp::new(2, 0),
            }])
            .is_err());
        s.set_crash_hook(None);
        s.recover(&cp);
        for node in s.nodes() {
            assert_eq!(node.get_latest("r", "meta").unwrap().value, json!("old"));
            assert_eq!(node.get_versions("r", "meta").len(), 1);
        }
    }

    #[test]
    fn checkpoint_truncates_committed_journal_prefix() {
        let s = store();
        for i in 0..10 {
            s.put("r", "c", json!(i), Timestamp::new(i, 0)).unwrap();
        }
        assert_eq!(s.journal().len(), 10);
        let cp = s.checkpoint();
        assert_eq!(s.journal().len(), 0, "committed prefix dropped");
        // Recovery from a fresh checkpoint with an empty journal is exact.
        s.recover(&cp);
        assert_eq!(
            s.get_latest(DatacenterId::new(0), "r", "c").unwrap().value,
            json!(9)
        );
    }

    #[test]
    fn checkpoint_during_a_node_outage_keeps_that_nodes_rows() {
        let s = store();
        s.put("a", "c", json!(1), Timestamp::new(1, 0)).unwrap();
        s.nodes()[1].set_up(false);
        let cp = s.checkpoint();
        s.recover(&cp);
        let local = s.get_latest(DatacenterId::new(1), "a", "c");
        assert_eq!(local.unwrap().value, json!(1), "served by node 1 itself");
        assert_eq!(s.nodes()[1].row_count(), 1);
    }

    // -----------------------------------------------------------------
    // Differential test: digest-driven rounds against the full merge
    // -----------------------------------------------------------------

    /// An independent copy of the store's replicated state (nodes, their
    /// reachability, queued hints). The journal is not copied: anti-entropy
    /// never reads it.
    fn clone_state(s: &ReplicatedStore) -> ReplicatedStore {
        let clone =
            ReplicatedStore::new(s.nodes.iter().map(|n| Arc::new(n.deep_clone())).collect());
        *clone.hints.lock() = s.hints.lock().clone();
        clone
    }

    /// Runs one digest-driven round on `s` and the full-merge oracle on a
    /// copy of the same pre-state; every node must end byte-identical (rows,
    /// row headers, digests), with the incremental digests still exact.
    fn round_matches_oracle(s: &ReplicatedStore, context: &str) -> AntiEntropyReport {
        let oracle = clone_state(s);
        oracle.anti_entropy_full_merge();
        let report = s.anti_entropy();
        assert_eq!(report.hints_remaining, oracle.pending_hints(), "{context}");
        for (node, expected) in s.nodes().iter().zip(oracle.nodes()) {
            node.assert_same_state(expected, context);
            node.assert_digests_consistent(context);
        }
        let mut up = s.nodes().iter().filter(|n| n.is_up());
        if let Some(first) = up.next() {
            assert!(up.all(|n| n.digest() == first.digest()), "{context}");
        }
        report
    }

    // -----------------------------------------------------------------
    // Differential test: the batched apply against one op at a time
    // -----------------------------------------------------------------

    /// `len` random ops over a key space small enough that they collide on
    /// rows and columns; every `Put` draws a fresh timestamp from `seq`.
    fn random_ops(below: &mut impl FnMut(u64) -> u64, seq: &mut u64, len: usize) -> Vec<JournalOp> {
        (0..len)
            .map(|_| {
                let row_key = format!("row-{}", below(3));
                let column = format!("col-{}", below(2));
                match below(8) {
                    0..=3 => {
                        *seq += 1;
                        JournalOp::Put {
                            row_key,
                            column,
                            value: json!(*seq),
                            timestamp: Timestamp::new(*seq / 3, *seq),
                        }
                    }
                    4 | 5 => JournalOp::Prune { row_key, column },
                    6 => JournalOp::DeleteColumn { row_key, column },
                    _ => JournalOp::DeleteRow { row_key },
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A random batch through `transaction` — one lock and one row
        /// lookup per run on each node — must be indistinguishable from the
        /// same ops applied one at a time: same rows, headers and digests on
        /// every node, same pruned cells, same hints (in op order) for a
        /// node that was down, and the same state after a crash at any
        /// `txn::*` point plus `recover`.
        #[test]
        fn batched_transaction_matches_ops_applied_one_at_a_time(
            seed in proptest::any::<u64>(),
            datacenters in 2u32..4,
            len in 1usize..14,
        ) {
            let mut rng = proptest::TestRng::deterministic(&format!("batch-{seed}"));
            let mut below = move |n: u64| rng.next_u64() % n;
            let mut seq = 0u64;
            let history = random_ops(&mut below, &mut seq, 10);
            let batch = random_ops(&mut below, &mut seq, len);
            let down = below(datacenters as u64 + 1) as usize; // == datacenters: none
            let build = || {
                let s = ReplicatedStore::with_datacenters(datacenters);
                for op in &history {
                    s.apply(op.clone()).unwrap();
                }
                s
            };

            let (batched, serial) = (build(), build());
            for s in [&batched, &serial] {
                if let Some(node) = s.nodes().get(down) {
                    node.set_up(false);
                }
            }
            let removed = batched.transaction(batch.clone()).unwrap();
            let mut one_by_one = Column::new();
            for op in &batch {
                for cell in serial.apply(op.clone()).unwrap() {
                    if !one_by_one.iter().any(|c| c.timestamp == cell.timestamp) {
                        one_by_one.push(cell);
                    }
                }
            }
            one_by_one.sort_by_key(|c| c.timestamp);
            assert_eq!(removed, one_by_one, "seed {seed}: pruned cells");
            assert_eq!(batched.pending_hints(), serial.pending_hints());
            // Heal: the hints must replay in op order, or a put-then-delete
            // leaves the lagging node with versions the others dropped.
            for heal in [false, true] {
                for s in [&batched, &serial] {
                    if heal {
                        s.nodes().iter().for_each(|n| n.set_up(true));
                        assert_eq!(s.anti_entropy().rows_merged, 0, "seed {seed}");
                    }
                }
                for (node, expected) in batched.nodes().iter().zip(serial.nodes()) {
                    node.assert_same_state(expected, &format!("seed {seed} heal {heal}"));
                    node.assert_digests_consistent(&format!("seed {seed} heal {heal}"));
                }
            }

            // Crash at each point, then recover: old state before the Begin
            // record is durable, the whole batch after.
            let (before, after) = (build(), build());
            after.transaction(batch.clone()).unwrap();
            for label in ["txn::before-log", "txn::logged", "txn::torn", "txn::applied"] {
                let crashed = build();
                let checkpoint = crashed.checkpoint();
                crashed.set_crash_hook(Some(Arc::new(move |l: &str| l == label)));
                assert!(crashed.transaction(batch.clone()).is_err(), "{label}");
                crashed.set_crash_hook(None);
                crashed.recover(&checkpoint);
                let expected = if label == "txn::before-log" { &before } else { &after };
                for (node, expected) in crashed.nodes().iter().zip(expected.nodes()) {
                    assert_eq!(node.snapshot(), expected.snapshot(), "seed {seed} {label}");
                    node.assert_digests_consistent(&format!("seed {seed} {label}"));
                }
                assert!(crashed.journal().uncommitted().is_empty(), "{label}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random schedules of replicated puts, transactions, prunes and
        /// deletes, node down/up windows, writes applied to one node only
        /// (a partition), checkpoints and recoveries — with an anti-entropy
        /// round, checked against the oracle, wherever the schedule puts
        /// one. Timestamps are unique per write, as in a deployment.
        #[test]
        fn digest_driven_rounds_match_the_full_merge(
            seed in proptest::any::<u64>(),
            datacenters in 2u32..5,
            steps in 20usize..90,
        ) {
            let mut rng = proptest::TestRng::deterministic(&format!("schedule-{seed}"));
            let mut below = move |n: u64| rng.next_u64() % n;
            let s = ReplicatedStore::with_datacenters(datacenters);
            let mut checkpoint: Option<StoreCheckpoint> = None;
            let mut seq = 0u64;
            for step in 0..steps {
                let row_key = format!("row-{}", below(6));
                let column = format!("col-{}", below(3));
                seq += 1;
                let timestamp = Timestamp::new(seq / 4, seq);
                let put = JournalOp::Put {
                    row_key: row_key.clone(),
                    column: column.clone(),
                    value: json!(seq),
                    timestamp,
                };
                match below(16) {
                    0..=4 => {
                        // Fails only when every node is down.
                        let _ = s.put(&row_key, &column, json!(seq), timestamp);
                    }
                    5 | 6 => {
                        let prune = JournalOp::Prune {
                            row_key: row_key.clone(),
                            column: column.clone(),
                        };
                        let _ = s.transaction(vec![put, prune]);
                    }
                    7 => {
                        s.prune_old_versions(&row_key, &column);
                    }
                    8 => s.delete_row(&row_key),
                    9 => s.delete_column(&row_key, &column),
                    10 | 11 => {
                        let node = &s.nodes()[below(datacenters as u64) as usize];
                        node.set_up(!node.is_up());
                    }
                    12 => {
                        // Reaches one node only; ignored if that node is down.
                        s.nodes()[below(datacenters as u64) as usize].put(
                            &row_key,
                            &column,
                            json!(seq),
                            timestamp,
                        );
                    }
                    13 => checkpoint = Some(s.checkpoint()),
                    14 => {
                        if let Some(checkpoint) = &checkpoint {
                            s.recover(checkpoint);
                        }
                    }
                    _ => {
                        round_matches_oracle(&s, &format!("seed {seed} step {step}"));
                    }
                }
                for node in s.nodes() {
                    node.assert_digests_consistent(&format!("seed {seed} step {step}"));
                }
            }

            // Heal everything: one round converges all nodes, the next one
            // finds nothing to look at.
            for node in s.nodes() {
                node.set_up(true);
            }
            round_matches_oracle(&s, &format!("seed {seed} final"));
            assert_eq!(s.pending_hints(), 0);
            assert_eq!(s.anti_entropy(), AntiEntropyReport::default());
        }
    }
}
