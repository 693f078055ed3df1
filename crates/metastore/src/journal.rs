//! Write-ahead journal for crash-consistent metadata commits.
//!
//! Every mutation of the replicated store is a transaction, logged *before*
//! any database node sees any of it, so that a crash at any point leaves
//! enough durable intent to finish the interrupted batch on restart.
//!
//! # Journal format
//!
//! The journal is an append-only sequence of `JournalRecord`s of two kinds:
//!
//! * `Begin { txid, ops }` — a transaction: the engine's put commit
//!   (metadata, container index, debt, version prune, dirty mark), its
//!   delete (class samples, row drops, container tombstone), a tick's
//!   statistics flush, a repair-queue update. The *whole* op list is logged
//!   atomically before any node sees any of it. A batch that writes a cell
//!   no node accepted is refused, and its `Begin` is taken back out of the
//!   journal (`WriteAheadJournal::abort`), so neither replay nor a
//!   checkpoint ever sees it.
//! * `Commit { txid }` — appended after every op of transaction `txid` was
//!   applied to the nodes.
//!
//! # One value, shared
//!
//! Callers hand the store [`JournalOp`]s, which own their values. On entry
//! each becomes a `LoggedOp`, whose `Put` carries its cell behind an
//! `Arc`: the `Begin` record, a hint queued for a node that is down and the
//! column of every replica point at that one allocation, so a replicated
//! put allocates its value once — when the caller built it. Cells are
//! immutable once stored, so the sharing is never observable.
//!
//! The journal keeps every record, so each put holds its value here for
//! the life of the store: for a small object's metadata, one encoded
//! record of ≈ 250 B (see [`Cell`]).

use crate::model::{Cell, Row, Timestamp};
use crate::replication::Hint;
use parking_lot::Mutex;
use serde_json::Value;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One journaled mutation of the replicated store.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Write a versioned cell.
    Put {
        /// Row key of the mutation.
        row_key: String,
        /// Column written.
        column: String,
        /// Cell value.
        value: Value,
        /// Version timestamp of the cell.
        timestamp: Timestamp,
    },
    /// Delete a whole row.
    DeleteRow {
        /// Row key to delete.
        row_key: String,
    },
    /// Delete one column of a row.
    DeleteColumn {
        /// Row key of the column.
        row_key: String,
        /// Column to delete.
        column: String,
    },
    /// Drop every version of a column older than its latest.
    Prune {
        /// Row key of the column.
        row_key: String,
        /// Column to prune.
        column: String,
    },
}

/// A [`JournalOp`] as the store logs, hints and applies it (see "One value,
/// shared" in the module docs). Every op names one row, which a node finds
/// with one hash probe of its row map.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoggedOp {
    /// Row key of the mutation.
    pub row_key: String,
    /// What happens to the row.
    pub kind: OpKind,
}

/// The mutation a [`LoggedOp`] applies to its row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OpKind {
    /// Write a versioned cell.
    Put {
        /// Column written.
        column: String,
        /// The cell, shared by everything that stores it.
        cell: Arc<Cell>,
    },
    /// Delete the whole row.
    DeleteRow,
    /// Delete one column.
    DeleteColumn {
        /// Column to delete.
        column: String,
    },
    /// Drop every version of a column older than its latest.
    Prune {
        /// Column to prune.
        column: String,
    },
}

impl From<JournalOp> for LoggedOp {
    fn from(op: JournalOp) -> Self {
        let (row_key, kind) = match op {
            JournalOp::Put {
                row_key,
                column,
                value,
                timestamp,
            } => {
                let cell = Arc::new(Cell::new(value, timestamp));
                (row_key, OpKind::Put { column, cell })
            }
            JournalOp::DeleteRow { row_key } => (row_key, OpKind::DeleteRow),
            JournalOp::DeleteColumn { row_key, column } => {
                (row_key, OpKind::DeleteColumn { column })
            }
            JournalOp::Prune { row_key, column } => (row_key, OpKind::Prune { column }),
        };
        LoggedOp { row_key, kind }
    }
}

/// One record of the append-only journal (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JournalRecord {
    /// Start of a transaction: the full op list, logged before any node
    /// applies any of it.
    Begin {
        /// Transaction id (unique within this journal).
        txid: u64,
        /// The transaction's operations, in apply order — the same slice
        /// the transaction goes on to apply.
        ops: Arc<[LoggedOp]>,
    },
    /// End of a transaction: every op of `txid` reached the nodes.
    Commit {
        /// Transaction id being committed.
        txid: u64,
    },
}

/// The append-only write-ahead journal of a replicated store.
#[derive(Debug, Default)]
pub struct WriteAheadJournal {
    records: Mutex<Vec<JournalRecord>>,
    next_txid: AtomicU64,
}

impl WriteAheadJournal {
    /// Creates an empty journal.
    pub(crate) fn new() -> Self {
        WriteAheadJournal::default()
    }

    /// Logs the start of a transaction, returning its id.
    pub(crate) fn begin(&self, ops: Arc<[LoggedOp]>) -> u64 {
        let txid = self.next_txid.fetch_add(1, Ordering::Relaxed);
        self.records.lock().push(JournalRecord::Begin { txid, ops });
        txid
    }

    /// Logs the commit of transaction `txid`.
    pub(crate) fn commit(&self, txid: u64) {
        self.records.lock().push(JournalRecord::Commit { txid });
    }

    /// Takes the `Begin` of transaction `txid` back out: the batch was
    /// refused, so nothing of it may be redone.
    pub(crate) fn abort(&self, txid: u64) {
        let mut records = self.records.lock();
        if let Some(at) = records
            .iter()
            .rposition(|r| matches!(r, JournalRecord::Begin { txid: t, .. } if *t == txid))
        {
            records.remove(at);
        }
    }

    /// Number of records currently in the journal.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Returns `true` if the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// A copy of every record, in append order.
    pub(crate) fn records(&self) -> Vec<JournalRecord> {
        self.records.lock().clone()
    }

    /// Transaction ids that have a `Begin` but no `Commit` record.
    pub(crate) fn uncommitted(&self) -> Vec<u64> {
        let records = self.records.lock();
        let committed: BTreeSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Commit { txid } => Some(*txid),
                _ => None,
            })
            .collect();
        records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Begin { txid, .. } if !committed.contains(txid) => Some(*txid),
                _ => None,
            })
            .collect()
    }

    /// Drops every record made durable by a checkpoint — committed
    /// transactions and their commits — keeping only `Begin` records still
    /// awaiting a commit. Returns the number of records dropped.
    pub(crate) fn truncate_committed(&self) -> usize {
        let mut records = self.records.lock();
        let committed: BTreeSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Commit { txid } => Some(*txid),
                _ => None,
            })
            .collect();
        let before = records.len();
        records.retain(|r| match r {
            JournalRecord::Begin { txid, .. } => !committed.contains(txid),
            _ => false,
        });
        before - records.len()
    }
}

/// A point-in-time snapshot of every node's rows and of the hinted
/// handoffs still queued for them, paired with the journal truncation that
/// made it the recovery baseline. Produced by
/// [`crate::replication::ReplicatedStore::checkpoint`] and consumed by
/// [`crate::replication::ReplicatedStore::recover`].
#[derive(Debug, Clone, Default)]
pub struct StoreCheckpoint {
    /// Per-node row snapshots, parallel to the store's node list.
    pub node_rows: Vec<Vec<(String, Row)>>,
    /// The hints queued when the checkpoint was taken, oldest first: ops a
    /// down node missed whose journal records the checkpoint truncated.
    pub(crate) hints: Vec<Hint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn put_op(row: &str, ts: u64) -> LoggedOp {
        JournalOp::Put {
            row_key: row.to_string(),
            column: "c".to_string(),
            value: json!(ts),
            timestamp: Timestamp::new(ts, 0),
        }
        .into()
    }

    #[test]
    fn transactions_track_commit_state() {
        let j = WriteAheadJournal::new();
        let t1 = j.begin([put_op("a", 1)].into());
        let t2 = j.begin([put_op("b", 2)].into());
        assert_ne!(t1, t2);
        j.commit(t1);
        assert_eq!(j.uncommitted(), vec![t2]);
        j.commit(t2);
        assert!(j.uncommitted().is_empty());
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn truncate_keeps_only_uncommitted_begins() {
        let j = WriteAheadJournal::new();
        let t0 = j.begin([put_op("a", 1)].into());
        j.commit(t0);
        let t1 = j.begin([put_op("b", 2)].into());
        j.commit(t1);
        let t2 = j.begin([put_op("c", 3)].into());
        let dropped = j.truncate_committed();
        assert_eq!(dropped, 4, "committed begins + their commits are dropped");
        assert_eq!(j.len(), 1);
        assert_eq!(j.uncommitted(), vec![t2]);
        assert!(matches!(
            j.records()[0],
            JournalRecord::Begin { txid, .. } if txid == t2
        ));
    }

    #[test]
    fn an_aborted_begin_leaves_no_record() {
        let j = WriteAheadJournal::new();
        let t1 = j.begin([put_op("a", 1)].into());
        let t2 = j.begin([put_op("b", 2)].into());
        j.abort(t1);
        assert_eq!(j.uncommitted(), vec![t2]);
        j.commit(t2);
        assert_eq!(j.len(), 2);
        assert_eq!(j.truncate_committed(), 2);
        assert!(j.is_empty());
    }

    #[test]
    fn empty_journal_is_empty() {
        let j = WriteAheadJournal::new();
        assert!(j.is_empty());
        assert_eq!(j.truncate_committed(), 0);
        assert!(j.uncommitted().is_empty());
    }
}
