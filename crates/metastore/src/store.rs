//! A single NoSQL database node.
//!
//! One node lives in each datacenter. It stores wide rows with versioned
//! cells and supports prefix and range scans (for the statistics tables,
//! whose dirty-set index answers the optimiser's "which objects were
//! accessed or modified since the last procedure?", §III-A3: one row per
//! hour bucket, `stats:dirty:{bucket:012}`, with one column per object
//! touched in that hour, so the fetch is a range scan over the buckets
//! since the last run).
//!
//! # Row index
//!
//! Rows live in a hash map: every client op reads or commits rows by key
//! (an object's row key is an MD5, §III-D1), so a point access costs one
//! hash probe. Nothing observes the map's order. The few reads that return
//! or visit several rows — prefix and range scans, snapshots, the
//! anti-entropy merge-join — run once per tick, not once per op: they
//! filter every row and sort the matches, and return them in key order.
//! Per-op reads of a wide row — LIST's container row, the class mean's
//! class row — read the latest cell of each column only, in column order,
//! and clone no version list.
//!
//! # Content digest
//!
//! Every row carries a header next to its columns: its **row digest** —
//! the XOR of `cell_hash(row_key, column, timestamp)` over the cell
//! versions the row stores. The node keeps the XOR of all row digests as its
//! **node digest**. Both are updated under the same write lock as the
//! mutation that changes the version set, in time proportional to the
//! versions added or removed, so replicas can compare what they hold
//! (`ReplicatedStore::anti_entropy`) without reading a single cell. An
//! empty row has digest 0, the same as a missing one.

use crate::journal::{LoggedOp, OpKind};
use crate::model::{insert_version, latest, Cell, Row, Timestamp};
use parking_lot::RwLock;
use scalia_types::ids::DatacenterId;
use std::collections::HashMap;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Deterministic 64-bit hash of one cell version's identity: FNV-1a over
/// the row key and column (each closed by `0xff`, a byte UTF-8 never
/// contains, so `("ab", "c")` and `("a", "bc")` differ) and the timestamp
/// words, then a splitmix64 finaliser so the XOR of many hashes does not
/// inherit FNV's weak high bits. The value is **not** hashed: a timestamp
/// names one write (see the `replication` module docs).
fn cell_hash(row_key: &str, column: &str, timestamp: Timestamp) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [row_key, column] {
        for byte in part.bytes().chain([0xff]) {
            hash = (hash ^ byte as u64).wrapping_mul(PRIME);
        }
    }
    for word in [timestamp.secs, timestamp.seq] {
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// XOR of [`cell_hash`] over `cells` of one column.
fn column_hash(row_key: &str, column: &str, cells: &[Arc<Cell>]) -> u64 {
    cells
        .iter()
        .fold(0, |acc, c| acc ^ cell_hash(row_key, column, c.timestamp))
}

/// XOR of [`cell_hash`] over every cell version of a row.
fn row_hash(row_key: &str, columns: &Row) -> u64 {
    columns.iter().fold(0, |acc, (column, cells)| {
        acc ^ column_hash(row_key, column, cells)
    })
}

/// A row as the node stores it: the columns plus the header described in
/// the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
struct StoredRow {
    columns: Row,
    /// XOR of [`cell_hash`] over every stored cell version.
    digest: u64,
}

impl StoredRow {
    /// Builds the header of a restored row from its cells.
    fn from_columns(row_key: &str, columns: Row) -> Self {
        let digest = row_hash(row_key, &columns);
        StoredRow { columns, digest }
    }

    /// Stores one cell version, allocating the column name only when the
    /// column is new. Returns the cell's hash — the change to the row
    /// digest — for a new version, `None` for a same-timestamp overwrite
    /// (which leaves the version set, and so the digest, as it was).
    fn insert(&mut self, row_key: &str, column: &str, cell: Arc<Cell>) -> Option<u64> {
        let timestamp = cell.timestamp;
        let is_new = match self.columns.get_mut(column) {
            Some(cells) => insert_version(cells, cell),
            None => {
                self.columns.insert(column.to_string(), vec![cell]);
                true
            }
        };
        is_new.then(|| {
            let delta = cell_hash(row_key, column, timestamp);
            self.digest ^= delta;
            delta
        })
    }

    /// Drops a column. Returns the change to the row digest, `None` if the
    /// row had no such column.
    fn delete_column(&mut self, row_key: &str, column: &str) -> Option<u64> {
        let cells = self.columns.remove(column)?;
        let delta = column_hash(row_key, column, &cells);
        self.digest ^= delta;
        Some(delta)
    }

    /// Drops every version of a column but its latest. Returns the removed
    /// cells, oldest first, and the change to the row digest.
    fn prune(&mut self, row_key: &str, column: &str) -> (Vec<Arc<Cell>>, u64) {
        let Some(cells) = self.columns.get_mut(column).filter(|c| c.len() > 1) else {
            return (Vec::new(), 0);
        };
        let keep = cells.pop().expect("more than one version");
        let removed = std::mem::replace(cells, vec![keep]);
        let delta = column_hash(row_key, column, &removed);
        self.digest ^= delta;
        (removed, delta)
    }
}

/// Everything behind the node's one lock.
#[derive(Debug, Clone, Default, PartialEq)]
struct Table {
    rows: HashMap<String, StoredRow>,
    /// XOR of every row's digest.
    digest: u64,
}

impl Table {
    /// Stores one cell version, allocating the row key only when the row is
    /// new, and returns whether the version is new to the row.
    fn insert(&mut self, row_key: &str, column: &str, cell: Arc<Cell>) -> bool {
        let delta = match self.rows.get_mut(row_key) {
            Some(row) => row.insert(row_key, column, cell),
            None => {
                let mut row = StoredRow::default();
                let delta = row.insert(row_key, column, cell);
                self.rows.insert(row_key.to_string(), row);
                delta
            }
        };
        self.digest ^= delta.unwrap_or(0);
        delta.is_some()
    }

    /// Deletes a whole row. Returns `true` if it existed.
    fn delete_row(&mut self, row_key: &str) -> bool {
        let Some(row) = self.rows.remove(row_key) else {
            return false;
        };
        self.digest ^= row.digest;
        true
    }

    /// Drops a column. Returns `true` if the row had it.
    fn delete_column(&mut self, row_key: &str, column: &str) -> bool {
        let delta = self
            .rows
            .get_mut(row_key)
            .and_then(|row| row.delete_column(row_key, column));
        self.digest ^= delta.unwrap_or(0);
        delta.is_some()
    }

    /// Drops every version of a column but its latest. Returns the removed
    /// cells, oldest first.
    fn prune(&mut self, row_key: &str, column: &str) -> Vec<Arc<Cell>> {
        let Some(row) = self.rows.get_mut(row_key) else {
            return Vec::new();
        };
        let (removed, delta) = row.prune(row_key, column);
        self.digest ^= delta;
        removed
    }

    /// Applies `ops` in order, one row lookup each. Returns the cells the
    /// `Prune`s removed.
    fn apply(&mut self, ops: &[LoggedOp]) -> Vec<Arc<Cell>> {
        let mut removed = Vec::new();
        for op in ops {
            let row_key = op.row_key.as_str();
            match &op.kind {
                OpKind::Put { column, cell } => {
                    self.insert(row_key, column, Arc::clone(cell));
                }
                OpKind::DeleteColumn { column } => {
                    self.delete_column(row_key, column);
                }
                OpKind::Prune { column } => removed.extend(self.prune(row_key, column)),
                OpKind::DeleteRow => {
                    self.delete_row(row_key);
                }
            }
        }
        removed
    }

    /// The rows whose key lies in `range`, sorted by key: the one ordered
    /// read of the row map. O(rows) to filter plus a sort of the matches.
    fn sorted_rows(&self, range: impl RangeBounds<str>) -> Vec<(&str, &StoredRow)> {
        let mut rows: Vec<_> = self
            .rows
            .iter()
            .map(|(key, row)| (key.as_str(), row))
            .filter(|(key, _)| range.contains(*key))
            .collect();
        rows.sort_unstable_by_key(|&(key, _)| key);
        rows
    }
}

/// One database node (one per datacenter).
pub struct NoSqlNode {
    datacenter: DatacenterId,
    table: RwLock<Table>,
    /// Reachability flag. It guards no other data — every access to the
    /// table goes through its lock — so `Relaxed` suffices.
    up: AtomicBool,
}

impl NoSqlNode {
    /// Creates an empty node for the given datacenter.
    pub(crate) fn new(datacenter: DatacenterId) -> Self {
        NoSqlNode {
            datacenter,
            table: RwLock::new(Table::default()),
            up: AtomicBool::new(true),
        }
    }

    /// Creates a node wrapped in an [`Arc`].
    pub(crate) fn shared(datacenter: DatacenterId) -> Arc<Self> {
        Arc::new(Self::new(datacenter))
    }

    /// The datacenter this node belongs to.
    pub fn datacenter(&self) -> DatacenterId {
        self.datacenter
    }

    /// Returns `true` if the node is reachable.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// Takes the node down / brings it back (datacenter failure simulation).
    pub fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::Relaxed);
    }

    /// Applies a batch of ops in order under one write-lock acquisition —
    /// a put commit's five ops cost one lock, not five — and one hash probe
    /// of the row map per op. Returns `None` — nothing applied — if the node
    /// is down, otherwise the cells the batch's `Prune`s removed, in op
    /// order.
    pub(crate) fn apply_batch(&self, ops: &[LoggedOp]) -> Option<Vec<Arc<Cell>>> {
        self.is_up().then(|| self.table.write().apply(ops))
    }

    /// Merges every cell version of `row` into this node's copy of
    /// `row_key` under one write lock — the same effect as one `Put` op per
    /// cell. Returns the number of versions the node did not hold (0 if
    /// it is down).
    pub(crate) fn merge_row(&self, row_key: &str, row: &Row) -> usize {
        if !self.is_up() {
            return 0;
        }
        let mut table = self.table.write();
        let mut copied = 0;
        for (column, cells) in row {
            for cell in cells {
                copied += usize::from(table.insert(row_key, column, Arc::clone(cell)));
            }
        }
        copied
    }

    /// Latest version of a column, if present (and the node is up).
    pub fn get_latest(&self, row_key: &str, column: &str) -> Option<Cell> {
        self.with_latest(row_key, column, Cell::clone)
    }

    /// Applies `read` to the latest cell of a column **without cloning it**
    /// — the zero-copy variant of [`Self::get_latest`] for hot point reads
    /// (the optimiser decodes one digest per accessed object per cycle).
    pub(crate) fn with_latest<T>(
        &self,
        row_key: &str,
        column: &str,
        read: impl FnOnce(&Cell) -> T,
    ) -> Option<T> {
        if !self.is_up() {
            return None;
        }
        self.table
            .read()
            .rows
            .get(row_key)
            .and_then(|row| row.columns.get(column))
            .and_then(latest)
            .map(|cell| read(cell))
    }

    /// All versions of a column, oldest first.
    pub fn get_versions(&self, row_key: &str, column: &str) -> Vec<Arc<Cell>> {
        if !self.is_up() {
            return Vec::new();
        }
        self.table
            .read()
            .rows
            .get(row_key)
            .and_then(|row| row.columns.get(column))
            .cloned()
            .unwrap_or_default()
    }

    /// The full row (all columns, all versions), if present.
    pub fn get_row(&self, row_key: &str) -> Option<Row> {
        if !self.is_up() {
            return None;
        }
        self.table
            .read()
            .rows
            .get(row_key)
            .map(|row| row.columns.clone())
    }

    /// The latest cell of every column of `row_key` whose name starts with
    /// `prefix`, in column order. Wide rows mixing several column families
    /// (class rows: lifetime samples, usage samples, per-period rollups)
    /// can be read one family at a time without cloning the whole row.
    pub fn latest_cells_with_prefix(
        &self,
        row_key: &str,
        prefix: &str,
    ) -> Vec<(String, Arc<Cell>)> {
        let mut cells = Vec::new();
        self.visit_latest_with_prefix(row_key, prefix, |column, cell| {
            cells.push((column.to_string(), Arc::clone(cell)));
        });
        cells
    }

    /// Visits the latest cell of every column of `row_key` whose name
    /// starts with `prefix`, in column order, without cloning, and returns
    /// the row's digest (0 for a missing row) read under the same read
    /// lock: the digest names exactly the version set the visit saw.
    /// `None`, and no visit, while the node is down.
    pub(crate) fn visit_latest_with_prefix(
        &self,
        row_key: &str,
        prefix: &str,
        mut visit: impl FnMut(&str, &Arc<Cell>),
    ) -> Option<u64> {
        if !self.is_up() {
            return None;
        }
        let table = self.table.read();
        let Some(row) = table.rows.get(row_key) else {
            return Some(0);
        };
        let columns = row
            .columns
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(column, _)| column.starts_with(prefix));
        for (column, cells) in columns {
            if let Some(cell) = latest(cells) {
                visit(column, cell);
            }
        }
        Some(row.digest)
    }

    /// The digest of `row_key` (see the module docs; 0 for a missing row),
    /// or `None` while the node is down. One hash probe.
    pub(crate) fn row_digest(&self, row_key: &str) -> Option<u64> {
        self.is_up().then(|| {
            self.table
                .read()
                .rows
                .get(row_key)
                .map_or(0, |row| row.digest)
        })
    }

    /// Row keys starting with `prefix`, in key order. O(rows) plus a sort
    /// of the matches.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<String> {
        if !self.is_up() {
            return Vec::new();
        }
        let mut keys: Vec<String> = self
            .table
            .read()
            .rows
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Visits the latest cell of every column of every row with
    /// `start <= key < end`, in key order, **without cloning** rows or
    /// cells (the optimiser's dirty-set fetch visits one cell per touched
    /// object per cycle; cloning whole rows there would cost more than the
    /// rest of the fetch combined). O(rows) plus a sort of the rows in the
    /// range: the row map hashes, so the once-per-cycle range read pays
    /// for the once-per-op point lookups.
    pub(crate) fn visit_range_latest(
        &self,
        start: &str,
        end: &str,
        mut visit: impl FnMut(&str, &str, &Cell),
    ) {
        if !self.is_up() {
            return;
        }
        let table = self.table.read();
        for (row_key, row) in table.sorted_rows((Bound::Included(start), Bound::Excluded(end))) {
            for (column, cells) in &row.columns {
                if let Some(cell) = latest(cells) {
                    visit(row_key, column, cell);
                }
            }
        }
    }

    /// Row keys with `start <= key < end`, in key order. O(rows) plus a
    /// sort of the matches.
    pub(crate) fn range_keys(&self, start: &str, end: &str) -> Vec<String> {
        if !self.is_up() {
            return Vec::new();
        }
        self.table
            .read()
            .sorted_rows((Bound::Included(start), Bound::Excluded(end)))
            .into_iter()
            .map(|(key, _)| key.to_string())
            .collect()
    }

    /// All rows, cloned, in key order, as a reader sees them: nothing while
    /// the node is down.
    pub fn snapshot(&self) -> Vec<(String, Row)> {
        if !self.is_up() {
            return Vec::new();
        }
        self.durable_rows()
    }

    /// All rows, cloned, in key order, whether or not the node is reachable
    /// — what a checkpoint saves: an outage hides a node's rows, it does not
    /// erase them.
    pub(crate) fn durable_rows(&self) -> Vec<(String, Row)> {
        self.table
            .read()
            .sorted_rows(..)
            .into_iter()
            .map(|(key, row)| (key.to_string(), row.columns.clone()))
            .collect()
    }

    /// Number of rows stored.
    pub fn row_count(&self) -> usize {
        self.table.read().rows.len()
    }

    /// The node's content digest (see the module docs), maintained
    /// incrementally. Readable while the node is down: the digest describes
    /// what the node holds, not whether it answers.
    pub fn digest(&self) -> u64 {
        self.table.read().digest
    }

    /// The content digest recomputed from every stored cell — what
    /// [`Self::digest`] must equal at all times. O(cells): a test and debug
    /// helper, not a read path.
    pub fn recomputed_digest(&self) -> u64 {
        let table = self.table.read();
        table.rows.iter().fold(0, |acc, (row_key, row)| {
            acc ^ row_hash(row_key, &row.columns)
        })
    }

    /// Merge-joins the key-sorted `(row_key, row_digest)` sequences of
    /// `nodes` under their read locks, without cloning any row. Returns the
    /// number of distinct row keys seen and, in key order, the keys whose
    /// digest is not the same on every node (a node without the row counts
    /// as digest 0).
    pub(crate) fn divergent_rows(nodes: &[&NoSqlNode]) -> (usize, Vec<String>) {
        let tables: Vec<_> = nodes.iter().map(|n| n.table.read()).collect();
        let mut cursors: Vec<_> = tables
            .iter()
            .map(|t| t.sorted_rows(..).into_iter().peekable())
            .collect();
        let mut compared = 0;
        let mut divergent = Vec::new();
        while let Some(key) = cursors
            .iter_mut()
            .filter_map(|c| c.peek().map(|&(key, _)| key))
            .min()
        {
            compared += 1;
            let mut digests = cursors.iter_mut().map(|c| {
                c.next_if(|&(k, _)| k == key)
                    .map_or(0, |(_, row)| row.digest)
            });
            let first = digests.next().unwrap_or(0);
            // `fold`, not `any`: every cursor standing on `key` must advance.
            if digests.fold(false, |differs, d| differs | (d != first)) {
                divergent.push(key.to_string());
            }
        }
        (compared, divergent)
    }

    /// Replaces the node's entire contents with a checkpoint snapshot,
    /// rebuilding every row digest and the node
    /// digest from the snapshot's cells. Crash recovery restores the
    /// checkpoint first and then replays the write-ahead journal on top
    /// (see `ReplicatedStore::recover`); unlike normal mutations this works
    /// even while the node is marked down, because recovery is what brings
    /// it back.
    pub(crate) fn restore(&self, rows: Vec<(String, Row)>) {
        let mut table = Table::default();
        for (row_key, columns) in rows {
            let row = StoredRow::from_columns(&row_key, columns);
            table.digest ^= row.digest;
            // A key listed twice: the later entry wins.
            if let Some(replaced) = table.rows.insert(row_key, row) {
                table.digest ^= replaced.digest;
            }
        }
        *self.table.write() = table;
    }

    /// An independent copy of the node: same rows, headers and reachability.
    #[cfg(test)]
    pub(crate) fn deep_clone(&self) -> NoSqlNode {
        NoSqlNode {
            datacenter: self.datacenter,
            table: RwLock::new(self.table.read().clone()),
            up: AtomicBool::new(self.is_up()),
        }
    }

    /// Panics unless `other` holds exactly the same rows, row headers and
    /// node digest.
    #[cfg(test)]
    pub(crate) fn assert_same_state(&self, other: &NoSqlNode, context: &str) {
        assert_eq!(*self.table.read(), *other.table.read(), "{context}");
    }

    /// Panics unless every row digest and the node digest equal their
    /// recomputation from the stored cells.
    #[cfg(test)]
    pub(crate) fn assert_digests_consistent(&self, context: &str) {
        let table = self.table.read();
        for (row_key, row) in &table.rows {
            assert_eq!(
                row.digest,
                row_hash(row_key, &row.columns),
                "{context}: digest of row {row_key}"
            );
        }
        drop(table);
        assert_eq!(self.digest(), self.recomputed_digest(), "{context}: node");
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Single-op mutations applied straight to the table: the driver the
    /// metastore's tests use (shipping code mutates through
    /// [`NoSqlNode::apply_batch`]).
    impl NoSqlNode {
        /// Writes a versioned cell. Returns `false` (and stores nothing) if the
        /// node is down.
        pub(crate) fn put(
            &self,
            row_key: &str,
            column: &str,
            value: Value,
            timestamp: Timestamp,
        ) -> bool {
            if !self.is_up() {
                return false;
            }
            self.table
                .write()
                .insert(row_key, column, Arc::new(Cell::new(value, timestamp)));
            true
        }

        /// Removes every version of a column older than the latest one,
        /// returning the removed cells (the engine deletes their chunks).
        pub(crate) fn prune_old_versions(&self, row_key: &str, column: &str) -> Vec<Arc<Cell>> {
            if !self.is_up() {
                return Vec::new();
            }
            self.table.write().prune(row_key, column)
        }

        /// Deletes a whole row. Returns `true` if it existed.
        pub(crate) fn delete_row(&self, row_key: &str) -> bool {
            self.is_up() && self.table.write().delete_row(row_key)
        }

        /// Deletes a single column of a row.
        pub(crate) fn delete_column(&self, row_key: &str, column: &str) -> bool {
            self.is_up() && self.table.write().delete_column(row_key, column)
        }
    }
    use serde_json::json;

    fn node() -> NoSqlNode {
        NoSqlNode::new(DatacenterId::new(0))
    }

    #[test]
    fn put_get_roundtrip() {
        let n = node();
        assert!(n.put(
            "row1",
            "file_meta",
            json!({"size": 42}),
            Timestamp::new(1, 0)
        ));
        let cell = n.get_latest("row1", "file_meta").unwrap();
        assert_eq!(cell.value["size"], 42);
        assert!(n.get_latest("row1", "missing").is_none());
        assert!(n.get_latest("missing", "file_meta").is_none());
        assert_eq!(n.row_count(), 1);
    }

    #[test]
    fn versions_accumulate_and_latest_wins() {
        let n = node();
        n.put("r", "c", json!("v1"), Timestamp::new(1, 0));
        n.put("r", "c", json!("v2"), Timestamp::new(2, 0));
        n.put("r", "c", json!("v0"), Timestamp::new(0, 5));
        assert_eq!(n.get_versions("r", "c").len(), 3);
        assert_eq!(n.get_latest("r", "c").unwrap().value, json!("v2"));
    }

    #[test]
    fn prune_old_versions_returns_removed() {
        let n = node();
        n.put("r", "c", json!("old"), Timestamp::new(1, 0));
        n.put("r", "c", json!("mid"), Timestamp::new(2, 0));
        n.put("r", "c", json!("new"), Timestamp::new(3, 0));
        let removed = n.prune_old_versions("r", "c");
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].value, json!("old"));
        assert_eq!(n.get_versions("r", "c").len(), 1);
        assert_eq!(n.get_latest("r", "c").unwrap().value, json!("new"));
        // Pruning again is a no-op.
        assert!(n.prune_old_versions("r", "c").is_empty());
        assert!(n.prune_old_versions("missing", "c").is_empty());
    }

    #[test]
    fn delete_row_and_column() {
        let n = node();
        n.put("r", "a", json!(1), Timestamp::new(1, 0));
        n.put("r", "b", json!(2), Timestamp::new(1, 1));
        assert!(n.delete_column("r", "a"));
        assert!(!n.delete_column("r", "a"));
        assert!(n.get_latest("r", "b").is_some());
        assert!(n.delete_row("r"));
        assert!(!n.delete_row("r"));
        assert_eq!(n.row_count(), 0);
    }

    #[test]
    fn scan_prefix_and_snapshot() {
        let n = node();
        n.put("stats:class1", "ops", json!(5), Timestamp::new(1, 0));
        n.put("stats:class2", "ops", json!(9), Timestamp::new(1, 1));
        n.put("meta:obj1", "file_meta", json!({}), Timestamp::new(1, 2));
        assert_eq!(n.scan_prefix("stats:").len(), 2);
        assert_eq!(n.scan_prefix("meta:").len(), 1);
        assert_eq!(n.scan_prefix("zzz").len(), 0);
        assert_eq!(n.snapshot().len(), 3);
    }

    #[test]
    fn restore_replaces_contents() {
        let n = node();
        n.put("old", "c", json!(1), Timestamp::new(5, 0));
        let other = node();
        other.put("a", "c", json!(10), Timestamp::new(10, 0));
        other.put("a", "d", json!(11), Timestamp::new(12, 0));
        other.put("b", "c", json!(20), Timestamp::new(20, 0));
        n.restore(other.snapshot());
        assert!(n.get_latest("old", "c").is_none(), "old contents replaced");
        assert_eq!(n.get_latest("a", "d").unwrap().value, json!(11));
        assert_eq!(n.row_count(), 2);
        // Restore works on a down node (recovery brings it back by hand).
        n.set_up(false);
        n.restore(Vec::new());
        n.set_up(true);
        assert_eq!(n.row_count(), 0);
    }

    #[test]
    fn digest_follows_every_mutation_and_ignores_same_timestamp_overwrites() {
        let n = node();
        assert_eq!(n.digest(), 0, "an empty node has digest 0");
        n.put("r", "a", json!(1), Timestamp::new(1, 0));
        n.assert_digests_consistent("first put");
        let one_cell = n.digest();
        assert_ne!(one_cell, 0);

        // Same timestamp: the value changes, the version set does not.
        n.put("r", "a", json!("overwritten"), Timestamp::new(1, 0));
        assert_eq!(n.digest(), one_cell);
        n.assert_digests_consistent("same-timestamp overwrite");

        // New versions (one out of order), a second column, a second row.
        n.put("r", "a", json!(3), Timestamp::new(3, 0));
        n.put("r", "a", json!(2), Timestamp::new(2, 0));
        n.put("r", "b", json!(4), Timestamp::new(4, 0));
        n.put("s", "a", json!(5), Timestamp::new(5, 0));
        n.assert_digests_consistent("puts");

        assert_eq!(n.prune_old_versions("r", "a").len(), 2);
        n.assert_digests_consistent("prune");
        assert!(n.delete_column("r", "b"));
        n.assert_digests_consistent("delete_column");
        assert!(n.delete_row("s"));
        n.assert_digests_consistent("delete_row");

        // One cell left: ("r", "a", 3). Dropping it leaves an empty row,
        // which digests like a missing one.
        assert!(n.delete_column("r", "a"));
        assert_eq!(n.row_count(), 1);
        assert_eq!(n.digest(), 0);
        n.assert_digests_consistent("emptied row");
    }

    #[test]
    fn digest_depends_on_the_version_set_not_on_write_order_or_values() {
        let writes = [
            ("r", "a", Timestamp::new(1, 0)),
            ("r", "a", Timestamp::new(2, 0)),
            ("r", "b", Timestamp::new(1, 0)),
            ("s", "a", Timestamp::new(1, 0)),
        ];
        let forward = node();
        let backward = node();
        for (row, column, ts) in writes {
            forward.put(row, column, json!("x"), ts);
        }
        for (row, column, ts) in writes.into_iter().rev() {
            backward.put(row, column, json!("y"), ts);
        }
        assert_eq!(forward.digest(), backward.digest());

        // Moving a timestamp between columns, rows or key boundaries is a
        // different version set.
        let mut seen = vec![forward.digest()];
        for (row, column, ts) in [
            ("r", "a", Timestamp::new(3, 0)),
            ("r", "a", Timestamp::new(0, 3)),
            ("r", "c", Timestamp::new(1, 0)),
            ("ra", "", Timestamp::new(1, 0)),
            ("", "ra", Timestamp::new(1, 0)),
        ] {
            let other = forward.deep_clone();
            other.put(row, column, json!("x"), ts);
            assert!(!seen.contains(&other.digest()), "{row}/{column}/{ts:?}");
            seen.push(other.digest());
        }
    }

    #[test]
    fn restore_rebuilds_digests_and_clone_compares_equal() {
        let n = node();
        n.put("a", "c", json!(10), Timestamp::new(10, 0));
        n.put("a", "c", json!(11), Timestamp::new(11, 0));
        n.put("b", "c", json!(20), Timestamp::new(20, 0));
        let restored = node();
        restored.put("stale", "c", json!(0), Timestamp::new(1, 0));
        restored.restore(n.snapshot());
        restored.assert_digests_consistent("restore");
        restored.assert_same_state(&n, "restore of a snapshot");
        n.deep_clone().assert_same_state(&n, "deep clone");
        // A key listed twice: the later entry wins, digest included.
        let mut twice = n.snapshot();
        twice.push(("a".to_string(), Row::new()));
        restored.restore(twice);
        restored.assert_digests_consistent("duplicate key");
        assert!(restored.get_latest("a", "c").is_none());
    }

    #[test]
    fn divergent_rows_merge_joins_row_digests() {
        let a = node();
        let b = node();
        let c = node();
        for n in [&a, &b, &c] {
            n.put("same", "c", json!(1), Timestamp::new(1, 0));
            n.put("zz-same", "c", json!(1), Timestamp::new(2, 0));
        }
        a.put("only-a", "c", json!(1), Timestamp::new(3, 0));
        c.put("only-c", "c", json!(1), Timestamp::new(4, 0));
        b.put(
            "same-key-other-versions",
            "c",
            json!(1),
            Timestamp::new(5, 0),
        );
        c.put(
            "same-key-other-versions",
            "c",
            json!(1),
            Timestamp::new(6, 0),
        );
        // An emptied row digests like a missing one.
        b.put("emptied", "c", json!(1), Timestamp::new(7, 0));
        b.delete_column("emptied", "c");

        let (compared, divergent) = NoSqlNode::divergent_rows(&[&a, &b, &c]);
        assert_eq!(compared, 6);
        assert_eq!(
            divergent,
            vec!["only-a", "only-c", "same-key-other-versions"]
        );
        assert_eq!(NoSqlNode::divergent_rows(&[&a]), (3, Vec::new()));
        assert_eq!(NoSqlNode::divergent_rows(&[]), (0, Vec::new()));
    }

    #[test]
    fn merge_row_counts_only_the_versions_the_node_lacked() {
        let source = node();
        source.put("r", "a", json!(1), Timestamp::new(1, 0));
        source.put("r", "a", json!(2), Timestamp::new(2, 0));
        source.put("r", "b", json!(3), Timestamp::new(3, 0));
        let target = node();
        target.put("r", "a", json!(1), Timestamp::new(1, 0));
        let row = source.get_row("r").unwrap();
        assert_eq!(target.merge_row("r", &row), 2);
        assert_eq!(target.merge_row("r", &row), 0);
        target.assert_same_state(&source, "merged");
        target.set_up(false);
        assert_eq!(target.merge_row("r2", &row), 0);
    }

    /// A row key from one of the families the store holds — dirty-set
    /// buckets, class rows, container rows, object rows (32 hex digits) —
    /// drawn from a space small enough that keys repeat and share prefixes.
    fn family_key(below: &mut impl FnMut(u64) -> u64) -> String {
        match below(4) {
            0 => format!("stats:dirty:{:012}", below(12)),
            1 => format!("stats:class:{}", below(6)),
            2 => format!("container:{}", below(6)),
            _ => format!("{:x}{:031x}", below(16), below(3)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Every read that returns or visits several rows does so in key
        /// order, whatever order the rows were written in: each equals the
        /// same read over a `BTreeMap` model of the same cells.
        #[test]
        fn ordered_reads_match_a_sorted_model(
            seed in proptest::any::<u64>(),
            len in 1usize..64,
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            let mut rng = proptest::TestRng::deterministic(&format!("ordered-{seed}"));
            let mut below = move |n: u64| rng.next_u64() % n;
            // Each write goes to node 0, node 1 or (2) both, so they diverge.
            let writes: Vec<_> = (0..len as u64)
                .map(|secs| {
                    let row = family_key(&mut below);
                    (row, format!("col-{}", below(3)), Timestamp::new(secs, 0), below(3))
                })
                .collect();
            let nodes = [node(), node()];
            let mut models: [BTreeMap<String, Row>; 2] = Default::default();
            for (n, (node, model)) in nodes.iter().zip(&mut models).enumerate() {
                // Each node sees the writes in an order of its own.
                let mut order: Vec<usize> = (0..writes.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, below(i as u64 + 1) as usize);
                }
                for (row, column, timestamp, to) in order.into_iter().map(|i| &writes[i]) {
                    if *to == n as u64 || *to == 2 {
                        node.put(row, column, json!(timestamp.secs), *timestamp);
                        let cell = Arc::new(Cell::new(json!(timestamp.secs), *timestamp));
                        let columns = model.entry(row.clone()).or_default();
                        insert_version(columns.entry(column.clone()).or_default(), cell);
                    }
                }
            }

            // Ascending, so every `start <= end` below.
            let bounds = [
                "", "0", "8", "container:", "container:3", "stats:", "stats:class:",
                "stats:class:4", "stats:dirty:", "stats:dirty:000000000002", "stats:dirty;", "z",
            ];
            for (node, model) in nodes.iter().zip(&models) {
                let rows: Vec<(String, Row)> =
                    model.iter().map(|(k, row)| (k.clone(), row.clone())).collect();
                assert_eq!(node.snapshot(), rows, "seed {seed}: snapshot");
                assert_eq!(node.durable_rows(), rows, "seed {seed}: durable_rows");
                for prefix in bounds {
                    let expected: Vec<String> =
                        model.keys().filter(|k| k.starts_with(prefix)).cloned().collect();
                    assert_eq!(node.scan_prefix(prefix), expected, "seed {seed}: {prefix:?}");
                }
                for (i, start) in bounds.iter().enumerate() {
                    for end in &bounds[i..] {
                        let range = (Bound::Included(*start), Bound::Excluded(*end));
                        let in_range = || model.range::<str, _>(range);
                        let keys: Vec<String> = in_range().map(|(k, _)| k.clone()).collect();
                        assert_eq!(node.range_keys(start, end), keys, "seed {seed}: {range:?}");
                        let cells: Vec<(String, String, Timestamp)> = in_range()
                            .flat_map(|(row, columns)| {
                                columns.iter().filter_map(move |(column, cells)| {
                                    latest(cells).map(|c| (row.clone(), column.clone(), c.timestamp))
                                })
                            })
                            .collect();
                        let mut visited = Vec::new();
                        node.visit_range_latest(start, end, |row, column, cell| {
                            visited.push((row.to_string(), column.to_string(), cell.timestamp));
                        });
                        assert_eq!(visited, cells, "seed {seed}: visit {range:?}");
                    }
                }
            }

            let keys: BTreeSet<&String> = models.iter().flat_map(|m| m.keys()).collect();
            let digest = |model: &BTreeMap<String, Row>, key: &str| {
                model.get(key).map_or(0, |row| row_hash(key, row))
            };
            let divergent: Vec<String> = keys
                .iter()
                .filter(|k| digest(&models[0], k) != digest(&models[1], k))
                .map(|k| k.to_string())
                .collect();
            assert_eq!(
                NoSqlNode::divergent_rows(&[&nodes[0], &nodes[1]]),
                (keys.len(), divergent),
                "seed {seed}: divergent_rows"
            );
        }
    }

    #[test]
    fn down_node_rejects_everything() {
        let n = node();
        n.put("r", "c", json!(1), Timestamp::new(1, 0));
        n.set_up(false);
        assert!(!n.is_up());
        assert!(!n.put("r", "c", json!(2), Timestamp::new(2, 0)));
        assert!(n.get_latest("r", "c").is_none());
        assert!(n.scan_prefix("").is_empty());
        n.set_up(true);
        assert_eq!(n.get_latest("r", "c").unwrap().value, json!(1));
    }
}
