//! The wide-row data model.
//!
//! Rows are addressed by a string row key (in Scalia:
//! `MD5(container | key)` for metadata, class hashes for statistics). Each
//! row holds named columns; each column holds one or more timestamped
//! versions (MVCC). This mirrors the Cassandra-style model sketched in the
//! paper's Figs. 6 and 10.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A logical timestamp attached to every written cell.
///
/// The paper requires engines to be time-synchronised (NTP) so the freshest
/// version wins on conflict; the reproduction uses the simulation time in
/// seconds, extended with a sequence number to break ties deterministically.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp {
    /// Simulated wall-clock seconds.
    pub secs: u64,
    /// Tie-breaking sequence number (e.g. engine id or write counter).
    pub seq: u64,
}

impl Timestamp {
    /// Creates a timestamp.
    pub const fn new(secs: u64, seq: u64) -> Self {
        Timestamp { secs, seq }
    }

    /// The zero timestamp.
    pub const ZERO: Timestamp = Timestamp { secs: 0, seq: 0 };
}

/// One version of a column value.
///
/// The value is a `serde_json::Value` tree, kept for as long as its version
/// is: in the column, and in the journal record that logged it. A tree
/// costs what it holds — each object's members sit in one exact-size
/// vector and derived field names are static strings — so the
/// `ObjectMeta` of a one-stripe 3-of-4 object is 19 allocations and
/// ≈ 2.1 KB of heap (≈ 600 B as JSON text), and a 16-stripe 4-of-5 one
/// 155 allocations and ≈ 17.6 KB (`Value::heap_bytes`, pinned by
/// `scalia-types`' `meta_footprint` tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// The stored value (JSON so heterogeneous metadata fits one model).
    pub value: Value,
    /// Write timestamp.
    pub timestamp: Timestamp,
}

impl Cell {
    /// Creates a cell.
    pub(crate) fn new(value: Value, timestamp: Timestamp) -> Self {
        Cell { value, timestamp }
    }
}

/// A column: a list of versions, kept sorted by ascending timestamp. A stored
/// version is immutable and **shared**: the journal record that logged it,
/// every replica's column and any snapshot hold the same allocation, so a
/// replicated write builds its value once.
pub(crate) type Column = Vec<Arc<Cell>>;

/// A row: named columns.
pub(crate) type Row = BTreeMap<String, Column>;

/// Inserts a cell into a column, keeping versions sorted by timestamp and
/// dropping an exact-duplicate timestamp write (last write wins for the same
/// timestamp). Returns `true` if the column gained a version, `false` if the
/// cell replaced the one already stored under its timestamp.
pub(crate) fn insert_version(column: &mut Column, cell: Arc<Cell>) -> bool {
    match column.binary_search_by(|c| c.timestamp.cmp(&cell.timestamp)) {
        Ok(pos) => {
            column[pos] = cell;
            false
        }
        Err(pos) => {
            column.insert(pos, cell);
            true
        }
    }
}

/// Returns the latest version of a column, if any.
pub(crate) fn latest(column: &Column) -> Option<&Arc<Cell>> {
    column.last()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn timestamps_order_by_secs_then_seq() {
        assert!(Timestamp::new(5, 0) > Timestamp::new(4, 99));
        assert!(Timestamp::new(5, 2) > Timestamp::new(5, 1));
        assert_eq!(Timestamp::new(3, 3), Timestamp::new(3, 3));
        assert_eq!(Timestamp::ZERO, Timestamp::new(0, 0));
    }

    #[test]
    fn insert_version_keeps_sorted_order() {
        // The freshest timestamp is the latest version whatever order the
        // versions arrive in, a stale write landing after it included.
        for order in [[2, 1, 3], [3, 1, 2], [1, 3, 2]] {
            let mut col = Column::new();
            for secs in order {
                insert_version(
                    &mut col,
                    Cell::new(json!(secs), Timestamp::new(secs, 0)).into(),
                );
            }
            let values: Vec<i64> = col.iter().map(|c| c.value.as_i64().unwrap()).collect();
            assert_eq!(values, vec![1, 2, 3], "order {order:?}");
            assert_eq!(latest(&col).unwrap().value, json!(3), "order {order:?}");
        }
    }

    #[test]
    fn same_timestamp_overwrites() {
        let mut col = Column::new();
        assert!(insert_version(
            &mut col,
            Cell::new(json!("a"), Timestamp::new(1, 0)).into()
        ));
        assert!(!insert_version(
            &mut col,
            Cell::new(json!("b"), Timestamp::new(1, 0)).into()
        ));
        assert_eq!(col.len(), 1);
        assert_eq!(col[0].value, json!("b"));
    }

    #[test]
    fn latest_of_empty_column_is_none() {
        assert!(latest(&Column::new()).is_none());
    }
}
