//! Map-reduce jobs over database rows.
//!
//! The paper refreshes per-class statistics and lifetime distributions
//! "periodically using map-reduce jobs in the database layer" (§III-A1).
//! This module provides a small map-reduce runner over a snapshot of the
//! rows of a [`NoSqlNode`] plus the concrete job that aggregates per-class
//! lifetime distributions. Jobs run on the calling thread, rows in key
//! order.

use crate::model::Row;
use crate::store::NoSqlNode;
use std::collections::BTreeMap;

/// Runs a map-reduce job over a snapshot of the node's rows.
///
/// `map` emits zero or more `(key, value)` pairs per row; `reduce` folds all
/// values of one key, in row order, into a single result.
pub fn map_reduce<K: Ord, V, R>(
    node: &NoSqlNode,
    map: impl Fn(&str, &Row) -> Vec<(K, V)>,
    reduce: impl Fn(&K, Vec<V>) -> R,
) -> BTreeMap<K, R> {
    let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (row_key, row) in node.snapshot() {
        for (k, v) in map(&row_key, &row) {
            grouped.entry(k).or_default().push(v);
        }
    }
    grouped
        .into_iter()
        .map(|(k, vs)| {
            let r = reduce(&k, vs);
            (k, r)
        })
        .collect()
}

/// Summary statistics of the lifetime distribution of one object class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLifetimeSummary {
    /// Number of lifetime samples.
    pub samples: usize,
    /// Mean lifetime in hours.
    pub mean_hours: f64,
    /// Maximum observed lifetime in hours.
    pub max_hours: f64,
}

/// A map-reduce job computing, for every class row, the summary of its
/// lifetime samples.
pub fn class_lifetime_summaries(node: &NoSqlNode) -> BTreeMap<String, ClassLifetimeSummary> {
    map_reduce(
        node,
        |row_key, row| {
            let Some(class_id) = row_key.strip_prefix("stats:class:") else {
                return Vec::new();
            };
            row.iter()
                .filter(|(col, _)| col.starts_with("lifetime:"))
                .filter_map(|(_, cells)| cells.last())
                .filter_map(|cell| cell.value.as_f64())
                .map(|hours| (class_id.to_string(), hours))
                .collect()
        },
        |_, hours| {
            let samples = hours.len();
            let sum: f64 = hours.iter().sum();
            let max = hours.iter().cloned().fold(0.0f64, f64::max);
            ClassLifetimeSummary {
                samples,
                mean_hours: if samples == 0 {
                    0.0
                } else {
                    sum / samples as f64
                },
                max_hours: max,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Timestamp;
    use scalia_types::ids::DatacenterId;
    use serde_json::json;

    #[test]
    fn generic_map_reduce_counts_columns() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        node.put("a", "x", json!(1), Timestamp::new(1, 0));
        node.put("a", "y", json!(1), Timestamp::new(1, 1));
        node.put("b", "x", json!(1), Timestamp::new(1, 2));
        let result = map_reduce(
            &node,
            |key, row| vec![(key.to_string(), row.len())],
            |_, counts| counts.into_iter().sum::<usize>(),
        );
        assert_eq!(result["a"], 2);
        assert_eq!(result["b"], 1);
    }

    #[test]
    fn map_can_emit_multiple_keys_per_row() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        node.put("row", "c1", json!(10), Timestamp::new(1, 0));
        node.put("row", "c2", json!(20), Timestamp::new(1, 1));
        let result = map_reduce(
            &node,
            |_, row| {
                row.iter()
                    .map(|(col, cells)| {
                        (col.clone(), cells.last().unwrap().value.as_i64().unwrap())
                    })
                    .collect::<Vec<_>>()
            },
            |_, values| values.into_iter().sum::<i64>(),
        );
        assert_eq!(result["c1"], 10);
        assert_eq!(result["c2"], 20);
    }

    #[test]
    fn class_lifetime_job_summarises_per_class() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        // Class A: lifetimes 2h, 4h. Class B: lifetime 6h.
        node.put(
            "stats:class:A",
            "lifetime:1:0",
            json!(2.0),
            Timestamp::new(1, 0),
        );
        node.put(
            "stats:class:A",
            "lifetime:2:0",
            json!(4.0),
            Timestamp::new(2, 0),
        );
        node.put(
            "stats:class:B",
            "lifetime:3:0",
            json!(6.0),
            Timestamp::new(3, 0),
        );
        // A non-class row is ignored.
        node.put(
            "stats:obj:xyz",
            "period:000000000001",
            json!({}),
            Timestamp::new(4, 0),
        );

        let summaries = class_lifetime_summaries(&node);
        assert_eq!(summaries.len(), 2);
        let a = &summaries["A"];
        assert_eq!(a.samples, 2);
        assert!((a.mean_hours - 3.0).abs() < 1e-12);
        assert!((a.max_hours - 4.0).abs() < 1e-12);
        let b = &summaries["B"];
        assert_eq!(b.samples, 1);
        assert!((b.mean_hours - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_node_yields_empty_result() {
        let node = NoSqlNode::new(DatacenterId::new(0));
        let result: BTreeMap<String, usize> = map_reduce(
            &node,
            |key, _| vec![(key.to_string(), 1usize)],
            |_, v| v.len(),
        );
        assert!(result.is_empty());
        assert!(class_lifetime_summaries(&node).is_empty());
    }
}
