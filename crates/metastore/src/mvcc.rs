//! Multi-version concurrency control.
//!
//! Scalia does not lock: concurrent updates of the same entry produce
//! multiple versions (Fig. 10). When a conflict is detected, the freshest
//! version (by timestamp) is kept, and the deprecated versions must be
//! removed both from the database and from the storage providers (their
//! chunks are garbage). This module implements that resolution policy.

use crate::model::{Cell, Column};

/// The outcome of resolving the versions of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolution {
    /// The surviving (freshest) version, if the column had any version.
    pub winner: Option<Cell>,
    /// The deprecated versions that must be cleaned up.
    pub deprecated: Vec<Cell>,
    /// Whether a conflict (more than one version) was detected.
    pub had_conflict: bool,
}

/// Resolves a column's versions: the freshest timestamp wins, everything
/// else is deprecated.
pub fn resolve_latest(column: &Column) -> Resolution {
    if column.is_empty() {
        return Resolution {
            winner: None,
            deprecated: Vec::new(),
            had_conflict: false,
        };
    }
    // Columns are kept sorted by ascending timestamp.
    let owned = |cell: &std::sync::Arc<Cell>| Cell::clone(cell);
    let winner = column.last().map(owned);
    let deprecated = column[..column.len() - 1]
        .iter()
        .map(owned)
        .collect::<Vec<_>>();
    Resolution {
        had_conflict: !deprecated.is_empty(),
        winner,
        deprecated,
    }
}

/// Returns `true` if the column currently holds conflicting versions.
pub fn has_conflict(column: &Column) -> bool {
    column.len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{insert_version, Timestamp};
    use serde_json::json;

    #[test]
    fn empty_column_has_no_conflict() {
        let col = Column::new();
        let r = resolve_latest(&col);
        assert!(r.winner.is_none());
        assert!(r.deprecated.is_empty());
        assert!(!r.had_conflict);
        assert!(!has_conflict(&col));
    }

    #[test]
    fn single_version_is_not_a_conflict() {
        let mut col = Column::new();
        insert_version(
            &mut col,
            Cell::new(json!("only"), Timestamp::new(5, 0)).into(),
        );
        let r = resolve_latest(&col);
        assert_eq!(r.winner.unwrap().value, json!("only"));
        assert!(!r.had_conflict);
        assert!(!has_conflict(&col));
    }

    #[test]
    fn concurrent_writes_resolve_to_freshest() {
        let mut col = Column::new();
        // Two engines in different datacenters write concurrently; the one
        // with the later (NTP-synchronised) timestamp wins.
        insert_version(
            &mut col,
            Cell::new(json!({"v": "dc1"}), Timestamp::new(100, 1)).into(),
        );
        insert_version(
            &mut col,
            Cell::new(json!({"v": "dc2"}), Timestamp::new(100, 2)).into(),
        );
        insert_version(
            &mut col,
            Cell::new(json!({"v": "stale"}), Timestamp::new(90, 0)).into(),
        );
        assert!(has_conflict(&col));
        let r = resolve_latest(&col);
        assert!(r.had_conflict);
        assert_eq!(r.winner.unwrap().value["v"], "dc2");
        assert_eq!(r.deprecated.len(), 2);
        let deprecated: Vec<&str> = r
            .deprecated
            .iter()
            .map(|c| c.value["v"].as_str().unwrap())
            .collect();
        assert_eq!(deprecated, vec!["stale", "dc1"]);
    }
}
