//! Orphan-chunk garbage collection.
//!
//! A put and a re-placement commit a new version through one step
//! (`Engine::commit_version`). A commit deletes the deprecated versions'
//! chunks itself. A conflict (a re-placement overtaken by a newer write)
//! or a refusal (no metastore node up) leaves no record naming the new
//! chunks, so the engine deletes them at once. A crash
//! ([`scalia_types::error::ScaliaError::Crashed`]) deletes nothing, since
//! its outcome is unknown until recovery: it orphans the new version's
//! chunks if it beat the transaction's `Begin` record, and the deprecated
//! version's if recovery redoes the commit or the crash came after it
//! (`put::after-commit`, `replace::after-commit`). A delete that crashes
//! after its commit (`delete::after-commit`) orphans the object's chunks.
//!
//! Those orphans are invisible to reads — the metadata is the only map —
//! but they bill storage forever. [`sweep_orphan_chunks`] reconciles each
//! provider's key space against the union of chunk keys referenced by
//! **any** metadata version on any reachable database node, and deletes
//! the difference.
//!
//! The sweep is safe only on a *quiescent* cluster (no in-flight writes):
//! an upload racing the sweep has chunks at providers before its metadata
//! commits, and the sweep would eat them. Crash recovery is exactly such a
//! moment — the journal has been replayed, no client writes are running —
//! and is the intended call site.

use crate::engine::decode_meta;
use crate::infra::Infrastructure;
use std::collections::HashSet;

/// Outcome of one [`sweep_orphan_chunks`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Chunk keys found at reachable providers.
    pub chunks_scanned: usize,
    /// Chunk keys referenced by surviving metadata.
    pub chunks_referenced: usize,
    /// Orphan chunks deleted.
    pub orphans_deleted: usize,
    /// Providers skipped because their backend was unreachable.
    pub providers_skipped: usize,
}

/// Deletes every provider chunk that no metadata version references.
///
/// Every version of every object's `meta` column on every up node counts as
/// a reference — deprecated-but-unpruned versions keep their chunks until
/// the prune lands, so the sweep never races MVCC. Down providers are
/// skipped (their keys cannot be listed) and reported; re-run the sweep
/// when they recover.
pub fn sweep_orphan_chunks(infra: &Infrastructure) -> GcReport {
    let mut report = GcReport::default();

    // The union of referenced chunk keys across all reachable nodes: nodes
    // may briefly diverge (anti-entropy pending), and a chunk referenced by
    // *any* replica must survive.
    let mut referenced: HashSet<String> = HashSet::new();
    for node in infra.database().nodes() {
        if !node.is_up() {
            continue;
        }
        for (_, row) in node.snapshot() {
            let Some(cells) = row.get("meta") else {
                continue;
            };
            for cell in cells {
                let Ok(meta) = decode_meta(&cell.value) else {
                    continue;
                };
                for (_, key) in meta.striping.all_chunk_refs() {
                    referenced.insert(key);
                }
            }
        }
    }
    report.chunks_referenced = referenced.len();

    for backend in infra.backends() {
        let Ok(keys) = backend.list("") else {
            report.providers_skipped += 1;
            continue;
        };
        report.chunks_scanned += keys.len();
        for key in keys {
            if !referenced.contains(&key) && backend.delete(&key).is_ok() {
                report.orphans_deleted += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ScaliaCluster;
    use bytes::Bytes;
    use scalia_types::object::ObjectKey;
    use scalia_types::reliability::Reliability;
    use scalia_types::rules::StorageRule;
    use scalia_types::zone::ZoneSet;

    fn rule() -> StorageRule {
        StorageRule::new(
            "gc",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        )
    }

    #[test]
    fn sweep_removes_unreferenced_chunks_and_keeps_referenced_ones() {
        let cluster = ScaliaCluster::builder().build();
        let infra = cluster.infra().clone();
        let key = ObjectKey::new("c", "kept.bin");
        cluster
            .put(&key, vec![7u8; 100_000], "application/x-tar", rule(), None)
            .unwrap();

        // Plant orphans: chunk-shaped keys no metadata references.
        let backends = infra.backends();
        backends[0]
            .put("deadbeef-orphan.0", Bytes::from(vec![1u8; 64]))
            .unwrap();
        backends[1]
            .put("deadbeef-orphan.1", Bytes::from(vec![2u8; 64]))
            .unwrap();

        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.orphans_deleted, 2);
        assert_eq!(report.providers_skipped, 0);
        assert!(report.chunks_referenced >= 1);
        assert!(!backends[0].exists("deadbeef-orphan.0").unwrap());

        // The object survives the sweep intact.
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(cluster.get(&key).unwrap().len(), 100_000);

        // A second sweep finds nothing.
        assert_eq!(sweep_orphan_chunks(&infra).orphans_deleted, 0);
    }

    #[test]
    fn sweep_skips_down_providers() {
        let cluster = ScaliaCluster::builder().build();
        let infra = cluster.infra().clone();
        let victim = infra.backends()[0].provider_id();
        infra.backend(victim).unwrap().set_down(true);
        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.providers_skipped, 1);
    }
}
