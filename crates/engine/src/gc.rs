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
//! **any** metadata version on any database node, and deletes the
//! difference. While a node is down that union is unknown — the node may
//! hold the only record of an acked write — so the sweep deletes nothing.
//!
//! The sweep is safe only on a *quiescent* cluster (no in-flight writes):
//! an upload racing the sweep has chunks at providers before its metadata
//! commits, and the sweep would eat them. Crash recovery is exactly such a
//! moment — the journal has been replayed, no client writes are running —
//! and is the intended call site.

use crate::engine::decode_meta;
use crate::infra::Infrastructure;
use scalia_metastore::store::Rows;
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
    /// Metastore nodes that could not be read because they were down. A
    /// sweep that skipped one scans and deletes nothing.
    pub metastore_nodes_skipped: usize,
}

/// Deletes every provider chunk that no metadata version references.
///
/// Every version of every object's `meta` column on every node counts as a
/// reference — deprecated-but-unpruned versions keep their chunks until the
/// prune lands, so the sweep never races MVCC. With a metastore node down
/// the sweep stops before it lists any provider, and down providers are
/// skipped (their keys cannot be listed); both are reported. Re-run the
/// sweep when they recover.
pub fn sweep_orphan_chunks(infra: &Infrastructure) -> GcReport {
    let mut report = GcReport::default();

    // The union of referenced chunk keys across all nodes: nodes may
    // briefly diverge (anti-entropy pending), and a chunk referenced by
    // *any* replica must survive.
    let mut referenced: HashSet<String> = HashSet::new();
    report.metastore_nodes_skipped = infra.database().visit_each_up(Rows::Prefix(""), |row| {
        for cell in row.versions("meta") {
            if let Ok(meta) = decode_meta(&cell.value) {
                referenced.extend(meta.striping.all_chunk_refs().into_iter().map(|(_, k)| k));
            }
        }
    });
    report.chunks_referenced = referenced.len();
    if report.metastore_nodes_skipped > 0 {
        return report;
    }

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

    /// A sweep that cannot read every metastore node deletes nothing: with
    /// both nodes down it sees no reference at all, and with one down it
    /// misses what only the other holds (`k2`, put while node 0 was
    /// down). Every acked object reads back once the nodes return and
    /// anti-entropy has caught them up.
    #[test]
    fn a_sweep_with_a_metastore_node_down_deletes_nothing() {
        let cluster = ScaliaCluster::builder().datacenters(2).build();
        let infra = cluster.infra().clone();
        let nodes = infra.database().nodes();
        let put = |name: &str, byte: u8| {
            let key = ObjectKey::new("c", name);
            cluster
                .put(&key, vec![byte; 4096], "image/gif", rule(), None)
                .unwrap();
            key
        };
        let read_back = |keys: &[&ObjectKey]| {
            infra.database().anti_entropy();
            cluster.caches().iter().for_each(|c| c.clear());
            for (byte, key) in (1u8..).zip(keys) {
                let read = cluster.get(key).unwrap();
                assert!(
                    read.len() == 4096 && read.iter().all(|&b| b == byte),
                    "{key}"
                );
            }
        };
        let k = put("k", 1);

        nodes.iter().for_each(|n| n.set_up(false));
        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.orphans_deleted, 0, "all nodes down: {report:?}");
        assert_eq!(report.metastore_nodes_skipped, 2);
        nodes.iter().for_each(|n| n.set_up(true));
        read_back(&[&k]);

        nodes[0].set_up(false);
        let k2 = put("k2", 2);
        nodes[0].set_up(true);
        nodes[1].set_up(false);
        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.orphans_deleted, 0, "node 1 down: {report:?}");
        assert_eq!(report.metastore_nodes_skipped, 1);
        nodes[1].set_up(true);
        read_back(&[&k, &k2]);

        // Every node read: the sweep runs, and finds nothing to delete.
        let report = sweep_orphan_chunks(&infra);
        assert_eq!(report.metastore_nodes_skipped, 0);
        assert!(report.chunks_referenced >= 8, "{report:?}");
        assert_eq!(report.orphans_deleted, 0);
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
