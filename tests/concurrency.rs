//! Concurrency test suite: one `ScaliaCluster` driven from many OS threads.
//!
//! Client threads, the optimiser and metastore jobs all share one cluster;
//! these tests pin the system-level guarantees that concurrency must not
//! erode:
//!
//! * **MVCC convergence** — concurrent writers of one key leave exactly one
//!   metadata version per database node, and it is internally consistent
//!   (checksum matches the stored bytes).
//! * **Read atomicity** — a read never observes a torn object: it returns
//!   the complete payload of *some* committed version, or a clean error
//!   while the object is being replaced/deleted.
//! * **No leaks** — every deprecated version's chunks are garbage-collected:
//!   at quiescence the bytes at the providers equal exactly the footprint of
//!   the surviving versions, and no postponed delete is stranded.
//! * **Optimiser safety** — the periodic optimisation procedure racing
//!   client writes never loses or reverts data (its conditional commit
//!   aborts when the object moved underneath it).
//!
//! All schedules are seeded and thread counts fixed, so failures reproduce.

use scalia::engine::cluster::ScaliaCluster;
use scalia::prelude::*;
use scalia::types::checksum::checksum_hex;
use std::sync::atomic::{AtomicUsize, Ordering};

fn rule() -> StorageRule {
    StorageRule::new(
        "conc",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// Deterministic per-thread RNG (splitmix64) so stress schedules reproduce.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// A payload whose every byte identifies the writer and whose length
/// identifies the write, so any torn or mixed read is detectable.
fn payload(writer: usize, len: usize) -> Vec<u8> {
    vec![(writer % 251) as u8; len]
}

/// Asserts that `data` is a payload some single writer produced.
fn assert_untorn(data: &[u8], context: &str) {
    if let Some(&first) = data.first() {
        assert!(
            data.iter().all(|&b| b == first),
            "{context}: read mixed bytes from different writers"
        );
    }
}

/// Sum of bytes stored across all provider backends.
fn stored_at_providers(cluster: &ScaliaCluster) -> u64 {
    cluster
        .infra()
        .backends()
        .iter()
        .map(|b| b.stored_bytes().bytes())
        .sum()
}

/// Expected provider footprint of one object's current metadata: per
/// stripe, `n` chunks of `ceil(len / m)` bytes (1 byte minimum, as the codec
/// pads).
fn expected_footprint(meta: &ObjectMeta) -> u64 {
    let striping = &meta.striping;
    let stripes = striping.stripes.iter().enumerate();
    stripes
        .map(|(i, stripe)| {
            let len = striping.stripe_len(i, meta.size.bytes());
            len.div_ceil(stripe.m as u64).max(1) * stripe.n() as u64
        })
        .sum()
}

/// Checks the full set of quiescent invariants for `keys`: single MVCC
/// version per node, checksum-consistent reads, exact provider footprint.
fn assert_quiescent_invariants(cluster: &ScaliaCluster, keys: &[ObjectKey]) {
    // Settle replication and postponed deletes.
    cluster.infra().retry_pending_deletes();
    cluster.infra().database().anti_entropy();
    // The incrementally maintained content digests survived the concurrent
    // run exactly, and the settled replicas agree.
    let nodes = cluster.infra().database().nodes();
    for node in nodes {
        assert_eq!(
            node.digest(),
            node.recomputed_digest(),
            "node dc_{}: incremental digest drifted from its contents",
            node.datacenter()
        );
        assert_eq!(node.digest(), nodes[0].digest(), "replicas must agree");
    }
    assert_eq!(
        cluster.infra().pending_delete_count(),
        0,
        "no postponed delete may be stranded while all providers are up"
    );
    cluster.caches().iter().for_each(|c| c.clear());

    let mut expected_bytes = 0u64;
    for key in keys {
        let row_key = key.row_key();
        match cluster.engine(0).read_metadata(key) {
            Ok(meta) => {
                // Exactly one surviving version on every database node.
                for node in cluster.infra().database().nodes() {
                    let versions = node.get_versions(&row_key, "meta");
                    assert_eq!(
                        versions.len(),
                        1,
                        "{key}: node dc_{} must hold exactly one version",
                        node.datacenter()
                    );
                }
                // The payload reassembles and matches the committed checksum.
                let data = cluster
                    .get(key)
                    .unwrap_or_else(|e| panic!("{key}: quiescent read must succeed, got {e}"));
                assert_eq!(data.len() as u64, meta.size.bytes(), "{key}: length");
                assert_eq!(checksum_hex(&data), meta.checksum, "{key}: checksum");
                assert_untorn(&data, &format!("{key}"));
                expected_bytes += expected_footprint(&meta);
            }
            Err(ScaliaError::ObjectNotFound(_)) => {
                // Deleted: no node may still know the row.
                for node in cluster.infra().database().nodes() {
                    assert!(
                        node.get_versions(&row_key, "meta").is_empty(),
                        "{key}: deleted object must leave no metadata behind"
                    );
                }
            }
            Err(other) => panic!("{key}: unexpected metadata error {other}"),
        }
    }
    assert_eq!(
        stored_at_providers(cluster),
        expected_bytes,
        "provider bytes must equal the surviving versions' footprint \
         (anything more is a leaked chunk, anything less is lost data)"
    );
}

#[test]
fn concurrent_lifecycles_on_distinct_keys_stay_isolated() {
    let cluster = ScaliaCluster::builder()
        .datacenters(2)
        .engines_per_datacenter(2)
        .build();
    const THREADS: usize = 8;
    const OBJECTS_PER_THREAD: usize = 4;

    let all_keys: Vec<Vec<ObjectKey>> = (0..THREADS)
        .map(|t| {
            (0..OBJECTS_PER_THREAD)
                .map(|i| ObjectKey::new("iso", format!("t{t}-obj{i}")))
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for (t, keys) in all_keys.iter().enumerate() {
            let cluster = &cluster;
            scope.spawn(move || {
                for (i, key) in keys.iter().enumerate() {
                    let len = 10_000 + t * 1_000 + i;
                    cluster
                        .put(key, payload(t, len), "image/png", rule(), None)
                        .unwrap();
                    assert_eq!(cluster.get(key).unwrap().len(), len);
                    // Overwrite with new content, read again.
                    let len2 = len + 77;
                    cluster
                        .put(key, payload(t, len2), "image/png", rule(), None)
                        .unwrap();
                    assert_eq!(cluster.get(key).unwrap().len(), len2);
                }
                // Delete every other object.
                for key in keys.iter().skip(1).step_by(2) {
                    cluster.delete(key).unwrap();
                    assert!(matches!(
                        cluster.get(key),
                        Err(ScaliaError::ObjectNotFound(_))
                    ));
                }
            });
        }
    });

    let flat: Vec<ObjectKey> = all_keys.into_iter().flatten().collect();
    assert_quiescent_invariants(&cluster, &flat);
    // The deletes went through: half the objects per thread survive.
    let survivors = flat
        .iter()
        .filter(|k| cluster.engine(0).read_metadata(k).is_ok())
        .count();
    assert_eq!(survivors, THREADS * OBJECTS_PER_THREAD.div_ceil(2));
}

#[test]
fn concurrent_writers_of_one_key_converge_to_a_single_version() {
    let cluster = ScaliaCluster::builder()
        .datacenters(2)
        .engines_per_datacenter(2)
        .build();
    const THREADS: usize = 6;
    const ROUNDS: usize = 5;
    let key = ObjectKey::new("contended", "hot-object");
    let reads_ok = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cluster = &cluster;
            let key = &key;
            let reads_ok = &reads_ok;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Writer-distinguishable content; length encodes writer
                    // too, so a mixed reassembly cannot masquerade as valid.
                    let len = 30_000 + t * 100 + round;
                    cluster
                        .put(key, payload(t, len), "image/png", rule(), None)
                        .unwrap();
                    match cluster.get(key) {
                        Ok(data) => {
                            assert_untorn(&data, "contended read");
                            reads_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        // A read can lose the race against back-to-back
                        // overwrites pruning versions under it; what it may
                        // never do is return wrong bytes.
                        Err(ScaliaError::NotEnoughChunks { .. })
                        | Err(ScaliaError::DecodeFailed(_)) => {}
                        Err(other) => panic!("unexpected read error: {other}"),
                    }
                }
            });
        }
    });

    assert!(
        reads_ok.load(Ordering::Relaxed) > 0,
        "at least some contended reads must succeed"
    );
    assert_quiescent_invariants(&cluster, std::slice::from_ref(&key));
}

#[test]
fn deletes_racing_writers_leave_no_orphans() {
    let cluster = ScaliaCluster::builder().build();
    const THREADS: usize = 4;
    const KEYS: usize = 6;
    let keys: Vec<ObjectKey> = (0..KEYS)
        .map(|i| ObjectKey::new("churn", format!("obj{i}")))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cluster = &cluster;
            let keys = &keys;
            scope.spawn(move || {
                let mut rng = Rng::new(0xD1CE + t as u64);
                for _ in 0..40 {
                    let key = &keys[(rng.next() as usize) % KEYS];
                    match rng.next() % 3 {
                        0 => {
                            let len = 5_000 + (rng.next() % 20_000) as usize;
                            cluster
                                .put(key, payload(t, len), "image/gif", rule(), None)
                                .unwrap();
                        }
                        1 => match cluster.get(key) {
                            Ok(data) => assert_untorn(&data, "churn read"),
                            Err(ScaliaError::ObjectNotFound(_))
                            | Err(ScaliaError::NotEnoughChunks { .. })
                            | Err(ScaliaError::DecodeFailed(_)) => {}
                            Err(other) => panic!("unexpected read error: {other}"),
                        },
                        _ => match cluster.delete(key) {
                            Ok(()) | Err(ScaliaError::ObjectNotFound(_)) => {}
                            Err(other) => panic!("unexpected delete error: {other}"),
                        },
                    }
                }
            });
        }
    });

    assert_quiescent_invariants(&cluster, &keys);
}

#[test]
fn optimizer_racing_writers_never_loses_committed_data() {
    // The archetype's seeded stress test: the periodic optimisation
    // procedure (forced, so it migrates aggressively) runs concurrently
    // with client overwrites of the same objects. The conditional commit in
    // `replace_placement` must ensure the *newest client write* always
    // survives, no matter how the migration interleaves.
    let cluster = ScaliaCluster::builder()
        .datacenters(2)
        .engines_per_datacenter(2)
        .build();
    const KEYS: usize = 10;
    let keys: Vec<ObjectKey> = (0..KEYS)
        .map(|i| ObjectKey::new("stress", format!("obj{i}")))
        .collect();

    // Seed every object and give the optimiser access history to chew on.
    for (i, key) in keys.iter().enumerate() {
        cluster
            .put(key, payload(i, 20_000 + i), "image/jpeg", rule(), None)
            .unwrap();
        cluster.get(key).unwrap();
    }
    cluster.tick(SimTime::from_hours(1));

    let optimizer_runs = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Writer thread: seeded overwrites and reads.
        let writer_keys = &keys;
        let writer_cluster = &cluster;
        scope.spawn(move || {
            let mut rng = Rng::new(0x5EED);
            for round in 0..120 {
                let i = (rng.next() as usize) % KEYS;
                let key = &writer_keys[i];
                let len = 15_000 + (rng.next() % 30_000) as usize;
                writer_cluster
                    .put(key, payload(i, len), "image/jpeg", rule(), None)
                    .unwrap();
                if round % 3 == 0 {
                    match writer_cluster.get(key) {
                        Ok(data) => assert_untorn(&data, "stress read"),
                        Err(ScaliaError::NotEnoughChunks { .. })
                        | Err(ScaliaError::DecodeFailed(_)) => {}
                        Err(other) => panic!("unexpected read error: {other}"),
                    }
                }
            }
        });
        // Optimiser thread: repeated forced procedures while writes land.
        let opt_cluster = &cluster;
        let optimizer_runs = &optimizer_runs;
        scope.spawn(move || {
            for _ in 0..15 {
                let report = opt_cluster.run_optimization(true);
                optimizer_runs.fetch_add(1, Ordering::Relaxed);
                // The report's totals must stay coherent regardless of races.
                assert!(report.trend_changes <= report.objects_considered);
                assert!(report.migrations_executed <= report.placements_recomputed);
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(optimizer_runs.load(Ordering::Relaxed), 15);

    assert_quiescent_invariants(&cluster, &keys);
    // Every object must still exist (nothing was deleted in this test) —
    // a lost update would surface as ObjectNotFound or a stale checksum in
    // the invariant pass above.
    for key in &keys {
        assert!(cluster.engine(0).read_metadata(key).is_ok(), "{key} lost");
    }
}

#[test]
fn slow_provider_writer_reader_stress_stays_consistent() {
    // The data path under latency: every provider has a realistic virtual
    // response-time model and one of them *limps* — a chaos thread flips a
    // multi-second virtual stall on and off while writers overwrite and
    // readers fetch. Hedged reads must keep returning checksum-exact bytes
    // (promoting parity chunks past the stalled provider), and the usual
    // quiescent invariants must hold when the dust settles.
    use scalia::providers::catalog::ProviderCatalog;

    let catalog = ProviderCatalog::shared();
    for descriptor in scalia::sim::scenarios::latency_catalog(5) {
        catalog.register(descriptor);
    }
    let cluster = ScaliaCluster::builder()
        .datacenters(2)
        .engines_per_datacenter(2)
        .catalog(catalog)
        .build();

    const WRITERS: usize = 3;
    const READERS: usize = 3;
    const KEYS: usize = 8;
    const ROUNDS: usize = 25;
    let keys: Vec<ObjectKey> = (0..KEYS)
        .map(|i| ObjectKey::new("slow", format!("obj{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        cluster
            .put(key, payload(i, 12_000 + i), "image/png", rule(), None)
            .unwrap();
    }
    let victim = cluster
        .engine(0)
        .read_metadata(&keys[0])
        .unwrap()
        .striping
        .stripe_view(0)
        .chunks[0]
        .provider;
    let victim_backend = cluster.infra().backend(victim).unwrap();

    std::thread::scope(|scope| {
        // Chaos: the victim limps (6 virtual seconds per request), then
        // recovers, repeatedly, while traffic flows.
        let chaos_backend = &victim_backend;
        scope.spawn(move || {
            for i in 0..60 {
                chaos_backend.set_stall_us(if i % 2 == 0 { 6_000_000 } else { 0 });
                std::thread::yield_now();
            }
            chaos_backend.set_stall_us(0);
        });
        for t in 0..WRITERS {
            let cluster = &cluster;
            let keys = &keys;
            scope.spawn(move || {
                let mut rng = Rng::new(0x510_0000 + t as u64);
                for _ in 0..ROUNDS {
                    let key = &keys[(rng.next() as usize) % KEYS];
                    let len = 8_000 + (rng.next() % 24_000) as usize;
                    cluster
                        .put(key, payload(t, len), "image/png", rule(), None)
                        .unwrap();
                }
            });
        }
        for t in 0..READERS {
            let cluster = &cluster;
            let keys = &keys;
            scope.spawn(move || {
                let mut rng = Rng::new(0x4EAD + t as u64);
                for _ in 0..ROUNDS {
                    let key = &keys[(rng.next() as usize) % KEYS];
                    match cluster.get(key) {
                        Ok(data) => assert_untorn(&data, "slow-provider read"),
                        // Overwrites may prune the version under a reader;
                        // wrong bytes are never acceptable, clean retryable
                        // errors are.
                        Err(ScaliaError::NotEnoughChunks { .. })
                        | Err(ScaliaError::DecodeFailed(_)) => {}
                        Err(other) => panic!("unexpected read error: {other}"),
                    }
                }
            });
        }
    });

    victim_backend.set_stall_us(0);
    assert_quiescent_invariants(&cluster, &keys);
    // The latency pipeline observed the traffic: object-level read
    // makespans were recorded throughout.
    use scalia::providers::backend::StoreOp;
    let reads = cluster.infra().io_latency_snapshot(StoreOp::Get);
    assert!(reads.count > 0, "hedged reads must record their makespans");
    assert!(
        cluster.infra().io_latency_snapshot(StoreOp::Put).count >= (KEYS + WRITERS * ROUNDS) as u64,
        "every committed write must record a put makespan"
    );
}

// ---------------------------------------------------------------------------
// Property: repair under churn
// ---------------------------------------------------------------------------

/// Random repair-queue schedules racing client churn (overwrites, deletes,
/// provider outages). Three properties, drawn from the durability control
/// plane's contract:
///
/// * **No double repair** — a queue entry that resolved or repaired is gone;
///   once the queue drains empty, a further drain scans and moves nothing,
///   and re-enqueueing an already-queued live object is a no-op.
/// * **No stranded chunks** — once capacity returns and the queue drains,
///   no postponed delete survives and every byte at the providers belongs
///   to a surviving version.
/// * **Convergence** — with every provider back up, the queue empties
///   within bounded repair cycles (nothing is silently wedged or
///   dead-lettered by transient churn).
mod repair_churn_props {
    use super::*;
    use proptest::prelude::*;
    use scalia::engine::repair;
    use scalia::types::time::SimTime;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn repair_under_churn_never_double_repairs_or_strands_chunks(
            words in proptest::collection::vec(any::<u64>(), 8..20),
        ) {
            let cluster = ScaliaCluster::builder()
                .datacenters(1)
                .engines_per_datacenter(2)
                .build();
            let infra = cluster.infra().clone();
            let providers: Vec<ProviderId> =
                infra.catalog().all().iter().map(|d| d.id).collect();
            let keys: Vec<ObjectKey> = (0..4)
                .map(|i| ObjectKey::new("churn", format!("obj-{i}")))
                .collect();
            let mut alive = [false; 4];
            let mut hour = 0u64;

            for (i, key) in keys.iter().enumerate() {
                cluster
                    .put(key, payload(i, 8_000 + i * 1_000), "application/x-tar", rule(), None)
                    .unwrap();
                alive[i] = true;
            }

            for &word in &words {
                let obj = (word % 4) as usize;
                match (word >> 2) % 5 {
                    0 => {
                        // Overwrite: deprecates a version the queue may
                        // still reference.
                        cluster
                            .put(
                                &keys[obj],
                                payload(obj + 7, 6_000 + (word >> 8) as usize % 8_000),
                                "application/x-tar",
                                rule(),
                                None,
                            )
                            .unwrap();
                        alive[obj] = true;
                    }
                    1 => {
                        // Delete: its queue entry (if any) must resolve, not
                        // wedge.
                        if alive[obj] {
                            cluster.delete(&keys[obj]).unwrap();
                            alive[obj] = false;
                        }
                    }
                    2 => {
                        // Provider outage: enqueue every live object (the
                        // unaffected ones must resolve without movement),
                        // drain once while down, then recover.
                        let down = providers[(word >> 5) as usize % providers.len()];
                        infra.set_provider_down(down, true);
                        for (i, key) in keys.iter().enumerate() {
                            if alive[i] {
                                repair::enqueue(&infra, key, "provider-outage").unwrap();
                            }
                        }
                        let queued = repair::queue_entries(&infra).unwrap().len();
                        // Re-enqueueing a live entry must not duplicate it.
                        for (i, key) in keys.iter().enumerate() {
                            if alive[i] {
                                repair::enqueue(&infra, key, "provider-outage").unwrap();
                            }
                        }
                        prop_assert_eq!(
                            repair::queue_entries(&infra).unwrap().len(),
                            queued,
                            "enqueue must be idempotent for live entries"
                        );
                        hour += 1;
                        cluster.tick(SimTime::from_hours(hour));
                        infra.set_provider_down(down, false);
                    }
                    3 => {
                        // A bare repair cycle.
                        hour += 1;
                        cluster.tick(SimTime::from_hours(hour));
                    }
                    _ => {
                        // Enqueue a healthy object: the drain must resolve
                        // it without moving a byte.
                        if alive[obj] {
                            repair::enqueue(&infra, &keys[obj], "provider-outage").unwrap();
                        }
                    }
                }
            }

            // Convergence: with all providers up, the queue must drain
            // within bounded cycles (backoffs cap at one hour).
            for &p in &providers {
                infra.set_provider_down(p, false);
            }
            let mut drained = false;
            for _ in 0..10 {
                hour += 2;
                cluster.tick(SimTime::from_hours(hour));
                if repair::queue_entries(&infra).unwrap().is_empty() {
                    drained = true;
                    break;
                }
            }
            prop_assert!(drained, "repair queue must drain once capacity returns");

            // No double repair: a drain over the empty queue scans and
            // moves nothing.
            hour += 2;
            cluster.tick(SimTime::from_hours(hour));
            let idle = cluster.last_repair_drain();
            prop_assert_eq!(idle.scanned, 0, "resolved entries must not be revisited");
            prop_assert_eq!(idle.repaired, 0);
            prop_assert_eq!(idle.bytes_moved, 0);

            // No stranded chunks, no leaked bytes, consistent survivors.
            assert_quiescent_invariants(&cluster, &keys);
        }
    }
}
