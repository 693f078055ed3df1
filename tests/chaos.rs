//! Deterministic chaos harness for the durability control plane.
//!
//! Every scenario here is driven by an explicit seed and a [`FaultPlan`]
//! (crash points, transport-error storms, provider outages) over the
//! simulated clock — no wall-clock time, no OS randomness — so each failure
//! schedule replays bit-for-bit. The invariants pinned:
//!
//! * **No acked write is ever unreadable.** A put that returned `Ok` must
//!   read back bit-exactly through every fault schedule, including degraded
//!   (k < n) landings.
//! * **Crash atomicity.** A crash at any labelled point followed by
//!   checkpoint-based recovery leaves the *old* object or the *new* object —
//!   never a torn hybrid — with the journal's Begin record as the commit
//!   point. The labels are the put path's (`put_part::after-stripe`,
//!   `put::after-upload`, `txn::before-log`, `txn::logged`, `txn::torn`,
//!   `txn::applied`, `put::after-commit`), a re-placement's (the four
//!   `txn::*`, then `replace::after-commit`) and a delete's (the four
//!   `txn::*`, then `delete::after-commit`). A crashed call returns
//!   `ScaliaError::Crashed` and cleans nothing up, as a dead process would
//!   not, so a re-placement that recovery commits keeps its new chunks.
//! * **No orphan bytes survive GC.** After recovery plus one
//!   [`gc::sweep_orphan_chunks`] pass, provider bytes equal the footprint of
//!   the surviving metadata exactly.
//! * **Degraded objects converge.** Durability debt recorded by a degraded
//!   write is backfilled to full stripe width within one repair cycle once
//!   capacity returns, clearing the debt column and its queue entry.
//! * **Seeded replay.** A whole randomized fault schedule is a function of
//!   its seed: the final state digests of the 34-seed matrix are pinned.

use scalia::engine::gc;
use scalia::engine::infra::FAILURE_DETECTOR_THRESHOLD;
use scalia::engine::repair;
use scalia::prelude::*;
use scalia::providers::failure::FaultPlan;
use std::collections::BTreeMap;
use std::sync::Arc;

/// [`checksum_hex`](scalia::types::checksum::checksum_hex) of the final
/// state digests of seeds `0..34` ([`chaos_scenario`]), one per line.
const SEED_MATRIX_DIGEST: &str = "3589b4c65e64f6bf";

/// Crash points of the put path, in visit order — every put, whatever its
/// size, lands its stripes one at a time before it commits.
const CRASH_LABELS: [&str; 7] = [
    "put_part::after-stripe",
    "put::after-upload",
    "txn::before-log",
    "txn::logged",
    "txn::torn",
    "txn::applied",
    "put::after-commit",
];

/// Labels whose crash leaves the *new* object version visible after
/// recovery: once the transaction's Begin record is durable in the journal,
/// recovery replays the whole batch.
fn crash_commits(label: &str) -> bool {
    matches!(
        label,
        "txn::logged" | "txn::torn" | "txn::applied" | "put::after-commit"
    )
}

/// A flexible rule (lock-in 0.5 ⇒ ≥ 2 providers) the ordinary workload uses.
fn flex_rule() -> StorageRule {
    StorageRule::new(
        "chaos-flex",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// A wide rule: lock-in 0.2 demands all five paper-catalog providers, so a
/// single provider loss makes re-placement infeasible and forces the
/// degraded-write fallback; the 99 % availability floor is low enough for a
/// four-chunk landing to be acknowledged.
fn wide_rule() -> StorageRule {
    StorageRule::new(
        "chaos-wide",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.0),
        ZoneSet::all(),
        0.2,
    )
}

/// Deterministic splitmix64 stream.
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
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A payload derived from the schedule position only, so every replay
/// regenerates the identical bytes.
fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((tag as usize).wrapping_mul(131).wrapping_add(i) % 251) as u8)
        .collect()
}

fn clear_caches(cluster: &ScaliaCluster) {
    for cache in cluster.caches() {
        cache.clear();
    }
}

/// Latest committed metadata of `key`, read straight off the metastore.
fn latest_meta(infra: &Infrastructure, key: &ObjectKey) -> Option<ObjectMeta> {
    infra
        .database()
        .get_latest(DatacenterId::new(0), &key.row_key(), "meta")
        .and_then(|cell| match cell.value {
            serde_json::Value::Bytes(record) => ObjectMeta::decode_record(&record).ok(),
            _ => None,
        })
}

/// Whether `key` currently carries a durability-debt column.
fn has_debt(infra: &Infrastructure, key: &ObjectKey) -> bool {
    infra
        .database()
        .get_latest(DatacenterId::new(0), &key.row_key(), "debt")
        .is_some()
}

/// Sum of bytes held across every provider backend.
fn stored_at_providers(infra: &Infrastructure) -> u64 {
    infra
        .backends()
        .iter()
        .map(|b| b.stored_bytes().bytes())
        .sum()
}

/// Exact provider footprint a committed object must occupy: per stripe,
/// `n` chunks of `ceil(len / m)` bytes each (one byte minimum, for empty
/// payloads).
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

/// Asserts that, for a quiescent cluster, the bytes at providers equal the
/// footprint of the surviving metadata of `keys` exactly — no orphans, no
/// missing chunks.
fn assert_exact_footprint(infra: &Infrastructure, keys: &[ObjectKey], context: &str) {
    let expected: u64 = keys
        .iter()
        .filter_map(|k| latest_meta(infra, k))
        .map(|m| expected_footprint(&m))
        .sum();
    assert_eq!(
        stored_at_providers(infra),
        expected,
        "{context}: provider bytes must equal the surviving metadata footprint"
    );
}

// ---------------------------------------------------------------------------
// Degraded writes + backfill
// ---------------------------------------------------------------------------

#[test]
fn degraded_put_commits_with_debt_and_backfills_within_one_repair_cycle() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let victim = infra.catalog().all()[0].id;
    let key = ObjectKey::new("chaos", "degraded.bin");
    let data = payload(7, 40_000);

    // The backend dies but the catalog still routes to it: the first upload
    // fails hard, re-placement under lock-in 0.2 finds no five-provider set,
    // and the write lands degraded on the survivors.
    infra.backend(victim).unwrap().set_down(true);
    let meta = cluster
        .put(&key, data.clone(), "application/x-tar", wide_rule(), None)
        .unwrap();
    assert_eq!(
        meta.striping.n(),
        4,
        "one provider down ⇒ four of five chunks land"
    );
    assert!(
        !meta.striping.provider_set().contains(&victim),
        "no chunk may claim to live on the dead provider"
    );
    assert_eq!(
        meta.striping.stripe_view(0).code_width(),
        5,
        "the striping remembers the full encode width"
    );
    assert!(
        has_debt(&infra, &key),
        "a degraded commit must record durability debt"
    );
    let queue = repair::queue_entries(&infra).unwrap();
    assert_eq!(queue.len(), 1, "the backfill must be queued atomically");
    assert_eq!(queue[0].1.reason, "degraded-write");
    assert_eq!(queue[0].1.attempts, 0);

    // The acked write reads back bit-exactly from the degraded subset.
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);

    // Capacity returns: one repair cycle must backfill to full width.
    infra.set_provider_down(victim, false);
    cluster.tick(SimTime::from_hours(1));
    let drain = cluster.last_repair_drain();
    assert_eq!(drain.repaired, 1, "the backfill runs in the first cycle");

    let healed = latest_meta(&infra, &key).unwrap();
    assert_eq!(healed.striping.n(), 5, "back to full stripe width");
    assert!(!has_debt(&infra, &key), "the debt column is settled");
    assert!(repair::queue_entries(&infra).unwrap().is_empty());
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
    infra.retry_pending_deletes();
    assert_exact_footprint(&infra, &[key], "after backfill");
}

#[test]
fn transport_storm_degrades_write_then_backfill_converges() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let stormed = infra.catalog().all()[1].id;
    let key = ObjectKey::new("chaos", "stormed.bin");
    let data = payload(11, 24_000);

    // Two-op storm: the abort-on-failure upload burns one token, the
    // tolerant degraded retry burns the other — the provider answers again
    // right after, but the write has already committed degraded.
    let plan = FaultPlan::new();
    plan.add_storm(stormed, 2);
    infra.set_fault_plan(Some(Arc::new(plan)));
    let meta = cluster
        .put(&key, data.clone(), "application/x-tar", wide_rule(), None)
        .unwrap();
    infra.set_fault_plan(None);
    assert_eq!(
        infra.backend(stormed).unwrap().pending_transport_errors(),
        0
    );
    assert_eq!(meta.striping.n(), 4);
    assert!(has_debt(&infra, &key));
    assert!(
        infra.catalog().is_available(stormed),
        "two soft errors stay below the default detector threshold"
    );

    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);

    // The provider never actually went down, so the very next repair cycle
    // backfills.
    cluster.tick(SimTime::from_hours(1));
    assert_eq!(cluster.last_repair_drain().repaired, 1);
    assert_eq!(latest_meta(&infra, &key).unwrap().striping.n(), 5);
    assert!(!has_debt(&infra, &key));
    infra.retry_pending_deletes();
    assert_exact_footprint(&infra, &[key], "after storm backfill");
}

#[test]
fn detector_trips_at_default_threshold_and_reprobe_restores() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let stormed = infra.catalog().all()[2].id;

    // A storm of exactly the detector threshold: each put burns tokens
    // until the consecutive soft errors trip the provider, then the puts
    // stop.
    let plan = FaultPlan::new();
    plan.add_storm(stormed, FAILURE_DETECTOR_THRESHOLD);
    infra.set_fault_plan(Some(Arc::new(plan)));
    let mut written = Vec::new();
    while infra.catalog().is_available(stormed) {
        assert!(
            written.len() < FAILURE_DETECTOR_THRESHOLD as usize,
            "the storm must trip the detector"
        );
        let key = ObjectKey::new("chaos", format!("tripwire-{}.bin", written.len()));
        let data = payload(13 + written.len() as u64, 16_000);
        let meta = cluster
            .put(&key, data.clone(), "application/x-tar", wide_rule(), None)
            .unwrap();
        written.push((key, data, meta.striping.n()));
    }
    infra.set_fault_plan(None);
    assert_eq!(
        infra.backend(stormed).unwrap().pending_transport_errors(),
        0
    );
    // The first put's strict upload and its degraded retry burn two tokens
    // (below the threshold) and land it degraded; the second put's third
    // error trips the detector.
    assert_eq!(written[0].2, 4, "the first put lands degraded");
    assert_eq!(written.len(), 2, "the second put trips the detector");

    // The next clock advance re-probes the (healthy) backend, restores it to
    // the catalog, and the same cycle's drain backfills the stripe.
    cluster.tick(SimTime::from_hours(1));
    assert!(
        infra.catalog().is_available(stormed),
        "re-probe must restore the recovered provider"
    );
    assert_eq!(cluster.last_repair_drain().repaired, 1);
    clear_caches(&cluster);
    for (key, data, _) in &written {
        assert_eq!(latest_meta(&infra, key).unwrap().striping.n(), 5);
        assert!(!has_debt(&infra, key));
        assert_eq!(cluster.get(key).unwrap().as_ref(), &data[..]);
    }
}

// ---------------------------------------------------------------------------
// Crash matrix: old-or-new, never torn, no orphan survives GC
// ---------------------------------------------------------------------------

#[test]
fn crash_at_every_labelled_point_leaves_old_or_new_state_and_no_orphans() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let db = infra.database();
    let mut keys = Vec::new();

    for (i, label) in CRASH_LABELS.iter().enumerate() {
        let key = ObjectKey::new("crash", format!("victim-{i}.bin"));
        let old = payload(100 + i as u64, 20_000);
        let new = payload(200 + i as u64, 28_000);
        cluster
            .put(&key, old.clone(), "application/x-tar", flex_rule(), None)
            .unwrap();

        // Checkpoint = the durable baseline a restarted process recovers
        // from; the overwrite below crashes at `label` mid-flight.
        let checkpoint = db.checkpoint();
        let plan = Arc::new(FaultPlan::new());
        plan.arm(*label);
        infra.set_fault_plan(Some(plan.clone()));
        let result = cluster.put(&key, new.clone(), "application/x-tar", flex_rule(), None);
        assert!(result.is_err(), "{label}: the crashed put must not ack");
        assert_eq!(plan.fired(), vec![label.to_string()], "{label} must fire");
        infra.set_fault_plan(None);

        // Restart: recover from the checkpoint (journal redo included) with
        // cold caches, then reconcile provider bytes.
        cluster.recover(&checkpoint);
        gc::sweep_orphan_chunks(&infra);

        let expected: &[u8] = if crash_commits(label) { &new } else { &old };
        let read = cluster.get(&key).unwrap();
        assert_eq!(
            read.as_ref(),
            expected,
            "{label}: recovery must expose exactly the old or the new version"
        );
        let meta = latest_meta(&infra, &key).unwrap();
        let expected_checksum = scalia::types::checksum::checksum_hex(expected);
        assert_eq!(
            meta.checksum, expected_checksum,
            "{label}: metadata must match the surviving payload — never torn"
        );
        keys.push(key);
    }

    // After the whole matrix: zero orphan bytes anywhere.
    infra.retry_pending_deletes();
    gc::sweep_orphan_chunks(&infra);
    assert_exact_footprint(&infra, &keys, "after crash matrix");
}

#[test]
fn crash_at_every_point_of_a_delete_leaves_the_object_whole_or_gone() {
    use scalia::core::classify::ObjectClass;

    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let db = infra.database();
    let stats = infra.statistics(DatacenterId::new(0));
    let mut survivors = Vec::new();

    // A delete is one journaled transaction, so it visits the same four
    // points a put commit does, then its own.
    let labels = [
        "txn::before-log",
        "txn::logged",
        "txn::torn",
        "txn::applied",
        "delete::after-commit",
    ];
    for (i, label) in labels.iter().enumerate() {
        // Each victim gets a mime (hence a class) of its own, so the class
        // lifetime sample its delete records is countable.
        let key = ObjectKey::new("crash-delete", format!("victim-{i}.bin"));
        let mime = format!("application/x-victim-{i}");
        let data = payload(300 + i as u64, 18_000);
        let meta = cluster
            .put(&key, data.clone(), &mime, flex_rule(), None)
            .unwrap();
        let class = ObjectClass::of(&mime, meta.size);
        // An hour passes: the log aggregator gives the object a statistics
        // row with history, so the delete has every kind of row to drop.
        cluster.tick(SimTime::from_hours(1 + i as u64));
        let stats_row = format!("stats:obj:{}", key.row_key());
        assert!(db.nodes()[0].get_row(&stats_row).is_some());

        let checkpoint = db.checkpoint();
        let plan = Arc::new(FaultPlan::new());
        plan.arm(*label);
        infra.set_fault_plan(Some(plan.clone()));
        assert!(
            cluster.delete(&key).is_err(),
            "{label}: the crashed delete must not ack"
        );
        assert_eq!(plan.fired(), vec![label.to_string()], "{label} must fire");
        infra.set_fault_plan(None);

        cluster.recover(&checkpoint);
        gc::sweep_orphan_chunks(&infra);

        // All or nothing: metadata, LIST entry, statistics row and class
        // sample agree on whether the delete happened.
        let present = *label == "txn::before-log";
        assert_eq!(latest_meta(&infra, &key).is_some(), present, "{label}");
        assert_eq!(
            cluster.list("crash-delete").contains(&key),
            present,
            "{label}: LIST must not name an object whose metadata is gone"
        );
        assert_eq!(
            db.nodes()[0].get_row(&stats_row).is_some(),
            present,
            "{label}: no statistics row may outlive its object"
        );
        assert_eq!(
            stats.class_lifetimes(class.id()).len(),
            usize::from(!present),
            "{label}: the lifetime sample is recorded iff the object is gone"
        );
        match cluster.get(&key) {
            Ok(read) => assert_eq!(read.as_ref(), &data[..], "{label}"),
            Err(_) => assert!(!present, "{label}: a surviving object must read back"),
        }
        if present {
            survivors.push(key);
        }
    }

    // The chunks of every deleted object are gone — swept as orphans where
    // the crash beat the engine's own chunk deletion.
    infra.retry_pending_deletes();
    gc::sweep_orphan_chunks(&infra);
    assert_exact_footprint(&infra, &survivors, "after the delete crash matrix");
}

#[test]
fn crash_at_every_point_of_a_replacement_leaves_the_payload_readable() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let db = infra.database();
    let all = infra.catalog().all();
    let mirrored = Placement {
        providers: vec![all[0].clone(), all[1].clone()],
        m: 1,
    };
    let mut keys = Vec::new();

    // A re-placement commits through the put's one commit step, so it
    // visits the same four transaction points, then its own.
    let labels = [
        "txn::before-log",
        "txn::logged",
        "txn::torn",
        "txn::applied",
        "replace::after-commit",
    ];
    for (i, label) in labels.iter().enumerate() {
        let key = ObjectKey::new("crash-replace", format!("victim-{i}.bin"));
        let data = payload(400 + i as u64, 20_000);
        let old = cluster
            .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
            .unwrap();
        assert_ne!(old.striping.m(), 1, "the move must change the placement");

        let checkpoint = db.checkpoint();
        let plan = Arc::new(FaultPlan::new());
        plan.arm(*label);
        infra.set_fault_plan(Some(plan.clone()));
        let err = cluster
            .engine(0)
            .replace_placement(&key, &mirrored)
            .unwrap_err();
        assert_eq!(err, ScaliaError::Crashed(label.to_string()), "{label}");
        assert_eq!(plan.fired(), vec![label.to_string()], "{label} must fire");
        infra.set_fault_plan(None);

        cluster.recover(&checkpoint);
        gc::sweep_orphan_chunks(&infra);

        // Old placement before the Begin record is durable, new after —
        // and whichever it is, its chunks are all there.
        assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..], "{label}");
        let meta = latest_meta(&infra, &key).unwrap();
        if *label == "txn::before-log" {
            assert_eq!(meta, old, "{label}");
        } else {
            assert_ne!(meta.version, old.version, "{label}");
            assert_eq!((meta.striping.m(), meta.striping.n()), (1, 2), "{label}");
        }
        keys.push(key);
        assert_exact_footprint(&infra, &keys, label);
    }
}

#[test]
fn recovery_is_idempotent_and_preserves_unrelated_objects() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let db = infra.database();
    let bystander = ObjectKey::new("crash", "bystander.bin");
    let bystander_data = payload(42, 12_000);
    cluster
        .put(
            &bystander,
            bystander_data.clone(),
            "image/png",
            flex_rule(),
            None,
        )
        .unwrap();

    let checkpoint = db.checkpoint();
    let plan = FaultPlan::new();
    plan.arm("txn::torn");
    infra.set_fault_plan(Some(Arc::new(plan)));
    let victim = ObjectKey::new("crash", "victim.bin");
    let victim_data = payload(43, 12_000);
    assert!(cluster
        .put(&victim, victim_data.clone(), "image/png", flex_rule(), None)
        .is_err());
    infra.set_fault_plan(None);

    // Recovering twice must land on the same state (journal redo is
    // idempotent), and the bystander must be untouched.
    cluster.recover(&checkpoint);
    cluster.recover(&checkpoint);
    gc::sweep_orphan_chunks(&infra);
    assert_eq!(cluster.get(&victim).unwrap().as_ref(), &victim_data[..]);
    assert_eq!(
        cluster.get(&bystander).unwrap().as_ref(),
        &bystander_data[..]
    );
    assert_exact_footprint(&infra, &[bystander, victim], "after double recovery");
}

// ---------------------------------------------------------------------------
// Seed matrix: randomized fault schedules, pinned final states
// ---------------------------------------------------------------------------

/// One whole randomized run: a seed-derived schedule of puts, overwrites,
/// deletes, degraded windows, crash-recovery cycles and transport storms,
/// settled and reduced to a digest of *stable* facts (payload checksums,
/// stripe shapes, provider sets, debt, queue state, provider bytes).
/// Version identifiers, storage keys and timestamps are process-global and
/// deliberately excluded.
fn chaos_scenario(seed: u64) -> String {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(2)
        .build();
    let infra = cluster.infra().clone();
    let db = infra.database();
    let providers: Vec<ProviderId> = infra.catalog().all().iter().map(|d| d.id).collect();
    let mut rng = Rng::new(seed);
    // The model: object name → expected payload of the latest *acked* write.
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut hour = 0u64;
    let names: Vec<String> = (0..6).map(|i| format!("obj-{i}")).collect();
    let key_of = |name: &str| ObjectKey::new("chaos", name);

    for step in 0..14u64 {
        match rng.below(10) {
            // Put / overwrite through the ordinary flexible rule.
            0..=4 => {
                let name = names[rng.below(6) as usize].clone();
                let data = payload(seed ^ step, 1 + rng.below(24_000) as usize);
                cluster
                    .put(
                        &key_of(&name),
                        data.clone(),
                        "application/x-tar",
                        flex_rule(),
                        None,
                    )
                    .unwrap();
                model.insert(name, data);
            }
            // Delete, if the object exists.
            5 => {
                let name = names[rng.below(6) as usize].clone();
                if model.remove(&name).is_some() {
                    cluster.delete(&key_of(&name)).unwrap();
                }
            }
            // Degraded window: a provider's backend dies, a wide write lands
            // degraded (or fails placement outright if the catalog already
            // lost a provider — deterministic either way), then capacity
            // returns and one repair cycle backfills.
            6 => {
                let victim = providers[rng.below(5) as usize];
                infra.backend(victim).unwrap().set_down(true);
                let name = format!("deg-{step}");
                let data = payload(seed ^ (step << 8), 1 + rng.below(16_000) as usize);
                if cluster
                    .put(
                        &key_of(&name),
                        data.clone(),
                        "application/x-tar",
                        wide_rule(),
                        None,
                    )
                    .is_ok()
                {
                    model.insert(name, data);
                }
                infra.set_provider_down(victim, false);
                hour += 1;
                cluster.tick(SimTime::from_hours(hour));
            }
            // Crash cycle: checkpoint, crash an overwrite at a random
            // labelled point, recover, reconcile with GC.
            7 => {
                let label = CRASH_LABELS[rng.below(CRASH_LABELS.len() as u64) as usize];
                let name = names[rng.below(6) as usize].clone();
                let data = payload(seed ^ (step << 16), 1 + rng.below(16_000) as usize);
                let checkpoint = db.checkpoint();
                let plan = FaultPlan::new();
                plan.arm(label);
                infra.set_fault_plan(Some(Arc::new(plan)));
                let result = cluster.put(
                    &key_of(&name),
                    data.clone(),
                    "application/x-tar",
                    flex_rule(),
                    None,
                );
                assert!(
                    result.is_err(),
                    "seed {seed}: crash at {label} must not ack"
                );
                infra.set_fault_plan(None);
                cluster.recover(&checkpoint);
                gc::sweep_orphan_chunks(&infra);
                if crash_commits(label) {
                    model.insert(name, data);
                }
            }
            // Transport storm: two soft errors on one provider around a wide
            // write — a degraded landing that the next cycle backfills. Any
            // unconsumed storm token is cleared before the schedule goes on.
            8 => {
                let stormed = providers[rng.below(5) as usize];
                let plan = FaultPlan::new();
                plan.add_storm(stormed, 2);
                infra.set_fault_plan(Some(Arc::new(plan)));
                let name = format!("storm-{step}");
                let data = payload(seed ^ (step << 24), 1 + rng.below(16_000) as usize);
                if cluster
                    .put(
                        &key_of(&name),
                        data.clone(),
                        "application/x-tar",
                        wide_rule(),
                        None,
                    )
                    .is_ok()
                {
                    model.insert(name, data);
                }
                infra.set_fault_plan(None);
                infra.backend(stormed).unwrap().inject_transport_errors(0);
                hour += 1;
                cluster.tick(SimTime::from_hours(hour));
            }
            // Read check against the model, mid-schedule.
            _ => {
                let name = names[rng.below(6) as usize].clone();
                match model.get(&name) {
                    Some(expected) => {
                        assert_eq!(
                            cluster.get(&key_of(&name)).unwrap().as_ref(),
                            &expected[..],
                            "seed {seed}: acked write must read back"
                        );
                    }
                    None => assert!(cluster.get(&key_of(&name)).is_err()),
                }
            }
        }
    }

    // Settle: full capacity, repair cycles, postponed deletes, orphan sweep.
    infra.set_fault_plan(None);
    for &p in &providers {
        infra.set_provider_down(p, false);
    }
    hour += 2;
    cluster.tick(SimTime::from_hours(hour));
    hour += 2;
    cluster.tick(SimTime::from_hours(hour));
    gc::sweep_orphan_chunks(&infra);
    hour += 2;
    cluster.tick(SimTime::from_hours(hour));

    // Every acked write reads back; every deleted name is gone.
    clear_caches(&cluster);
    for (name, expected) in &model {
        assert_eq!(
            cluster.get(&key_of(name)).unwrap().as_ref(),
            &expected[..],
            "seed {seed}: {name} must survive the whole schedule"
        );
    }
    for name in &names {
        if !model.contains_key(name) {
            assert!(cluster.get(&key_of(name)).is_err());
        }
    }

    // Crash recovery rebuilt the database node's content digest and every
    // write since kept it exact.
    for node in db.nodes() {
        assert_eq!(
            node.digest(),
            node.recomputed_digest(),
            "seed {seed}: incremental digest drifted from the node's contents"
        );
    }

    // Digest of stable facts only.
    let mut lines = Vec::new();
    for (name, expected) in &model {
        let meta = latest_meta(&infra, &key_of(name)).unwrap();
        let provider_ids: Vec<u32> = meta
            .striping
            .provider_set()
            .iter()
            .map(|p| p.index())
            .collect();
        lines.push(format!(
            "{name} md5={} n={} m={} width={} providers={provider_ids:?} debt={}",
            scalia::types::md5::md5_hex(expected),
            meta.striping.n(),
            meta.striping.m(),
            meta.striping.stripe_view(0).code_width(),
            has_debt(&infra, &key_of(name)),
        ));
    }
    let mut queue: Vec<String> = repair::queue_entries(&infra)
        .unwrap()
        .into_iter()
        .map(|(row, e)| {
            format!(
                "{row} reason={} attempts={} dead={}",
                e.reason, e.attempts, e.dead
            )
        })
        .collect();
    queue.sort();
    lines.push(format!("queue={queue:?}"));
    lines.push(format!("pending_deletes={}", infra.pending_delete_count()));
    lines.push(format!("stored={}", stored_at_providers(&infra)));
    lines.join("\n")
}

#[test]
fn seed_matrix_replays_to_its_pinned_digest() {
    // 34 full chaos runs. Each run's final state is a function of its seed
    // alone, so the digests of the whole matrix are pinned.
    let digests: String = (0..34u64).map(|seed| chaos_scenario(seed) + "\n").collect();
    assert_eq!(
        scalia::types::checksum::checksum_hex(digests.as_bytes()),
        SEED_MATRIX_DIGEST,
        "a seed's final state changed"
    );
}
