//! The class-centric optimisation pipeline, end to end:
//!
//! * **Singleton differential** — over classes with exactly one member the
//!   class-grouped cycle must reproduce a per-object oracle bit for bit:
//!   same `OptimizationReport`, same final placements, identical when 1, 2
//!   or 8 deployments run the cycle at once. The oracle calls the same
//!   `scalia::core::decision` step once per object through public API.
//! * **Migration budget** — a tight per-cycle budget defers (never drops)
//!   beneficial migrations and converges to the unbudgeted placement
//!   within a bounded number of cycles.
//! * **Accessed-set fetch** — the dirty-set index serves the cycle's
//!   accessed set with class tags, scanning only touched entries, never
//!   the unmodified rows.
//! * **Churn** — deleted objects leave no statistics behind: the footprint
//!   stays bounded by live objects + known classes (+ recent dirty
//!   buckets).

use scalia::core::decision::{self, DecisionPeriodController};
use scalia::engine::infra::SAMPLING_PERIOD;
use scalia::metastore::model::Timestamp;
use scalia::metastore::stats::MAX_CLASS_SAMPLES;
use scalia::metastore::store::Rows;
use scalia::prelude::*;
use scalia::types::ids::DatacenterId;
use scalia::types::time::Duration;
use std::collections::HashMap;

fn rule() -> StorageRule {
    StorageRule::new(
        "class-pipeline",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// Per-object placement identity: `(m, sorted provider ids)` for every key.
fn placements_of(cluster: &ScaliaCluster, keys: &[ObjectKey]) -> Vec<(u32, Vec<u32>)> {
    keys.iter()
        .map(|key| {
            let meta = cluster.engine(0).read_metadata(key).unwrap();
            let providers = meta.striping.provider_set().iter().map(|p| p.0).collect();
            (meta.striping.m(), providers)
        })
        .collect()
}

/// The per-object oracle: one unforced optimisation cycle over `keys`,
/// deciding each object alone from its own history — trend detection, the
/// decision-period bound, `decision::decide` with adaptation and the
/// migration gate — and migrating inline. `controllers` holds each object's
/// decision-period controller across cycles.
fn per_object_cycle(
    cluster: &ScaliaCluster,
    keys: &[ObjectKey],
    controllers: &mut HashMap<String, DecisionPeriodController>,
) -> OptimizationReport {
    let engine = cluster.engine(0);
    let infra = cluster.infra();
    let sampling = SAMPLING_PERIOD;
    let mut report = OptimizationReport {
        leader: engine.id(),
        objects_considered: keys.len(),
        ..OptimizationReport::default()
    };
    for key in keys {
        let meta = engine.read_metadata(key).unwrap();
        let history = engine.history(key);
        if !TrendDetector::default().detect(&history.ops_series(history.len())) {
            continue;
        }
        report.trend_changes += 1;
        let class = ObjectClass::of(&meta.mime, meta.size);
        let lifetimes = infra
            .statistics(DatacenterId::new(0))
            .class_lifetimes(class.id());
        let remaining = (meta.ttl_hint_hours.is_none() && !lifetimes.is_empty())
            .then(|| {
                LifetimeDistribution::from_samples(lifetimes)
                    .expected_remaining(infra.now().since(meta.written_at).as_hours())
            })
            .flatten();
        let bound = decision::period_bound(
            meta.ttl_hint_hours,
            remaining,
            history.len(),
            sampling,
            Duration::from_hours(24),
        );
        let controller = controllers.entry(key.row_key()).or_insert_with(|| {
            DecisionPeriodController::new(Duration::from_hours(24), sampling, 4096)
        });
        let decided = decision::decide(
            controller,
            Some(bound),
            meta.size,
            &history,
            sampling,
            |usage| {
                infra
                    .best_placement_cached(&PlacementEngine::new(), &meta.rule, class.id(), usage)
                    .ok()
            },
        );
        let Some((usage, chosen)) = decided else {
            continue;
        };
        report.searches_executed += 1;
        report.objects_covered += 1;
        report.placements_recomputed += 1;
        let current = Placement {
            providers: meta
                .striping
                .provider_set()
                .into_iter()
                .filter_map(|p| infra.catalog().get(p))
                .collect(),
            m: meta.striping.m(),
        };
        let Some(plan) = decision::migration(
            current,
            chosen.placement,
            chosen.expected_cost,
            &usage,
            meta.rule.latency_weight,
        ) else {
            continue;
        };
        if engine.replace_placement(key, &plan.to).is_ok() {
            report.migrations_executed += 1;
            report.bytes_migrated += plan.bytes_moved(meta.size);
        }
    }
    report
}

/// An 8-hour ramp: quiet, then a surge — a history shorter than `D/2`.
const SHORT_RAMP: [u64; 8] = [0, 0, 0, 0, 2, 10, 60, 120];

/// 29 quiet hours, then a surge: a history longer than `D/2`, so the
/// decision-period adjustment picks a window other than the default and
/// a sweep that skipped it would land the surge elsewhere.
fn long_ramp() -> Vec<u64> {
    let mut ramp = vec![0u64; 29];
    ramp.extend([2, 10, 60, 120]);
    ramp
}

/// Builds a deployment of six singleton classes (unique MIME per object):
/// three following `ramp` hour over hour, three steady at 5 reads/h — then
/// runs one optimisation cycle, the class sweep or the per-object oracle.
/// The scenario is fully deterministic, so any two invocations agree
/// operation for operation.
fn run_singleton_cycle(ramp: &[u64], oracle: bool) -> (OptimizationReport, Vec<(u32, Vec<u32>)>) {
    let cluster = ScaliaCluster::builder().build();
    let keys: Vec<ObjectKey> = (0..6)
        .map(|i| ObjectKey::new("diff", format!("obj{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        cluster
            .put(
                key,
                vec![i as u8 + 1; 400_000],
                &format!("app/type-{i}"),
                rule(),
                None,
            )
            .unwrap();
    }
    // Drain the insertion marks, so the measured cycle sees only the ramp.
    cluster.run_optimization(false);

    for (hour, &surge) in ramp.iter().enumerate() {
        for key in &keys[..3] {
            for _ in 0..surge {
                cluster.get(key).unwrap();
            }
        }
        for key in &keys[3..] {
            for _ in 0..5 {
                cluster.get(key).unwrap();
            }
        }
        cluster.tick(SimTime::from_hours(hour as u64 + 1));
    }

    let report = if oracle {
        per_object_cycle(&cluster, &keys, &mut HashMap::new())
    } else {
        cluster.run_optimization(false)
    };
    (report, placements_of(&cluster, &keys))
}

/// Runs the class sweep and the oracle over `ramp` and checks they agree.
fn assert_singleton_differential(ramp: &[u64]) {
    let (class_report, class_placements) = run_singleton_cycle(ramp, false);
    let (object_report, object_placements) = run_singleton_cycle(ramp, true);

    // The scenario is non-trivial: the three ramps must be detected and
    // searched; the three steady objects must not be.
    assert_eq!(class_report.objects_considered, 6);
    assert_eq!(class_report.trend_changes, 3);
    assert_eq!(class_report.searches_executed, 3);
    assert_eq!(class_report.objects_covered, 3);

    assert_eq!(
        class_report, object_report,
        "singleton classes must reproduce the per-object report exactly"
    );
    assert_eq!(
        class_placements, object_placements,
        "singleton classes must land every object on the per-object placement"
    );
}

#[test]
fn singleton_classes_reproduce_the_per_object_sweep_bit_for_bit() {
    assert_singleton_differential(&SHORT_RAMP);
}

#[test]
fn singleton_differential_covers_the_decision_period_adjustment() {
    assert_singleton_differential(&long_ramp());
}

/// The pool is gone, so "pool size" here is how many threads run the
/// cycle at once: 1, 2 and 8 concurrent deployments, each on its own
/// thread, must all reproduce the per-object oracle and agree with each
/// other — the cycle reads no state shared across deployments.
#[test]
fn singleton_differential_holds_at_every_pool_size() {
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 8] {
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        (
                            run_singleton_cycle(&SHORT_RAMP, false),
                            run_singleton_cycle(&SHORT_RAMP, true),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (class_run, object_run) in &runs {
            assert_eq!(class_run, object_run, "differential at pool={workers}");
        }
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "concurrent runs disagree at pool={workers}"
        );
        outcomes.push(runs[0].0.clone());
    }
    assert_eq!(outcomes[0], outcomes[1], "pool=1 vs pool=2");
    assert_eq!(outcomes[0], outcomes[2], "pool=1 vs pool=8");
}

/// Six same-class objects, a drastically cheaper provider appears, and the
/// per-cycle byte budget admits exactly one migration per cycle: the tail
/// is deferred — never dropped — and the deployment converges to the
/// unbudgeted placement within one cycle per object.
#[test]
fn tight_budget_defers_and_converges_to_the_unbudgeted_placement() {
    let build = |budget: MigrationBudget| {
        let cluster = ScaliaCluster::builder().migration_budget(budget).build();
        let keys: Vec<ObjectKey> = (0..6)
            .map(|i| ObjectKey::new("budget", format!("obj{i}")))
            .collect();
        for key in &keys {
            cluster
                .put(
                    key,
                    vec![7u8; 2_000_000],
                    "application/x-tar",
                    rule().with_lockin(0.5),
                    None,
                )
                .unwrap();
        }
        cluster.run_optimization(false);
        cluster.tick(SimTime::from_hours(1));
        // A provider so cheap every object should move to it.
        cluster.infra().register_provider(
            scalia::providers::descriptor::ProviderDescriptor::public(
                scalia::types::ids::ProviderId::new(0),
                "UltraCheap",
                "practically free storage",
                scalia::providers::sla::ProviderSla::from_percent(99.9999, 99.9),
                scalia::providers::pricing::PricingPolicy::from_dollars(0.001, 0.0, 0.01, 0.0),
                ZoneSet::all(),
            ),
        );
        (cluster, keys)
    };

    let (unbudgeted, keys) = build(MigrationBudget::UNLIMITED);
    let free_run = unbudgeted.run_optimization(true);
    assert_eq!(free_run.migrations_executed, 6, "everything moves at once");
    assert_eq!(free_run.migrations_deferred, 0);
    let target = placements_of(&unbudgeted, &keys);

    // One byte of budget: the ledger admits exactly one migration per
    // cycle (the first admission is always granted), defers the rest.
    let (budgeted, keys_b) = build(MigrationBudget::default().with_max_bytes(1));
    let first = budgeted.run_optimization(true);
    assert_eq!(first.migrations_executed, 1, "budget admits one per cycle");
    assert_eq!(first.migrations_deferred, 5, "the tail is deferred");
    assert_eq!(budgeted.deferred_migrations(), 5);

    let mut executed_total = first.migrations_executed;
    let mut cycles = 1;
    while budgeted.deferred_migrations() > 0 {
        assert!(cycles < 10, "budget backlog must converge, not live-lock");
        let report = budgeted.run_optimization(false);
        assert!(
            report.migrations_executed >= 1,
            "every cycle makes progress on the backlog"
        );
        executed_total += report.migrations_executed;
        cycles += 1;
    }
    assert_eq!(cycles, 6, "one admitted migration per cycle, six objects");
    assert_eq!(executed_total, 6, "deferrals are executed exactly once");
    assert_eq!(
        placements_of(&budgeted, &keys_b),
        target,
        "the budgeted deployment converges to the unbudgeted placement"
    );
}

/// The accessed-set fetch is served by the dirty-set index: class-tagged,
/// deduplicated, and proportional to the touched set — not to the rows
/// stored.
#[test]
fn accessed_set_fetch_touches_only_accessed_objects() {
    let cluster = ScaliaCluster::builder().build();
    for i in 0..300 {
        cluster
            .put(
                &ObjectKey::new("cold", format!("obj{i}")),
                vec![1u8; 10_000],
                "image/png",
                rule(),
                None,
            )
            .unwrap();
    }
    cluster.tick(SimTime::from_hours(1));
    cluster.run_optimization(false); // drain + prune the insertion marks

    // Touch three objects; everything else stays cold. The touches are
    // flushed by the hour-2 tick, so their dirty marks land in (and a fetch
    // from) the hour-2 bucket — the hour-1 bucket holds only the previous
    // window's marks.
    let since = Timestamp::new(SimTime::from_hours(2).secs(), 0);
    for i in 0..3 {
        cluster
            .get(&ObjectKey::new("cold", format!("obj{i}")))
            .unwrap();
    }
    cluster.tick(SimTime::from_hours(2));

    let stats = cluster
        .infra()
        .statistics(scalia::types::ids::DatacenterId::new(0));
    let (entries, scanned) = stats.objects_accessed_since_classified(since);
    assert_eq!(entries.len(), 3, "exactly the touched objects");
    assert!(
        entries.iter().all(|(_, class)| class.is_some()),
        "every dirty entry must carry its class tag"
    );
    assert!(
        scanned <= 3 * 4,
        "fetch scanned {scanned} index cells for 3 touched objects among 300"
    );

    let report = cluster.run_optimization(false);
    assert_eq!(report.objects_considered, 3);
    assert!(report.searches_executed <= 1, "three members of one class");
}

/// Churn leaves nothing behind: after objects die, the statistics footprint
/// is bounded by live objects + known classes (+ the most recent dirty
/// buckets), no matter how many objects have come and gone.
#[test]
fn statistics_footprint_is_bounded_under_churn() {
    let cluster = ScaliaCluster::builder().build();
    let mimes = ["image/png", "image/jpeg", "application/pdf", "text/html"];
    let mut hour = 0u64;

    // Three generations of 40 objects each: write, access, delete.
    for generation in 0..3 {
        let keys: Vec<ObjectKey> = (0..40)
            .map(|i| ObjectKey::new("churn", format!("g{generation}-obj{i}")))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            cluster
                .put(key, vec![1u8; 30_000], mimes[i % mimes.len()], rule(), None)
                .unwrap();
        }
        for _ in 0..2 {
            hour += 1;
            for key in &keys {
                cluster.get(key).unwrap();
            }
            cluster.tick(SimTime::from_hours(hour));
        }
        cluster.run_optimization(false);
        for key in &keys {
            cluster.delete(key).unwrap();
        }
    }
    // A couple of idle periods so consumed dirty buckets get pruned.
    for _ in 0..2 {
        hour += 1;
        cluster.tick(SimTime::from_hours(hour));
        cluster.run_optimization(false);
    }

    let node = &cluster.infra().database().nodes()[0];
    let rows = |prefix: &str| {
        let mut count = 0;
        node.visit(Rows::Prefix(prefix), |_| count += 1);
        count
    };
    let obj_rows = rows("stats:obj:");
    assert_eq!(
        obj_rows, 0,
        "per-object statistics of deleted objects remain"
    );
    let class_rows = rows("stats:class:");
    assert_eq!(class_rows, mimes.len(), "one row per known class, ever");
    let dirty_rows = rows("stats:dirty:");
    assert!(
        dirty_rows <= 2,
        "stale dirty buckets must be pruned ({dirty_rows} rows)"
    );
    // Per-class samples stay capped even though 30 objects per class died.
    node.visit(Rows::Prefix("stats:class:"), |class_row| {
        let columns = |prefix| class_row.latest_with_prefix(prefix).count();
        assert!(columns("lifetime:") <= MAX_CLASS_SAMPLES);
        assert!(columns("usage:") <= MAX_CLASS_SAMPLES);
        // Rollup deltas: bounded by flushes × periods touched, far below
        // one column per dead member.
        assert!(columns("p:") <= 2 * hour as usize);
    });
}
