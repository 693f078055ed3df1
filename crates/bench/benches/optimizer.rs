//! The class-centric optimisation pipeline at scale: one full optimisation
//! cycle over **10 000 objects in 32 classes** — accessed-set fetch, trend
//! detection, placement search and migration gating — class-grouped
//! (`engine/optimization_cycle/class`) vs the per-object baseline
//! (`engine/optimization_cycle/per_object`).
//!
//! The class pipeline fetches the accessed set from the dirty-set index
//! (range scan, O(touched)), runs **one** trend detection and **one**
//! placement search per class (32 total, asserted via
//! `OptimizationReport::searches_executed`), and maps each decision onto
//! its members; the baseline scans every row's last-modified timestamp and
//! runs per-object history reads, decision-period control and searches —
//! 10 000 of each. Accesses are injected straight into the engines' log
//! agents so the measured cycle is the optimisation pipeline, not client
//! I/O.

use criterion::{criterion_group, criterion_main, Criterion};
use scalia_engine::cluster::ScaliaCluster;
use scalia_metastore::logagg::{AccessKind, AccessLogRecord, LogAggregator};
use scalia_types::object::ObjectKey;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::time::SimTime;
use scalia_types::zone::ZoneSet;

const OBJECTS: usize = 10_000;
const CLASSES: usize = 32;
const OBJECT_BYTES: usize = 16 * 1024;

fn rule() -> StorageRule {
    StorageRule::new(
        "bench",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

fn mime_of(i: usize) -> String {
    format!("bench/class-{:02}", i % CLASSES)
}

/// Builds a cluster holding `OBJECTS` objects across `CLASSES` classes with
/// **48 periods** (two days of hourly samples) of steady access history —
/// a realistic steady-state working set, so both arms are measured against
/// the same mature statistics tables instead of the unrepresentatively
/// cheap first hours of a deployment. Returns the cluster, the pre-computed
/// metadata row keys and the first free hour.
const WARM_PERIODS: u64 = 48;

fn populated_cluster() -> (ScaliaCluster, Vec<(String, ByteSize)>, u64) {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(2)
        .build();
    let payload = vec![7u8; OBJECT_BYTES];
    let mut rows = Vec::with_capacity(OBJECTS);
    for i in 0..OBJECTS {
        let key = ObjectKey::new("bench", format!("obj-{i:05}"));
        cluster
            .put(&key, payload.clone(), &mime_of(i), rule(), None)
            .unwrap();
        rows.push((key.row_key(), ByteSize::from_bytes(OBJECT_BYTES as u64)));
    }
    let mut hour = 0u64;
    for _ in 0..WARM_PERIODS {
        hour += 1;
        inject_reads(&cluster, &rows, hour - 1);
        advance_and_flush(&cluster, hour);
    }
    (cluster, rows, hour)
}

/// Advances the clock and flushes the access-log pipeline into the
/// statistics tables — the slice of `ScaliaCluster::tick` an optimisation
/// cycle depends on. The rest of the tick (repair-queue drain, database
/// anti-entropy) has nothing to do on this healthy single-node deployment.
fn advance_and_flush(cluster: &ScaliaCluster, hour: u64) {
    cluster.infra().advance_clock(SimTime::from_hours(hour));
    let agents = (0..cluster.engine_count())
        .map(|i| cluster.engine(i).log_agent().clone())
        .collect();
    let stats = cluster
        .infra()
        .statistics(scalia_types::ids::DatacenterId::new(0));
    LogAggregator::new(agents).flush(&stats, cluster.infra().next_timestamp());
    stats.gc_statistics(cluster.infra().current_period());
}

/// Logs one read per object into the engines' log agents (what the data
/// path would do), to be flushed by the next tick.
fn inject_reads(cluster: &ScaliaCluster, rows: &[(String, ByteSize)], period: u64) {
    let engine = cluster.engine(0);
    let agent = engine.log_agent();
    for (row_key, size) in rows {
        agent.log(AccessLogRecord {
            engine: engine.id(),
            object_row_key: row_key.clone(),
            period,
            kind: AccessKind::Read,
            bytes: *size,
            object_size: *size,
        });
    }
}

fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/optimization_cycle");
    group.sample_size(10);

    // `iter_custom` so each measured iteration times ONLY the optimisation
    // cycle: the access injection and the log-aggregation flush that feed
    // it are per-iteration setup shared identically by both arms (and
    // already covered by the metastore benches).
    group.bench_function(format!("class_{OBJECTS}x{CLASSES}"), |b| {
        let (cluster, rows, mut hour) = populated_cluster();
        b.iter_custom(|_iters| {
            hour += 1;
            inject_reads(&cluster, &rows, hour - 1);
            advance_and_flush(&cluster, hour);
            let start = std::time::Instant::now();
            let report = cluster.run_optimization(true);
            let elapsed = start.elapsed();
            assert_eq!(report.objects_considered, OBJECTS);
            assert!(
                report.searches_executed <= CLASSES,
                "{} searches for {CLASSES} classes",
                report.searches_executed
            );
            assert_eq!(report.objects_covered, OBJECTS);
            elapsed
        })
    });

    group.bench_function(format!("per_object_{OBJECTS}x{CLASSES}"), |b| {
        let (cluster, rows, mut hour) = populated_cluster();
        b.iter_custom(|_iters| {
            hour += 1;
            inject_reads(&cluster, &rows, hour - 1);
            advance_and_flush(&cluster, hour);
            let start = std::time::Instant::now();
            let report = cluster.run_optimization_per_object(true);
            let elapsed = start.elapsed();
            assert_eq!(report.objects_considered, OBJECTS);
            elapsed
        })
    });

    group.finish();
}

criterion_group!(benches, bench_optimizer);
criterion_main!(benches);
