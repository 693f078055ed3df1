//! The four workloads and what they share: repeated set-up, the correctness
//! tally, and turning counters and ledger stages into named metrics.
//!
//! Names are fixed; later issues cite them. Each timed phase is a fixed,
//! seeded op count that `--seconds` scales linearly: the constants below
//! were sized so that, at the commit that added the benchmark and on the
//! 2-core box it was written on, the timed phase lasts about `--seconds`.
//! A faster program finishes the same ops sooner; the op count does not
//! follow the clock, so every deterministic metric stays a pure function of
//! `(seed, seconds)`.

pub mod adaptive_week;
pub mod large_stream;
pub mod small_cold;
pub mod tenant_traffic;

use crate::ledger::Ledger;
use crate::report::{Metric, Report};
use crate::stats::{median_f64, summarize, Sliced, Summary};
use crate::sut::{self, Counters, Sut};
use crate::trace::{timed, Tracer};
use std::collections::BTreeMap;

pub const NAMES: [&str; 4] = [
    "small_cold",
    "large_stream",
    "tenant_traffic",
    "adaptive_week",
];

/// `--seconds` of `run` without `--seconds` or `--smoke`: the `run_seconds`
/// of `BENCHMARK.json`, half the size issue 11 drew its workloads at.
pub const DEFAULT_SECONDS: u32 = 10;

/// `--smoke`: a twentieth of the issue's size; the whole set takes seconds.
pub const SMOKE_SECONDS: u32 = 1;

/// Set-up runs this many times per run and `setup_s` is the median, so one
/// slow allocation does not move it.
pub const SETUPS: usize = 3;

/// Share of a timed phase's ops that run first, untimed, inside set-up.
pub const WARM_UP_SHARE: f64 = 0.05;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
}

/// A finished run: what it reports and the spans it kept (none untraced).
pub struct Finished {
    pub report: Report,
    pub tracer: Tracer,
}

/// Runs one workload in this process. `None` for an unknown name.
pub fn run(args: &Args) -> Option<Finished> {
    let finished = match args.workload.as_str() {
        "small_cold" => small_cold::run(args),
        "large_stream" => large_stream::run(args),
        "tenant_traffic" => tenant_traffic::run(args),
        "adaptive_week" => adaptive_week::run(args),
        _ => return None,
    };
    Some(finished)
}

/// Runs `setup` [`SETUPS`] times, dropping each state before building the
/// next, and returns the last state with the median set-up time in seconds.
pub fn setup_median<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let (built, _, ns) = timed(&mut setup);
        seconds.push(ns as f64 / 1e9);
        state = Some(built);
    }
    (state.expect("SETUPS > 0"), median_f64(&mut seconds))
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not offer it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Op-span samples by op class.
#[derive(Default)]
pub struct Latencies(BTreeMap<&'static str, Vec<u64>>);

impl Latencies {
    pub fn add(&mut self, class: &'static str, ns: u64) {
        self.0.entry(class).or_default().push(ns);
    }

    pub fn summary(&mut self, class: &str) -> Option<Summary> {
        self.0.get_mut(class).and_then(|s| summarize(s))
    }
}

/// What the correctness checks found.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Unexpected errors and wrong bytes.
    pub failed: u64,
    /// Ops the front end's admission control refused.
    pub rejected: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// One op that returned an unexpected error or wrong bytes.
    pub fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.problems.push(what());
        }
    }

    /// An end-of-run check that did not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }

    pub fn failed_op_share(&self) -> f64 {
        (self.failed + self.rejected) as f64 / self.attempted.max(1) as f64
    }
}

/// Counts only one workload produces; zero elsewhere because the layer did
/// no work there.
#[derive(Default)]
pub struct LayerCounts {
    /// Provider-served `get` and `get_range` ops of the timed phase.
    pub cold_reads: u64,
    pub peak_buffer_bytes: u64,
    pub optimizer_searches: u64,
    pub optimizer_migrations: u64,
    pub optimizer_bytes_migrated: u64,
    pub optimizer_deferred: u64,
    pub repair_repaired: u64,
    pub gc_orphans: u64,
    pub rejected_queue: u64,
    pub rejected_deadline: u64,
    pub sla_violations: u64,
    pub peak_queued: u64,
}

/// The end-to-end metrics every workload reports. Latency summaries may be
/// `None` only when the sizing left a class without a single op.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    /// What `sliced` counts as an op: client ops, trace ops or hourly cycles.
    pub ops: u64,
    pub sliced: &'a Sliced,
    pub put: Option<Summary>,
    pub get: Option<Summary>,
    pub range: Option<Summary>,
    pub stored_bytes: u64,
    pub live_user_bytes: u64,
    pub tally: &'a Tally,
}

pub fn end_to_end(e: EndToEnd) -> Vec<Metric> {
    let ops = e.ops;
    let mut metrics = vec![
        Metric::wall("setup_s", e.setup_s, "s", SETUPS as u64),
        Metric::wall("ops_per_s", e.sliced.ops_per_s(), "1/s", ops),
    ];
    for (name, summary) in [
        ("put_p50_us", e.put),
        ("get_p50_us", e.get),
        ("range_p50_us", e.range),
    ] {
        metrics.extend(Metric::latency(name, summary, "us", 1e3));
    }
    metrics.push(Metric::wall(
        "loop_wall_s",
        e.sliced.busy_ns() as f64 / 1e9,
        "s",
        ops,
    ));
    metrics.push(Metric::exact(
        "failed_op_share",
        e.tally.failed_op_share(),
        "share",
        e.tally.attempted,
    ));
    metrics.push(Metric::exact(
        "stored_bytes_per_user_byte",
        e.stored_bytes as f64 / e.live_user_bytes.max(1) as f64,
        "B/B",
        1,
    ));
    metrics.push(Metric::wall("peak_rss_mib", peak_rss_mib(), "MiB", 1));
    metrics
}

/// Per-layer counts: deltas of the program's public counters over the timed
/// phase (levels where a delta means nothing). Exact in both runs.
pub fn layer_counts(before: &Counters, after: &Counters, extra: &LayerCounts) -> Vec<Metric> {
    let count = |name: &str, value: u64| Metric::exact(name, value as f64, "count", 1);
    let chunk_gets = after.chunk_gets - before.chunk_gets;
    vec![
        count("providers.chunk_puts", after.chunk_puts - before.chunk_puts),
        count("providers.chunk_gets", chunk_gets),
        count(
            "providers.chunk_deletes",
            after.chunk_deletes - before.chunk_deletes,
        ),
        Metric::exact("providers.stored_bytes", after.stored_bytes as f64, "B", 1),
        Metric::exact(
            "providers.billed_usd",
            after.billed_usd - before.billed_usd,
            "usd",
            1,
        ),
        Metric::exact(
            "providers.chunk_gets_per_cold_read",
            chunk_gets as f64 / extra.cold_reads.max(1) as f64,
            "ratio",
            extra.cold_reads,
        ),
        count(
            "metastore.journal_records",
            after.journal_records - before.journal_records,
        ),
        count("metastore.rows", after.rows),
        count("metastore.pending_hints", after.pending_hints),
        Metric::exact(
            "engine.peak_buffer_bytes",
            extra.peak_buffer_bytes as f64,
            "B",
            1,
        ),
        count("engine.cache.hits", after.cache_hits - before.cache_hits),
        count(
            "engine.cache.misses",
            after.cache_misses - before.cache_misses,
        ),
        count(
            "engine.placement_cache.hits",
            after.placement_hits - before.placement_hits,
        ),
        count(
            "engine.placement_cache.misses",
            after.placement_misses - before.placement_misses,
        ),
        count("engine.optimizer.searches", extra.optimizer_searches),
        count("engine.optimizer.migrations", extra.optimizer_migrations),
        count(
            "engine.optimizer.bytes_migrated",
            extra.optimizer_bytes_migrated,
        ),
        count("engine.optimizer.deferred", extra.optimizer_deferred),
        count("engine.repair.repaired", extra.repair_repaired),
        count("engine.gc.orphans", extra.gc_orphans),
        count("engine.pending_deletes", after.pending_deletes),
        count("frontend.rejected_queue", extra.rejected_queue),
        count("frontend.rejected_deadline", extra.rejected_deadline),
        count("frontend.sla_violations", extra.sla_violations),
        count("frontend.peak_queued", extra.peak_queued),
        count("rayon.pool_workers", sut::pool_workers() as u64),
    ]
}

/// Per-layer times of a traced run: the ledger's replayed stages and the
/// root spans by op class.
pub fn layer_times(ledger: &mut Ledger, lat: &mut Latencies) -> Vec<Metric> {
    let mut metrics = Vec::new();
    for (name, stage) in [
        ("types.md5.ns_per_byte", "md5_hex"),
        ("erasure.encode.ns_per_byte", "encode_object"),
        ("erasure.decode.ns_per_byte", "decode_object"),
        ("erasure.decode_parity.ns_per_byte", "decode_object_parity"),
    ] {
        let (value, samples) = ledger.ns_per_byte(stage);
        metrics.push(Metric::wall(name, value, "ns/B", samples));
    }
    let (per_byte, samples) = ledger.ns_per_byte("cache_hit");
    metrics.push(Metric::wall(
        "engine.cache.get.ns_per_kib",
        per_byte * 1024.0,
        "ns/KiB",
        samples,
    ));
    for (name, stage, unit, ns_per_unit) in [
        ("erasure.decode_range.us", "decode_object_range", "us", 1e3),
        ("providers.timed_put.us", "timed_put", "us", 1e3),
        ("providers.timed_get.us", "timed_get", "us", 1e3),
        ("metastore.transaction.us", "transaction", "us", 1e3),
        ("metastore.get_latest.ns", "get_latest", "ns", 1.0),
        ("serde_json.meta_to_value.us", "to_value", "us", 1e3),
        ("serde_json.meta_from_value.us", "from_value", "us", 1e3),
        ("core.placement.search.us", "best_placement", "us", 1e3),
    ] {
        // Every workload reports these; a smoke-sized run that replayed no
        // op of the needed class says so with n=0.
        metrics.push(
            Metric::latency(name, ledger.summary(stage), unit, ns_per_unit)
                .unwrap_or_else(|| Metric::wall(name, 0.0, unit, 0)),
        );
    }
    for (class, everywhere) in [
        ("put", true),
        ("get_cold", true),
        ("get_warm", false),
        ("range_cold", true),
        ("range_warm", false),
        ("delete", false),
        ("list", false),
        ("put_part", false),
        ("complete_put", false),
    ] {
        let name = format!("engine.{class}.p50_us");
        let metric = Metric::latency(&name, lat.summary(class), "us", 1e3);
        metrics.extend(metric.or_else(|| everywhere.then(|| Metric::wall(&name, 0.0, "us", 0))));
    }
    for class in ["put", "get_cold"] {
        let (share, samples) = ledger.self_share(class);
        metrics.push(Metric::wall(
            &format!("engine.{class}.self_share"),
            share,
            "share",
            samples,
        ));
    }
    metrics
}

/// Everything a workload hands over once its own end-of-run checks are done.
pub struct Finish<'a> {
    pub workload: &'static str,
    pub args: &'a Args,
    pub sut: &'a Sut,
    pub end_to_end: Vec<Metric>,
    pub before: Counters,
    pub after: Counters,
    pub extra: LayerCounts,
    pub tally: Tally,
    /// What the workload's end-of-run checks found.
    pub end: Tally,
    /// Per-layer metrics only this workload has, reported by both runs.
    pub own_layer: Vec<Metric>,
    /// `(metric, op class, unit, ns per unit)` of the workload's own spans,
    /// reported by the traced run.
    pub own_times: &'a [(&'static str, &'static str, &'static str, f64)],
    pub ledger: Option<Ledger>,
    pub lat: Latencies,
    pub tracer: Tracer,
}

/// Closes a run: the orphan sweep — the last check, on a quiescent cluster
/// with every provider up — then counters and, traced, ledger stages turned
/// into per-layer metrics.
pub fn finish(mut f: Finish) -> Finished {
    f.extra.gc_orphans = f.sut.sweep_orphans();
    f.end.check(f.extra.gc_orphans == 0, || {
        format!("gc sweep found {} orphan chunks", f.extra.gc_orphans)
    });
    f.tally.failed += f.end.failed;
    f.tally.problems.append(&mut f.end.problems);

    let mut per_layer = layer_counts(&f.before, &f.after, &f.extra);
    per_layer.append(&mut f.own_layer);
    if let Some(ledger) = f.ledger.as_mut() {
        per_layer.extend(layer_times(ledger, &mut f.lat));
        for &(name, class, unit, ns_per_unit) in f.own_times {
            per_layer.extend(Metric::latency(
                name,
                f.lat.summary(class),
                unit,
                ns_per_unit,
            ));
        }
    }
    Finished {
        report: Report {
            workload: f.workload,
            seed: f.args.seed,
            seconds: f.args.seconds,
            traced: f.args.traced,
            end_to_end: f.end_to_end,
            per_layer,
            attempted: f.tally.attempted,
            failed: f.tally.failed,
            problems: f.tally.problems,
        },
        tracer: f.tracer,
    }
}
