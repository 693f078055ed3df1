//! `tenant_traffic`: the front end under a flash crowd — an open loop in
//! virtual time.
//!
//! `sim::traffic::traffic_cluster` (1 DC × 2 engines, latency catalog), 32 MB
//! cache, 8 lanes, queues 2048/512. Tenant `web` (weight 3, SLA 400 ms,
//! 2 000 × 16 KiB, Zipf 1.0, read-heavy) runs at 600 ops/s with a flash
//! crowd of 1 500 ops/s for a sixth of the horizon; tenant `batch` (weight
//! 1, 500 × 64 KiB, Zipf 0.5, 60 % put) runs at 80 ops/s. One seeded
//! provider is down for a fifteenth of the horizon and the cluster ticks
//! fifteen times. The horizon is 7.5 virtual seconds per `--seconds` (75 s ≈
//! 62 k ops at `--seconds 10`).
//!
//! Issue 11 also put a `PriceDrop` (CheapStor registers, forced
//! optimisation) after the outage. It is left out: its mass migration runs
//! on the rayon pool against the latency catalog, where the hedge deadline
//! a read sees depends on which of the other threads' latency samples have
//! landed, and the run stops being a function of the seed (README,
//! "Determinism"). `adaptive_week` keeps the new-provider migration, on the
//! catalog without latency models, where it repeats exactly.
//!
//! Arrivals are scheduled by `generate_trace`; latency counts from the
//! scheduled arrival and generator lateness is 0 by construction. Hot Zipf
//! keys are served from cache behind admission, DRR and the virtual-time
//! executor, so `frontend`, `engine::cache`, hedging and the failure
//! detector do the work and the data path little. The base rate is under
//! capacity, the burst is over it, so queueing shows as virtual latency
//! that does not depend on host speed.
//!
//! The driver replays with its own loop over `FrontendService::{submit,
//! advance_to, drain, report, outcomes}` — the loop of
//! `sim::traffic::replay_trace_on`, with `advance_to(arrival)` split out of
//! each `submit` so each call carries its own span — and a unit test holds
//! the two loops to the same `FrontendReport::digest`. Put payloads are the
//! front end's own `fill × size`; this is the one workload whose payloads
//! the benchmark does not cut from its pool.

use super::small_cold::check_read;
use super::{
    end_to_end, finish, setup_median, Args, EndToEnd, Finish, Finished, Latencies, LayerCounts,
    Tally, WARM_UP_SHARE,
};
use crate::ledger::{Ledger, Root};
use crate::report::Metric;
use crate::rng::Rng;
use crate::stats::{percentile, summarize, Sliced};
use crate::sut::{
    self, fill_byte, generate_trace, object_key, ArrivalPattern, ByteSize, Bytes, FrontendConfig,
    FrontendReport, FrontendService, ObjectKey, OpKind, OpStatus, ProviderId, S3Op, ScaliaError,
    Shadow, SubmitOutcome, Sut, TenantId, TenantSpec, TraceOp, TrafficEvent, TrafficSpec,
    OCTET_STREAM,
};
use crate::trace::{timed, Tracer};
use std::time::Instant;

/// Virtual µs of trace per `--seconds`.
const VIRTUAL_US_PER_SECOND: u64 = 7_500_000;
const TICKS: u64 = 15;
const WEB: usize = 0;
const WEB_SLA_US: u64 = 400_000;
/// Replay every 25th op of a class that ran inside its own `submit`.
const REPLAY_EVERY: u64 = 25;
const PROBE_EVERY: u64 = 8;

/// The scenario: a pure function of `(seed, seconds)`.
pub fn spec(seed: u64, seconds: u32) -> TrafficSpec {
    let horizon_us = VIRTUAL_US_PER_SECOND * seconds as u64;
    let burst_from = horizon_us * 2 / 5;
    let outage_from = horizon_us * 7 / 10;
    let mut rng = Rng::new(seed, 0x7465_6e61);
    TrafficSpec {
        name: "tenant_traffic".into(),
        seed,
        horizon_us,
        slot_us: 10_000,
        tenants: vec![
            TenantSpec {
                name: "web".into(),
                weight: 3,
                sla_us: WEB_SLA_US,
                objects: 2_000,
                object_size: 16 * 1024,
                zipf_s: 1.0,
                mix: sut::OpMix::read_heavy(),
                arrivals: ArrivalPattern::FlashCrowd {
                    base_ops_per_sec: 600.0,
                    burst_ops_per_sec: 1_500.0,
                    from_us: burst_from,
                    to_us: burst_from + horizon_us / 6,
                },
            },
            TenantSpec {
                name: "batch".into(),
                weight: 1,
                sla_us: 0,
                objects: 500,
                object_size: 64 * 1024,
                zipf_s: 0.5,
                mix: sut::OpMix {
                    get: 0.35,
                    get_range: 0.04,
                    put: 0.60,
                    delete: 0.005,
                    list: 0.005,
                },
                arrivals: ArrivalPattern::Uniform { ops_per_sec: 80.0 },
            },
        ],
        events: vec![TrafficEvent::Outage {
            provider_index: rng.below(5) as usize,
            from_us: outage_from,
            to_us: outage_from + horizon_us / 15,
        }],
        tick_every_us: horizon_us / TICKS,
        frontend: FrontendConfig {
            lanes: 8,
            max_queue_depth: 2_048,
            max_tenant_queue: 512,
            deadline_us: 0,
            quantum: 1,
            base_service_us: 100,
            record_outcomes: true,
        },
        cache_capacity: ByteSize::from_mb(32),
        prepopulate: true,
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Down(usize),
    Up(usize),
    Tick,
}

/// One trace op as the driver saw it.
struct Step {
    start: Instant,
    advance_ns: u64,
    submit_start: Instant,
    submit_ns: u64,
    /// Op class, when a `web` op ran inside its own `submit`: the queue was
    /// empty before and after and the one outcome recorded is this op's,
    /// completed.
    immediate: Option<&'static str>,
}

/// The driver's replay loop and everything it replays on.
struct Replay {
    sut: Sut,
    frontend: FrontendService,
    tenants: Vec<TenantId>,
    providers: Vec<ProviderId>,
    events: Vec<(u64, Event)>,
    next_event: usize,
    /// `(start, ns)` of each `tick` since the last take.
    ticks: Vec<(Instant, u64)>,
}

impl Replay {
    /// Builds the deployment and the front end and writes every tenant's
    /// object set, as `replay_trace_on` does before its first op.
    fn new(spec: &TrafficSpec) -> Replay {
        let (sut, providers) = Sut::traffic_cluster(spec);
        let (mut frontend, tenants) = sut.frontend(spec);
        for (t, tenant) in spec.tenants.iter().enumerate() {
            for idx in 0..tenant.objects {
                let data = Bytes::from(vec![fill_byte(t, idx); tenant.object_size as usize]);
                frontend
                    .put_object(tenants[t], &object_key(tenant, idx), data, OCTET_STREAM)
                    .expect("prepopulate put on a healthy cluster");
            }
        }
        // The same timeline, in the same order, as `replay_trace_on`.
        let mut events = Vec::new();
        for event in &spec.events {
            match *event {
                TrafficEvent::Outage {
                    provider_index,
                    from_us,
                    to_us,
                } => {
                    events.push((from_us, Event::Down(provider_index)));
                    events.push((to_us, Event::Up(provider_index)));
                }
                // Not in this workload's spec; see the module docs.
                TrafficEvent::PriceDrop { .. } => {}
            }
        }
        if spec.tick_every_us > 0 {
            let mut t = spec.tick_every_us;
            while t <= spec.horizon_us {
                events.push((t, Event::Tick));
                t += spec.tick_every_us;
            }
        }
        events.sort_by_key(|&(at, _)| at);
        Replay {
            sut,
            frontend,
            tenants,
            providers,
            events,
            next_event: 0,
            ticks: Vec::new(),
        }
    }

    /// Reads every object once through the front end's direct surface, so the
    /// trace starts on a filled cache: on an empty one the base rate is over
    /// capacity until the hot keys are in, and a short run would measure only
    /// that transient. Least popular first — `batch` before `web`, high Zipf
    /// ranks before low — so what the LRU keeps is the hot set.
    fn warm_cache(&mut self, spec: &TrafficSpec) {
        for tenant in spec.tenants.iter().rev() {
            for idx in (0..tenant.objects).rev() {
                let _ = self.frontend.get_object(&object_key(tenant, idx));
            }
        }
    }

    /// Applies every event due at or before `until_us`; returns the time the
    /// program spent on them.
    fn apply_due(&mut self, until_us: u64) -> u64 {
        let mut busy = 0;
        while let Some(&(at, event)) = self.events.get(self.next_event) {
            if at > until_us {
                break;
            }
            self.next_event += 1;
            // Run the service up to the event first, so the change lands at
            // the right point of the replay.
            busy += timed(|| self.frontend.advance_to(at)).2;
            let (_, start, ns) = timed(|| match event {
                Event::Down(i) => self.sut.set_provider_down(self.providers[i], true),
                Event::Up(i) => self.sut.set_provider_down(self.providers[i], false),
                Event::Tick => self.sut.tick_secs(at / 1_000_000),
            });
            if matches!(event, Event::Tick) {
                self.ticks.push((start, ns));
            }
            busy += ns;
        }
        busy
    }

    /// Submits one trace op: `advance_to(arrival)`, then `submit`.
    fn step(&mut self, op: &TraceOp) -> Step {
        let request = op.op.clone();
        let is_read = matches!(request, S3Op::Get { .. } | S3Op::GetRange { .. });
        let (_, start, advance_ns) = timed(|| self.frontend.advance_to(op.at_us));
        let idle = self.frontend.queued() == 0;
        let outcomes = self.frontend.outcomes().len();
        let misses = if is_read { self.sut.cache_stats().1 } else { 0 };
        let tenant = self.tenants[op.tenant];
        let (outcome, submit_start, submit_ns) =
            timed(|| self.frontend.submit(op.at_us, tenant, request));
        let mut step = Step {
            start,
            advance_ns,
            submit_start,
            submit_ns,
            immediate: None,
        };
        let op_id = match outcome {
            SubmitOutcome::Queued { op_id } => op_id,
            SubmitOutcome::Rejected { .. } => return step,
        };
        let recorded = self.frontend.outcomes();
        // `web` only: one object size, so a class's median is one mode and
        // not a seed-dependent mix of 16 KiB and 64 KiB ops.
        let ran_alone = op.tenant == WEB
            && idle
            && self.frontend.queued() == 0
            && recorded.len() == outcomes + 1;
        if let Some(last) = recorded.last().filter(|o| ran_alone && o.op_id == op_id) {
            if matches!(last.status, OpStatus::Completed { .. }) {
                let cold = is_read && self.sut.cache_stats().1 > misses;
                step.immediate = Some(match (last.kind, cold) {
                    (OpKind::Put, _) => "put",
                    (OpKind::Get, true) => "get_cold",
                    (OpKind::Get, false) => "get_warm",
                    (OpKind::GetRange, true) => "range_cold",
                    (OpKind::GetRange, false) => "range_warm",
                    (OpKind::Delete, _) => "delete",
                    (OpKind::List, _) => "list",
                });
            }
        }
        step
    }

    /// Applies what is left of the timeline and runs the queues dry.
    fn finish(&mut self) -> u64 {
        let busy = self.apply_due(u64::MAX);
        busy + timed(|| self.frontend.drain()).2
    }
}

/// Which object a trace key names: `(tenant, index)`.
fn object_of(spec: &TrafficSpec, key: &ObjectKey) -> Option<(usize, usize)> {
    let tenant = spec.tenants.iter().position(|t| t.name == key.container)?;
    let index = key.key.strip_prefix("obj")?.parse().ok()?;
    Some((tenant, index))
}

/// Bytes a completed read of `op` must have returned.
fn expected_bytes_out(op: &S3Op, object_size: u64) -> Option<u64> {
    match *op {
        S3Op::Get { .. } => Some(object_size),
        S3Op::GetRange { offset, len, .. } => {
            Some(offset.saturating_add(len).min(object_size) - offset.min(object_size))
        }
        _ => None,
    }
}

/// Walks the recorded outcomes in dispatch order against a model of which
/// objects exist. A read or delete of an object the model says is deleted
/// returning `ObjectNotFound` is correct; a refused op is counted apart;
/// anything else unexpected is a failure. Returns the final model and the
/// completed `web` latencies of ops `first_timed..`.
fn check_outcomes(
    spec: &TrafficSpec,
    trace: &[TraceOp],
    frontend: &FrontendService,
    first_timed: u64,
    tally: &mut Tally,
) -> (Vec<Vec<bool>>, Vec<u64>) {
    let mut live: Vec<Vec<bool>> = spec.tenants.iter().map(|t| vec![true; t.objects]).collect();
    let mut web_latencies = Vec::new();
    for outcome in frontend.outcomes() {
        let timed_op = outcome.op_id >= first_timed;
        let op = &trace[outcome.op_id as usize].op;
        let object = outcome.key.as_ref().and_then(|k| object_of(spec, k));
        let exists = object.is_some_and(|(t, i)| live[t][i]);
        match &outcome.status {
            OpStatus::Completed {
                latency_us,
                bytes_out,
            } => {
                if timed_op && outcome.tenant.index() == WEB {
                    web_latencies.push(*latency_us);
                }
                let size = object.map_or(0, |(t, _)| spec.tenants[t].object_size);
                let right = match outcome.kind {
                    OpKind::Put => true,
                    OpKind::List => true,
                    OpKind::Delete => exists,
                    OpKind::Get | OpKind::GetRange => {
                        exists && expected_bytes_out(op, size) == Some(*bytes_out)
                    }
                };
                if !right && timed_op {
                    tally.wrong(|| {
                        format!("op {} {op:?}: completed against the model", outcome.op_id)
                    });
                }
                if let Some((t, i)) = object {
                    match outcome.kind {
                        OpKind::Put => live[t][i] = true,
                        OpKind::Delete => live[t][i] = false,
                        _ => {}
                    }
                }
            }
            OpStatus::Failed {
                error: ScaliaError::ObjectNotFound(_),
            } if !exists => {}
            OpStatus::Failed { error } => {
                if timed_op {
                    tally.wrong(|| format!("op {} {op:?}: {error}", outcome.op_id));
                }
            }
            OpStatus::RejectedQueue | OpStatus::RejectedDeadline { .. } => {
                if timed_op {
                    tally.rejected += 1;
                }
            }
        }
    }
    (live, web_latencies)
}

struct State {
    spec: TrafficSpec,
    trace: Vec<TraceOp>,
    replay: Replay,
    warm_up: usize,
    generate_ns_per_op: f64,
}

fn setup(seed: u64, seconds: u32) -> State {
    let spec = spec(seed, seconds);
    let (trace, _, ns) = timed(|| generate_trace(&spec));
    let generate_ns_per_op = ns as f64 / trace.len().max(1) as f64;
    let mut replay = Replay::new(&spec);
    replay.warm_cache(&spec);
    let warm_up = (trace.len() as f64 * WARM_UP_SHARE) as usize;
    for op in &trace[..warm_up] {
        replay.apply_due(op.at_us);
        replay.step(op);
    }
    replay.ticks.clear();
    State {
        spec,
        trace,
        replay,
        warm_up,
        generate_ns_per_op,
    }
}

fn rejected(report: &FrontendReport) -> (u64, u64, u64) {
    report.tenants.iter().fold((0, 0, 0), |(q, d, s), t| {
        (
            q + t.rejected_queue,
            d + t.rejected_deadline,
            s + t.sla_violations,
        )
    })
}

pub fn run(args: &Args) -> Finished {
    let (state, setup_s) = setup_median(|| setup(args.seed, args.seconds));
    let State {
        spec,
        trace,
        mut replay,
        warm_up,
        generate_ns_per_op,
    } = state;
    let timed_ops = trace.len() - warm_up;

    let mut tracer = Tracer::new(args.traced);
    let mut ledger = args.traced.then(|| {
        Ledger::new(
            Shadow::like_traffic(&spec),
            sut::traffic_rule(),
            replay.sut.stripe_size(),
            REPLAY_EVERY,
        )
    });
    let mut lat = Latencies::default();
    let mut sliced = Sliced::new(timed_ops);
    let mut extra = LayerCounts::default();
    let mut tally = Tally::default();
    let mut replayed_puts = 0u64;

    let before = replay.sut.counters();
    let report_before = replay.frontend.report();
    for (i, op) in trace[warm_up..].iter().enumerate() {
        sliced.add_busy(i, replay.apply_due(op.at_us));
        let step = replay.step(op);
        tally.attempted += 1;
        let bytes = match op.op {
            S3Op::Put { size, .. } => size,
            _ => 0,
        };
        sliced.add(i, step.advance_ns + step.submit_ns, bytes);
        lat.add("advance_to", step.advance_ns);
        lat.add("submit", step.submit_ns);
        if let Some(class) = step.immediate {
            lat.add(class, step.submit_ns);
            // The client's view does not tell a hit from a miss.
            match class {
                "get_cold" | "get_warm" => lat.add("get", step.submit_ns),
                "range_cold" | "range_warm" => lat.add("get_range", step.submit_ns),
                _ => {}
            }
        }
        let Some(ledger) = ledger.as_mut() else {
            continue;
        };
        let name = match op.op {
            S3Op::Put { .. } => "put",
            S3Op::Get { .. } => "get",
            S3Op::GetRange { .. } => "get_range",
            S3Op::Delete { .. } => "delete",
            S3Op::List { .. } => "list",
        };
        let root_ns =
            step.submit_start.duration_since(step.start).as_nanos() as u64 + step.submit_ns;
        let id = tracer.root(i as u64, name, "frontend", step.start, root_ns, bytes);
        let seq = i as u64;
        tracer.span(
            id,
            seq,
            "advance_to",
            "frontend",
            step.start,
            step.advance_ns,
            0,
            false,
        );
        tracer.span(
            id,
            seq,
            "submit",
            "frontend",
            step.submit_start,
            step.submit_ns,
            bytes,
            false,
        );
        let replayable = matches!(
            step.immediate,
            Some("put" | "get_cold" | "get_warm" | "range_cold")
        );
        let (Some(class), Some(key)) = (step.immediate.filter(|_| replayable), op.op.key()) else {
            continue;
        };
        if !ledger.sample(class) {
            continue;
        }
        let (Some((t, idx)), Ok(meta)) = (object_of(&spec, key), replay.sut.read_metadata(key))
        else {
            continue;
        };
        let payload = vec![fill_byte(t, idx); spec.tenants[t].object_size as usize];
        // The op's own share of the root: the submit call it ran inside.
        let root = Root {
            id,
            op: seq,
            ns: step.submit_ns,
        };
        match op.op {
            S3Op::Put { .. } => {
                ledger.replay_put(&mut tracer, root, &payload, &meta);
                if replayed_puts.is_multiple_of(PROBE_EVERY) {
                    ledger.probe(&mut tracer, seq, &payload, &meta);
                }
                replayed_puts += 1;
            }
            S3Op::Get { .. } => {
                ledger.replay_get(&mut tracer, root, &payload, &meta, class == "get_warm")
            }
            S3Op::GetRange { offset, len, .. } => ledger.replay_range(
                &mut tracer,
                root,
                &payload,
                &meta,
                offset as usize,
                len as usize,
            ),
            _ => {}
        }
    }
    sliced.add_busy(timed_ops.saturating_sub(1), replay.finish());
    let after = replay.sut.counters();
    for (t, &(start, ns)) in replay.ticks.iter().enumerate() {
        lat.add("tick", ns);
        tracer.root(
            (timed_ops + t) as u64,
            "tick",
            "engine::cluster",
            start,
            ns,
            0,
        );
    }

    // Virtual-time metrics, exact from the recorded outcomes.
    let (live, mut web_latencies) =
        check_outcomes(&spec, &trace, &replay.frontend, warm_up as u64, &mut tally);
    let web_submitted = trace[warm_up..]
        .iter()
        .filter(|op| op.tenant == WEB)
        .count() as u64;
    let within_sla = web_latencies.iter().filter(|&&us| us <= WEB_SLA_US).count() as u64;
    let virt = summarize(&mut web_latencies);

    let report = replay.frontend.report();
    for tenant in &report.tenants {
        tally.check(
            tenant.completed + tenant.rejected() + tenant.failed == tenant.submitted,
            || {
                format!(
                    "tenant {}: completed + rejected + failed != submitted",
                    tenant.name
                )
            },
        );
    }
    let (rq0, rd0, sla0) = rejected(&report_before);
    let (rq1, rd1, sla1) = rejected(&report);
    extra.rejected_queue = rq1 - rq0;
    extra.rejected_deadline = rd1 - rd0;
    extra.sla_violations = sla1 - sla0;
    extra.peak_queued = report.peak_queued as u64;
    extra.cold_reads = (after.cache_misses - before.cache_misses).max(1);

    let live_user_bytes: u64 = spec
        .tenants
        .iter()
        .zip(&live)
        .map(|(t, live)| t.object_size * live.iter().filter(|&&l| l).count() as u64)
        .sum();
    let mut end_to_end = end_to_end(EndToEnd {
        setup_s,
        ops: timed_ops as u64,
        sliced: &sliced,
        put: lat.summary("put"),
        get: lat.summary("get"),
        range: lat.summary("get_range"),
        stored_bytes: after.stored_bytes,
        live_user_bytes,
        tally: &tally,
    });
    if let Some(virt) = virt {
        let p99 = percentile(&web_latencies, 99.0);
        let at = end_to_end.len() - 3;
        end_to_end.splice(
            at..at,
            [
                Metric::exact("virt_p50_us", virt.p50 as f64, "us", virt.samples as u64),
                Metric::exact("virt_p99_us", p99 as f64, "us", virt.samples as u64),
                Metric::exact(
                    "goodput_share",
                    within_sla as f64 / web_submitted.max(1) as f64,
                    "share",
                    web_submitted,
                ),
            ],
        );
    }

    // End-of-run checks: every object the model says is live reads back as
    // its fill, every deleted one is gone, listings match, no orphans.
    let mut end = Tally::default();
    for (t, tenant) in spec.tenants.iter().enumerate() {
        let mut expected_keys = Vec::new();
        for (idx, &is_live) in live[t].iter().enumerate() {
            let key = object_key(tenant, idx);
            let payload = vec![fill_byte(t, idx); tenant.object_size as usize];
            let expected = is_live.then_some(&payload[..]);
            check_read(replay.sut.get(&key), expected, "", "", &mut end, &key);
            if is_live {
                expected_keys.push(key);
            }
        }
        let mut listed = replay.sut.list(&tenant.name);
        listed.sort_by(|a, b| a.key.cmp(&b.key));
        end.check(listed == expected_keys, || {
            format!("final list {} differs from the model", tenant.name)
        });
    }
    let mut own_layer = vec![Metric::wall(
        "sim.generate_trace.ns_per_op",
        generate_ns_per_op,
        "ns",
        trace.len() as u64,
    )];
    own_layer.extend(frontend_metrics(&spec, &trace, &replay, &report));
    finish(Finish {
        workload: "tenant_traffic",
        args,
        sut: &replay.sut,
        end_to_end,
        before,
        after,
        extra,
        tally,
        end,
        own_layer,
        own_times: &[
            ("frontend.submit.p50_ns", "submit", "ns", 1.0),
            ("engine.tick.p50_ms", "tick", "ms", 1e6),
        ],
        ledger,
        lat,
        tracer,
    })
}

/// Two exact front-end ratios. `fairness_error`: inside the burst, completed
/// `web` ÷ completed `batch` ops against their 3 : 1 weights (far from 0 by
/// design — `batch` offers less than its share, so DRR never binds it).
/// `hist_p99_error`: the report's histogram p99 of `web` ÷ the exact p99 over
/// the same ops — what the power-of-two buckets cost.
fn frontend_metrics(
    spec: &TrafficSpec,
    trace: &[TraceOp],
    replay: &Replay,
    report: &FrontendReport,
) -> Vec<Metric> {
    let ArrivalPattern::FlashCrowd { from_us, to_us, .. } = spec.tenants[WEB].arrivals else {
        return Vec::new();
    };
    let mut completed_in_burst = [0u64; 2];
    let mut web_all = Vec::new();
    for outcome in replay.frontend.outcomes() {
        let OpStatus::Completed { latency_us, .. } = outcome.status else {
            continue;
        };
        let tenant = outcome.tenant.index();
        if tenant == WEB {
            web_all.push(latency_us);
        }
        let at = trace[outcome.op_id as usize].at_us;
        if (from_us..to_us).contains(&at) {
            completed_in_burst[tenant.min(1)] += 1;
        }
    }
    web_all.sort_unstable();
    let weights = spec.tenants[WEB].weight as f64 / spec.tenants[1].weight as f64;
    let ratio = completed_in_burst[0] as f64 / completed_in_burst[1].max(1) as f64;
    let mut metrics = vec![Metric::exact(
        "frontend.fairness_error",
        (ratio / weights - 1.0).abs(),
        "ratio",
        completed_in_burst[0] + completed_in_burst[1],
    )];
    if !web_all.is_empty() {
        metrics.push(Metric::exact(
            "frontend.hist_p99_error",
            report.tenants[WEB].p99_us as f64 / percentile(&web_all, 99.0).max(1) as f64,
            "ratio",
            web_all.len() as u64,
        ));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{replay_trace, trace_digest};

    #[test]
    fn the_trace_is_a_pure_function_of_the_seed() {
        let digest = |seed| trace_digest(&generate_trace(&spec(seed, 1)));
        assert_eq!(digest(4), digest(4));
        assert_ne!(digest(4), digest(5));
    }

    #[test]
    fn the_drivers_loop_and_replay_trace_agree_on_the_report_digest() {
        // ~2 k ops: a third of a `--seconds 1` horizon.
        let mut spec = spec(9, 1);
        spec.horizon_us /= 3;
        let trace = generate_trace(&spec);
        assert!((1_500..3_000).contains(&trace.len()), "{} ops", trace.len());

        let mut replay = Replay::new(&spec);
        for op in &trace {
            replay.apply_due(op.at_us);
            replay.step(op);
        }
        replay.finish();
        let ours = replay.frontend.report().digest();
        assert_eq!(ours, replay_trace(&spec, &trace).digest);
    }

    #[test]
    fn range_reads_are_clamped_to_the_object() {
        let key = ObjectKey::new("web", "obj00001");
        let range = |offset, len| S3Op::GetRange {
            key: key.clone(),
            offset,
            len,
        };
        assert_eq!(expected_bytes_out(&range(0, 10), 100), Some(10));
        assert_eq!(expected_bytes_out(&range(95, 10), 100), Some(5));
        assert_eq!(expected_bytes_out(&range(200, 10), 100), Some(0));
        assert_eq!(
            expected_bytes_out(&S3Op::Get { key: key.clone() }, 100),
            Some(100)
        );
        assert_eq!(expected_bytes_out(&S3Op::Delete { key }, 100), None);
    }
}
