//! Deterministic multi-tenant traffic harness: seeded trace generation and
//! virtual-time replay through the front-end service.
//!
//! Where [`crate::workload`] models demand at the granularity the paper's
//! cost evaluation needs (per-object, per-sampling-period), this module
//! models it at the granularity a *service* needs: individual S3-flavored
//! requests with microsecond arrival times, replayed through
//! [`scalia_frontend::FrontendService`]'s admission control and weighted
//! fair scheduler.
//!
//! ## Determinism
//!
//! A [`TrafficSpec`] is compiled by [`generate_trace`] into a flat,
//! time-sorted list of [`TraceOp`]s using only seeded [`StdRng`] streams
//! (one per tenant) and the error-diffusion rounding of
//! `crate::workload::diffuse_rounding` — no wall clock, no thread
//! interleaving. [`run_traffic`] then replays the trace single-threaded in
//! virtual time. Both halves are bit-reproducible: the same spec yields the
//! same trace and the same [`FrontendReport::digest`] regardless of how
//! the replay loop is chunked, which is what `tests/traffic.rs` pins.
//!
//! ## Scenario vocabulary
//!
//! * [`ArrivalPattern::Uniform`] — steady open-loop load.
//! * [`ArrivalPattern::FlashCrowd`] — a rate step inside a window: the
//!   Slashdot spike as seen from the service's front door.
//! * [`ArrivalPattern::Diurnal`] — sinusoidal day/night cycle.
//! * [`TrafficEvent::Outage`] — a provider goes dark mid-trace (and comes
//!   back), exercising degraded reads/writes under load.
//! * [`TrafficEvent::PriceDrop`] — a cheaper provider appears mid-trace and
//!   a forced optimisation cycle mass-migrates onto it, the paper's §IV-D
//!   new-provider scenario running *concurrently with* foreground traffic.

use crate::workload::{cumulative_distribution, diffuse_rounding, sample_cdf, zipf_weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalia_engine::cluster::ScaliaCluster;
use scalia_frontend::{FrontendConfig, FrontendReport, FrontendService, S3Op, TenantId};
use scalia_providers::catalog::{cheapstor, ProviderCatalog};
use scalia_types::ids::ProviderId;
use scalia_types::md5::md5_hex;
use scalia_types::object::ObjectKey;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::time::SimTime;
use scalia_types::zone::ZoneSet;
use std::sync::Arc;

/// Relative weights of the op kinds a tenant issues (any non-negative
/// scale; normalised internally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Whole-object reads.
    pub get: f64,
    /// Byte-range reads.
    pub get_range: f64,
    /// Object writes (overwrites of the tenant's object set).
    pub put: f64,
    /// Object deletes.
    pub delete: f64,
    /// Container listings.
    pub list: f64,
}

impl OpMix {
    /// The web-serving default: overwhelmingly reads, a trickle of writes,
    /// rare deletes and listings.
    pub fn read_heavy() -> Self {
        OpMix {
            get: 0.88,
            get_range: 0.05,
            put: 0.06,
            delete: 0.005,
            list: 0.005,
        }
    }

    /// CDF over the five kinds, in declaration order.
    fn cdf(&self) -> Vec<f64> {
        cumulative_distribution(&[self.get, self.get_range, self.put, self.delete, self.list])
    }
}

/// How a tenant's request rate evolves over the trace horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Constant rate.
    Uniform {
        /// Requests per second of virtual time.
        ops_per_sec: f64,
    },
    /// Constant base rate with a step to `burst_ops_per_sec` inside
    /// `[from_us, to_us)` — the flash crowd.
    FlashCrowd {
        /// Rate outside the burst window.
        base_ops_per_sec: f64,
        /// Rate inside the burst window.
        burst_ops_per_sec: f64,
        /// Burst start (inclusive), µs.
        from_us: u64,
        /// Burst end (exclusive), µs.
        to_us: u64,
    },
    /// Sinusoidal day/night cycle around a mean rate.
    Diurnal {
        /// Mean rate over a full cycle.
        mean_ops_per_sec: f64,
        /// Cycle length, µs (a "virtual day").
        period_us: u64,
        /// Relative swing in `[0, 1]`: rate spans `mean × (1 ± amplitude)`.
        amplitude: f64,
    },
}

impl ArrivalPattern {
    /// Instantaneous rate at virtual time `at_us`, ops/s.
    fn rate_at(&self, at_us: u64) -> f64 {
        match *self {
            ArrivalPattern::Uniform { ops_per_sec } => ops_per_sec,
            ArrivalPattern::FlashCrowd {
                base_ops_per_sec,
                burst_ops_per_sec,
                from_us,
                to_us,
            } => {
                if at_us >= from_us && at_us < to_us {
                    burst_ops_per_sec
                } else {
                    base_ops_per_sec
                }
            }
            ArrivalPattern::Diurnal {
                mean_ops_per_sec,
                period_us,
                amplitude,
            } => {
                let phase = (at_us % period_us.max(1)) as f64 / period_us.max(1) as f64
                    * std::f64::consts::TAU;
                mean_ops_per_sec * (1.0 + amplitude.clamp(0.0, 1.0) * phase.sin())
            }
        }
    }
}

/// One tenant of a traffic scenario.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name; doubles as its container name.
    pub name: String,
    /// DRR weight at the front-end.
    pub weight: u32,
    /// Per-op SLA, µs (0 = none).
    pub sla_us: u64,
    /// Size of the tenant's object set.
    pub objects: usize,
    /// Size of each object, bytes.
    pub object_size: u64,
    /// Zipf skew of object popularity (0 = uniform, ~1 = classic hot keys).
    pub zipf_s: f64,
    /// Op-kind mix.
    pub mix: OpMix,
    /// Arrival-rate shape.
    pub arrivals: ArrivalPattern,
}

/// A mid-trace change in the provider landscape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficEvent {
    /// Provider `provider_index` (into the catalog registration order) is
    /// unreachable during `[from_us, to_us)`.
    Outage {
        /// Index of the affected provider.
        provider_index: usize,
        /// Outage start, µs.
        from_us: u64,
        /// Recovery time, µs.
        to_us: u64,
    },
    /// A cheaper provider (CheapStor) is registered at `at_us` and a forced
    /// optimisation cycle mass-migrates eligible objects onto it.
    PriceDrop {
        /// Registration time, µs.
        at_us: u64,
    },
}

/// A complete traffic scenario.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Scenario name (reported, not digested).
    pub name: String,
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Trace horizon, µs of virtual time.
    pub horizon_us: u64,
    /// Arrival-shaping slot length, µs: expected arrivals are integrated
    /// per slot, error-diffused to integer counts and spread evenly inside
    /// the slot.
    pub slot_us: u64,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// Provider events.
    pub events: Vec<TrafficEvent>,
    /// Cluster maintenance tick interval, µs (0 = no ticks).
    pub tick_every_us: u64,
    /// Front-end admission/fairness configuration.
    pub frontend: FrontendConfig,
    /// Per-datacenter cache capacity of the backing cluster.
    pub cache_capacity: ByteSize,
    /// When true (default), every tenant's object set is written before the
    /// trace starts, so reads have something to hit.
    pub prepopulate: bool,
}

/// One request of a compiled trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOp {
    /// Virtual arrival time, µs.
    pub at_us: u64,
    /// Issuing tenant (index into [`TrafficSpec::tenants`]).
    pub tenant: usize,
    /// Per-tenant sequence number (ordering tiebreak).
    pub seq: u64,
    /// The request.
    pub op: S3Op,
}

/// The stable object key of a tenant's `idx`-th object.
pub fn object_key(tenant: &TenantSpec, idx: usize) -> ObjectKey {
    ObjectKey::new(&tenant.name, format!("obj{idx:05}"))
}

/// The deterministic payload fill byte of a tenant's `idx`-th object.
pub fn fill_byte(tenant_index: usize, idx: usize) -> u8 {
    ((tenant_index * 131 + idx * 7) % 251) as u8
}

/// Compiles a spec into a flat, time-sorted op trace. Pure function of the
/// spec: no wall clock, no global state — the proptest suite checks that
/// the result is bit-identical across repeated generations and seeds.
pub fn generate_trace(spec: &TrafficSpec) -> Vec<TraceOp> {
    let slot_us = spec.slot_us.max(1);
    let slots = spec.horizon_us.div_ceil(slot_us);
    let mut trace: Vec<TraceOp> = Vec::new();
    for (tenant_index, tenant) in spec.tenants.iter().enumerate() {
        // One private stream per tenant: adding a tenant never perturbs the
        // ops of the others.
        let mut rng = StdRng::seed_from_u64(
            spec.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(tenant_index as u64),
        );
        let popularity =
            cumulative_distribution(&zipf_weights(tenant.objects.max(1), tenant.zipf_s.max(0.0)));
        let kind_cdf = tenant.mix.cdf();
        // Integrate the arrival rate per slot (rate at the slot's start ×
        // slot length) and error-diffuse into integer counts so the total
        // matches the expectation without randomness.
        let expected: Vec<f64> = (0..slots)
            .map(|s| tenant.arrivals.rate_at(s * slot_us) * slot_us as f64 / 1_000_000.0)
            .collect();
        let counts = diffuse_rounding(&expected);
        let mut seq = 0u64;
        for (slot, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let slot_start = slot as u64 * slot_us;
            for k in 0..count {
                // Evenly spaced within the slot; deterministic.
                let at_us = (slot_start + k * slot_us / count).min(spec.horizon_us - 1);
                let obj = sample_cdf(&popularity, rng.gen_range(0.0f64..1.0));
                let key = object_key(tenant, obj);
                let kind = sample_cdf(&kind_cdf, rng.gen_range(0.0f64..1.0));
                let op = match kind {
                    0 => S3Op::Get { key },
                    1 => {
                        // A range somewhere inside the object (possibly
                        // degenerate for tiny objects — the engine's range
                        // contract handles that).
                        let size = tenant.object_size.max(1);
                        let offset = rng.gen_range(0..size);
                        let len = 1 + rng.gen_range(0..size - offset);
                        S3Op::GetRange { key, offset, len }
                    }
                    2 => S3Op::Put {
                        key,
                        size: tenant.object_size,
                        fill: fill_byte(tenant_index, obj),
                        mime: "application/octet-stream".into(),
                    },
                    3 => S3Op::Delete { key },
                    _ => S3Op::List {
                        container: tenant.name.clone(),
                    },
                };
                trace.push(TraceOp {
                    at_us,
                    tenant: tenant_index,
                    seq,
                    op,
                });
                seq += 1;
            }
        }
    }
    // Total order independent of generation order: time, then tenant, then
    // the tenant's own sequence.
    trace.sort_by_key(|a| (a.at_us, a.tenant, a.seq));
    trace
}

/// A stable digest of a compiled trace (every field of every op) — what
/// the determinism proptests compare across generations and seeds.
pub fn trace_digest(trace: &[TraceOp]) -> String {
    let mut lines = String::new();
    for op in trace {
        lines.push_str(&format!(
            "{}|{}|{}|{:?}\n",
            op.at_us, op.tenant, op.seq, op.op
        ));
    }
    md5_hex(lines.as_bytes())
}

/// Everything a replay produces.
#[derive(Debug, Clone)]
pub struct TrafficOutcome {
    /// The front-end's per-tenant report at the end of the trace.
    pub report: FrontendReport,
    /// [`FrontendReport::digest`] — the pinned reproducibility witness.
    pub digest: String,
    /// Objects migrated by mid-trace forced optimisation cycles
    /// ([`TrafficEvent::PriceDrop`]).
    pub migrations: usize,
    /// Number of ops in the replayed trace.
    pub trace_ops: usize,
    /// Per-op outcomes, in submission order (empty when
    /// [`FrontendConfig::record_outcomes`] is off).
    pub outcomes: Vec<scalia_frontend::OpOutcome>,
}

/// The storage rule every traffic tenant writes under (five nines
/// durability, four nines availability, any zone, full budget).
pub fn tenant_rule(name: &str) -> StorageRule {
    StorageRule::new(
        name,
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        1.0,
    )
}

/// Builds the standard traffic cluster: the paper catalog with latency
/// models attached, one datacenter, two engines, the spec's cache size.
/// Returns the cluster and the catalog-registration order of provider ids
/// (what [`TrafficEvent::Outage::provider_index`] indexes).
pub fn traffic_cluster(spec: &TrafficSpec) -> (Arc<ScaliaCluster>, Vec<ProviderId>) {
    let catalog = ProviderCatalog::shared();
    let ids: Vec<ProviderId> = crate::scenarios::latency_catalog(spec.seed)
        .into_iter()
        .map(|d| catalog.register(d))
        .collect();
    let cluster = ScaliaCluster::builder()
        .catalog(catalog)
        .datacenters(1)
        .engines_per_datacenter(2)
        .cache_capacity(spec.cache_capacity)
        .build();
    (Arc::new(cluster), ids)
}

/// Replay bookkeeping: a provider-landscape change at a point in virtual
/// time.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    Down(usize),
    Up(usize),
    PriceDrop,
    Tick,
}

/// Generates the spec's trace and replays it through a fresh front-end in
/// virtual time. Single-threaded and bit-reproducible: same spec ⇒ same
/// [`TrafficOutcome::digest`] on every replay.
pub fn run_traffic(spec: &TrafficSpec) -> TrafficOutcome {
    let trace = generate_trace(spec);
    replay_trace(spec, &trace)
}

/// Replays an already-compiled trace (see [`run_traffic`]). Split out so
/// the determinism tests can replay the *same* trace in different loop
/// chunkings.
pub fn replay_trace(spec: &TrafficSpec, trace: &[TraceOp]) -> TrafficOutcome {
    let (cluster, provider_ids) = traffic_cluster(spec);
    replay_trace_on(&cluster, &provider_ids, spec, trace)
}

/// Replays a trace on a caller-supplied cluster (see [`traffic_cluster`]),
/// so invariants — every acked put readable, placements actually moved —
/// can be checked against the cluster after the replay.
pub fn replay_trace_on(
    cluster: &Arc<ScaliaCluster>,
    provider_ids: &[ProviderId],
    spec: &TrafficSpec,
    trace: &[TraceOp],
) -> TrafficOutcome {
    let mut frontend = FrontendService::new(Arc::clone(cluster), spec.frontend.clone());
    let tenant_ids: Vec<TenantId> = spec
        .tenants
        .iter()
        .map(|t| frontend.register_tenant(&t.name, t.weight, t.sla_us, tenant_rule(&t.name)))
        .collect();

    if spec.prepopulate {
        for (tenant_index, tenant) in spec.tenants.iter().enumerate() {
            for idx in 0..tenant.objects {
                let data = bytes::Bytes::from(vec![
                    fill_byte(tenant_index, idx);
                    tenant.object_size as usize
                ]);
                frontend
                    .put_object(
                        tenant_ids[tenant_index],
                        &object_key(tenant, idx),
                        data,
                        "application/octet-stream",
                    )
                    .expect("prepopulate put");
            }
        }
    }

    // Compile the event timeline: outages (down + up), price drops, ticks.
    let mut events: Vec<(u64, ReplayEvent)> = Vec::new();
    for event in &spec.events {
        match *event {
            TrafficEvent::Outage {
                provider_index,
                from_us,
                to_us,
            } => {
                events.push((from_us, ReplayEvent::Down(provider_index)));
                events.push((to_us, ReplayEvent::Up(provider_index)));
            }
            TrafficEvent::PriceDrop { at_us } => events.push((at_us, ReplayEvent::PriceDrop)),
        }
    }
    if spec.tick_every_us > 0 {
        let mut t = spec.tick_every_us;
        while t <= spec.horizon_us {
            events.push((t, ReplayEvent::Tick));
            t += spec.tick_every_us;
        }
    }
    events.sort_by_key(|&(at, _)| at);

    let mut migrations = 0usize;
    let mut next_event = 0usize;
    let infra = cluster.infra().clone();
    let mut apply = |frontend: &mut FrontendService, at: u64, ev: ReplayEvent| {
        // Run the service up to the event time first, so the change lands
        // at the right point of the replay.
        frontend.advance_to(at);
        match ev {
            ReplayEvent::Down(i) => infra.set_provider_down(provider_ids[i], true),
            ReplayEvent::Up(i) => infra.set_provider_down(provider_ids[i], false),
            ReplayEvent::PriceDrop => {
                infra.register_provider(cheapstor(ProviderId::new(0)));
                migrations += cluster.run_optimization(true).migrations_executed;
            }
            ReplayEvent::Tick => cluster.tick(SimTime::from_secs(at / 1_000_000)),
        }
    };

    for trace_op in trace {
        while next_event < events.len() && events[next_event].0 <= trace_op.at_us {
            let (at, ev) = events[next_event];
            apply(&mut frontend, at, ev);
            next_event += 1;
        }
        let _ = frontend.submit(
            trace_op.at_us,
            tenant_ids[trace_op.tenant],
            trace_op.op.clone(),
        );
    }
    while next_event < events.len() {
        let (at, ev) = events[next_event];
        apply(&mut frontend, at, ev);
        next_event += 1;
    }
    frontend.drain();

    let report = frontend.report();
    let digest = report.digest();
    TrafficOutcome {
        report,
        digest,
        migrations,
        trace_ops: trace.len(),
        outcomes: frontend.outcomes().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TrafficSpec {
        /// A small read-heavy two-tenant scenario; tests override fields as
        /// needed.
        fn small(seed: u64) -> Self {
            TrafficSpec {
                name: "small".into(),
                seed,
                horizon_us: 2_000_000,
                slot_us: 10_000,
                tenants: vec![
                    TenantSpec {
                        name: "alpha".into(),
                        weight: 1,
                        sla_us: 0,
                        objects: 50,
                        object_size: 1024,
                        zipf_s: 1.0,
                        mix: OpMix::read_heavy(),
                        arrivals: ArrivalPattern::Uniform { ops_per_sec: 400.0 },
                    },
                    TenantSpec {
                        name: "beta".into(),
                        weight: 2,
                        sla_us: 0,
                        objects: 50,
                        object_size: 1024,
                        zipf_s: 0.8,
                        mix: OpMix::read_heavy(),
                        arrivals: ArrivalPattern::Uniform { ops_per_sec: 400.0 },
                    },
                ],
                events: vec![],
                tick_every_us: 500_000,
                frontend: FrontendConfig::default(),
                cache_capacity: ByteSize::from_mb(4),
                prepopulate: true,
            }
        }
    }

    #[test]
    fn trace_generation_is_deterministic_and_shaped() {
        let spec = TrafficSpec::small(7);
        let trace = generate_trace(&spec);
        assert!(!trace.is_empty());
        assert_eq!(trace_digest(&trace), trace_digest(&generate_trace(&spec)));
        // ~800 ops/s over 2 s of virtual time.
        let expected = 1_600.0;
        assert!(
            (trace.len() as f64 - expected).abs() / expected < 0.05,
            "got {} ops, expected ~{expected}",
            trace.len()
        );
        // Sorted by time; ops stay inside the horizon.
        assert!(trace.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(trace.iter().all(|op| op.at_us < spec.horizon_us));
        // A different seed yields a different trace.
        let other = generate_trace(&TrafficSpec::small(8));
        assert_ne!(trace_digest(&trace), trace_digest(&other));
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        let mut spec = TrafficSpec::small(3);
        spec.tenants.truncate(1);
        spec.tenants[0].arrivals = ArrivalPattern::FlashCrowd {
            base_ops_per_sec: 100.0,
            burst_ops_per_sec: 2_000.0,
            from_us: 500_000,
            to_us: 1_000_000,
        };
        let trace = generate_trace(&spec);
        let inside = trace
            .iter()
            .filter(|op| op.at_us >= 500_000 && op.at_us < 1_000_000)
            .count();
        // 0.5 s × 2000/s inside vs 1.5 s × 100/s outside.
        assert!(
            inside as f64 > 0.8 * trace.len() as f64,
            "inside {} of {}",
            inside,
            trace.len()
        );
    }

    #[test]
    fn diurnal_rate_swings_between_day_and_night() {
        let pattern = ArrivalPattern::Diurnal {
            mean_ops_per_sec: 100.0,
            period_us: 1_000_000,
            amplitude: 0.9,
        };
        let peak = pattern.rate_at(250_000); // sin = 1
        let trough = pattern.rate_at(750_000); // sin = -1
        assert!(peak > 185.0 && peak < 195.0, "peak {peak}");
        assert!(trough > 5.0 && trough < 15.0, "trough {trough}");
    }
}
