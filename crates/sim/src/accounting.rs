//! Per-period cost and resource accounting.
//!
//! [`run_policy`] drives a [`PlacementPolicy`] through a [`Workload`] period
//! by period, charging for storage, bandwidth and operations exactly as the
//! providers' pricing policies dictate, plus the one-off cost of every chunk
//! migration the policy performs. It also records the aggregate resources
//! consumed per period — the series plotted in Figs. 12, 15 and 17 — and
//! **per-operation latency percentiles**: every read is modelled as the
//! engine's parallel first-`m`-of-`n` fetch from the cheapest `m` providers
//! (latency = the *slowest* of those `m` chunk round-trips, not their sum)
//! and every write as the parallel `n`-chunk upload (latency = the slowest
//! provider), using each provider's deterministic
//! [`scalia_providers::latency::LatencyModel`]. The tail of the resulting
//! distribution is what the slow-/limping-provider scenarios exist to
//! expose.
//!
//! # Observation loop and SLA accounting
//!
//! [`run_policy_with_actual`] additionally separates what a provider
//! *advertises* (its descriptor's latency model, all the policy would know
//! a priori) from what it actually *does* (an [`ActualLatencies`] override
//! by provider name). Every served read feeds the actual chunk latencies
//! into a [`LatencyObservatory`] — the one the engine's `Infrastructure`
//! records into, with its sample floor, percentile and forgiveness rule —
//! and marks the placement's other members passed over; the windows rotate
//! every [`OBSERVATION_WINDOW_PERIODS`] periods. At the start of every period
//! the observatory publishes one view: each provider's windowed p95 goes
//! into the descriptors handed to the policy (`observed_read_latency_us`),
//! so a latency-weighted rule can migrate objects off a provider that
//! turned out slower than it claimed, and the period's reads are ranked by
//! that view, never by what earlier reads of the same period recorded.
//! This is exactly the feedback path the engine's `Infrastructure` runs at
//! each clock advance; only the engine's catalog adds a 25 % hysteresis
//! before a new p95 replaces the old one. Reads of objects whose rule
//! declares a `read_sla_us` are checked against their *actual* latency and
//! counted into [`PolicyRun::sla_read_violations`].

use crate::policy::PlacementPolicy;
use crate::workload::{ProviderEvent, Workload};
use scalia_core::cost::{
    cheapest_read_providers, chunk_bytes_for, compute_price, migration_cost, PredictedUsage,
};
use scalia_core::placement::Placement;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_providers::latency::LatencyModel;
use scalia_providers::observatory::{LatencyObservatory, LatencyView};
use scalia_types::latency::{LatencyHistogram, LatencySnapshot};
use scalia_types::money::Money;
use scalia_types::size::ByteSize;
use scalia_types::stats::{AccessHistory, PeriodStats};
use std::collections::{BTreeMap, HashMap};

/// Per-provider *actual* latency models (keyed by provider name),
/// overriding the advertised descriptor models for everything that really
/// happens in the simulation: observed samples, latency percentiles and SLA
/// checks. The policy itself never sees these — it only sees the
/// observations they generate.
pub type ActualLatencies = BTreeMap<String, LatencyModel>;

/// Number of sampling periods per observation window: summaries cover the
/// last two windows, so a provider is fully convicted — or, unless the
/// read ranking keeps passing it over, forgiven — within
/// `2 × OBSERVATION_WINDOW_PERIODS` periods.
pub const OBSERVATION_WINDOW_PERIODS: u64 = 24;

/// Aggregate resources consumed during one sampling period (across all
/// providers).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceSample {
    /// Sampling period index.
    pub period: u64,
    /// Raw bytes held at the providers (including erasure-coding overhead),
    /// in GB.
    pub storage_gb: f64,
    /// Bytes uploaded to providers during the period, in GB.
    pub bw_in_gb: f64,
    /// Bytes downloaded from providers during the period, in GB.
    pub bw_out_gb: f64,
}

/// The outcome of running one policy over a workload.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Policy display name.
    pub name: String,
    /// Total cost over the whole simulation.
    pub total_cost: Money,
    /// Cumulative cost at the end of every period.
    pub cumulative_cost: Vec<Money>,
    /// Aggregate resources per period.
    pub resources: Vec<ResourceSample>,
    /// Number of placement changes (migrations) performed.
    pub migrations: usize,
    /// `false` if at least one object had no feasible placement in some
    /// period (the policy cannot honour the workload's rules).
    pub feasible: bool,
    /// Percentile summary of the modelled per-read latency (parallel
    /// `m`-of-`n` fetch from the cheapest `m` providers), in virtual µs.
    pub read_latency: LatencySnapshot,
    /// Percentile summary of the modelled per-write latency (parallel
    /// `n`-chunk upload), in virtual µs.
    pub write_latency: LatencySnapshot,
    /// Reads served under a rule that declares a `read_sla_us` bound.
    pub sla_reads_total: u64,
    /// Of those, reads whose actual latency exceeded the rule's bound.
    pub sla_read_violations: u64,
    /// Placement subset searches the policy ran over the whole simulation
    /// (0 for policies that do not track it). With the class-shared search
    /// memo, a many-objects-few-classes workload reports O(classes)
    /// searches per re-evaluation instead of O(objects).
    pub placement_searches: u64,
}

impl PolicyRun {
    /// Fraction of SLA-governed reads that violated their latency bound
    /// (0.0 when no rule declared one).
    pub fn sla_violation_rate(&self) -> f64 {
        if self.sla_reads_total == 0 {
            0.0
        } else {
            self.sla_read_violations as f64 / self.sla_reads_total as f64
        }
    }
}

/// The latency model that actually answers for a provider: the
/// [`ActualLatencies`] override when one exists, the advertised descriptor
/// model otherwise.
fn actual_model(provider: &ProviderDescriptor, actual: &ActualLatencies) -> LatencyModel {
    actual
        .get(&provider.name)
        .copied()
        .unwrap_or(provider.latency)
}

/// The read-serving providers of a placement (indices into
/// `placement.providers`), mirroring the engine's hedged-read fan-out:
/// price-ranked first (the seed's tie-breaking order), then stably
/// re-ranked by expected read latency — each provider's p95 in the
/// `published` view, its advertised model otherwise — and truncated to the
/// `m` providers actually raced.
fn read_providers(
    placement: &Placement,
    size: ByteSize,
    published: &LatencyView<String>,
) -> Vec<usize> {
    let m = placement.m.max(1);
    let chunk_gb = size.as_gb() / m as f64;
    let chunk_bytes = chunk_bytes_for(size, m);
    let mut order = cheapest_read_providers(&placement.providers, placement.n().max(1), chunk_gb);
    order.sort_by_key(|&i| {
        let provider = &placement.providers[i];
        published
            .read_us(&provider.name)
            .unwrap_or_else(|| provider.latency.expected_us(chunk_bytes))
    });
    order.truncate(m as usize);
    order
}

/// The modelled latency of one read of an object at `placement`: the
/// engine fetches the `m` best-ranked chunks concurrently (fastest by
/// advertised model, price order among latency ties), so the read takes as
/// long as the slowest of those `m` providers.
pub fn modelled_read_latency_us(placement: &Placement, size: ByteSize) -> u64 {
    let chunk_bytes = chunk_bytes_for(size, placement.m);
    read_providers(placement, size, &LatencyView::default())
        .into_iter()
        .map(|i| placement.providers[i].latency.expected_us(chunk_bytes))
        .max()
        .unwrap_or(0)
}

/// The modelled latency of one write of an object at `placement`: all `n`
/// chunks upload concurrently, so the write takes as long as the slowest
/// provider of the set.
pub fn modelled_write_latency_us(placement: &Placement, size: ByteSize) -> u64 {
    actual_write_latency_us(placement, size, &ActualLatencies::new())
}

/// The stripes of an object that the byte range `[offset, offset + len)`
/// covers, clamped to the object's end — the same covering computation the
/// engine's `get_range` uses. Empty for an empty or past-EOF range.
pub fn covering_stripes(
    size: ByteSize,
    stripe_size: u64,
    offset: u64,
    len: u64,
) -> std::ops::Range<u64> {
    let total = size.bytes();
    let end = offset.saturating_add(len).min(total);
    if offset >= end || stripe_size == 0 {
        return 0..0;
    }
    (offset / stripe_size)..end.div_ceil(stripe_size)
}

/// Chunk round-trips a range read performs: `m` per covering stripe.
pub fn range_read_chunk_fetches(
    placement: &Placement,
    size: ByteSize,
    stripe_size: u64,
    offset: u64,
    len: u64,
) -> u64 {
    let covering = covering_stripes(size, stripe_size, offset, len);
    (covering.end - covering.start) * placement.m.max(1) as u64
}

/// The modelled latency of one range read at `placement`: the engine walks
/// the covering stripes in order (each an `m`-chunk concurrent fetch of
/// that stripe's chunk size), so the range read costs the *sum* of the
/// covering stripes' fetch latencies — and a sub-stripe probe of a large
/// object costs one stripe's fetch, not the whole object's.
pub fn modelled_range_read_latency_us(
    placement: &Placement,
    size: ByteSize,
    stripe_size: u64,
    offset: u64,
    len: u64,
) -> u64 {
    let total = size.bytes();
    covering_stripes(size, stripe_size, offset, len)
        .map(|i| {
            let stripe_len = (total - i * stripe_size).min(stripe_size);
            modelled_read_latency_us(placement, ByteSize::from_bytes(stripe_len))
        })
        .sum()
}

/// The actual latency of one write under the given overrides (slowest of
/// the `n` parallel chunk uploads).
fn actual_write_latency_us(placement: &Placement, size: ByteSize, actual: &ActualLatencies) -> u64 {
    let chunk_bytes = chunk_bytes_for(size, placement.m);
    placement
        .providers
        .iter()
        .map(|p| actual_model(p, actual).expected_us(chunk_bytes))
        .max()
        .unwrap_or(0)
}

/// The providers available during a given period, taking arrivals and
/// outages into account.
pub fn providers_at(
    base: &[ProviderDescriptor],
    events: &[ProviderEvent],
    period: u64,
) -> Vec<ProviderDescriptor> {
    let mut providers: Vec<ProviderDescriptor> = base.to_vec();
    let mut next_id = base.iter().map(|p| p.id.index()).max().unwrap_or(0) + 1;
    for event in events {
        if let ProviderEvent::Arrival {
            period: at,
            descriptor,
        } = event
        {
            if *at <= period {
                let mut d = descriptor.clone();
                d.id = scalia_types::ids::ProviderId::new(next_id);
                providers.push(d);
            }
            next_id += 1;
        }
    }
    providers.retain(|p| {
        !events.iter().any(|e| match e {
            ProviderEvent::Outage {
                provider_name,
                from,
                to,
            } => provider_name == &p.name && period >= *from && period < *to,
            _ => false,
        })
    });
    providers
}

/// Runs `policy` over `workload` with the given base provider catalog
/// (providers behave exactly as advertised — no overrides).
pub fn run_policy(
    workload: &Workload,
    base_catalog: &[ProviderDescriptor],
    policy: &mut dyn PlacementPolicy,
) -> PolicyRun {
    run_policy_with_actual(workload, base_catalog, policy, &ActualLatencies::new())
}

/// Runs `policy` over `workload`, with providers *actually* answering at
/// the latencies in `actual` (falling back to their advertised models) and
/// the resulting observations fed back into the descriptors the policy
/// sees. See the module docs for the full loop.
pub fn run_policy_with_actual(
    workload: &Workload,
    base_catalog: &[ProviderDescriptor],
    policy: &mut dyn PlacementPolicy,
    actual: &ActualLatencies,
) -> PolicyRun {
    let period_hours = workload.sampling_period.as_hours();
    let mut histories: HashMap<String, AccessHistory> = HashMap::new();
    let mut placements: HashMap<String, Placement> = HashMap::new();

    let mut total = Money::ZERO;
    let mut cumulative = Vec::with_capacity(workload.periods as usize);
    let mut resources = Vec::with_capacity(workload.periods as usize);
    let mut migrations = 0usize;
    let mut feasible = true;
    let mut read_latency = LatencyHistogram::new();
    let mut write_latency = LatencyHistogram::new();
    let mut sla_reads_total = 0u64;
    let mut sla_read_violations = 0u64;
    // Per-provider windows of actual chunk-read latencies, keyed by name.
    let mut observatory: LatencyObservatory<String> = LatencyObservatory::new();

    for period in 0..workload.periods {
        let mut available = providers_at(base_catalog, &workload.events, period);
        // Publish the view this period's descriptors and read ranking use:
        // windowed p95 once warm, nothing before. Zero summaries are never
        // published, so latency-free catalogs are untouched.
        let published = observatory.publish();
        for provider in &mut available {
            provider.observed_read_latency_us = published.read_us(&provider.name);
        }
        let mut sample = ResourceSample {
            period,
            ..ResourceSample::default()
        };

        for obj in &workload.objects {
            if !obj.alive_at(period) {
                // Objects deleted this period keep nothing and cost nothing.
                placements.remove(&obj.id);
                continue;
            }
            let mut demand = obj.demand_at(period);
            // Creating the object is itself a write: the paper's ideal
            // placement accounts for the incoming bandwidth and operations
            // of "handling the load during that period", which at the
            // creation period includes the initial upload.
            if period == obj.created_period {
                demand.writes += 1;
            }
            let history = histories.entry(obj.id.clone()).or_default();

            let Some(placement) = policy.placement_for(obj, period, &available, history, demand)
            else {
                feasible = false;
                continue;
            };

            // Migration charges (the creation upload is part of the period's
            // write demand and is charged by `compute_price` below).
            let previous = placements.get(&obj.id);
            match previous {
                None => {
                    sample.bw_in_gb += obj.size.as_gb() * placement.n() as f64 / placement.m as f64;
                }
                Some(prev) if !prev.same_as(&placement) => {
                    migrations += 1;
                    if policy.charges_migration() {
                        total += migration_cost(
                            obj.size,
                            &prev.providers,
                            prev.m,
                            &placement.providers,
                            placement.m,
                        );
                    }
                    // Reconstruction reads + new chunk writes move data.
                    sample.bw_out_gb += obj.size.as_gb();
                    let moved = placement
                        .providers
                        .iter()
                        .filter(|p| !prev.providers.iter().any(|q| q.name == p.name))
                        .count();
                    sample.bw_in_gb += obj.size.as_gb() * moved as f64 / placement.m as f64;
                }
                _ => {}
            }

            // Per-period serving cost. Storage and writes bill every set
            // member; reads bill the providers that *actually* serve them —
            // the latency-ranked serving set, which can differ from the
            // price-cheapest m once observations demote a slow provider.
            let usage = PredictedUsage {
                size: obj.size,
                bw_in: ByteSize::from_bytes(demand.writes * obj.size.bytes()),
                bw_out: ByteSize::from_bytes(demand.reads * obj.size.bytes()),
                reads: demand.reads,
                writes: demand.writes,
                duration_hours: period_hours,
            };
            let serving = read_providers(&placement, obj.size, observatory.published());
            let storage_and_writes = PredictedUsage {
                bw_out: ByteSize::ZERO,
                reads: 0,
                ..usage
            };
            total += compute_price(&placement.providers, placement.m, &storage_and_writes);
            if usage.reads > 0 || !usage.bw_out.is_zero() {
                let read_gb_per_provider = usage.bw_out.as_gb() / placement.m.max(1) as f64;
                for &i in &serving {
                    let provider = &placement.providers[i];
                    total += provider
                        .pricing
                        .bandwidth_out_gb
                        .scale(read_gb_per_provider);
                    total += provider
                        .pricing
                        .ops_per_1000
                        .scale(usage.reads as f64 / 1000.0);
                }
            }

            // Tail-latency accounting: one sample per read/write served
            // this period, at the placement's *actual* parallel latency.
            let chunk_bytes = chunk_bytes_for(obj.size, placement.m);
            let read_us = serving
                .iter()
                .map(|&i| actual_model(&placement.providers[i], actual).expected_us(chunk_bytes))
                .max()
                .unwrap_or(0);
            read_latency.record_n(read_us, demand.reads);
            write_latency.record_n(
                actual_write_latency_us(&placement, obj.size, actual),
                demand.writes,
            );

            // SLA accounting: reads under a latency-bounded rule either all
            // meet the bound this period or all miss it (identical requests
            // see identical latency).
            if let Some(sla_us) = obj.rule.read_sla_us {
                sla_reads_total += demand.reads;
                if read_us > sla_us {
                    sla_read_violations += demand.reads;
                }
            }

            // Feed the observation windows: every read-serving provider
            // answered `reads` chunk fetches at its actual latency, and
            // every other member of the placement was passed over.
            if demand.reads > 0 {
                for (i, provider) in placement.providers.iter().enumerate() {
                    let name = provider.name.clone();
                    if serving.contains(&i) {
                        let us = actual_model(provider, actual).expected_us(chunk_bytes);
                        observatory.record_read_n(name, us, demand.reads);
                    } else {
                        observatory.record_passed_over(name);
                    }
                }
            }

            // Aggregate resources.
            sample.storage_gb += obj.size.as_gb() * placement.n() as f64 / placement.m as f64;
            sample.bw_out_gb += usage.bw_out.as_gb();
            sample.bw_in_gb += usage.bw_in.as_gb();

            // Record this period in the object's history (visible to the
            // policy from the next period onwards).
            let mut stats = PeriodStats::empty(period);
            stats.storage = obj.size;
            stats.reads = demand.reads;
            stats.writes = demand.writes;
            stats.bw_out = usage.bw_out;
            stats.bw_in = usage.bw_in;
            history.push(stats);

            placements.insert(obj.id.clone(), placement);
        }

        cumulative.push(total);
        resources.push(sample);

        // Window rotation: summaries cover the last two windows, so a
        // provider whose recent behaviour changed is re-judged (or
        // forgiven) within two windows.
        if (period + 1) % OBSERVATION_WINDOW_PERIODS == 0 {
            observatory.rotate();
        }
    }

    PolicyRun {
        name: policy.name(),
        total_cost: total,
        cumulative_cost: cumulative,
        resources,
        migrations,
        feasible,
        read_latency: read_latency.snapshot(),
        write_latency: write_latency.snapshot(),
        sla_reads_total,
        sla_read_violations,
        placement_searches: policy.placement_searches(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{IdealPolicy, ScaliaPolicy, StaticSetPolicy};
    use crate::workload::{PeriodDemand, WorkloadObject};
    use scalia_providers::catalog::{cheapstor, ProviderCatalog};
    use scalia_types::reliability::Reliability;
    use scalia_types::rules::StorageRule;
    use scalia_types::time::Duration;
    use scalia_types::zone::ZoneSet;

    fn catalog() -> Vec<ProviderDescriptor> {
        ProviderCatalog::paper_catalog().all()
    }

    fn rule() -> StorageRule {
        StorageRule::new(
            "r",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            1.0,
        )
    }

    fn simple_workload(reads_per_period: &[u64]) -> Workload {
        Workload {
            name: "simple".into(),
            objects: vec![WorkloadObject {
                id: "obj".into(),
                size: ByteSize::from_mb(1),
                rule: rule(),
                created_period: 0,
                deleted_period: None,
                demand: reads_per_period
                    .iter()
                    .map(|&reads| PeriodDemand { reads, writes: 0 })
                    .collect(),
            }],
            periods: reads_per_period.len() as u64,
            sampling_period: Duration::HOUR,
            events: vec![],
        }
    }

    #[test]
    fn costs_accumulate_monotonically() {
        let workload = simple_workload(&[0, 5, 10, 0, 0]);
        let mut policy = IdealPolicy::new();
        let run = run_policy(&workload, &catalog(), &mut policy);
        assert!(run.feasible);
        assert_eq!(run.cumulative_cost.len(), 5);
        for pair in run.cumulative_cost.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        assert_eq!(run.total_cost, *run.cumulative_cost.last().unwrap());
        assert!(run.total_cost.is_positive());
    }

    #[test]
    fn resources_reflect_demand() {
        let workload = simple_workload(&[0, 100, 0]);
        let mut policy = StaticSetPolicy::new("S3(h)-S3(l)", &catalog()[..2]);
        let run = run_policy(&workload, &catalog(), &mut policy);
        // 100 reads of a 1 MB object = 0.1 GB out in period 1.
        assert!(run.resources[1].bw_out_gb > 0.09 && run.resources[1].bw_out_gb < 0.11);
        assert!(run.resources[0].bw_out_gb < 0.001);
        // Storage footprint stays roughly constant (mirrored: 2 MB raw).
        assert!(run.resources[2].storage_gb > 0.0015 && run.resources[2].storage_gb < 0.0025);
    }

    #[test]
    fn ideal_is_never_more_expensive_than_static_sets() {
        let workload = simple_workload(&[0, 0, 50, 150, 100, 20, 0, 0]);
        let providers = catalog();
        let mut ideal = IdealPolicy::new();
        let ideal_run = run_policy(&workload, &providers, &mut ideal);
        for sub in [&providers[..2], &providers[..3], &providers[..5]] {
            let mut static_policy = StaticSetPolicy::new("static", sub);
            let static_run = run_policy(&workload, &providers, &mut static_policy);
            if static_run.feasible {
                assert!(
                    ideal_run.total_cost <= static_run.total_cost,
                    "ideal ({}) must lower-bound {} ({})",
                    ideal_run.total_cost,
                    static_run.name,
                    static_run.total_cost
                );
            }
        }
    }

    #[test]
    fn scalia_tracks_the_ideal_closely_on_a_spike() {
        // A small Slashdot-like workload.
        let mut reads = vec![0u64; 24];
        reads.extend([
            20, 60, 120, 150, 148, 146, 140, 120, 100, 80, 60, 40, 20, 10, 5, 0,
        ]);
        reads.extend(vec![0u64; 8]);
        let workload = simple_workload(&reads);
        let providers = catalog();

        let mut ideal = IdealPolicy::new();
        let ideal_run = run_policy(&workload, &providers, &mut ideal);
        let mut scalia = ScaliaPolicy::new(1.0);
        let scalia_run = run_policy(&workload, &providers, &mut scalia);

        assert!(scalia_run.feasible);
        assert!(scalia_run.total_cost >= ideal_run.total_cost);
        let over = scalia_run.total_cost.percent_over(ideal_run.total_cost);
        assert!(
            over < 20.0,
            "Scalia should stay near the ideal, got {over:.2}%"
        );

        // And Scalia must beat the worst static choice.
        let mut worst: Option<Money> = None;
        for sub in [&providers[..2], &providers[..5]] {
            let mut p = StaticSetPolicy::new("s", sub);
            let run = run_policy(&workload, &providers, &mut p);
            if run.feasible {
                worst = Some(worst.map_or(run.total_cost, |w: Money| w.max(run.total_cost)));
            }
        }
        if let Some(worst) = worst {
            assert!(scalia_run.total_cost <= worst);
        }
    }

    #[test]
    fn latency_free_catalog_reports_zero_latency_with_full_counts() {
        let workload = simple_workload(&[0, 5, 10, 0, 0]);
        let mut policy = IdealPolicy::new();
        let run = run_policy(&workload, &catalog(), &mut policy);
        // One sample per served read and write (creation counts as a write).
        assert_eq!(run.read_latency.count, 15);
        assert_eq!(run.write_latency.count, 1);
        assert_eq!(run.read_latency.p99_us, 0, "no latency model, no latency");
        assert_eq!(run.write_latency.max_us, 0);
    }

    #[test]
    fn modelled_latencies_are_the_fanout_critical_path_not_the_sum() {
        let providers = crate::scenarios::latency_catalog(3);
        let placement = Placement {
            providers: providers[..3].to_vec(),
            m: 2,
        };
        let size = ByteSize::from_mb(1);
        let chunk_bytes = size.bytes().div_ceil(2);
        let per_provider: Vec<u64> = placement
            .providers
            .iter()
            .map(|p| p.latency.expected_us(chunk_bytes))
            .collect();
        let read = modelled_read_latency_us(&placement, size);
        let write = modelled_write_latency_us(&placement, size);
        let sum: u64 = per_provider.iter().sum();
        let max = *per_provider.iter().max().unwrap();
        assert!(read > 0 && read <= max, "read {read} ≤ slowest {max}");
        assert_eq!(write, max, "write waits for the slowest of all n");
        assert!(
            write < sum,
            "parallel upload {write} must beat the sequential sum {sum}"
        );
    }

    #[test]
    fn covering_stripes_clamps_to_the_object() {
        let size = ByteSize::from_bytes(4_240);
        // Stripe size 1000 ⇒ stripes [0,1000) … [4000,4240).
        assert_eq!(covering_stripes(size, 1000, 0, 1), 0..1);
        assert_eq!(covering_stripes(size, 1000, 999, 2), 0..2);
        assert_eq!(covering_stripes(size, 1000, 1000, 1000), 1..2);
        assert_eq!(covering_stripes(size, 1000, 0, u64::MAX), 0..5);
        assert_eq!(covering_stripes(size, 1000, 4_239, 100), 4..5);
        // Empty and past-EOF ranges cover nothing.
        assert_eq!(covering_stripes(size, 1000, 100, 0), 0..0);
        assert_eq!(covering_stripes(size, 1000, 4_240, 10), 0..0);
        assert_eq!(covering_stripes(size, 1000, 9_999, 10), 0..0);
    }

    #[test]
    fn range_reads_charge_only_the_covering_stripes() {
        let providers = crate::scenarios::latency_catalog(3);
        let placement = Placement {
            providers: providers[..3].to_vec(),
            m: 2,
        };
        let stripe = 1_000u64;
        let size = ByteSize::from_bytes(20_000); // 20 stripes

        // A sub-stripe probe fetches one stripe's m chunks and costs one
        // stripe's fetch — a small fraction of the full read.
        assert_eq!(
            range_read_chunk_fetches(&placement, size, stripe, 5_100, 10),
            2
        );
        let probe = modelled_range_read_latency_us(&placement, size, stripe, 5_100, 10);
        let one_stripe = modelled_read_latency_us(&placement, ByteSize::from_bytes(stripe));
        assert_eq!(probe, one_stripe);

        // The whole-object range walks every stripe sequentially.
        assert_eq!(
            range_read_chunk_fetches(&placement, size, stripe, 0, u64::MAX),
            40
        );
        let full = modelled_range_read_latency_us(&placement, size, stripe, 0, u64::MAX);
        assert_eq!(full, 20 * one_stripe);
        assert!(probe * 10 < full, "probe {probe} ≪ full scan {full}");

        // Empty and past-EOF ranges are free.
        assert_eq!(
            range_read_chunk_fetches(&placement, size, stripe, 100, 0),
            0
        );
        assert_eq!(
            modelled_range_read_latency_us(&placement, size, stripe, 30_000, 5),
            0
        );

        // A one-stripe object's range read is a read of the whole object.
        let small = ByteSize::from_bytes(700);
        assert_eq!(
            range_read_chunk_fetches(&placement, small, stripe, 0, 10),
            2
        );
        assert_eq!(
            modelled_range_read_latency_us(&placement, small, stripe, 0, 10),
            modelled_read_latency_us(&placement, small)
        );
    }

    #[test]
    fn slow_provider_scenario_shows_up_in_the_latency_tail() {
        let (workload, slow_catalog) = crate::scenarios::slow_provider();
        let baseline_catalog = crate::scenarios::latency_catalog(11);

        let mut policy = ScaliaPolicy::new(1.0);
        let slow_run = run_policy(&workload, &slow_catalog, &mut policy);
        let mut policy = ScaliaPolicy::new(1.0);
        let baseline_run = run_policy(&workload, &baseline_catalog, &mut policy);

        assert!(slow_run.feasible && baseline_run.feasible);
        assert!(baseline_run.read_latency.p95_us > 0, "latency model active");
        assert!(
            slow_run.read_latency.p99_us >= baseline_run.read_latency.p99_us,
            "a far provider cannot improve the tail: {} vs {}",
            slow_run.read_latency.p99_us,
            baseline_run.read_latency.p99_us
        );
    }

    #[test]
    fn sla_accounting_counts_violations_against_the_rule_bound() {
        // One object, latency-annotated catalog, a 1 µs SLA nothing can
        // meet vs a 10 s SLA nothing can miss.
        let providers = crate::scenarios::latency_catalog(3);
        let mut workload = simple_workload(&[0, 5, 10, 0]);
        workload.objects[0].rule = workload.objects[0].rule.clone().with_read_sla_us(1);
        let strict = run_policy(&workload, &providers, &mut IdealPolicy::new());
        assert_eq!(strict.sla_reads_total, 15);
        assert_eq!(strict.sla_read_violations, 15);
        assert!((strict.sla_violation_rate() - 1.0).abs() < 1e-9);

        workload.objects[0].rule = workload.objects[0]
            .rule
            .clone()
            .with_read_sla_us(10_000_000);
        let lax = run_policy(&workload, &providers, &mut IdealPolicy::new());
        assert_eq!(lax.sla_read_violations, 0);
        assert_eq!(lax.sla_violation_rate(), 0.0);

        // Rules without a bound keep the accounting off entirely.
        let none = run_policy(
            &simple_workload(&[0, 5]),
            &providers,
            &mut IdealPolicy::new(),
        );
        assert_eq!(none.sla_reads_total, 0);
        assert_eq!(none.sla_violation_rate(), 0.0);
    }

    #[test]
    fn cheap_but_slow_provider_loses_placements_once_observed() {
        let (workload, catalog, actual) = crate::scenarios::cheap_but_slow();

        // Adaptive run: latency-weighted rules + observation feedback.
        let mut policy = ScaliaPolicy::new(1.0);
        let adaptive = run_policy_with_actual(&workload, &catalog, &mut policy, &actual);

        // Baseline: identical workload and actual latencies, but the rules
        // are latency-blind — the policy keeps trusting the advertised
        // (cheap, "fast") provider forever.
        let mut blind_workload = workload.clone();
        for obj in &mut blind_workload.objects {
            obj.rule = obj.rule.clone().with_latency_weight(0.0);
        }
        let mut blind_policy = ScaliaPolicy::new(1.0);
        let blind = run_policy_with_actual(&blind_workload, &catalog, &mut blind_policy, &actual);

        assert!(adaptive.feasible && blind.feasible);
        assert_eq!(adaptive.sla_reads_total, blind.sla_reads_total);
        assert!(blind.sla_reads_total > 0);
        // The blind baseline's read tail sits at the slow pair's latency,
        // far past the 120 ms SLA; the adaptive run pulls the whole tail
        // back under the bound once observations accumulate.
        assert!(
            blind.read_latency.p99_us > 120_000,
            "blind p99 {} must blow the SLA",
            blind.read_latency.p99_us
        );
        assert!(
            adaptive.read_latency.p99_us <= 120_000,
            "adaptive p99 {} must end up within the SLA",
            adaptive.read_latency.p99_us
        );
        // And the violation count collapses (what is left is the warm-up
        // window plus low-traffic objects whose reads never justify a
        // migration).
        assert!(
            2 * adaptive.sla_read_violations < blind.sla_read_violations,
            "observation-driven placement must shed most SLA violations: \
             adaptive {} vs blind {} (of {})",
            adaptive.sla_read_violations,
            blind.sla_read_violations,
            blind.sla_reads_total
        );
        assert!(
            adaptive.migrations > blind.migrations,
            "shedding the slow pair requires latency-driven migrations: \
             adaptive {} vs blind {}",
            adaptive.migrations,
            blind.migrations
        );
    }

    #[test]
    fn class_shared_searches_scale_with_classes_not_objects() {
        // The many-objects-few-classes scenario: members of a class are
        // indistinguishable (same size, same demand), so the policy's
        // exact-input search memo collapses their searches. Scaling the
        // object count 10× at a fixed class count must not change the
        // number of placement searches at all.
        let providers = catalog();
        let small = crate::scenarios::many_objects_few_classes(12, 6);
        let big = crate::scenarios::many_objects_few_classes(120, 6);

        let mut policy = ScaliaPolicy::new(1.0);
        let small_run = run_policy(&small, &providers, &mut policy);
        let mut policy = ScaliaPolicy::new(1.0);
        let big_run = run_policy(&big, &providers, &mut policy);

        assert!(small_run.feasible && big_run.feasible);
        assert!(small_run.placement_searches > 0);
        assert_eq!(
            small_run.placement_searches, big_run.placement_searches,
            "searches must depend on classes, not objects"
        );
        // And the absolute volume stays far below one-search-per-object
        // per re-evaluation: 120 objects over 48 periods would mean
        // thousands of searches object-centric.
        assert!(
            big_run.placement_searches < 120,
            "got {} searches for 120 objects in 6 classes",
            big_run.placement_searches
        );
    }

    #[test]
    fn provider_events_change_the_available_set() {
        let base = catalog();
        let events = vec![
            ProviderEvent::Arrival {
                period: 10,
                descriptor: cheapstor(scalia_types::ids::ProviderId::new(0)),
            },
            ProviderEvent::Outage {
                provider_name: "S3(l)".into(),
                from: 5,
                to: 8,
            },
        ];
        assert_eq!(providers_at(&base, &events, 0).len(), 5);
        let during_outage = providers_at(&base, &events, 6);
        assert_eq!(during_outage.len(), 4);
        assert!(during_outage.iter().all(|p| p.name != "S3(l)"));
        let after_arrival = providers_at(&base, &events, 12);
        assert_eq!(after_arrival.len(), 6);
        assert!(after_arrival.iter().any(|p| p.name == "CheapStor"));
        // Newly arrived providers get fresh ids that do not collide.
        let ids: Vec<u32> = after_arrival.iter().map(|p| p.id.index()).collect();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len());
    }

    #[test]
    fn infeasible_static_set_is_flagged() {
        // A single-provider static set cannot meet 99.99 availability.
        let workload = simple_workload(&[1, 1, 1]);
        let providers = catalog();
        let mut policy = StaticSetPolicy::new("S3(h) only", &providers[..1]);
        let run = run_policy(&workload, &providers, &mut policy);
        assert!(!run.feasible);
    }
}
