//! The paper's evaluation scenarios (§IV), parameterised exactly as
//! described.

use crate::workload::{
    diffuse_rounding, pareto_popularity, website_hourly_visits, PeriodDemand, ProviderEvent,
    Workload, WorkloadObject,
};
use scalia_providers::catalog::{cheapstor, ProviderCatalog};
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_providers::latency::LatencyModel;
use scalia_types::ids::ProviderId;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::time::Duration;
use scalia_types::zone::ZoneSet;

/// Total length of the Slashdot / Gallery / repair scenarios: 7.5 days of
/// hourly sampling periods (the x-axis of Figs. 12, 15 and 18).
pub(crate) const WEEK_AND_A_HALF_HOURS: u64 = 180;

/// §IV-B — the Slashdot effect: a single 1 MB object is quiet for two days,
/// then its read rate jumps from 0 to 150 requests/hour within 3 hours and
/// decays by 2 requests/hour afterwards. Availability 99.99 %, durability
/// 99.999 %.
pub fn slashdot() -> Workload {
    let periods = WEEK_AND_A_HALF_HOURS;
    let mut reads = vec![0u64; periods as usize];
    for (hour, slot) in reads.iter_mut().enumerate() {
        let hour = hour as u64;
        *slot = if hour < 48 {
            0
        } else if hour < 51 {
            // 0 → 150 in 3 hours.
            (hour - 48 + 1) * 50
        } else {
            150u64.saturating_sub(2 * (hour - 51))
        };
    }
    let rule = StorageRule::new(
        "slashdot",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        1.0,
    );
    Workload {
        name: "Slashdot effect".into(),
        objects: vec![WorkloadObject {
            id: "slashdotted-object".into(),
            size: ByteSize::from_mb(1),
            rule,
            created_period: 0,
            deleted_period: None,
            demand: reads
                .into_iter()
                .map(|reads| PeriodDemand { reads, writes: 0 })
                .collect(),
        }],
        periods,
        sampling_period: Duration::HOUR,
        events: vec![],
    }
}

/// §IV-C — the Gallery: 200 pictures of 250 KB accessed following the daily
/// pattern of a ~2500-visitor/day website (62 % EU, 27 % NA, 6 % Asia), with
/// per-picture popularity following a truncated Pareto(1, 50). Availability
/// 99.99 % per picture.
pub fn gallery() -> Workload {
    gallery_with(200, 4.0, 42)
}

/// Parameterised Gallery scenario: `pictures` pictures, `views_per_visit`
/// average picture views per visitor, and a reproducibility seed.
pub fn gallery_with(pictures: usize, views_per_visit: f64, seed: u64) -> Workload {
    let periods = WEEK_AND_A_HALF_HOURS;
    let visits = website_hourly_visits(periods, 2500.0, seed);
    let popularity = pareto_popularity(pictures, 50.0, seed.wrapping_add(1));
    let rule = StorageRule::new(
        "gallery",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        1.0,
    );

    let objects = (0..pictures)
        .map(|i| {
            let expected: Vec<f64> = visits
                .iter()
                .map(|&v| v * views_per_visit * popularity[i])
                .collect();
            let reads = diffuse_rounding(&expected);
            WorkloadObject {
                id: format!("picture-{i:03}"),
                size: ByteSize::from_kb(250),
                rule: rule.clone(),
                created_period: 0,
                deleted_period: None,
                demand: reads
                    .into_iter()
                    .map(|reads| PeriodDemand { reads, writes: 0 })
                    .collect(),
            }
        })
        .collect();

    Workload {
        name: "Gallery".into(),
        objects,
        periods,
        sampling_period: Duration::HOUR,
        events: vec![],
    }
}

/// §IV-D — adding a storage provider: a new 40 MB backup object is written
/// every 5 hours for 4 weeks; the data owner requires at least 2 providers
/// (lock-in 0.5); at hour 400 the cheaper provider "CheapStor" is
/// registered.
pub fn adding_provider() -> Workload {
    let periods: u64 = 4 * 7 * 24; // 4 weeks = 672 hours
    let rule = StorageRule::new(
        "backup",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.9),
        ZoneSet::all(),
        0.5,
    );
    let objects = (0..periods)
        .step_by(5)
        .map(|created| WorkloadObject {
            id: format!("backup-{created:04}"),
            size: ByteSize::from_mb(40),
            rule: rule.clone(),
            created_period: created,
            deleted_period: None,
            demand: vec![PeriodDemand::default(); periods as usize],
        })
        .collect();
    Workload {
        name: "Adding a storage provider".into(),
        objects,
        periods,
        sampling_period: Duration::HOUR,
        events: vec![ProviderEvent::Arrival {
            period: 400,
            descriptor: cheapstor(ProviderId::new(0)),
        }],
    }
}

/// §IV-E — active repair: a new 40 MB object every 5 hours over 7.5 days;
/// S3(l) suffers a transient failure between hour 60 and hour 120.
pub fn active_repair() -> Workload {
    let periods = WEEK_AND_A_HALF_HOURS;
    let rule = StorageRule::new(
        "repair",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.9),
        ZoneSet::all(),
        0.5,
    );
    let objects = (0..periods)
        .step_by(5)
        .map(|created| WorkloadObject {
            id: format!("repair-{created:04}"),
            size: ByteSize::from_mb(40),
            rule: rule.clone(),
            created_period: created,
            deleted_period: None,
            demand: vec![PeriodDemand::default(); periods as usize],
        })
        .collect();
    Workload {
        name: "Active repair".into(),
        objects,
        periods,
        sampling_period: Duration::HOUR,
        events: vec![ProviderEvent::Outage {
            provider_name: "S3(l)".into(),
            from: 60,
            to: 120,
        }],
    }
}

/// The paper's Fig. 3 catalog with realistic latency models attached: every
/// provider gets a distinctly-seeded "typical public cloud" profile
/// (~30 ms RTT, 80 MB/s, 10 % jitter), so data-path scenarios can observe
/// round-trip times at all. Costs, SLAs and zones are unchanged.
pub fn latency_catalog(seed: u64) -> Vec<ProviderDescriptor> {
    ProviderCatalog::paper_catalog()
        .all()
        .into_iter()
        .enumerate()
        .map(|(i, descriptor)| {
            let model = LatencyModel::typical(seed.wrapping_add(i as u64));
            descriptor.with_latency(model)
        })
        .collect()
}

/// The per-period read counts of a single object following the reference
/// website's pattern — the input series of the trend-detection Figs. 8
/// (hourly samples over 7 days) and 9 (daily samples over 3 months).
pub fn website_read_series(periods: u64, period_hours: u64, seed: u64) -> Vec<u64> {
    let hourly = website_hourly_visits(periods * period_hours, 2500.0, seed);
    // Aggregate hourly visits into the requested sampling period.
    let expected: Vec<f64> = hourly
        .chunks(period_hours as usize)
        .map(|chunk| chunk.iter().sum())
        .collect();
    diffuse_rounding(&expected)
}

#[cfg(test)]
/// **Slow-provider scenario**: Gallery-style traffic served from the
/// latency-annotated catalog, with one provider (`S3(l)`, a frequent member
/// of cheap read sets) moved far away — 10× the typical RTT and a fifth of
/// the throughput. Every read that must touch it pays the distance; the
/// tail of [`crate::accounting::PolicyRun::read_latency`] is where it
/// shows.
pub(crate) fn slow_provider() -> (Workload, Vec<ProviderDescriptor>) {
    let mut catalog = latency_catalog(11);
    catalog[1].latency = LatencyModel::slow(97);
    let mut workload = gallery_with(40, 4.0, 7);
    workload.name = "Gallery with a slow provider".into();
    (workload, catalog)
}

#[cfg(test)]
/// **Limping-provider scenario**: same traffic, but one provider straggles
/// instead of being uniformly slow — nominal latency near-typical with 90 %
/// jitter, the profile hedged reads exist to absorb. The median barely
/// moves while p99 blows up.
pub(crate) fn limping_provider() -> (Workload, Vec<ProviderDescriptor>) {
    let mut catalog = latency_catalog(23);
    catalog[1].latency = LatencyModel::limping(5);
    let mut workload = gallery_with(40, 4.0, 8);
    workload.name = "Gallery with a limping provider".into();
    (workload, catalog)
}

#[cfg(test)]
/// **Cheap-but-slow scenario**: the latency-annotated paper catalog plus
/// "BargainBin" — a provider that undercuts everyone on price and
/// *advertises* a typical latency profile. In reality both BargainBin and
/// S3(l) — the two providers every cheap placement leans on — answer from
/// the other side of the planet (10× RTT, a fifth of the throughput; the
/// [`crate::accounting::ActualLatencies`] override), so the cheapest feasible sets carry *two*
/// slow members and the hedged read's ranking alone cannot dodge them: with
/// `m`-of-`n` slack of one, some read chunk must come from a slow provider
/// until the placement itself moves. Objects follow a read-heavy Gallery
/// pattern under a rule that prices latency
/// ([`scalia_types::rules::StorageRule::latency_weight`]) and declares a
/// 120 ms read SLA.
///
/// Run through [`crate::accounting::run_policy_with_actual`]: the adaptive
/// policy first places on the cheap set (nothing is known against it), the
/// observation loop accumulates the real latencies, and once the windowed
/// p95s are published the latency term makes the slow pair lose read-heavy
/// placements to the pricier fast providers. The same rules at weight 0
/// keep paying the SLA violations forever — the baseline the scenario is
/// asserted against.
pub(crate) fn cheap_but_slow() -> (
    Workload,
    Vec<ProviderDescriptor>,
    crate::accounting::ActualLatencies,
) {
    let mut catalog = latency_catalog(31);
    let next_id = catalog.len() as u32;
    catalog.push(
        ProviderDescriptor::public(
            ProviderId::new(next_id),
            "BargainBin",
            "cheapest offer on the market; latency not as advertised",
            scalia_providers::sla::ProviderSla::from_percent(99.9999, 99.9),
            scalia_providers::pricing::PricingPolicy::from_dollars(0.05, 0.08, 0.10, 0.0),
            ZoneSet::all(),
        )
        .with_latency(LatencyModel::typical(77)),
    );
    let mut actual = crate::accounting::ActualLatencies::new();
    actual.insert("BargainBin".into(), LatencyModel::slow(13));
    actual.insert("S3(l)".into(), LatencyModel::slow(41));

    let mut workload = gallery_with(30, 4.0, 9);
    workload.name = "Gallery on cheap-but-slow providers".into();
    for obj in &mut workload.objects {
        obj.rule = obj
            .rule
            .clone()
            .with_latency_weight(0.01)
            .with_read_sla_us(120_000);
    }
    (workload, catalog, actual)
}

#[cfg(test)]
/// The scalability scenario behind the paper's class argument (§III-A1/A2):
/// `objects` objects spread over `classes` classes — every member of a
/// class has the identical size and the identical demand trajectory
/// (steady trickle, then the class's synchronized popularity spike), so
/// class-amortised machinery (the engine's one-search-per-class optimiser,
/// the sim policy's exact-input search memo) runs `O(classes)` placement
/// searches per re-evaluation where object-centric machinery runs
/// `O(objects)`.
pub(crate) fn many_objects_few_classes(objects: usize, classes: usize) -> Workload {
    let classes = classes.clamp(1, objects.max(1));
    let periods = 48u64;
    let rule = StorageRule::new(
        "class-centric",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    );
    let mut workload_objects = Vec::with_capacity(objects);
    for i in 0..objects {
        let class = i % classes;
        // One distinct discretised megabyte bucket per class.
        let size = ByteSize::from_kb(256) + ByteSize::from_mb(class as u64);
        // The class's spike hour is staggered so re-evaluations of
        // different classes land in different periods.
        let spike_at = 12 + (class as u64 * 3) % 24;
        let demand: Vec<PeriodDemand> = (0..periods)
            .map(|p| {
                let reads = if p >= spike_at && p < spike_at + 4 {
                    60
                } else {
                    2
                };
                PeriodDemand { reads, writes: 0 }
            })
            .collect();
        workload_objects.push(WorkloadObject {
            id: format!("c{class:02}-obj{i:05}"),
            size,
            rule: rule.clone(),
            created_period: 0,
            deleted_period: None,
            demand,
        });
    }
    Workload {
        name: format!("{objects} objects in {classes} classes"),
        objects: workload_objects,
        periods,
        sampling_period: Duration::HOUR,
        events: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slashdot_matches_paper_parameters() {
        let w = slashdot();
        assert_eq!(w.periods, 180);
        assert_eq!(w.objects.len(), 1);
        let demand = &w.objects[0].demand;
        assert_eq!(demand[47].reads, 0);
        assert_eq!(demand[48].reads, 50);
        assert_eq!(demand[50].reads, 150);
        assert_eq!(demand[51].reads, 150);
        assert_eq!(demand[52].reads, 148);
        // The decay reaches zero before the end of the run.
        assert_eq!(demand[140].reads, 0);
        assert_eq!(w.objects[0].size, ByteSize::from_mb(1));
    }

    #[test]
    fn gallery_has_200_pictures_with_skewed_popularity() {
        let w = gallery();
        assert_eq!(w.objects.len(), 200);
        assert!(w.objects.iter().all(|o| o.size == ByteSize::from_kb(250)));
        let totals: Vec<u64> = w
            .objects
            .iter()
            .map(|o| o.demand.iter().map(|d| d.reads).sum())
            .collect();
        let max = *totals.iter().max().unwrap();
        let min = *totals.iter().min().unwrap();
        assert!(max > 10 * (min + 1), "popularity must be heavily skewed");
        // Total traffic roughly matches 2500 visitors/day × 4 views × 7.5 d.
        let total: u64 = totals.iter().sum();
        assert!(total > 40_000 && total < 120_000, "total reads = {total}");
    }

    #[test]
    fn adding_provider_schedules_cheapstor_arrival() {
        let w = adding_provider();
        assert_eq!(w.periods, 672);
        assert_eq!(w.objects.len(), 672usize.div_ceil(5));
        assert!(matches!(
            w.events[0],
            ProviderEvent::Arrival { period: 400, .. }
        ));
        // Objects keep accumulating (backups are never deleted).
        assert!(w.objects.iter().all(|o| o.deleted_period.is_none()));
        assert!(w.objects.iter().all(|o| o.size.bytes() == 40_000_000));
    }

    #[test]
    fn active_repair_schedules_the_outage() {
        let w = active_repair();
        assert!(matches!(
            &w.events[0],
            ProviderEvent::Outage { provider_name, from: 60, to: 120 } if provider_name == "S3(l)"
        ));
        assert_eq!(w.objects[0].size, ByteSize::from_mb(40));
    }

    #[test]
    fn latency_catalog_preserves_pricing_and_annotates_every_provider() {
        let base = ProviderCatalog::paper_catalog().all();
        let annotated = latency_catalog(1);
        assert_eq!(annotated.len(), base.len());
        for (a, b) in annotated.iter().zip(base.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.pricing, b.pricing);
            assert_eq!(a.sla, b.sla);
            assert!(!a.latency.is_zero(), "{} must have latency", a.name);
        }
        // Seeds differ per provider, so jitter streams are independent.
        assert_ne!(annotated[0].latency.seed, annotated[1].latency.seed);
    }

    #[test]
    fn slow_provider_scenario_singles_out_one_far_provider() {
        let (workload, catalog) = slow_provider();
        assert!(!workload.objects.is_empty());
        let slow: Vec<&ProviderDescriptor> = catalog
            .iter()
            .filter(|p| {
                p.latency.expected_us(1_000_000)
                    > 2 * LatencyModel::typical(0).expected_us(1_000_000)
            })
            .collect();
        assert_eq!(slow.len(), 1, "exactly one provider is far away");
    }

    #[test]
    fn limping_provider_scenario_straggles_instead_of_crawling() {
        let (_, catalog) = limping_provider();
        let limping: Vec<&ProviderDescriptor> = catalog
            .iter()
            .filter(|p| p.latency.jitter_pct > 50)
            .collect();
        assert_eq!(limping.len(), 1);
        // Nominal latency stays near typical — only the spread explodes.
        let nominal = limping[0].latency.expected_us(250_000);
        let typical = LatencyModel::typical(0).expected_us(250_000);
        assert!(nominal < 2 * typical, "{nominal} vs {typical}");
    }

    #[test]
    fn website_series_is_diurnal_at_hourly_and_smooth_at_daily_scale() {
        let hourly = website_read_series(7 * 24, 1, 11);
        assert_eq!(hourly.len(), 168);
        let daily = website_read_series(90, 24, 11);
        assert_eq!(daily.len(), 90);
        // Daily aggregation is much smoother (relative spread) than hourly.
        let spread = |xs: &[u64]| {
            let max = *xs.iter().max().unwrap() as f64;
            let min = *xs.iter().min().unwrap() as f64;
            (max - min) / max.max(1.0)
        };
        assert!(spread(&hourly) > spread(&daily));
    }
}
