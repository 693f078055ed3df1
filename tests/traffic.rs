//! Integration tests of the traffic harness: the seeded 100k-op
//! multi-tenant trace pinned to one outcome digest, admission control bounding the tail under a flash crowd (rejecting, not
//! dropping), weighted per-tenant fairness under saturation, durability of
//! acked writes across a mid-burst provider outage, and the price-drop
//! mass-migration event.

use scalia::prelude::*;
use scalia::sim::traffic::{object_key, replay_trace, replay_trace_on, traffic_cluster};

/// The pinned outcome digest of [`digest_spec`]'s 100k-op trace. Every
/// field of every tenant's report (counters, bytes, latency percentiles,
/// admission peaks) feeds this hash; any change to the trace generator, the
/// scheduler, the admission controller or the engine's virtual-latency
/// accounting shows up here.
const PINNED_DIGEST: &str = "a353215aacf78f7e2e0af17c6d193cb8";

/// The pinned outcome digest of [`price_drop_spec`]'s trace: a forced
/// optimisation cycle mid-trace migrates objects onto a new provider, and
/// every migration draws a version id and reshapes the latency
/// observations the reads after it are served under.
const PRICE_DROP_DIGEST: &str = "1f42c3bf534cc96ef74a3ca517f77d16";

fn tenant(name: &str, weight: u32, ops_per_sec: f64, objects: usize) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        weight,
        sla_us: 0,
        objects,
        object_size: 1024,
        zipf_s: 1.0,
        mix: OpMix::read_heavy(),
        arrivals: ArrivalPattern::Uniform { ops_per_sec },
    }
}

/// The reproducibility workhorse: three tenants, ~100k ops over 60 s of
/// virtual time, one provider outage mid-trace, periodic maintenance
/// ticks.
fn digest_spec() -> TrafficSpec {
    TrafficSpec {
        name: "digest-100k".into(),
        seed: 0x5CA1_1A00,
        horizon_us: 60_000_000,
        slot_us: 10_000,
        tenants: vec![
            tenant("alpha", 1, 555.6, 400),
            tenant("beta", 2, 555.6, 400),
            tenant("gamma", 4, 555.6, 400),
        ],
        events: vec![TrafficEvent::Outage {
            provider_index: 1,
            from_us: 20_000_000,
            to_us: 30_000_000,
        }],
        tick_every_us: 10_000_000,
        frontend: FrontendConfig {
            lanes: 8,
            max_queue_depth: 2048,
            max_tenant_queue: 512,
            deadline_us: 0,
            quantum: 1,
            base_service_us: 100,
            record_outcomes: false,
        },
        cache_capacity: ByteSize::from_mb(8),
        prepopulate: true,
    }
}

#[test]
fn hundred_k_op_trace_replays_to_its_pinned_digest() {
    let spec = digest_spec();
    let trace = generate_trace(&spec);
    assert!(
        (95_000..=105_000).contains(&trace.len()),
        "expected ~100k ops, got {}",
        trace.len()
    );
    let outcome = replay_trace(&spec, &trace);
    assert_eq!(
        outcome.report.total_submitted(),
        trace.len() as u64,
        "every trace op must be accounted for"
    );
    assert_eq!(
        outcome.digest, PINNED_DIGEST,
        "the seeded 100k-op replay outcome changed"
    );
}

/// Flash crowd: a 30× rate step against a front-end whose capacity is a
/// fraction of the burst. Admission control must reject (queue bound) and
/// abandon (deadline) the overload explicitly — never drop — and the p999
/// of *completed* ops must stay bounded by the deadline plus one service
/// time, because nothing that waited past the deadline is allowed to
/// complete.
fn flash_spec() -> TrafficSpec {
    TrafficSpec {
        name: "flash-crowd".into(),
        seed: 0xF1A5_4C40,
        horizon_us: 5_000_000,
        slot_us: 10_000,
        tenants: vec![
            TenantSpec {
                arrivals: ArrivalPattern::FlashCrowd {
                    base_ops_per_sec: 50.0,
                    burst_ops_per_sec: 1_500.0,
                    from_us: 1_000_000,
                    to_us: 3_000_000,
                },
                sla_us: 200_000,
                ..tenant("web", 2, 0.0, 60)
            },
            tenant("batch", 1, 50.0, 60),
        ],
        events: vec![],
        tick_every_us: 1_000_000,
        frontend: FrontendConfig {
            lanes: 4,
            max_queue_depth: 128,
            max_tenant_queue: 64,
            deadline_us: 150_000,
            quantum: 1,
            base_service_us: 100,
            record_outcomes: true,
        },
        // No cache: every read pays the provider round-trip, so the burst
        // genuinely exceeds service capacity.
        cache_capacity: ByteSize::from_bytes(0),
        prepopulate: true,
    }
}

#[test]
fn flash_crowd_is_rejected_not_dropped_and_the_tail_stays_bounded() {
    let spec = flash_spec();
    let outcome = run_traffic(&spec);
    let report = &outcome.report;

    // Conservation: every submitted op has exactly one recorded fate.
    for t in &report.tenants {
        assert_eq!(
            t.completed + t.rejected_queue + t.rejected_deadline + t.failed,
            t.submitted,
            "tenant {} lost ops",
            t.name
        );
    }

    let web = &report.tenants[0];
    assert!(
        web.rejected_queue > 0,
        "the burst must trip queue-depth backpressure"
    );
    assert!(
        web.rejected_deadline > 0,
        "ops queued past the deadline must be abandoned at dispatch"
    );
    assert!(
        web.completed > 0,
        "admission control must keep serving during the burst"
    );

    // Backpressure engaged instead of unbounded queueing.
    assert!(
        report.peak_queued <= spec.frontend.max_queue_depth,
        "peak queue {} exceeded the bound {}",
        report.peak_queued,
        spec.frontend.max_queue_depth
    );

    // No completed op waited past the deadline, so its end-to-end latency
    // is at most deadline + one (virtual) service time; 500 ms covers the
    // slowest simulated provider round-trip with a wide margin, while the
    // unmitigated burst backlog would have pushed waits into tens of
    // seconds.
    let bound = spec.frontend.deadline_us + 500_000;
    for t in &report.tenants {
        assert!(
            t.p999_us <= bound,
            "tenant {} p999 {}µs above the deadline-enforced bound {}µs",
            t.name,
            t.p999_us,
            bound
        );
    }
}

/// Saturation fairness: three tenants with weights 1:2:4 flooding equally;
/// per-tenant queue caps make each tenant's admitted rate follow its drain
/// rate, so completed throughput must track the DRR weight shares within
/// 10 % of each share.
fn fairness_spec() -> TrafficSpec {
    let mix = OpMix {
        get: 1.0,
        get_range: 0.0,
        put: 0.0,
        delete: 0.0,
        list: 0.0,
    };
    let t = |name: &str, weight: u32| TenantSpec {
        mix,
        ..tenant(name, weight, 400.0, 40)
    };
    TrafficSpec {
        name: "fairness".into(),
        seed: 0xFA_1235,
        // Long horizon and small per-tenant caps: the startup transient
        // (every tenant's queue filling once, an equal head start) must be
        // amortized away for the weighted steady state to dominate.
        horizon_us: 30_000_000,
        slot_us: 10_000,
        tenants: vec![t("bronze", 1), t("silver", 2), t("gold", 4)],
        events: vec![],
        tick_every_us: 0,
        frontend: FrontendConfig {
            lanes: 2,
            max_queue_depth: 512,
            max_tenant_queue: 16,
            deadline_us: 0,
            quantum: 1,
            base_service_us: 100,
            record_outcomes: false,
        },
        cache_capacity: ByteSize::from_bytes(0),
        prepopulate: true,
    }
}

#[test]
fn saturated_tenants_complete_ops_in_proportion_to_their_weights() {
    let outcome = run_traffic(&fairness_spec());
    let report = &outcome.report;
    let total: u64 = report.tenants.iter().map(|t| t.completed).sum();
    assert!(total > 100, "saturation test served too few ops: {total}");
    let weight_sum: u32 = report.tenants.iter().map(|t| t.weight).sum();
    for t in &report.tenants {
        let share = t.completed as f64 / total as f64;
        let want = t.weight as f64 / weight_sum as f64;
        assert!(
            (share - want).abs() <= 0.1 * want,
            "tenant {} (weight {}): completed share {share:.3} vs weight share {want:.3}",
            t.name,
            t.weight
        );
        // Every tenant floods at the same rate, so each must also be
        // experiencing backpressure — otherwise the test is not saturated.
        assert!(
            t.rejected_queue > 0,
            "tenant {} was never throttled",
            t.name
        );
    }
}

/// Outage mid-burst: a provider goes dark while writes keep flowing. Every
/// acked (completed) put must remain readable after the trace — degraded
/// writes land on the surviving providers and are never silently lost.
fn outage_spec() -> TrafficSpec {
    let mix = OpMix {
        get: 0.5,
        get_range: 0.0,
        put: 0.5,
        delete: 0.0,
        list: 0.0,
    };
    TrafficSpec {
        name: "outage-mid-burst".into(),
        seed: 0x007A6E,
        horizon_us: 3_000_000,
        slot_us: 10_000,
        tenants: vec![
            TenantSpec {
                mix,
                ..tenant("writer", 1, 100.0, 40)
            },
            TenantSpec {
                mix,
                ..tenant("mirror", 1, 100.0, 40)
            },
        ],
        events: vec![TrafficEvent::Outage {
            provider_index: 0,
            from_us: 1_000_000,
            to_us: 2_000_000,
        }],
        tick_every_us: 500_000,
        frontend: FrontendConfig {
            lanes: 4,
            max_queue_depth: 1024,
            max_tenant_queue: 256,
            deadline_us: 0,
            quantum: 1,
            base_service_us: 100,
            record_outcomes: true,
        },
        cache_capacity: ByteSize::from_bytes(0),
        prepopulate: true,
    }
}

#[test]
fn every_acked_put_survives_a_mid_trace_provider_outage() {
    let spec = outage_spec();
    let trace = generate_trace(&spec);
    let (cluster, provider_ids) = traffic_cluster(&spec);
    let outcome = replay_trace_on(&cluster, &provider_ids, &spec, &trace);

    // The set of acked writes: puts whose outcome is Completed. The mix
    // has no deletes, so every acked put must stay readable forever —
    // including those landed degraded during the outage window.
    let mut acked = std::collections::BTreeSet::new();
    for op in &outcome.outcomes {
        if op.kind == OpKind::Put && matches!(op.status, OpStatus::Completed { .. }) {
            acked.insert(op.key.clone().expect("puts address a key"));
        }
    }
    assert!(!acked.is_empty(), "the trace acked no writes");
    let engine = &cluster.engines()[0];
    for key in &acked {
        let data = engine.get(key).expect("acked object must stay readable");
        assert_eq!(data.len(), 1024, "object {key:?} came back truncated");
    }
    // The outage must actually have been felt: with half the trace inside
    // the window and writes flowing, at least the repair/backfill machinery
    // or degraded paths saw traffic. The replay itself is the assertion —
    // plus conservation below.
    for t in &outcome.report.tenants {
        assert_eq!(
            t.completed + t.rejected_queue + t.rejected_deadline + t.failed,
            t.submitted,
            "tenant {} lost ops across the outage",
            t.name
        );
    }
}

/// Price drop: CheapStor appears mid-trace; the forced optimisation cycle
/// must migrate objects onto it while foreground traffic keeps flowing,
/// and everything stays readable afterwards.
fn price_drop_spec() -> TrafficSpec {
    TrafficSpec {
        name: "price-drop".into(),
        seed: 0x9D_0901,
        horizon_us: 2_000_000,
        slot_us: 10_000,
        tenants: vec![tenant("shop", 1, 200.0, 150)],
        events: vec![TrafficEvent::PriceDrop { at_us: 1_000_000 }],
        tick_every_us: 500_000,
        frontend: FrontendConfig::default(),
        cache_capacity: ByteSize::from_mb(1),
        prepopulate: true,
    }
}

#[test]
fn a_price_drop_mid_trace_triggers_mass_migration_without_breaking_reads() {
    let spec = price_drop_spec();
    let trace = generate_trace(&spec);
    let (cluster, provider_ids) = traffic_cluster(&spec);
    let outcome = replay_trace_on(&cluster, &provider_ids, &spec, &trace);
    assert!(
        outcome.migrations > 0,
        "the forced cycle must migrate onto the cheaper provider"
    );
    // Spot-check readability across the object set after the migration.
    let engine = &cluster.engines()[0];
    let tenant_spec = &spec.tenants[0];
    for idx in (0..tenant_spec.objects).step_by(7) {
        let key = object_key(tenant_spec, idx);
        // Objects deleted by the trace's delete trickle are legitimately
        // gone; everything else must read back at full size.
        if let Ok(data) = engine.get(&key) {
            assert_eq!(data.len(), tenant_spec.object_size as usize);
        }
    }
    assert!(outcome.report.total_completed() > 0);
}

#[test]
fn a_price_drop_migration_replays_to_its_pinned_digest() {
    // The migrations run on the optimizer's caller in savings order, so
    // their version draws — and the latency trajectories that follow —
    // are a function of the trace alone.
    let spec = price_drop_spec();
    let outcome = replay_trace(&spec, &generate_trace(&spec));
    assert!(outcome.migrations > 0, "the price drop must migrate");
    assert_eq!(
        outcome.digest, PRICE_DROP_DIGEST,
        "the price-drop outcome changed"
    );
}
