//! Property tests for the traffic trace generator: the seeded trace —
//! every op's virtual arrival time, tenant, sequence number and operation
//! — is a pure function of the [`TrafficSpec`]. Neither how many threads
//! generate it at once, nor repeated generation in the same process
//! (which would expose hidden global state), nor anything else the process did earlier may change a single
//! op. The replay side's reproducibility is pinned end-to-end by
//! `tests/traffic.rs`; these properties cover the generator across a
//! sweep of seeds × tenant counts × arrival patterns.

use proptest::prelude::*;
use scalia_frontend::FrontendConfig;
use scalia_sim::prelude::*;
use scalia_types::size::ByteSize;

/// A compact spec exercising every arrival pattern and both event kinds,
/// sized so one generation is milliseconds (generation only — these
/// properties never build a cluster or replay anything).
fn spec_for(seed: u64, tenants: u32, ops_per_sec: f64) -> TrafficSpec {
    let patterns = [
        ArrivalPattern::Uniform { ops_per_sec },
        ArrivalPattern::FlashCrowd {
            base_ops_per_sec: ops_per_sec,
            burst_ops_per_sec: ops_per_sec * 8.0,
            from_us: 400_000,
            to_us: 900_000,
        },
        ArrivalPattern::Diurnal {
            mean_ops_per_sec: ops_per_sec,
            period_us: 1_000_000,
            amplitude: 0.7,
        },
    ];
    TrafficSpec {
        name: format!("prop-{seed}-{tenants}"),
        seed,
        horizon_us: 1_500_000,
        slot_us: 10_000,
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                weight: 1 + i,
                sla_us: 0,
                objects: 20 + 10 * i as usize,
                object_size: 1024,
                zipf_s: 0.5 + 0.25 * i as f64,
                mix: OpMix::read_heavy(),
                arrivals: patterns[i as usize % patterns.len()],
            })
            .collect(),
        events: vec![TrafficEvent::Outage {
            provider_index: 0,
            from_us: 500_000,
            to_us: 700_000,
        }],
        tick_every_us: 0,
        frontend: FrontendConfig::default(),
        cache_capacity: ByteSize::ZERO,
        prepopulate: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same spec generates the identical trace however many threads
    /// generate it at once — 1, 2 and 8 concurrent generations must all
    /// produce the one op stream.
    #[test]
    fn trace_is_identical_across_pool_sizes(
        seed in any::<u64>(),
        tenants in 1u32..5,
        rate in 50u32..400,
    ) {
        let spec = spec_for(seed, tenants, rate as f64);
        let digests: Vec<Vec<String>> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| s.spawn(|| trace_digest(&generate_trace(&spec))))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            })
            .collect();
        for runs in &digests {
            prop_assert!(runs.iter().all(|d| d == &runs[0]), "concurrent runs disagree (seed {})", seed);
        }
        prop_assert_eq!(&digests[0][0], &digests[1][0], "1 vs 2 workers (seed {})", seed);
        prop_assert_eq!(&digests[1][0], &digests[2][0], "2 vs 8 workers (seed {})", seed);
    }

    /// Back-to-back generations in one process agree — the generator keeps
    /// no hidden state between calls.
    #[test]
    fn repeated_generation_is_stable(
        seed in any::<u64>(),
        tenants in 1u32..4,
    ) {
        let spec = spec_for(seed, tenants, 120.0);
        let first = generate_trace(&spec);
        let second = generate_trace(&spec);
        prop_assert_eq!(first.len(), second.len());
        prop_assert_eq!(trace_digest(&first), trace_digest(&second));
    }

    /// Structural invariants, for any seed: arrivals are sorted and inside
    /// the horizon, every tenant index is registered, and per-tenant
    /// sequence numbers are strictly increasing (no duplicated or lost
    /// ops when the per-tenant streams are interleaved).
    #[test]
    fn traces_are_sorted_complete_and_sequenced(
        seed in any::<u64>(),
        tenants in 1u32..5,
    ) {
        let spec = spec_for(seed, tenants, 150.0);
        let trace = generate_trace(&spec);
        prop_assert!(!trace.is_empty());
        let mut next_seq = vec![0u64; tenants as usize];
        let mut last_at = 0u64;
        for op in &trace {
            prop_assert!(op.at_us >= last_at, "arrivals out of order");
            last_at = op.at_us;
            prop_assert!(op.at_us < spec.horizon_us, "op past the horizon");
            prop_assert!(op.tenant < tenants as usize, "unknown tenant");
            prop_assert_eq!(op.seq, next_seq[op.tenant], "broken sequence");
            next_seq[op.tenant] += 1;
        }
    }

    /// Changing the seed changes the trace (the seed is actually wired
    /// through, not ignored): across a handful of seeds at identical
    /// shape, at least one digest differs.
    #[test]
    fn seed_is_load_bearing(base in any::<u64>()) {
        let digests: Vec<String> = (0..3u64)
            .map(|i| trace_digest(&generate_trace(&spec_for(base.wrapping_add(i), 2, 150.0))))
            .collect();
        prop_assert!(
            digests.windows(2).any(|w| w[0] != w[1]),
            "three different seeds produced one identical trace"
        );
    }
}
