//! The raw-speed floor, measured: GF(256) kernel throughput per tier and
//! length, the 1 MiB Reed-Solomon parity core (wide kernel vs the scalar
//! seed kernel — the ≥ 4× acceptance gate), the content checksum (XXH64,
//! the one hash on the bytes path) per length, the copy-and-hash pass the
//! read and write paths move bytes with, a put's per-stripe data work (the
//! staged encode against `encode_object`), and the 16–20-provider
//! placement search with and without pairwise dominance pruning (vs the
//! recorded 4.98 ms PR 1 baseline at 16 providers).
//!
//! Every measured number is published to `BENCH_raw_speed.json` at the
//! repo root. Four acceptance gates are asserted inline (so a CI bench
//! smoke run fails loudly rather than recording a regression):
//!
//! * `rs_parity_1mib`: wide kernel ≥ 4× over the scalar seed kernel;
//! * `xxh64`: ≤ 0.3 ns/B at 4 KiB, 512 KiB (a stripe) and 8 MiB;
//! * `checksum.append`: `Xxh64::append` takes ≤ 0.7× the time of a copy
//!   followed by a separate hash at 8 MiB;
//! * `search_16`: dominance-pruned search beats the 4.98 ms baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scalia_core::cost::PredictedUsage;
use scalia_core::placement::{exhaustive_search_without_dominance, PlacementEngine};
use scalia_erasure::codec;
use scalia_erasure::gf256::{self, Kernel};
use scalia_providers::catalog::{azure, google, rackspace, s3_high, s3_low};
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_providers::pricing::PricingPolicy;
use scalia_providers::sla::ProviderSla;
use scalia_types::checksum::{xxh64, Xxh64};
use scalia_types::ids::ProviderId;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::zone::{Zone, ZoneSet};
use scalia_types::ErasureParams;
use std::time::Instant;

/// Best-of-3 wall time of `iters` runs of `f`, as per-iteration µs.
fn time_per_iter_us(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    best
}

fn gib_per_sec(bytes: usize, per_iter_us: f64) -> f64 {
    bytes as f64 / (per_iter_us / 1e6) / (1u64 << 30) as f64
}

// ---------------------------------------------------------------- gf256 --

/// Per-tier kernel throughput across lengths (odd length included so the
/// tail path is always exercised), plus the scalar reference.
fn gf256_section() -> serde_json::Value {
    let mut rows = Vec::new();
    for len in [4096usize, 65536, (1 << 20) - 7, 1 << 20] {
        let src: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let mut acc = vec![0u8; len];
        let iters = ((32 << 20) / len).max(8);
        let mut tiers = serde_json::Map::new();
        for kernel in [Kernel::Gfni, Kernel::Avx2, Kernel::Portable] {
            if !gf256::mul_slice_xor_with(kernel, 143, &src, &mut acc) {
                continue;
            }
            let us = time_per_iter_us(iters, || {
                gf256::mul_slice_xor_with(kernel, black_box(143), &src, &mut acc);
                black_box(acc[0]);
            });
            tiers.insert(
                kernel.name().to_string(),
                serde_json::json!(gib_per_sec(len, us)),
            );
        }
        let auto_us = time_per_iter_us(iters, || {
            gf256::mul_slice_xor(black_box(143), &src, &mut acc);
            black_box(acc[0]);
        });
        let ref_us = time_per_iter_us(iters.min(64), || {
            gf256::mul_slice_xor_reference(black_box(143), &src, &mut acc);
            black_box(acc[0]);
        });
        rows.push(serde_json::json!({
            "len_bytes": len,
            "auto_gib_per_sec": gib_per_sec(len, auto_us),
            "reference_gib_per_sec": gib_per_sec(len, ref_us),
            "auto_speedup_vs_reference": ref_us / auto_us,
            "tiers_gib_per_sec": tiers,
        }));
    }
    serde_json::json!({
        "active_kernel": gf256::active_kernel().name(),
        "lengths": rows,
    })
}

/// The 1 MiB Reed-Solomon parity core: a (4+2) stripe over 256 KiB
/// shards, parity rows accumulated with `mul_slice_xor` (what
/// `rs::ReedSolomon::encode` runs per row) vs the identical loop on the
/// scalar seed kernel. Returns the JSON row; asserts the ≥ 4× gate.
fn rs_parity_section() -> serde_json::Value {
    const M: usize = 4; // data shards
    const R: usize = 2; // parity rows
    let shard = (1usize << 20) / M;
    let data: Vec<Vec<u8>> = (0..M)
        .map(|s| (0..shard).map(|i| ((i * 31) ^ (s * 97)) as u8).collect())
        .collect();
    // Arbitrary nonzero coefficients — every coefficient costs the same
    // through the table/nibble formulations, so the timing matches the
    // Vandermonde rows the real encoder uses.
    let coeff = |r: usize, s: usize| -> u8 { (r * M + s + 3) as u8 };
    let mut parity = vec![vec![0u8; shard]; R];

    let wide_us = time_per_iter_us(24, || {
        for (r, row) in parity.iter_mut().enumerate() {
            row.fill(0);
            for (s, d) in data.iter().enumerate() {
                gf256::mul_slice_xor(coeff(r, s), d, row);
            }
        }
        black_box(parity[0][0]);
    });
    let scalar_us = time_per_iter_us(8, || {
        for (r, row) in parity.iter_mut().enumerate() {
            row.fill(0);
            for (s, d) in data.iter().enumerate() {
                gf256::mul_slice_xor_reference(coeff(r, s), d, row);
            }
        }
        black_box(parity[0][0]);
    });
    let speedup = scalar_us / wide_us;
    assert!(
        speedup >= 4.0,
        "1 MiB parity-core gate: wide kernel {speedup:.2}x over scalar (need >= 4x)"
    );
    serde_json::json!({
        "stripe": format!("{M}+{R} x {shard} B"),
        "wide_us_per_stripe": wide_us,
        "scalar_us_per_stripe": scalar_us,
        "wide_gib_per_sec": gib_per_sec(M * R * shard, wide_us),
        "speedup": speedup,
        "gate_min_speedup": 4.0,
        "gate": "pass",
    })
}

// ------------------------------------------------------------- checksum --

/// The content checksum at an object (4 KiB), a stripe (512 KiB) and a
/// large-object (8 MiB) length. It runs once over every byte written and
/// every byte read, so its floor bounds what the bytes path can cost.
/// Returns the JSON rows; asserts the ≤ 0.3 ns/B gate at each length.
fn xxh64_section() -> serde_json::Value {
    const GATE_NS_PER_BYTE: f64 = 0.3;
    let mut rows = Vec::new();
    for len in [4usize << 10, 512 << 10, 8 << 20] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let iters = ((64 << 20) / len).max(8);
        let us = time_per_iter_us(iters, || {
            black_box(xxh64(black_box(&data)));
        });
        let ns_per_byte = us * 1e3 / len as f64;
        assert!(
            ns_per_byte <= GATE_NS_PER_BYTE,
            "xxh64 gate: {ns_per_byte:.3} ns/B at {len} B (need <= {GATE_NS_PER_BYTE})"
        );
        rows.push(serde_json::json!({
            "len_bytes": len,
            "ns_per_byte": ns_per_byte,
            "gib_per_sec": gib_per_sec(len, us),
            "gate_max_ns_per_byte": GATE_NS_PER_BYTE,
            "gate": "pass",
        }));
    }
    serde_json::json!(rows)
}

/// Copy-and-hash in one pass against two: [`Xxh64::append`] (what the read
/// path builds its output and the write path stages a stripe with) against
/// `extend_from_slice` followed by a separate [`xxh64`] over the copy, at a
/// stripe (512 KiB) and a large object (8 MiB), into a reused output
/// buffer. Returns the JSON rows; asserts that `append` takes ≤ 0.7× the
/// two-pass time at 8 MiB.
fn checksum_append_section() -> serde_json::Value {
    const GATE_MAX_RATIO: f64 = 0.7;
    let mut rows = Vec::new();
    for len in [512usize << 10, 8 << 20] {
        let src: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let mut out: Vec<u8> = Vec::with_capacity(len);
        let iters = ((256 << 20) / len).max(8);
        let two_pass_us = time_per_iter_us(iters, || {
            out.clear();
            out.extend_from_slice(black_box(&src));
            black_box(xxh64(&out));
        });
        let append_us = time_per_iter_us(iters, || {
            out.clear();
            let mut ctx = Xxh64::new();
            ctx.append(&mut out, black_box(&src));
            black_box(ctx.digest());
        });
        let ratio = append_us / two_pass_us;
        let mut row = serde_json::Map::new();
        row.insert("len_bytes".into(), serde_json::json!(len));
        for (name, value) in [
            ("copy_then_xxh64_us", two_pass_us),
            ("append_us", append_us),
            ("append_ratio", ratio),
            ("append_ns_per_byte", append_us * 1e3 / len as f64),
        ] {
            row.insert(name.into(), serde_json::json!(value));
        }
        if len == 8 << 20 {
            assert!(
                ratio <= GATE_MAX_RATIO,
                "checksum.append gate: {ratio:.2}x the two-pass time at {len} B (need <= {GATE_MAX_RATIO})"
            );
            row.insert("gate_max_ratio".into(), serde_json::json!(GATE_MAX_RATIO));
            row.insert("gate".into(), serde_json::json!("pass"));
        }
        rows.push(serde_json::Value::Object(row));
    }
    serde_json::json!(rows)
}

// -------------------------------------------------------------- erasure --

/// A stripe's data work on the write path, at 512 KiB (4-of-5, the
/// benchmark's geometry): `staged` is what a put does — the stripe staged
/// through [`Xxh64::append`] into a buffer of exactly
/// [`codec::staged_len`] bytes, then [`codec::encode_staged`], whose data
/// chunks are windows of that buffer — against [`codec::encode_object`]
/// (a copy into a staging buffer, then the same encode) alone and followed
/// by a separate [`xxh64`] pass. Informational; no gate.
fn encode_staged_section() -> serde_json::Value {
    let len = 512usize << 10;
    let params = ErasureParams::new(4, 5).unwrap();
    let src: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
    let iters = 256;
    let staged_us = time_per_iter_us(iters, || {
        let mut staged = Vec::with_capacity(codec::staged_len(len, params.m));
        let mut ctx = Xxh64::new();
        ctx.append(&mut staged, black_box(&src));
        black_box((codec::encode_staged(staged, params).unwrap(), ctx.digest()));
    });
    let encode_object_us = time_per_iter_us(iters, || {
        black_box(codec::encode_object(black_box(&src), params).unwrap());
    });
    let encode_object_then_xxh64_us = time_per_iter_us(iters, || {
        black_box(codec::encode_object(black_box(&src), params).unwrap());
        black_box(xxh64(&src));
    });
    serde_json::json!({
        "len_bytes": len,
        "geometry": "4-of-5",
        "staged_append_and_encode_us": staged_us,
        "encode_object_us": encode_object_us,
        "encode_object_then_xxh64_us": encode_object_then_xxh64_us,
        "staged_ratio_vs_encode_object_then_xxh64": staged_us / encode_object_then_xxh64_us,
    })
}

// ------------------------------------------------------------ placement --

fn bench_catalog(n: usize) -> Vec<ProviderDescriptor> {
    let mut v = vec![
        s3_high(ProviderId::new(0)),
        s3_low(ProviderId::new(1)),
        rackspace(ProviderId::new(2)),
        azure(ProviderId::new(3)),
        google(ProviderId::new(4)),
    ];
    for i in 5..n as u32 {
        v.push(ProviderDescriptor::public(
            ProviderId::new(i),
            format!("P{i}"),
            "synthetic provider",
            ProviderSla::from_percent(99.9999, 99.9),
            PricingPolicy::from_dollars(
                0.09 + 0.005 * i as f64,
                0.10,
                0.14 + 0.002 * i as f64,
                0.01,
            ),
            ZoneSet::of(&[Zone::US, Zone::EU]),
        ));
    }
    v.truncate(n);
    v
}

fn bench_rule() -> StorageRule {
    StorageRule::new(
        "bench",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

fn bench_usage(reads: u64) -> PredictedUsage {
    PredictedUsage {
        size: ByteSize::from_mb(1),
        bw_in: ByteSize::from_mb(1),
        bw_out: ByteSize::from_mb(reads),
        reads,
        writes: 1,
        duration_hours: 24.0,
    }
}

/// The 16–20-provider search with and without pairwise dominance pruning
/// (identical answers, differential-tested; here only the node count
/// differs). 16 providers is the configuration PR 1 recorded at 4.98 ms —
/// the acceptance gate is "improves on that baseline".
fn placement_section() -> serde_json::Value {
    const BASELINE_16_MS: f64 = 4.98;
    let rule = bench_rule();
    let usage = bench_usage(500);
    let mut rows = Vec::new();
    for n in [16usize, 18, 20] {
        let catalog = bench_catalog(n);
        let engine = PlacementEngine::new();
        // The two searches must agree before their times are comparable.
        let pruned = engine.best_placement(&rule, &usage, &catalog).unwrap();
        let unpruned = exhaustive_search_without_dominance(&rule, &usage, &catalog).unwrap();
        assert_eq!(pruned.expected_cost, unpruned.expected_cost);
        assert_eq!(
            pruned.placement.provider_ids(),
            unpruned.placement.provider_ids()
        );

        let with_us = time_per_iter_us(10, || {
            black_box(engine.best_placement(&rule, &usage, &catalog).unwrap());
        });
        let without_us = time_per_iter_us(5, || {
            black_box(exhaustive_search_without_dominance(&rule, &usage, &catalog).unwrap());
        });
        let mut row = serde_json::Map::new();
        row.insert("providers".into(), serde_json::json!(n));
        row.insert("with_dominance_ms".into(), serde_json::json!(with_us / 1e3));
        row.insert(
            "without_dominance_ms".into(),
            serde_json::json!(without_us / 1e3),
        );
        row.insert(
            "dominance_speedup".into(),
            serde_json::json!(without_us / with_us),
        );
        if n == 16 {
            let with_ms = with_us / 1e3;
            assert!(
                with_ms < BASELINE_16_MS,
                "16-provider gate: {with_ms:.3} ms must beat the {BASELINE_16_MS} ms baseline"
            );
            row.insert("baseline_ms".into(), serde_json::json!(BASELINE_16_MS));
            row.insert(
                "speedup_vs_baseline".into(),
                serde_json::json!(BASELINE_16_MS / with_ms),
            );
            row.insert("gate".into(), serde_json::json!("pass"));
        }
        rows.push(serde_json::Value::Object(row));
    }
    serde_json::json!(rows)
}

/// Runs every section once, publishes `BENCH_raw_speed.json`, and
/// asserts the acceptance gates.
fn raw_speed_baseline() {
    let gf256 = gf256_section();
    let parity = rs_parity_section();
    let checksum = xxh64_section();
    let append = checksum_append_section();
    let staged = encode_staged_section();
    let placement = placement_section();
    let report = serde_json::json!({
        "bench": "raw_speed",
        "gf256": gf256,
        "rs_parity_1mib": parity,
        "xxh64": checksum,
        "checksum.append": append,
        "erasure.encode_staged": staged,
        "placement_search": placement,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_raw_speed.json");
    std::fs::write(path, format!("{report:#}\n")).unwrap();
    eprintln!(
        "raw_speed baseline: kernel {} | parity {:.1}x | search-16 {:.3} ms -> {path}",
        gf256::active_kernel().name(),
        report["rs_parity_1mib"]["speedup"].as_f64().unwrap_or(0.0),
        report["placement_search"]
            .as_array()
            .and_then(|rows| rows.first())
            .and_then(|r| r["with_dominance_ms"].as_f64())
            .unwrap_or(0.0),
    );
}

fn bench_raw_speed(c: &mut Criterion) {
    raw_speed_baseline();

    let mut group = c.benchmark_group("raw_speed");
    group.sample_size(20);

    let len = 1usize << 20;
    let src: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
    let mut acc = vec![0u8; len];
    group.bench_function("gf256_wide_1MiB", |b| {
        b.iter(|| {
            gf256::mul_slice_xor(black_box(143), &src, &mut acc);
            black_box(acc[0])
        })
    });

    for n in [16usize, 20] {
        let catalog = bench_catalog(n);
        let rule = bench_rule();
        let usage = bench_usage(500);
        let engine = PlacementEngine::new();
        group.bench_with_input(BenchmarkId::new("search_dominance", n), &n, |b, _| {
            b.iter(|| engine.best_placement(&rule, &usage, &catalog).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("search_no_dominance", n), &n, |b, _| {
            b.iter(|| exhaustive_search_without_dominance(&rule, &usage, &catalog).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_raw_speed);
criterion_main!(benches);
