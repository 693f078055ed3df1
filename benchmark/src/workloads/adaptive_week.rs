//! `adaptive_week`: the hourly adapt loop through its real entry point.
//!
//! Default cluster; 40 objects per `--seconds` (800 at full size) × 32 KiB
//! in 16 mime classes. Set-up populates and runs 24 hourly cycles; the timed
//! phase runs 48. A cycle injects every object's reads for the hour into the
//! engines' log agents (1/h; 30/h during its class's 4-hour spike, the
//! classes' spikes staggered across the phase), overwrites 2 % of the objects with real `put`s
//! and reads each back (a 1 KiB `get_range`, then a `get` — the only client
//! reads here, and the byte check of every overwrite), then `tick(hour)` and
//! `run_optimization`. CheapStor registers at timed hour 16 (forced
//! optimisation); S3(l) is down during timed hours 30–36, as in §IV-E, and
//! is actively repaired at hour 30. Then the policy simulator scores
//! decision quality on the paper's Gallery, Slashdot and new-provider
//! scenarios.
//!
//! No client bytes to speak of: log aggregation, statistics GC,
//! anti-entropy, trend detection, uncached placement search, budgeted
//! migration, repair drain and GC are the work. It is the only workload
//! where the search runs uncached and where decisions are scored: the
//! policy simulator shares `core`'s detector, search and migration gate with
//! the engine's optimiser, so a `core` change that speeds the loop by
//! deciding worse shows up as cost.

use super::small_cold::check_read;
use super::{
    end_to_end, finish, setup_median, Args, EndToEnd, Finish, Finished, Latencies, LayerCounts,
    Tally,
};
use crate::ledger::{Ledger, Root};
use crate::report::Metric;
use crate::rng::{PayloadPool, PayloadRef, Rng};
use crate::stats::Sliced;
use crate::sut::{self, bench_rule, ByteSize, Bytes, ObjectKey, ProviderId, Shadow, Sut};
use crate::trace::{timed, Tracer};
use std::time::Instant;

const CLASSES: usize = 16;
const MIMES: [&str; CLASSES] = [
    "image/jpeg",
    "image/png",
    "image/gif",
    "image/webp",
    "video/mp4",
    "video/webm",
    "audio/mpeg",
    "audio/ogg",
    "text/html",
    "text/css",
    "text/plain",
    "application/json",
    "application/pdf",
    "application/zip",
    "application/x-tar",
    "application/octet-stream",
];
const OBJECT_BYTES: usize = 32 * 1024;
const RANGE_BYTES: usize = 1024;
const POOL_BYTES: usize = 4 << 20;
/// Objects per `--seconds`.
const OBJECTS_PER_SECOND: usize = 40;
const SETUP_CYCLES: usize = 24;
const TIMED_CYCLES: usize = 48;
const OVERWRITE_SHARE: f64 = 0.02;
const SPIKE_READS: u32 = 30;
const SPIKE_HOURS: usize = 4;
const CHEAPSTOR_CYCLE: usize = 16;
const OUTAGE_CYCLES: std::ops::Range<usize> = 30..36;
/// The provider the paper's active-repair scenario (§IV-E) takes down. Not
/// seeded: which provider fails changes how much work the repair is, and
/// that would show as spread across seeds.
const OUTAGE_PROVIDER: &str = "S3(l)";
/// Replay every overwrite and read-back: a few hundred of each per run, and
/// a replay costs about as much as the op.
const REPLAY_EVERY: u64 = 1;
const PROBE_EVERY: u64 = 8;

/// The overwrites of every cycle, set-up cycles first: a pure function of
/// `(seed, objects)`.
pub fn generate(seed: u64, pool: &PayloadPool, objects: usize) -> Vec<Vec<(u32, PayloadRef)>> {
    let mut rng = Rng::new(seed, 0x6164_6170);
    let per_cycle = ((objects as f64 * OVERWRITE_SHARE).round() as usize).max(1);
    (0..SETUP_CYCLES + TIMED_CYCLES)
        .map(|_| {
            (0..per_cycle)
                .map(|_| {
                    (
                        rng.below(objects as u64) as u32,
                        pool.pick(&mut rng, OBJECT_BYTES),
                    )
                })
                .collect()
        })
        .collect()
}

/// First timed cycle of a class's spike: starts spread evenly so that the
/// last class's spike ends with the timed phase.
fn spike_start(class: usize) -> usize {
    class * (TIMED_CYCLES - SPIKE_HOURS) / (CLASSES - 1)
}

/// Reads per hour of an object of `class` in timed cycle `cycle` (`None`
/// during set-up, which has no spikes).
fn reads_per_hour(class: usize, cycle: Option<usize>) -> u32 {
    let spike_from = spike_start(class);
    match cycle {
        Some(c) if (spike_from..spike_from + SPIKE_HOURS).contains(&c) => SPIKE_READS,
        _ => 1,
    }
}

/// One timed call of a cycle.
struct Call {
    name: &'static str,
    layer: &'static str,
    start: Instant,
    ns: u64,
    /// Object and payload of a client op, for the ledger.
    object: Option<(u32, PayloadRef)>,
}

/// What the optimiser and the repair path reported over a run of cycles.
#[derive(Default)]
struct Adapted {
    searches: u64,
    migrations: u64,
    bytes_migrated: u64,
    repaired: u64,
}

struct Driver {
    sut: Sut,
    pool: PayloadPool,
    keys: Vec<ObjectKey>,
    model: Vec<PayloadRef>,
    victim: ProviderId,
    adapted: Adapted,
}

impl Driver {
    /// One hourly cycle at simulated hour `hour`; `timed_cycle` is its index
    /// in the timed phase. Returns every call it made into the program.
    fn cycle(
        &mut self,
        hour: u64,
        timed_cycle: Option<usize>,
        overwrites: &[(u32, PayloadRef)],
        tally: &mut Tally,
    ) -> Vec<Call> {
        let mut calls = Vec::with_capacity(3 * overwrites.len() + 6);
        let mut call = |name, layer, (_, start, ns): ((), Instant, u64), object| {
            calls.push(Call {
                name,
                layer,
                start,
                ns,
                object,
            })
        };
        let engines = self.sut.engine_count();

        call(
            "inject_reads",
            "metastore::logagg",
            timed(|| {
                for (i, key) in self.keys.iter().enumerate() {
                    let reads = reads_per_hour(i % CLASSES, timed_cycle);
                    self.sut
                        .inject_reads(i % engines, key, OBJECT_BYTES as u64, reads);
                }
            }),
            None,
        );

        if timed_cycle == Some(OUTAGE_CYCLES.start) {
            let mut repaired = Ok((0, 0));
            call(
                "repair_provider",
                "engine::repair",
                timed(|| {
                    self.sut.set_provider_down(self.victim, true);
                    repaired = self.sut.repair_provider(self.victim);
                }),
                None,
            );
            match repaired {
                Ok((repaired, failed)) => {
                    self.adapted.repaired += repaired;
                    tally.check(failed == 0, || {
                        format!("{failed} objects failed active repair")
                    });
                }
                Err(err) => tally.check(false, || format!("active repair: {err}")),
            }
        }
        if timed_cycle == Some(OUTAGE_CYCLES.end) {
            call(
                "provider_up",
                "providers",
                timed(|| self.sut.set_provider_down(self.victim, false)),
                None,
            );
        }

        for &(object, payload) in overwrites {
            let key = &self.keys[object as usize];
            let mime = MIMES[object as usize % CLASSES];
            let bytes = self.pool.slice(payload);
            let data = Bytes::copy_from_slice(bytes);
            tally.attempted += 3;

            let (result, start, ns) = timed(|| self.sut.put(key, data, mime));
            match result {
                Ok(_) => self.model[object as usize] = payload,
                Err(err) => tally.wrong(|| format!("put {key}: {err}")),
            }
            call("put", "engine", ((), start, ns), Some((object, payload)));

            // Read back what the model holds now — the new payload unless the
            // put failed. The range goes first: it does not fill the cache,
            // so the full read after it is provider-served too.
            let expected = self.pool.slice(self.model[object as usize]);
            let offset = payload.offset as usize % (OBJECT_BYTES - RANGE_BYTES);
            let (result, start, ns) = timed(|| {
                self.sut.get_range_on(
                    object as usize % engines,
                    key,
                    offset as u64,
                    RANGE_BYTES as u64,
                )
            });
            let range = Some(&expected[offset..offset + RANGE_BYTES]);
            check_read(result, range, "", "", tally, key);
            call(
                "range_cold",
                "engine",
                ((), start, ns),
                Some((object, payload)),
            );

            let (result, start, ns) = timed(|| self.sut.get(key));
            check_read(result, Some(expected), "", "", tally, key);
            call(
                "get_cold",
                "engine",
                ((), start, ns),
                Some((object, payload)),
            );
        }

        call(
            "tick",
            "engine::cluster",
            timed(|| self.sut.tick_hour(hour)),
            None,
        );
        self.adapted.repaired += self.sut.repaired_by_last_tick();

        let forced = timed_cycle == Some(CHEAPSTOR_CYCLE);
        let mut report = None;
        call(
            if forced {
                "forced_run"
            } else {
                "run_optimization"
            },
            "engine::optimizer",
            timed(|| {
                if forced {
                    self.sut.register_cheapstor();
                }
                report = Some(self.sut.run_optimization(forced));
            }),
            None,
        );
        if let Some(report) = report {
            self.adapted.searches += report.searches_executed as u64;
            self.adapted.migrations += report.migrations_executed as u64;
            self.adapted.bytes_migrated += report.bytes_migrated;
        }
        calls
    }
}

fn object_key(index: usize) -> ObjectKey {
    ObjectKey::new(
        format!("class{:02}", index % CLASSES),
        format!("o{index:05}"),
    )
}

struct State {
    driver: Driver,
    /// Overwrites per cycle, set-up cycles first.
    overwrites: Vec<Vec<(u32, PayloadRef)>>,
    tally: Tally,
}

fn setup(seed: u64, objects: usize) -> State {
    let pool = PayloadPool::new(seed, POOL_BYTES);
    let overwrites = generate(seed, &pool, objects);
    let sut = Sut::default_cluster(ByteSize::from_mb(256));
    let mut rng = Rng::new(seed, 0x7765_656b);
    let victim = sut
        .all_providers()
        .into_iter()
        .find(|p| p.name == OUTAGE_PROVIDER)
        .expect("the paper catalog has S3(l)")
        .id;
    let mut driver = Driver {
        sut,
        pool,
        keys: (0..objects).map(object_key).collect(),
        model: Vec::with_capacity(objects),
        victim,
        adapted: Adapted::default(),
    };
    let mut tally = Tally::default();
    for i in 0..objects {
        let payload = driver.pool.pick(&mut rng, OBJECT_BYTES);
        let data = Bytes::copy_from_slice(driver.pool.slice(payload));
        if let Err(err) = driver.sut.put(&driver.keys[i], data, MIMES[i % CLASSES]) {
            tally.wrong(|| format!("populate {}: {err}", driver.keys[i]));
        }
        driver.model.push(payload);
    }
    for (cycle, overwrites) in overwrites[..SETUP_CYCLES].iter().enumerate() {
        driver.cycle(cycle as u64 + 1, None, overwrites, &mut tally);
    }
    tally.attempted = 0;
    driver.adapted = Adapted::default();
    State {
        driver,
        overwrites,
        tally,
    }
}

pub fn run(args: &Args) -> Finished {
    let objects = OBJECTS_PER_SECOND * args.seconds as usize;
    let (state, setup_s) = setup_median(|| setup(args.seed, objects));
    let State {
        mut driver,
        overwrites,
        mut tally,
    } = state;

    let mut tracer = Tracer::new(args.traced);
    let mut ledger = args.traced.then(|| {
        Ledger::new(
            Shadow::like_default(ByteSize::from_mb(256)),
            bench_rule(),
            driver.sut.stripe_size(),
            REPLAY_EVERY,
        )
    });
    let mut lat = Latencies::default();
    let mut sliced = Sliced::new(TIMED_CYCLES);
    let mut extra = LayerCounts::default();
    let mut replayed_puts = 0u64;

    let before = driver.sut.counters();
    for (cycle, overwrites) in overwrites[SETUP_CYCLES..].iter().enumerate() {
        let hour = (SETUP_CYCLES + cycle) as u64 + 1;
        let calls = driver.cycle(hour, Some(cycle), overwrites, &mut tally);
        let cycle_ns: u64 = calls.iter().map(|c| c.ns).sum();
        let bytes = (overwrites.len() * (2 * OBJECT_BYTES + RANGE_BYTES)) as u64;
        sliced.add(cycle, cycle_ns, bytes);
        lat.add("cycle", cycle_ns);
        for call in &calls {
            lat.add(call.name, call.ns);
        }
        extra.cold_reads += 2 * overwrites.len() as u64;
        let Some(ledger) = ledger.as_mut() else {
            continue;
        };

        let seq = cycle as u64;
        let first = calls.first().map_or_else(Instant::now, |c| c.start);
        let root_id = tracer.root(seq, "cycle", "engine::cluster", first, cycle_ns, bytes);
        if cycle == CHEAPSTOR_CYCLE {
            ledger.shadow().register_cheapstor();
        }
        for call in &calls {
            let id = tracer.span(
                root_id, seq, call.name, call.layer, call.start, call.ns, 0, false,
            );
            let Some((object, payload)) = call.object.filter(|_| ledger.sample(call.name)) else {
                continue;
            };
            let Ok(meta) = driver.sut.read_metadata(&driver.keys[object as usize]) else {
                continue;
            };
            let bytes = driver.pool.slice(payload);
            let root = Root {
                id,
                op: seq,
                ns: call.ns,
            };
            match call.name {
                "put" => {
                    ledger.replay_put(&mut tracer, root, bytes, &meta);
                    if replayed_puts.is_multiple_of(PROBE_EVERY) {
                        ledger.probe(&mut tracer, seq, bytes, &meta);
                    }
                    replayed_puts += 1;
                }
                "get_cold" => ledger.replay_get(&mut tracer, root, bytes, &meta, false),
                _ => ledger.replay_range(
                    &mut tracer,
                    root,
                    bytes,
                    &meta,
                    payload.offset as usize % (OBJECT_BYTES - RANGE_BYTES),
                    RANGE_BYTES,
                ),
            }
        }
        // `tick`'s only separable stage, run once more by itself. A second
        // pass changes no row, so the cluster's counts stay the untraced
        // run's.
        let (_, start, ns) = timed(|| driver.sut.anti_entropy());
        tracer.span(
            root_id,
            seq,
            "anti_entropy",
            "metastore",
            start,
            ns,
            0,
            true,
        );
        lat.add("anti_entropy", ns);
    }
    let after = driver.sut.counters();
    extra.optimizer_searches = driver.adapted.searches;
    extra.optimizer_migrations = driver.adapted.migrations;
    extra.optimizer_bytes_migrated = driver.adapted.bytes_migrated;
    extra.optimizer_deferred = driver.sut.deferred_migrations();
    extra.repair_repaired = driver.adapted.repaired;

    let ((gallery, slashdot, new_provider), _, cost_ns) = timed(sut::cost_over_ideal_pct);

    let cycle = lat.summary("cycle");
    let mut end_to_end = end_to_end(EndToEnd {
        setup_s,
        ops: TIMED_CYCLES as u64,
        sliced: &sliced,
        put: lat.summary("put"),
        get: lat.summary("get_cold"),
        range: lat.summary("range_cold"),
        stored_bytes: after.stored_bytes,
        live_user_bytes: (objects * OBJECT_BYTES) as u64,
        tally: &tally,
    });
    let at = end_to_end.len() - 3;
    end_to_end.splice(
        at..at,
        Metric::latency("cycle_p50_ms", cycle, "ms", 1e6)
            .into_iter()
            .chain([Metric::exact("cost_over_ideal_pct", gallery, "%", 1)]),
    );

    // End-of-run checks: every object reads back as the model's payload,
    // listings match, every provider is up again and holds no orphan.
    let mut end = Tally::default();
    for (i, key) in driver.keys.iter().enumerate() {
        let expected = Some(driver.pool.slice(driver.model[i]));
        check_read(driver.sut.get(key), expected, "", "", &mut end, key);
    }
    for class in 0..CLASSES {
        let mut listed = driver.sut.list(&format!("class{class:02}"));
        listed.sort_by(|a, b| a.key.cmp(&b.key));
        let expected = driver.keys.iter().skip(class).step_by(CLASSES);
        end.check(listed.iter().eq(expected), || {
            format!("final list class{class:02} differs from the model")
        });
    }
    let own_layer = vec![
        Metric::wall("sim.cost_comparison.ms", cost_ns as f64 / 1e6, "ms", 3),
        Metric::exact("sim.slashdot_over_ideal_pct", slashdot, "%", 1),
        Metric::exact("sim.new_provider_over_ideal_pct", new_provider, "%", 1),
    ];
    finish(Finish {
        workload: "adaptive_week",
        args,
        sut: &driver.sut,
        end_to_end,
        before,
        after,
        extra,
        tally,
        end,
        own_layer,
        own_times: &[
            ("engine.tick.p50_ms", "tick", "ms", 1e6),
            ("engine.optimizer.run.p50_ms", "run_optimization", "ms", 1e6),
            ("engine.optimizer.forced_run.ms", "forced_run", "ms", 1e6),
            (
                "engine.repair.repair_provider.ms",
                "repair_provider",
                "ms",
                1e6,
            ),
            ("metastore.anti_entropy.ms", "anti_entropy", "ms", 1e6),
            ("metastore.logagg.inject.p50_ms", "inject_reads", "ms", 1e6),
        ],
        ledger,
        lat,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_overwrites_are_a_pure_function_of_the_seed() {
        let pool = PayloadPool::new(1, POOL_BYTES);
        let a = generate(2, &pool, 500);
        assert_eq!(a, generate(2, &pool, 500));
        assert_ne!(a, generate(3, &pool, 500));
        assert_eq!(a.len(), SETUP_CYCLES + TIMED_CYCLES);
        assert!(a.iter().all(|cycle| cycle.len() == 10));
        assert_eq!(generate(2, &pool, 10)[0].len(), 1);
    }

    #[test]
    fn every_class_spikes_once_for_four_hours_inside_the_timed_phase() {
        for class in 0..CLASSES {
            let spiking: Vec<usize> = (0..TIMED_CYCLES)
                .filter(|&c| reads_per_hour(class, Some(c)) == SPIKE_READS)
                .collect();
            assert_eq!(spiking.len(), SPIKE_HOURS, "class {class}");
            assert_eq!(spiking[0], spike_start(class));
            assert!(spiking[SPIKE_HOURS - 1] < TIMED_CYCLES);
            assert_eq!(reads_per_hour(class, None), 1);
        }
    }
}
