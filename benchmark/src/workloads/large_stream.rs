//! `large_stream`: large objects through the streaming path — bytes dominate.
//!
//! Default cluster, default 256 MB cache. Each round: multipart put of 8 MiB
//! in 256 KiB parts (`begin_put`/`put_part`/`complete_put`, 16 stripes of
//! 512 KiB), 4 cold 64 KiB `get_range` at seeded offsets, cold full `get`,
//! warm full `get`, 4 warm 64 KiB `get_range`, `delete`. `types::md5`,
//! GF(256) encode/decode, `Bytes`→`Vec` copies and chunk fan-out work by
//! volume with one metadata commit per 8 MiB — the mirror image of
//! `small_cold`. The warm half uses the cache the other way round from
//! `tenant_traffic`: few huge entries, where a hit costs O(object).
//!
//! Two resident objects written in set-up are never deleted, so that bytes
//! stored per live user byte is defined when the last round has deleted its
//! own object.

use super::small_cold::check_read;
use super::{
    end_to_end, finish, setup_median, Args, EndToEnd, Finish, Finished, Latencies, LayerCounts,
    Tally, WARM_UP_SHARE,
};
use crate::ledger::{Ledger, Root};
use crate::report::Metric;
use crate::rng::{PayloadPool, PayloadRef, Rng};
use crate::stats::Sliced;
use crate::sut::{bench_rule, ByteSize, ObjectKey, ObjectMeta, Shadow, Sut};
use crate::trace::{timed, Tracer};
use std::time::Instant;

const OBJECT_BYTES: usize = 8 << 20;
const PART_BYTES: usize = 256 << 10;
const RANGE_BYTES: usize = 64 << 10;
const RANGES: usize = 4;
const POOL_BYTES: usize = 16 << 20;
const RESIDENT: usize = 2;
const CONTAINER: &str = "stream";
/// Client ops per round: put, 4 cold ranges, cold get, warm get, 4 warm
/// ranges, delete.
const OPS_PER_ROUND: usize = 2 * RANGES + 4;
/// Timed rounds per `--seconds`.
const ROUNDS_PER_SECOND: usize = 4;
/// The streaming pipeline's transient buffering must stay O(stripe).
const PEAK_BUFFER_LIMIT: usize = 4 << 20;
/// Replay every 5th round's put, cold range, cold get and warm get. A round
/// is ~0.2 s, so a run has tens of rounds, not the hundreds of samples the
/// small-object workloads give a class; the sample count is printed.
const REPLAY_EVERY: u64 = 5;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    payload: PayloadRef,
    cold_offsets: [u32; RANGES],
    warm_offsets: [u32; RANGES],
}

/// The rounds: a pure function of `(seed, count)`.
pub fn generate(seed: u64, pool: &PayloadPool, count: usize) -> Vec<Round> {
    let mut rng = Rng::new(seed, 0x6c61_7267);
    let offsets = |rng: &mut Rng| {
        std::array::from_fn(|_| rng.below((OBJECT_BYTES - RANGE_BYTES) as u64 + 1) as u32)
    };
    (0..count)
        .map(|_| Round {
            payload: pool.pick(&mut rng, OBJECT_BYTES),
            cold_offsets: offsets(&mut rng),
            warm_offsets: offsets(&mut rng),
        })
        .collect()
}

/// One executed client op of a round.
struct Done {
    class: &'static str,
    start: Instant,
    ns: u64,
    bytes: u64,
    /// `(name, start, ns)` of the separate public calls made for the op.
    calls: Vec<(&'static str, Instant, u64)>,
    range_offset: usize,
}

struct Driver {
    sut: Sut,
    pool: PayloadPool,
    peak_buffer_bytes: usize,
}

impl Driver {
    /// Multipart put through engine `engine`; returns the committed metadata.
    fn put(
        &mut self,
        engine: usize,
        key: &ObjectKey,
        payload: PayloadRef,
        tally: &mut Tally,
    ) -> (Done, Option<ObjectMeta>) {
        tally.attempted += 1;
        let data = self.pool.slice(payload);
        let mut calls = Vec::with_capacity(OBJECT_BYTES / PART_BYTES + 2);
        let mut peak = 0;
        let (result, start, ns) = timed(|| {
            let (mut upload, s, n) = timed(|| self.sut.begin_put_on(engine, key));
            calls.push(("begin_put", s, n));
            for part in data.chunks(PART_BYTES) {
                let (result, s, n) = timed(|| upload.put_part(part));
                calls.push(("put_part", s, n));
                result?;
            }
            peak = upload.peak_buffer_bytes();
            let (result, s, n) = timed(|| upload.complete_put());
            calls.push(("complete_put", s, n));
            result
        });
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(peak);
        let meta = match result {
            Ok(meta) => Some(meta),
            Err(err) => {
                tally.wrong(|| format!("multipart put {key}: {err}"));
                None
            }
        };
        let done = Done {
            class: "put",
            start,
            ns,
            bytes: data.len() as u64,
            calls,
            range_offset: 0,
        };
        (done, meta)
    }

    fn get(
        &self,
        engine: usize,
        key: &ObjectKey,
        payload: PayloadRef,
        class: &'static str,
        tally: &mut Tally,
    ) -> Done {
        tally.attempted += 1;
        let (result, start, ns) = timed(|| self.sut.get_on(engine, key));
        let expected = self.pool.slice(payload);
        check_read(result, Some(expected), class, class, tally, key);
        Done {
            class,
            start,
            ns,
            bytes: expected.len() as u64,
            calls: Vec::new(),
            range_offset: 0,
        }
    }

    fn range(
        &self,
        engine: usize,
        key: &ObjectKey,
        payload: PayloadRef,
        offset: u32,
        class: &'static str,
        tally: &mut Tally,
    ) -> Done {
        tally.attempted += 1;
        let (result, start, ns) = timed(|| {
            self.sut
                .get_range_on(engine, key, offset as u64, RANGE_BYTES as u64)
        });
        let expected = &self.pool.slice(payload)[offset as usize..offset as usize + RANGE_BYTES];
        check_read(result, Some(expected), class, class, tally, key);
        Done {
            class,
            start,
            ns,
            bytes: RANGE_BYTES as u64,
            calls: Vec::new(),
            range_offset: offset as usize,
        }
    }

    fn delete(&self, engine: usize, key: &ObjectKey, tally: &mut Tally) -> Done {
        tally.attempted += 1;
        let (result, start, ns) = timed(|| self.sut.delete_on(engine, key));
        if let Err(err) = result {
            tally.wrong(|| format!("delete {key}: {err}"));
        }
        Done {
            class: "delete",
            start,
            ns,
            bytes: 0,
            calls: Vec::new(),
            range_offset: 0,
        }
    }

    /// One round on one engine, so the warm reads land on the datacenter the
    /// cold read warmed. `each` sees every op in order, with the round's
    /// metadata once the put has committed.
    fn round(
        &mut self,
        index: usize,
        round: &Round,
        tally: &mut Tally,
        mut each: impl FnMut(&Driver, Done, Option<&ObjectMeta>),
    ) {
        let engine = index % self.sut.engine_count();
        let key = ObjectKey::new(CONTAINER, format!("obj{index:05}"));
        let (done, meta) = self.put(engine, &key, round.payload, tally);
        let meta = meta.as_ref();
        each(self, done, meta);
        for offset in round.cold_offsets {
            let done = self.range(engine, &key, round.payload, offset, "range_cold", tally);
            each(self, done, meta);
        }
        let done = self.get(engine, &key, round.payload, "get_cold", tally);
        each(self, done, meta);
        let done = self.get(engine, &key, round.payload, "get_warm", tally);
        each(self, done, meta);
        for offset in round.warm_offsets {
            let done = self.range(engine, &key, round.payload, offset, "range_warm", tally);
            each(self, done, meta);
        }
        let done = self.delete(engine, &key, tally);
        each(self, done, meta);
    }
}

fn resident_key(index: usize) -> ObjectKey {
    ObjectKey::new(CONTAINER, format!("resident{index}"))
}

struct State {
    driver: Driver,
    /// Warm-up rounds first, then the timed rounds.
    rounds: Vec<Round>,
    warm_up: usize,
    resident: Vec<PayloadRef>,
    tally: Tally,
}

fn setup(seed: u64, timed_rounds: usize) -> State {
    let pool = PayloadPool::new(seed, POOL_BYTES);
    let warm_up = ((timed_rounds as f64 * WARM_UP_SHARE) as usize).max(1);
    let rounds = generate(seed, &pool, warm_up + timed_rounds);
    let mut driver = Driver {
        sut: Sut::default_cluster(ByteSize::from_mb(256)),
        pool,
        peak_buffer_bytes: 0,
    };
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed, 0x7265_7369);
    let resident: Vec<PayloadRef> = (0..RESIDENT)
        .map(|i| {
            let payload = driver.pool.pick(&mut rng, OBJECT_BYTES);
            driver.put(i, &resident_key(i), payload, &mut tally);
            payload
        })
        .collect();
    for (i, round) in rounds[..warm_up].iter().enumerate() {
        driver.round(i, round, &mut tally, |_, _, _| {});
    }
    tally.attempted = 0;
    State {
        driver,
        rounds,
        warm_up,
        resident,
        tally,
    }
}

pub fn run(args: &Args) -> Finished {
    let timed_rounds = ROUNDS_PER_SECOND * args.seconds as usize;
    let (state, setup_s) = setup_median(|| setup(args.seed, timed_rounds));
    let State {
        mut driver,
        rounds,
        warm_up,
        resident,
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
    let mut sliced = Sliced::new(timed_rounds * OPS_PER_ROUND);
    let mut extra = LayerCounts::default();
    let mut op_index = 0usize;

    let before = driver.sut.counters();
    for (r, round) in rounds[warm_up..].iter().enumerate() {
        // Round numbers continue after the warm-up so keys never repeat.
        let index = warm_up + r;
        let payload = round.payload;
        driver.round(index, round, &mut tally, |driver, done, meta| {
            let i = op_index;
            op_index += 1;
            sliced.add(i, done.ns, done.bytes);
            lat.add(done.class, done.ns);
            for &(name, _, ns) in &done.calls {
                lat.add(name, ns);
            }
            if matches!(done.class, "get_cold" | "range_cold") {
                extra.cold_reads += 1;
            }
            let (Some(ledger), Some(meta)) = (ledger.as_mut(), meta) else {
                return;
            };
            let id = tracer.root(
                i as u64, done.class, "engine", done.start, done.ns, done.bytes,
            );
            for &(name, start, ns) in &done.calls {
                tracer.span(id, i as u64, name, "engine", start, ns, 0, false);
            }
            let root = Root {
                id,
                op: i as u64,
                ns: done.ns,
            };
            if done.class == "delete" || !ledger.sample(done.class) {
                return;
            }
            let bytes = driver.pool.slice(payload);
            match done.class {
                "put" => {
                    ledger.replay_put(&mut tracer, root, bytes, meta);
                    ledger.probe(&mut tracer, i as u64, bytes, meta);
                }
                "get_cold" => ledger.replay_get(&mut tracer, root, bytes, meta, false),
                "get_warm" => ledger.replay_get(&mut tracer, root, bytes, meta, true),
                "range_cold" => ledger.replay_range(
                    &mut tracer,
                    root,
                    bytes,
                    meta,
                    done.range_offset,
                    RANGE_BYTES,
                ),
                _ => {}
            }
        });
    }
    let after = driver.sut.counters();
    extra.peak_buffer_bytes = driver.peak_buffer_bytes as u64;

    let user_mib_per_s = sliced.bytes_per_s() / (1 << 20) as f64;
    let mut end_to_end = end_to_end(EndToEnd {
        setup_s,
        ops: (timed_rounds * OPS_PER_ROUND) as u64,
        sliced: &sliced,
        put: lat.summary("put"),
        get: lat.summary("get_cold"),
        range: lat.summary("range_cold"),
        stored_bytes: after.stored_bytes,
        live_user_bytes: (RESIDENT * OBJECT_BYTES) as u64,
        tally: &tally,
    });
    end_to_end.insert(
        2,
        Metric::wall("user_mib_per_s", user_mib_per_s, "MiB/s", tally.attempted),
    );

    // End-of-run checks: the resident objects are all that is left, they
    // read back right, the pipeline buffered O(stripe), no orphan chunks.
    let mut end = Tally::default();
    for (i, &payload) in resident.iter().enumerate() {
        let key = resident_key(i);
        let expected = Some(driver.pool.slice(payload));
        check_read(driver.sut.get(&key), expected, "", "", &mut end, &key);
    }
    let mut listed = driver.sut.list(CONTAINER);
    listed.sort_by(|a, b| a.key.cmp(&b.key));
    end.check(
        listed
            .iter()
            .eq((0..RESIDENT).map(resident_key).collect::<Vec<_>>().iter()),
        || {
            format!(
                "final list holds {} keys, the model {RESIDENT}",
                listed.len()
            )
        },
    );
    end.check(driver.peak_buffer_bytes <= PEAK_BUFFER_LIMIT, || {
        format!(
            "peak_buffer_bytes {} exceeds {PEAK_BUFFER_LIMIT}",
            driver.peak_buffer_bytes
        )
    });
    finish(Finish {
        workload: "large_stream",
        args,
        sut: &driver.sut,
        end_to_end,
        before,
        after,
        extra,
        tally,
        end,
        own_layer: Vec::new(),
        own_times: &[],
        ledger,
        lat,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rounds_are_a_pure_function_of_the_seed() {
        let pool = PayloadPool::new(1, POOL_BYTES);
        let a = generate(5, &pool, 20);
        assert_eq!(a, generate(5, &pool, 20));
        assert_ne!(a, generate(6, &pool, 20));
        assert_eq!(a[..], generate(5, &pool, 30)[..20]);
        for round in &a {
            assert_eq!(round.payload.len as usize, OBJECT_BYTES);
            for offset in round.cold_offsets.iter().chain(&round.warm_offsets) {
                assert!(*offset as usize + RANGE_BYTES <= OBJECT_BYTES);
            }
        }
    }
}
