//! `small_cold`: small objects, no cache — the fixed cost of an op.
//!
//! Default cluster with cache capacity 0; 4 000 keys × 4 KiB in 40
//! containers; one closed-loop client on uniform keys: 50 % `get`, 30 %
//! overwrite `put`, 5 % 1 KiB `get_range`, 7 % `delete`, 7 % re-create `put`
//! of a deleted key, 1 % `list`. Every op pays metadata read or commit,
//! placement-cache lookup and n tiny chunk ops while payload work is ~nil,
//! so `metastore`, `serde_json`, `engine::placement_cache`, chunk-I/O fixed
//! cost and deprecated-chunk GC do the work and `types::md5`/`erasure`
//! almost none. Larger than the cache by construction.

use super::{
    end_to_end, finish, setup_median, Args, EndToEnd, Finish, Finished, Latencies, LayerCounts,
    Tally, WARM_UP_SHARE,
};
use crate::ledger::{Ledger, Root};
use crate::rng::{PayloadPool, PayloadRef, Rng};
use crate::stats::Sliced;
use crate::sut::{
    bench_rule, ByteSize, Bytes, ObjectKey, ObjectMeta, ScaliaError, Shadow, Sut, OCTET_STREAM,
};
use crate::trace::{timed, Tracer};
use std::time::Instant;

const KEYS: usize = 4_000;
const CONTAINERS: usize = 40;
const OBJECT_BYTES: usize = 4 * 1024;
const RANGE_BYTES: usize = 1024;
const POOL_BYTES: usize = 1 << 20;
/// Timed ops per `--seconds`.
const OPS_PER_SECOND: usize = 10_000;
/// Replay every 25th op of a class: ≥ 200 replays of the rarest replayed
/// class (`get_range`, 5 % of ops) from `--seconds 10` up.
const REPLAY_EVERY: u64 = 25;
/// Run the three off-path probes on every 8th replayed put.
const PROBE_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u32),
    Put(u32, PayloadRef),
    Range(u32, u32),
    Delete(u32),
    List(u32),
}

impl Op {
    fn key(self) -> Option<u32> {
        match self {
            Op::Get(k) | Op::Put(k, _) | Op::Range(k, _) | Op::Delete(k) => Some(k),
            Op::List(_) => None,
        }
    }
}

/// The keys the generator's own deletes have removed, with O(1) insert,
/// remove and uniform pick.
struct DeletedKeys {
    list: Vec<u32>,
    slot: Vec<Option<u32>>,
}

impl DeletedKeys {
    fn insert(&mut self, key: u32) {
        if self.slot[key as usize].is_none() {
            self.slot[key as usize] = Some(self.list.len() as u32);
            self.list.push(key);
        }
    }

    fn remove(&mut self, key: u32) {
        if let Some(at) = self.slot[key as usize].take() {
            self.list.swap_remove(at as usize);
            if let Some(&moved) = self.list.get(at as usize) {
                self.slot[moved as usize] = Some(at);
            }
        }
    }
}

/// The op stream: a pure function of `(seed, count)`. A re-create targets a
/// key the stream deleted earlier; with none deleted it falls back to an
/// overwrite of a uniform key.
pub fn generate(seed: u64, pool: &PayloadPool, count: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x736d_616c);
    let mut deleted = DeletedKeys {
        list: Vec::new(),
        slot: vec![None; KEYS],
    };
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let mut key = rng.below(KEYS as u64) as u32;
        let op = match rng.below(100) {
            0..=49 => Op::Get(key),
            80..=84 => Op::Range(
                key,
                rng.below((OBJECT_BYTES - RANGE_BYTES) as u64 + 1) as u32,
            ),
            85..=91 => {
                deleted.insert(key);
                Op::Delete(key)
            }
            99 => Op::List(rng.below(CONTAINERS as u64) as u32),
            kind => {
                if kind >= 92 && !deleted.list.is_empty() {
                    key = deleted.list[rng.below(deleted.list.len() as u64) as usize];
                }
                deleted.remove(key);
                Op::Put(key, pool.pick(&mut rng, OBJECT_BYTES))
            }
        };
        ops.push(op);
    }
    ops
}

fn container(index: usize) -> String {
    format!("c{index:02}")
}

/// What one executed op was and how long the program took for it.
struct Done {
    class: &'static str,
    start: Instant,
    ns: u64,
    /// Payload bytes in or out.
    bytes: u64,
    key: Option<u32>,
    meta: Option<ObjectMeta>,
}

struct Driver {
    sut: Sut,
    pool: PayloadPool,
    keys: Vec<ObjectKey>,
    /// The payload each key holds now; `None` once deleted.
    model: Vec<Option<PayloadRef>>,
    /// Round-robin engine for `get_range`, which the facade does not route.
    next_engine: usize,
}

impl Driver {
    /// Runs one op, timing only the call into the program; payload cutting
    /// and byte verification stay outside the span.
    fn exec(&mut self, op: Op, tally: &mut Tally) -> Done {
        tally.attempted += 1;
        let Driver {
            sut,
            pool,
            keys,
            model,
            next_engine,
        } = self;
        let (class, start, ns, bytes, meta) = match op {
            Op::Put(k, payload) => {
                let key = &keys[k as usize];
                let data = Bytes::copy_from_slice(pool.slice(payload));
                let (result, start, ns) = timed(|| sut.put(key, data, OCTET_STREAM));
                let meta = match result {
                    Ok(meta) => {
                        model[k as usize] = Some(payload);
                        Some(meta)
                    }
                    Err(err) => {
                        tally.wrong(|| format!("put {key}: {err}"));
                        None
                    }
                };
                ("put", start, ns, payload.len as u64, meta)
            }
            Op::Get(k) => {
                let key = &keys[k as usize];
                let (result, start, ns) = timed(|| sut.get(key));
                let expected = model[k as usize].map(|p| pool.slice(p));
                let class = check_read(result, expected, "get_cold", "get_missing", tally, key);
                (
                    class,
                    start,
                    ns,
                    expected.map_or(0, |e| e.len() as u64),
                    None,
                )
            }
            Op::Range(k, offset) => {
                let key = &keys[k as usize];
                let engine = *next_engine;
                *next_engine = (engine + 1) % sut.engine_count();
                let (result, start, ns) =
                    timed(|| sut.get_range_on(engine, key, offset as u64, RANGE_BYTES as u64));
                let expected = model[k as usize]
                    .map(|p| &pool.slice(p)[offset as usize..offset as usize + RANGE_BYTES]);
                let class = check_read(result, expected, "range_cold", "range_missing", tally, key);
                (
                    class,
                    start,
                    ns,
                    expected.map_or(0, |e| e.len() as u64),
                    None,
                )
            }
            Op::Delete(k) => {
                let key = &keys[k as usize];
                let (result, start, ns) = timed(|| sut.delete(key));
                let class = match (result, model[k as usize].take()) {
                    (Ok(()), Some(_)) => "delete",
                    (Err(ScaliaError::ObjectNotFound(_)), None) => "delete_missing",
                    (result, _) => {
                        tally.wrong(|| format!("delete {key}: {result:?} against the model"));
                        "delete"
                    }
                };
                (class, start, ns, 0, None)
            }
            Op::List(c) => {
                let (listed, start, ns) = timed(|| sut.list(&container(c as usize)));
                if !self.listing_matches(c as usize, listed) {
                    tally
                        .wrong(|| format!("list {} differs from the model", container(c as usize)));
                }
                ("list", start, ns, 0, None)
            }
        };
        Done {
            class,
            start,
            ns,
            bytes,
            key: op.key(),
            meta,
        }
    }

    fn listing_matches(&self, container_index: usize, mut listed: Vec<ObjectKey>) -> bool {
        listed.sort_by(|a, b| a.key.cmp(&b.key));
        let live = (container_index..KEYS)
            .step_by(CONTAINERS)
            .filter(|&k| self.model[k].is_some())
            .map(|k| &self.keys[k]);
        listed.iter().eq(live)
    }
}

/// Classifies a read against the model: right bytes of a live key, or
/// `ObjectNotFound` for a key the model says is deleted — a correct result,
/// not a failure. Anything else counts as failed.
pub(super) fn check_read(
    result: crate::sut::Result<Bytes>,
    expected: Option<&[u8]>,
    served: &'static str,
    missing: &'static str,
    tally: &mut Tally,
    key: &ObjectKey,
) -> &'static str {
    match (result, expected) {
        (Ok(bytes), Some(expected)) => {
            if bytes[..] != *expected {
                tally.wrong(|| format!("read {key}: wrong bytes"));
            }
            served
        }
        (Err(ScaliaError::ObjectNotFound(_)), None) => missing,
        (result, expected) => {
            tally.wrong(|| {
                format!(
                    "read {key}: {:?} where the model has {}",
                    result.map(|b| b.len()),
                    if expected.is_some() {
                        "a live object"
                    } else {
                        "none"
                    }
                )
            });
            served
        }
    }
}

struct State {
    driver: Driver,
    /// Warm-up ops first, then the timed ops.
    ops: Vec<Op>,
    warm_up: usize,
    tally: Tally,
}

fn setup(seed: u64, timed_ops: usize) -> State {
    let pool = PayloadPool::new(seed, POOL_BYTES);
    let warm_up = (timed_ops as f64 * WARM_UP_SHARE) as usize;
    let ops = generate(seed, &pool, warm_up + timed_ops);
    let keys: Vec<ObjectKey> = (0..KEYS)
        .map(|k| ObjectKey::new(container(k % CONTAINERS), format!("k{k:04}")))
        .collect();
    let mut driver = Driver {
        sut: Sut::default_cluster(ByteSize::ZERO),
        pool,
        keys,
        model: vec![None; KEYS],
        next_engine: 0,
    };
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed, 0x7072_6570);
    for k in 0..KEYS as u32 {
        let payload = driver.pool.pick(&mut rng, OBJECT_BYTES);
        driver.exec(Op::Put(k, payload), &mut tally);
    }
    for &op in &ops[..warm_up] {
        driver.exec(op, &mut tally);
    }
    // Set-up ops are checked like any other but are not the run's ops.
    tally.attempted = 0;
    State {
        driver,
        ops,
        warm_up,
        tally,
    }
}

pub fn run(args: &Args) -> Finished {
    let timed_ops = OPS_PER_SECOND * args.seconds as usize;
    let (state, setup_s) = setup_median(|| setup(args.seed, timed_ops));
    let State {
        mut driver,
        ops,
        warm_up,
        mut tally,
    } = state;

    let mut tracer = Tracer::new(args.traced);
    let mut ledger = args.traced.then(|| {
        Ledger::new(
            Shadow::like_default(ByteSize::ZERO),
            bench_rule(),
            driver.sut.stripe_size(),
            REPLAY_EVERY,
        )
    });
    let mut lat = Latencies::default();
    let mut sliced = Sliced::new(timed_ops);
    let mut extra = LayerCounts::default();
    let mut replayed_puts = 0u64;

    let before = driver.sut.counters();
    for (i, &op) in ops[warm_up..].iter().enumerate() {
        let done = driver.exec(op, &mut tally);
        sliced.add(i, done.ns, done.bytes);
        lat.add(done.class, done.ns);
        if matches!(done.class, "get_cold" | "range_cold") {
            extra.cold_reads += 1;
        }
        let Some(ledger) = ledger.as_mut() else {
            continue;
        };
        let id = tracer.root(
            i as u64, done.class, "engine", done.start, done.ns, done.bytes,
        );
        let root = Root {
            id,
            op: i as u64,
            ns: done.ns,
        };
        let replayable = matches!(done.class, "put" | "get_cold" | "range_cold");
        let Some(k) = done.key.filter(|_| replayable && ledger.sample(done.class)) else {
            continue;
        };
        let Some(payload) = driver.model[k as usize] else {
            continue;
        };
        let payload = driver.pool.slice(payload);
        let meta = match done.meta {
            Some(meta) => meta,
            None => match driver.sut.read_metadata(&driver.keys[k as usize]) {
                Ok(meta) => meta,
                Err(_) => continue,
            },
        };
        match op {
            Op::Put(..) => {
                ledger.replay_put(&mut tracer, root, payload, &meta);
                if replayed_puts.is_multiple_of(PROBE_EVERY) {
                    ledger.probe(&mut tracer, i as u64, payload, &meta);
                }
                replayed_puts += 1;
            }
            Op::Get(_) => ledger.replay_get(&mut tracer, root, payload, &meta, false),
            Op::Range(_, offset) => ledger.replay_range(
                &mut tracer,
                root,
                payload,
                &meta,
                offset as usize,
                RANGE_BYTES,
            ),
            Op::Delete(_) | Op::List(_) => {}
        }
    }
    let after = driver.sut.counters();

    let put = lat.summary("put");
    let get = lat.summary("get_cold");
    let range = lat.summary("range_cold");
    let live_user_bytes = driver
        .model
        .iter()
        .flatten()
        .map(|p| p.len as u64)
        .sum::<u64>();
    let end_to_end = end_to_end(EndToEnd {
        setup_s,
        ops: timed_ops as u64,
        sliced: &sliced,
        put,
        get,
        range,
        stored_bytes: after.stored_bytes,
        live_user_bytes,
        tally: &tally,
    });

    // End-of-run checks: every live key readable, every deleted key gone,
    // every listing equal to the model, no orphan chunk at any provider.
    let mut end = Tally::default();
    for k in 0..KEYS {
        let key = &driver.keys[k];
        let expected = driver.model[k].map(|p| driver.pool.slice(p));
        check_read(driver.sut.get(key), expected, "", "", &mut end, key);
    }
    for c in 0..CONTAINERS {
        let listed = driver.sut.list(&container(c));
        let matches = driver.listing_matches(c, listed);
        end.check(matches, || {
            format!("final list {} differs from the model", container(c))
        });
    }
    finish(Finish {
        workload: "small_cold",
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
    fn the_op_stream_is_a_pure_function_of_the_seed() {
        let pool = PayloadPool::new(1, POOL_BYTES);
        let a = generate(11, &pool, 5_000);
        assert_eq!(a, generate(11, &pool, 5_000));
        assert_ne!(a, generate(12, &pool, 5_000));
        // A longer stream extends a shorter one: warm-up plus timed ops are
        // one stream whatever the split.
        assert_eq!(a[..], generate(11, &pool, 6_000)[..5_000]);
    }

    #[test]
    fn the_mix_matches_the_stated_shares_and_recreates_hit_deleted_keys() {
        let pool = PayloadPool::new(1, POOL_BYTES);
        let ops = generate(3, &pool, 100_000);
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count() as f64 / 1e5;
        assert!((share(|op| matches!(op, Op::Get(_))) - 0.50).abs() < 0.01);
        assert!((share(|op| matches!(op, Op::Put(..))) - 0.37).abs() < 0.01);
        assert!((share(|op| matches!(op, Op::Range(..))) - 0.05).abs() < 0.005);
        assert!((share(|op| matches!(op, Op::Delete(_))) - 0.07).abs() < 0.005);
        assert!((share(|op| matches!(op, Op::List(_))) - 0.01).abs() < 0.003);

        // Replay the stream against a plain set: most deletes hit a live key
        // and most of those keys come back through a later put.
        let mut live = vec![true; KEYS];
        let (mut deletes_of_live, mut creates) = (0, 0);
        for op in &ops {
            match *op {
                Op::Delete(k) => {
                    deletes_of_live += live[k as usize] as u32;
                    live[k as usize] = false;
                }
                Op::Put(k, _) => {
                    creates += !live[k as usize] as u32;
                    live[k as usize] = true;
                }
                _ => {}
            }
        }
        assert!(deletes_of_live > 6_000, "{deletes_of_live}");
        assert!(
            creates + 50 > deletes_of_live,
            "{creates} vs {deletes_of_live}"
        );
    }
}
