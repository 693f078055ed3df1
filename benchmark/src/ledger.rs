//! The layer ledger of a traced run.
//!
//! For every Kth op of a class the driver replays the op's stages, one at a
//! time, through each layer's public entry point on the same inputs against
//! a shadow deployment built like the measured one. Each replayed stage is a
//! child span of the op flagged `replayed`; an op's self time is its root
//! span minus those children, i.e. what the program spends between its
//! layers: fan-out orchestration, copies, locks, access logging. Three
//! probes hang off no op because the sampled op did not run them: an
//! uncached placement search, a decode that needs parity, a cache hit.

use crate::stats::{summarize, Summary};
use crate::sut::{Bytes, ErasureParams, ObjectMeta, Shadow, StorageRule};
use crate::trace::{self_share, timed, Tracer};
use std::collections::BTreeMap;

#[derive(Default)]
struct Stage {
    ns: Vec<u64>,
    total_ns: u64,
    total_bytes: u64,
}

pub struct Ledger {
    shadow: Shadow,
    rule: StorageRule,
    stripe_size: usize,
    /// Replay every `every`-th op of each class.
    every: u64,
    seen: BTreeMap<&'static str, u64>,
    stages: BTreeMap<&'static str, Stage>,
    /// `(root ns, Σ replayed children ns)` per op class.
    shares: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

/// The root span a replay hangs its children on.
#[derive(Clone, Copy)]
pub struct Root {
    pub id: u64,
    pub op: u64,
    pub ns: u64,
}

impl Ledger {
    pub fn new(shadow: Shadow, rule: StorageRule, stripe_size: usize, every: u64) -> Ledger {
        Ledger {
            shadow,
            rule,
            stripe_size,
            every: every.max(1),
            seen: BTreeMap::new(),
            stages: BTreeMap::new(),
            shares: BTreeMap::new(),
        }
    }

    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    /// True on every Kth op of `class`, starting with the first.
    pub fn sample(&mut self, class: &'static str) -> bool {
        let seen = self.seen.entry(class).or_insert(0);
        *seen += 1;
        (*seen - 1).is_multiple_of(self.every)
    }

    /// Times one stage, records it as a replayed child of `root` (or as a
    /// probe when `root.id` is 0) and returns its result and duration.
    fn stage<T>(
        &mut self,
        tracer: &mut Tracer,
        root: Root,
        name: &'static str,
        layer: &'static str,
        bytes: usize,
        f: impl FnOnce(&Shadow) -> T,
    ) -> (T, u64) {
        let (value, start, ns) = timed(|| f(&self.shadow));
        tracer.span(root.id, root.op, name, layer, start, ns, bytes as u64, true);
        let stage = self.stages.entry(name).or_default();
        stage.ns.push(ns);
        stage.total_ns += ns;
        stage.total_bytes += bytes as u64;
        (value, ns)
    }

    fn stripes<'a>(&self, payload: &'a [u8]) -> impl Iterator<Item = &'a [u8]> {
        // An empty object still has one (empty) stripe.
        payload.chunks(self.stripe_size.max(1))
    }

    /// Puts `meta`'s row and chunks into the shadow so a read replay finds
    /// them (untimed). Returns each stripe's `(provider, key, index, bytes)`.
    fn stage_object(&self, payload: &[u8], meta: &ObjectMeta, stripes: std::ops::Range<usize>) {
        let value = self.shadow.meta_to_value(meta);
        let _ = self.shadow.commit_transaction(meta, value);
        for i in stripes {
            let view = meta.striping.stripe_view(i);
            let Some(params) = ErasureParams::new(view.m, view.n()) else {
                continue;
            };
            let stripe = self.stripes(payload).nth(i).unwrap_or(&[]);
            let Ok(chunks) = self.shadow.encode(stripe, params) else {
                continue;
            };
            for location in &view.chunks {
                let data = chunks[location.index as usize].data.clone();
                let _ =
                    self.shadow
                        .chunk_put(location.provider, &view.chunk_key(location.index), data);
            }
        }
    }

    fn unstage_object(&self, meta: &ObjectMeta) {
        for (provider, key) in meta.striping.all_chunk_refs() {
            self.shadow.chunk_drop(provider, &key);
        }
    }

    /// Fetches the `m` data chunks of stripe `i`, one timed download each.
    fn fetch_stripe(
        &mut self,
        tracer: &mut Tracer,
        root: Root,
        meta: &ObjectMeta,
        i: usize,
        children: &mut u64,
    ) -> (Vec<(u32, Bytes)>, ErasureParams) {
        let view = meta.striping.stripe_view(i);
        let params = ErasureParams::new(view.m, view.n()).expect("committed stripes are valid");
        let mut parts = Vec::with_capacity(view.m as usize);
        for location in view.chunks.iter().filter(|c| c.index < view.m) {
            let key = view.chunk_key(location.index);
            let (data, ns) = self.stage(tracer, root, "timed_get", "providers", 0, |s| {
                s.chunk_get(location.provider, &key)
            });
            *children += ns;
            if let Ok(data) = data {
                parts.push((location.index, data));
            }
        }
        (parts, params)
    }

    /// Replays a put's stages: checksum, placement lookup, per stripe encode
    /// and `n` chunk uploads, metadata serialisation, the commit transaction.
    pub fn replay_put(
        &mut self,
        tracer: &mut Tracer,
        root: Root,
        payload: &[u8],
        meta: &ObjectMeta,
    ) {
        let mut children = 0;
        let rule = self.rule.clone();
        children += self
            .stage(tracer, root, "md5_hex", "types", payload.len(), |s| {
                s.md5(payload)
            })
            .1;
        children += self
            .stage(
                tracer,
                root,
                "best_placement_cached",
                "engine::placement_cache",
                0,
                |s| s.placement_cached(&rule, payload.len() as u64),
            )
            .1;
        for i in 0..meta.striping.stripe_count() {
            let view = meta.striping.stripe_view(i);
            let Some(params) = ErasureParams::new(view.m, view.n()) else {
                continue;
            };
            let stripe = self.stripes(payload).nth(i).unwrap_or(&[]);
            let (chunks, ns) = self.stage(
                tracer,
                root,
                "encode_object",
                "erasure",
                stripe.len(),
                |s| s.encode(stripe, params),
            );
            children += ns;
            let Ok(chunks) = chunks else { continue };
            for location in &view.chunks {
                let key = view.chunk_key(location.index);
                let data = chunks[location.index as usize].data.clone();
                let len = data.len();
                children += self
                    .stage(tracer, root, "timed_put", "providers", len, |s| {
                        s.chunk_put(location.provider, &key, data)
                    })
                    .1;
            }
        }
        let (value, ns) = self.stage(tracer, root, "to_value", "serde_json", 0, |s| {
            s.meta_to_value(meta)
        });
        children += ns;
        children += self
            .stage(tracer, root, "transaction", "metastore", 0, |s| {
                s.commit_transaction(meta, value)
            })
            .1;
        self.unstage_object(meta);
        self.shares
            .entry("put")
            .or_default()
            .push((root.ns, children));
    }

    /// Replays a full read's stages. Warm: the cache lookup. Cold: the
    /// lookup that misses, metadata read and parse, per stripe `m` chunk
    /// downloads and the decode, the integrity pass, the cache populate.
    pub fn replay_get(
        &mut self,
        tracer: &mut Tracer,
        root: Root,
        payload: &[u8],
        meta: &ObjectMeta,
        warm: bool,
    ) {
        let row_key = meta.row_key();
        let mut children = 0;
        if warm {
            self.shadow
                .cache_put(&row_key, Bytes::copy_from_slice(payload));
        } else {
            self.stage_object(payload, meta, 0..meta.striping.stripe_count());
        }
        children += self
            .stage(
                tracer,
                root,
                "cache_get",
                "engine::cache",
                payload.len(),
                |s| s.cache_get(&row_key),
            )
            .1;
        if !warm {
            let (value, ns) = self.stage(tracer, root, "get_latest", "metastore", 0, |s| {
                s.get_latest_meta(&row_key)
            });
            children += ns;
            if let Some(value) = value {
                children += self
                    .stage(tracer, root, "from_value", "serde_json", 0, |s| {
                        s.meta_from_value(value)
                    })
                    .1;
            }
            let mut object = Vec::with_capacity(payload.len());
            for i in 0..meta.striping.stripe_count() {
                let (parts, params) = self.fetch_stripe(tracer, root, meta, i, &mut children);
                let len = self.stripes(payload).nth(i).map_or(0, |s| s.len());
                let (stripe, ns) = self.stage(tracer, root, "decode_object", "erasure", len, |s| {
                    s.decode(parts, params, len)
                });
                children += ns;
                if let Ok(stripe) = stripe {
                    object.extend_from_slice(&stripe);
                }
            }
            children += self
                .stage(tracer, root, "md5_hex", "types", object.len(), |s| {
                    s.md5(&object)
                })
                .1;
            let data = Bytes::from(object);
            children += self
                .stage(
                    tracer,
                    root,
                    "cache_put",
                    "engine::cache",
                    payload.len(),
                    |s| s.cache_put(&row_key, data),
                )
                .1;
            self.unstage_object(meta);
        }
        self.shadow.cache_drop(&row_key);
        self.shares
            .entry(if warm { "get_warm" } else { "get_cold" })
            .or_default()
            .push((root.ns, children));
    }

    /// Replays a cold range read: metadata read and parse, then per covering
    /// stripe `m` chunk downloads and the range decode.
    pub fn replay_range(
        &mut self,
        tracer: &mut Tracer,
        root: Root,
        payload: &[u8],
        meta: &ObjectMeta,
        offset: usize,
        len: usize,
    ) {
        let end = (offset + len).min(payload.len());
        if offset >= end {
            return;
        }
        let row_key = meta.row_key();
        let stripe_size = self.stripe_size.max(1);
        let covering = offset / stripe_size..(end - 1) / stripe_size + 1;
        self.stage_object(payload, meta, covering.clone());
        let mut children = 0;
        let (value, ns) = self.stage(tracer, root, "get_latest", "metastore", 0, |s| {
            s.get_latest_meta(&row_key)
        });
        children += ns;
        if let Some(value) = value {
            children += self
                .stage(tracer, root, "from_value", "serde_json", 0, |s| {
                    s.meta_from_value(value)
                })
                .1;
        }
        for i in covering {
            let (parts, params) = self.fetch_stripe(tracer, root, meta, i, &mut children);
            let stripe_start = i * stripe_size;
            let stripe_len = self.stripes(payload).nth(i).map_or(0, |s| s.len());
            let from = offset.max(stripe_start) - stripe_start;
            let to = (end - stripe_start).min(stripe_len);
            children += self
                .stage(
                    tracer,
                    root,
                    "decode_object_range",
                    "erasure",
                    to - from,
                    |s| s.decode_range(parts, params, stripe_len, from, to - from),
                )
                .1;
        }
        self.unstage_object(meta);
        self.shares
            .entry("range_cold")
            .or_default()
            .push((root.ns, children));
    }

    /// The three stages no sampled op ran: an uncached placement search over
    /// the workload's catalog, a first-stripe decode that lost a data chunk
    /// and needs parity, and a cache hit on the op's payload.
    pub fn probe(&mut self, tracer: &mut Tracer, op: u64, payload: &[u8], meta: &ObjectMeta) {
        let root = Root { id: 0, op, ns: 0 };
        let rule = self.rule.clone();
        let _ = self.stage(tracer, root, "best_placement", "core", 0, |s| {
            s.placement_search(&rule, payload.len() as u64)
        });

        let view = meta.striping.stripe_view(0);
        let stripe = self.stripes(payload).next().unwrap_or(&[]);
        if let Some(params) = ErasureParams::new(view.m, view.n()).filter(|p| p.n > p.m) {
            if let Ok(chunks) = self.shadow.encode(stripe, params) {
                // Every chunk but data chunk 0: the decode must rebuild it.
                let parts: Vec<(u32, Bytes)> = chunks
                    .iter()
                    .skip(1)
                    .take(params.m as usize)
                    .map(|c| (c.index, c.data.clone()))
                    .collect();
                let _ = self.stage(
                    tracer,
                    root,
                    "decode_object_parity",
                    "erasure",
                    stripe.len(),
                    |s| s.decode(parts, params, stripe.len()),
                );
            }
        }

        let row_key = meta.row_key();
        self.shadow
            .hit_cache_stage(&row_key, Bytes::copy_from_slice(payload));
        self.stage(
            tracer,
            root,
            "cache_hit",
            "engine::cache",
            payload.len(),
            |s| s.hit_cache_get(&row_key),
        );
        self.shadow.hit_cache_drop(&row_key);
    }

    pub fn summary(&mut self, stage: &str) -> Option<Summary> {
        self.stages
            .get_mut(stage)
            .and_then(|s| summarize(&mut s.ns))
    }

    /// Σ ns ÷ Σ bytes of a stage, and its sample count.
    pub fn ns_per_byte(&self, stage: &str) -> (f64, u64) {
        match self.stages.get(stage) {
            Some(s) if s.total_bytes > 0 => {
                (s.total_ns as f64 / s.total_bytes as f64, s.ns.len() as u64)
            }
            _ => (0.0, 0),
        }
    }

    /// Self share of an op class, and the ops it rests on.
    pub fn self_share(&self, class: &str) -> (f64, u64) {
        match self.shares.get(class) {
            Some(samples) => (self_share(samples), samples.len() as u64),
            None => (0.0, 0),
        }
    }
}
