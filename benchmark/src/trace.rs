//! Spans recorded by the benchmark around its calls into the program.
//!
//! A root span is one client op (or one hourly cycle). Its children are the
//! separate public calls the driver made for it, plus — on sampled ops — the
//! op's stages replayed through each layer's public entry point against a
//! shadow cluster, flagged `replayed`. Spans stay in memory and are written
//! once, when the run ends. An untraced run keeps the same timings but no
//! spans.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Sequence number of the client op (or cycle) the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
    pub replayed: bool,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Runs `f` and returns its result, start instant and duration in ns.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, u64) {
    let start = Instant::now();
    let value = f();
    let ns = start.elapsed().as_nanos() as u64;
    (value, start, ns)
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id (0 when tracing is off).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        ns: u64,
        bytes: u64,
        replayed: bool,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            layer,
            start_ns,
            end_ns: start_ns + ns,
            bytes,
            replayed,
        });
        id
    }

    /// A root span: one client op or one cycle.
    pub fn root(
        &mut self,
        op: u64,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        ns: u64,
        bytes: u64,
    ) -> u64 {
        self.span(0, op, name, layer, start, ns, bytes, false)
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"replayed\":{}}}",
                s.id, s.parent, s.op, s.name, s.layer, s.start_ns, s.end_ns, s.bytes, s.replayed
            )?;
        }
        out.flush()
    }
}

/// Self time of a span: its duration minus what its children cover. Replayed
/// children run serially where the program may overlap them, so their sum
/// can exceed the root; the residual then bottoms out at zero.
pub fn self_time_ns(root_ns: u64, children_ns: &[u64]) -> u64 {
    root_ns.saturating_sub(children_ns.iter().sum())
}

/// Σ self ÷ Σ root over `(root, children)` pairs; 0 with no samples.
pub fn self_share(samples: &[(u64, u64)]) -> f64 {
    let root: u64 = samples.iter().map(|&(root, _)| root).sum();
    if root == 0 {
        return 0.0;
    }
    let own: u64 = samples
        .iter()
        .map(|&(root, children)| self_time_ns(root, &[children]))
        .sum();
    own as f64 / root as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_root_minus_children_and_never_negative() {
        assert_eq!(self_time_ns(1_000, &[200, 300]), 500);
        assert_eq!(self_time_ns(1_000, &[]), 1_000);
        assert_eq!(self_time_ns(1_000, &[700, 700]), 0);
    }

    #[test]
    fn self_share_weighs_ops_by_their_duration() {
        assert_eq!(self_share(&[]), 0.0);
        assert_eq!(self_share(&[(1_000, 250)]), 0.75);
        // 750 of 1000 own, 0 of 1000 own (children overlap) → 750 / 2000.
        assert_eq!(self_share(&[(1_000, 250), (1_000, 5_000)]), 0.375);
    }

    #[test]
    fn a_disabled_tracer_keeps_no_spans_and_an_enabled_one_links_children() {
        let (_, start, ns) = timed(|| std::hint::black_box(1 + 1));
        let mut off = Tracer::new(false);
        assert_eq!(off.root(1, "get", "engine", start, ns, 0), 0);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true);
        let root = on.root(1, "put", "engine", start, ns, 4096);
        let child = on.span(root, 1, "md5_hex", "types", start, ns, 4096, true);
        assert_eq!((root, child), (1, 2));
        assert_eq!(on.spans[1].parent, root);
        assert!(on.spans[1].replayed && !on.spans[0].replayed);
        assert!(on.spans[0].end_ns >= on.spans[0].start_ns);
    }
}
