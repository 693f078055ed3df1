//! What a run reports, and the files it leaves in `benchmark/out/`.
//!
//! A run prints every metric by name with its unit and sample count, writes
//! `<workload>.json` and a flat twin `<workload>.tsv`
//! (`workload ⇥ metric ⇥ value ⇥ unit ⇥ samples ⇥ exact|wall`), and ends its
//! standard output with the one-line JSON object the driver reads. A traced
//! run writes `<workload>.trace.{json,tsv,jsonl}` instead. `compare` and the
//! determinism check read the flat twins — the `serde_json` shim has no
//! parser and this benchmark does not grow one.

use crate::stats::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics every workload reports; `BENCHMARK.json` lists exactly
/// these under `end_to_end` and the driver's JSON line carries them.
pub const CONTRACT_END_TO_END: [&str; 8] = [
    "setup_s",
    "ops_per_s",
    "put_p50_us",
    "get_p50_us",
    "range_p50_us",
    "loop_wall_s",
    "stored_bytes_per_user_byte",
    "peak_rss_mib",
];

/// Per-layer metrics every workload's traced run reports; `BENCHMARK.json`
/// lists exactly these under `per_layer`.
pub const CONTRACT_PER_LAYER: [&str; 44] = [
    "types.md5.ns_per_byte",
    "erasure.encode.ns_per_byte",
    "erasure.decode.ns_per_byte",
    "erasure.decode_parity.ns_per_byte",
    "erasure.decode_range.us",
    "providers.chunk_puts",
    "providers.chunk_gets",
    "providers.chunk_deletes",
    "providers.stored_bytes",
    "providers.billed_usd",
    "providers.chunk_gets_per_cold_read",
    "providers.timed_put.us",
    "providers.timed_get.us",
    "metastore.transaction.us",
    "metastore.get_latest.ns",
    "metastore.journal_records",
    "metastore.rows",
    "metastore.pending_hints",
    "serde_json.meta_to_value.us",
    "serde_json.meta_from_value.us",
    "core.placement.search.us",
    "engine.put.p50_us",
    "engine.get_cold.p50_us",
    "engine.range_cold.p50_us",
    "engine.put.self_share",
    "engine.get_cold.self_share",
    "engine.peak_buffer_bytes",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.get.ns_per_kib",
    "engine.placement_cache.hits",
    "engine.placement_cache.misses",
    "engine.optimizer.searches",
    "engine.optimizer.migrations",
    "engine.optimizer.bytes_migrated",
    "engine.optimizer.deferred",
    "engine.repair.repaired",
    "engine.gc.orphans",
    "engine.pending_deletes",
    "frontend.rejected_queue",
    "frontend.rejected_deadline",
    "frontend.sla_violations",
    "frontend.peak_queued",
    "rayon.pool_workers",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, cycles, replays); 1 for a counter.
    pub samples: u64,
    /// Deterministic for a seed: must be bit-equal run to run.
    pub exact: bool,
    /// `(percentile, value)` of the highest tail the sample supports.
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// A wall-clock measurement.
    pub fn wall(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            exact: false,
            tail: None,
        }
    }

    /// A value that is a pure function of the seed.
    pub fn exact(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            exact: true,
            ..Metric::wall(name, value, unit, samples)
        }
    }

    /// Median of a latency sample in `unit` (`ns_per_unit` ns each), with its
    /// supported tail. `None` when the sample is empty.
    pub fn latency(
        name: &str,
        summary: Option<Summary>,
        unit: &'static str,
        ns_per_unit: f64,
    ) -> Option<Metric> {
        let summary = summary?;
        Some(Metric {
            tail: summary.tail.map(|(p, v)| (p, v as f64 / ns_per_unit)),
            ..Metric::wall(
                name,
                summary.p50 as f64 / ns_per_unit,
                unit,
                summary.samples as u64,
            )
        })
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    /// Unexpected errors and wrong bytes. Ops the front end's admission
    /// control refused are counted in `failed_op_share`, not here.
    pub failed: u64,
    /// Every correctness check that did not hold; empty means correct.
    pub problems: Vec<String>,
}

/// A float with all its digits, as JSON accepts it.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn all(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.all().find(|m| m.name == name)
    }

    /// Every metric by name with its unit and sample count.
    pub fn print_human(&self) {
        println!(
            "== {} seed={} seconds={} {} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        for (title, metrics) in [
            ("end to end", &self.end_to_end),
            ("per layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("-- {title} --");
            for m in metrics {
                let tail = match m.tail {
                    Some((p, v)) => format!("  p{p}={v:.3}"),
                    None => String::new(),
                };
                println!(
                    "{:<38} {:>16.4} {:<8} n={}{}{}",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples,
                    tail,
                    if m.exact { "  exact" } else { "" }
                );
            }
        }
        println!(
            "attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for problem in &self.problems {
            println!("CHECK FAILED: {problem}");
        }
    }

    fn stem(&self) -> String {
        if self.traced {
            format!("{}.trace", self.workload)
        } else {
            self.workload.to_string()
        }
    }

    pub fn trace_path(&self, out: &Path) -> PathBuf {
        out.join(format!("{}.trace.jsonl", self.workload))
    }

    /// Writes `<stem>.json` and the flat twin `<stem>.tsv`.
    pub fn write_files(&self, out: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out)?;
        let mut tsv = String::new();
        let mut json = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \
             \"attempted\": {},\n  \"failed\": {},\n  \"correct\": {},\n  \"metrics\": [\n",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.attempted,
            self.failed,
            self.correct()
        );
        let count = self.all().count();
        for (i, m) in self.all().enumerate() {
            let kind = if m.exact { "exact" } else { "wall" };
            writeln!(
                tsv,
                "{}\t{}\t{}\t{}\t{}\t{}",
                self.workload,
                m.name,
                number(m.value),
                m.unit,
                m.samples,
                kind
            )
            .expect("write to a String");
            let tail = match m.tail {
                Some((p, v)) => format!(", \"tail\": {{\"p\": {}, \"value\": {}}}", p, number(v)),
                None => String::new(),
            };
            writeln!(
                json,
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}, \
                 \"kind\": \"{}\"{}}}{}",
                m.name,
                number(m.value),
                m.unit,
                m.samples,
                kind,
                tail,
                if i + 1 == count { "" } else { "," }
            )
            .expect("write to a String");
        }
        json.push_str("  ]\n}\n");
        std::fs::write(out.join(format!("{}.json", self.stem())), json)?;
        std::fs::write(out.join(format!("{}.tsv", self.stem())), tsv)
    }

    /// The driver's result line: the contract's end-to-end metrics from an
    /// untraced run, its per-layer metrics from a traced one. A contract
    /// metric the workload did not produce is a bug and is reported as one.
    pub fn driver_line(&mut self) -> String {
        let names: &[&str] = if self.traced {
            &CONTRACT_PER_LAYER
        } else {
            &CONTRACT_END_TO_END
        };
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            match self.find(name) {
                Some(m) => fields.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    name,
                    number(m.value),
                    m.unit
                )),
                None => self
                    .problems
                    .push(format!("contract metric {name} was not reported")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// One line of a flat twin.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// The value exactly as written, so bit-equality is string equality.
    pub value: String,
    pub unit: String,
    pub exact: bool,
}

pub fn parse_tsv(text: &str) -> Vec<Row> {
    text.lines()
        .filter_map(|line| {
            let mut cols = line.split('\t');
            let row = Row {
                workload: cols.next()?.to_string(),
                metric: cols.next()?.to_string(),
                value: cols.next()?.to_string(),
                unit: cols.next()?.to_string(),
                exact: cols.nth(1) == Some("exact"),
            };
            Some(row)
        })
        .collect()
}

pub fn read_tsv(path: &Path) -> std::io::Result<Vec<Row>> {
    std::fs::read_to_string(path).map(|text| parse_tsv(&text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(traced: bool) -> Report {
        Report {
            workload: "small_cold",
            seed: 1,
            seconds: 1,
            traced,
            end_to_end: CONTRACT_END_TO_END
                .iter()
                .map(|n| Metric::wall(n, 1.25, "us", 10))
                .collect(),
            per_layer: vec![Metric::exact("providers.chunk_puts", 12.0, "count", 1)],
            attempted: 10,
            failed: 0,
            problems: vec![],
        }
    }

    #[test]
    fn driver_line_carries_exactly_the_contract_metrics() {
        let mut untraced = report(false);
        let line = untraced.driver_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for name in CONTRACT_END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.25")));
        }
        assert!(!line.contains("providers.chunk_puts"));

        // A traced report that lacks contract metrics says so and is wrong.
        let mut traced = report(true);
        let line = traced.driver_line();
        assert!(line.contains("\"providers.chunk_puts\": {\"value\": 12, \"unit\": \"count\"}"));
        assert!(!traced.correct());
        assert!(traced.problems.iter().any(|p| p.contains("types.md5")));
    }

    #[test]
    fn contract_lists_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for name in CONTRACT_END_TO_END.iter().chain(&CONTRACT_PER_LAYER) {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
        }
        let listed = manifest.matches("\"better\":").count();
        assert_eq!(listed, CONTRACT_END_TO_END.len() + CONTRACT_PER_LAYER.len());
    }

    #[test]
    fn flat_twin_round_trips_values_bit_for_bit() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-report-{}", std::process::id()));
        let mut r = report(false);
        r.end_to_end[0].value = 0.1 + 0.2;
        r.write_files(&dir).unwrap();
        let rows = read_tsv(&dir.join("small_cold.tsv")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(rows.len(), CONTRACT_END_TO_END.len() + 1);
        assert_eq!(rows[0].metric, "setup_s");
        assert_eq!(rows[0].value.parse::<f64>().unwrap(), 0.1 + 0.2);
        assert!(!rows[0].exact);
        let counter = rows.last().unwrap();
        assert_eq!(
            (
                counter.metric.as_str(),
                counter.value.as_str(),
                counter.exact
            ),
            ("providers.chunk_puts", "12", true)
        );
    }

    #[test]
    fn non_finite_values_do_not_break_the_json() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(1.5), "1.5");
    }
}
