//! `scalia_benchmark`: four workloads, one command, end-to-end metrics that
//! decompose by layer. See `benchmark/README.md`.
//!
//! Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and ends its output with the result line the
//!   driver named in `BENCHMARK.json` reads;
//! * `run --seed <n> [--workload <name>] [--trace] [--smoke] [--seconds <s>]`
//!   runs each workload in its own child process, one after another (clean
//!   `VmHWM`, clean pool, clean allocator), then checks that the traced and
//!   untraced runs agree on everything deterministic;
//! * `compare <a> <b> [--same-commit]` judges one set of results against
//!   another.

mod compare;
mod ledger;
mod report;
mod rng;
mod stats;
mod sut;
mod trace;
mod workloads;

use report::read_tsv;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Args, DEFAULT_SECONDS, NAMES, SMOKE_SECONDS};

const USAGE: &str = "usage:
  scalia_benchmark --workload <name> --seed <u64> --seconds <1..60> --trace <0|1> [--out <dir>]
  scalia_benchmark run --seed <u64> [--workload <name>] [--trace] [--smoke] [--seconds <1..60>] [--out <dir>]
  scalia_benchmark compare <a> <b> [--same-commit]
workloads: small_cold large_stream tenant_traffic adaptive_week";

/// Command-line options after the subcommand; flags map to `"1"`.
struct Options {
    values: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut values = Vec::new();
        let mut positional = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--trace" | "--smoke" | "--same-commit" => {
                    // `--trace` takes 0|1 in driver form and nothing in `run`.
                    let value = match args.clone().next() {
                        Some(v) if arg == "--trace" && (v == "0" || v == "1") => {
                            args.next();
                            v.clone()
                        }
                        _ => "1".to_string(),
                    };
                    values.push((arg.clone(), value));
                }
                "--workload" | "--seed" | "--seconds" | "--out" => {
                    let value = args.next().ok_or(format!("{arg} needs a value"))?;
                    values.push((arg.clone(), value.clone()));
                }
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                _ => positional.push(arg.clone()),
            }
        }
        Ok(Options { values, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name) == Some("1")
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("{name} {v}: not a number")))
            .transpose()
    }

    fn out(&self) -> PathBuf {
        self.get("--out").map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            PathBuf::from,
        )
    }

    fn seconds(&self) -> Result<Option<u32>, String> {
        match self.number::<u32>("--seconds")? {
            Some(s) if !(1..=60).contains(&s) => Err(format!("--seconds {s}: out of 1..60")),
            seconds => Ok(seconds),
        }
    }

    fn workload(&self) -> Result<Option<&str>, String> {
        match self.get("--workload") {
            Some(name) if !NAMES.contains(&name) => Err(format!("unknown workload {name}")),
            name => Ok(name),
        }
    }
}

/// One workload, in this process.
fn drive(options: &Options) -> Result<ExitCode, String> {
    let args = Args {
        workload: options
            .workload()?
            .ok_or("--workload is required")?
            .to_string(),
        seed: options.number("--seed")?.ok_or("--seed is required")?,
        seconds: options.seconds()?.ok_or("--seconds is required")?,
        traced: options.flag("--trace"),
    };
    let out = options.out();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut finished = workloads::run(&args).ok_or("unknown workload")?;
    let report = &mut finished.report;
    let line = report.driver_line();
    report.print_human();
    let written = report.write_files(&out).and_then(|()| match args.traced {
        true => finished.tracer.write_jsonl(&report.trace_path(&out)),
        false => Ok(()),
    });
    written.map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{line}");
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The exact metrics on which a workload's traced and untraced runs differ.
fn nondeterministic(out: &Path, workload: &str) -> std::io::Result<Vec<String>> {
    let untraced = read_tsv(&out.join(format!("{workload}.tsv")))?;
    let traced = read_tsv(&out.join(format!("{workload}.trace.tsv")))?;
    Ok(untraced
        .iter()
        .filter(|row| row.exact)
        .filter(|row| {
            traced
                .iter()
                .find(|t| t.metric == row.metric)
                .is_some_and(|t| t.value != row.value)
        })
        .map(|row| row.metric.clone())
        .collect())
}

/// Gap between the two runs' wall throughput, as a share of the untraced.
fn trace_overhead_share(out: &Path, workload: &str) -> std::io::Result<Option<f64>> {
    let rate = |file: String| -> std::io::Result<Option<f64>> {
        Ok(read_tsv(&out.join(file))?
            .iter()
            .find(|r| r.metric == "ops_per_s")
            .and_then(|r| r.value.parse::<f64>().ok()))
    };
    let untraced = rate(format!("{workload}.tsv"))?;
    let traced = rate(format!("{workload}.trace.tsv"))?;
    Ok(untraced
        .zip(traced)
        .filter(|(u, _)| *u > 0.0)
        .map(|(u, t)| 1.0 - t / u))
}

/// Every selected workload in its own child process, one after another.
fn run_set(options: &Options) -> Result<ExitCode, String> {
    let seed: u64 = options.number("--seed")?.ok_or("--seed is required")?;
    let seconds = match options.seconds()? {
        Some(seconds) => seconds,
        None if options.flag("--smoke") => SMOKE_SECONDS,
        None => DEFAULT_SECONDS,
    };
    let selected: Vec<&str> = match options.workload()? {
        Some(name) => vec![name],
        None => NAMES.to_vec(),
    };
    let out = options.out();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let child = |workload: &str, trace: &str| -> Result<bool, String> {
        Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", trace])
            .arg("--out")
            .arg(&out)
            .status()
            .map(|status| status.success())
            .map_err(|e| format!("cannot start {workload}: {e}"))
    };
    let mut ok = true;
    for workload in selected {
        ok &= child(workload, "0")?;
        if !options.flag("--trace") {
            continue;
        }
        ok &= child(workload, "1")?;
        match nondeterministic(&out, workload) {
            Ok(differing) if differing.is_empty() => {
                println!("{workload}: deterministic metrics and counts bit-equal across both runs")
            }
            Ok(differing) => {
                println!("{workload}: nondeterministic: [{}]", differing.join(", "));
                ok = false;
            }
            Err(err) => return Err(format!("cannot read {workload}'s flat twins: {err}")),
        }
        if let Ok(Some(share)) = trace_overhead_share(&out, workload) {
            println!("{workload}\tbench.trace_overhead_share\t{share}\tshare");
            let twin = out.join(format!("{workload}.trace.tsv"));
            let line = format!("{workload}\tbench.trace_overhead_share\t{share}\tshare\t1\twall\n");
            let appended = std::fs::OpenOptions::new()
                .append(true)
                .open(&twin)
                .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
            appended.map_err(|e| format!("{}: {e}", twin.display()))?;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        _ => ("drive", &args[..]),
    };
    let outcome = Options::parse(rest).and_then(|options| match command {
        "run" => run_set(&options),
        "compare" => match &options.positional[..] {
            [a, b] => {
                let code =
                    compare::compare(Path::new(a), Path::new(b), options.flag("--same-commit"));
                Ok(ExitCode::from(code as u8))
            }
            _ => Err("compare takes two directories".to_string()),
        },
        _ => drive(&options),
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let o = options(&[
            "--workload",
            "small_cold",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(o.workload().unwrap(), Some("small_cold"));
        assert_eq!(o.number::<u64>("--seed").unwrap(), Some(u64::MAX));
        assert_eq!(o.seconds().unwrap(), Some(10));
        assert!(!o.flag("--trace"));
        assert!(options(&["--trace", "1"]).unwrap().flag("--trace"));
    }

    #[test]
    fn the_run_form_takes_bare_flags_and_bad_input_is_refused() {
        let o = options(&["--seed", "3", "--trace", "--smoke"]).unwrap();
        assert!(o.flag("--trace") && o.flag("--smoke"));
        assert!(options(&["--seed"]).is_err());
        assert!(options(&["--frobnicate"]).is_err());
        assert!(options(&["--seconds", "0"]).unwrap().seconds().is_err());
        assert!(options(&["--seconds", "x"]).unwrap().seconds().is_err());
        assert!(options(&["--workload", "nope"])
            .unwrap()
            .workload()
            .is_err());
        let o = options(&["a", "b", "--same-commit"]).unwrap();
        assert_eq!(o.positional, ["a", "b"]);
        assert!(o.flag("--same-commit"));
    }

    #[test]
    fn the_determinism_check_names_exact_metrics_that_differ() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-main-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(
            out.join("w.tsv"),
            "w\tops_per_s\t100\t1/s\t9\twall\nw\tvirt_p99_us\t5\tus\t9\texact\n\
             w\tproviders.chunk_puts\t7\tcount\t1\texact\n",
        )
        .unwrap();
        std::fs::write(
            out.join("w.trace.tsv"),
            "w\tops_per_s\t80\t1/s\t9\twall\nw\tvirt_p99_us\t5\tus\t9\texact\n\
             w\tproviders.chunk_puts\t8\tcount\t1\texact\n",
        )
        .unwrap();
        assert_eq!(
            nondeterministic(&out, "w").unwrap(),
            ["providers.chunk_puts"]
        );
        let share = trace_overhead_share(&out, "w").unwrap().unwrap();
        assert!((share - 0.2).abs() < 1e-12);
        std::fs::remove_dir_all(&out).unwrap();
    }
}
