//! # scalia-bench
//!
//! Experiment binaries and the kernel bench for the Scalia reproduction.
//!
//! Each `fig*` binary in `src/bin/` regenerates the data behind one table or
//! figure of the paper's evaluation, named by its figure number (`fig14_…`
//! is Fig. 14). The one bench, `benches/raw_speed.rs`, is a plain `main`
//! with its own timer: it times GF(256), Reed–Solomon parity, XXH64 and the
//! placement search, asserts its gates and writes `BENCH_raw_speed.json`.
//! End-to-end performance is measured by the benchmark package under
//! `benchmark/`.

/// Prints a section header used by all experiment binaries, so their output
/// is easy to scan and to diff between runs.
pub fn header(figure: &str, title: &str) {
    println!("==============================================================");
    println!("{figure} — {title}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    #[test]
    fn header_does_not_panic() {
        super::header("Fig. X", "smoke test");
    }
}
