//! Order statistics for op spans, and the sliced throughput that keeps one
//! noisy-neighbour stall from moving a wall-clock rate.

/// The percentiles a tail may be reported at, highest first, each with the
/// samples per ten thousand that lie beyond it.
const TAIL_LADDER: [(f64, usize); 5] = [
    (99.99, 1),
    (99.9, 10),
    (99.0, 100),
    (95.0, 500),
    (90.0, 1_000),
];

/// Number of equal op-count slices a timed phase is cut into.
pub const SLICES: usize = 5;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, or `None` when even p90 would rest on fewer.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, beyond)| samples * beyond >= 10 * 10_000)
        .map(|(p, _)| p)
}

/// Median and supported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: u64,
    /// `(percentile, value)` of the highest supported tail.
    pub tail: Option<(f64, u64)>,
}

pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(Summary {
        samples: samples.len(),
        p50: percentile(samples, 50.0),
        tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
    })
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Work and busy time of a timed phase, cut into [`SLICES`] slices of equal
/// op count. A rate is the median over slices of `work ÷ Σ op-span time`.
pub struct Sliced {
    total_ops: usize,
    busy_ns: [u64; SLICES],
    ops: [u64; SLICES],
    bytes: [u64; SLICES],
}

impl Sliced {
    /// `total_ops` is the op count of the whole timed phase, known up front
    /// because op streams are fixed by the seed.
    pub fn new(total_ops: usize) -> Self {
        Sliced {
            total_ops: total_ops.max(1),
            busy_ns: [0; SLICES],
            ops: [0; SLICES],
            bytes: [0; SLICES],
        }
    }

    /// Accounts op number `index` (0-based) of the phase.
    pub fn add(&mut self, index: usize, busy_ns: u64, bytes: u64) {
        let slice = (index * SLICES / self.total_ops).min(SLICES - 1);
        self.busy_ns[slice] += busy_ns;
        self.ops[slice] += 1;
        self.bytes[slice] += bytes;
    }

    /// Busy time that belongs to no single op (an event between ops).
    pub fn add_busy(&mut self, index: usize, busy_ns: u64) {
        let slice = (index * SLICES / self.total_ops).min(SLICES - 1);
        self.busy_ns[slice] += busy_ns;
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    fn rate(&self, work: &[u64; SLICES]) -> f64 {
        let mut rates: Vec<f64> = (0..SLICES)
            .filter(|&s| self.busy_ns[s] > 0)
            .map(|s| work[s] as f64 * 1e9 / self.busy_ns[s] as f64)
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        median_f64(&mut rates)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.rate(&self.ops)
    }

    pub fn bytes_per_s(&self) -> f64 {
        self.rate(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn summary_reports_count_median_and_supported_tail() {
        let mut samples: Vec<u64> = (1..=1_000).rev().collect();
        let summary = summarize(&mut samples).unwrap();
        assert_eq!(summary.samples, 1_000);
        assert_eq!(summary.p50, 500);
        assert_eq!(summary.tail, Some((99.0, 990)));
        assert_eq!(summarize(&mut []), None);
    }

    #[test]
    fn one_stalled_slice_does_not_move_the_sliced_rate() {
        let mut steady = Sliced::new(100);
        let mut stalled = Sliced::new(100);
        for i in 0..100 {
            steady.add(i, 1_000, 10);
            // Ops 40..60 (slice 2) take fifty times longer.
            stalled.add(i, if (40..60).contains(&i) { 50_000 } else { 1_000 }, 10);
        }
        assert_eq!(steady.ops_per_s(), 1e6);
        assert_eq!(stalled.ops_per_s(), 1e6);
        assert_eq!(stalled.bytes_per_s(), 1e7);
        assert!(stalled.busy_ns() > steady.busy_ns());
    }

    #[test]
    fn median_of_even_count_is_the_mean_of_the_middle_pair() {
        assert_eq!(median_f64(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
