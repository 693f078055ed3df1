//! Latency statistics: log-bucketed histograms and percentile snapshots.
//!
//! The chunk-I/O layer measures every provider round-trip in *virtual
//! microseconds* (driven by the simulated clock, so measurements are exactly
//! reproducible). A [`LatencyHistogram`] accumulates those samples in
//! power-of-two buckets — constant memory, O(1) record, mergeable — and
//! answers percentile queries with ≤ 2× bucket resolution (count, mean and
//! max are exact). A [`LatencySnapshot`] is the frozen summary (p50/p95/p99)
//! the simulator and the engine expose for tail-latency accounting.
//!
//! A [`DecayingHistogram`] is the *windowed* variant used for per-provider
//! observed-latency summaries: it sees only the samples of the last two
//! observation windows, so a provider that stops limping (or stops being
//! read at all) is forgiven after two window rotations instead of dragging
//! its bad history around forever.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of power-of-two buckets: bucket `b` holds samples in
/// `[2^(b-1), 2^b)` microseconds (bucket 0 holds the zero samples), which
/// covers everything up to ~2^62 µs — far beyond any simulated latency.
const BUCKETS: usize = 63;

/// A mergeable, constant-memory histogram of latency samples in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_us: u128,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

/// The bucket index of a sample: 0 for 0 µs, otherwise `max(⌈log2(us)⌉, 1)`
/// so the bucket's upper bound (`2^b`) over-approximates the sample — a
/// 1 µs sample lands in bucket 1 (upper bound 2 µs), never in the zero
/// bucket, keeping percentiles upper bounds.
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - (us - 1).leading_zeros()) as usize).clamp(1, BUCKETS - 1)
    }
}

/// The representative (upper-bound) value of a bucket.
fn bucket_value(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << bucket
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample, in microseconds.
    pub fn record(&mut self, us: u64) {
        self.record_n(us, 1);
    }

    /// Records `n` identical samples (used by the simulator, which knows how
    /// many identical requests a period served).
    ///
    /// All counters saturate instead of wrapping: a wrapped `count` would
    /// fall below the bucket mass and corrupt every percentile rank, while
    /// a saturated histogram merely stops distinguishing "astronomically
    /// many" from "even more" (and its mean becomes a lower bound).
    pub fn record_n(&mut self, us: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(us);
        self.buckets[b] = self.buckets[b].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.total_us = self.total_us.saturating_add(us as u128 * n as u128);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples, in microseconds (0 if empty).
    /// Clamped to the exact max: once `count` saturates while `total_us`
    /// keeps accumulating, the raw quotient could exceed the largest
    /// sample ever seen, which no true mean can.
    pub(crate) fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.total_us as f64 / self.count as f64).min(self.max_us as f64)
        }
    }

    /// Exact maximum recorded sample, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The `p`-th percentile (0 < p ≤ 100), as the upper bound of the bucket
    /// containing it — an over-approximation by at most 2×, and always a
    /// true upper bound of the exact percentile. Percentiles landing in the
    /// unbounded overflow bucket (samples ≥ 2^61 µs) report the exact max —
    /// the only valid upper bound there.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            // Saturating: several saturated buckets must not wrap `seen`
            // back below the rank and walk past the right bucket.
            seen = seen.saturating_add(n);
            if seen >= rank {
                if bucket == BUCKETS - 1 {
                    // The overflow bucket has no finite upper bound of its
                    // own; 2^62 could *under*-approximate its samples.
                    return self.max_us;
                }
                // Never report beyond the exact observed maximum.
                return bucket_value(bucket).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Folds another histogram into this one. Saturating, like
    /// [`record_n`](Self::record_n): two near-full histograms must merge
    /// into a full one, never wrap into a small one (wrapping `count`
    /// below the bucket mass would corrupt every percentile rank — and
    /// [`DecayingHistogram`] merges its two windows on *every* query).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Freezes the histogram into a percentile summary.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count,
            mean_us: self.mean_us(),
            p50_us: self.percentile_us(50.0),
            p95_us: self.percentile_us(95.0),
            p99_us: self.percentile_us(99.0),
            max_us: self.max_us,
        }
    }
}

/// A sliding-window latency summary: samples are recorded into a *current*
/// window; [`DecayingHistogram::rotate`] retires the current window into the
/// *previous* slot (evicting whatever was there). Queries always cover the
/// union of both windows, so the summary spans between one and two windows
/// of history and mass older than two rotations is gone for good — the
/// "decay" that lets a recovered provider earn its ranking back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecayingHistogram {
    current: LatencyHistogram,
    previous: LatencyHistogram,
}

impl DecayingHistogram {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample, in microseconds, into the current window.
    pub fn record(&mut self, us: u64) {
        self.current.record(us);
    }

    /// Records `n` identical samples into the current window.
    pub fn record_n(&mut self, us: u64, n: u64) {
        self.current.record_n(us, n);
    }

    /// Retires the current window: whatever was in the previous window is
    /// evicted permanently, the current window becomes the previous one, and
    /// recording starts into a fresh window. Rotating can therefore never
    /// increase any count — evicted mass does not come back.
    pub fn rotate(&mut self) {
        self.previous = std::mem::take(&mut self.current);
    }

    /// Number of samples in the last two windows. Saturating, like the
    /// underlying histograms: two saturated windows report `u64::MAX`,
    /// not a wrapped (small) total.
    pub fn count(&self) -> u64 {
        self.current.count().saturating_add(self.previous.count())
    }

    /// The `p`-th percentile over the last two windows (same ≤ 2× bucket
    /// resolution and exact-max clamp as [`LatencyHistogram::percentile_us`]).
    pub fn percentile_us(&self, p: f64) -> u64 {
        self.combined().percentile_us(p)
    }

    /// The union of both windows as a plain histogram.
    pub fn combined(&self) -> LatencyHistogram {
        let mut merged = self.current.clone();
        merged.merge(&self.previous);
        merged
    }
}

/// A frozen percentile summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Number of samples summarised.
    pub count: u64,
    /// Exact mean, in microseconds.
    pub mean_us: f64,
    /// Median (≤ 2× bucket resolution), in microseconds.
    pub p50_us: u64,
    /// 95th percentile (≤ 2× bucket resolution), in microseconds.
    pub p95_us: u64,
    /// 99th percentile (≤ 2× bucket resolution), in microseconds.
    pub p99_us: u64,
    /// Exact maximum, in microseconds.
    pub max_us: u64,
}

impl fmt::Display for LatencySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.0}µs p50={}µs p95={}µs p99={}µs max={}µs",
            self.count, self.mean_us, self.p50_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.percentile_us(99.0), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_us, 0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LatencyHistogram::new();
        for us in [100, 200, 300, 400] {
            h.record(us);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_us(), 250.0);
        assert_eq!(h.max_us(), 400);
    }

    #[test]
    fn percentiles_over_approximate_by_at_most_two() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(us);
        }
        let p50 = h.percentile_us(50.0);
        assert!((500..=1000).contains(&p50), "p50={p50}");
        let p99 = h.percentile_us(99.0);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        // The top percentile is clamped to the exact max.
        assert_eq!(h.percentile_us(100.0), 1000);
    }

    #[test]
    fn zero_samples_and_huge_samples_are_representable() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile_us(1.0), 0);
        assert_eq!(h.max_us(), u64::MAX / 2);
    }

    #[test]
    fn one_microsecond_samples_never_report_as_zero() {
        // A nonzero sample must never land in the zero bucket: percentiles
        // are upper bounds, and rounding 1 µs down to 0 would violate that.
        let mut h = LatencyHistogram::new();
        h.record_n(1, 100);
        assert_eq!(h.percentile_us(50.0), 1, "clamped to the exact max");
        assert_eq!(h.percentile_us(99.0), 1);
        h.record(3);
        assert!(h.percentile_us(50.0) >= 1);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..7 {
            a.record(123);
        }
        b.record_n(123, 7);
        b.record_n(55, 0); // no-op
        assert_eq!(a, b);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for us in [10, 20, 40] {
            a.record(us);
            whole.record(us);
        }
        for us in [80, 160] {
            b.record(us);
            whole.record(us);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn snapshot_display_is_readable() {
        let mut h = LatencyHistogram::new();
        h.record_n(1000, 100);
        let text = h.snapshot().to_string();
        assert!(text.contains("n=100"));
        assert!(text.contains("p99="));
    }

    #[test]
    fn decaying_histogram_forgets_after_two_rotations() {
        let mut d = DecayingHistogram::new();
        d.record_n(100_000, 50);
        assert_eq!(d.count(), 50);
        assert!(d.percentile_us(95.0) >= 100_000);

        // One rotation: the bad window is still visible (previous slot).
        d.rotate();
        assert_eq!(d.count(), 50);
        d.record_n(1_000, 50);
        assert_eq!(d.count(), 100);
        assert!(d.percentile_us(95.0) >= 100_000, "old tail still in view");

        // Second rotation evicts the bad window entirely.
        d.rotate();
        assert_eq!(d.count(), 50);
        assert!(d.percentile_us(99.0) <= 2_000, "recovered summary");

        // Two idle rotations drain the summary completely.
        d.rotate();
        d.rotate();
        assert_eq!(d.count(), 0);
        assert_eq!(d.percentile_us(95.0), 0);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        // Near-overflow recording: the counters must pin at u64::MAX (a
        // wrapped count would drop below the bucket mass and corrupt
        // every percentile rank; in debug builds the old `+=` panicked).
        let mut h = LatencyHistogram::new();
        h.record_n(100, u64::MAX);
        h.record_n(100, u64::MAX);
        h.record_n(7, 3);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.max_us(), 100);
        // Percentiles stay well-defined and clamped to the exact max.
        assert_eq!(h.percentile_us(99.0), 100);
        assert!(h.mean_us() <= 100.0);
    }

    #[test]
    fn merge_of_two_near_full_histograms_saturates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(50, u64::MAX - 1);
        b.record_n(4000, u64::MAX - 1);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "merge must saturate, not wrap");
        assert_eq!(a.max_us(), 4000);
        // With both buckets saturated the running rank scan crosses
        // several u64::MAX buckets; `seen` must not wrap either.
        assert!(a.percentile_us(99.0) <= 4000);
        assert!(a.percentile_us(1.0) >= 50);
    }

    #[test]
    fn decaying_windows_with_saturated_counts_stay_consistent() {
        // The decaying summary merges its two windows on every query: two
        // saturated windows must combine into a saturated union, and the
        // overflow bucket (samples ≥ 2^62 µs) must keep reporting the
        // exact max rather than a fabricated power of two.
        let mut d = DecayingHistogram::new();
        d.record_n(u64::MAX - 3, u64::MAX);
        d.rotate();
        d.record_n(u64::MAX - 5, u64::MAX);
        assert_eq!(d.count(), u64::MAX);
        assert_eq!(
            d.percentile_us(99.9),
            u64::MAX - 3,
            "overflow bucket → exact max"
        );
        assert_eq!(d.combined().max_us(), u64::MAX - 3);
        // Eviction still works after saturation.
        d.rotate();
        d.rotate();
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn bucket_boundaries_are_monotone() {
        // Recording strictly increasing samples must never decrease any
        // reported percentile.
        let mut h = LatencyHistogram::new();
        let mut last_p95 = 0;
        for us in [1u64, 2, 4, 9, 17, 300, 5000, 70_000] {
            h.record_n(us, 10);
            let p95 = h.percentile_us(95.0);
            assert!(p95 >= last_p95, "p95 regressed at {us}");
            last_p95 = p95;
        }
    }
}
