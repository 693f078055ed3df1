//! Per-sampling-period access statistics and access histories.
//!
//! For a sampling period `s_i`, the paper collects for each object its used
//! storage `s_i[storage]`, incoming bandwidth `s_i[bwdin]`, outgoing
//! bandwidth `s_i[bwdout]` and number of operations `s_i[ops]`. The access
//! history `H(obj)` is the list of these records, newest first; the decision
//! period `D_obj ⊂ H_obj` is the prefix used to extrapolate future usage.

use crate::size::ByteSize;
use crate::time::SimTime;
use crate::usage::ResourceUsage;

/// Access statistics for one object during one sampling period.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeriodStats {
    /// Index of the sampling period (monotonically increasing).
    pub period: u64,
    /// Storage held by the object during the period (the object's size).
    pub storage: ByteSize,
    /// Bytes written to the object during the period.
    pub bw_in: ByteSize,
    /// Bytes read from the object during the period.
    pub bw_out: ByteSize,
    /// Number of read operations during the period.
    pub reads: u64,
    /// Number of write operations during the period.
    pub writes: u64,
}

impl PeriodStats {
    /// Creates an empty record for a period.
    pub fn empty(period: u64) -> Self {
        PeriodStats {
            period,
            ..PeriodStats::default()
        }
    }

    /// Total number of operations (reads + writes), the paper's `s_i[ops]`.
    pub(crate) fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Converts the record into a resource-usage vector over a sampling
    /// period of `period_hours` hours.
    pub(crate) fn to_usage(self, period_hours: f64) -> ResourceUsage {
        ResourceUsage {
            storage_gb_hours: self.storage.as_gb() * period_hours,
            bw_in: self.bw_in,
            bw_out: self.bw_out,
            ops: self.ops(),
        }
    }
}

/// The access history `H(obj)` of an object: per-period statistics, newest
/// last, bounded to a maximum length.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessHistory {
    records: Vec<PeriodStats>,
    max_len: usize,
    /// Time the object was created.
    pub created_at: SimTime,
}

/// Default maximum number of sampling periods kept per object
/// (~3 months of hourly samples).
pub const DEFAULT_HISTORY_LEN: usize = 24 * 92;

impl Default for AccessHistory {
    fn default() -> Self {
        Self::new(DEFAULT_HISTORY_LEN)
    }
}

impl AccessHistory {
    /// Creates an empty history bounded to `max_len` sampling periods.
    pub fn new(max_len: usize) -> Self {
        AccessHistory {
            records: Vec::new(),
            max_len: max_len.max(1),
            created_at: SimTime::ZERO,
        }
    }

    /// Number of recorded sampling periods.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no period has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends the statistics of a completed sampling period, evicting the
    /// oldest record if the history is full.
    pub fn push(&mut self, stats: PeriodStats) {
        if self.records.len() == self.max_len {
            self.records.remove(0);
        }
        self.records.push(stats);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[PeriodStats] {
        &self.records
    }

    /// The `n` most recent records, oldest first.
    pub fn last_n(&self, n: usize) -> &[PeriodStats] {
        let start = self.records.len().saturating_sub(n);
        &self.records[start..]
    }

    /// The most recent record, if any.
    pub fn latest(&self) -> Option<&PeriodStats> {
        self.records.last()
    }

    /// Aggregated usage over the `n` most recent sampling periods, each of
    /// `period_hours` hours.
    pub(crate) fn usage_over_last(&self, n: usize, period_hours: f64) -> ResourceUsage {
        self.last_n(n)
            .iter()
            .map(|r| r.to_usage(period_hours))
            .sum()
    }

    /// Average per-period usage over the `n` most recent periods. Returns
    /// the zero vector if the history is empty.
    pub fn mean_usage_over_last(&self, n: usize, period_hours: f64) -> ResourceUsage {
        let window = self.last_n(n);
        if window.is_empty() {
            return ResourceUsage::ZERO;
        }
        self.usage_over_last(n, period_hours)
            .scale(1.0 / window.len() as f64)
    }

    /// The per-period operation counts of the `n` most recent periods,
    /// oldest first — the series the trend detector works on.
    pub fn ops_series(&self, n: usize) -> Vec<u64> {
        self.last_n(n).iter().map(|r| r.ops()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(period: u64, reads: u64) -> PeriodStats {
        PeriodStats {
            period,
            storage: ByteSize::from_mb(1),
            bw_in: ByteSize::ZERO,
            bw_out: ByteSize::from_kb(100 * reads),
            reads,
            writes: 0,
        }
    }

    #[test]
    fn to_usage_accounts_storage_time() {
        let s = stats(0, 3);
        let u = s.to_usage(1.0);
        assert!((u.storage_gb_hours - 0.001).abs() < 1e-9);
        assert_eq!(u.ops, 3);
        assert_eq!(u.bw_out, ByteSize::from_kb(300));
    }

    #[test]
    fn history_bounded_eviction() {
        let mut h = AccessHistory::new(3);
        for i in 0..5 {
            h.push(stats(i, i));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.records()[0].period, 2);
        assert_eq!(h.latest().unwrap().period, 4);
    }

    #[test]
    fn last_n_and_aggregation() {
        let mut h = AccessHistory::default();
        for i in 0..10 {
            h.push(stats(i, 2));
        }
        assert_eq!(h.last_n(3).len(), 3);
        assert_eq!(h.last_n(100).len(), 10);
        let u = h.usage_over_last(5, 1.0);
        assert_eq!(u.ops, 10);
        let mean = h.mean_usage_over_last(5, 1.0);
        assert_eq!(mean.ops, 2);
        assert_eq!(h.ops_series(4), vec![2, 2, 2, 2]);
    }

    #[test]
    fn empty_history_means_zero_usage() {
        let h = AccessHistory::default();
        assert!(h.is_empty());
        assert_eq!(h.mean_usage_over_last(5, 1.0), ResourceUsage::ZERO);
        assert!(h.latest().is_none());
    }
}
