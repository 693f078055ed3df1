//! Object classification and class-level usage aggregation.
//!
//! Scalia groups objects into classes by metadata: `C(obj) = MD5(mime |
//! discretize(size))`, where `discretize` rounds the size up to the closest
//! megabyte (§III-A1). Per-class statistics then drive the first placement
//! of new objects, the lifetime / time-left-to-live estimation and — via
//! [`ClassUsage`] — the class-centric optimisation pipeline: statistics,
//! trend detection and re-placement are amortised across all members of a
//! class (§III-A2), so an optimisation cycle over `N` accessed objects in
//! `K` classes runs `K` placement searches, not `N`.

use scalia_types::md5::md5_hex;
use scalia_types::size::ByteSize;
use scalia_types::stats::{AccessHistory, PeriodStats};
use std::fmt;

/// The class of an object, identified by a stable hash of its metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectClass(String);

impl ObjectClass {
    /// Classifies an object from its MIME type and size:
    /// `C(obj) = MD5(mime | discretize(size))`.
    pub fn of(mime: &str, size: ByteSize) -> Self {
        let discretized = size.discretize_mb();
        ObjectClass(md5_hex(format!("{mime}|{discretized}").as_bytes()))
    }

    /// The class identifier (hex string), used as a statistics row key.
    pub fn id(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class:{}", &self.0[..8.min(self.0.len())])
    }
}

/// Aggregated per-period usage of one object class: for each recorded
/// sampling period, the summed statistics of every contributing member and
/// the member count. Built from the metastore's incrementally-maintained
/// class rollups (or merged from per-shard partials — [`ClassUsage::merge`]
/// is associative and commutative, so any merge tree yields the same
/// aggregate).
///
/// The *mean member* views ([`ClassUsage::mean_member_history`]) divide
/// each period by its member count, which makes a singleton class's usage
/// identical — record for record — to the per-object access history, the
/// invariant the class-grouped optimiser's differential tests pin.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassUsage {
    /// `(period, summed member stats, member count)`, oldest first, at most
    /// one entry per period.
    periods: Vec<(u64, PeriodStats, u64)>,
}

impl ClassUsage {
    /// An empty aggregate.
    pub fn new() -> Self {
        ClassUsage::default()
    }

    /// Builds the aggregate from `(period, summed stats, member count)`
    /// records in any order.
    pub fn from_records(records: impl IntoIterator<Item = (u64, PeriodStats, u64)>) -> Self {
        let mut usage = ClassUsage::new();
        for (period, stats, objects) in records {
            usage.add_period(period, stats, objects);
        }
        usage
    }

    /// Folds one period contribution into the aggregate (summing with any
    /// existing entry for the period).
    pub(crate) fn add_period(&mut self, period: u64, stats: PeriodStats, objects: u64) {
        match self.periods.binary_search_by_key(&period, |&(p, _, _)| p) {
            Ok(pos) => {
                let (_, existing, count) = &mut self.periods[pos];
                existing.storage += stats.storage;
                existing.bw_in += stats.bw_in;
                existing.bw_out += stats.bw_out;
                existing.reads += stats.reads;
                existing.writes += stats.writes;
                *count += objects;
            }
            Err(pos) => {
                let mut stats = stats;
                stats.period = period;
                self.periods.insert(pos, (period, stats, objects));
            }
        }
    }

    /// Merges another aggregate into this one. Period-wise addition is
    /// associative and commutative, so per-shard partials can be merged in
    /// any order or association and produce the same result.
    pub fn merge(mut self, other: ClassUsage) -> ClassUsage {
        for (period, stats, objects) in other.periods {
            self.add_period(period, stats, objects);
        }
        self
    }

    /// The raw `(period, summed stats, member count)` records, oldest first.
    pub fn records(&self) -> &[(u64, PeriodStats, u64)] {
        &self.periods
    }

    /// The mean per-member access history of the class, bounded to the
    /// `max_periods` most recent periods: every recorded period's summed
    /// statistics divided by its member count, with unrecorded periods in
    /// between filled as real zero-activity observations (storage and
    /// member count carried forward) — the exact gap-fill rule of the
    /// per-object history, so a singleton class reproduces its member's
    /// history bit for bit.
    pub fn mean_member_history(&self, max_periods: usize) -> AccessHistory {
        let mut history = AccessHistory::new(max_periods.max(1));
        let mut previous: Option<(PeriodStats, u64)> = None;
        for &(period, stats, objects) in &self.periods {
            if let Some((prev_stats, prev_objects)) = previous {
                let mut missing = prev_stats.period + 1;
                while missing < period {
                    history.push(mean_of(
                        &PeriodStats {
                            period: missing,
                            storage: prev_stats.storage,
                            ..PeriodStats::empty(missing)
                        },
                        prev_objects,
                    ));
                    missing += 1;
                }
            }
            history.push(mean_of(&stats, objects));
            previous = Some((stats, objects));
        }
        history
    }
}

/// Divides one period's summed member statistics by the member count
/// (rounding to the nearest integer; exact for singleton classes).
fn mean_of(stats: &PeriodStats, objects: u64) -> PeriodStats {
    let n = objects.max(1) as f64;
    let div = |v: u64| (v as f64 / n).round() as u64;
    PeriodStats {
        period: stats.period,
        storage: ByteSize::from_bytes(div(stats.storage.bytes())),
        bw_in: ByteSize::from_bytes(div(stats.bw_in.bytes())),
        bw_out: ByteSize::from_bytes(div(stats.bw_out.bytes())),
        reads: div(stats.reads),
        writes: div(stats.writes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_mime_and_size_class_share_a_class() {
        // A 250 KB and a 700 KB image both round up to 1 MB.
        let a = ObjectClass::of("image/gif", ByteSize::from_kb(250));
        let b = ObjectClass::of("image/gif", ByteSize::from_kb(700));
        assert_eq!(a, b);
    }

    #[test]
    fn different_mime_types_get_different_classes() {
        let img = ObjectClass::of("image/gif", ByteSize::from_kb(250));
        let tar = ObjectClass::of("application/x-tar", ByteSize::from_kb(250));
        assert_ne!(img, tar);
    }

    #[test]
    fn different_size_buckets_get_different_classes() {
        // 1 MB vs 40 MB backups are different classes (a large archive is
        // "most probably a backup", a small image "will have plenty of
        // reads" — the paper's §III-A2 intuition requires separating them).
        let small = ObjectClass::of("application/x-tar", ByteSize::from_mb(1));
        let large = ObjectClass::of("application/x-tar", ByteSize::from_mb(40));
        assert_ne!(small, large);
    }

    #[test]
    fn id_is_stable_md5() {
        let c = ObjectClass::of("image/gif", ByteSize::from_kb(250));
        assert_eq!(c.id(), md5_hex(b"image/gif|1"));
        assert_eq!(c.id().len(), 32);
        assert!(c.to_string().starts_with("class:"));
    }

    fn period(period: u64, reads: u64, storage_kb: u64) -> PeriodStats {
        PeriodStats {
            period,
            storage: ByteSize::from_kb(storage_kb),
            bw_in: ByteSize::ZERO,
            bw_out: ByteSize::from_kb(reads * 10),
            reads,
            writes: 0,
        }
    }

    #[test]
    fn class_usage_sums_members_and_means_divide() {
        let mut usage = ClassUsage::new();
        usage.add_period(0, period(0, 4, 100), 1);
        usage.add_period(0, period(0, 8, 300), 1);
        usage.add_period(2, period(2, 6, 200), 2);
        assert_eq!(usage.periods.len(), 2);
        assert_eq!(usage.records()[0].1.reads, 12);
        assert_eq!(usage.records()[0].2, 2);
        let mean = usage.mean_member_history(100);
        // Period 0: mean of 2 members; period 1 gap-filled with carried
        // storage and zero activity; period 2 mean of 2 members.
        assert_eq!(mean.len(), 3);
        assert_eq!(mean.records()[0].reads, 6);
        assert_eq!(mean.records()[0].storage, ByteSize::from_kb(200));
        assert_eq!(mean.records()[1].reads, 0);
        assert_eq!(mean.records()[1].storage, ByteSize::from_kb(200));
        assert_eq!(mean.records()[2].reads, 3);
    }

    #[test]
    fn class_usage_merge_is_associative_and_commutative() {
        let a = ClassUsage::from_records([(0, period(0, 3, 100), 1)]);
        let b = ClassUsage::from_records([(0, period(0, 5, 100), 1), (1, period(1, 2, 100), 1)]);
        let c = ClassUsage::from_records([(2, period(2, 9, 100), 3)]);
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.clone().merge(b.clone().merge(c.clone()));
        let flipped = c.merge(b).merge(a);
        assert_eq!(left, right);
        assert_eq!(left, flipped);
        assert_eq!(left.records()[0].1.reads, 8);
    }

    #[test]
    fn singleton_class_usage_reproduces_the_member_history() {
        // One member: the mean history must equal the per-object history
        // record for record, including the gap-fill (the invariant the
        // class-grouped optimiser's differential tests rely on).
        let records = [(3, period(3, 7, 500), 1), (6, period(6, 2, 500), 1)];
        let usage = ClassUsage::from_records(records);
        let mean = usage.mean_member_history(100);
        assert_eq!(mean.len(), 4); // periods 3, 4, 5, 6
        assert_eq!(mean.records()[0], period(3, 7, 500));
        assert_eq!(
            mean.records()[1],
            PeriodStats {
                period: 4,
                storage: ByteSize::from_kb(500),
                ..PeriodStats::empty(4)
            }
        );
        assert_eq!(mean.records()[3], period(6, 2, 500));
    }
}
