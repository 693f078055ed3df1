//! Property tests for [`ClassUsage`] — the aggregate the class-centric
//! optimisation pipeline stands on:
//!
//! * `merge` is associative and commutative, so per-shard partials fold to
//!   the same aggregate for any shard interleaving or merge tree;
//! * building from records is insensitive to record order;
//! * a **singleton** class's mean-member history reproduces its member's
//!   per-period series record for record (including the zero-activity
//!   gap-fill) — the invariant behind the singleton differential tests that
//!   pin the class-grouped optimiser against the per-object oracle;
//! * mean-member statistics never exceed the period's summed statistics.

use proptest::prelude::*;
use scalia_core::classify::ClassUsage;
use scalia_types::size::ByteSize;
use scalia_types::stats::PeriodStats;

/// Decodes a flat random word into one `(period, stats, objects)` record —
/// the shim has no tuple strategies, so structure is derived in-test.
fn record_of(word: u64) -> (u64, PeriodStats, u64) {
    let period = word % 37;
    let reads = (word >> 8) % 500;
    let writes = (word >> 20) % 50;
    let storage_kb = (word >> 28) % 4096;
    let objects = 1 + (word >> 44) % 5;
    (
        period,
        PeriodStats {
            period,
            storage: ByteSize::from_kb(storage_kb),
            bw_in: ByteSize::from_kb(writes * 64),
            bw_out: ByteSize::from_kb(reads * 64),
            reads,
            writes,
        },
        objects,
    )
}

fn usage_of(words: &[u64]) -> ClassUsage {
    ClassUsage::from_records(words.iter().map(|&w| record_of(w)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c) and a ⊔ b == b ⊔ a, with the empty
    /// aggregate as the neutral element.
    #[test]
    fn class_usage_merge_is_associative_and_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..24),
        b in proptest::collection::vec(any::<u64>(), 0..24),
        c in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let (ua, ub, uc) = (usage_of(&a), usage_of(&b), usage_of(&c));
        let left = ua.clone().merge(ub.clone()).merge(uc.clone());
        let right = ua.clone().merge(ub.clone().merge(uc.clone()));
        prop_assert_eq!(&left, &right);
        let flipped = uc.merge(ub).merge(ua.clone());
        prop_assert_eq!(&left, &flipped);
        let with_neutral = ClassUsage::new().merge(left.clone()).merge(ClassUsage::new());
        prop_assert_eq!(&left, &with_neutral);
    }

    /// The aggregate is a pure function of the record multiset: any record
    /// order (here: reversed and interleaved split) builds the same value.
    #[test]
    fn class_usage_build_is_order_insensitive(
        words in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let forward = usage_of(&words);
        let mut reversed = words.clone();
        reversed.reverse();
        prop_assert_eq!(&forward, &usage_of(&reversed));
        // Split into odd/even partials and merge — the shard picture.
        let odd: Vec<u64> = words.iter().copied().skip(1).step_by(2).collect();
        let even: Vec<u64> = words.iter().copied().step_by(2).collect();
        prop_assert_eq!(&forward, &usage_of(&even).merge(usage_of(&odd)));
    }

    /// Singleton classes: with one member per period, the mean-member
    /// history is exactly the recorded series, gaps filled as real
    /// zero-activity periods with the storage carried forward.
    #[test]
    fn singleton_mean_history_reproduces_the_member_series(
        words in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        // One record per distinct period, all with objects == 1.
        let mut records: Vec<(u64, PeriodStats, u64)> = Vec::new();
        for &w in &words {
            let (period, stats, _) = record_of(w);
            if !records.iter().any(|(p, _, _)| *p == period) {
                records.push((period, stats, 1));
            }
        }
        records.sort_by_key(|(p, _, _)| *p);
        let usage = ClassUsage::from_records(records.iter().cloned());
        let history = usage.mean_member_history(512);
        // Every recorded period appears verbatim…
        for (period, stats, _) in &records {
            let got = history
                .records()
                .iter()
                .find(|r| r.period == *period)
                .expect("recorded period must be in the history");
            prop_assert_eq!(got, stats);
        }
        // …and every gap is a zero-activity observation carrying the
        // previous period's storage.
        let first = records.first().unwrap().0;
        let last = records.last().unwrap().0;
        prop_assert_eq!(history.len() as u64, last - first + 1);
        for r in history.records() {
            if !records.iter().any(|(p, _, _)| *p == r.period) {
                prop_assert_eq!(r.reads, 0);
                prop_assert_eq!(r.writes, 0);
                let prev = records
                    .iter()
                    .rev()
                    .find(|(p, _, _)| *p < r.period)
                    .expect("gap has a predecessor");
                prop_assert_eq!(r.storage, prev.1.storage);
            }
        }
    }

    /// The mean-member view never exceeds the summed period statistics.
    #[test]
    fn mean_member_is_bounded_by_the_sum(
        words in proptest::collection::vec(any::<u64>(), 1..48),
    ) {
        let usage = usage_of(&words);
        let history = usage.mean_member_history(512);
        for (period, sum, _) in usage.records() {
            let mean = history
                .records()
                .iter()
                .find(|r| r.period == *period)
                .expect("recorded period present");
            prop_assert!(mean.reads <= sum.reads);
            prop_assert!(mean.writes <= sum.writes);
            prop_assert!(mean.storage <= sum.storage);
        }
    }
}
