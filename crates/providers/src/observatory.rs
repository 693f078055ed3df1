//! The latency observatory: one view of "how fast is each provider" per
//! tick.
//!
//! Scalia gathers statistics over a sampling period and acts on them at the
//! period's boundary (§III-A). Provider latency follows the same rhythm. A
//! [`LatencyObservatory`] keeps, per provider, a windowed summary of
//! successful chunk reads and one of chunk writes
//! ([`DecayingHistogram`]s). Between two ticks the windows are only written
//! to. At a tick the caller [`rotate`](LatencyObservatory::rotate)s them (at
//! whatever cadence it chose) and [`publish`](LatencyObservatory::publish)es
//! a [`LatencyView`]: each provider's p95 over the last two windows, or
//! nothing below [`OBSERVED_MIN_SAMPLES`] samples or at 0 µs. Every reader —
//! read ranking, hedge deadlines, placement — sees that view until the next
//! tick, so what one operation observes never changes what a later
//! operation of the same tick does.
//!
//! # Forgiveness
//!
//! A provider whose evidence decays out is published as `None` — forgiven,
//! back to its advertised model — with one exception. A read that ranks a
//! provider out of its race ([`LatencyObservatory::record_passed_over`]) is
//! why that provider has no fresh samples, so the missing evidence says
//! nothing about it: while it is passed over it keeps its last published
//! read p95, until enough new samples (hedges that reach it) replace it.
//! Forgiving it instead would hand it a whole tick of reads before the next
//! view could convict it again. A provider no read asks for at all (nothing
//! of it is read any more) is forgiven once its windows decay out.
//!
//! The engine's `Infrastructure` and the simulator's accounting loop both
//! use this type; the engine publishes the read p95 into the
//! [`crate::catalog::ProviderCatalog`], which adds its own hysteresis.

use scalia_types::latency::DecayingHistogram;
use std::collections::BTreeMap;

/// Minimum observed samples (over the last two windows) before a provider's
/// summary is published: one unlucky round-trip must not re-rank a provider.
pub const OBSERVED_MIN_SAMPLES: u64 = 16;

/// The percentile published as a provider's observed latency: p95, the
/// classic hedging percentile — high enough that healthy jitter stays under
/// it, low enough that a limping provider's stragglers move it.
pub const OBSERVED_PERCENTILE: f64 = 95.0;

/// What one publish saw of one provider: its chunk-read and chunk-write
/// p95 (µs), each `None` below the sample floor or at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PublishedLatency {
    read_us: Option<u64>,
    write_us: Option<u64>,
}

/// The per-provider latencies one [`LatencyObservatory::publish`] produced.
/// Every provider the observatory has windows for has an entry, so a
/// provider whose evidence decayed out is published as `None` (forgiven).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyView<K> {
    providers: BTreeMap<K, PublishedLatency>,
}

impl<K> Default for LatencyView<K> {
    fn default() -> Self {
        LatencyView {
            providers: BTreeMap::new(),
        }
    }
}

impl<K: Ord> LatencyView<K> {
    /// The published read p95 of a provider, if any.
    pub fn read_us(&self, provider: &K) -> Option<u64> {
        self.providers.get(provider).and_then(|p| p.read_us)
    }

    /// The published write p95 of a provider, if any.
    pub fn write_us(&self, provider: &K) -> Option<u64> {
        self.providers.get(provider).and_then(|p| p.write_us)
    }

    /// Every observed provider with its published read p95, in key order.
    pub fn reads(&self) -> impl Iterator<Item = (&K, Option<u64>)> {
        self.providers.iter().map(|(k, p)| (k, p.read_us))
    }
}

#[derive(Debug, Clone, Default)]
struct Windows {
    read: DecayingHistogram,
    write: DecayingHistogram,
    /// Whether a read ranked the provider out of its race, in the current
    /// and in the previous window.
    passed_over: [bool; 2],
}

/// Per-provider read and write latency windows plus the view last
/// published from them. `K` identifies a provider (the engine keys by
/// provider id, the simulator by provider name).
#[derive(Debug, Clone)]
pub struct LatencyObservatory<K> {
    windows: BTreeMap<K, Windows>,
    published: LatencyView<K>,
}

impl<K> Default for LatencyObservatory<K> {
    fn default() -> Self {
        LatencyObservatory {
            windows: BTreeMap::new(),
            published: LatencyView::default(),
        }
    }
}

/// The published summary of one window: p95 once warm, never 0 — so a
/// zero-latency catalog publishes nothing at all.
fn summary(window: &DecayingHistogram) -> Option<u64> {
    if window.count() < OBSERVED_MIN_SAMPLES {
        return None;
    }
    Some(window.percentile_us(OBSERVED_PERCENTILE)).filter(|&p| p > 0)
}

impl<K: Ord + Clone> LatencyObservatory<K> {
    /// An observatory with no observations and an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successful chunk read of `us` microseconds.
    pub fn record_read(&mut self, provider: K, us: u64) {
        self.record_read_n(provider, us, 1);
    }

    /// Records `n` identical successful chunk reads.
    pub fn record_read_n(&mut self, provider: K, us: u64, n: u64) {
        self.windows
            .entry(provider)
            .or_default()
            .read
            .record_n(us, n);
    }

    /// Records that a read held a chunk on `provider` but ranked it behind
    /// the providers it raced: the provider keeps its published read p95
    /// (see "Forgiveness" in the module docs).
    pub fn record_passed_over(&mut self, provider: K) {
        self.windows.entry(provider).or_default().passed_over[0] = true;
    }

    /// Records one successful chunk write of `us` microseconds.
    pub fn record_write(&mut self, provider: K, us: u64) {
        self.windows.entry(provider).or_default().write.record(us);
    }

    /// Retires every provider's current windows (see
    /// [`DecayingHistogram::rotate`]): evidence older than two rotations is
    /// gone for good.
    pub fn rotate(&mut self) {
        for windows in self.windows.values_mut() {
            windows.read.rotate();
            windows.write.rotate();
            windows.passed_over = [false, windows.passed_over[0]];
        }
    }

    /// Summarises the windows into a new view, keeps it as
    /// [`Self::published`] and returns it. A read p95 below the sample floor
    /// is replaced by the last published one while the provider is passed
    /// over.
    pub fn publish(&mut self) -> &LatencyView<K> {
        let previous = std::mem::take(&mut self.published);
        self.published.providers = self
            .windows
            .iter()
            .map(|(provider, windows)| {
                let held = || {
                    let passed_over = windows.passed_over.contains(&true);
                    passed_over.then(|| previous.read_us(provider)).flatten()
                };
                let published = PublishedLatency {
                    read_us: summary(&windows.read).or_else(held),
                    write_us: summary(&windows.write),
                };
                (provider.clone(), published)
            })
            .collect();
        &self.published
    }

    /// The view of the last [`Self::publish`] (empty before the first).
    pub fn published(&self) -> &LatencyView<K> {
        &self.published
    }

    /// Successful chunk writes of a provider in its last two windows
    /// (diagnostics).
    pub fn write_samples(&self, provider: &K) -> u64 {
        self.windows.get(provider).map_or(0, |w| w.write.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_is_published_below_the_floor_or_at_zero() {
        let mut observatory = LatencyObservatory::new();
        for _ in 0..OBSERVED_MIN_SAMPLES - 1 {
            observatory.record_read("slow", 80_000);
        }
        for _ in 0..10 * OBSERVED_MIN_SAMPLES {
            observatory.record_read("instant", 0);
        }
        let view = observatory.publish();
        assert_eq!(view.read_us(&"slow"), None, "below the sample floor");
        assert_eq!(view.read_us(&"instant"), None, "0 µs is never published");
        let reads: Vec<_> = view.reads().collect();
        assert_eq!(reads, vec![(&"instant", None), (&"slow", None)]);
    }

    #[test]
    fn observations_take_effect_only_when_published() {
        let mut observatory = LatencyObservatory::new();
        for _ in 0..2 * OBSERVED_MIN_SAMPLES {
            observatory.record_read(1u32, 80_000);
            observatory.record_write(1u32, 40_000);
        }
        assert_eq!(observatory.published().read_us(&1), None, "not yet");
        assert_eq!(observatory.write_samples(&1), 2 * OBSERVED_MIN_SAMPLES);

        observatory.publish();
        let read = observatory.published().read_us(&1).unwrap();
        let write = observatory.published().write_us(&1).unwrap();
        assert!((80_000..=2 * 80_000).contains(&read), "read p95 {read}");
        assert!((40_000..=2 * 40_000).contains(&write), "write p95 {write}");

        // More evidence changes nothing until the next publish.
        for _ in 0..10 * OBSERVED_MIN_SAMPLES {
            observatory.record_read(1u32, 5_000_000);
        }
        assert_eq!(observatory.published().read_us(&1), Some(read));
        assert!(observatory.publish().read_us(&1).unwrap() > read);
    }

    #[test]
    fn two_rotations_forgive_a_provider() {
        let mut observatory = LatencyObservatory::new();
        for _ in 0..OBSERVED_MIN_SAMPLES {
            observatory.record_read(7u32, 90_000);
        }
        observatory.rotate();
        assert!(
            observatory.publish().read_us(&7).is_some(),
            "one window back"
        );
        observatory.rotate();
        assert_eq!(observatory.publish().read_us(&7), None, "decayed out");
        assert_eq!(observatory.published().reads().count(), 1, "still listed");
    }

    #[test]
    fn a_passed_over_provider_keeps_its_read_p95_until_new_samples_replace_it() {
        let mut observatory = LatencyObservatory::new();
        for _ in 0..OBSERVED_MIN_SAMPLES {
            observatory.record_read("slow", 300_000);
            observatory.record_read("idle", 300_000);
        }
        let convicted = observatory.publish().read_us(&"slow").unwrap();

        // Reads keep ranking "slow" out: its evidence decays, its p95 holds.
        for _ in 0..6 {
            observatory.rotate();
            observatory.record_passed_over("slow");
            assert_eq!(observatory.publish().read_us(&"slow"), Some(convicted));
        }
        // Nothing asks for "idle": it was forgiven two rotations in.
        assert_eq!(observatory.published().read_us(&"idle"), None);

        // A few hedges that reach it are too few to replace the p95 ...
        for _ in 0..OBSERVED_MIN_SAMPLES - 1 {
            observatory.record_read("slow", 30_000);
        }
        assert_eq!(observatory.publish().read_us(&"slow"), Some(convicted));
        // ... enough of them do ...
        observatory.record_read("slow", 30_000);
        let fresh = observatory.publish().read_us(&"slow").unwrap();
        assert!(fresh < convicted, "fresh p95 {fresh}");
        // ... and once no read passes it over, it decays out as usual.
        observatory.rotate();
        observatory.rotate();
        assert_eq!(observatory.publish().read_us(&"slow"), None);
    }
}
