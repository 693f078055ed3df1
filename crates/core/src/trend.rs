//! Trend-change detection.
//!
//! The periodic optimiser must not recompute the placement of every object:
//! only objects whose access pattern *changed* are worth re-optimising
//! (§III-A3). Scalia detects changes with a momentum indicator: the relative
//! change of the simple moving average (window `w`, default 3 sampling
//! periods) of the per-period operation count. A change larger than a
//! threshold `limit` (default 10 %) triggers re-placement.

/// A simple-moving-average momentum trend detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendDetector {
    /// Moving-average window, in sampling periods (the paper uses `w = 3`).
    pub window: usize,
    /// Relative momentum threshold above which a trend change is reported
    /// (the paper found 10 % — `0.1` — to perform adequately).
    pub limit: f64,
}

impl Default for TrendDetector {
    fn default() -> Self {
        TrendDetector {
            window: 3,
            limit: 0.1,
        }
    }
}

impl TrendDetector {
    /// Creates a detector with an explicit window and limit.
    pub fn new(window: usize, limit: f64) -> Self {
        TrendDetector {
            window: window.max(1),
            limit: limit.max(0.0),
        }
    }

    /// Simple moving average of the last `window` values ending at index
    /// `end` (inclusive). Returns `None` when not enough data exists.
    fn sma(&self, series: &[u64], end: usize) -> Option<f64> {
        if end + 1 < self.window || end >= series.len() {
            return None;
        }
        let start = end + 1 - self.window;
        let sum: u64 = series[start..=end].iter().sum();
        Some(sum as f64 / self.window as f64)
    }

    /// The momentum at the end of the series: the relative change between
    /// the moving average ending at the last point and the one ending one
    /// point earlier. Returns `None` when fewer than `window + 1` points
    /// exist.
    pub(crate) fn momentum(&self, series: &[u64]) -> Option<f64> {
        if series.len() < self.window + 1 {
            return None;
        }
        let current = self.sma(series, series.len() - 1)?;
        let previous = self.sma(series, series.len() - 2)?;
        if previous.abs() < f64::EPSILON {
            // From zero activity: any activity at all is an infinite
            // relative change; no activity is zero momentum.
            return Some(if current.abs() < f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            });
        }
        Some((current - previous).abs() / previous)
    }

    /// The paper's `detect()`: `true` if the access pattern changed
    /// considerably (momentum above `limit`) at the end of the series.
    pub fn detect(&self, series: &[u64]) -> bool {
        match self.momentum(series) {
            Some(m) => m > self.limit,
            None => false,
        }
    }

    /// Class-level trend detection: runs the momentum detector over the
    /// class's *mean-member* operation series (bounded to `max_periods`).
    /// Aggregating the series across members amortises trend detection over
    /// the whole class (§III-A2); for a singleton class the series — and
    /// therefore the verdict — is identical to the per-object detector's.
    pub fn detect_class(&self, usage: &crate::classify::ClassUsage, max_periods: usize) -> bool {
        let history = usage.mean_member_history(max_periods);
        let series = history.ops_series(history.len());
        self.detect(&series)
    }

    /// Scans a whole per-period series and returns the indices at which a
    /// trend change is detected — used to regenerate Figs. 8 and 9.
    pub fn detection_points(&self, series: &[u64]) -> Vec<usize> {
        let mut points = Vec::new();
        for end in 0..series.len() {
            if end + 1 > self.window && self.detect(&series[..=end]) {
                points.push(end);
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_short_series_never_detects() {
        let d = TrendDetector::default();
        assert!(!d.detect(&[]));
        assert!(!d.detect(&[10]));
        assert!(!d.detect(&[10, 20, 30]));
        assert_eq!(d.momentum(&[10, 20, 30]), None);
    }

    #[test]
    fn flat_series_has_zero_momentum() {
        let d = TrendDetector::default();
        let series = vec![100u64; 10];
        assert_eq!(d.momentum(&series), Some(0.0));
        assert!(!d.detect(&series));
        assert!(d.detection_points(&series).is_empty());
    }

    #[test]
    fn small_fluctuations_below_limit_are_ignored() {
        let d = TrendDetector::default();
        // ±3 on a base of 100 keeps the 3-period SMA within 10 %.
        let series = vec![100, 103, 98, 101, 99, 102, 100, 97, 103];
        assert!(d.detection_points(&series).is_empty());
    }

    #[test]
    fn sudden_spike_is_detected() {
        let d = TrendDetector::default();
        // The Slashdot effect: near-zero activity, then a surge.
        let series = vec![0, 0, 0, 0, 1, 50, 120, 150, 148, 150];
        let points = d.detection_points(&series);
        assert!(!points.is_empty());
        // The first detection happens as soon as the surge enters the moving
        // average window.
        assert!(points[0] <= 5);
        // Once the plateau is reached, momentum falls back under the limit.
        assert!(!d.detect(&series));
    }

    #[test]
    fn decay_is_also_detected() {
        let d = TrendDetector::default();
        let series = vec![150, 150, 150, 150, 100, 60, 30, 10];
        assert!(!d.detection_points(&series).is_empty());
    }

    #[test]
    fn zero_to_nonzero_momentum_is_infinite() {
        let d = TrendDetector::default();
        assert_eq!(d.momentum(&[0, 0, 0, 30]), Some(f64::INFINITY));
        assert!(d.detect(&[0, 0, 0, 30]));
    }

    #[test]
    fn larger_window_smooths_short_bursts() {
        let narrow = TrendDetector::new(3, 0.1);
        let wide = TrendDetector::new(12, 0.1);
        // A one-period blip on a noisy but stationary series.
        let mut series = vec![100u64; 24];
        series[12] = 140;
        assert!(!narrow.detection_points(&series).is_empty());
        assert!(wide.detection_points(&series).len() <= narrow.detection_points(&series).len());
    }

    #[test]
    fn limit_zero_detects_any_change_and_high_limit_none() {
        let any = TrendDetector::new(3, 0.0);
        let none = TrendDetector::new(3, 1e9);
        let series = vec![100, 100, 100, 101, 100, 99];
        assert!(!any.detection_points(&series).is_empty());
        assert!(none.detection_points(&series).is_empty());
    }

    #[test]
    fn detector_sanitises_parameters() {
        let d = TrendDetector::new(0, -1.0);
        assert_eq!(d.window, 1);
        assert_eq!(d.limit, 0.0);
    }
}
