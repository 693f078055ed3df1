//! Deterministic per-provider latency model.
//!
//! Scalia's data path is dominated by wide-area round-trips to cloud
//! providers, yet the simulation's backends used to answer instantly — no
//! scenario could observe the difference between fetching `m` chunks
//! sequentially and racing them in parallel. A [`LatencyModel`] gives each
//! provider a *virtual* response time:
//!
//! ```text
//! latency(op) = (base_rtt + bytes / throughput) × jitter(seed, salt)
//! ```
//!
//! * `base_rtt` models the per-request round-trip (TLS + HTTP + provider
//!   overhead), paid by every operation including errors;
//! * `throughput` models the transfer time of the payload;
//! * `jitter` is a deterministic multiplicative factor in
//!   `[1 − jitter_pct, 1 + jitter_pct]`, drawn by hashing the model seed
//!   with a per-request salt (the chunk key), so the same request always
//!   sees the same latency — tests and simulations are exactly
//!   reproducible, with no wall-clock dependence.
//!
//! Latencies are plain numbers: the caller schedules them in virtual time
//! (the chunk-I/O layer's hedged read is an event loop over them), and no
//! operation ever waits them out.

/// Deterministic latency model of one provider. The default model is
/// `LatencyModel::ZERO`: every operation completes instantly, preserving
/// the pre-latency behaviour of catalogs that do not opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-request round-trip, in microseconds (paid even by errors).
    pub base_rtt_us: u64,
    /// Payload transfer throughput, in bytes per second (0 = infinite).
    pub throughput_bps: u64,
    /// Multiplicative jitter amplitude, in percent of the nominal latency
    /// (e.g. 10 ⇒ every draw lands in `[0.9, 1.1] × nominal`).
    pub jitter_pct: u8,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::ZERO
    }
}

/// splitmix64 — the same tiny deterministic mixer the test suite uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string, used to salt the jitter draw with the request
/// key so identical requests always see identical latency.
pub(crate) fn salt_of(key: &str) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for byte in key.as_bytes() {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

impl LatencyModel {
    /// The zero model: every operation is instantaneous.
    pub(crate) const ZERO: LatencyModel = LatencyModel {
        base_rtt_us: 0,
        throughput_bps: 0,
        jitter_pct: 0,
        seed: 0,
    };

    /// Creates a model from a base RTT (milliseconds), a throughput
    /// (MB/s, decimal), a jitter amplitude (percent) and a seed.
    pub fn new(base_rtt_ms: u64, throughput_mbps: u64, jitter_pct: u8, seed: u64) -> Self {
        LatencyModel {
            base_rtt_us: base_rtt_ms * 1_000,
            throughput_bps: throughput_mbps * 1_000_000,
            jitter_pct: jitter_pct.min(99),
            seed,
        }
    }

    /// A typical well-connected public cloud: ~30 ms RTT, 80 MB/s, 10 %
    /// jitter.
    pub fn typical(seed: u64) -> Self {
        LatencyModel::new(30, 80, 10, seed)
    }

    /// A far-away or overloaded provider: ~10× the typical RTT and a fifth
    /// of the throughput.
    pub fn slow(seed: u64) -> Self {
        LatencyModel::new(300, 16, 10, seed)
    }

    /// A *limping* provider: nominal latency is typical but jitter is huge,
    /// so a fraction of requests straggle far beyond the median — the
    /// straggler profile hedged reads exist to absorb.
    pub fn limping(seed: u64) -> Self {
        LatencyModel::new(40, 60, 90, seed)
    }

    /// Returns `true` if this is the zero (instantaneous) model.
    pub fn is_zero(&self) -> bool {
        self.base_rtt_us == 0 && self.throughput_bps == 0
    }

    /// The nominal (jitter-free) latency of transferring `bytes`, in
    /// microseconds.
    pub fn expected_us(&self, bytes: u64) -> u64 {
        let transfer = if self.throughput_bps == 0 {
            0
        } else {
            // bytes / (bytes/s) in µs, rounded up so tiny payloads still pay.
            ((bytes as u128 * 1_000_000).div_ceil(self.throughput_bps as u128)) as u64
        };
        self.base_rtt_us + transfer
    }

    /// A deterministic latency draw for transferring `bytes`, salted by the
    /// request (use `salt_of` on the storage key). Identical
    /// `(model, bytes, salt)` always produce the identical latency.
    pub fn sample_us(&self, bytes: u64, salt: u64) -> u64 {
        let nominal = self.expected_us(bytes);
        if nominal == 0 || self.jitter_pct == 0 {
            return nominal;
        }
        let draw = splitmix64(self.seed ^ salt);
        // Uniform in [-jitter_pct, +jitter_pct] percent.
        let span = 2 * self.jitter_pct as u64 + 1;
        let offset = (draw % span) as i64 - self.jitter_pct as i64;
        let adjusted = nominal as i64 + nominal as i64 * offset / 100;
        adjusted.max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_instantaneous() {
        let m = LatencyModel::ZERO;
        assert!(m.is_zero());
        assert_eq!(m.expected_us(1_000_000_000), 0);
        assert_eq!(m.sample_us(1_000_000_000, 42), 0);
        assert_eq!(LatencyModel::default(), LatencyModel::ZERO);
    }

    #[test]
    fn expected_latency_scales_with_bytes() {
        // 10 ms RTT, 10 MB/s: 1 MB transfers in 100 ms.
        let m = LatencyModel::new(10, 10, 0, 0);
        assert_eq!(m.expected_us(0), 10_000);
        assert_eq!(m.expected_us(1_000_000), 10_000 + 100_000);
        // Rounding up: a single byte still pays ≥ 1 µs of transfer.
        assert_eq!(m.expected_us(1), 10_001);
    }

    #[test]
    fn samples_are_deterministic_and_bounded() {
        let m = LatencyModel::new(100, 50, 20, 7);
        let nominal = m.expected_us(5_000_000);
        for salt in 0..500u64 {
            let a = m.sample_us(5_000_000, salt);
            let b = m.sample_us(5_000_000, salt);
            assert_eq!(a, b, "same salt must reproduce");
            let lo = nominal - nominal * 20 / 100;
            let hi = nominal + nominal * 20 / 100;
            assert!(a >= lo && a <= hi, "{a} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn jitter_actually_spreads() {
        let m = LatencyModel::new(100, 0, 30, 99);
        let mut distinct = std::collections::BTreeSet::new();
        for salt in 0..100u64 {
            distinct.insert(m.sample_us(0, salt));
        }
        assert!(distinct.len() > 10, "jitter should produce spread");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = LatencyModel::new(100, 0, 50, 1);
        let b = LatencyModel::new(100, 0, 50, 2);
        let diverged = (0..50u64).any(|salt| a.sample_us(0, salt) != b.sample_us(0, salt));
        assert!(diverged);
    }

    #[test]
    fn salt_of_is_stable_and_key_sensitive() {
        assert_eq!(salt_of("skey.0"), salt_of("skey.0"));
        assert_ne!(salt_of("skey.0"), salt_of("skey.1"));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let typical = LatencyModel::typical(0).expected_us(1_000_000);
        let slow = LatencyModel::slow(0).expected_us(1_000_000);
        assert!(slow > 5 * typical, "slow ({slow}) ≫ typical ({typical})");
        assert!(LatencyModel::limping(0).jitter_pct > 50);
    }
}
