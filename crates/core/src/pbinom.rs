//! Poisson-binomial survival distributions.
//!
//! Both Algorithm 2 (`getThreshold`) and `getAvailability` reduce to the
//! same question: given `n` independent providers where provider `i` "is
//! fine" with probability `p_i` (durability or availability SLA), what is
//! the probability that **at least `m`** of them are fine? This is the tail
//! of a *Poisson-binomial* distribution.
//!
//! The seed implementation answered it by enumerating every k-combination
//! of providers — `O(2^n)` work *inside* an already exponential subset
//! search. Following the standard reduction used by multi-cloud
//! failure-probability models (arXiv:1310.4919) and replication/dedup
//! trade-off analyses (arXiv:2312.08309), this module computes the exact
//! distribution with an `O(n²)` dynamic program instead:
//!
//! ```text
//! c₀[0] = 1
//! cᵢ[k] = cᵢ₋₁[k]·(1 − pᵢ) + cᵢ₋₁[k−1]·pᵢ
//! ```
//!
//! where `cᵢ[k]` is the probability that exactly `k` of the first `i`
//! providers are fine. Results agree with the combinatorial enumeration to
//! within 1e-12 (they compute the same sum, merely factored differently).
//!
//! The distribution lives in a fixed-size array (no heap allocation), so it
//! can be built in the placement search's hot loop.

/// Maximum number of providers in one candidate set. Bounded by the `u64`
/// bitmask width used by the subset search; 64 is far beyond any realistic
/// provider catalog.
pub(crate) const MAX_SET: usize = 64;

/// The exact distribution of "how many providers are fine" for a set of
/// independent providers, built incrementally one provider at a time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SurvivalDistribution {
    /// `exact[k]` = P(exactly `k` providers are fine), for `k <= n`.
    exact: [f64; MAX_SET + 1],
    n: usize,
}

impl Default for SurvivalDistribution {
    fn default() -> Self {
        Self::empty()
    }
}

impl SurvivalDistribution {
    /// The distribution of the empty set: zero providers, all fine.
    pub(crate) const fn empty() -> Self {
        let mut exact = [0.0; MAX_SET + 1];
        exact[0] = 1.0;
        SurvivalDistribution { exact, n: 0 }
    }

    /// Builds the distribution for the given per-provider probabilities.
    pub(crate) fn from_probabilities(probs: impl IntoIterator<Item = f64>) -> Self {
        let mut dist = Self::empty();
        for p in probs {
            dist.push(p);
        }
        dist
    }

    /// Adds one provider that is fine with probability `p`. `O(n)`.
    pub(crate) fn push(&mut self, p: f64) {
        assert!(
            self.n < MAX_SET,
            "survival distribution limited to {MAX_SET} providers"
        );
        let q = 1.0 - p;
        // Walk downwards so each c[k] is consumed before it is overwritten.
        for k in (0..=self.n).rev() {
            let c = self.exact[k];
            self.exact[k + 1] += c * p;
            self.exact[k] = c * q;
        }
        self.n += 1;
    }

    /// Writes `self` extended by one provider of probability `p` into
    /// `out`, copying only the live prefix (`O(n)`, bit-identical to
    /// [`push`](Self::push)). This is the branch-and-bound's descend step:
    /// the parent level's distribution stays intact for backtracking.
    pub(crate) fn pushed_into(&self, p: f64, out: &mut SurvivalDistribution) {
        assert!(
            self.n < MAX_SET,
            "survival distribution limited to {MAX_SET} providers"
        );
        let q = 1.0 - p;
        out.exact[self.n + 1] = self.exact[self.n] * p;
        for k in (1..=self.n).rev() {
            out.exact[k] = self.exact[k] * q + self.exact[k - 1] * p;
        }
        out.exact[0] = self.exact[0] * q;
        out.n = self.n + 1;
    }

    /// Number of providers folded in so far.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// P(exactly `k` providers are fine). Zero for `k > n`.
    pub(crate) fn exactly(&self, k: usize) -> f64 {
        if k > self.n {
            0.0
        } else {
            self.exact[k]
        }
    }

    /// P(at least `m` providers are fine) — the Poisson-binomial tail.
    pub(crate) fn tail(&self, m: usize) -> f64 {
        if m == 0 {
            return 1.0;
        }
        if m > self.n {
            return 0.0;
        }
        let mut sum = 0.0;
        for k in m..=self.n {
            sum += self.exact[k];
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: enumerate all 2^n outcomes.
    fn brute_tail(probs: &[f64], m: usize) -> f64 {
        let n = probs.len();
        let mut total = 0.0;
        for mask in 0u32..(1 << n) {
            let mut p = 1.0;
            let mut fine = 0;
            for (i, &pi) in probs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p *= pi;
                    fine += 1;
                } else {
                    p *= 1.0 - pi;
                }
            }
            if fine >= m {
                total += p;
            }
        }
        total
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let probs = [0.999, 0.9999, 0.95, 0.8, 0.999999];
        let dist = SurvivalDistribution::from_probabilities(probs.iter().copied());
        for m in 0..=probs.len() + 1 {
            let dp = dist.tail(m);
            let brute = brute_tail(&probs, m);
            assert!((dp - brute).abs() < 1e-12, "m={m}: dp={dp} brute={brute}");
        }
    }

    #[test]
    fn exactly_sums_to_one() {
        let dist = SurvivalDistribution::from_probabilities([0.9, 0.5, 0.99, 0.7]);
        let total: f64 = (0..=4).map(|k| dist.exactly(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(dist.exactly(5), 0.0);
        assert_eq!(dist.len(), 4);
    }

    #[test]
    fn empty_distribution_edge_cases() {
        let dist = SurvivalDistribution::empty();
        assert_eq!(dist.n, 0);
        assert_eq!(dist.tail(0), 1.0);
        assert_eq!(dist.tail(1), 0.0);
        assert_eq!(dist.exactly(0), 1.0);
    }

    #[test]
    fn single_provider_is_its_probability() {
        let dist = SurvivalDistribution::from_probabilities([0.999]);
        assert!((dist.tail(1) - 0.999).abs() < 1e-15);
        assert!((dist.exactly(0) - 0.001).abs() < 1e-15);
    }

    #[test]
    fn incremental_push_matches_batch_construction() {
        let probs = [0.99, 0.5, 0.1, 0.9999];
        let batch = SurvivalDistribution::from_probabilities(probs.iter().copied());
        let mut inc = SurvivalDistribution::empty();
        for &p in &probs {
            inc.push(p);
        }
        for k in 0..=probs.len() {
            assert_eq!(batch.exactly(k), inc.exactly(k));
        }
    }

    #[test]
    fn pushed_into_is_bit_identical_to_push() {
        let probs = [0.999, 0.42, 0.9999, 0.7, 0.99999];
        let mut levels = [SurvivalDistribution::empty(); 6];
        for (i, &p) in probs.iter().enumerate() {
            let (parents, children) = levels.split_at_mut(i + 1);
            parents[i].pushed_into(p, &mut children[0]);
        }
        let mut direct = SurvivalDistribution::empty();
        for (i, &p) in probs.iter().enumerate() {
            direct.push(p);
            for k in 0..=i + 1 {
                assert_eq!(
                    direct.exactly(k),
                    levels[i + 1].exactly(k),
                    "level {i} k={k}"
                );
            }
        }
    }
}
