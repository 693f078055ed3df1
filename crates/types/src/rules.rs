//! Per-object storage rules.
//!
//! A [`StorageRule`] captures the customer requirements of the paper's
//! Fig. 2: minimum durability, minimum availability, allowed geographic
//! zones, and the vendor lock-in factor. The lock-in factor
//! `obj[lockin] = 1 / N_obj` where `N_obj` is the minimum number of distinct
//! providers that must hold chunks of the object (Eq. 1): a lock-in of 1
//! allows a single provider, 0.5 requires at least two providers, 0.2 at
//! least five.
//!
//! Beyond the paper's constraints a rule can also express a **latency
//! preference**: [`StorageRule::latency_weight`] converts each read-serving
//! provider's expected per-chunk read latency into dollars
//! (`weight × reads × latency_seconds` is added to the placement cost of
//! every read provider), and [`StorageRule::read_sla_us`] declares the
//! latency bound the simulator counts SLA violations against. Both default
//! to "off" (`0.0` / `None`), leaving latency-blind rules bit-identical to
//! their previous behaviour.

use crate::reliability::Reliability;
use crate::zone::ZoneSet;
use std::fmt;

/// A storage rule constraining where and how an object may be placed.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageRule {
    /// Human-readable rule name (e.g. "Rule 1").
    pub name: String,
    /// Minimum annual durability the placement must offer.
    pub durability: Reliability,
    /// Minimum availability the placement must offer.
    pub availability: Reliability,
    /// Zones where chunks may be stored. Every provider in the chosen set
    /// must operate in at least one of these zones.
    pub zones: ZoneSet,
    /// Vendor lock-in factor in `(0, 1]`; the placement must use at least
    /// `ceil(1 / lockin)` distinct providers.
    pub lockin: f64,
    /// Weight of the latency term in the placement cost model, in dollars
    /// per read-second of expected per-chunk read latency: every provider
    /// serving reads contributes `latency_weight × reads × latency_seconds`
    /// to the candidate's price. `0.0` (the default) keeps the cost model —
    /// and every placement decision — bit-identical to the latency-blind
    /// model.
    pub latency_weight: f64,
    /// The per-read latency SLA of the rule, in microseconds: a read whose
    /// (modelled or observed) latency exceeds this bound counts as an SLA
    /// violation in the simulator's accounting. `None` (the default)
    /// disables violation accounting for objects under this rule.
    pub read_sla_us: Option<u64>,
}

impl StorageRule {
    /// Creates a rule with the given constraints. `lockin` is clamped into
    /// `(0, 1]`.
    pub fn new(
        name: impl Into<String>,
        durability: Reliability,
        availability: Reliability,
        zones: ZoneSet,
        lockin: f64,
    ) -> Self {
        StorageRule {
            name: name.into(),
            durability,
            availability,
            zones,
            lockin: if lockin <= 0.0 { 1.0 } else { lockin.min(1.0) },
            latency_weight: 0.0,
            read_sla_us: None,
        }
    }

    /// The minimum number of distinct providers implied by the lock-in
    /// factor (`N_obj = ceil(1 / lockin)`).
    pub fn min_providers(&self) -> usize {
        (1.0 / self.lockin).ceil() as usize
    }

    /// Returns `true` if a provider set of size `n` satisfies the lock-in
    /// constraint, i.e. its lock-in `1/n` does not exceed the rule's factor
    /// (Algorithm 1 lines 5–6).
    pub fn lockin_satisfied(&self, n_providers: usize) -> bool {
        if n_providers == 0 {
            return false;
        }
        1.0 / n_providers as f64 <= self.lockin + 1e-12
    }

    /// A permissive default rule: 99.99 % durability, 99.9 % availability,
    /// any zone, no lock-in requirement. Used when the caller specifies no
    /// rule (the "default rule" of §II-B).
    pub fn default_rule() -> Self {
        StorageRule::new(
            "default",
            Reliability::from_percent(99.99),
            Reliability::from_percent(99.9),
            ZoneSet::all(),
            1.0,
        )
    }

    /// The paper's "Rule 1": durability 99.9999, availability 99.99,
    /// zones EU+US, lock-in 0.3 (at least 4 providers).
    pub fn rule1() -> Self {
        StorageRule::new(
            "Rule 1",
            Reliability::from_percent(99.9999),
            Reliability::from_percent(99.99),
            crate::zone::ZoneSet::of(&[crate::zone::Zone::EU, crate::zone::Zone::US]),
            0.3,
        )
    }

    /// The paper's "Rule 2": durability 99.999, availability 99.99,
    /// zone EU, lock-in 1 (single provider acceptable).
    pub fn rule2() -> Self {
        StorageRule::new(
            "Rule 2",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            crate::zone::ZoneSet::of(&[crate::zone::Zone::EU]),
            1.0,
        )
    }

    /// The paper's "Rule 3": durability 99.99, availability 99.99,
    /// all zones, lock-in 0.2 (at least 5 providers).
    pub fn rule3() -> Self {
        StorageRule::new(
            "Rule 3",
            Reliability::from_percent(99.99),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.2,
        )
    }

    /// Builder-style override of the availability constraint.
    pub fn with_availability(mut self, availability: Reliability) -> Self {
        self.availability = availability;
        self
    }

    /// Builder-style override of the lock-in factor.
    pub fn with_lockin(mut self, lockin: f64) -> Self {
        self.lockin = if lockin <= 0.0 { 1.0 } else { lockin.min(1.0) };
        self
    }

    /// Builder-style override of the allowed zones.
    pub fn with_zones(mut self, zones: ZoneSet) -> Self {
        self.zones = zones;
        self
    }

    /// Builder-style override of the latency weight (dollars per
    /// read-second of expected read latency; negative values clamp to 0).
    pub fn with_latency_weight(mut self, weight: f64) -> Self {
        self.latency_weight = if weight.is_finite() {
            weight.max(0.0)
        } else {
            0.0
        };
        self
    }

    /// Builder-style override of the per-read latency SLA, in microseconds.
    pub fn with_read_sla_us(mut self, sla_us: u64) -> Self {
        self.read_sla_us = Some(sla_us);
        self
    }
}

impl fmt::Display for StorageRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: durability {} availability {} zones [{}] lockin {}",
            self.name, self.durability, self.availability, self.zones, self.lockin
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;

    #[test]
    fn paper_rules_have_expected_constraints() {
        let r1 = StorageRule::rule1();
        assert_eq!(r1.min_providers(), 4);
        assert!(r1.zones.contains(Zone::EU) && r1.zones.contains(Zone::US));
        assert!(!r1.zones.contains(Zone::APAC));

        let r2 = StorageRule::rule2();
        assert_eq!(r2.min_providers(), 1);

        let r3 = StorageRule::rule3();
        assert_eq!(r3.min_providers(), 5);
        assert_eq!(r3.zones, ZoneSet::all());
    }

    #[test]
    fn lockin_satisfaction() {
        let rule = StorageRule::default_rule().with_lockin(0.5);
        assert!(!rule.lockin_satisfied(0));
        assert!(!rule.lockin_satisfied(1));
        assert!(rule.lockin_satisfied(2));
        assert!(rule.lockin_satisfied(3));

        let strict = StorageRule::default_rule().with_lockin(0.3);
        assert!(!strict.lockin_satisfied(3));
        assert!(strict.lockin_satisfied(4));

        // lock-in 1 means a single provider is acceptable.
        assert!(StorageRule::default_rule().lockin_satisfied(1));
    }

    #[test]
    fn lockin_is_clamped() {
        let r = StorageRule::default_rule().with_lockin(0.0);
        assert_eq!(r.lockin, 1.0);
        let r = StorageRule::default_rule().with_lockin(5.0);
        assert_eq!(r.lockin, 1.0);
        let r = StorageRule::new(
            "x",
            Reliability::nines(3),
            Reliability::nines(2),
            ZoneSet::all(),
            -1.0,
        );
        assert_eq!(r.lockin, 1.0);
    }

    #[test]
    fn builder_overrides() {
        let r = StorageRule::default_rule()
            .with_availability(Reliability::from_percent(99.99))
            .with_zones(ZoneSet::of(&[Zone::EU]));
        assert_eq!(r.availability, Reliability::from_percent(99.99));
        assert!(r.zones.contains(Zone::EU) && !r.zones.contains(Zone::US));
    }

    #[test]
    fn latency_fields_default_off_and_are_overridable() {
        let r = StorageRule::default_rule();
        assert_eq!(r.latency_weight, 0.0, "latency term must default off");
        assert_eq!(r.read_sla_us, None);
        let tuned = r
            .clone()
            .with_latency_weight(0.25)
            .with_read_sla_us(150_000);
        assert_eq!(tuned.latency_weight, 0.25);
        assert_eq!(tuned.read_sla_us, Some(150_000));
        // Negative or non-finite weights clamp to the latency-blind model.
        assert_eq!(r.clone().with_latency_weight(-1.0).latency_weight, 0.0);
        assert_eq!(r.with_latency_weight(f64::NAN).latency_weight, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let s = StorageRule::rule1().to_string();
        assert!(s.contains("Rule 1"));
        assert!(s.contains("99.9999%"));
    }
}
