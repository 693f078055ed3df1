//! Provider service-level agreements.

use scalia_types::reliability::Reliability;

/// The durability / availability guarantees a provider advertises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderSla {
    /// Annual durability of a stored object (probability it is not lost).
    pub durability: Reliability,
    /// Availability of the service (probability a request succeeds).
    pub availability: Reliability,
}

impl ProviderSla {
    /// Creates an SLA from percentage values as printed in Fig. 3.
    pub fn from_percent(durability: f64, availability: f64) -> Self {
        ProviderSla {
            durability: Reliability::from_percent(durability),
            availability: Reliability::from_percent(availability),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_from_percentages() {
        let sla = ProviderSla::from_percent(99.999999999, 99.9);
        assert!((sla.durability.probability() - 0.99999999999).abs() < 1e-15);
        assert!((sla.availability.probability() - 0.999).abs() < 1e-12);
    }

    #[test]
    fn sla_comparison_via_reliability() {
        let high = ProviderSla::from_percent(99.999999999, 99.9);
        let low = ProviderSla::from_percent(99.99, 99.9);
        assert!(high.durability > low.durability);
        assert!(high.durability.meets(low.durability));
        assert!(!low.durability.meets(high.durability));
    }
}
