//! The static provider sets of Fig. 13.
//!
//! The paper compares Scalia against every fixed combination of at least two
//! of the five public providers of Fig. 3 — 26 static sets, with Scalia
//! listed as set #27. This module enumerates those sets over an arbitrary
//! catalog snapshot, preserving a deterministic numbering.

use scalia_providers::descriptor::ProviderDescriptor;

/// A named static provider set.
#[derive(Debug, Clone)]
pub struct StaticSet {
    /// 1-based index matching the paper's Fig. 13 numbering convention.
    pub index: usize,
    /// The providers of the set.
    pub providers: Vec<ProviderDescriptor>,
}

impl StaticSet {
    /// A label such as `"S3(h)-S3(l)-Azu"`.
    pub fn label(&self) -> String {
        self.providers
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join("-")
    }
}

/// Enumerates every subset of `providers` with at least `min_size` members,
/// numbering them from 1 in a deterministic (bitmask) order.
pub(crate) fn enumerate_static_sets(
    providers: &[ProviderDescriptor],
    min_size: usize,
) -> Vec<StaticSet> {
    let n = providers.len();
    let mut sets = Vec::new();
    let mut index = 0;
    for mask in 1u32..(1u32 << n) {
        if (mask.count_ones() as usize) < min_size {
            continue;
        }
        let subset: Vec<ProviderDescriptor> = providers
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| p.clone())
            .collect();
        index += 1;
        sets.push(StaticSet {
            index,
            providers: subset,
        });
    }
    sets
}

/// The paper's Fig. 13 sets: every combination of at least two of the five
/// public providers (26 sets).
pub fn paper_static_sets(catalog: &[ProviderDescriptor]) -> Vec<StaticSet> {
    enumerate_static_sets(catalog, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::ProviderCatalog;

    #[test]
    fn paper_catalog_yields_26_sets() {
        let catalog = ProviderCatalog::paper_catalog().all();
        let sets = paper_static_sets(&catalog);
        assert_eq!(sets.len(), 26);
        // Indices are 1..=26 and labels are unique.
        assert_eq!(sets.first().unwrap().index, 1);
        assert_eq!(sets.last().unwrap().index, 26);
        let mut labels: Vec<String> = sets.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 26);
        // The full five-provider set and the pairs are all present.
        assert!(sets.iter().any(|s| s.providers.len() == 5));
        assert_eq!(sets.iter().filter(|s| s.providers.len() == 2).count(), 10);
    }

    #[test]
    fn min_size_one_adds_singletons() {
        let catalog = ProviderCatalog::paper_catalog().all();
        let sets = enumerate_static_sets(&catalog, 1);
        assert_eq!(sets.len(), 31);
        assert_eq!(sets.iter().filter(|s| s.providers.len() == 1).count(), 5);
    }

    #[test]
    fn labels_join_provider_names() {
        let catalog = ProviderCatalog::paper_catalog().all();
        let pair = StaticSet {
            index: 1,
            providers: vec![catalog[0].clone(), catalog[1].clone()],
        };
        assert_eq!(pair.label(), "S3(h)-S3(l)");
    }
}
