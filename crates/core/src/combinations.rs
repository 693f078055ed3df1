//! Enumeration of provider combinations.
//!
//! Algorithm 1 iterates over *every* combination of the available providers
//! (`getAllCombinations`); Algorithm 2 iterates over the k-combinations of a
//! provider set (`getCombinations(pset, failuresOK)`).
//!
//! The production search walks provider subsets as bitmasks and reads a
//! subset's members with `mask_members`, which borrows the catalog and
//! never clones a provider; the materializing `all_subsets` /
//! `k_combinations` helpers are retained for the seed-equivalent
//! reference implementations in [`crate::reference`] and for tests.

/// Lazily yields the members of `items` selected by `mask` (bit `i` set ⇒
/// `items[i]` included), borrowing the slice. No allocation.
pub(crate) fn mask_members<T>(items: &[T], mask: u64) -> impl Iterator<Item = &T> + Clone + '_ {
    items
        .iter()
        .enumerate()
        .filter(move |(i, _)| mask & (1u64 << i) != 0)
        .map(|(_, item)| item)
}

/// Returns every non-empty subset of `items`, as vectors of cloned elements.
///
/// The number of subsets is `2^n - 1`; callers should keep `n` modest (the
/// exhaustive search is only used for small provider catalogs, exactly as in
/// the paper). Kept for the reference implementations and tests; the
/// production search walks bitmasks instead.
pub(crate) fn all_subsets<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    let n = items.len();
    assert!(n < 26, "exhaustive subset enumeration limited to 25 items");
    let mut subsets = Vec::with_capacity((1usize << n).saturating_sub(1));
    for mask in 1u32..(1u32 << n) {
        let mut subset = Vec::with_capacity(mask.count_ones() as usize);
        for (i, item) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                subset.push(item.clone());
            }
        }
        subsets.push(subset);
    }
    subsets
}

/// Returns every `k`-combination of `items` (as vectors of cloned elements).
pub(crate) fn k_combinations<T: Clone>(items: &[T], k: usize) -> Vec<Vec<T>> {
    let n = items.len();
    if k > n {
        return Vec::new();
    }
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut result = Vec::new();
    let mut indices: Vec<usize> = (0..k).collect();
    loop {
        result.push(indices.iter().map(|&i| items[i].clone()).collect());
        // Advance the combination indices (standard lexicographic stepping).
        let mut i = k;
        loop {
            if i == 0 {
                return result;
            }
            i -= 1;
            if indices[i] != i + n - k {
                break;
            }
            if i == 0 {
                return result;
            }
        }
        indices[i] += 1;
        for j in (i + 1)..k {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_subsets_counts() {
        assert_eq!(all_subsets(&[1]).len(), 1);
        assert_eq!(all_subsets(&[1, 2]).len(), 3);
        assert_eq!(all_subsets(&[1, 2, 3]).len(), 7);
        assert_eq!(all_subsets(&[1, 2, 3, 4, 5]).len(), 31);
        let empty: Vec<Vec<i32>> = all_subsets::<i32>(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn all_subsets_of_paper_catalog_size() {
        // 5 providers → 31 non-empty subsets; 26 of size ≥ 2 (Fig. 13 lists
        // exactly those 26 static sets).
        let subsets = all_subsets(&["S3h", "S3l", "RS", "Azu", "Ggl"]);
        assert_eq!(subsets.len(), 31);
        let multi: Vec<_> = subsets.iter().filter(|s| s.len() >= 2).collect();
        assert_eq!(multi.len(), 26);
    }

    #[test]
    fn k_combinations_counts_and_contents() {
        let items = [1, 2, 3, 4];
        assert_eq!(k_combinations(&items, 0), vec![Vec::<i32>::new()]);
        assert_eq!(k_combinations(&items, 1).len(), 4);
        let pairs = k_combinations(&items, 2);
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&vec![1, 2]));
        assert!(pairs.contains(&vec![3, 4]));
        assert_eq!(k_combinations(&items, 4), vec![vec![1, 2, 3, 4]]);
        assert!(k_combinations(&items, 5).is_empty());
    }

    #[test]
    fn combinations_are_distinct() {
        let items = ['a', 'b', 'c', 'd', 'e'];
        for (k, binomial) in [1, 5, 10, 10, 5, 1].into_iter().enumerate() {
            let combos = k_combinations(&items, k);
            assert_eq!(combos.len(), binomial);
            let mut sorted = combos.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), combos.len());
        }
    }
}
