//! Property test for the content checksum: the streaming [`Xxh64`] context
//! is what the multipart write path trusts to equal a one-shot pass over
//! bytes it never holds at once.

use proptest::prelude::*;
use scalia_types::checksum::{xxh64, Xxh64};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Absorbing a message in pieces cut at random points — before, on and
    /// after the 32-byte block boundary — equals the one-shot digest, for
    /// lengths 0..=4 KiB.
    #[test]
    fn streaming_over_random_split_points_equals_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..4097),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let mut splits: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        splits.push(data.len());
        splits.sort_unstable();

        let mut ctx = Xxh64::new();
        let mut from = 0;
        for to in splits {
            ctx.update(&data[from..to]);
            from = to;
        }
        prop_assert_eq!(ctx.digest(), xxh64(&data), "len {}", data.len());
    }
}
