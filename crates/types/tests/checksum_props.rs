//! Property tests for the content checksum: the streaming [`Xxh64`] context
//! is what the multipart write path trusts to equal a one-shot pass over
//! bytes it never holds at once, and [`Xxh64::append`] /
//! [`Xxh64::append_pair`] are what the read and write paths copy with —
//! they must leave the same buffer and the same contexts as
//! `extend_from_slice` followed by [`Xxh64::update`].

use proptest::prelude::*;
use scalia_types::checksum::{xxh64, Xxh64};

fn message(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}

/// A context that has absorbed `carried` bytes, so it holds a partial block
/// of `carried % 32` bytes.
fn carrying(carried: usize) -> Xxh64 {
    let mut ctx = Xxh64::new();
    ctx.update(&message(carried)[..]);
    ctx
}

/// Every length 0..=300 appended in one call and split across two calls at
/// every point, from every carried partial-block offset 0..31, onto a
/// buffer that already holds bytes.
#[test]
fn append_equals_copy_then_update_at_every_length_split_and_offset() {
    const PREFIX: &[u8] = b"existing";
    let data = message(300 + 1000)[1000..].to_vec();
    for carried in 0..32 {
        let start = carrying(carried);
        for len in 0..=300 {
            let data = &data[..len];
            let mut reference = start.clone();
            reference.update(data);
            // `len + 1` stands for "one call".
            for cut in 0..=len + 1 {
                let (mut ctx, mut out) = (start.clone(), PREFIX.to_vec());
                if cut <= len {
                    ctx.append(&mut out, &data[..cut]);
                    ctx.append(&mut out, &data[cut..]);
                } else {
                    ctx.append(&mut out, data);
                }
                assert_eq!(&out[..PREFIX.len()], PREFIX, "carried {carried}");
                assert_eq!(&out[PREFIX.len()..], data, "carried {carried} len {len}");
                assert_eq!(
                    ctx.digest(),
                    reference.digest(),
                    "carried {carried} len {len} cut {cut}"
                );
            }
        }
    }
}

/// The two-context form leaves both contexts as two `update`s would, for
/// every pair of carried offsets (the stripe context starts each stripe
/// fresh while the object context may be mid-block), every length
/// 0..=300 and every split across two calls.
#[test]
fn append_pair_equals_copy_then_two_updates_at_every_offset_pair() {
    let data = message(300);
    let starts: Vec<Xxh64> = (0..64).map(carrying).collect();
    for (first, second) in (0..32).flat_map(|a| (32..64).map(move |b| (a, b))) {
        for len in 0..=300 {
            let data = &data[..len];
            let cuts: &[usize] = if len % 7 == 0 { &[] } else { &[len / 3] };
            let (mut a, mut b) = (starts[first].clone(), starts[second].clone());
            let (mut ref_a, mut ref_b) = (a.clone(), b.clone());
            let mut out = Vec::new();
            let mut from = 0;
            for &to in cuts.iter().chain([&len]) {
                a.append_pair(&mut b, &mut out, &data[from..to]);
                from = to;
            }
            ref_a.update(data);
            ref_b.update(data);
            assert_eq!(out, data, "offsets {first}/{second} len {len}");
            assert_eq!(
                a.digest(),
                ref_a.digest(),
                "offsets {first}/{second} len {len}"
            );
            assert_eq!(
                b.digest(),
                ref_b.digest(),
                "offsets {first}/{second} len {len}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Absorbing a message in pieces cut at random points — before, on and
    /// after the 32-byte block boundary — equals the one-shot digest, for
    /// lengths 0..=4 KiB, whether the pieces go through `update`, `append`
    /// or `append_pair`.
    #[test]
    fn streaming_over_random_split_points_equals_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..4097),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let mut splits: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        splits.push(data.len());
        splits.sort_unstable();

        let mut ctx = Xxh64::new();
        let (mut appended, mut out) = (Xxh64::new(), Vec::new());
        let (mut first, mut second, mut paired) = (Xxh64::new(), Xxh64::new(), Vec::new());
        let mut from = 0;
        for to in splits {
            ctx.update(&data[from..to]);
            appended.append(&mut out, &data[from..to]);
            first.append_pair(&mut second, &mut paired, &data[from..to]);
            from = to;
        }
        let expected = xxh64(&data);
        prop_assert_eq!(ctx.digest(), expected, "len {}", data.len());
        prop_assert_eq!(appended.digest(), expected);
        prop_assert_eq!((first.digest(), second.digest()), (expected, expected));
        prop_assert_eq!(&out, &data);
        prop_assert_eq!(&paired, &data);
    }
}
