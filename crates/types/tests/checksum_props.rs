//! Property tests for the content checksum: the streaming [`Xxh64`] context
//! is what the multipart write path trusts to equal a one-shot pass over a
//! stripe that arrives in parts, [`Xxh64::append`] is what the read and
//! write paths copy with — it must leave the same buffer and the same
//! context as `extend_from_slice` followed by [`Xxh64::update`] — and
//! [`object_checksum`] over the digests a stager takes must be what a
//! client recomputes with [`object_checksum_hex`].

use proptest::prelude::*;
use scalia_types::checksum::{object_checksum, object_checksum_hex, xxh64, Xxh64};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Absorbing a message in pieces cut at random points — before, on and
    /// after the 32-byte block boundary — equals the one-shot digest, for
    /// lengths 0..=4 KiB, whether the pieces go through `update` or
    /// `append`.
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
        let mut from = 0;
        for to in splits {
            ctx.update(&data[from..to]);
            appended.append(&mut out, &data[from..to]);
            from = to;
        }
        let expected = xxh64(&data);
        prop_assert_eq!(ctx.digest(), expected, "len {}", data.len());
        prop_assert_eq!(appended.digest(), expected);
        prop_assert_eq!(&out, &data);
    }

    /// A writer that stages an object stripe by stripe, from parts cut at
    /// random points, and roots the digests of its stripes gets the
    /// checksum a client recomputes from the whole payload — and an object
    /// of at most one stripe gets the plain checksum of its bytes.
    #[test]
    fn the_root_over_staged_stripes_is_what_a_client_recomputes(
        data in proptest::collection::vec(any::<u8>(), 0..4097),
        stripe_size in 1usize..1500,
        part in 1usize..700,
    ) {
        let mut digests = Vec::new();
        let (mut stripe, mut staged) = (Xxh64::new(), Vec::new());
        for piece in data.chunks(part) {
            let mut piece = piece;
            while !piece.is_empty() {
                let take = piece.len().min(stripe_size - staged.len());
                stripe.append(&mut staged, &piece[..take]);
                piece = &piece[take..];
                if staged.len() == stripe_size {
                    digests.push(stripe.digest());
                    (stripe, staged) = (Xxh64::new(), Vec::new());
                }
            }
        }
        if !staged.is_empty() || digests.is_empty() {
            digests.push(stripe.digest());
        }
        let root = object_checksum(&digests);
        prop_assert_eq!(&root, &object_checksum_hex(&data, stripe_size));
        if data.len() <= stripe_size {
            prop_assert_eq!(&root, &scalia_types::checksum::checksum_hex(&data));
        }
    }
}
