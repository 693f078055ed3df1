//! The metadata record codec: `ObjectMeta::encode_record` and
//! `ObjectMeta::decode_record` round-trip every object's metadata exactly,
//! and decoding anything else fails without panicking. `ObjectMeta`'s serde
//! impls are the same codec: it serializes to its record as a
//! `Value::Bytes` and deserializes from nothing else.

use proptest::prelude::*;
use proptest::TestRng;
use scalia_types::object::{ChunkLocation, META_RECORD_VERSION};
use scalia_types::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Arbitrary metadata: strings of any characters (empty ones included),
/// 0–20 stripes with gaps in their chunk indices, and `Some`/`None` in both
/// option fields.
struct AnyMeta;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn any_string(rng: &mut TestRng) -> String {
    let len = below(rng, 40);
    (0..len)
        .map(|_| match below(rng, 4) {
            0 => char::from(below(rng, 0x80) as u8),
            1 => char::from_u32(below(rng, 0x800) as u32).unwrap_or('é'),
            _ => char::from_u32(below(rng, 0x11_0000) as u32).unwrap_or('\u{1f600}'),
        })
        .collect()
}

/// A finite `f64` of either sign (so `==` can compare round trips).
fn any_f64(rng: &mut TestRng) -> f64 {
    rng.next_u64() as i64 as f64 / 1e6
}

impl Strategy for AnyMeta {
    type Value = ObjectMeta;

    fn sample(&self, rng: &mut TestRng) -> ObjectMeta {
        let stripes = (0..below(rng, 21))
            .map(|_| {
                // Each index kept or dropped: a degraded stripe keeps its
                // surviving chunks' original indices.
                let mut chunks = Vec::new();
                for index in 0..below(rng, 12) as u32 {
                    if below(rng, 4) != 0 {
                        chunks.push(ChunkLocation {
                            index,
                            provider: ProviderId::new(rng.next_u64() as u32),
                        });
                    }
                }
                StripeMeta {
                    chunks,
                    m: rng.next_u64() as u32,
                    checksum: any_string(rng),
                    skey: any_string(rng),
                }
            })
            .collect();
        let mut rule = StorageRule::new(
            any_string(rng),
            Reliability::from_probability(below(rng, 1 << 53) as f64 / (1u64 << 53) as f64),
            Reliability::from_probability(below(rng, 1 << 53) as f64 / (1u64 << 53) as f64),
            ZoneSet::of(&[Zone::EU, Zone::US, Zone::APAC][..below(rng, 4) as usize]),
            any_f64(rng),
        );
        rule.latency_weight = any_f64(rng);
        rule.read_sla_us = (below(rng, 2) == 0).then(|| rng.next_u64());
        ObjectMeta {
            key: ObjectKey::new(any_string(rng), any_string(rng)),
            version: ObjectVersionId(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())),
            mime: any_string(rng),
            size: ByteSize::from_bytes(rng.next_u64()),
            checksum: any_string(rng),
            rule,
            written_at: SimTime::from_secs(rng.next_u64()),
            ttl_hint_hours: (below(rng, 2) == 0).then(|| any_f64(rng)),
            striping: StripingMeta {
                stripe_size: rng.next_u64(),
                stripes,
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_meta_round_trips(meta in AnyMeta) {
        let record = meta.encode_record();
        prop_assert_eq!(record[0], META_RECORD_VERSION);
        prop_assert_eq!(&ObjectMeta::decode_record(&record).unwrap(), &meta);

        // The serde bridge is the record, both ways.
        let value = Serialize::serialize(&meta);
        prop_assert_eq!(&value, &Value::Bytes(record.clone()));
        prop_assert_eq!(&ObjectMeta::deserialize(&value).unwrap(), &meta);

        // Anything but a whole record is an error, not a panic.
        let mut tree = serde::Map::new();
        tree.insert("meta".into(), value.clone());
        prop_assert!(ObjectMeta::deserialize(&Value::Object(tree)).is_err());
        prop_assert!(ObjectMeta::deserialize(&Value::String(meta.checksum.clone())).is_err());
        let truncated = Value::Bytes(record[..record.len() - 1].into());
        prop_assert!(ObjectMeta::deserialize(&truncated).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_strict_prefix_and_extension_is_refused(meta in AnyMeta) {
        let record = meta.encode_record();
        for len in 0..record.len() {
            prop_assert!(ObjectMeta::decode_record(&record[..len]).is_err(), "prefix {len}");
        }
        let mut longer = record.to_vec();
        longer.push(0);
        prop_assert!(ObjectMeta::decode_record(&longer).is_err());
    }

    #[test]
    fn garbage_is_refused_without_panicking(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut versioned = garbage.clone();
        versioned.insert(0, META_RECORD_VERSION);
        // Whatever the bytes say, decoding returns; it never panics or
        // allocates what a count claims beyond the bytes left.
        let _ = ObjectMeta::decode_record(&garbage);
        let _ = ObjectMeta::decode_record(&versioned);
    }
}

/// An empty object (one empty stripe) and a zero-stripe striping both
/// round-trip.
#[test]
fn empty_objects_round_trip() {
    let mut meta = ObjectMeta {
        key: ObjectKey::new("", ""),
        version: ObjectVersionId(0),
        mime: String::new(),
        size: ByteSize::ZERO,
        checksum: String::new(),
        rule: StorageRule::default_rule(),
        written_at: SimTime::ZERO,
        ttl_hint_hours: None,
        striping: StripingMeta {
            stripe_size: 512 << 10,
            stripes: vec![StripeMeta {
                chunks: Vec::new(),
                m: 1,
                checksum: String::new(),
                skey: String::new(),
            }],
        },
    };
    for _ in 0..2 {
        let record = meta.encode_record();
        assert_eq!(ObjectMeta::decode_record(&record).unwrap(), meta);
        meta.striping.stripes.clear();
    }
}

#[test]
fn an_unknown_version_byte_is_refused() {
    let meta = ObjectMeta {
        key: ObjectKey::new("c", "k"),
        version: ObjectVersionId(7),
        mime: "text/plain".to_string(),
        size: ByteSize::from_bytes(3),
        checksum: "0123456789abcdef".to_string(),
        rule: StorageRule::rule1(),
        written_at: SimTime::from_secs(60),
        ttl_hint_hours: Some(2.5),
        striping: StripingMeta {
            stripe_size: 3,
            stripes: Vec::new(),
        },
    };
    let mut record = meta.encode_record().to_vec();
    for version in [0, META_RECORD_VERSION + 1, u8::MAX] {
        record[0] = version;
        let err = ObjectMeta::decode_record(&record).unwrap_err();
        assert!(matches!(err, ScaliaError::Internal(_)), "{err}");
    }
}
