//! What one stored version of an object's metadata costs in memory.
//!
//! The metastore keeps every version of every object's `ObjectMeta` as its
//! encoded record (`ObjectMeta::encode_record`) for as long as the journal
//! holds it: one boxed byte slice, so one allocation whose heap footprint
//! is the record's length. These tests pin it for the two layouts the
//! benchmark's closed-loop workloads write: a 4 KiB object (one stripe,
//! 3-of-4) and an 8 MiB one (16 stripes of 512 KiB, 4-of-5).

use scalia_types::checksum::checksum_hex;
use scalia_types::object::ChunkLocation;
use scalia_types::prelude::*;
use serde::Value;

fn meta(stripes: usize, m: u32, n: u32) -> ObjectMeta {
    let key = ObjectKey::new("c07", "k00001234");
    let version = ObjectVersionId::next(&key.row_key());
    let skey = StripingMeta::storage_key(&key, version);
    let stripe_size = 512 << 10;
    ObjectMeta {
        key,
        version,
        mime: "application/octet-stream".to_string(),
        size: ByteSize::from_bytes(if stripes == 1 {
            4096
        } else {
            stripes as u64 * stripe_size
        }),
        checksum: checksum_hex(b"object"),
        rule: StorageRule::new(
            "bench",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        ),
        written_at: SimTime::from_secs(86_400),
        ttl_hint_hours: None,
        striping: StripingMeta {
            stripe_size,
            stripes: (0..stripes)
                .map(|s| StripeMeta {
                    chunks: (0..n)
                        .map(|index| ChunkLocation {
                            index,
                            provider: ProviderId::new(index * 3 + 1),
                        })
                        .collect(),
                    m,
                    checksum: checksum_hex(&s.to_le_bytes()),
                    skey: if s == 0 {
                        skey.clone()
                    } else {
                        format!("{skey}.s{s}")
                    },
                })
                .collect(),
        },
    }
}

/// Encodes `meta` as a `meta` cell stores it, checks the record
/// round-trips, and returns the cell value's heap bytes: the one boxed
/// slice the record is.
fn stored_bytes(meta: &ObjectMeta) -> usize {
    let record = meta.encode_record();
    assert_eq!(&ObjectMeta::decode_record(&record).unwrap(), meta);
    let len = record.len();
    let value = Value::Bytes(record);
    assert_eq!(value.heap_bytes(), len);
    len
}

#[test]
fn a_small_objects_metadata_record_stays_compact() {
    let bytes = stored_bytes(&meta(1, 3, 4));
    assert!(bytes <= 300, "one-stripe 3-of-4 metadata holds {bytes} B");
}

#[test]
fn a_striped_objects_metadata_record_stays_compact() {
    let bytes = stored_bytes(&meta(16, 4, 5));
    assert!(bytes <= 2_200, "16-stripe 4-of-5 metadata holds {bytes} B");
}
