//! Offline shim for `serde`.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the tiny subset of serde the workspace actually uses:
//!
//! - a JSON-like [`Value`] data model, the form of every metastore cell;
//! - [`Serialize`] for the scalars, strings, options, vectors and values
//!   that `serde_json::json!` builds cells from;
//! - the two traits themselves, which `ObjectMeta` (in `scalia-types`)
//!   implements as a bridge to its encoded record: it serializes to a
//!   [`Value::Bytes`] and deserializes from nothing else. [`Value`] is the
//!   only other [`Deserialize`] implementor.
//!
//! There are no derive macros. A value tree costs what it holds: an object
//! [`Map`] is a single key-sorted vector of `(key, value)` pairs at its
//! exact size, and a key the code knows at compile time is a borrowed
//! `&'static str`, so a `json!` object allocates its entry vector and the
//! values it holds, and nothing per key.

use std::borrow::Cow;
use std::fmt;

/// A JSON object: `(key, value)` pairs in one vector, sorted by key with
/// no duplicates, so iteration, equality and [`Display`](fmt::Display)
/// follow key order as a `BTreeMap<String, Value>` would, and inserting an
/// existing key replaces its value (last insert wins).
///
/// Keys are `Cow<'static, str>`: a literal key (`"size".into()`, a `json!`
/// key) borrows the binary's string, and only a key made at run time owns
/// a `String`. Lookups and inserts binary-search the vector.
#[derive(Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(Cow<'static, str>, Value)>,
}

impl Map {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Self {
        Map::default()
    }

    /// An empty map with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Map {
            entries: Vec::with_capacity(capacity),
        }
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: Cow<'static, str>, value: Value) -> Option<Value> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_ok()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (&**k, v))
    }

    /// Keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| &**k)
    }

    /// Heap bytes this map owns: its entry vector at capacity, the keys it
    /// owns and every value below it (see [`Value::heap_bytes`]).
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(Cow<'static, str>, Value)>()
            + self
                .entries
                .iter()
                .map(|(k, v)| {
                    let key = match k {
                        Cow::Borrowed(_) => 0,
                        Cow::Owned(s) => s.capacity(),
                    };
                    key + v.heap_bytes()
                })
                .sum::<usize>()
    }
}

/// Collects in any order; a repeated key keeps its last value.
impl<K: Into<Cow<'static, str>>> FromIterator<(K, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut entries: Vec<(Cow<'static, str>, Value)> =
            iter.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Stable, so equal keys stay in insertion order; each run of them
        // then collapses onto its first slot carrying the last value.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        entries.shrink_to_fit();
        Map { entries }
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A JSON-like dynamically typed value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object.
    Object(Map),
    /// An opaque encoded record, such as the one `ObjectMeta` is stored
    /// as in a metastore `meta` cell: one allocation, decoded by its owner
    /// and by nothing here. Its JSON text is a string of lowercase hex. It
    /// bridges until every row kind has its own record and cells hold
    /// bytes rather than `Value`s.
    Bytes(Box<[u8]>),
}

/// A JSON number. Non-negative integers normalize to `PosInt`, negative
/// integers to `NegInt`, so derived equality behaves like serde_json's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Floating point.
    Float(f64),
}

impl Number {
    /// Numeric value as `f64` (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(v) => v as f64,
            Number::NegInt(v) => v as f64,
            Number::Float(v) => v,
        }
    }
}

static NULL_VALUE: Value = Value::Null;

impl Value {
    /// Borrow as object map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as array, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// As bool, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::PosInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// As `i64`, if this is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::PosInt(v)) => i64::try_from(*v).ok(),
            Value::Number(Number::NegInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// As `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Object member lookup; `None` when absent or not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Returns `true` if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Heap bytes this tree owns, counted from capacities: what its
    /// strings, arrays and maps hold allocated, excluding `self`'s own
    /// inline size and the allocator's per-block overhead.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) | Value::Number(_) => 0,
            Value::String(s) => s.capacity(),
            Value::Array(a) => {
                a.capacity() * std::mem::size_of::<Value>()
                    + a.iter().map(Value::heap_bytes).sum::<usize>()
            }
            Value::Object(m) => m.heap_bytes(),
            Value::Bytes(b) => b.len(),
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Value::Number(Number::Float(v)) if v == other)
    }
}

macro_rules! impl_value_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                *self == Serialize::serialize(other)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
impl_value_eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped (`\n`, `\u0001`, ...), everything else verbatim.
fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            c if c < ' ' => None,
            _ => continue,
        };
        f.write_str(&s[start..i])?;
        match short {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{:04x}", c as u32)?,
        }
        start = i + c.len_utf8();
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

/// Compact JSON text. Object members come in key order, integers print
/// exactly, a float prints as Rust's shortest round-trip form, and a
/// non-finite float (which JSON cannot carry) prints as `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(Number::PosInt(v)) => write!(f, "{v}"),
            Value::Number(Number::NegInt(v)) => write!(f, "{v}"),
            Value::Number(Number::Float(v)) if v.is_finite() => write!(f, "{v}"),
            Value::Number(Number::Float(_)) => write!(f, "null"),
            Value::String(s) => write_json_str(f, s),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Object(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_json_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
            Value::Bytes(b) => {
                write!(f, "\"")?;
                for byte in b.iter() {
                    write!(f, "{byte:02x}")?;
                }
                write!(f, "\"")
            }
        }
    }
}

/// Error produced by [`Deserialize`] implementations.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error from any displayable message.
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` to a [`Value`].
    fn serialize(&self) -> Value;
}

/// Deserialization from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Leaf implementations
// ---------------------------------------------------------------------------

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
    )*};
}
impl_serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::PosInt(v as u64))
                } else {
                    Value::Number(Number::NegInt(v))
                }
            }
        }
    )*};
}
impl_serialize_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serialize_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Number(Number::Float(*self as f64))
            }
        }
    )*};
}
impl_serialize_float!(f32, f64);

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl Serialize for Map {
    fn serialize(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn number_normalization() {
        assert_eq!(5i64.serialize(), 5u64.serialize());
        assert_ne!((-5i64).serialize(), 5u64.serialize());
        assert_ne!(1.0f64.serialize(), 1u64.serialize());
    }

    #[test]
    fn option_roundtrip() {
        let none: Option<f64> = None;
        assert_eq!(none.serialize(), Value::Null);
        assert_eq!(Value::deserialize(&none.serialize()).unwrap(), Value::Null);
        let some = Some(2.5f64);
        assert_eq!(some.serialize().as_f64(), some);
    }

    #[test]
    fn index_missing_is_null() {
        let v = Value::Object(Map::new());
        assert!(v["absent"].is_null());
        assert_eq!(v["absent"].as_u64(), None);
    }

    #[test]
    fn u64_roundtrip_is_exact() {
        let big = u64::MAX - 3;
        assert_eq!(big.serialize().as_u64(), Some(big));
        assert_eq!(big.serialize().as_i64(), None, "beyond i64");
    }

    #[test]
    fn display_writes_json_escapes_and_null_for_non_finite_floats() {
        let mut map = Map::new();
        map.insert("s".into(), Value::String("a\u{1}b".into()));
        map.insert("nan".into(), Value::Number(Number::Float(f64::NAN)));
        map.insert("inf".into(), Value::Number(Number::Float(f64::INFINITY)));
        map.insert(
            "k\"\n\u{0}".into(),
            Value::String("\\\t\u{8}\u{c}\r".into()),
        );
        assert_eq!(
            Value::Object(map).to_string(),
            r#"{"inf":null,"k\"\n\u0000":"\\\t\b\f\r","nan":null,"s":"a\u0001b"}"#
        );
        // Printable ASCII, quotes and backslashes included, reads as before.
        let printable: String = (' '..='~').collect();
        assert_eq!(
            Value::String(printable.clone()).to_string(),
            format!("{printable:?}")
        );
        assert_eq!(Value::Number(Number::Float(2.5)).to_string(), "2.5");
    }

    #[test]
    fn bytes_own_their_length_and_print_as_a_hex_string() {
        let record = Value::Bytes(vec![0x00, 0x0f, 0xa0, 0xff].into_boxed_slice());
        assert_eq!(record.heap_bytes(), 4);
        assert_eq!(record.to_string(), r#""000fa0ff""#);
        assert_eq!(Value::Bytes(Box::default()).to_string(), r#""""#);
        assert_eq!(record.as_str(), None, "a record is not a string");
    }

    /// Runtime and static keys, with prefixes of one another, a control
    /// character and a non-ASCII letter, so the order is by bytes.
    const KEYS: [&str; 10] = [
        "", "a", "aa", "ab", "b", "B", "a\u{1}", "k10", "k2", "\u{e9}",
    ];

    fn key(pick: u8) -> Cow<'static, str> {
        let key = KEYS[pick as usize % KEYS.len()];
        if pick & 0x80 == 0 {
            Cow::Borrowed(key)
        } else {
            Cow::Owned(key.to_string())
        }
    }

    fn oracle_text(oracle: &BTreeMap<String, Value>) -> String {
        let members: Vec<String> = oracle
            .iter()
            .map(|(k, v)| format!("{}:{v}", Value::String(k.clone())))
            .collect();
        format!("{{{}}}", members.join(","))
    }

    fn assert_matches(map: &Map, oracle: &BTreeMap<String, Value>) {
        assert_eq!(map.len(), oracle.len());
        assert_eq!(map.is_empty(), oracle.is_empty());
        for k in KEYS {
            assert_eq!(map.get(k), oracle.get(k));
            assert_eq!(map.contains_key(k), oracle.contains_key(k));
        }
        assert!(map.iter().eq(oracle.iter().map(|(k, v)| (k.as_str(), v))));
        assert!(map.keys().eq(oracle.keys().map(String::as_str)));
        assert_eq!(Value::Object(map.clone()).to_string(), oracle_text(oracle));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn map_matches_a_btreemap_oracle(
            // Each draw packs an op (`draw % 3`), a key pick (bits 8..16)
            // and a value (the bits above).
            ops in proptest::collection::vec(proptest::any::<u64>(), 0..40),
            pairs in proptest::collection::vec(proptest::any::<u64>(), 0..24),
        ) {
            let mut map = Map::new();
            let mut oracle = BTreeMap::new();
            for &draw in &ops {
                let (k, n) = (key((draw >> 8) as u8), draw >> 16);
                match draw % 3 {
                    0 | 1 => {
                        let v = n.serialize();
                        proptest::prop_assert_eq!(
                            map.insert(k.clone(), v.clone()),
                            oracle.insert(k.into_owned(), v)
                        );
                    }
                    _ => proptest::prop_assert_eq!(map.get(&k), oracle.get(&*k)),
                }
                assert_matches(&map, &oracle);
            }

            let pair = |draw: u64| (key(draw as u8), (draw >> 8).serialize());
            let collected: Map = pairs.iter().map(|&draw| pair(draw)).collect();
            let oracle: BTreeMap<String, Value> = pairs
                .iter()
                .map(|&draw| {
                    let (k, v) = pair(draw);
                    (k.into_owned(), v)
                })
                .collect();
            assert_matches(&collected, &oracle);
            proptest::prop_assert_eq!(collected.entries.capacity(), collected.len());
        }
    }
}
