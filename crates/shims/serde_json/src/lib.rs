//! Offline shim for `serde_json`.
//!
//! Re-exports the [`Value`] data model from the serde shim and provides the
//! `json!` macro plus `to_value` / `from_value` conversions — the only
//! serde_json surface this workspace uses.

pub use serde::{Error, Map, Number, Value};

/// Converts any serializable value into a [`Value`].
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Reconstructs a typed value from a [`Value`].
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    T::deserialize(&value)
}

/// Implementation helper for the `json!` macro — not public API.
pub fn __to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.serialize()
}

/// Builds a [`Value`] from a JSON-ish literal: `null`, scalars and
/// expressions (via `Serialize`), arrays, and objects with literal keys.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($element:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::__to_value(&$element)),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        // Sized to the key count, so the map is built at its exact size.
        let mut map = $crate::Map::with_capacity(<[&str]>::len(&[$($key),*]));
        $( map.insert($key.into(), $crate::__to_value(&$value)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::__to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_scalars_and_objects() {
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(true), Value::Bool(true));
        assert_eq!(json!(1), Value::Number(Number::PosInt(1)));
        assert_eq!(json!("v"), Value::String("v".to_string()));
        let v = json!({ "a": 1u64, "b": 2.5f64 });
        assert_eq!(v["a"].as_u64(), Some(1));
        assert_eq!(v["b"].as_f64(), Some(2.5));
        let arr = json!([1u64, 2u64]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
    }

    /// A record type whose serde face is one byte, as `ObjectMeta`'s is
    /// its encoded record.
    #[derive(Debug, PartialEq)]
    struct Tag(u8);

    impl serde::Serialize for Tag {
        fn serialize(&self) -> Value {
            Value::Bytes(Box::new([self.0]))
        }
    }

    impl serde::Deserialize for Tag {
        fn deserialize(value: &Value) -> Result<Self, Error> {
            match value {
                Value::Bytes(b) if b.len() == 1 => Ok(Tag(b[0])),
                _ => Err(Error::custom("expected a one-byte record")),
            }
        }
    }

    #[test]
    fn to_from_value_roundtrip() {
        let v = to_value(Tag(42)).unwrap();
        assert_eq!(from_value::<Tag>(v).unwrap(), Tag(42));
        assert!(from_value::<Tag>(Value::String("x".into())).is_err());
        assert_eq!(from_value::<Value>(json!(42)).unwrap(), json!(42));
    }
}
