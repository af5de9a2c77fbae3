//! The report codec: a report struct lists its fields once, in
//! [`wire_fields!`](crate::wire_fields), and gets both directions of its
//! JSON mapping from that list.
//!
//! A field's JSON key is its Rust name. Writing leaves `None` out of the
//! document; reading is tolerant — a missing or ill-typed key decodes as
//! the type's zero (or as the default its declaration names) — so
//! committed reports keep parsing when a struct gains a field.

use std::collections::BTreeMap;

pub use beldi::value::{Map, Value};

/// One value of a report: how it is written into and read back from a
/// [`Value`].
pub trait Wire: Sized {
    /// The encoded value; `None` leaves the key out of the enclosing map.
    fn encode(&self) -> Option<Value>;

    /// Decodes what was found under the value's key (`None`: no such key).
    fn decode(v: Option<&Value>) -> Self;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self) -> Option<Value> {
                Some(Value::Int(*self as i64))
            }
            fn decode(v: Option<&Value>) -> Self {
                v.and_then(Value::as_int).unwrap_or(0) as $t
            }
        }
    )*};
}
wire_int!(u64, usize, i64);

impl Wire for f64 {
    fn encode(&self) -> Option<Value> {
        Some(Value::Float(*self))
    }
    fn decode(v: Option<&Value>) -> Self {
        v.and_then(Value::as_float).unwrap_or(0.0)
    }
}

impl Wire for bool {
    fn encode(&self) -> Option<Value> {
        Some(Value::Bool(*self))
    }
    fn decode(v: Option<&Value>) -> Self {
        v.and_then(Value::as_bool).unwrap_or(false)
    }
}

impl Wire for String {
    fn encode(&self) -> Option<Value> {
        Some(Value::from(self))
    }
    fn decode(v: Option<&Value>) -> Self {
        v.and_then(Value::as_str).unwrap_or_default().to_owned()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self) -> Option<Value> {
        self.as_ref().and_then(Wire::encode)
    }
    fn decode(v: Option<&Value>) -> Self {
        v.map(|v| T::decode(Some(v)))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Option<Value> {
        Some(Value::List(self.iter().filter_map(Wire::encode).collect()))
    }
    fn decode(v: Option<&Value>) -> Self {
        let items = v.and_then(Value::as_list).into_iter().flatten();
        items.map(|x| T::decode(Some(x))).collect()
    }
}

impl<T: Wire> Wire for BTreeMap<String, T> {
    fn encode(&self) -> Option<Value> {
        let entries = self
            .iter()
            .filter_map(|(k, x)| Some((k.clone(), x.encode()?)));
        Some(Value::Map(entries.collect()))
    }
    fn decode(v: Option<&Value>) -> Self {
        let entries = v.and_then(Value::as_map).into_iter().flatten();
        entries
            .map(|(k, x)| (k.to_string(), T::decode(Some(x))))
            .collect()
    }
}

/// `record`'s encoding plus one key its field list does not carry (a
/// schema version, a derived verdict).
pub fn with_key(record: &impl Wire, key: &str, value: Value) -> Value {
    let mut v = record.encode().unwrap_or_else(|| Value::Map(Map::new()));
    if let Some(m) = v.as_map_mut() {
        m.insert(key.to_owned(), value);
    }
    v
}

/// `wire_fields!(Struct: field, field = default, …)` implements [`Wire`]
/// for a struct from one list of its fields; `= default` names the value
/// a missing key reads as. Every field's type must itself be [`Wire`].
#[macro_export]
macro_rules! wire_fields {
    ($ty:ty: $($field:ident $(= $default:expr)?),* $(,)?) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self) -> Option<$crate::wire::Value> {
                let mut m = $crate::wire::Map::new();
                $(if let Some(v) = $crate::wire::Wire::encode(&self.$field) {
                    m.insert(stringify!($field), v);
                })*
                Some($crate::wire::Value::Map(m))
            }
            fn decode(v: Option<&$crate::wire::Value>) -> Self {
                Self {
                    $($field: match v.and_then(|v| v.get_attr(stringify!($field))) {
                        $(None => $default,)?
                        found => $crate::wire::Wire::decode(found),
                    },)*
                }
            }
        }
    };
}
