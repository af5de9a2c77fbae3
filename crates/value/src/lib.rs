//! Dynamic values and a small expression language for the Beldi reproduction.
//!
//! NoSQL stores such as DynamoDB, Bigtable, and Cosmos DB hold
//! schema-less attribute maps and support *conditional updates*: an atomic
//! read-modify-write of a single row, gated on a condition expression.
//! Beldi's correctness (OSDI 2020, §4) rests entirely on such conditional
//! updates, so this crate provides:
//!
//! - [`Value`] — a JSON-like dynamic value with a total order, shared
//!   strings and maps, and DynamoDB-style size accounting,
//! - [`Name`] — a map key: a borrowed constant or a shared string,
//! - [`Path`] — dotted attribute paths (`RecentWrites.instance:3`),
//! - [`Cond`] — a condition-expression AST evaluated against a row,
//! - [`Update`] — an update-expression AST applied atomically to a row.
//!
//! The simulated database (`beldi-simdb`) evaluates [`Cond`]/[`Update`]
//! under a per-row atomicity scope; the Beldi library builds its wrappers
//! (read/write/condWrite of Figs. 5, 6, 17 in the paper) on top of them.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod cond;
mod error;
pub mod fnv;
pub mod json;
mod map;
mod name;
mod path;
mod size;
mod undo;
mod update;
mod value;

pub use cond::Cond;
pub use error::{ValueError, ValueResult};
pub use fnv::Fnv1a;
pub use map::{IntoIter, Iter, IterMut, Map};
pub use name::Name;
pub use path::{Path, PathSegment};
pub use size::SizeOf;
pub use update::{UndoLog, Update, UpdateAction};
pub use value::{Kind, Value};

/// Builds a [`Value::Map`] from `key => value` pairs. A key is anything
/// that converts into a [`Name`]: a constant is borrowed, not copied.
///
/// # Examples
///
/// ```
/// use beldi_value::{vmap, Value};
///
/// let v = vmap! { "name" => "ada", "age" => 36i64 };
/// assert_eq!(v.get_attr("name"), Some(&Value::from("ada")));
/// ```
#[macro_export]
macro_rules! vmap {
    () => { $crate::Value::Map($crate::Map::new()) };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut m = $crate::Map::with_capacity([$( ::std::stringify!($k) ),+].len());
        $( m.insert($k, $crate::Value::from($v)); )+
        $crate::Value::Map(m)
    }};
}

/// Builds a [`Value::List`] from values.
///
/// # Examples
///
/// ```
/// use beldi_value::{vlist, Value};
///
/// let v = vlist![1i64, "two", true];
/// assert_eq!(v.as_list().unwrap().len(), 3);
/// ```
#[macro_export]
macro_rules! vlist {
    () => { $crate::Value::List(::std::vec::Vec::new()) };
    ( $( $v:expr ),+ $(,)? ) => {
        $crate::Value::List(::std::vec![ $( $crate::Value::from($v) ),+ ])
    };
}
