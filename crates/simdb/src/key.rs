//! Table schemas and primary keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use beldi_value::{Name, Value};

use crate::error::{DbError, DbResult};

/// Schema of a table: a hash (partition) attribute, an optional sort
/// attribute, and storage limits.
///
/// The linked DAAL uses `hash = Key`, `sort = RowId` (paper §4.1), so that a
/// [`crate::Database::query`] on `Key` returns every row of one item's DAAL.
/// Its attribute names are [`Name`]s, which a fresh row's key borrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Name of the hash-key attribute.
    pub hash_attr: Name,
    /// Name of the sort-key attribute, if the table has one.
    pub sort_attr: Option<Name>,
    /// Maximum row size in bytes (DynamoDB: 400 KB).
    pub max_row_bytes: usize,
    /// Secondary index attributes (exact-match lookup).
    pub index_attrs: Vec<Name>,
}

/// DynamoDB's documented item size limit in bytes.
pub const DYNAMO_ROW_LIMIT: usize = 400 * 1024;

impl TableSchema {
    /// Creates a hash-only schema with the DynamoDB row limit.
    pub fn hash_only(hash_attr: impl Into<Name>) -> Self {
        TableSchema {
            hash_attr: hash_attr.into(),
            sort_attr: None,
            max_row_bytes: DYNAMO_ROW_LIMIT,
            index_attrs: Vec::new(),
        }
    }

    /// Creates a hash+sort schema with the DynamoDB row limit.
    pub fn hash_and_sort(hash_attr: impl Into<Name>, sort_attr: impl Into<Name>) -> Self {
        TableSchema {
            hash_attr: hash_attr.into(),
            sort_attr: Some(sort_attr.into()),
            max_row_bytes: DYNAMO_ROW_LIMIT,
            index_attrs: Vec::new(),
        }
    }

    /// Sets the row size limit (builder style).
    pub fn with_max_row_bytes(mut self, limit: usize) -> Self {
        self.max_row_bytes = limit;
        self
    }

    /// Adds a secondary index on an attribute (builder style).
    pub fn with_index(mut self, attr: impl Into<Name>) -> Self {
        self.index_attrs.push(attr.into());
        self
    }

    /// Extracts the primary key from an item, validating presence.
    pub fn key_of(&self, item: &Value) -> DbResult<PrimaryKey> {
        let hash = item
            .get_attr(&self.hash_attr)
            .cloned()
            .ok_or_else(|| DbError::BadKey(format!("missing hash attr `{}`", self.hash_attr)))?;
        let sort = match &self.sort_attr {
            Some(s) => Some(
                item.get_attr(s)
                    .cloned()
                    .ok_or_else(|| DbError::BadKey(format!("missing sort attr `{s}`")))?,
            ),
            None => None,
        };
        Ok(PrimaryKey::new(hash, sort))
    }

    /// Refuses an updated row stored at `key` whose key attributes are no
    /// longer `key`: an update may not re-file a row.
    pub(crate) fn check_key(&self, item: &Value, key: &PrimaryKey) -> DbResult<()> {
        let sort = self.sort_attr.as_ref().and_then(|s| item.get_attr(s));
        if item.get_attr(&self.hash_attr) == Some(&key.hash) && sort == key.sort.as_ref() {
            return Ok(());
        }
        Err(DbError::BadKey(format!(
            "an update changed the key of {key}"
        )))
    }
}

/// A row's primary key: hash value plus optional sort value.
///
/// Ordered by `(hash, sort)` so that a table iterates in query order.
/// The key also carries an order-preserving prefix of its hash value,
/// built by its constructors (the fields are private, so it cannot go
/// stale): comparison looks at that `u64` first and reaches the values
/// only on a tie, so a B-tree search compares most keys inside the node
/// without following a string's pointer. Equality, hash and `Debug` are
/// those of `(hash, sort)`.
#[derive(Clone)]
pub struct PrimaryKey {
    prefix: u64,
    hash: Value,
    sort: Option<Value>,
}

impl PrimaryKey {
    /// Creates a key from its hash value and, when the table has a sort
    /// attribute, its sort value.
    pub fn new(hash: Value, sort: Option<Value>) -> Self {
        PrimaryKey {
            prefix: prefix(&hash),
            hash,
            sort,
        }
    }

    /// Creates a hash-only key.
    pub fn hash(hash: impl Into<Value>) -> Self {
        PrimaryKey::new(hash.into(), None)
    }

    /// Creates a hash+sort key.
    pub fn hash_sort(hash: impl Into<Value>, sort: impl Into<Value>) -> Self {
        PrimaryKey::new(hash.into(), Some(sort.into()))
    }

    /// The hash (partition) key value.
    pub fn hash_value(&self) -> &Value {
        &self.hash
    }

    /// The sort key value, if the table has a sort attribute.
    pub fn sort_value(&self) -> Option<&Value> {
        self.sort.as_ref()
    }
}

/// An order-preserving summary of `v`: the rank of its kind (as
/// [`Value`]'s order ranks them) in the top byte, then the first 7 bytes
/// of what orders values of that kind, zero-padded. `a < b` implies
/// `prefix(a) <= prefix(b)`, and equal values have equal prefixes; equal
/// prefixes decide nothing.
fn prefix(v: &Value) -> u64 {
    let (rank, body) = match v {
        Value::Null => (0, 0),
        Value::Bool(b) => (1, u64::from(*b)),
        Value::Int(i) => (2, int_prefix(*i)),
        Value::Float(x) => (2, float_prefix(*x)),
        Value::Str(s) => (3, bytes_prefix(s.as_bytes())),
        Value::Bytes(b) => (4, bytes_prefix(b)),
        Value::List(_) => (5, 0),
        Value::Map(_) => (6, 0),
    };
    (rank << 56) | body
}

/// The largest 7-byte prefix.
const MAX_PREFIX: u64 = (1 << 56) - 1;

/// The top 7 bytes of `i` in unsigned order.
fn int_prefix(i: i64) -> u64 {
    (i as u64 ^ 1 << 63) >> 8
}

/// A float's place among the ints, which it compares with exactly: the
/// prefix of its floor, or an end for a float beyond every int (NaNs by
/// sign, as `f64::total_cmp` orders them).
fn float_prefix(x: f64) -> u64 {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    match x {
        x if x.is_nan() && x.is_sign_negative() => 0,
        x if x.is_nan() || x >= TWO_63 => MAX_PREFIX,
        x if x < -TWO_63 => 0,
        x => int_prefix(x.floor() as i64),
    }
}

/// The first 7 bytes, zero-padded: a shorter string is never after a
/// longer one that starts with it.
fn bytes_prefix(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = b.len().min(7);
    buf[1..=n].copy_from_slice(&b[..n]);
    u64::from_be_bytes(buf)
}

impl PartialEq for PrimaryKey {
    fn eq(&self, other: &Self) -> bool {
        self.prefix == other.prefix && self.hash == other.hash && self.sort == other.sort
    }
}

impl Eq for PrimaryKey {}

impl PartialOrd for PrimaryKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PrimaryKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prefix
            .cmp(&other.prefix)
            .then_with(|| self.hash.cmp(&other.hash))
            .then_with(|| self.sort.cmp(&other.sort))
    }
}

impl Hash for PrimaryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash.hash(state);
        self.sort.hash(state);
    }
}

impl fmt::Debug for PrimaryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrimaryKey")
            .field("hash", &self.hash)
            .field("sort", &self.sort)
            .finish()
    }
}

impl fmt::Display for PrimaryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sort {
            Some(s) => write!(f, "({}, {})", self.hash, s),
            None => write!(f, "({})", self.hash),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi_value::{vmap, Fnv1a};
    use proptest::prelude::*;

    #[test]
    fn key_extraction() {
        let schema = TableSchema::hash_and_sort("Key", "RowId");
        let item = vmap! { "Key" => "k1", "RowId" => 0i64, "Value" => "v" };
        let k = schema.key_of(&item).unwrap();
        assert_eq!(k, PrimaryKey::hash_sort("k1", 0i64));
    }

    #[test]
    fn missing_key_attrs_rejected() {
        let schema = TableSchema::hash_and_sort("Key", "RowId");
        assert!(matches!(
            schema.key_of(&vmap! { "Key" => "k1" }),
            Err(DbError::BadKey(_))
        ));
        assert!(matches!(
            schema.key_of(&vmap! { "RowId" => 1i64 }),
            Err(DbError::BadKey(_))
        ));
    }

    #[test]
    fn keys_order_by_hash_then_sort() {
        let a = PrimaryKey::hash_sort("a", 0i64);
        let b = PrimaryKey::hash_sort("a", 1i64);
        let c = PrimaryKey::hash_sort("b", 0i64);
        assert!(a < b && b < c);
    }

    #[test]
    fn builder_options() {
        let s = TableSchema::hash_only("Id")
            .with_max_row_bytes(1024)
            .with_index("Done");
        assert_eq!(s.max_row_bytes, 1024);
        assert_eq!(s.index_attrs, ["Done"]);
        assert!(s.sort_attr.is_none());
    }

    /// Ints at the edges a prefix can get wrong: the ends of `i64`, zero,
    /// neighbours that differ only below the top 7 bytes, and ±2^53, past
    /// which `as f64` rounds.
    const INTS: [i64; 11] = [
        i64::MIN,
        -(1 << 53),
        -(1 << 53) + 256,
        -256,
        -1,
        0,
        255,
        256,
        1 << 53,
        (1 << 53) + 256,
        i64::MAX,
    ];

    /// Floats no int equals, and the ends of the order.
    const FLOATS: [f64; 10] = [
        -0.0,
        0.5,
        -0.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        9_223_372_036_854_775_808.0,
        -9_223_372_036_854_775_808.0,
        -9_223_372_036_854_777_856.0,
    ];

    /// Starts that make strings share their first 7 bytes, or hold NULs
    /// inside them.
    const STARTS: [&str; 4] = ["", "abcdefg", "abcdef\0", "a\0"];

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0..1usize).prop_map(|_| Value::Null),
            (0..2usize).prop_map(|b| Value::Bool(b == 1)),
            (0..INTS.len(), -2i64..3).prop_map(|(i, d)| Value::Int(INTS[i].saturating_add(d))),
            // An int's own value as a float, or just beside it.
            (0..INTS.len(), -1i64..2)
                .prop_map(|(i, d)| Value::Float(INTS[i] as f64 + d as f64 * 0.25)),
            (0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
            (0..STARTS.len(), "[ab\0]{0,13}")
                .prop_map(|(i, tail)| Value::from(format!("{}{tail}", STARTS[i]))),
            prop::collection::vec(0..3u8, 0..21).prop_map(Value::Bytes),
        ]
    }

    fn key() -> impl Strategy<Value = PrimaryKey> {
        (value(), 0..3usize, value())
            .prop_map(|(hash, n, sort)| PrimaryKey::new(hash, (n > 0).then_some(sort)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The prefix only ever decides what the values would: a key
        /// orders, equals and hashes as its `(hash, sort)` values.
        #[test]
        fn a_key_compares_as_its_values(keys in prop::collection::vec(key(), 2..12)) {
            for a in &keys {
                for b in &keys {
                    let by_value =
                        (a.hash_value(), a.sort_value()).cmp(&(b.hash_value(), b.sort_value()));
                    prop_assert_eq!(a.cmp(b), by_value, "{:?} against {:?}", a, b);
                    prop_assert_eq!(a == b, by_value.is_eq(), "{:?} against {:?}", a, b);
                    if a == b {
                        prop_assert_eq!(Fnv1a::digest(a), Fnv1a::digest(b));
                    }
                }
            }
        }
    }
}
