//! Table schemas and primary keys.

use std::fmt;

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
        Ok(PrimaryKey { hash, sort })
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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrimaryKey {
    /// The hash (partition) key value.
    pub hash: Value,
    /// The sort key value, if the table has a sort attribute.
    pub sort: Option<Value>,
}

impl PrimaryKey {
    /// Creates a hash-only key.
    pub fn hash(hash: impl Into<Value>) -> Self {
        PrimaryKey {
            hash: hash.into(),
            sort: None,
        }
    }

    /// Creates a hash+sort key.
    pub fn hash_sort(hash: impl Into<Value>, sort: impl Into<Value>) -> Self {
        PrimaryKey {
            hash: hash.into(),
            sort: Some(sort.into()),
        }
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
    use beldi_value::vmap;

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
}
