//! Hash partitions: the unit of locking and atomicity inside a table.
//!
//! Beldi's correctness argument needs only *row-scope* atomic conditional
//! updates (§2.2), so the simulated store does not have to serialize a
//! whole table behind one mutex. Each table is split into `P` partitions;
//! a row lives in the partition selected by hashing its hash-key value, so
//! every row of one item's DAAL (same hash key) shares a partition and the
//! per-partition mutex remains a strict superset of the row-scope
//! atomicity DynamoDB guarantees. Secondary indexes and the distinct-key
//! listing are maintained per partition and merged on read.
//!
//! Routing must be deterministic (benchmarks replay fixed op sequences
//! across partition counts) and consistent with [`Value`]'s equality — two
//! keys that compare equal must route identically — so it feeds
//! [`Value::hash`] (which already matches `Eq`, e.g. `Int(1)` vs
//! `Float(1.0)`) into a fixed FNV-1a hasher rather than a randomly keyed
//! std hasher.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use beldi_value::{Fnv1a, SizeOf, Value};

use crate::error::{DbError, DbResult};
use crate::key::{PrimaryKey, TableSchema};

/// Default number of partitions per table.
///
/// Eight is small enough that single-threaded workloads pay no visible
/// cost and large enough that the multi-threaded experiment harnesses stop
/// serializing on storage before they saturate the simulated platform.
pub const DEFAULT_PARTITIONS: usize = 8;

/// Routes a hash-key value to a partition index in `0..partitions`
/// (FNV-1a over the value's content hash — see `beldi_value::Fnv1a`).
pub(crate) fn route(hash_key: &Value, partitions: usize) -> usize {
    if partitions <= 1 {
        return 0;
    }
    (Fnv1a::digest(hash_key) % partitions as u64) as usize
}

/// The mutable state of one partition (rows + index shards), always
/// accessed under the owning partition's lock.
#[derive(Debug)]
pub(crate) struct PartitionData {
    /// Rows of this partition, ordered by `(hash, sort)`.
    pub(crate) rows: BTreeMap<PrimaryKey, Value>,
    /// index attribute name -> indexed value -> set of row keys
    /// (restricted to rows of this partition; readers merge shards).
    indexes: HashMap<String, BTreeMap<Value, BTreeSet<PrimaryKey>>>,
}

impl PartitionData {
    /// Creates an empty partition with one index shard per indexed
    /// attribute of the schema.
    pub(crate) fn new(schema: &TableSchema) -> Self {
        let mut indexes = HashMap::new();
        for attr in &schema.index_attrs {
            indexes.insert(attr.clone(), BTreeMap::new());
        }
        PartitionData {
            rows: BTreeMap::new(),
            indexes,
        }
    }

    /// Inserts or replaces a full row, enforcing the size limit and
    /// maintaining index shards. Returns the stored size in bytes.
    ///
    /// The caller routes and extracts `key` (the schema lives outside the
    /// partition locks).
    pub(crate) fn put_row(
        &mut self,
        key: PrimaryKey,
        item: Value,
        max_row_bytes: usize,
    ) -> DbResult<usize> {
        let size = item.size_bytes();
        if size > max_row_bytes {
            return Err(DbError::RowTooLarge {
                size,
                limit: max_row_bytes,
            });
        }
        // Remove the old row outright instead of cloning it just to
        // unindex: the map entry is about to be replaced anyway.
        if let Some(old) = self.rows.remove(&key) {
            self.unindex_row(&key, &old);
        }
        self.index_row(&key, &item);
        self.rows.insert(key, item);
        Ok(size)
    }

    /// Removes a row, maintaining index shards. Returns the removed row.
    pub(crate) fn remove_row(&mut self, key: &PrimaryKey) -> Option<Value> {
        let row = self.rows.remove(key)?;
        self.unindex_row(key, &row);
        Some(row)
    }

    fn index_row(&mut self, key: &PrimaryKey, row: &Value) {
        for (attr, index) in self.indexes.iter_mut() {
            if let Some(v) = row.get_attr(attr) {
                index.entry(v.clone()).or_default().insert(key.clone());
            }
        }
    }

    fn unindex_row(&mut self, key: &PrimaryKey, row: &Value) {
        for (attr, index) in self.indexes.iter_mut() {
            if let Some(v) = row.get_attr(attr) {
                if let Some(set) = index.get_mut(v) {
                    set.remove(key);
                    if set.is_empty() {
                        index.remove(v);
                    }
                }
            }
        }
    }

    /// Looks up this partition's row keys via a secondary-index shard, in
    /// key order. Readers merge the shards of all partitions.
    pub(crate) fn index_lookup(&self, attr: &str, value: &Value) -> DbResult<Vec<PrimaryKey>> {
        let index = self
            .indexes
            .get(attr)
            .ok_or_else(|| DbError::IndexNotFound(attr.to_owned()))?;
        Ok(index
            .get(value)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default())
    }

    /// Returns the distinct hash-key values present in this partition, in
    /// sorted order. Readers merge (and re-sort) across partitions.
    ///
    /// The literal `getAllDataKeys` of the paper's Fig. 10; the garbage
    /// collector uses it on shadow tables only (data tables go through
    /// the sparse appended-row index).
    pub(crate) fn distinct_hash_keys(&self) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        for key in self.rows.keys() {
            if out.last() != Some(&key.hash) {
                out.push(key.hash.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi_value::vmap;

    fn schema() -> TableSchema {
        TableSchema::hash_and_sort("Key", "RowId")
            .with_index("Done")
            .with_max_row_bytes(200)
    }

    fn row(k: &str, r: i64, done: bool) -> Value {
        vmap! { "Key" => k, "RowId" => r, "Done" => done }
    }

    fn put(p: &mut PartitionData, s: &TableSchema, item: Value) -> DbResult<usize> {
        let key = s.key_of(&item)?;
        p.put_row(key, item, s.max_row_bytes)
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for parts in [1usize, 2, 8, 31] {
            for i in 0..100i64 {
                let v = Value::from(format!("k{i}"));
                let a = route(&v, parts);
                assert_eq!(a, route(&v, parts));
                assert!(a < parts);
            }
        }
    }

    #[test]
    fn routing_agrees_with_value_equality() {
        // Int(1) == Float(1.0) under Value's total order; routing must not
        // split them across partitions.
        assert_eq!(
            route(&Value::Int(1), 8),
            route(&Value::Float(1.0), 8),
            "equal keys must route identically"
        );
    }

    #[test]
    fn routing_spreads_keys() {
        let parts = 8;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64i64 {
            seen.insert(route(&Value::from(format!("k{i}")), parts));
        }
        assert!(seen.len() > 1, "all keys landed in one partition");
    }

    #[test]
    fn put_get_remove() {
        let s = schema();
        let mut p = PartitionData::new(&s);
        put(&mut p, &s, row("a", 0, false)).unwrap();
        let k = PrimaryKey::hash_sort("a", 0i64);
        assert!(p.rows.contains_key(&k));
        let removed = p.remove_row(&k).unwrap();
        assert_eq!(removed.get_str("Key"), Some("a"));
        assert!(p.rows.is_empty());
    }

    #[test]
    fn size_limit_enforced_without_mutation() {
        let s = schema();
        let mut p = PartitionData::new(&s);
        put(&mut p, &s, row("a", 0, false)).unwrap();
        let big = vmap! { "Key" => "a", "RowId" => 0i64, "V" => "x".repeat(500) };
        assert!(matches!(
            put(&mut p, &s, big),
            Err(DbError::RowTooLarge { .. })
        ));
        // The oversized put must not have disturbed the existing row or
        // its index entries.
        let k = PrimaryKey::hash_sort("a", 0i64);
        assert!(p.rows.contains_key(&k));
        assert_eq!(p.index_lookup("Done", &Value::Bool(false)).unwrap(), [k]);
    }

    #[test]
    fn index_tracks_puts_updates_and_removes() {
        let s = schema();
        let mut p = PartitionData::new(&s);
        put(&mut p, &s, row("a", 0, false)).unwrap();
        put(&mut p, &s, row("b", 0, false)).unwrap();
        assert_eq!(
            p.index_lookup("Done", &Value::Bool(false)).unwrap().len(),
            2
        );

        // Flip one to done via an overwriting put.
        let k = PrimaryKey::hash_sort("a", 0i64);
        put(&mut p, &s, row("a", 0, true)).unwrap();
        assert_eq!(
            p.index_lookup("Done", &Value::Bool(false)).unwrap().len(),
            1
        );
        assert_eq!(
            p.index_lookup("Done", &Value::Bool(true)).unwrap(),
            vec![k.clone()]
        );

        p.remove_row(&k);
        assert!(p
            .index_lookup("Done", &Value::Bool(true))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_lookup_unknown_index_is_error() {
        let p = PartitionData::new(&schema());
        assert!(matches!(
            p.index_lookup("Nope", &Value::Bool(true)),
            Err(DbError::IndexNotFound(_))
        ));
    }

    #[test]
    fn distinct_hash_keys_deduplicates() {
        let s = schema();
        let mut p = PartitionData::new(&s);
        put(&mut p, &s, row("a", 0, false)).unwrap();
        put(&mut p, &s, row("a", 1, false)).unwrap();
        put(&mut p, &s, row("b", 0, false)).unwrap();
        assert_eq!(
            p.distinct_hash_keys(),
            vec![Value::from("a"), Value::from("b")]
        );
    }
}
