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

use beldi_value::{Fnv1a, Name, SizeOf, Update, Value};

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
    indexes: HashMap<Name, BTreeMap<Value, BTreeSet<PrimaryKey>>>,
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

    /// Applies `update` to the stored row at `key`, in place: no copy of
    /// the row is made, unless a reader still holds a handle to its map
    /// (then the levels written are copied first and the reader keeps what
    /// it read). Returns the new size in bytes.
    ///
    /// All or nothing: if an action fails, the result is over the
    /// schema's `max_row_bytes`, or it would re-file the row (its key
    /// attributes no longer `key`: [`DbError::BadKey`], as DynamoDB
    /// refuses), the update is taken back ([`beldi_value::UndoLog`]) and
    /// the row and the index shards are exactly as before. Index shards
    /// move only for attributes the update names.
    ///
    /// # Panics
    ///
    /// If there is no row at `key` (the caller evaluated its condition
    /// against it, under the same lock).
    pub(crate) fn update_row(
        &mut self,
        key: &PrimaryKey,
        update: &Update,
        schema: &TableSchema,
    ) -> DbResult<usize> {
        let row = self.rows.get_mut(key).expect("update_row: no such row");
        // The indexed attributes the update can change (an empty path
        // replaces the row, so names them all), with their values now.
        let mut named = Vec::new();
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "each named index is moved on its own below: their order does not matter"
        )]
        for (attr, index) in self.indexes.iter_mut() {
            let names =
                |p: &beldi_value::Path| p.root_attr().is_none_or(|root| root == attr.as_str());
            if update.actions().iter().any(|a| names(a.path())) {
                named.push((attr.as_str(), index, row.get_attr(attr).cloned()));
            }
        }
        let undo = update.apply_undoable(row)?;
        let size = row.size_bytes();
        let checked = if size > schema.max_row_bytes {
            Err(DbError::RowTooLarge {
                size,
                limit: schema.max_row_bytes,
            })
        } else {
            schema.check_key(row, key)
        };
        if let Err(e) = checked {
            undo.rollback(row);
            return Err(e);
        }
        for (attr, index, old) in named {
            let new = row.get_attr(attr);
            if old.as_ref() == new {
                continue;
            }
            if let Some(old) = &old {
                unindex(index, old, key);
            }
            if let Some(new) = new {
                index.entry(new.clone()).or_default().insert(key.clone());
            }
        }
        Ok(size)
    }

    /// Removes a row, maintaining index shards. Returns the removed row.
    pub(crate) fn remove_row(&mut self, key: &PrimaryKey) -> Option<Value> {
        let row = self.rows.remove(key)?;
        self.unindex_row(key, &row);
        Some(row)
    }

    fn index_row(&mut self, key: &PrimaryKey, row: &Value) {
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "each index shard is written on its own: their order does not matter"
        )]
        for (attr, index) in self.indexes.iter_mut() {
            if let Some(v) = row.get_attr(attr) {
                index.entry(v.clone()).or_default().insert(key.clone());
            }
        }
    }

    fn unindex_row(&mut self, key: &PrimaryKey, row: &Value) {
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "each index shard is written on its own: their order does not matter"
        )]
        for (attr, index) in self.indexes.iter_mut() {
            if let Some(v) = row.get_attr(attr) {
                unindex(index, v, key);
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

/// Drops `key` from the entry of `value` in one index shard.
fn unindex(index: &mut BTreeMap<Value, BTreeSet<PrimaryKey>>, value: &Value, key: &PrimaryKey) {
    if let Some(set) = index.get_mut(value) {
        set.remove(key);
        if set.is_empty() {
            index.remove(value);
        }
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

    // ---- In-place update against its specification ----

    use crate::scan::Projection;
    use beldi_value::{Map, Path, PathSegment, UpdateAction};
    use proptest::prelude::*;

    /// The specification of an update, written the obvious way: by
    /// recursion, on a copy that is thrown away when an action fails.
    /// `None` is failure.
    fn spec_apply(update: &Update, row: &Value) -> Option<Value> {
        fn get<'v>(v: &'v Value, segs: &[PathSegment]) -> Result<Option<&'v Value>, ()> {
            let Some((first, rest)) = segs.split_first() else {
                return Ok(Some(v));
            };
            match (first, v) {
                (PathSegment::Attr(a), Value::Map(m)) => match m.get(a.as_str()) {
                    Some(inner) => get(inner, rest),
                    None => Ok(None),
                },
                (PathSegment::Index(i), Value::List(l)) => match l.get(*i) {
                    Some(inner) => get(inner, rest),
                    None => Ok(None),
                },
                _ => Err(()),
            }
        }
        fn set(v: &mut Value, segs: &[PathSegment], new: Value) -> Result<(), ()> {
            let Some((first, rest)) = segs.split_first() else {
                *v = new;
                return Ok(());
            };
            match (first, v) {
                (PathSegment::Attr(a), Value::Map(m)) if rest.is_empty() => {
                    m.insert(a.clone(), new);
                    Ok(())
                }
                (PathSegment::Attr(a), Value::Map(m)) => {
                    let inner = m.entry(a.clone()).or_insert(Value::Map(Map::new()));
                    set(inner, rest, new)
                }
                (PathSegment::Index(i), Value::List(l)) if rest.is_empty() && *i == l.len() => {
                    l.push(new);
                    Ok(())
                }
                (PathSegment::Index(i), Value::List(l)) => set(l.get_mut(*i).ok_or(())?, rest, new),
                _ => Err(()),
            }
        }
        /// Removing what is not there — or cannot be reached — is a no-op.
        fn remove(v: &mut Value, segs: &[PathSegment]) {
            match (segs, v) {
                ([PathSegment::Attr(a)], Value::Map(m)) => {
                    m.remove(a.as_str());
                }
                ([PathSegment::Index(i)], Value::List(l)) if *i < l.len() => {
                    l.remove(*i);
                }
                ([PathSegment::Attr(a), rest @ ..], Value::Map(m)) => {
                    if let Some(inner) = m.get_mut(a.as_str()) {
                        remove(inner, rest);
                    }
                }
                ([PathSegment::Index(i), rest @ ..], Value::List(l)) => {
                    if let Some(inner) = l.get_mut(*i) {
                        remove(inner, rest);
                    }
                }
                _ => {}
            }
        }
        let mut copy = row.clone();
        for action in update.actions() {
            let segs = action.path().segments();
            match action {
                UpdateAction::Set(_, v) => set(&mut copy, segs, v.clone()).ok()?,
                UpdateAction::SetIfAbsent(_, v) => {
                    if get(&copy, segs).ok()?.is_none() {
                        set(&mut copy, segs, v.clone()).ok()?;
                    }
                }
                UpdateAction::Inc(_, delta) => {
                    let cur = match get(&copy, segs).ok()? {
                        Some(Value::Int(i)) => *i,
                        Some(_) => return None,
                        None => 0,
                    };
                    set(&mut copy, segs, Value::Int(cur.checked_add(*delta)?)).ok()?;
                }
                UpdateAction::Remove(_) if segs.is_empty() => return None,
                UpdateAction::Remove(_) => remove(&mut copy, segs),
            }
        }
        Some(copy)
    }

    /// Paths chosen to meet every kind of node — and every way to fail,
    /// some only after an intermediate map was created.
    const PATHS: [&str; 16] = [
        "Done",
        "Group",
        "N",
        "S",
        "M.a",
        "M.b.c",
        "L[0]",
        "L[1]",
        "L[2]",
        "L[7]",
        "L[0].x",
        "S.x",
        "New.deep.leaf",
        "New.deep[0].z",
        "New.deep.leaf.under",
        "M",
    ];

    fn path(i: usize) -> Path {
        match PATHS.get(i) {
            Some(p) => Path::parse(p).unwrap(),
            None => Path::new(Vec::new()), // The whole row.
        }
    }

    fn value(i: usize) -> Value {
        match i {
            0 => Value::Null,
            1 => Value::Bool(true),
            2 => Value::Bool(false),
            3 => Value::Int(i64::MAX),
            4 => Value::Int(1),
            5 => Value::from("o1"),
            6 => Value::from("x".repeat(300)),
            7 => vmap! { "a" => 1i64, "Done" => true },
            _ => Value::List(vec![Value::Int(1), vmap! { "x" => 2i64 }]),
        }
    }

    fn action() -> impl Strategy<Value = UpdateAction> {
        let (p, v) = (0..PATHS.len() + 1, 0..9usize);
        prop_oneof![
            (p.clone(), v.clone()).prop_map(|(p, v)| UpdateAction::Set(path(p), value(v))),
            (p.clone(), v).prop_map(|(p, v)| UpdateAction::SetIfAbsent(path(p), value(v))),
            (p.clone(), 0..3usize)
                .prop_map(|(p, d)| UpdateAction::Inc(path(p), [1, -1, i64::MAX][d])),
            p.prop_map(|p| UpdateAction::Remove(path(p))),
        ]
    }

    /// A row holding the attributes `mask` selects, at values `pick` varies.
    fn random_row(mask: usize, pick: usize) -> Value {
        let mut m = Map::new();
        m.insert("Key", "k".into());
        m.insert("RowId", Value::Int(0));
        let optional = [
            ("Done", value(1 + pick % 2)),
            ("Group", value(5)),
            ("N", value(3 + pick % 2)),
            ("S", Value::from("s")),
            ("M", vmap! { "a" => 1i64, "b" => vmap! { "c" => 2i64 } }),
            ("L", value(8)),
            ("New", vmap! { "deep" => vmap! {} }),
        ];
        for (bit, (name, v)) in optional.into_iter().enumerate() {
            if mask & (1 << bit) != 0 {
                m.insert(name, v);
            }
        }
        Value::Map(m)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// Updating the stored row in place is indistinguishable from the
        /// copy–apply–`put_row` it replaced: the same row, size and index
        /// shards when the update goes through, and nothing moved at all —
        /// row, neighbours, shards — when it does not. And a copy a reader
        /// took before never changes, whichever of the two happened.
        #[test]
        fn update_in_place_matches_copy_apply_put(
            mask in 0..128usize,
            pick in 0..4usize,
            actions in prop::collection::vec(action(), 1..6),
        ) {
            let s = TableSchema::hash_and_sort("Key", "RowId")
                .with_index("Done")
                .with_index("Group")
                .with_max_row_bytes(400);
            let update = actions.into_iter().fold(Update::new(), Update::push);
            let row = random_row(mask, pick);
            let key = s.key_of(&row).unwrap();
            let neighbour = vmap! { "Key" => "k", "RowId" => 1i64, "Done" => true, "Group" => "o1" };
            let mut p = PartitionData::new(&s);
            put(&mut p, &s, neighbour).unwrap();
            put(&mut p, &s, row.clone()).unwrap();
            let mut reference = PartitionData::new(&s);
            reference.rows = p.rows.clone();
            reference.indexes = p.indexes.clone();

            // A reader's copies of the stored row, taken before the update:
            // the whole one shares its map with it, the projected one every
            // map under these attributes.
            let stored = &p.rows[&key];
            let whole = stored.clone();
            let projected = Projection::attrs(["M", "L", "New", "S"]).apply(stored);
            let printed = (format!("{row:?}"), format!("{projected:?}"));

            // The specification refuses an update that re-files the row.
            let spec = spec_apply(&update, &row).filter(|new| s.key_of(new).ok().as_ref() == Some(&key));
            let expected = spec
                .clone()
                .ok_or(())
                .and_then(|new| reference.put_row(key.clone(), new, s.max_row_bytes).map_err(drop));
            let got = p.update_row(&key, &update, &s);
            // Gone through, failed or rolled back: the reader saw none of it.
            prop_assert_eq!(
                (format!("{whole:?}"), format!("{projected:?}")), printed, "{} on {}", update, row
            );
            prop_assert_eq!(got.as_ref().ok(), expected.as_ref().ok(), "{} on {}", update, row);
            if let (Err(e), Some(new)) = (&got, spec) {
                prop_assert!(matches!(e, DbError::RowTooLarge { size, .. } if *size == new.size_bytes()));
            }
            // On failure `reference` is the untouched copy of the input.
            prop_assert_eq!(
                format!("{:?}", p.rows), format!("{:?}", reference.rows), "{} on {}", update, row
            );
            prop_assert_eq!(&p.indexes, &reference.indexes, "{} on {}", update, row);
        }
    }
}
