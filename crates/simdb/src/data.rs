//! The rows and secondary indexes of one table, always accessed under
//! the table's lock.
//!
//! Beldi's correctness argument needs only *row-scope* atomic conditional
//! updates (§2.2); one mutex per table is a strict superset of that scope.
//! Rows are kept in one ordered map, so a query reads one hash key's rows
//! in sort order and a scan reads the whole table in key order.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

use beldi_value::{Cond, Map, Name, SizeOf, Update, Value};

use crate::error::{DbError, DbResult};
use crate::key::{PrimaryKey, TableSchema};

/// index attribute name -> indexed value -> set of row keys.
type Indexes = HashMap<Name, HashMap<Value, HashSet<PrimaryKey>>>;

/// The mutable state of one table (rows + indexes), always accessed
/// under the table's lock.
#[derive(Debug)]
pub(crate) struct TableData {
    /// The table's rows, ordered by `(hash, sort)`.
    pub(crate) rows: BTreeMap<PrimaryKey, Value>,
    /// Per indexed attribute, each value's set of row keys. A set grows in
    /// place; [`TableData::index_lookup`] reads it back in key order.
    indexes: Indexes,
}

/// Evaluates a write condition against the stored row, or against an
/// empty item when the row is absent (so `not_exists(attr)` holds for
/// absent rows, matching DynamoDB).
pub(crate) fn cond_holds(cond: &Cond, row: Option<&Value>) -> DbResult<bool> {
    Ok(match row {
        Some(row) => cond.eval(row)?,
        None => cond.eval(&Value::Map(Map::new()))?,
    })
}

/// [`DbError::ConditionFailed`] unless `cond` holds on `row`.
fn check(cond: &Cond, row: Option<&Value>) -> DbResult<()> {
    match cond_holds(cond, row)? {
        true => Ok(()),
        false => Err(DbError::ConditionFailed),
    }
}

impl TableData {
    /// Creates an empty table with one index per indexed attribute of
    /// the schema.
    pub(crate) fn new(schema: &TableSchema) -> Self {
        let mut indexes = HashMap::new();
        for attr in &schema.index_attrs {
            indexes.insert(attr.clone(), HashMap::new());
        }
        TableData {
            rows: BTreeMap::new(),
            indexes,
        }
    }

    /// Inserts or replaces a full row, enforcing the size limit and
    /// maintaining the indexes. Returns the stored size in bytes.
    ///
    /// The caller extracts `key` (the schema lives outside the table
    /// lock).
    pub(crate) fn put_row(
        &mut self,
        key: PrimaryKey,
        item: Value,
        max_row_bytes: usize,
    ) -> DbResult<usize> {
        let size = fits(item.size_bytes(), max_row_bytes)?;
        let TableData { rows, indexes } = self;
        match rows.entry(key) {
            Entry::Occupied(mut e) => {
                // The old row is moved out, not cloned, to be unindexed.
                let old = std::mem::replace(e.get_mut(), item);
                unindex_row(indexes, e.key(), &old);
                index_row(indexes, e.key(), e.get());
            }
            Entry::Vacant(e) => {
                index_row(indexes, e.key(), &item);
                e.insert(item);
            }
        }
        Ok(size)
    }

    /// Applies `update` to the stored row at `key` if `cond` holds on it,
    /// in place: no copy of the row is made, unless a reader still holds a
    /// handle to its map (then the levels written are copied first and the
    /// reader keeps what it read). With no row at `key`, `cond` is
    /// evaluated on the empty item and the update applied to a fresh row
    /// holding only the key attributes. Returns the new size in bytes and
    /// the updated row.
    ///
    /// All or nothing: if `cond` is false ([`DbError::ConditionFailed`]),
    /// an action fails, the result would re-file the row (its key
    /// attributes no longer `key`: [`DbError::BadKey`], as DynamoDB
    /// refuses) or is over the schema's `max_row_bytes`, checked in that
    /// order, the update is not applied or is taken back
    /// ([`beldi_value::UndoLog`]) and the row and the indexes are exactly
    /// as before. Indexes move only for attributes the update names.
    pub(crate) fn update_row(
        &mut self,
        key: &PrimaryKey,
        cond: &Cond,
        update: &Update,
        schema: &TableSchema,
    ) -> DbResult<(usize, &Value)> {
        let TableData { rows, indexes } = self;
        // One search: the condition is evaluated on the entry it guards.
        let row = match rows.entry(key.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                check(cond, None)?;
                // Seeded with the key attributes (the schema's names and
                // the key's values are shared handles, so this copies
                // nothing), with room for what the update adds.
                let mut m = Map::with_capacity(2 + update.actions().len());
                m.insert(schema.hash_attr.clone(), key.hash_value().clone());
                if let (Some(attr), Some(sort)) = (&schema.sort_attr, key.sort_value()) {
                    m.insert(attr.clone(), sort.clone());
                }
                let mut row = Value::Map(m);
                update.apply(&mut row)?;
                schema.check_key(&row, key)?;
                let size = fits(row.size_bytes(), schema.max_row_bytes)?;
                index_row(indexes, key, &row);
                return Ok((size, e.insert(row)));
            }
        };
        check(cond, Some(row))?;
        // The indexed attributes the update can change (an empty path
        // replaces the row, so names them all), with their values now;
        // sized to the table's indexes at the first one named.
        let (mut named, count) = (Vec::new(), indexes.len());
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "each named index is moved on its own below: their order does not matter"
        )]
        for (attr, index) in indexes.iter_mut() {
            let names =
                |p: &beldi_value::Path| p.root_attr().is_none_or(|root| root == attr.as_str());
            if update.actions().iter().any(|a| names(a.path())) {
                if named.is_empty() {
                    named.reserve_exact(count);
                }
                named.push((attr.as_str(), index, row.get_attr(attr).cloned()));
            }
        }
        let undo = update.apply_undoable(row)?;
        let checked = schema.check_key(row, key);
        let size = match checked.and_then(|()| fits(row.size_bytes(), schema.max_row_bytes)) {
            Ok(size) => size,
            Err(e) => {
                undo.rollback(row);
                return Err(e);
            }
        };
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
        Ok((size, row))
    }

    /// Removes the row at `key` if `cond` holds on it (on the empty item
    /// when there is none), maintaining the indexes. Returns the removed
    /// row.
    pub(crate) fn delete_row(&mut self, key: &PrimaryKey, cond: &Cond) -> DbResult<Option<Value>> {
        let TableData { rows, indexes } = self;
        // One search: the condition is evaluated on the entry it guards.
        match rows.entry(key.clone()) {
            Entry::Occupied(e) => {
                check(cond, Some(e.get()))?;
                let (key, row) = e.remove_entry();
                unindex_row(indexes, &key, &row);
                Ok(Some(row))
            }
            Entry::Vacant(_) => check(cond, None).map(|()| None),
        }
    }

    /// Looks up row keys via a secondary index, in key order.
    pub(crate) fn index_lookup(&self, attr: &str, value: &Value) -> DbResult<Vec<PrimaryKey>> {
        let index = self
            .indexes
            .get(attr)
            .ok_or_else(|| DbError::IndexNotFound(attr.to_owned()))?;
        let Some(set) = index.get(value) else {
            return Ok(Vec::new());
        };
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut keys: Vec<PrimaryKey> = set.iter().cloned().collect();
        keys.sort_unstable();
        Ok(keys)
    }

    /// Returns the distinct hash-key values of the table, in sorted order.
    ///
    /// The literal `getAllDataKeys` of the paper's Fig. 10; the garbage
    /// collector uses it on shadow tables only (data tables go through
    /// the sparse appended-row index).
    pub(crate) fn distinct_hash_keys(&self) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        for key in self.rows.keys() {
            if out.last() != Some(key.hash_value()) {
                out.push(key.hash_value().clone());
            }
        }
        out
    }
}

fn index_row(indexes: &mut Indexes, key: &PrimaryKey, row: &Value) {
    #[expect(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        reason = "each index is written on its own: their order does not matter"
    )]
    for (attr, index) in indexes.iter_mut() {
        if let Some(v) = row.get_attr(attr) {
            index.entry(v.clone()).or_default().insert(key.clone());
        }
    }
}

fn unindex_row(indexes: &mut Indexes, key: &PrimaryKey, row: &Value) {
    #[expect(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        reason = "each index is written on its own: their order does not matter"
    )]
    for (attr, index) in indexes.iter_mut() {
        if let Some(v) = row.get_attr(attr) {
            unindex(index, v, key);
        }
    }
}

/// `size`, when a row of that size fits under `limit`.
fn fits(size: usize, limit: usize) -> DbResult<usize> {
    match size > limit {
        true => Err(DbError::RowTooLarge { size, limit }),
        false => Ok(size),
    }
}

/// Drops `key` from the entry of `value` in one index.
fn unindex(index: &mut HashMap<Value, HashSet<PrimaryKey>>, value: &Value, key: &PrimaryKey) {
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

    fn put(p: &mut TableData, s: &TableSchema, item: Value) -> DbResult<usize> {
        let key = s.key_of(&item)?;
        p.put_row(key, item, s.max_row_bytes)
    }

    #[test]
    fn put_get_remove() {
        let s = schema();
        let mut p = TableData::new(&s);
        put(&mut p, &s, row("a", 0, false)).unwrap();
        let k = PrimaryKey::hash_sort("a", 0i64);
        assert!(p.rows.contains_key(&k));
        let removed = p.delete_row(&k, &Cond::True).unwrap().unwrap();
        assert_eq!(removed.get_str("Key"), Some("a"));
        assert!(p.rows.is_empty());
    }

    #[test]
    fn size_limit_enforced_without_mutation() {
        let s = schema();
        let mut p = TableData::new(&s);
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
        let mut p = TableData::new(&s);
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

        p.delete_row(&k, &Cond::True).unwrap();
        assert!(p
            .index_lookup("Done", &Value::Bool(true))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_lookup_unknown_index_is_error() {
        let p = TableData::new(&schema());
        assert!(matches!(
            p.index_lookup("Nope", &Value::Bool(true)),
            Err(DbError::IndexNotFound(_))
        ));
    }

    #[test]
    fn distinct_hash_keys_deduplicates() {
        let s = schema();
        let mut p = TableData::new(&s);
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
    use beldi_value::{Path, PathSegment, UpdateAction};
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
                    if !m.contains_key(a) {
                        m.insert(a.clone(), Value::Map(Map::new()));
                    }
                    set(m.get_mut(a).expect("just ensured"), rest, new)
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

    /// Conditions on the attributes [`random_row`] varies, each true on
    /// some of its rows and false on the others (but the first and last).
    fn condition(i: usize) -> Cond {
        match i {
            0 => Cond::True,
            1 => Cond::exists("Done"),
            2 => Cond::not_exists("Done"),
            3 => Cond::eq("Done", true),
            4 => Cond::eq("N", 1i64),
            5 => Cond::exists("M.b.c"),
            6 => Cond::not_exists("L").or(Cond::eq("N", i64::MAX)),
            _ => Cond::False,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// Updating the stored row in place is indistinguishable from the
        /// copy–apply–`put_row` it replaced: the same row, size and
        /// indexes when the update goes through, and nothing moved at all —
        /// row, neighbours, indexes — when it does not. A condition false on
        /// the row is one more way not to: `ConditionFailed`. And a copy a
        /// reader took before never changes, whichever of the two happened.
        #[test]
        fn update_in_place_matches_copy_apply_put(
            mask in 0..128usize,
            pick in 0..4usize,
            cond in 0..8usize,
            actions in prop::collection::vec(action(), 1..6),
        ) {
            let s = TableSchema::hash_and_sort("Key", "RowId")
                .with_index("Done")
                .with_index("Group")
                .with_max_row_bytes(400);
            let update = actions.into_iter().fold(Update::new(), Update::push);
            let row = random_row(mask, pick);
            let cond = condition(cond);
            let holds = cond.eval(&row).unwrap();
            let key = s.key_of(&row).unwrap();
            let neighbour = vmap! { "Key" => "k", "RowId" => 1i64, "Done" => true, "Group" => "o1" };
            let mut p = TableData::new(&s);
            put(&mut p, &s, neighbour).unwrap();
            put(&mut p, &s, row.clone()).unwrap();
            let mut reference = TableData::new(&s);
            reference.rows = p.rows.clone();
            reference.indexes = p.indexes.clone();

            // A reader's copies of the stored row, taken before the update:
            // the whole one shares its map with it, the projected one every
            // map under these attributes.
            let stored = &p.rows[&key];
            let whole = stored.clone();
            let projected = Projection::attrs(["M", "L", "New", "S"]).apply(stored);
            let printed = (format!("{row:?}"), format!("{projected:?}"));

            // The specification refuses an update that re-files the row, or
            // that its condition does not let through.
            let spec = spec_apply(&update, &row)
                .filter(|new| holds && s.key_of(new).ok().as_ref() == Some(&key));
            let expected = spec
                .clone()
                .ok_or(())
                .and_then(|new| reference.put_row(key.clone(), new, s.max_row_bytes).map_err(drop));
            let got = p.update_row(&key, &cond, &update, &s).map(|(size, _)| size);
            // Gone through, failed or rolled back: the reader saw none of it.
            prop_assert_eq!(
                (format!("{whole:?}"), format!("{projected:?}")), printed, "{} on {}", update, row
            );
            prop_assert_eq!(got.as_ref().ok(), expected.as_ref().ok(), "{} on {}", update, row);
            if let (Err(e), Some(new)) = (&got, spec) {
                prop_assert!(matches!(e, DbError::RowTooLarge { size, .. } if *size == new.size_bytes()));
            }
            if !holds {
                prop_assert_eq!(got, Err(DbError::ConditionFailed), "{} on {}", cond, row);
            }
            // On failure `reference` is the untouched copy of the input.
            prop_assert_eq!(
                format!("{:?}", p.rows), format!("{:?}", reference.rows), "{} on {}", update, row
            );
            prop_assert_eq!(&p.indexes, &reference.indexes, "{} on {}", update, row);
        }
    }
}
