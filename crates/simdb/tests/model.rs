//! The store against a reference model.
//!
//! Each case runs one random sequence of operations over two tables on
//! `Database::for_tests()` and on [`Model`]: one `BTreeMap` of rows per
//! table, every index answer recomputed by a linear scan. The model
//! evaluates conditions, updates and sizes with `beldi_value` (`Cond::eval`,
//! `Update::apply`, `SizeOf`), which has its own tests; what this test
//! checks is the store's bookkeeping. Each op must give the same result or
//! the same error, and its delta in the registry's `simdb.*` counters must
//! equal its bill: the formula DESIGN §7 states, written once per op in the
//! model. At the end the two snapshots must be equal. Each sequence runs
//! twice, on two stores: by table name, and through [`TableRef`]s resolved
//! once before the first op (the missing table's included).
#![expect(
    clippy::result_large_err,
    reason = "the reference returns a failed op's bill with its error; a test pays nothing for the size"
)]

use std::collections::BTreeMap;
use std::sync::Arc;

use beldi_simdb::{
    Database, DbError, MetricsSnapshot, PrimaryKey, Projection, ScanRequest, TableRef, TableSchema,
    TransactOp,
};
use beldi_value::{vmap, Cond, Map, Path, SizeOf, Update, UpdateAction, Value};
use proptest::prelude::*;

/// The DAAL's shape: hash + sort key, and a sparse index on `Tag`.
const DAAL: &str = "daal";
/// Hash-only, with a row cap small enough that `RowTooLarge` is common.
const KV: &str = "kv";
/// A table no op may find.
const MISSING: &str = "missing";
/// Rows a query or scan page examines.
const PAGE: usize = 32;

fn schema(table: &str) -> TableSchema {
    match table {
        DAAL => TableSchema::hash_and_sort("Key", "RowId").with_index("Tag"),
        _ => TableSchema::hash_only("Id").with_max_row_bytes(40),
    }
}

/// An op's bill: its delta in the store's counters.
type Bill = MetricsSnapshot;

/// The bill that counts each named counter by its amount and no other.
macro_rules! bill {
    ($($counter:ident: $n:expr),*) => { Bill { $($counter: $n as u64,)* ..Bill::default() } };
}

/// What an op returns: the rows a read gives (none for a write) and its
/// bill, or its error and the bill a failed op still pays.
type Outcome = Result<(Vec<Value>, Bill), Failed>;

struct Failed(DbError, Bill);

/// An error found before the store does any work is billed nothing.
impl From<DbError> for Failed {
    fn from(e: DbError) -> Self {
        Failed(e, Bill::default())
    }
}

type Rows = BTreeMap<PrimaryKey, Value>;

/// The reference store: each table's schema and rows.
#[derive(Clone)]
struct Model {
    tables: BTreeMap<&'static str, (TableSchema, Rows)>,
}

fn read(row: &Value, projection: &Option<Projection>) -> Value {
    projection
        .as_ref()
        .map_or_else(|| row.clone(), |p| p.apply(row))
}

fn bytes(items: &[Value]) -> usize {
    items.iter().map(SizeOf::size_bytes).sum()
}

/// A condition holds against the row, or against the empty item when
/// there is none.
fn holds(cond: &Cond, row: Option<&Value>) -> bool {
    let empty = Value::Map(Map::new());
    cond.eval(row.unwrap_or(&empty)).unwrap_or(false)
}

fn key_of(schema: &TableSchema, item: &Value) -> Result<PrimaryKey, DbError> {
    let attr = |name: &str| {
        let missing = || DbError::BadKey(format!("no `{name}`"));
        item.get_attr(name).cloned().ok_or_else(missing)
    };
    let sort = schema.sort_attr.as_deref().map(attr).transpose()?;
    Ok(PrimaryKey::new(attr(&schema.hash_attr)?, sort))
}

fn fits(schema: &TableSchema, row: Value) -> Result<Value, DbError> {
    let (size, limit) = (row.size_bytes(), schema.max_row_bytes);
    match size > limit {
        true => Err(DbError::RowTooLarge { size, limit }),
        false => Ok(row),
    }
}

/// `update` applied to the row at `key`, or to a fresh row holding only
/// the key attributes; refused when it changes the key, then when the
/// result is over the cap.
fn updated(
    s: &TableSchema,
    key: &PrimaryKey,
    row: Option<&Value>,
    update: &Update,
) -> Result<Value, DbError> {
    let mut row = row.cloned().unwrap_or_else(|| {
        let mut m = Map::new();
        m.insert(s.hash_attr.clone(), key.hash_value().clone());
        if let (Some(attr), Some(sort)) = (&s.sort_attr, key.sort_value()) {
            m.insert(attr.clone(), sort.clone());
        }
        Value::Map(m)
    });
    update.apply(&mut row)?;
    if key_of(s, &row).as_ref() != Ok(key) {
        return Err(DbError::BadKey("re-filed".into()));
    }
    fits(s, row)
}

/// ⌊n/32⌋ + 1 pages: a query or index page that comes back full is
/// followed by one more.
fn query_pages(n: usize) -> usize {
    n / PAGE + 1
}

/// max(1, ⌈n/32⌉) pages: a scan page ends at a row it has not examined.
fn scan_pages(n: usize) -> usize {
    n.div_ceil(PAGE).max(1)
}

impl Model {
    fn new() -> Self {
        let tables = [DAAL, KV].map(|t| (t, (schema(t), Rows::new())));
        Model {
            tables: tables.into_iter().collect(),
        }
    }

    fn table(&mut self, table: &str) -> Result<&mut (TableSchema, Rows), DbError> {
        let missing = || DbError::TableNotFound(table.to_owned());
        self.tables.get_mut(table).ok_or_else(missing)
    }

    fn apply(&mut self, op: &Op) -> Outcome {
        let cond_failed = |bill: Bill| Err(Failed(DbError::ConditionFailed, bill));
        let (items, bill) = match op {
            Op::Get(t, key, p) => {
                let items: Vec<Value> = self
                    .table(t)?
                    .1
                    .get(key)
                    .map(|row| read(row, p))
                    .into_iter()
                    .collect();
                let bill = bill!(gets: 1, bytes_read: bytes(&items));
                (items, bill)
            }
            Op::Put(t, item) => {
                let (schema, rows) = self.table(t)?;
                let key = key_of(schema, item)?;
                let row = fits(schema, item.clone())?;
                let bill = bill!(writes: 1, bytes_written: row.size_bytes());
                rows.insert(key, row);
                (Vec::new(), bill)
            }
            Op::Update(t, key, cond, update, returning) => {
                let (schema, rows) = self.table(t)?;
                if !holds(cond, rows.get(key)) {
                    return cond_failed(bill!(writes: 1, cond_failures: 1));
                }
                let row = updated(schema, key, rows.get(key), update)?;
                // A returning update answers the new row, projected; its
                // bytes are billed as read.
                let items: Vec<Value> = returning.iter().map(|p| p.apply(&row)).collect();
                let bill =
                    bill!(writes: 1, bytes_written: row.size_bytes(), bytes_read: bytes(&items));
                rows.insert(key.clone(), row);
                (items, bill)
            }
            Op::Delete(t, key, cond) => {
                let (_, rows) = self.table(t)?;
                if !holds(cond, rows.get(key)) {
                    return cond_failed(bill!(deletes: 1, cond_failures: 1));
                }
                rows.remove(key);
                (Vec::new(), bill!(deletes: 1))
            }
            Op::Query(t, hash, p) => {
                let rows = self
                    .table(t)?
                    .1
                    .iter()
                    .filter(|(key, _)| key.hash_value() == hash);
                let items: Vec<Value> = rows.map(|(_, row)| read(row, p)).collect();
                let (n, b) = (items.len(), bytes(&items));
                (
                    items,
                    bill!(queries: query_pages(n), rows_scanned: n, bytes_read: b),
                )
            }
            Op::Scan(t, p) => {
                let items: Vec<Value> = self.table(t)?.1.values().map(|row| read(row, p)).collect();
                let (n, b) = (items.len(), bytes(&items));
                (
                    items,
                    bill!(scans: scan_pages(n), rows_scanned: n, bytes_read: b),
                )
            }
            Op::Index(t, attr, value, p) => {
                let (schema, rows) = self.table(t)?;
                if !schema.index_attrs.iter().any(|a| a.as_str() == *attr) {
                    return Err(DbError::IndexNotFound((*attr).to_owned()).into());
                }
                let rows = rows
                    .values()
                    .filter(|row| row.get_attr(attr) == Some(value));
                let items: Vec<Value> = rows.map(|row| read(row, p)).collect();
                let (n, b) = (items.len(), bytes(&items));
                (
                    items,
                    bill!(queries: query_pages(n), rows_scanned: n, bytes_read: b),
                )
            }
            Op::DistinctHashKeys(t) => {
                let mut keys: Vec<Value> = self
                    .table(t)?
                    .1
                    .keys()
                    .map(|key| key.hash_value().clone())
                    .collect();
                keys.dedup();
                let bill = bill!(scans: 1, rows_scanned: keys.len());
                (keys, bill)
            }
            Op::Transact(ops) => return self.transact(ops),
            Op::Bulk(..) => unreachable!("a bulk put runs as its puts"),
        };
        Ok((items, bill))
    }

    /// All or nothing: the ops apply to a copy of the tables, kept only
    /// when every one of them succeeds.
    fn transact(&mut self, ops: &[TransactOp]) -> Outcome {
        for op in ops {
            self.table(parts(op).0)?;
        }
        let mut keys: Vec<(&str, PrimaryKey)> = Vec::new();
        for op in ops {
            let (t, _) = parts(op);
            let key = match op {
                TransactOp::Update { key, .. } => key.clone(),
                TransactOp::Put { item, .. } => key_of(&self.table(t)?.0, item)?,
            };
            if keys.contains(&(t, key.clone())) {
                let item = format!("{t}/{key}");
                return Err(DbError::DuplicateTransactionItem { item }.into());
            }
            keys.push((t, key));
        }
        for (failed_op, (op, (t, key))) in ops.iter().zip(&keys).enumerate() {
            if !holds(parts(op).1, self.table(t)?.1.get(key)) {
                let bill = bill!(transact_writes: 1, cond_failures: 1);
                return Err(Failed(DbError::TransactionCanceled { failed_op }, bill));
            }
        }
        let mut after = self.clone();
        let mut written = 0;
        for (op, (t, key)) in ops.iter().zip(&keys) {
            let (schema, rows) = after.table(t)?;
            let row = match op {
                TransactOp::Update { update, .. } => updated(schema, key, rows.get(key), update)?,
                TransactOp::Put { item, .. } => fits(schema, item.clone())?,
            };
            written += row.size_bytes();
            rows.insert(key.clone(), row);
        }
        *self = after;
        Ok((
            Vec::new(),
            bill!(transact_writes: 1, bytes_written: written),
        ))
    }
}

fn parts(op: &TransactOp) -> (&str, &Cond) {
    match op {
        TransactOp::Update { table, cond, .. } | TransactOp::Put { table, cond, .. } => {
            (table, cond)
        }
    }
}

#[derive(Debug)]
enum Op {
    Put(&'static str, Value),
    Get(&'static str, PrimaryKey, Option<Projection>),
    /// With a projection, `update_returning` through it.
    Update(&'static str, PrimaryKey, Cond, Update, Option<Projection>),
    Delete(&'static str, PrimaryKey, Cond),
    Query(&'static str, Value, Option<Projection>),
    Scan(&'static str, Option<Projection>),
    Index(&'static str, &'static str, Value, Option<Projection>),
    DistinctHashKeys(&'static str),
    Transact(Vec<TransactOp>),
    /// Puts one after another, enough for a query, a scan or an index
    /// read to cross a page.
    Bulk(&'static str, Vec<Value>),
}

/// A store and how its ops reach their tables: by name (`None`), or
/// through the handles resolved once, by name.
type Store = (Arc<Database>, Option<BTreeMap<&'static str, TableRef>>);

/// Runs `op` on one store and returns its answer and its bill.
fn run(store: &Store, op: &Op) -> (Result<Vec<Value>, DbError>, Bill) {
    let req = |p: &Option<Projection>| match p {
        Some(p) => ScanRequest::all().with_projection(p.clone()),
        None => ScanRequest::all(),
    };
    let none = |r: Result<(), DbError>| r.map(|()| Vec::new());
    let (db, handles) = store;
    let before = db.metrics();
    let got = match (op, handles) {
        (Op::Put(t, item), None) => none(db.put(t, item.clone())),
        (Op::Put(t, item), Some(h)) => none(db.put(&h[t], item.clone())),
        (Op::Get(t, key, p), None) => db.get(t, key, p.as_ref()).map(|v| v.into_iter().collect()),
        (Op::Get(t, key, p), Some(h)) => db
            .get(&h[t], key, p.as_ref())
            .map(|v| v.into_iter().collect()),
        (Op::Update(t, key, cond, update, None), None) => none(db.update(t, key, cond, update)),
        (Op::Update(t, key, cond, update, None), Some(h)) => {
            none(db.update(&h[t], key, cond, update))
        }
        (Op::Update(t, key, cond, update, Some(p)), None) => db
            .update_returning(t, key, cond, update, p)
            .map(|row| vec![row]),
        (Op::Update(t, key, cond, update, Some(p)), Some(h)) => db
            .update_returning(&h[t], key, cond, update, p)
            .map(|row| vec![row]),
        (Op::Delete(t, key, cond), None) => none(db.delete(t, key, cond)),
        (Op::Delete(t, key, cond), Some(h)) => none(db.delete(&h[t], key, cond)),
        (Op::Query(t, hash, p), None) => db.query(t, hash, &req(p)),
        (Op::Query(t, hash, p), Some(h)) => db.query(&h[t], hash, &req(p)),
        (Op::Scan(t, p), None) => db.scan_all(t, &req(p)),
        (Op::Scan(t, p), Some(h)) => db.scan_all(&h[t], &req(p)),
        (Op::Index(t, attr, value, p), None) => db.index_query(t, attr, value, &req(p)),
        (Op::Index(t, attr, value, p), Some(h)) => db.index_query(&h[t], attr, value, &req(p)),
        (Op::DistinctHashKeys(t), None) => db.distinct_hash_keys(t),
        (Op::DistinctHashKeys(t), Some(h)) => db.distinct_hash_keys(&h[t]),
        // A transaction names its tables.
        (Op::Transact(ops), _) => none(db.transact_write(ops)),
        (Op::Bulk(..), _) => unreachable!("run as its puts"),
    };
    let mut billed = db.metrics().delta(&before);
    billed.partition_ops.clear();
    (got, billed)
}

/// Runs `op` on every store and on the model and requires of each store
/// the model's result and bill.
fn step(stores: &[Store], model: &mut Model, op: &Op) {
    if let Op::Bulk(t, items) = op {
        for item in items {
            step(stores, model, &Op::Put(t, item.clone()));
        }
        return;
    }
    let got: Vec<_> = stores.iter().map(|store| run(store, op)).collect();
    let (want, bill) = match model.apply(op) {
        Ok((items, bill)) => (Ok(items), bill),
        Err(Failed(e, bill)) => (Err(e), bill),
    };
    let want = want.map_err(kind);
    for ((got, billed), (_, handles)) in got.into_iter().zip(stores) {
        let via = if handles.is_some() {
            "handles"
        } else {
            "names"
        };
        assert_eq!(got.map_err(kind), want, "{op:?} by {via}");
        assert_eq!(billed, bill, "bill of {op:?} by {via}");
    }
}

/// An error as compared: its variant and fields, but for the free text a
/// `BadKey` carries.
fn kind(e: DbError) -> String {
    match e {
        DbError::BadKey(_) => "BadKey".into(),
        e => format!("{e:?}"),
    }
}

// ---- Generators ----

/// Mostly the DAAL table, sometimes the hash-only one, rarely neither.
fn table(i: usize) -> &'static str {
    match i {
        0..=10 => DAAL,
        11..=18 => KV,
        _ => MISSING,
    }
}

/// One of 9 DAAL keys (3 hash keys × 3 sort keys) or 4 hash-only keys,
/// three strings and an int.
fn key(table: &str, k: usize) -> PrimaryKey {
    match table {
        KV if k % 4 < 3 => PrimaryKey::hash(format!("k{}", k % 4)),
        KV => PrimaryKey::hash(3i64),
        _ => PrimaryKey::hash_sort(["a", "b", "c"][k % 3], (k / 3 % 3) as i64),
    }
}

/// Values chosen to meet every kind of node, to overflow an `Inc`, and to
/// outgrow the hash-only table's cap.
fn value(i: usize) -> Value {
    match i {
        0 => "x".into(),
        1 => "y".into(),
        2 => Value::Int(1),
        3 => Value::Int(2),
        4 => Value::Int(i64::MAX),
        5 => "s".into(),
        6 => "z".repeat(24).into(),
        7 => vmap! { "a" => 1i64, "b" => vmap! {} },
        _ => Value::List(vec![Value::Int(0)]),
    }
}

/// `Tag` is the indexed attribute; the key attributes of both tables are
/// here, so an update may try to re-file a row; `Tag.x` and `L[3]` fail on
/// most rows; the empty path is the whole row.
const PATHS: [&str; 12] = [
    "Tag", "Tag", "N", "S", "M.a", "M.b.c", "L[0]", "L[3]", "Tag.x", "Key", "RowId", "Id",
];

fn path(i: usize) -> Path {
    match PATHS.get(i) {
        Some(p) => Path::parse(p).expect("a valid path"),
        None => Path::new(Vec::new()),
    }
}

/// A row at `key(table, k)` with the attributes `attrs` names; `drop_key`
/// takes a key attribute out, so the put is refused.
fn item(table: &str, k: usize, attrs: &[(usize, usize)], drop_key: bool) -> Value {
    let key = key(table, k);
    let s = schema(table);
    let mut m = Map::new();
    for &(a, v) in attrs {
        m.insert(["Tag", "N", "S", "M", "L"][a % 5], value(v));
    }
    m.insert(s.hash_attr.clone(), key.hash_value().clone());
    if let (Some(attr), Some(sort)) = (s.sort_attr, key.sort_value()) {
        m.insert(attr, sort.clone());
    }
    if drop_key {
        m.remove(s.hash_attr.as_str());
    }
    Value::Map(m)
}

fn attrs() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..5usize, 0..9usize), 0..4)
}

fn cond() -> impl Strategy<Value = Cond> {
    (0..12usize, 0..4i64).prop_map(|(c, n)| match c {
        0..=3 => Cond::True,
        4 => Cond::exists("N"),
        5 => Cond::not_exists("Tag"),
        6 => Cond::eq("N", n),
        7 => Cond::eq("Tag", "x"),
        8 => Cond::lt("N", 2i64),
        9 => Cond::exists("S").or(Cond::exists("M")),
        _ => Cond::False,
    })
}

fn update() -> impl Strategy<Value = Update> {
    let action = (0..4usize, 0..PATHS.len() + 1, 0..9usize).prop_map(|(a, p, v)| match a {
        0 => UpdateAction::Set(path(p), value(v)),
        1 => UpdateAction::SetIfAbsent(path(p), value(v)),
        2 => UpdateAction::Inc(path(p), [1, -1, i64::MAX][v % 3]),
        _ => UpdateAction::Remove(path(p)),
    });
    prop::collection::vec(action, 1..4)
        .prop_map(|a| a.into_iter().fold(Update::new(), Update::push))
}

fn projection() -> impl Strategy<Value = Option<Projection>> {
    (0..5usize).prop_map(|p| match p {
        0 | 1 => None,
        2 => Some(Projection::attrs(["Tag", "N"])),
        3 => Some(Projection::attrs(["Key", "Id"])),
        _ => Some(Projection::new(vec![path(4)])),
    })
}

fn transact_op() -> impl Strategy<Value = TransactOp> {
    (
        0..20usize,
        0..64usize,
        0..2usize,
        cond(),
        (update(), attrs()),
    )
        .prop_map(|(t, k, put, cond, (update, attrs))| match put {
            0 => TransactOp::Update {
                table: table(t).into(),
                key: key(table(t), k),
                cond,
                update,
            },
            _ => TransactOp::Put {
                table: table(t).into(),
                item: item(table(t), k, &attrs, false),
                cond,
            },
        })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..20usize, 0..64usize, attrs(), 0..16usize)
            .prop_map(|(t, k, a, d)| Op::Put(table(t), item(table(t), k, &a, d == 0))),
        (0..20usize, 0..64usize, projection())
            .prop_map(|(t, k, p)| Op::Get(table(t), key(table(t), k), p)),
        (0..20usize, 0..64usize, cond(), update())
            .prop_map(|(t, k, c, u)| Op::Update(table(t), key(table(t), k), c, u, None)),
        (0..20usize, 0..64usize, cond(), update(), projection())
            .prop_map(|(t, k, c, u, p)| Op::Update(table(t), key(table(t), k), c, u, p)),
        // The DAAL's own use of its index: a row's tag set, changed or
        // removed, sometimes by an update that then fails on `S`.
        (0..64usize, 0..4usize, 0..3usize).prop_map(|(k, v, how)| {
            let retag = match how {
                0 => Update::new().set("Tag", value(v)),
                1 => Update::new().remove("Tag"),
                _ => Update::new().set("Tag", value(v)).inc("S", 1),
            };
            Op::Update(DAAL, key(DAAL, k), Cond::exists("Key"), retag, None)
        }),
        (0..20usize, 0..64usize, cond())
            .prop_map(|(t, k, c)| Op::Delete(table(t), key(table(t), k), c)),
        (0..20usize, 0..64usize, projection())
            .prop_map(|(t, k, p)| Op::Query(table(t), key(table(t), k).hash_value().clone(), p)),
        (0..20usize, projection()).prop_map(|(t, p)| Op::Scan(table(t), p)),
        (0..13usize, 0..8usize, 0..4usize, projection()).prop_map(|(t, a, v, p)| {
            let attr = if a == 0 { "N" } else { "Tag" };
            Op::Index(table(t), attr, value(v), p)
        }),
        (0..20usize).prop_map(|t| Op::DistinctHashKeys(table(t))),
        prop::collection::vec(transact_op(), 0..4).prop_map(Op::Transact),
        prop::collection::vec(transact_op(), 1..4).prop_map(Op::Transact),
        (0..19usize, 0..3usize, 20..45usize, 0..3usize).prop_map(|(t, h, n, v)| {
            let t = table(t);
            let items = (0..n).map(|i| match t {
                DAAL => vmap! { "Key" => ["a", "b", "c"][h], "RowId" => 100 + i as i64, "Tag" => value(v) },
                _ => vmap! { "Id" => format!("b{h}-{i:02}"), "N" => i as i64 },
            });
            Op::Bulk(t, items.collect())
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every op answers and bills as the model does, and the store ends
    /// holding the model's rows.
    #[test]
    fn the_store_matches_its_model(ops in prop::collection::vec(op(), 1..80)) {
        let store = || {
            let db = Database::for_tests();
            for t in [DAAL, KV] {
                db.create_table(t, schema(t)).unwrap();
            }
            db
        };
        let by_handle = store();
        let handles = [DAAL, KV, MISSING].map(|t| (t, by_handle.table(t))).into();
        let stores = [(store(), None), (by_handle, Some(handles))];
        let mut model = Model::new();
        for op in &ops {
            step(&stores, &mut model, op);
        }
        // The index answers for every value the tag can take, as the
        // snapshot leaves out the index.
        for v in 0..9 {
            step(&stores, &mut model, &Op::Index(DAAL, "Tag", value(v), None));
        }
        for (db, _) in &stores {
            let snapshot = db.snapshot();
            prop_assert_eq!(snapshot.table_names(), [DAAL, KV]);
            for (t, (_, rows)) in &model.tables {
                prop_assert_eq!(snapshot.rows(t), Some(rows), "{}", t);
            }
        }
    }
}
