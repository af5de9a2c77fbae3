//! The representation never shows: a map keyed by [`Name`]s — some
//! borrowed constants, some shared strings — orders, finds, hashes and
//! prints exactly as a map keyed by `String`s, whatever sequence of
//! writes built it, and the total order on numbers is a total order.
//! State digests and report files depend on both.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use beldi_value::{json, Fnv1a, Map, Name, Value};
use proptest::prelude::*;

/// Constants that sort among, before and after the computed names.
const CONSTANTS: [&str; 8] = ["Key", "RowId", "a", "b#1", "Value", "z", "", "ü"];

/// A name and how to hold it: a constant (borrowed) or computed text
/// (shared).
fn name() -> impl Strategy<Value = (bool, String)> {
    prop_oneof![
        (0..CONSTANTS.len()).prop_map(|i| (true, CONSTANTS[i].to_owned())),
        "[a-zA-Z#0-9]{0,4}".prop_map(|s| (false, s)),
    ]
}

fn held((constant, text): &(bool, String)) -> Name {
    match CONSTANTS.iter().find(|c| **c == text) {
        Some(c) if *constant => Name::from(*c),
        _ => Name::from(text.clone()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 500, ..ProptestConfig::default() })]

    #[test]
    fn a_map_of_names_is_a_map_of_strings(
        entries in prop::collection::vec((name(), 0..1000i64), 0..24),
    ) {
        let mut map = Map::new();
        let mut strings: BTreeMap<String, Value> = BTreeMap::new();
        for (n, v) in &entries {
            map.insert(held(n), Value::Int(*v));
            strings.insert(n.1.clone(), Value::Int(*v));
        }
        let order: Vec<&str> = map.keys().map(Name::as_str).collect();
        let expected: Vec<&str> = strings.keys().map(String::as_str).collect();
        prop_assert_eq!(order, expected);
        for (k, v) in &strings {
            prop_assert_eq!(map.get(k.as_str()), Some(v));
        }
        // The JSON text and the content hash are those of the string map.
        let text: Vec<String> = strings
            .iter()
            .map(|(k, v)| format!("{}:{}", json::to_json(&Value::from(k)), json::to_json(v)))
            .collect();
        let value = Value::Map(map.clone());
        prop_assert_eq!(json::to_json(&value), format!("{{{}}}", text.join(",")));
        prop_assert_eq!(Fnv1a::digest(&map), Fnv1a::digest(&strings));
        prop_assert_eq!(format!("{:?}", map), format!("{:?}", strings));
        // And it reads back as the same map.
        prop_assert_eq!(json::from_json(&json::to_json(&value)).unwrap(), value);
    }
}

/// One step of a sequence of writes to a map.
#[derive(Debug, Clone)]
enum Op {
    Insert((bool, String), i64),
    Remove((bool, String)),
    /// Adds to the value under the name, if there is one.
    GetMut((bool, String), i64),
    /// Keeps the entries whose value is divisible by the divisor.
    Retain(i64),
    /// Replaces the map with one collected from these entries, names
    /// repeated.
    FromIter(Vec<((bool, String), i64)>),
    Extend(Vec<((bool, String), i64)>),
    /// Clones the map, then writes to the original.
    CloneThenInsert((bool, String), i64),
}

fn op() -> impl Strategy<Value = Op> {
    let entries = || prop::collection::vec((name(), 0..1000i64), 0..12);
    // An insert is drawn twice as often as the rest, so that maps grow.
    prop_oneof![
        (name(), 0..1000i64).prop_map(|(n, v)| Op::Insert(n, v)),
        (name(), 0..1000i64).prop_map(|(n, v)| Op::Insert(n, v)),
        name().prop_map(Op::Remove),
        (name(), 1..5i64).prop_map(|(n, d)| Op::GetMut(n, d)),
        (1..4i64).prop_map(Op::Retain),
        entries().prop_map(Op::FromIter),
        entries().prop_map(Op::Extend),
        (name(), 0..1000i64).prop_map(|(n, v)| Op::CloneThenInsert(n, v)),
    ]
}

fn std_hash(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// `map` is `model`: in iteration, length, lookups, `Debug`, and both
/// hashes.
fn assert_same(map: &Map, model: &BTreeMap<String, Value>) {
    let entries: Vec<(&str, &Value)> = map.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let expected: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
    assert_eq!(entries, expected);
    assert_eq!(map.len(), model.len());
    for (k, v) in model {
        assert_eq!(map.get(k), Some(v));
    }
    assert_eq!(format!("{map:?}"), format!("{model:?}"));
    assert_eq!(Fnv1a::digest(map), Fnv1a::digest(model));
    assert_eq!(std_hash(map), std_hash(model));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 500, ..ProptestConfig::default() })]

    /// `Map` against a `BTreeMap<String, Value>` over random sequences of
    /// writes; a clone taken along the way never sees a later write.
    #[test]
    fn a_map_behaves_as_a_tree_of_strings(ops in prop::collection::vec(op(), 0..32)) {
        let mut map = Map::new();
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        let mut clones: Vec<(Map, BTreeMap<String, Value>)> = Vec::new();
        for op in ops {
            let before = (map.clone(), model.clone());
            match op {
                Op::Insert(n, v) => {
                    prop_assert_eq!(
                        map.insert(held(&n), Value::Int(v)),
                        model.insert(n.1, Value::Int(v))
                    );
                }
                Op::Remove(n) => prop_assert_eq!(map.remove(&n.1), model.remove(&n.1)),
                Op::GetMut(n, d) => {
                    if let Some(Value::Int(i)) = map.get_mut(&n.1) {
                        *i += d;
                    }
                    if let Some(Value::Int(i)) = model.get_mut(&n.1) {
                        *i += d;
                    }
                }
                Op::Retain(d) => {
                    let keep = |v: &Value| v.as_int().is_some_and(|i| i % d == 0);
                    map.retain(|_, v| keep(v));
                    model.retain(|_, v| keep(v));
                }
                Op::FromIter(entries) => {
                    map = entries.iter().map(|(n, v)| (held(n), Value::Int(*v))).collect();
                    model = entries.into_iter().map(|(n, v)| (n.1, Value::Int(v))).collect();
                }
                Op::Extend(entries) => {
                    map.extend(entries.iter().map(|(n, v)| (held(n), Value::Int(*v))));
                    model.extend(entries.into_iter().map(|(n, v)| (n.1, Value::Int(v))));
                }
                Op::CloneThenInsert(n, v) => {
                    clones.push((map.clone(), model.clone()));
                    map.insert(held(&n), Value::Int(v));
                    model.insert(n.1, Value::Int(v));
                }
            }
            assert_same(&map, &model);
            prop_assert_eq!(map.cmp(&before.0), model.cmp(&before.1));
            prop_assert_eq!(before.0.cmp(&map), before.1.cmp(&model));
            assert_same(&before.0, &before.1);
        }
        for (clone, snapshot) in &clones {
            assert_same(clone, snapshot);
        }
    }
}

/// Ints and floats around ±2^53, where `i as f64` starts to round, and at
/// the ends of the `i64` range.
fn number() -> impl Strategy<Value = Value> {
    const TWO_53: i64 = 1 << 53;
    prop_oneof![
        (-4..5i64).prop_map(|d| Value::Int(TWO_53 + d)),
        (-4..5i64).prop_map(|d| Value::Int(-TWO_53 + d)),
        (-4..5i64).prop_map(|d| Value::Float((TWO_53 + d) as f64)),
        (-4..5i64).prop_map(|d| Value::Float((-TWO_53 + d) as f64)),
        (0..6usize).prop_map(|i| Value::Int([i64::MIN, i64::MAX, 0, -1, 1, i64::MAX - 1][i])),
        (0..9usize).prop_map(|i| {
            Value::Float(
                [
                    i64::MIN as f64,
                    i64::MAX as f64,
                    0.0,
                    -0.0,
                    0.5,
                    -1.5,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                ][i],
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    /// Every pair and triple of a drawn set: a violation needs two ints
    /// that round to one float, both drawn beside it.
    #[test]
    fn the_numeric_order_is_total(numbers in prop::collection::vec(number(), 2..16)) {
        for a in &numbers {
            prop_assert_eq!(a.cmp(a), Ordering::Equal);
            for b in &numbers {
                prop_assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{} vs {}", a, b);
                if a == b {
                    prop_assert_eq!(Fnv1a::digest(a), Fnv1a::digest(b), "{} == {}", a, b);
                }
                for c in &numbers {
                    if a <= b && b <= c {
                        prop_assert!(a <= c, "{} <= {} <= {} but not {} <= {}", a, b, c, a, c);
                    }
                }
            }
        }
    }
}
