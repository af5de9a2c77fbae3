//! The representation never shows: a map keyed by [`Name`]s — some
//! borrowed constants, some shared strings — orders, finds, hashes and
//! prints exactly as a map keyed by `String`s, and the total order on
//! numbers is a total order. State digests and report files depend on
//! both.

use std::cmp::Ordering;
use std::collections::BTreeMap;

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
        prop_assert_eq!(Fnv1a::digest(&*map), Fnv1a::digest(&strings));
        prop_assert_eq!(format!("{:?}", map), format!("{:?}", strings));
        // And it reads back as the same map.
        prop_assert_eq!(json::from_json(&json::to_json(&value)).unwrap(), value);
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
