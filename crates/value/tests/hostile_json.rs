//! `from_json` parses untrusted text — the front door hands it every
//! request body — so no input may crash it: whatever arrives, it returns
//! a value or a typed error. A value it returns is one it can write back,
//! and a wide one costs no more than sorting its keys.

use std::collections::BTreeMap;

use beldi_value::json::{from_json, to_json, MAX_DEPTH};
use beldi_value::{Map, Value};
use proptest::prelude::*;

/// One hostile fragment: nesting far past the bound, numbers no `f64`
/// holds, surrogates and escapes cut short, or arbitrary bytes.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    const TEXT: [&str; 22] = [
        "[",
        "]",
        "{",
        "}",
        "{\"a\":",
        ",",
        "1e999999",
        "-1e400",
        "1e",
        "-",
        "0.",
        "1.5e+",
        "99999999999999999999999",
        "\"\\ud800\"",
        "\"\\udc00\"",
        "\"\\ud800\\u0041\"",
        "\"\\ud83c",
        "\"\\u12",
        "\"\\",
        "\"",
        "null",
        "tru",
    ];
    prop_oneof![
        (0..TEXT.len()).prop_map(|i| TEXT[i].as_bytes().to_vec()),
        (0..TEXT.len()).prop_map(|i| TEXT[i].as_bytes().to_vec()),
        (MAX_DEPTH - 2..MAX_DEPTH + 3).prop_map(|n| "[".repeat(n).into_bytes()),
        (0..20_000usize).prop_map(|n| "[".repeat(n).into_bytes()),
        (0..20_000usize).prop_map(|n| "{\"k\":".repeat(n).into_bytes()),
        (0..64usize).prop_map(|n| "]".repeat(n).into_bytes()),
        (0..400usize).prop_map(|n| format!("1{}", "0".repeat(n)).into_bytes()),
        (0..100_000i64).prop_map(|e| format!("1e{e}").into_bytes()),
        prop::collection::vec((0..256u16).prop_map(|b| b as u8), 0..32),
    ]
}

fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(fragment(), 0..12).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// Bytes that are not UTF-8 never reach the parser (the door rejects
    /// them first, as here); text that is gives a value or an error, and
    /// never a panic or a stack overflow.
    #[test]
    fn hostile_text_parses_to_a_value_or_an_error(input in hostile_bytes()) {
        if let Ok(text) = std::str::from_utf8(&input) {
            if let Ok(value) = from_json(text) {
                prop_assert_eq!(from_json(&to_json(&value)).unwrap(), value);
            }
        }
    }
}

/// `n` distinct names in a scrambled order, then every tenth again with
/// another value.
fn wide_entries(n: usize) -> Vec<(String, i64)> {
    let distinct = (0..n).map(|i| (format!("k{}", i * 7919 % n), i as i64));
    let repeated = (0..n / 10).map(|i| (format!("k{}", i * 10), -(i as i64)));
    distinct.chain(repeated).collect()
}

/// What a `BTreeMap` makes of the entries: of a repeated name, the last.
fn reference(entries: &[(String, i64)]) -> BTreeMap<String, Value> {
    entries
        .iter()
        .map(|(k, v)| (k.clone(), Value::Int(*v)))
        .collect()
}

fn assert_is(map: &Map, expected: &BTreeMap<String, Value>) {
    assert_eq!(map.len(), expected.len());
    assert!(map
        .iter()
        .zip(expected)
        .all(|((k, v), (ek, ev))| k.as_str() == ek && v == ev));
}

/// A hostile object may be wide: its keys are collected and sorted once,
/// not inserted one by one into a sorted run.
#[test]
fn a_wide_object_parses_as_the_reference() {
    const N: usize = 100_000;
    for entries in [wide_entries(N)[..N].to_vec(), wide_entries(N)] {
        let body: Vec<String> = entries
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let parsed = from_json(&format!("{{{}}}", body.join(","))).unwrap();
        let expected = reference(&entries);
        assert_is(parsed.as_map().unwrap(), &expected);
        let collected: Map = entries
            .iter()
            .map(|(k, v)| (k.clone(), Value::Int(*v)))
            .collect();
        assert_is(&collected, &expected);
        assert_eq!(Value::Map(collected), parsed);
    }
}
