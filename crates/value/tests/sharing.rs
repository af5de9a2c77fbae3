//! A [`Map`] clone shares its entries with the original. This file checks, by
//! property, that sharing never shows: whatever is written through one
//! handle, every other handle reads what it read before.

use beldi_value::{vlist, vmap, Path, SizeOf, Update, Value};
use proptest::prelude::*;

/// Maps at three depths, one inside a list, one empty.
fn base() -> Value {
    vmap! {
        "S" => "s",
        "N" => 1i64,
        "M" => vmap! { "a" => 1i64, "b" => vmap! { "c" => 2i64 } },
        "L" => vlist![1i64, vmap! { "x" => 2i64 }],
        "E" => vmap! {},
    }
}

const PATHS: [&str; 12] = [
    "S",
    "N",
    "M",
    "M.a",
    "M.b",
    "M.b.c",
    "M.new.leaf",
    "L[1].x",
    "L[0]",
    "E.k",
    "a",
    "b.c",
];

fn path(i: usize) -> Path {
    Path::parse(PATHS[i]).unwrap()
}

fn value(i: usize) -> Value {
    match i {
        0 => Value::Null,
        1 => Value::Int(7),
        2 => Value::from("t"),
        3 => vmap! {},
        _ => vmap! { "k" => vmap! { "deep" => 1i64 } },
    }
}

/// Every way this crate writes to a value.
#[derive(Debug, Clone)]
enum Write {
    SetPath(usize, usize),
    RemovePath(usize),
    TakeAttr(usize),
    Apply(usize, usize, usize),
    /// Rebuild a map from its own `into_iter`, minus the first entry.
    Drain,
}

impl Write {
    fn run(&self, v: &mut Value) {
        match *self {
            Write::SetPath(p, x) => drop(v.set_path(&path(p), value(x))),
            Write::RemovePath(p) => drop(v.remove_path(&path(p))),
            Write::TakeAttr(p) => drop(v.take_attr(PATHS[p])),
            Write::Apply(p, q, x) => drop(
                Update::new()
                    .set(path(p), value(x))
                    .inc(path(q), 1)
                    .remove(path(x))
                    .apply(v),
            ),
            Write::Drain => {
                if let Value::Map(m) = std::mem::take(v) {
                    *v = Value::Map(m.into_iter().skip(1).collect());
                }
            }
        }
    }
}

fn write() -> impl Strategy<Value = Write> {
    let (p, x) = (0..PATHS.len(), 0..5usize);
    prop_oneof![
        (p.clone(), x.clone()).prop_map(|(p, x)| Write::SetPath(p, x)),
        p.clone().prop_map(Write::RemovePath),
        p.clone().prop_map(Write::TakeAttr),
        (p.clone(), p.clone(), x).prop_map(|(p, q, x)| Write::Apply(p, q, x)),
        p.prop_map(|_| Write::Drain),
    ]
}

fn print(v: &Value) -> (String, usize) {
    (format!("{v:?}"), v.size_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    #[test]
    fn a_write_through_one_handle_never_shows_through_another(
        writes in prop::collection::vec(write(), 1..8),
        nested in 0..2usize,
    ) {
        // Write the copy — of the whole value, or of the map inside it.
        let original = base();
        let before = print(&original);
        let mut copy = match nested {
            0 => original.clone(),
            _ => original.get_attr("M").unwrap().clone(),
        };
        for w in &writes {
            w.run(&mut copy);
        }
        prop_assert_eq!(print(&original), before.clone(), "after {:?} on a copy", writes);

        // And the other way round: write the original.
        let mut original = original;
        let (whole, inner) = (original.clone(), original.get_attr("M").unwrap().clone());
        let inner_before = print(&inner);
        for w in &writes {
            w.run(&mut original);
        }
        prop_assert_eq!(print(&whole), before, "after {:?} on the original", writes);
        prop_assert_eq!(print(&inner), inner_before, "after {:?} on the original", writes);
    }
}
