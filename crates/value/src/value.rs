//! The dynamic [`Value`] type.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{ValueError, ValueResult};
use crate::map::Map;
use crate::path::{Path, PathSegment};

/// A schema-less dynamic value, comparable to a DynamoDB attribute value.
///
/// `Value` supports a *total* order (used for sort keys and condition
/// comparisons): values of different kinds order by [`Kind`] rank, floats
/// order by IEEE total ordering so that `Value` can implement [`Eq`], and
/// an int and a float compare exactly. Strings and maps are shared: a
/// clone copies lists and byte blobs only.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub enum Value {
    /// The absent value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    Int(i64),
    /// A 64-bit float; ordered with IEEE total ordering.
    Float(f64),
    /// A UTF-8 string, shared: a clone is a reference-count bump.
    Str(Arc<str>),
    /// An opaque byte blob.
    Bytes(Vec<u8>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A string-keyed attribute map.
    Map(Map),
}

/// Discriminant of a [`Value`], used for ordering and error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// [`Value::Null`].
    Null,
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Int`].
    Int,
    /// [`Value::Float`].
    Float,
    /// [`Value::Str`].
    Str,
    /// [`Value::Bytes`].
    Bytes,
    /// [`Value::List`].
    List,
    /// [`Value::Map`].
    Map,
}

impl Kind {
    /// Returns the lowercase name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Int => "int",
            Kind::Float => "float",
            Kind::Str => "str",
            Kind::Bytes => "bytes",
            Kind::List => "list",
            Kind::Map => "map",
        }
    }
}

impl Value {
    /// Returns the [`Kind`] of this value.
    pub fn kind(&self) -> Kind {
        match self {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Bool,
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
            Value::Str(_) => Kind::Str,
            Value::Bytes(_) => Kind::Bytes,
            Value::List(_) => Kind::List,
            Value::Map(_) => Kind::Map,
        }
    }

    /// Returns true if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the boolean if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float if this is a [`Value::Float`] (or an int, widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        self.as_shared_str().map(|s| &**s)
    }

    /// Returns the shared string if this is a [`Value::Str`]: a clone of
    /// it is the same string.
    pub fn as_shared_str(&self) -> Option<&Arc<str>> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte slice if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the list if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&Vec<Value>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the map if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the map mutably if this is a [`Value::Map`].
    pub fn as_map_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Convenience: gets a top-level attribute of a map value.
    pub fn get_attr(&self, name: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(name))
    }

    /// Convenience: takes a top-level attribute out of a map value — how a
    /// decoder that holds the map's only handle (a projected row) takes a
    /// value without touching a reference count. Through a shared handle
    /// this copies the map first: read with `get_attr(..).cloned()` there.
    pub fn take_attr(&mut self, name: &str) -> Option<Value> {
        self.as_map_mut().and_then(|m| m.remove(name))
    }

    /// Convenience: gets a string-typed top-level attribute of a map value.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get_attr(name).and_then(Value::as_str)
    }

    /// Convenience: [`Value::get_str`] as the shared string it is.
    pub fn get_shared_str(&self, name: &str) -> Option<&Arc<str>> {
        self.get_attr(name).and_then(Value::as_shared_str)
    }

    /// Convenience: gets an int-typed top-level attribute of a map value.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get_attr(name).and_then(Value::as_int)
    }

    /// Convenience: gets a bool-typed top-level attribute of a map value.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get_attr(name).and_then(Value::as_bool)
    }

    /// Convenience: gets a list-typed top-level attribute of a map value.
    pub fn get_list(&self, name: &str) -> Option<&Vec<Value>> {
        self.get_attr(name).and_then(Value::as_list)
    }

    /// Navigates a [`Path`] into this value.
    ///
    /// Returns `Ok(None)` when an intermediate map lacks the attribute (the
    /// path is *absent*), and an error when a non-container is traversed.
    pub fn get_path(&self, path: &Path) -> ValueResult<Option<&Value>> {
        let mut cur = self;
        for seg in path.segments() {
            match (seg, cur) {
                (PathSegment::Attr(a), Value::Map(m)) => match m.get(a.as_str()) {
                    Some(v) => cur = v,
                    None => return Ok(None),
                },
                (PathSegment::Index(i), Value::List(l)) => match l.get(*i) {
                    Some(v) => cur = v,
                    None => return Ok(None),
                },
                (PathSegment::Attr(_), other) => {
                    return Err(ValueError::TypeMismatch {
                        expected: "map",
                        found: other.kind().name(),
                    })
                }
                (PathSegment::Index(_), other) => {
                    return Err(ValueError::TypeMismatch {
                        expected: "list",
                        found: other.kind().name(),
                    })
                }
            }
        }
        Ok(Some(cur))
    }

    /// Sets the value at `path`, creating intermediate maps as needed.
    ///
    /// Mirrors DynamoDB `SET` semantics: missing intermediate map attributes
    /// are created; traversing through a non-map is an error, and leaves
    /// `self` as it was.
    pub fn set_path(&mut self, path: &Path, value: Value) -> ValueResult<()> {
        self.set_path_undoable(path, value).map(drop)
    }

    /// Removes the value at `path`, returning it if present.
    pub fn remove_path(&mut self, path: &Path) -> ValueResult<Option<Value>> {
        let Some((last, parents)) = path.segments().split_last() else {
            return Err(ValueError::BadPath(String::new()));
        };
        let mut cur = self;
        for seg in parents {
            cur = match (seg, cur) {
                (PathSegment::Attr(a), Value::Map(m)) => match m.get_mut(a.as_str()) {
                    Some(v) => v,
                    None => return Ok(None),
                },
                (PathSegment::Index(i), Value::List(l)) => match l.get_mut(*i) {
                    Some(v) => v,
                    None => return Ok(None),
                },
                _ => return Ok(None),
            };
        }
        match (last, cur) {
            (PathSegment::Attr(a), Value::Map(m)) => Ok(m.remove(a.as_str())),
            (PathSegment::Index(i), Value::List(l)) => {
                if *i < l.len() {
                    Ok(Some(l.remove(*i)))
                } else {
                    Ok(None)
                }
            }
            _ => Ok(None),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.cmp(b),
            (a, b) => kind_rank(a).cmp(&kind_rank(b)),
        }
    }
}

/// Compares an int with a float exactly (`a as f64` rounds beyond ±2^53,
/// which broke transitivity): an integral float in `i64` range as that
/// integer, one beyond it as beyond every int, and the rest — fractions,
/// `-0.0`, NaNs, which rounding cannot cross — in `f64::total_cmp` order.
fn cmp_int_float(a: i64, b: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b.fract() == 0.0 && (-TWO_63..TWO_63).contains(&b) && !(b == 0.0 && b.is_sign_negative()) {
        a.cmp(&(b as i64))
    } else if b >= TWO_63 {
        Ordering::Less
    } else if b < -TWO_63 {
        Ordering::Greater
    } else {
        (a as f64).total_cmp(&b)
    }
}

fn kind_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Bytes(_) => 4,
        Value::List(_) => 5,
        Value::Map(_) => 6,
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        kind_rank(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::List(l) => l.hash(state),
            Value::Map(m) => m.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "b<{}B>", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}
impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::Str(s.as_str().into())
    }
}
impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}
impl From<&Arc<str>> for Value {
    fn from(s: &Arc<str>) -> Self {
        Value::Str(s.clone())
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(l: Vec<Value>) -> Self {
        Value::List(l)
    }
}
impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Map(m)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    #[test]
    fn kinds_and_accessors() {
        assert_eq!(Value::Null.kind(), Kind::Null);
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from(2i64).as_float(), Some(2.0));
        assert!(Value::Null.is_null());
        assert!(Value::from(0i64).as_bool().is_none());
    }

    #[test]
    fn clone_shares_and_the_first_write_copies_one_level() {
        fn map(v: &Value) -> &Map {
            v.as_map().unwrap()
        }
        let a = vmap! { "m" => vmap! { "x" => 1i64 }, "n" => 1i64 };
        let mut b = a.clone();
        assert!(Map::ptr_eq(map(&a), map(&b)));
        b.set_path(&Path::attr("n"), Value::Int(2)).unwrap();
        assert!(!Map::ptr_eq(map(&a), map(&b)));
        assert!(Map::ptr_eq(
            map(a.get_attr("m").unwrap()),
            map(b.get_attr("m").unwrap())
        ));
        assert_eq!(a.get_int("n"), Some(1));
        // A uniquely held map is written in place.
        drop(a);
        let entries = |v: &Value| std::ptr::from_ref(map(v).get("m").unwrap());
        let before = entries(&b);
        b.set_path(&Path::attr("n"), Value::Int(3)).unwrap();
        assert_eq!(before, entries(&b));

        fn send_sync<T: Send + Sync>() {}
        send_sync::<Value>();
    }

    #[test]
    fn empty_maps_are_one_value_however_they_were_made() {
        let mut emptied = Map::new();
        emptied.insert("k", Value::Null);
        emptied.remove("k");
        let none: [(&str, Value); 0] = [];
        let empties = [
            Map::new(),
            Map::default(),
            Map::from_iter(none),
            emptied,
            Map::with_capacity(4),
        ];
        let digest = crate::Fnv1a::digest::<Map>;
        for a in &empties {
            for b in &empties {
                assert_eq!(a, b);
                assert_eq!(a.cmp(b), Ordering::Equal);
                assert_eq!(digest(a), digest(b));
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            assert!(a < &Map::from_iter([("k".to_owned(), Value::Null)]));
        }
        // The first three hold no allocation to share.
        assert!(!Map::ptr_eq(&empties[0], &empties[2]));
    }

    #[test]
    fn ordering_is_total_and_kind_ranked() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(7),
            Value::Float(7.5),
            Value::Str("a".into()),
            Value::Bytes(vec![1]),
            Value::List(vec![]),
            Value::Map(Map::new()),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} should precede {}", w[0], w[1]);
        }
    }

    #[test]
    fn cross_numeric_comparison() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        assert_eq!(Value::Int(2), Value::Float(2.0));
        // Exact beyond 2^53, where `as f64` rounds two ints to one float.
        let two_53 = 1i64 << 53;
        assert_eq!(Value::Int(two_53), Value::Float(two_53 as f64));
        assert!(Value::Int(two_53 + 1) > Value::Float(two_53 as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        // `-0.0` sits between the negative numbers and `0`, as for floats.
        assert!(Value::Int(-1) < Value::Float(-0.0));
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
    }

    #[test]
    fn path_get_set_remove() {
        let mut v = vmap! { "a" => vmap! { "b" => 1i64 } };
        let p = Path::parse("a.b").unwrap();
        assert_eq!(v.get_path(&p).unwrap(), Some(&Value::Int(1)));
        v.set_path(&p, Value::Int(2)).unwrap();
        assert_eq!(v.get_path(&p).unwrap(), Some(&Value::Int(2)));
        let removed = v.remove_path(&p).unwrap();
        assert_eq!(removed, Some(Value::Int(2)));
        assert_eq!(v.get_path(&p).unwrap(), None);
    }

    #[test]
    fn set_path_creates_intermediate_maps() {
        let mut v = vmap! { "x" => 0i64 };
        v.set_path(&Path::parse("a.b.c").unwrap(), Value::Int(9))
            .unwrap();
        assert_eq!(
            v.get_path(&Path::parse("a.b.c").unwrap()).unwrap(),
            Some(&Value::Int(9))
        );
    }

    #[test]
    fn set_path_through_scalar_is_error() {
        let mut v = vmap! { "a" => 1i64 };
        let err = v
            .set_path(&Path::parse("a.b").unwrap(), Value::Int(2))
            .unwrap_err();
        assert!(matches!(err, ValueError::TypeMismatch { .. }));
    }

    #[test]
    fn get_path_absent_is_none_not_error() {
        let v = vmap! { "a" => vmap! {} };
        assert_eq!(v.get_path(&Path::parse("a.zzz").unwrap()).unwrap(), None);
        assert_eq!(v.get_path(&Path::parse("nope.b").unwrap()).unwrap(), None);
    }

    #[test]
    fn display_round_readable() {
        let v = vmap! { "k" => vlist_test(), "n" => Value::Null };
        let s = format!("{v}");
        assert!(s.contains("k:"));
        assert!(s.contains("null"));
    }

    fn vlist_test() -> Value {
        Value::List(vec![Value::Int(1), Value::Str("x".into())])
    }

    #[test]
    fn list_index_path() {
        let v = vmap! { "l" => vlist_test() };
        let p = Path::parse("l[1]").unwrap();
        assert_eq!(v.get_path(&p).unwrap(), Some(&Value::Str("x".into())));
        let p2 = Path::parse("l[5]").unwrap();
        assert_eq!(v.get_path(&p2).unwrap(), None);
    }
}
