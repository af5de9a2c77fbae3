//! Condition expressions evaluated against a row.
//!
//! These model DynamoDB condition expressions: a boolean combination of
//! comparisons, existence checks, and prefix tests over attribute paths.
//! A comparison against an *absent* path evaluates to `false` (matching
//! DynamoDB, where `attr < :v` fails when `attr` is missing); use
//! [`Cond::exists`]/[`Cond::not_exists`] for explicit presence checks.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ValueResult;
use crate::path::Path;
use crate::value::Value;

/// A condition expression over a row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cond {
    /// Always true.
    True,
    /// Always false.
    False,
    /// The attribute at the path exists (may be `Null`).
    Exists(Path),
    /// The attribute at the path does not exist.
    NotExists(Path),
    /// `path == value`; false when absent.
    Eq(Path, Value),
    /// `path != value`; false when absent.
    Ne(Path, Value),
    /// `path < value`; false when absent.
    Lt(Path, Value),
    /// `path <= value`; false when absent.
    Le(Path, Value),
    /// `path > value`; false when absent.
    Gt(Path, Value),
    /// `path >= value`; false when absent.
    Ge(Path, Value),
    /// String attribute at `path` starts with the prefix; false when absent
    /// or not a string.
    BeginsWith(Path, String),
    /// Both conditions hold.
    And(Box<Cond>, Box<Cond>),
    /// Either condition holds.
    Or(Box<Cond>, Box<Cond>),
    /// The condition does not hold.
    Not(Box<Cond>),
}

impl Cond {
    /// Builds `path exists`.
    pub fn exists(path: impl Into<Path>) -> Self {
        Cond::Exists(path.into())
    }

    /// Builds `path does not exist`.
    pub fn not_exists(path: impl Into<Path>) -> Self {
        Cond::NotExists(path.into())
    }

    /// Builds `path == value`.
    pub fn eq(path: impl Into<Path>, value: impl Into<Value>) -> Self {
        Cond::Eq(path.into(), value.into())
    }

    /// Builds `path != value`.
    pub fn ne(path: impl Into<Path>, value: impl Into<Value>) -> Self {
        Cond::Ne(path.into(), value.into())
    }

    /// Builds `path < value`.
    pub fn lt(path: impl Into<Path>, value: impl Into<Value>) -> Self {
        Cond::Lt(path.into(), value.into())
    }

    /// Builds `path <= value`.
    pub fn le(path: impl Into<Path>, value: impl Into<Value>) -> Self {
        Cond::Le(path.into(), value.into())
    }

    /// Builds `path > value`.
    pub fn gt(path: impl Into<Path>, value: impl Into<Value>) -> Self {
        Cond::Gt(path.into(), value.into())
    }

    /// Builds `path >= value`.
    pub fn ge(path: impl Into<Path>, value: impl Into<Value>) -> Self {
        Cond::Ge(path.into(), value.into())
    }

    /// Builds `begins_with(path, prefix)`.
    pub fn begins_with(path: impl Into<Path>, prefix: impl Into<String>) -> Self {
        Cond::BeginsWith(path.into(), prefix.into())
    }

    /// Combines with a conjunction (builder style).
    pub fn and(self, other: Cond) -> Self {
        match (self, other) {
            (Cond::True, c) | (c, Cond::True) => c,
            (Cond::False, _) | (_, Cond::False) => Cond::False,
            (a, b) => Cond::And(Box::new(a), Box::new(b)),
        }
    }

    /// Combines with a disjunction (builder style).
    pub fn or(self, other: Cond) -> Self {
        match (self, other) {
            (Cond::False, c) | (c, Cond::False) => c,
            (Cond::True, _) | (_, Cond::True) => Cond::True,
            (a, b) => Cond::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negates the condition (builder style).
    #[allow(
        clippy::should_implement_trait,
        reason = "a by-value builder beside `and`/`or`, not an operator"
    )]
    pub fn not(self) -> Self {
        match self {
            Cond::True => Cond::False,
            Cond::False => Cond::True,
            Cond::Not(inner) => *inner,
            c => Cond::Not(Box::new(c)),
        }
    }

    /// Evaluates the condition against a row value.
    ///
    /// A document path that cannot be resolved — because an attribute is
    /// missing *or* because the path traverses a non-container (e.g.
    /// `LockOwner.Id` when `LockOwner` is `Null`) — counts as **absent**:
    /// comparisons and `exists` are false, `not_exists` is true. This
    /// matches DynamoDB, where condition expressions never raise type
    /// errors, they just fail to match. (The crash-schedule explorer
    /// caught the previous stricter behaviour: a re-executed `unlock`
    /// evaluates its held-by-me condition against an already-released
    /// `LockOwner: null` row, which must read as "condition false →
    /// consult the write log", not as a validation error.)
    pub fn eval(&self, row: &Value) -> ValueResult<bool> {
        // Unresolvable paths (including traversal through scalars) are
        // absent, per the DynamoDB semantics above.
        let lookup = |p: &Path| row.get_path(p).ok().flatten();
        Ok(match self {
            Cond::True => true,
            Cond::False => false,
            Cond::Exists(p) => lookup(p).is_some(),
            Cond::NotExists(p) => lookup(p).is_none(),
            Cond::Eq(p, v) => matches!(lookup(p), Some(x) if x == v),
            Cond::Ne(p, v) => matches!(lookup(p), Some(x) if x != v),
            Cond::Lt(p, v) => matches!(lookup(p), Some(x) if x < v),
            Cond::Le(p, v) => matches!(lookup(p), Some(x) if x <= v),
            Cond::Gt(p, v) => matches!(lookup(p), Some(x) if x > v),
            Cond::Ge(p, v) => matches!(lookup(p), Some(x) if x >= v),
            Cond::BeginsWith(p, prefix) => matches!(
                lookup(p),
                Some(Value::Str(s)) if s.starts_with(prefix.as_str())
            ),
            Cond::And(a, b) => a.eval(row)? && b.eval(row)?,
            Cond::Or(a, b) => a.eval(row)? || b.eval(row)?,
            Cond::Not(c) => !c.eval(row)?,
        })
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::True => write!(f, "TRUE"),
            Cond::False => write!(f, "FALSE"),
            Cond::Exists(p) => write!(f, "exists({p})"),
            Cond::NotExists(p) => write!(f, "not_exists({p})"),
            Cond::Eq(p, v) => write!(f, "{p} == {v}"),
            Cond::Ne(p, v) => write!(f, "{p} != {v}"),
            Cond::Lt(p, v) => write!(f, "{p} < {v}"),
            Cond::Le(p, v) => write!(f, "{p} <= {v}"),
            Cond::Gt(p, v) => write!(f, "{p} > {v}"),
            Cond::Ge(p, v) => write!(f, "{p} >= {v}"),
            Cond::BeginsWith(p, s) => write!(f, "begins_with({p}, {s:?})"),
            Cond::And(a, b) => write!(f, "({a} && {b})"),
            Cond::Or(a, b) => write!(f, "({a} || {b})"),
            Cond::Not(c) => write!(f, "!({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    #[test]
    fn path_through_non_container_is_absent_not_an_error() {
        // DynamoDB semantics: `LockOwner.Id` with `LockOwner: null` fails
        // to match rather than raising a type error (regression caught by
        // the crash-schedule explorer's unlock-replay sweep).
        let row = vmap! { "LockOwner" => Value::Null, "N" => 4i64 };
        let held = Cond::eq(Path::attr("LockOwner").then_attr("Id"), "me");
        assert_eq!(held.eval(&row), Ok(false));
        assert_eq!(
            Cond::exists(Path::attr("LockOwner").then_attr("Id")).eval(&row),
            Ok(false)
        );
        assert_eq!(
            Cond::not_exists(Path::attr("LockOwner").then_attr("Id")).eval(&row),
            Ok(true)
        );
        // Traversing through a scalar behaves the same way.
        assert_eq!(
            Cond::eq(Path::attr("N").then_attr("x"), 1i64).eval(&row),
            Ok(false)
        );
    }

    fn row() -> Value {
        vmap! {
            "LogSize" => 3i64,
            "Key" => "k1",
            "RecentWrites" => vmap! { "i:0" => true },
            "LockOwner" => Value::Null,
        }
    }

    #[test]
    fn comparisons() {
        let r = row();
        assert!(Cond::eq("Key", "k1").eval(&r).unwrap());
        assert!(Cond::lt("LogSize", 4i64).eval(&r).unwrap());
        assert!(!Cond::lt("LogSize", 3i64).eval(&r).unwrap());
        assert!(Cond::le("LogSize", 3i64).eval(&r).unwrap());
        assert!(Cond::gt("LogSize", 2i64).eval(&r).unwrap());
        assert!(Cond::ge("LogSize", 3i64).eval(&r).unwrap());
        assert!(Cond::ne("Key", "other").eval(&r).unwrap());
    }

    #[test]
    fn absent_path_comparisons_are_false() {
        let r = row();
        assert!(!Cond::eq("Missing", 1i64).eval(&r).unwrap());
        assert!(!Cond::lt("Missing", 1i64).eval(&r).unwrap());
        assert!(!Cond::ne("Missing", 1i64).eval(&r).unwrap());
    }

    #[test]
    fn existence() {
        let r = row();
        assert!(Cond::exists("LockOwner").eval(&r).unwrap());
        assert!(Cond::not_exists("NextRow").eval(&r).unwrap());
        assert!(Cond::exists(Path::parse("RecentWrites.i:0").unwrap())
            .eval(&r)
            .unwrap());
        // Log-key style dynamic attribute via Path::attr.
        let p = Path::attr("RecentWrites").then_attr("i:0");
        assert!(Cond::Exists(p).eval(&r).unwrap());
    }

    #[test]
    fn null_is_present_but_not_equal_to_values() {
        let r = row();
        assert!(Cond::eq("LockOwner", Value::Null).eval(&r).unwrap());
        assert!(!Cond::eq("LockOwner", 1i64).eval(&r).unwrap());
    }

    #[test]
    fn boolean_combinators_simplify() {
        assert_eq!(Cond::True.and(Cond::eq("a", 1i64)), Cond::eq("a", 1i64));
        assert_eq!(Cond::False.and(Cond::eq("a", 1i64)), Cond::False);
        assert_eq!(Cond::False.or(Cond::eq("a", 1i64)), Cond::eq("a", 1i64));
        assert_eq!(Cond::True.or(Cond::eq("a", 1i64)), Cond::True);
        assert_eq!(Cond::True.not(), Cond::False);
        assert_eq!(Cond::eq("a", 1i64).not().not(), Cond::eq("a", 1i64));
    }

    #[test]
    fn begins_with() {
        let r = row();
        assert!(Cond::begins_with("Key", "k").eval(&r).unwrap());
        assert!(!Cond::begins_with("Key", "z").eval(&r).unwrap());
        assert!(!Cond::begins_with("LogSize", "3").eval(&r).unwrap());
    }

    #[test]
    fn beldi_lock_condition_shape() {
        // `LockOwner = NULL || LockOwner.id = TXNID` (paper Fig. 11).
        let free = Cond::eq("LockOwner", Value::Null)
            .or(Cond::eq(Path::parse("LockOwner.id").unwrap(), "txn-1"));
        let r = row();
        assert!(free.eval(&r).unwrap());
        let held = vmap! { "LockOwner" => vmap! { "id" => "txn-2" } };
        assert!(!free.eval(&held).unwrap());
        let mine = vmap! { "LockOwner" => vmap! { "id" => "txn-1" } };
        assert!(free.eval(&mine).unwrap());
    }
}
