//! Update expressions applied atomically to a row.
//!
//! These model DynamoDB update expressions: an ordered list of actions
//! applied within the row's atomicity scope. Beldi's write wrapper
//! (paper Fig. 6) issues updates such as
//! `Value = {val}; LogSize = LogSize + 1; RecentWrites[{logKey}] = NULL`,
//! which map to a [`Update`] of three actions.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{ValueError, ValueResult};
use crate::map::Map;
use crate::path::{Path, PathSegment};
use crate::undo::{Prior, Undo};
use crate::value::Value;

/// One action inside an [`Update`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateAction {
    /// `SET path = value`, creating intermediate maps as needed.
    Set(Path, Value),
    /// `SET path = path + delta` with a missing attribute treated as `0`
    /// (DynamoDB `ADD` semantics).
    Inc(Path, i64),
    /// `REMOVE path`; removing an absent path is a no-op.
    Remove(Path),
    /// `SET path = value` only if the path is currently absent
    /// (DynamoDB `if_not_exists`); otherwise a no-op.
    SetIfAbsent(Path, Value),
}

impl UpdateAction {
    /// The path the action writes to.
    pub fn path(&self) -> &Path {
        match self {
            UpdateAction::Set(p, _)
            | UpdateAction::Inc(p, _)
            | UpdateAction::Remove(p)
            | UpdateAction::SetIfAbsent(p, _) => p,
        }
    }
}

/// The undo records of one [`Update::apply_undoable`], oldest first.
///
/// Dropping it keeps the update; [`UndoLog::rollback`] takes it back.
#[derive(Debug)]
pub struct UndoLog<'u> {
    records: Vec<Undo<'u>>,
}

impl UndoLog<'_> {
    /// Takes the update back, newest action first: `row` — which must
    /// not have been touched since the update — is again exactly what
    /// the update was applied to.
    pub fn rollback(self, row: &mut Value) {
        for record in self.records.into_iter().rev() {
            record.revert(row);
        }
    }
}

/// An ordered list of update actions, applied atomically by the database.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Update {
    actions: Vec<UpdateAction>,
}

impl Update {
    /// Creates an empty update.
    pub fn new() -> Self {
        Update::default()
    }

    /// Creates an empty update with room for `n` actions: a builder that
    /// knows how many it appends allocates once, at that size.
    pub fn with_capacity(n: usize) -> Self {
        Update {
            actions: Vec::with_capacity(n),
        }
    }

    /// Appends `SET path = value` (builder style).
    pub fn set(mut self, path: impl Into<Path>, value: impl Into<Value>) -> Self {
        self.actions
            .push(UpdateAction::Set(path.into(), value.into()));
        self
    }

    /// Appends `SET path = path + delta` (builder style).
    pub fn inc(mut self, path: impl Into<Path>, delta: i64) -> Self {
        self.actions.push(UpdateAction::Inc(path.into(), delta));
        self
    }

    /// Appends `REMOVE path` (builder style).
    pub fn remove(mut self, path: impl Into<Path>) -> Self {
        self.actions.push(UpdateAction::Remove(path.into()));
        self
    }

    /// Appends `SET path = value` gated on absence (builder style).
    pub fn set_if_absent(mut self, path: impl Into<Path>, value: impl Into<Value>) -> Self {
        self.actions
            .push(UpdateAction::SetIfAbsent(path.into(), value.into()));
        self
    }

    /// Appends an already-built action (builder style); useful when
    /// merging update fragments.
    pub fn push(mut self, action: UpdateAction) -> Self {
        self.actions.push(action);
        self
    }

    /// Returns the actions in application order.
    pub fn actions(&self) -> &[UpdateAction] {
        &self.actions
    }

    /// Returns true if the update contains no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Applies all actions to `row`, in order and in place.
    ///
    /// All or nothing: when an action fails, `row` is left exactly as it
    /// was (the actions before it are taken back).
    pub fn apply(&self, row: &mut Value) -> ValueResult<()> {
        self.apply_undoable(row).map(drop)
    }

    /// [`Update::apply`], returning the means to take the update back —
    /// for a caller that can only judge the result (the database's
    /// row-size cap) once it is there.
    pub fn apply_undoable<'u>(&'u self, row: &mut Value) -> ValueResult<UndoLog<'u>> {
        // Room for the new top-level attributes is made once, before the
        // first write: a full row grows, or a shared one is copied, one
        // time rather than once per attribute.
        if let Value::Map(m) = row {
            let growth = self.growth(m);
            if growth > 0 {
                m.reserve(growth);
            }
        }
        // An action leaves at most one record.
        let mut log = UndoLog {
            records: Vec::with_capacity(self.actions.len()),
        };
        for action in &self.actions {
            match action.apply(row) {
                Ok(record) => log.records.extend(record),
                Err(e) => {
                    log.rollback(row);
                    return Err(e);
                }
            }
        }
        Ok(log)
    }

    /// How many entries `row` needs room for beyond those it has while the
    /// actions run: the most top-level attributes they have added, net of
    /// the ones they removed, at any point.
    fn growth(&self, row: &Map) -> usize {
        let (mut size, mut peak) = (0isize, 0isize);
        for (i, action) in self.actions.iter().enumerate() {
            let segments = action.path().segments();
            let Some(PathSegment::Attr(name)) = segments.first() else {
                continue;
            };
            // The last earlier action that adds or removes `name` says
            // whether it is there; without one, the row does.
            let present = self.actions[..i]
                .iter()
                .rev()
                .find_map(|earlier| match (earlier, earlier.path().segments()) {
                    (UpdateAction::Remove(_), [PathSegment::Attr(n)]) if n == name => Some(false),
                    (UpdateAction::Remove(_), _) => None,
                    (_, [PathSegment::Attr(n), ..]) if n == name => Some(true),
                    (_, _) => None,
                })
                .unwrap_or_else(|| row.contains_key(name));
            match (action, present) {
                (UpdateAction::Remove(_), true) if segments.len() == 1 => size -= 1,
                (UpdateAction::Remove(_), _) | (_, true) => {}
                (_, false) => {
                    size += 1;
                    peak = peak.max(size);
                }
            }
        }
        peak.unsigned_abs()
    }
}

impl UpdateAction {
    /// Applies the action in place; `None` when it changed nothing. On
    /// error `row` is as it was.
    fn apply<'u>(&'u self, row: &mut Value) -> ValueResult<Option<Undo<'u>>> {
        match self {
            UpdateAction::Set(p, v) => row.set_path_undoable(p, v.clone()).map(Some),
            UpdateAction::Inc(p, delta) => {
                let cur = match row.get_path(p)? {
                    Some(Value::Int(i)) => *i,
                    Some(other) => {
                        return Err(ValueError::TypeMismatch {
                            expected: "int",
                            found: other.kind().name(),
                        })
                    }
                    None => 0,
                };
                let next = cur.checked_add(*delta).ok_or(ValueError::Overflow)?;
                row.set_path_undoable(p, Value::Int(next)).map(Some)
            }
            UpdateAction::Remove(p) => Ok(row.remove_path(p)?.map(|old| Undo {
                at: p.segments(),
                prior: Prior::Removed(old),
            })),
            UpdateAction::SetIfAbsent(p, v) => match row.get_path(p)? {
                Some(_) => Ok(None),
                None => row.set_path_undoable(p, v.clone()).map(Some),
            },
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            match a {
                UpdateAction::Set(p, v) => write!(f, "SET {p} = {v}")?,
                UpdateAction::Inc(p, d) => write!(f, "SET {p} = {p} + {d}")?,
                UpdateAction::Remove(p) => write!(f, "REMOVE {p}")?,
                UpdateAction::SetIfAbsent(p, v) => write!(f, "SET {p} = if_not_exists({p}, {v})")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    #[test]
    fn set_and_inc() {
        let mut row = vmap! { "LogSize" => 1i64 };
        Update::new()
            .set("Value", "v2")
            .inc("LogSize", 1)
            .apply(&mut row)
            .unwrap();
        assert_eq!(row.get_str("Value"), Some("v2"));
        assert_eq!(row.get_int("LogSize"), Some(2));
    }

    /// A sized update is the same update: equal, and applied the same way.
    #[test]
    fn with_capacity_builds_the_update_new_builds() {
        let build = |u: Update| {
            u.set("Done", true)
                .set_if_absent("Finish", 7i64)
                .remove("Args")
                .inc("LogSize", 1)
                .set("Log.s1", "v")
        };
        let (sized, grown) = (build(Update::with_capacity(5)), build(Update::new()));
        assert_eq!(sized, grown);
        assert!(
            sized.actions.capacity() == 5,
            "sized once, at its action count"
        );
        let row = vmap! { "Args" => "a", "Finish" => 3i64, "Log" => vmap! {} };
        let (mut a, mut b) = (row.clone(), row);
        sized.apply(&mut a).unwrap();
        grown.apply(&mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            vmap! { "Done" => true, "Finish" => 3i64, "Log" => vmap! { "s1" => "v" }, "LogSize" => 1i64 }
        );
    }

    #[test]
    fn inc_missing_starts_at_zero() {
        let mut row = vmap! {};
        Update::new().inc("n", 5).apply(&mut row).unwrap();
        assert_eq!(row.get_int("n"), Some(5));
    }

    #[test]
    fn inc_non_int_is_error() {
        let mut row = vmap! { "n" => "str" };
        let err = Update::new().inc("n", 1).apply(&mut row).unwrap_err();
        assert!(matches!(err, ValueError::TypeMismatch { .. }));
    }

    #[test]
    fn inc_overflow_is_error() {
        let mut row = vmap! { "n" => i64::MAX };
        let err = Update::new().inc("n", 1).apply(&mut row).unwrap_err();
        assert_eq!(err, ValueError::Overflow);
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut row = vmap! { "a" => 1i64 };
        Update::new().remove("zzz").apply(&mut row).unwrap();
        assert_eq!(row.get_int("a"), Some(1));
    }

    #[test]
    fn set_if_absent() {
        let mut row = vmap! { "a" => 1i64 };
        Update::new()
            .set_if_absent("a", 99i64)
            .set_if_absent("b", 2i64)
            .apply(&mut row)
            .unwrap();
        assert_eq!(row.get_int("a"), Some(1));
        assert_eq!(row.get_int("b"), Some(2));
    }

    #[test]
    fn nested_log_entry_write() {
        // The shape used by Beldi's write wrapper for DAAL rows.
        let mut row = vmap! { "RecentWrites" => vmap! {}, "LogSize" => 0i64 };
        let log_key = Path::attr("RecentWrites").then_attr("inst-1:4");
        Update::new()
            .set("Value", "new")
            .inc("LogSize", 1)
            .set(log_key.clone(), Value::Null)
            .apply(&mut row)
            .unwrap();
        assert_eq!(row.get_path(&log_key).unwrap(), Some(&Value::Null));
        assert_eq!(row.get_int("LogSize"), Some(1));
    }

    #[test]
    fn actions_apply_in_order() {
        let mut row = vmap! {};
        Update::new()
            .set("a", 1i64)
            .set("a", 2i64)
            .apply(&mut row)
            .unwrap();
        assert_eq!(row.get_int("a"), Some(2));
    }

    /// Applies `update`, which must fail, and checks that nothing of it
    /// is left in `row`.
    fn fails_and_leaves_untouched(update: Update, row: Value) -> ValueError {
        let mut target = row.clone();
        let err = update.apply(&mut target).unwrap_err();
        assert_eq!(format!("{target:?}"), format!("{row:?}"), "after {update}");
        err
    }

    #[test]
    fn failed_update_takes_back_the_actions_before_it() {
        let row = vmap! {
            "n" => 1i64, "s" => "str", "m" => vmap! { "a" => 1i64 },
            "l" => Value::List(vec![Value::Int(1), Value::Int(2)])
        };
        // Each ends in an action that fails (`s` is a string, `other`
        // overflows).
        let cases = [
            // Overwrite, create, remove — map attributes and list slots.
            Update::new()
                .set("n", 2i64)
                .set("fresh", true)
                .remove("m")
                .inc("s", 1),
            Update::new()
                .set("l[0]", "x")
                .set("l[2]", 3i64)
                .remove("l[0]")
                .inc("s", 1),
            // The same path twice in one update.
            Update::new()
                .inc("n", 1)
                .inc("n", 1)
                .inc("zero", 5)
                .inc("zero", 5)
                .inc("s", 1),
            Update::new()
                .remove("n")
                .remove("n")
                .set("n", 9i64)
                .inc("s", 1),
            Update::new()
                .set_if_absent("x", 1i64)
                .set_if_absent("x", 2i64)
                .inc("s", 1),
            // Intermediates created by one action and used by the next.
            Update::new()
                .set("q.r.z", 1i64)
                .set("q.r.y", 2i64)
                .remove("q.r")
                .inc("s", 1),
            // The whole row replaced (an empty path), then more.
            Update::new()
                .set(Path::new(Vec::new()), vmap! { "other" => 1i64 })
                .set("other", 2i64)
                .inc("other", i64::MAX),
        ];
        for update in cases {
            fails_and_leaves_untouched(update, row.clone());
        }
    }

    #[test]
    fn failing_action_takes_back_its_own_intermediates() {
        let row = vmap! { "s" => "str", "l" => Value::List(vec![Value::Int(1)]) };
        // `q` and `q.r` are created on the way, then `r` turns out not to
        // be a list; a scalar is in the way, in the row or in a map an
        // earlier action created; the list is too short for the slot.
        let cases = [
            Update::new().set("q.r[0].z", 1i64),
            Update::new()
                .set("fresh.deep.s", 1i64)
                .set("fresh.deep.s.er", 2i64),
            Update::new().set("l[0].x.y", 1i64),
            Update::new().set("fresh.l[3]", 1i64),
            Update::new().set_if_absent("q.r.z", 1i64).inc("q.r.z.n", 1),
        ];
        for update in cases {
            let err = fails_and_leaves_untouched(update, row.clone());
            assert!(matches!(
                err,
                ValueError::TypeMismatch { .. } | ValueError::IndexOutOfBounds(_)
            ));
        }
        let err = fails_and_leaves_untouched(Update::new().inc("n", i64::MAX).inc("n", 1), row);
        assert_eq!(err, ValueError::Overflow);
    }

    #[test]
    fn rollback_restores_a_successful_update() {
        let row = vmap! {
            "n" => 1i64, "m" => vmap! { "a" => 1i64 },
            "l" => Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        };
        let update = Update::new()
            .set("m.b.c", 1i64)
            .inc("n", 4)
            .remove("l[1]")
            .set("l[2]", "pushed")
            .set_if_absent("m.a", 7i64)
            .remove("absent");
        let mut target = row.clone();
        let undo = update.apply_undoable(&mut target).unwrap();
        assert_eq!(target.get_int("n"), Some(5));
        assert_eq!(target.get_list("l").unwrap().len(), 3);
        undo.rollback(&mut target);
        assert_eq!(format!("{target:?}"), format!("{row:?}"));
    }

    #[test]
    fn growth_is_the_peak_of_new_top_level_attributes() {
        let row = vmap! { "Done" => false, "Args" => 1i64, "Last" => 2i64, "m" => vmap! {} };
        let growth = |u: Update| u.growth(row.as_map().unwrap());
        // A done-mark: one name added before the two removals make room
        // for the two after them.
        let done = Update::new()
            .set("Done", true)
            .set_if_absent("Finish", 1i64)
            .remove("Args")
            .remove("Last")
            .set("Ret", 2i64)
            .set("Steps", 3i64);
        assert_eq!(growth(done), 1);
        // A name counts once; nested writes, absent removals and
        // present names count nothing.
        let update = Update::new()
            .set("a.b", 1i64)
            .inc("a.c", 1)
            .set("m.x", 1i64)
            .remove("zzz")
            .remove("Done.x")
            .set_if_absent("Args", 1i64);
        assert_eq!(growth(update), 1);
        // A removed name that comes back is added again.
        let update = Update::new()
            .remove("Args")
            .set("Args", 1i64)
            .set("n", 1i64)
            .set("o", 1i64);
        assert_eq!(growth(update), 2);
    }

    #[test]
    fn display_is_readable() {
        let u = Update::new().set("a", 1i64).inc("b", 2).remove("c");
        let s = format!("{u}");
        assert!(s.contains("SET a = 1"));
        assert!(s.contains("b + 2"));
        assert!(s.contains("REMOVE c"));
    }
}
