//! In-place mutation with an undo record.
//!
//! The database applies an [`crate::Update`] to the stored row itself, not
//! to a copy of it, and must still be able to refuse the result (a failed
//! action, a row over its size cap) leaving the row as it was. Each
//! mutation therefore returns an [`Undo`]: where it wrote, and what was
//! there before. Paths are borrowed from the update's actions and the
//! displaced value is moved, so recording costs no copy.

use std::cmp::Ordering;
use std::mem;

use crate::error::{ValueError, ValueResult};
use crate::map::Map;
use crate::path::{Path, PathSegment};
use crate::value::Value;

/// What a mutation found at the place it wrote to.
#[derive(Debug)]
pub(crate) enum Prior {
    /// Nothing: the mutation created this node — the leaf, or the
    /// shallowest map it had to create on the way to the leaf.
    Absent,
    /// This value, which the mutation overwrote.
    Replaced(Value),
    /// This value, which the mutation removed (from a list: shifting the
    /// elements after it).
    Removed(Value),
}

/// How to take one mutation back.
#[derive(Debug)]
pub(crate) struct Undo<'p> {
    /// The node written to: a prefix of the mutation's path.
    pub at: &'p [PathSegment],
    /// What was there.
    pub prior: Prior,
}

impl Undo<'_> {
    /// Takes the mutation back. `row` must be in the state the mutation
    /// left it in (undo records are replayed newest first).
    #[expect(
        clippy::expect_used,
        reason = "replayed newest first on the row it was taken on, a record finds \
                  its parents as its write left them"
    )]
    pub fn revert(self, row: &mut Value) {
        let Some((last, parents)) = self.at.split_last() else {
            if let Prior::Replaced(old) = self.prior {
                *row = old;
            }
            return;
        };
        let mut parent = row;
        for seg in parents {
            parent = match (seg, parent) {
                (PathSegment::Attr(a), Value::Map(m)) => m.get_mut(a.as_str()),
                (PathSegment::Index(i), Value::List(l)) => l.get_mut(*i),
                _ => None,
            }
            .expect("an undo record is replayed against the state it was taken in");
        }
        match (last, parent, self.prior) {
            (PathSegment::Attr(a), Value::Map(m), Prior::Absent) => {
                m.remove(a.as_str());
            }
            (PathSegment::Attr(a), Value::Map(m), Prior::Replaced(old) | Prior::Removed(old)) => {
                m.insert(a.clone(), old);
            }
            // Only a push creates a list element, so it is the last one.
            (PathSegment::Index(i), Value::List(l), Prior::Absent) => l.truncate(*i),
            (PathSegment::Index(i), Value::List(l), Prior::Replaced(old)) => l[*i] = old,
            (PathSegment::Index(i), Value::List(l), Prior::Removed(old)) => l.insert(*i, old),
            _ => unreachable!("an undo record is replayed against the state it was taken in"),
        }
    }
}

impl Value {
    /// [`Value::set_path`], returning how to take the write back. On
    /// error `self` is as it was, intermediate maps included.
    pub(crate) fn set_path_undoable<'p>(
        &mut self,
        path: &'p Path,
        value: Value,
    ) -> ValueResult<Undo<'p>> {
        let segs = path.segments();
        let Some((last, parents)) = segs.split_last() else {
            return Ok(Undo {
                at: segs,
                prior: Prior::Replaced(mem::replace(self, value)),
            });
        };
        // Depth of the shallowest map the walk had to create. Removing
        // that one node takes back everything the walk built below it.
        let mut created = None;
        let written = self.write_leaf(parents, last, value, &mut created);
        let built = created.map(|depth| Undo {
            at: &segs[..=depth],
            prior: Prior::Absent,
        });
        match (written, built) {
            (Ok(_), Some(built)) => Ok(built),
            (Ok(prior), None) => Ok(Undo { at: segs, prior }),
            (Err(e), built) => {
                if let Some(built) = built {
                    built.revert(self);
                }
                Err(e)
            }
        }
    }

    /// Walks `parents` (creating missing maps, noting the first in
    /// `created`), writes `value` at `last`, and returns what was there.
    fn write_leaf(
        &mut self,
        parents: &[PathSegment],
        last: &PathSegment,
        value: Value,
        created: &mut Option<usize>,
    ) -> ValueResult<Prior> {
        let mut cur = self;
        for (depth, seg) in parents.iter().enumerate() {
            cur = match (seg, cur) {
                (PathSegment::Attr(a), Value::Map(m)) => {
                    // A new attribute's key is a clone of the path's name:
                    // a borrowed constant or a shared string, never a copy.
                    let (child, added) = m.get_or_insert_with(a, || Value::Map(Map::new()));
                    if added {
                        created.get_or_insert(depth);
                    }
                    child
                }
                (PathSegment::Index(i), Value::List(l)) => {
                    l.get_mut(*i).ok_or(ValueError::IndexOutOfBounds(*i))?
                }
                (seg, other) => return Err(mismatch(seg, other)),
            };
        }
        match (last, cur) {
            // One insert: a shared map is copied once, at its new size.
            (PathSegment::Attr(a), Value::Map(m)) => Ok(match m.insert(a.clone(), value) {
                Some(old) => Prior::Replaced(old),
                None => Prior::Absent,
            }),
            (PathSegment::Index(i), Value::List(l)) => match i.cmp(&l.len()) {
                Ordering::Less => Ok(Prior::Replaced(mem::replace(&mut l[*i], value))),
                Ordering::Equal => {
                    l.push(value);
                    Ok(Prior::Absent)
                }
                Ordering::Greater => Err(ValueError::IndexOutOfBounds(*i)),
            },
            (seg, other) => Err(mismatch(seg, other)),
        }
    }
}

/// The error for stepping by `seg` into a value of the wrong kind.
fn mismatch(seg: &PathSegment, found: &Value) -> ValueError {
    ValueError::TypeMismatch {
        expected: match seg {
            PathSegment::Attr(_) => "map",
            PathSegment::Index(_) => "list",
        },
        found: found.kind().name(),
    }
}
