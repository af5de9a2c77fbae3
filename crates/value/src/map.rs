//! [`Map`]: a copy-on-write run of `(name, value)` entries sorted by name.

use std::cmp::Ordering;
use std::fmt;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::slice;
use std::sync::Arc;
use std::vec;

use crate::name::Name;
use crate::value::Value;

/// A [`Name`]-keyed attribute map: a copy-on-write handle to a vector of
/// entries kept sorted by name (ordered keys keep scans and dumps
/// deterministic). A lookup is a binary search.
///
/// `clone` bumps a reference count, so a value the protocol stores several
/// times — a call's input, its outcome, a logged read — is one vector with
/// several handles. Reading goes through `Deref` (`get` takes a `&str`).
/// Writing goes through [`Map::insert`] or `DerefMut`: a uniquely held map
/// is updated in place; the first write through a *shared* handle copies
/// the entries (themselves handles) and leaves every other handle as it
/// was. A copy therefore never observes a later write to the original.
/// Code that only decodes a map it may share should borrow from it rather
/// than take fields out of it.
///
/// Entries are sized, not padded. An entry is 56 B (a 24 B name, a 32 B
/// value) and the protocol's maps hold 2 to 8 of them, so the vector holds
/// what it was given room for: a builder that knows its size says so
/// ([`Map::with_capacity`]), an insert into a full map
/// grows it by one entry, and a write that copies a shared map allocates
/// the copy at the size the write needs.
///
/// Equality, order, hash and `Debug` go by content, as for a
/// `BTreeMap<String, Value>`. An empty map holds no allocation. `Value`
/// stays `Send + Sync`.
#[derive(Clone, Default)]
pub struct Map(Option<Arc<Entries>>);

/// The entries of a [`Map`], sorted by name, each name once: what a map
/// reads and writes through.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entries(Vec<(Name, Value)>);

static EMPTY: Entries = Entries(Vec::new());

impl Map {
    /// An empty map; allocates nothing.
    pub const fn new() -> Self {
        Map(None)
    }

    /// An empty map with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Map((capacity > 0).then(|| Arc::new(Entries(Vec::with_capacity(capacity)))))
    }

    /// True when both handles share one allocation (two empty maps that hold
    /// none do not).
    pub fn ptr_eq(a: &Map, b: &Map) -> bool {
        matches!((&a.0, &b.0), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Inserts `value` under `name`, returning what was there. A constant
    /// is passed as it stands (`m.insert(K_OP, ..)`) and borrowed.
    pub fn insert(&mut self, name: impl Into<Name>, value: Value) -> Option<Value> {
        let name = name.into();
        match self.find(&name) {
            Ok(i) => Some(mem::replace(&mut self.unique(0).0[i].1, value)),
            Err(i) => {
                self.unique(1).0.insert(i, (name, value));
                None
            }
        }
    }

    /// The value under `name`, to write to, inserted from `value()` if
    /// absent; `true` when it was.
    pub(crate) fn get_or_insert_with(
        &mut self,
        name: &Name,
        value: impl FnOnce() -> Value,
    ) -> (&mut Value, bool) {
        match self.find(name) {
            Ok(i) => (&mut self.unique(0).0[i].1, false),
            Err(i) => {
                let entries = &mut self.unique(1).0;
                entries.insert(i, (name.clone(), value()));
                (&mut entries[i].1, true)
            }
        }
    }

    /// Makes room for `additional` more entries, in one allocation at
    /// most: a shared map is copied at its final size, a full one grows by
    /// exactly that much.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.unique(additional);
    }

    /// The entries, held by this handle alone, with room for `additional`
    /// more.
    fn unique(&mut self, additional: usize) -> &mut Entries {
        let shared = self
            .0
            .get_or_insert_with(|| Arc::new(Entries(Vec::with_capacity(additional))));
        if Arc::get_mut(shared).is_none() {
            let mut copy = Vec::with_capacity(shared.len() + additional);
            copy.extend_from_slice(&shared.0);
            *shared = Arc::new(Entries(copy));
        }
        // Held by this handle alone by now, so this copies nothing.
        let entries = Arc::make_mut(shared);
        entries.0.reserve_exact(additional);
        entries
    }
}

impl Entries {
    /// Where `name` is, or where it would go.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// Sorts entries put in any order; of equal names the last one put in
    /// wins.
    fn sort_last_wins(&mut self) {
        // A stable sort keeps equal names in the order they were put in.
        self.0.sort_by(|a, b| a.0.cmp(&b.0));
        self.0.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value under `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).ok().map(|i| &self.0[i].1)
    }

    /// True when there is a value under `name`.
    pub fn contains_key(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// The value under `name`, to write to.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.find(name).ok().map(|i| &mut self.0[i].1)
    }

    /// Removes the value under `name`, returning it.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.find(name).ok().map(|i| self.0.remove(i).1)
    }

    /// Keeps the entries `keep` says to keep, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Name, &mut Value) -> bool) {
        self.0.retain_mut(|(k, v)| keep(k, v));
    }

    /// The entries in name order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// The entries in name order, their values to write to.
    pub fn iter_mut(&mut self) -> IterMut<'_> {
        IterMut(self.0.iter_mut())
    }

    /// The names in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Name> + ExactSizeIterator {
        self.0.iter().map(|(k, _)| k)
    }

    /// The values in name order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator {
        self.0.iter().map(|(_, v)| v)
    }
}

impl fmt::Debug for Entries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The entries of a map in name order.
#[derive(Clone)]
pub struct Iter<'a>(slice::Iter<'a, (Name, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Name, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (k, v))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The entries of a map in name order, their values to write to.
pub struct IterMut<'a>(slice::IterMut<'a, (Name, Value)>);

impl<'a> Iterator for IterMut<'a> {
    type Item = (&'a Name, &'a mut Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (&*k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for IterMut<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (&*k, v))
    }
}

impl ExactSizeIterator for IterMut<'_> {}

impl Deref for Map {
    type Target = Entries;

    fn deref(&self) -> &Entries {
        self.0.as_deref().unwrap_or(&EMPTY)
    }
}

impl DerefMut for Map {
    fn deref_mut(&mut self) -> &mut Entries {
        self.unique(0)
    }
}

/// Sorts once: of equal names the last wins, as [`Map::insert`] in turn
/// would have it.
impl<K: Into<Name>> FromIterator<(K, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut entries = Entries(iter.into_iter().map(|(k, v)| (k.into(), v)).collect());
        entries.sort_last_wins();
        Map((!entries.is_empty()).then(|| Arc::new(entries)))
    }
}

/// Appends and sorts once: of equal names the last wins, as
/// [`Map::insert`] in turn would have it.
impl<K: Into<Name>> Extend<(K, Value)> for Map {
    fn extend<I: IntoIterator<Item = (K, Value)>>(&mut self, iter: I) {
        let mut iter = iter.into_iter().peekable();
        if iter.peek().is_none() {
            return;
        }
        let entries = self.unique(iter.size_hint().0);
        entries.0.extend(iter.map(|(k, v)| (k.into(), v)));
        entries.sort_last_wins();
    }
}

impl IntoIterator for Map {
    type Item = (Name, Value);
    type IntoIter = vec::IntoIter<(Name, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0
            .map(|entries| Arc::unwrap_or_clone(entries).0)
            .unwrap_or_default()
            .into_iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a Name, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Map {
    type Item = (&'a Name, &'a mut Value);
    type IntoIter = IterMut<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl PartialEq for Map {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Map {}

impl PartialOrd for Map {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Map {
    fn cmp(&self, other: &Self) -> Ordering {
        if Map::ptr_eq(self, other) {
            return Ordering::Equal;
        }
        (**self).cmp(&**other)
    }
}

impl std::hash::Hash for Map {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}
