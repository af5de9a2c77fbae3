//! [`Map`]: a copy-on-write run of `(name, value)` entries sorted by name.

use std::cmp::Ordering;
use std::fmt;
use std::mem;
use std::slice;
use std::sync::Arc;

use crate::name::Name;
use crate::value::Value;

/// A [`Name`]-keyed attribute map: a copy-on-write handle to one block of
/// entries kept sorted by name (ordered keys keep scans and dumps
/// deterministic). A lookup is a binary search.
///
/// The handle is the block and the number of entries in use; the block
/// holds the entries inline, after its reference counts, so reading a
/// map is one dependent load and building one is one allocation. Its
/// spare slots hold a blank entry (an empty constant name, `Null`) that no
/// method shows.
///
/// `clone` bumps a reference count, so a value the protocol stores several
/// times — a call's input, its outcome, a logged read — is one block with
/// several handles. Writing goes through [`Map::insert`] and the other
/// `&mut self` methods: a uniquely held map is updated in place; the first
/// write through a *shared* handle copies the entries (themselves handles)
/// and leaves every other handle as it was. A copy therefore never
/// observes a later write to the original. Code that only decodes a map it
/// may share should borrow from it rather than take fields out of it.
///
/// Entries are sized, not padded. An entry is 56 B (a 24 B name, a 32 B
/// value) and the protocol's maps hold 2 to 8 of them, so a block holds
/// what it was given room for: a builder that knows its size says so
/// ([`Map::with_capacity`]), and a write that copies a shared map
/// allocates the copy at the size the write needs. A uniquely held map
/// that is full grows to exactly the size it needs up to 8 entries, and
/// beyond that to at least twice its room, so a map grown one entry at a
/// time allocates once per entry up to 8 and once per doubling after.
///
/// Equality, order, hash and `Debug` go by content, as for a
/// `BTreeMap<String, Value>`. An empty map holds no allocation. `Value`
/// stays `Send + Sync`.
#[derive(Clone, Default)]
pub struct Map {
    /// The entries (the first `len`) and the spare slots after them.
    block: Option<Arc<[(Name, Value)]>>,
    len: usize,
}

/// The largest block a full map grows to exactly; beyond it a block at
/// least doubles.
const EXACT_GROWTH: usize = 8;

/// What a spare slot holds: nothing that owns memory.
fn spare() -> (Name, Value) {
    (Name::from(""), Value::Null)
}

/// The room a full block of `room` slots grows to when `need` entries
/// must fit.
fn grown(room: usize, need: usize) -> usize {
    match need <= EXACT_GROWTH {
        true => need,
        false => need.max(2 * room),
    }
}

/// A block of `capacity` slots, the first filled by `entry`, the rest
/// spare: one allocation (the iterator knows its length).
fn block_of(
    capacity: usize,
    mut entry: impl FnMut(usize) -> Option<(Name, Value)>,
) -> Arc<[(Name, Value)]> {
    (0..capacity)
        .map(|i| entry(i).unwrap_or_else(spare))
        .collect()
}

/// The whole of `block`, whose first `len` slots are entries, held by
/// its handle alone, with room for `additional` more entries.
fn unique(
    block: &mut Option<Arc<[(Name, Value)]>>,
    len: usize,
    additional: usize,
) -> &mut [(Name, Value)] {
    let need = len + additional;
    let fresh = match block {
        None if need == 0 => None,
        None => Some(block_of(need, |_| None)),
        Some(shared) => match Arc::get_mut(shared) {
            Some(owned) if need <= owned.len() => None,
            // Full and held alone: moved into a block grown by the rule.
            Some(owned) => Some(block_of(grown(owned.len(), need), |i| {
                (i < len).then(|| mem::replace(&mut owned[i], spare()))
            })),
            // Shared: copied at exactly the size the write needs.
            None => Some(block_of(need, |i| shared[..len].get(i).cloned())),
        },
    };
    if fresh.is_some() {
        *block = fresh;
    }
    match block {
        // Held by this handle alone by now, so this copies nothing.
        Some(block) => Arc::make_mut(block),
        None => &mut [],
    }
}

impl Map {
    /// An empty map; allocates nothing.
    pub const fn new() -> Self {
        Map {
            block: None,
            len: 0,
        }
    }

    /// An empty map with room for `capacity` entries, in one allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        Map {
            block: (capacity > 0).then(|| block_of(capacity, |_| None)),
            len: 0,
        }
    }

    /// True when both handles share one allocation (two empty maps that hold
    /// none do not).
    pub fn ptr_eq(a: &Map, b: &Map) -> bool {
        matches!((&a.block, &b.block), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// The entries in name order.
    fn entries(&self) -> &[(Name, Value)] {
        match &self.block {
            Some(block) => &block[..self.len],
            None => &[],
        }
    }

    /// Where `name` is, or where it would go.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries()
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value under `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).ok().map(|i| &self.entries()[i].1)
    }

    /// True when there is a value under `name`.
    pub fn contains_key(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// The value under `name`, to write to. A shared map is copied only
    /// when it has one.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        let i = self.find(name).ok()?;
        Some(&mut self.unique(0)[i].1)
    }

    /// Inserts `value` under `name`, returning what was there. A constant
    /// is passed as it stands (`m.insert(K_OP, ..)`) and borrowed.
    pub fn insert(&mut self, name: impl Into<Name>, value: Value) -> Option<Value> {
        let name = name.into();
        match self.find(&name) {
            Ok(i) => Some(mem::replace(&mut self.unique(0)[i].1, value)),
            Err(i) => {
                self.insert_at(i, (name, value));
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
            Ok(i) => (&mut self.unique(0)[i].1, false),
            Err(i) => (self.insert_at(i, (name.clone(), value())), true),
        }
    }

    /// Puts `entry` at `i`, shifting the entries from `i` on; returns its
    /// value, to write to.
    fn insert_at(&mut self, i: usize, entry: (Name, Value)) -> &mut Value {
        let len = self.len;
        let block = unique(&mut self.block, len, 1);
        self.len += 1;
        block[len] = entry;
        block[i..=len].rotate_right(1);
        &mut block[i].1
    }

    /// Removes the value under `name`, returning it.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let i = self.find(name).ok()?;
        let len = self.len;
        let block = unique(&mut self.block, len, 0);
        self.len -= 1;
        block[i..len].rotate_left(1);
        Some(mem::replace(&mut block[len - 1], spare()).1)
    }

    /// Keeps the entries `keep` says to keep, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Name, &mut Value) -> bool) {
        let len = self.len;
        let entries = &mut self.unique(0)[..len];
        let mut kept = 0;
        for i in 0..len {
            let (k, v) = &mut entries[i];
            if keep(k, v) {
                entries.swap(kept, i);
                kept += 1;
            }
        }
        entries[kept..].fill_with(spare);
        self.len = kept;
    }

    /// Makes room for `additional` more entries, in one allocation at
    /// most: a shared map is copied at its final size, a full one grows by
    /// the growth rule.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.unique(additional);
    }

    /// The whole block, entries and spare slots, held by this handle alone,
    /// with room for `additional` more entries.
    fn unique(&mut self, additional: usize) -> &mut [(Name, Value)] {
        unique(&mut self.block, self.len, additional)
    }

    /// Appends an entry out of order (sorted later by
    /// [`Map::sort_last_wins`]).
    fn push(&mut self, entry: (Name, Value)) {
        let len = self.len;
        self.unique(1)[len] = entry;
        self.len += 1;
    }

    /// Sorts entries put in any order; of equal names the last one put in
    /// wins.
    fn sort_last_wins(&mut self) {
        let len = self.len;
        if self.entries().is_sorted_by(|a, b| a.0 < b.0) {
            return;
        }
        let entries = &mut self.unique(0)[..len];
        // A stable sort keeps equal names in the order they were put in.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut kept = 0;
        for i in 1..len {
            if entries[i].0 != entries[kept].0 {
                kept += 1;
            }
            entries.swap(kept, i);
        }
        entries[kept + 1..].fill_with(spare);
        self.len = kept + 1;
    }

    /// The entries in name order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.entries().iter())
    }

    /// The entries in name order, their values to write to.
    pub fn iter_mut(&mut self) -> IterMut<'_> {
        let len = self.len;
        IterMut(self.unique(0)[..len].iter_mut())
    }

    /// The names in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Name> + ExactSizeIterator {
        self.entries().iter().map(|(k, _)| k)
    }

    /// The values in name order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator {
        self.entries().iter().map(|(_, v)| v)
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

/// The entries of an owned map in name order, moved out of its block: a
/// uniquely held map is taken apart in place, a shared one copied once.
pub struct IntoIter {
    map: Map,
    next: usize,
}

impl IntoIter {
    /// The entry at `i`, moved out of the block (held alone since
    /// [`Map::into_iter`], so this copies nothing).
    fn take(&mut self, i: usize) -> (Name, Value) {
        mem::replace(&mut self.map.unique(0)[i], spare())
    }
}

impl Iterator for IntoIter {
    type Item = (Name, Value);

    fn next(&mut self) -> Option<Self::Item> {
        (self.next < self.map.len).then(|| {
            self.next += 1;
            self.take(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.map.len - self.next;
        (left, Some(left))
    }
}

impl DoubleEndedIterator for IntoIter {
    fn next_back(&mut self) -> Option<Self::Item> {
        (self.next < self.map.len).then(|| {
            self.map.len -= 1;
            self.take(self.map.len)
        })
    }
}

impl ExactSizeIterator for IntoIter {}

/// Sorts once: of equal names the last wins, as [`Map::insert`] in turn
/// would have it. One allocation for an iterator that knows its length.
impl<K: Into<Name>> FromIterator<(K, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        map.extend(iter);
        map
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
        self.reserve(iter.size_hint().0);
        for (k, v) in iter {
            self.push((k.into(), v));
        }
        self.sort_last_wins();
    }
}

impl IntoIterator for Map {
    type Item = (Name, Value);
    type IntoIter = IntoIter;

    fn into_iter(mut self) -> Self::IntoIter {
        self.unique(0);
        IntoIter { map: self, next: 0 }
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
        self.entries().cmp(other.entries())
    }
}

impl std::hash::Hash for Map {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}
