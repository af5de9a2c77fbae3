//! What a shared string and a free name cost: nothing. This test binary
//! counts the heap allocations of the calling thread, and pins at zero
//! the operations the protocol repeats for every row it touches — a copy
//! of a string or a name, naming a constant attribute, re-setting an
//! attribute a row has, taking a string out of a row it owns. It also
//! pins how a map is sized: a map is one allocation, a builder that knows
//! its size allocates it once, a write that adds attributes grows a map,
//! or copies a shared one, one time, and a map grown one entry at a time
//! follows the growth rule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use beldi_value::{vmap, Map, Name, Path, Update, Value};

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts an allocation that asks the heap for `bytes` more.
fn count(bytes: usize) {
    // Without a destructor the slot outlives every allocation of its thread.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow asks the heap for the difference; a shrink asks for nothing.
        count(new_size.saturating_sub(layout.size()));
        let _ = REALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    counts(f).0
}

/// Heap allocations `f` makes on this thread, and how many of them grow
/// or shrink an allocation in place of a fresh one.
fn counts<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), REALLOCATIONS.with(Cell::get));
    black_box(f());
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        REALLOCATIONS.with(Cell::get) - before.1,
    )
}

const ATTR: &str = "RecentWrites";

#[test]
fn the_counter_counts() {
    assert_eq!(allocations(|| String::from("x")), 1);
    assert_eq!(allocations(|| Value::from("x")), 1);
    assert_eq!(bytes(|| String::from("xyz")), 3);
}

/// Bytes `f` asks the heap for on this thread.
fn bytes<R>(f: impl FnOnce() -> R) -> u64 {
    let before = BYTES.with(Cell::get);
    black_box(f());
    BYTES.with(Cell::get) - before
}

#[test]
fn a_string_copy_is_free() {
    let s = Value::from("instance-1#3");
    assert_eq!(allocations(|| s.clone()), 0);
    let shared: Arc<str> = "instance-1#3".into();
    assert_eq!(allocations(|| Value::from(&shared)), 0);
}

#[test]
fn a_name_is_free() {
    let shared = Name::from(String::from("instance-1#3"));
    let constant = Name::from(ATTR);
    assert_eq!(allocations(|| shared.clone()), 0);
    assert_eq!(allocations(|| constant.clone()), 0);
    assert_eq!(allocations(|| Name::from(ATTR)), 0);
    assert_eq!(allocations(|| Path::attr(ATTR)), 0);
    assert_eq!(allocations(|| Path::from(ATTR)), 0);
}

#[test]
fn re_setting_an_attribute_a_map_holds_is_free() {
    let mut m = Map::new();
    m.insert(ATTR, Value::Int(1));
    assert_eq!(allocations(|| m.insert(ATTR, Value::Int(2))), 0);
    let mut row = Value::Map(m);
    let path = Path::attr(ATTR);
    assert_eq!(allocations(|| row.set_path(&path, Value::Int(3))), 0);
    assert_eq!(row.get_int(ATTR), Some(3));
}

#[test]
fn taking_a_string_from_an_owned_row_is_free() {
    let mut row = vmap! { "Id" => "instance-1", "Done" => false };
    let stored = row.get_shared_str("Id").cloned().expect("an id");
    assert_eq!(allocations(|| drop(stored.clone())), 0);
    let taken = row.take_attr("Id").expect("an id");
    let same = matches!(&taken, Value::Str(s) if Arc::ptr_eq(s, &stored));
    assert!(same, "the row's string, not a copy");
    drop(taken);
    let mut row = vmap! { "Id" => "instance-2" };
    assert_eq!(allocations(|| row.take_attr("Id")), 0);
}

/// The attribute names the sizing tests add, none of them `Key`.
const NAMES: [&str; 8] = ["a", "Value", "Log", "z", "Done", "b#1", "Ts", "m"];

#[test]
fn a_vmap_allocates_its_map_once() {
    // Of 1, 2, 4 and 8 entries, none of whose values allocates: the
    // entries sit in the block that holds the reference counts.
    assert_eq!(allocations(|| vmap! { "a" => 1i64 }), 1);
    assert_eq!(allocations(|| vmap! { "a" => 1i64, "Value" => true }), 1);
    assert_eq!(
        allocations(|| vmap! { "a" => 1i64, "Value" => true, "Log" => 3i64, "z" => Value::Null }),
        1
    );
    let eight = || {
        vmap! {
            "a" => 1i64, "Value" => true, "Log" => 3i64, "z" => Value::Null,
            "Done" => false, "b#1" => 6i64, "Ts" => 7i64, "m" => 8i64,
        }
    };
    assert_eq!(allocations(eight), 1);
    assert_eq!(eight().as_map().map(|m| m.len()), Some(8));
}

#[test]
fn a_map_grown_one_entry_at_a_time_follows_the_growth_rule() {
    // The bound, from the rule: blocks of exactly 1, 2, .., 8 entries,
    // then 16, 32, 64 and 128; each block is 16 B of reference counts
    // and 56 B an entry, and a fresh block asks for its whole size.
    const BLOCKS: [u64; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128];
    const MAX_ALLOCATIONS: u64 = BLOCKS.len() as u64;
    let max_bytes: u64 = BLOCKS.iter().map(|slots| 16 + 56 * slots).sum();
    assert_eq!(max_bytes, 15_648);

    let names: Vec<Name> = (0..100).map(|i| Name::from(format!("w{i:03}"))).collect();
    let mut map = Map::new();
    let grow = |map: &mut Map| {
        for name in &names {
            map.insert(name.clone(), Value::Int(1));
        }
    };
    let before = BYTES.with(Cell::get);
    let (allocated, reallocated) = counts(|| grow(&mut map));
    let asked = BYTES.with(Cell::get) - before;
    assert!(
        allocated <= MAX_ALLOCATIONS && reallocated == 0,
        "{allocated} allocations, {reallocated} reallocations"
    );
    assert!(asked <= max_bytes, "{asked} B");
    assert_eq!(map.len(), 100);
    assert!(map.keys().eq(names.iter()));
}

#[test]
fn collecting_a_map_allocates_once() {
    // Eight names out of order, two of them twice: sorted and
    // deduplicated in the block they were collected into.
    let entries = || {
        NAMES
            .iter()
            .chain(&NAMES[..2])
            .map(|name| (*name, Value::Int(1)))
    };
    assert_eq!(allocations(|| entries().collect::<Map>()), 1);
    let map: Map = entries().collect();
    assert_eq!(map.len(), NAMES.len());
    assert!(map.keys().is_sorted());
}

#[test]
fn iterating_an_owned_map_moves_its_entries_out_in_place() {
    let map: Map = NAMES.iter().map(|name| (*name, Value::Int(1))).collect();
    let shared = map.clone();
    // Shared: copied once, to take apart.
    assert_eq!(allocations(|| shared.into_iter().count()), 1);
    // Held alone: taken apart in its own block.
    assert_eq!(allocations(|| map.into_iter().count()), 0);
}

#[test]
fn an_update_grows_a_row_it_holds_at_most_once() {
    for k in 1..=NAMES.len() {
        let update = NAMES[..k]
            .iter()
            .fold(Update::new(), |u, name| u.set(*name, Value::Int(1)));
        let mut row = vmap! { "Key" => 1i64 };
        // One block at the new size, and the undo log.
        let (allocations, reallocations) = counts(|| update.apply(&mut row).unwrap());
        assert!(
            allocations <= 2 && reallocations == 0,
            "{k} attributes: {allocations} allocations, {reallocations} reallocations"
        );
        assert_eq!(row.as_map().map(|m| m.len()), Some(k + 1));
    }
}

#[test]
fn a_write_that_grows_a_shared_map_copies_it_once() {
    let original = vmap! { "Key" => 1i64, "Id" => 2i64 };
    // One new attribute through `set_path`: one block, at the new size.
    let mut row = original.clone();
    let path = Path::attr("Log");
    assert_eq!(counts(|| row.set_path(&path, Value::Int(3))), (1, 0));
    // Several through one update: the same block, plus its undo log.
    let update = NAMES[..4]
        .iter()
        .fold(Update::new(), |u, name| u.set(*name, Value::Int(1)));
    let mut row = original.clone();
    assert_eq!(counts(|| update.apply(&mut row).unwrap()), (2, 0));
    assert_eq!(row.as_map().map(|m| m.len()), Some(6));
    assert_eq!(original.as_map().map(|m| m.len()), Some(2));
}
