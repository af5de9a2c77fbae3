//! What a shared string and a free name cost: nothing. This test binary
//! counts the heap allocations of the calling thread, and pins at zero
//! the operations the protocol repeats for every row it touches — a copy
//! of a string or a name, naming a constant attribute, re-setting an
//! attribute a row has, taking a string out of a row it owns. It also
//! pins how a map is sized: a builder that knows its size allocates it
//! once, and a write that adds attributes grows a map, or copies a shared
//! one, one time.

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
}

fn count() {
    // Without a destructor the slot outlives every allocation of its thread.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    let taken = row.take_str("Id").expect("an id");
    assert!(Arc::ptr_eq(&taken, &stored), "the row's string, not a copy");
    drop(taken);
    let mut row = vmap! { "Id" => "instance-2" };
    assert_eq!(allocations(|| row.take_str("Id")), 0);
}

/// The attribute names the sizing tests add, none of them `Key`.
const NAMES: [&str; 8] = ["a", "Value", "Log", "z", "Done", "b#1", "Ts", "m"];

#[test]
fn a_vmap_allocates_its_handle_and_its_entries_once() {
    // Of 1, 2, 4 and 8 entries, none of whose values allocates.
    assert_eq!(allocations(|| vmap! { "a" => 1i64 }), 2);
    assert_eq!(allocations(|| vmap! { "a" => 1i64, "Value" => true }), 2);
    assert_eq!(
        allocations(|| vmap! { "a" => 1i64, "Value" => true, "Log" => 3i64, "z" => Value::Null }),
        2
    );
    let eight = || {
        vmap! {
            "a" => 1i64, "Value" => true, "Log" => 3i64, "z" => Value::Null,
            "Done" => false, "b#1" => 6i64, "Ts" => 7i64, "m" => 8i64,
        }
    };
    assert_eq!(allocations(eight), 2);
    assert_eq!(eight().as_map().map(|m| m.len()), Some(8));
}

#[test]
fn an_update_grows_a_row_it_holds_at_most_once() {
    for k in 1..=NAMES.len() {
        let update = NAMES[..k]
            .iter()
            .fold(Update::new(), |u, name| u.set(*name, Value::Int(1)));
        let mut row = vmap! { "Key" => 1i64 };
        let (_, reallocations) = counts(|| update.apply(&mut row).unwrap());
        assert!(
            reallocations <= 1,
            "{k} attributes: {reallocations} reallocations"
        );
        assert_eq!(row.as_map().map(|m| m.len()), Some(k + 1));
    }
}

#[test]
fn a_write_that_grows_a_shared_map_copies_it_once() {
    let original = vmap! { "Key" => 1i64, "Id" => 2i64 };
    // One new attribute through `set_path`: the handle and the entries.
    let mut row = original.clone();
    let path = Path::attr("Log");
    assert_eq!(counts(|| row.set_path(&path, Value::Int(3))), (2, 0));
    // Several through one update: the same two, plus its undo log.
    let update = NAMES[..4]
        .iter()
        .fold(Update::new(), |u, name| u.set(*name, Value::Int(1)));
    let mut row = original.clone();
    assert_eq!(counts(|| update.apply(&mut row).unwrap()), (3, 0));
    assert_eq!(row.as_map().map(|m| m.len()), Some(6));
    assert_eq!(original.as_map().map(|m| m.len()), Some(2));
}
