//! What a shared string and a free name cost: nothing. This test binary
//! counts the heap allocations of the calling thread, and pins at zero
//! the operations the protocol repeats for every row it touches — a copy
//! of a string or a name, naming a constant attribute, re-setting an
//! attribute a row has, taking a string out of a row it owns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use beldi_value::{vmap, Map, Name, Path, Value};

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local!(static ALLOCATIONS: Cell<u64> = const { Cell::new(0) });

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
    let before = ALLOCATIONS.with(Cell::get);
    black_box(f());
    ALLOCATIONS.with(Cell::get) - before
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
