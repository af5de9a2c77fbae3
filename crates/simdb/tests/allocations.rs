//! What a projection allocates. This test binary counts the heap bytes
//! the calling thread asks for, and pins that a projected copy is one
//! map sized by the paths the row holds: a projection that names more
//! attributes than the row has (a done-mark's, on an intent that was
//! never claimed) costs no more than the attributes it finds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use beldi_simdb::Projection;
use beldi_value::{vmap, Map, Value};

/// The system allocator, counting what each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
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

/// Heap allocations and bytes `f` asks for on this thread.
fn cost<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    black_box(f());
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

#[test]
fn a_projection_is_sized_by_the_paths_the_row_holds() {
    // Six attributes named, three held; the strings are shared handles,
    // so copying them allocates nothing.
    let row = vmap! { "Id" => "i-1", "Done" => true, "FinishTime" => 7i64, "Args" => "big" };
    let projection = Projection::attrs(["Id", "Done", "FinishTime", "LogSteps", "Claimant", "X"]);
    let three = cost(|| Value::Map(Map::with_capacity(3)));
    assert_eq!(three.0, 1, "a map is one allocation");
    assert_eq!(cost(|| projection.apply(&row)), three);
    // A row that holds none of them allocates nothing.
    let other = vmap! { "Args" => "big" };
    assert_eq!(cost(|| projection.apply(&other)), (0, 0));
    // Every path held: sized by all of them.
    let all = Projection::attrs(["Id", "Done", "FinishTime", "Args"]);
    assert_eq!(
        cost(|| all.apply(&row)),
        cost(|| Value::Map(Map::with_capacity(4)))
    );
}
