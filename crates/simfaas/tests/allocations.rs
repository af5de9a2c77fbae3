//! What a crash probe costs: nothing. Every platform invocation probes
//! under its request id and every Beldi execution under its instance id,
//! so this test binary counts the heap allocations of the calling thread
//! and pins at zero the probes of an instance the injector already knows
//! and a restart of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use beldi_simfaas::{FaultInjector, Label};

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

#[test]
fn the_counter_counts() {
    assert_eq!(allocations(|| String::from("x")), 1);
}

#[test]
fn a_probe_and_a_restart_allocate_nothing() {
    let faults = FaultInjector::new();
    // The first probe of an instance keeps its id: one allocation or more.
    assert!(allocations(|| faults.crash_point("i1", Label::WrapperEnter)) > 0);
    let every_label_three_times = || {
        for _ in 0..3 {
            for label in Label::ALL {
                faults.crash_point("i1", label);
            }
        }
    };
    assert_eq!(allocations(every_label_three_times), 0);
    assert_eq!(allocations(|| faults.instance_started("i1")), 0);
    assert_eq!(allocations(every_label_three_times), 0);
    assert_eq!(faults.restart_count(), 1);
    assert_eq!(faults.injected_count(), 0);
}
