//! What a crash probe costs: nothing. Every platform invocation probes
//! under its request id and every Beldi execution under its instance id,
//! so this test binary counts the heap allocations of the calling thread
//! and pins at zero the probes through a handle, a restart, and the
//! handle of an id used once. Every layer counts into the registry on its hot
//! path, so a counter, a gauge move and a histogram sample are pinned at
//! zero too, and so are an op scope and a store call that no reader of the
//! run record sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use beldi_simclock::{logging_step, Gauge, Hist, Metric, Op, StoreCall, StoreKind, Telemetry};
use beldi_simfaas::{FaultInjector, Label, Probe};

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
    let id: Arc<str> = "i1".into();
    // The first execution of an instance gets its counters: one
    // allocation or more.
    assert!(allocations(|| faults.instance_started(&id)) > 0);
    let probe = faults.instance_started(&id);
    let every_label_three_times = |probe: &Probe| {
        for _ in 0..3 {
            for label in Label::ALL {
                faults.crash_point(probe, label);
            }
        }
    };
    assert_eq!(allocations(|| every_label_three_times(&probe)), 0);
    drop(probe);
    let restarted = allocations(|| faults.instance_started(&id));
    assert_eq!(restarted, 0);
    let probe = faults.instance_started(&id);
    assert_eq!(allocations(|| every_label_three_times(&probe)), 0);
    assert_eq!(faults.restart_count(), 3);
    assert_eq!(faults.injected_count(), 0);
    // An id used once gets a handle with no entry, for nothing.
    let once: Arc<str> = "request-1".into();
    assert_eq!(allocations(|| Probe::untracked(once.clone())), 0);
    let untracked = Probe::untracked(once);
    assert_eq!(allocations(|| every_label_three_times(&untracked)), 0);
}

#[test]
fn recording_into_the_registry_allocates_nothing() {
    let t = Telemetry::new();
    let instance: Arc<str> = "i1".into();
    let record = || {
        for m in Metric::ALL {
            t.add(m, 1);
        }
        t.move_gauge(Gauge::FaasActive, 1);
        t.move_gauge(Gauge::FaasActive, -1);
        t.record(Hist::Recovery, Duration::from_millis(3));
        // An op scope, a second nested in it, and a store call under
        // both and a step tag, with no reader of the run record.
        let outer = t.op(Op::SyncInvoke, &instance);
        let inner = t.op(Op::Read, &instance);
        logging_step(7, || {
            t.log_store(|issuer, step| StoreCall {
                kind: StoreKind::Get,
                table: "t".into(),
                key: Some("k".into()),
                cond: None,
                rows: 1,
                bytes: 8,
                latency: Duration::from_millis(2),
                issuer,
                step,
            })
        });
        drop(inner);
        drop(outer);
    };
    assert_eq!(allocations(record), 0);
    assert_eq!(t.get(Metric::DbGets), 1);
    assert_eq!(t.get(Op::Read.metric()), 2);
    assert!(t.take_record().is_empty());
}
