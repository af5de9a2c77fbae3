//! Host-cost probes: a counting global allocator, process CPU time and
//! peak resident memory from `/proc`, pinning to one CPU, and the
//! yardstick that tells how fast the host is while a pass runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Counts every heap allocation the process makes and the bytes asked
/// for. Frees are not counted: the metrics are "requested per request".
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow asks the heap for the difference; a shrink asks for nothing.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// (allocations, bytes requested) since the process started.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Process CPU time so far as (user ms, system ms), from
/// `/proc/self/stat` fields 14 and 15 (clock ticks; Linux fixes
/// `USER_HZ` at 100, so one tick is 10 ms).
pub fn cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (utime, stime) = (tick(), tick());
    (utime * 10.0, stime * 10.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all threads, to the
/// nanosecond (`/proc` only counts 10 ms ticks).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark builds for).
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        ts.tv_sec.max(0) as u64,
        ts.tv_nsec.clamp(0, 999_999_999) as u32,
    )
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `cpu_set_t`: 1,024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts this thread, and every thread it starts afterwards, to the
/// first CPU it is allowed on; returns that CPU's number.
///
/// Every workload is a chain with one runnable thread at a time: the
/// client sleeps while a worker runs. Spread over two virtual CPUs, each
/// hand-over wakes a halted CPU, and in the sandbox that path flips
/// between a fast regime and one half as fast, seconds at a time (an
/// `invoke_sync`-shaped loop measured 31k/s and 16k/s). On one CPU the
/// hand-over is a context switch and the rate holds within ±2 %: the
/// host metrics then price the system's code, not the hypervisor.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a valid, writable buffer of the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let bit = bits.trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a valid buffer of the size passed; the call only
    // reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

// ---- The yardstick ---------------------------------------------------------

/// Runs `units` units of the yardstick and returns the wall time they
/// took. A unit is a fixed amount of work shaped like the system's own
/// — a thread started, small heap objects built, copied and freed, a
/// reply over a channel — but written here, calling nothing of the
/// system: a change to the system cannot make it faster.
pub fn yardstick(units: usize) -> Duration {
    let started = Instant::now();
    for unit in 0..units {
        let (tx, rx) = mpsc::sync_channel::<usize>(1);
        let worker = std::thread::Builder::new()
            .name("yardstick".to_owned())
            .spawn(move || {
                let mut map = BTreeMap::new();
                for i in 0..64 {
                    map.insert(format!("key-{unit:04}-{i:04}"), "v".repeat(64));
                }
                let copy = std::hint::black_box(map.clone());
                let _ = tx.send(copy.len());
            })
            .expect("spawn a yardstick worker");
        while rx.recv_timeout(Duration::from_micros(200)).is_err() {}
        worker.join().expect("yardstick worker finished");
    }
    started.elapsed()
}

/// Yardstick units per second on the sandbox the benchmark was written
/// on, pinned to one CPU, at its usual speed. A host that does this many
/// has `speed_x` 1.
pub const NOMINAL_UNITS_PER_S: f64 = 13_000.0;

/// Yardstick units run per second of CPU time the pass itself uses:
/// about 6 % on top.
const UNITS_PER_BUSY_SECOND: f64 = 800.0;

/// The least the yardstick runs per second of wall time, about 3 %: a
/// pass that mostly waits (the HTTP workload is busy for 2 ms in 44)
/// would otherwise get too few doses for a steady reading.
const UNITS_PER_WALL_SECOND: f64 = 400.0;

/// The yardstick is due this long after the last dose.
const YARDSTICK_GAP: Duration = Duration::from_millis(20);

/// The sandbox's speed for this kind of work drifts by a third over
/// minutes and flickers by a fifth within seconds, identically for
/// identical work, so raw host times from two runs cannot be compared.
/// The yardstick is run in small doses between requests, all through a
/// pass, in proportion to the CPU time the pass itself uses (time spent
/// waiting, like the front door's 40 ms stall, does not depend on the
/// host's speed); what the doses cost tells how fast the host was while
/// the pass was busy, and the busy part of the host metrics is scaled
/// to a host of nominal speed. In eight back-to-back runs of one
/// workload the raw rate ranged over 44 % and the scaled rate over 6 %.
pub struct Yardstick {
    /// When the last dose ended, and the process CPU time then.
    last_dose: Instant,
    last_dose_cpu: Duration,
    /// Totals so far: what the pass's own readings must leave out.
    pub units: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Yardstick {
    pub fn start() -> Self {
        Yardstick {
            last_dose: Instant::now(),
            last_dose_cpu: process_cpu(),
            units: 0,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    /// Runs a dose if one is due, sized to the CPU time used since the
    /// last. Call between requests, when nothing of the system is running.
    pub fn dose_if_due(&mut self) {
        let waited = self.last_dose.elapsed();
        if waited < YARDSTICK_GAP {
            return;
        }
        let before = process_cpu();
        let busy = before.saturating_sub(self.last_dose_cpu);
        let units = (busy.as_secs_f64() * UNITS_PER_BUSY_SECOND)
            .max(waited.as_secs_f64() * UNITS_PER_WALL_SECOND)
            .ceil() as usize;
        let (allocs, bytes) = alloc_counts();
        self.wall += yardstick(units);
        let (allocs_after, bytes_after) = alloc_counts();
        self.last_dose = Instant::now();
        self.last_dose_cpu = process_cpu();
        self.cpu += self.last_dose_cpu.saturating_sub(before);
        self.units += units as u64;
        self.allocs += allocs_after - allocs;
        self.alloc_bytes += bytes_after - bytes;
    }
}

/// How fast the host was, from yardstick totals: 1 is nominal, below 1
/// is slower. Host times multiplied by this are times on a nominal host.
pub fn speed_x(units: u64, wall: Duration) -> f64 {
    if wall.is_zero() {
        return 1.0;
    }
    units as f64 / wall.as_secs_f64() / NOMINAL_UNITS_PER_S
}
