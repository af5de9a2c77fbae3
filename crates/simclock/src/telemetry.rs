//! One registry of the system's counters.
//!
//! A [`Telemetry`] holds every count the layers keep: the store's
//! operations and bytes, the platform's invocations, the fault injector's
//! kills, the collectors' passes and the DAAL tail cache's hits. Beside
//! the counters it keeps gauges, each with its high-water mark, and
//! virtual-time histograms. One registry serves one deployment: the
//! platform creates it, the database and every layer above record into
//! it, and `BeldiEnv::telemetry` reads it.
//!
//! The table at the bottom of this file is the one declaration. Each row
//! gives a variant and the dotted name reports print. The [`Metric`],
//! [`Gauge`] and [`Hist`] enums are generated from it, so a mistyped name
//! does not compile, and a read or a write is an array index. Adding a
//! counter is one row. A row of the `ops` block is both a counter and an
//! [`Op`]: a `core` op or collector step, whose scope ([`Telemetry::op`])
//! names the issuer of the store calls the run record holds
//! ([`crate::Event`]).
//!
//! Two groups of counters are also read as one record: the store's
//! ([`MetricsSnapshot`]) and the platform's ([`PlatformSnapshot`]). Their
//! rows sit in a `snapshot` block, which makes each row a field of the
//! record and names its counter `{prefix}.{field}`. The fields `beside`
//! the counters are filled by the layer that owns them: the store's
//! table-lock count and the platform's active-instance gauge.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::histogram::Histogram;
use crate::record::Recorder;

/// Declares the registry's names and records from its table (see the
/// module docs).
macro_rules! telemetry {
    (
        $(
            $(#[$snap_doc:meta])*
            snapshot $Snap:ident $prefix:literal {
                $( $(#[$doc:meta])* $field:ident: $Var:ident, )*
            } beside {
                $( $(#[$xdoc:meta])* $xfield:ident: $xty:ty, )*
            }
        )*
        counters { $( $(#[$cdoc:meta])* $Cvar:ident => $cname:literal, )* }
        ops { $( $(#[$odoc:meta])* $Ovar:ident => $oname:literal, )* }
        gauges { $( $(#[$gdoc:meta])* $Gvar:ident => $gname:literal, )* }
        histograms { $( $(#[$hdoc:meta])* $Hvar:ident => $hname:literal, )* }
    ) => {
        /// A counter of the registry, named by [`Metric::as_str`]
        /// (`simdb.gets`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Metric {
            $( $( $(#[$doc])* $Var, )* )*
            $( $(#[$cdoc])* $Cvar, )*
            $( $(#[$odoc])* $Ovar, )*
        }

        impl Metric {
            /// How many counters there are.
            pub const COUNT: usize =
                [$($(stringify!($Var),)*)* $($cname,)* $($oname,)*].len();

            /// Every counter, in table order: `ALL[m.index()] == m`.
            pub const ALL: [Metric; Metric::COUNT] =
                [$($(Metric::$Var,)*)* $(Metric::$Cvar,)* $(Metric::$Ovar,)*];

            /// The counter's dotted name.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $($( Metric::$Var => concat!($prefix, ".", stringify!($field)), )*)*
                    $( Metric::$Cvar => $cname, )*
                    $( Metric::$Ovar => $oname, )*
                }
            }
        }

        /// A `core` op or collector step: an op scope's name
        /// ([`Telemetry::op`]), and the counter of the scopes opened.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Op {
            $( $(#[$odoc])* $Ovar, )*
        }

        impl Op {
            /// How many ops there are.
            pub const COUNT: usize = [$($oname,)*].len();

            /// Every op, in table order.
            pub const ALL: [Op; Op::COUNT] = [$(Op::$Ovar,)*];

            /// The counter of its scopes.
            pub const fn metric(self) -> Metric {
                match self {
                    $( Op::$Ovar => Metric::$Ovar, )*
                }
            }

            /// Its counter's dotted name.
            pub const fn as_str(self) -> &'static str {
                self.metric().as_str()
            }
        }

        /// A gauge of the registry: a level that moves both ways, kept
        /// with the highest value it reached.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Gauge {
            $( $(#[$gdoc])* $Gvar, )*
        }

        impl Gauge {
            /// How many gauges there are.
            pub const COUNT: usize = [$($gname,)*].len();

            /// Every gauge, in table order.
            pub const ALL: [Gauge; Gauge::COUNT] = [$(Gauge::$Gvar,)*];

            /// The gauge's dotted name.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $( Gauge::$Gvar => $gname, )*
                }
            }
        }

        /// A virtual-time histogram of the registry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Hist {
            $( $(#[$hdoc])* $Hvar, )*
        }

        impl Hist {
            /// How many histograms there are.
            pub const COUNT: usize = [$($hname,)*].len();

            /// Every histogram, in table order.
            pub const ALL: [Hist; Hist::COUNT] = [$(Hist::$Hvar,)*];

            /// The histogram's dotted name.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $( Hist::$Hvar => $hname, )*
                }
            }
        }

        $(
            $(#[$snap_doc])*
            #[derive(Debug, Clone, Default, PartialEq, Eq)]
            pub struct $Snap {
                $( $(#[$doc])* pub $field: u64, )*
                $( $(#[$xdoc])* pub $xfield: $xty, )*
            }

            impl $Snap {
                /// The counters the record reads, in field order.
                pub const METRICS: &'static [Metric] = &[$(Metric::$Var,)*];

                /// The layer its counters' names start with.
                pub const PREFIX: &'static str = $prefix;

                /// The counters as `t` holds them, the fields beside them
                /// at their defaults.
                fn counters(t: &Telemetry) -> Self {
                    $Snap {
                        $( $field: t.get(Metric::$Var), )*
                        ..Default::default()
                    }
                }

                /// `self - earlier`, for a measurement window (a field
                /// beside the counters reads as its `Window` impl says).
                pub fn delta(&self, earlier: &Self) -> Self {
                    $Snap {
                        $( $field: self.$field - earlier.$field, )*
                        $( $xfield: Window::since(&self.$xfield, &earlier.$xfield), )*
                    }
                }
            }
        )*
    };
}

impl Metric {
    /// The counter's position in [`Metric::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// How a field kept beside a record's counters reads over a window.
trait Window {
    fn since(&self, earlier: &Self) -> Self;
}

/// A list of counts subtracts index by index.
impl Window for Vec<u64> {
    fn since(&self, earlier: &Self) -> Self {
        self.iter()
            .enumerate()
            .map(|(i, v)| v - earlier.get(i).copied().unwrap_or(0))
            .collect()
    }
}

/// A gauge is a level, not a flow: over a window it reads its value at
/// the window's end.
impl Window for i64 {
    fn since(&self, _earlier: &Self) -> Self {
        *self
    }
}

/// The registry (see the module docs). A counter or gauge write is one
/// relaxed atomic and a histogram sample a short lock on a preallocated
/// histogram, so recording allocates nothing.
pub struct Telemetry {
    counters: [AtomicU64; Metric::COUNT],
    /// Each gauge's level and its high-water mark.
    gauges: [[AtomicI64; 2]; Gauge::COUNT],
    histograms: [Mutex<Histogram>; Hist::COUNT],
    /// The run record, while a reader has it started.
    pub(crate) recorder: Recorder,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| [AtomicI64::new(0), AtomicI64::new(0)]),
            histograms: std::array::from_fn(|_| Mutex::new(Histogram::new())),
            recorder: Recorder::default(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(Metric::ALL.iter().map(|&m| (m.as_str(), self.get(m))))
            .finish()
    }
}

impl Telemetry {
    /// An empty registry: every counter, gauge and histogram at zero.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Adds `n` to counter `m`.
    pub fn add(&self, m: Metric, n: u64) {
        self.counters[m.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Counter `m`'s value.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m.index()].load(Ordering::Relaxed)
    }

    /// Moves gauge `g` by `by`, raising its high-water mark if the new
    /// level tops it.
    pub fn move_gauge(&self, g: Gauge, by: i64) {
        let [level, peak] = &self.gauges[g as usize];
        let now = level.fetch_add(by, Ordering::Relaxed) + by;
        peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Gauge `g`'s level and its high-water mark.
    pub fn gauge(&self, g: Gauge) -> (i64, i64) {
        let [level, peak] = &self.gauges[g as usize];
        (level.load(Ordering::Relaxed), peak.load(Ordering::Relaxed))
    }

    /// Records one sample into histogram `h`.
    pub fn record(&self, h: Hist, d: Duration) {
        self.histograms[h as usize].lock().record(d);
    }

    /// A copy of histogram `h`.
    pub fn histogram(&self, h: Hist) -> Histogram {
        self.histograms[h as usize].lock().clone()
    }

    /// The store's counters, with its table-lock count beside them.
    pub fn db(&self, lock_ops: &AtomicU64) -> MetricsSnapshot {
        stable(|| MetricsSnapshot {
            partition_ops: vec![lock_ops.load(Ordering::Relaxed)],
            ..MetricsSnapshot::counters(self)
        })
    }

    /// The platform's counters, with the `simfaas.active` gauge beside
    /// them.
    pub fn platform(&self) -> PlatformSnapshot {
        stable(|| {
            let (active, peak_active) = self.gauge(Gauge::FaasActive);
            PlatformSnapshot {
                active,
                peak_active,
                ..PlatformSnapshot::counters(self)
            }
        })
    }
}

/// Reads a record until two passes agree.
///
/// The counters are independent relaxed atomics, so one pass over them
/// can interleave with a concurrent recorder and return a set that never
/// existed at any one instant (a lock count from *after* an operation
/// whose kind counter was read *before* it). A stable double
/// read is a consistent cut. Under sustained concurrent load the retry
/// budget can run out; the last pass is then returned as a best effort
/// (windows bracketed by quiescent points, as the harnesses use, always
/// stabilize).
fn stable<T: PartialEq>(mut read: impl FnMut() -> T) -> T {
    const ATTEMPTS: usize = 8;
    let mut prev = read();
    for _ in 0..ATTEMPTS {
        let cur = read();
        if cur == prev {
            return cur;
        }
        prev = cur;
    }
    prev
}

impl MetricsSnapshot {
    /// Total operation count across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.writes + self.queries + self.scans + self.transact_writes + self.deletes
    }
}

telemetry! {
    /// A point-in-time copy of the store's counters (`simdb`). §7.3 of
    /// the paper reports "other costs": extra bytes stored per operation,
    /// bytes fetched by DAAL scans, and requests per operation. These
    /// counters make that table reproducible: the database counts every
    /// operation and every byte it returns or stores.
    snapshot MetricsSnapshot "simdb" {
        /// Point reads.
        gets: DbGets,
        /// Single-row writes (put/update), failed conditional writes
        /// included.
        writes: DbWrites,
        /// Hash-key query pages served.
        queries: DbQueries,
        /// Scan pages served.
        scans: DbScans,
        /// Cross-table transactional writes.
        transact_writes: DbTransactWrites,
        /// Deletes.
        deletes: DbDeletes,
        /// Conditional writes whose condition failed.
        cond_failures: DbCondFailures,
        /// Bytes returned to clients.
        bytes_read: DbBytesRead,
        /// Bytes written into rows.
        bytes_written: DbBytesWritten,
        /// Rows examined by queries and scans.
        rows_scanned: DbRowsScanned,
        /// Writes that started later than issued, queued behind an
        /// earlier write to the same item.
        lock_waits: DbLockWaits,
    } beside {
        /// Table-lock acquisitions (across tables), as a one-element
        /// list.
        partition_ops: Vec<u64>,
    }

    /// A point-in-time copy of the platform's counters (`simfaas`).
    snapshot PlatformSnapshot "simfaas" {
        /// Invocations started.
        invocations: FaasInvocations,
        /// Invocations that returned a value.
        completions: FaasCompletions,
        /// Invocations that crashed (injected or panic).
        crashes: FaasCrashes,
        /// Synchronous invocations whose caller timed out.
        timeouts: FaasTimeouts,
        /// Invocations rejected for exceeding the concurrency cap.
        throttles: FaasThrottles,
        /// Invocations that paid a cold start.
        cold_starts: FaasColdStarts,
        /// Invocations served by a warm worker.
        warm_starts: FaasWarmStarts,
    } beside {
        /// Currently running instances.
        active: i64,
        /// Most instances ever running at once.
        peak_active: i64,
    }

    counters {
        // ---- Fault injector (simfaas) ----

        /// Crashes a plan or the storm injected.
        FaultsInjected => "faults.injected",
        /// Executions of an instance id the injector already knew.
        FaultsRestarts => "faults.restarts",
        /// Instances killed because their execution lease (`T_max`)
        /// expired: the platform enforcing its contract, not a fault.
        FaultsLeaseKills => "faults.lease_kills",

        // ---- Garbage collector (core) ----
        //
        // A pass is counted where every entry point goes through it; its
        // work counts are added when it succeeds, and corruption where it
        // is found (a pass that finds some fails in debug builds).

        /// Passes run.
        GcPasses => "core.gc.passes",
        /// Passes that returned an error (the next tick retries).
        GcErrors => "core.gc.errors",
        /// Passes killed mid-flight by an injected crash.
        GcCrashes => "core.gc.crashes",
        /// Intents classified recyclable and removed.
        GcRecycledIntents => "core.gc.recycled_intents",
        /// Log entries deleted.
        GcDeletedLogEntries => "core.gc.deleted_log_entries",
        /// DAAL rows disconnected (stamped dangling).
        GcDisconnectedRows => "core.gc.disconnected_rows",
        /// DAAL and shadow rows deleted.
        GcDeletedRows => "core.gc.deleted_rows",
        /// Cyclic DAAL chains found and left untouched.
        GcCorruptChains => "core.gc.corrupt_chains",
        /// Done intents left in place because their `FinishTime` or
        /// `LogSteps` is malformed.
        GcCorruptIntents => "core.gc.corrupt_intents",

        // ---- Intent collector (core) ----

        /// Passes run.
        IcPasses => "core.ic.passes",
        /// Passes that returned an error.
        IcErrors => "core.ic.errors",
        /// Passes killed mid-flight by an injected crash.
        IcCrashes => "core.ic.crashes",
        /// Unfinished intents found.
        IcUnfinished => "core.ic.unfinished",
        /// Instances re-launched.
        IcRestarted => "core.ic.restarted",
        /// Intents skipped because they were launched too recently.
        IcTooRecent => "core.ic.too_recent",
        /// Intents with nothing to re-send, quarantined.
        IcCorrupt => "core.ic.corrupt",

        // ---- DAAL tail cache (core) ----

        /// Reads whose cached tail a point read confirmed.
        TailCacheHits => "core.tail_cache.hits",
        /// Reads that traversed: no entry, or a stale one.
        TailCacheMisses => "core.tail_cache.misses",
        /// Logged writes that case B resolved on the cached tail row,
        /// without a traversal.
        TailCacheWriteHits => "core.tail_cache.write_hits",
        /// Cached write attempts whose condition failed, so the write
        /// traversed (a write with no entry traverses uncounted).
        TailCacheWriteFallbacks => "core.tail_cache.write_fallbacks",
    }

    ops {
        // ---- Ops of an SSF (core) ----

        /// Logged reads, in or out of a transaction, and the logged
        /// clock and id reads.
        Read => "core.op.read",
        /// Logged writes.
        Write => "core.op.write",
        /// Logged conditional writes.
        CondWrite => "core.op.cond_write",
        /// Synchronous invocations, with their invoke-log entries.
        SyncInvoke => "core.op.sync_invoke",
        /// Asynchronous invocations, with their invoke-log entries and
        /// the callee's registration request.
        AsyncInvoke => "core.op.async_invoke",
        /// Callbacks recorded on a caller's invoke-log entry (a result or
        /// an async callee's registration).
        Callback => "core.op.callback",
        /// Transactions begun.
        TxnBegin => "core.op.txn_begin",
        /// Commit decisions run: an owner's `end_tx`, or a commit signal.
        TxnCommit => "core.op.txn_commit",
        /// Abort decisions run: an owner's `end_tx` or `abort_tx`, or an
        /// abort signal.
        TxnAbort => "core.op.txn_abort",
        /// Locks taken or released: a standalone lock or unlock, or a
        /// transaction's lock on an item it had not locked.
        Lock => "core.op.lock",
        /// Wait-die retries: a transaction's lock attempt found the item
        /// held and read who holds it.
        WaitDieRetry => "core.op.wait_die_retry",
        /// Intent registrations, an async stub's check included.
        IntentRegister => "core.op.intent_register",
        /// Intents marked done.
        MarkDone => "core.op.mark_done",
        /// Root replies settled by the driver (a failed attempt reads the
        /// root's intent).
        RootSettle => "core.op.root_settle",

        // ---- Collector steps (core) ----

        /// IC passes' scans of their unfinished intents.
        IcScan => "core.op.ic_scan",
        /// IC restart claims, with the re-launch a won claim fires.
        IcRestart => "core.op.ic_restart",
        /// GC step 2: classifying done intents.
        GcClassify => "core.op.gc_classify",
        /// GC step 3: deleting recyclable intents' log entries.
        GcLogPrune => "core.op.gc_log_prune",
        /// GC steps 4–5: the DAAL and shadow sweep.
        GcDaal => "core.op.gc_daal",
        /// GC step 6: deleting recyclable intents.
        GcRecycle => "core.op.gc_recycle",
    }

    gauges {
        /// Instances running on the platform.
        FaasActive => "simfaas.active",
        /// Instances the fault injector keeps state for. The garbage
        /// collector's `forget` lowers it when it recycles an intent.
        FaultsInstances => "faults.instances",
    }

    histograms {
        /// Recovery latency: for each instance the fault injector killed
        /// at least once and that reached `Done`, intent creation to
        /// `Done` on virtual time, sampled once per instance.
        Recovery => "core.recovery",
        /// A workflow request through the HTTP front door: admission to
        /// reply on virtual time, one sample per answered request.
        FrontRequest => "front.request",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn dotted(s: &str) -> bool {
        s.split('.').count() >= 2
            && s.split('.').all(|seg| {
                !seg.is_empty()
                    && seg
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            })
    }

    #[test]
    fn metrics_are_well_formed() {
        let names: Vec<&str> = Metric::ALL
            .iter()
            .map(|m| m.as_str())
            .chain(Gauge::ALL.iter().map(|g| g.as_str()))
            .chain(Hist::ALL.iter().map(|h| h.as_str()))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate name");
        for name in names {
            assert!(dotted(name), "malformed name {name}");
        }
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i, "{} is not at its index", m.as_str());
        }
        for (i, g) in Gauge::ALL.into_iter().enumerate() {
            assert_eq!(g as usize, i, "{} is not at its index", g.as_str());
        }
        for (i, h) in Hist::ALL.into_iter().enumerate() {
            assert_eq!(h as usize, i, "{} is not at its index", h.as_str());
        }
        // Each op counts in its own counter, named under `core.op`.
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{} is not at its index", op.as_str());
            assert!(op.as_str().starts_with("core.op."), "{}", op.as_str());
        }
        // Each record reads exactly the counters named under its prefix.
        for (prefix, group) in [
            (MetricsSnapshot::PREFIX, MetricsSnapshot::METRICS),
            (PlatformSnapshot::PREFIX, PlatformSnapshot::METRICS),
        ] {
            let named: Vec<Metric> = Metric::ALL
                .into_iter()
                .filter(|m| m.as_str().split('.').next() == Some(prefix))
                .collect();
            assert_eq!(named, group, "{prefix}");
        }
    }

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.add(Metric::DbGets, 1);
        t.add(Metric::DbGets, 1);
        t.add(Metric::DbWrites, 1);
        t.add(Metric::DbBytesRead, 100);
        t.add(Metric::GcPasses, 3);
        t.move_gauge(Gauge::FaasActive, 1);
        t.move_gauge(Gauge::FaasActive, 1);
        t.move_gauge(Gauge::FaasActive, -2);
        t.record(Hist::Recovery, Duration::from_millis(5));
        let s = t.db(&AtomicU64::new(2));
        assert_eq!((s.gets, s.writes, s.bytes_read), (2, 1, 100));
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.partition_ops, vec![2]);
        assert_eq!(t.get(Metric::GcPasses), 3);
        let p = t.platform();
        assert_eq!((p.active, p.peak_active), (0, 2));
        assert_eq!(t.histogram(Hist::Recovery).len(), 1);
    }

    #[test]
    fn delta_subtracts() {
        let t = Telemetry::new();
        let locks = AtomicU64::new(1);
        t.add(Metric::DbQueries, 1);
        let before = t.db(&locks);
        t.add(Metric::DbQueries, 1);
        t.add(Metric::DbScans, 1);
        locks.fetch_add(1, Ordering::Relaxed);
        let d = t.db(&locks).delta(&before);
        assert_eq!((d.queries, d.scans, d.gets), (1, 1, 0));
        assert_eq!(d.partition_ops, vec![1]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a stress test of real parallelism on atomics: nothing in it waits on a clock"
    )]
    fn snapshot_is_monotonic_under_load_and_exact_at_quiescence() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let t = Arc::new(Telemetry::new());
        let locks = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (t, locks, stop) = (Arc::clone(&t), Arc::clone(&locks), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    t.add(Metric::DbGets, 1);
                    locks.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                i
            })
        };
        let mut last = 0u64;
        for _ in 0..200 {
            let s = t.db(&locks);
            assert!(s.gets >= last, "snapshot went backwards");
            last = s.gets;
        }
        stop.store(true, Ordering::Relaxed);
        let total = writer.join().unwrap();
        // Quiescent point: the stabilized snapshot is exact and mutually
        // consistent across counters.
        let s = t.db(&locks);
        assert_eq!(s.gets, total);
        assert_eq!(s.partition_ops, vec![total]);
        assert_eq!(s, t.db(&locks));
    }
}
