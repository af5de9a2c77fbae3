//! The closed-loop concurrent workload driver (`BENCH_results.json`).
//!
//! Where [`crate::RateRunner`] reproduces wrk2's *open-loop* arrivals for
//! the paper's latency-vs-throughput figures, this module measures the
//! system the way a capacity benchmark does: `N` client workers share one
//! [`BeldiEnv`] (and therefore one sharded database) and each issues the
//! next request the moment the previous one completes. Throughput is
//! whatever the system sustains; latency is pure service time.
//!
//! Design points:
//!
//! - **One load loop.** A worker is a task on one
//!   [`beldi_runtime::Executor`], awaiting [`BeldiEnv::invoke_task`] for
//!   each of its requests in turn; a waiting worker is a parked waker,
//!   not an OS thread, so "every request in flight at once" is simply
//!   `workers = total_ops`. The SSF bodies run on platform worker
//!   threads, bounded by the concurrency cap.
//! - **Virtual time.** The environment runs on its default clock, a
//!   [`SimClock`](beldi_simclock::SimClock) seeded with the run's seed:
//!   the executor thread, every platform worker, collector timer and the
//!   sampler are participants of its one-at-a-time schedule, and time
//!   moves only by the *modelled* storage and invocation waits. Host
//!   speed cannot enter, which is what lets CI gate on equality (the
//!   `gate` subcommand).
//! - **Determinism.** The request stream is split up front: worker `w`
//!   gets a fixed share of `total_ops` and its own seeded RNG
//!   ([`worker_rng`]). With the schedule seeded too, everything in a
//!   [`BenchRun`] but `wall_ms` — latency summary, virtual duration,
//!   per-kind database deltas, every storage and in-flight sample, the
//!   chaos recovery record, the final-state digest — is a pure function
//!   of `(seed, options)`.
//! - **Metrics windows.** The database counters are read after
//!   setup/seeding and again at the end, so [`BenchRun::db`] is exactly
//!   the measured run's operation [`delta`](MetricsSnapshot::delta).
//!   Everything else — collector passes, recovery latencies — is read
//!   from the environment's one registry, [`BeldiEnv::telemetry`].
//!
//! Reports serialize to JSON via `beldi_value::json` (see `DESIGN.md` §9
//! for the schema) and read back for the CI regression gate; each report
//! struct's field list is declared once, in a [`wire_fields!`] call
//! beside it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi::value::Value;
use beldi::{schema, BeldiConfig, BeldiEnv, Mode, MAX_ROOT_ATTEMPTS};
use beldi_apps::WorkflowApp;
use beldi_simclock::{Hist, Metric};
use beldi_simdb::{LatencyModel, MetricsSnapshot};
use beldi_simfaas::{PlatformConfig, SaturationPolicy, StormPolicy};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::wire::{with_key, Wire};
use crate::wire_fields;
use beldi_simclock::Histogram;

/// Report schema version (bumped on incompatible JSON changes). Schema 2
/// reports named one of two load engines per run; their multi-worker
/// numbers come from a loop this build no longer has.
pub const BENCH_SCHEMA: i64 = 3;

/// How to write a fresh `BENCH_baseline.json`, quoted by every message
/// that refuses a stale one.
pub const REBASELINE: &str =
    "cargo run --release -p beldi-bench -- drive --smoke --json BENCH_baseline.json";

/// Tuning knobs for one [`drive`] call.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Concurrent client workers sharing the environment. With
    /// `workers = total_ops` every request is in flight at once.
    pub workers: usize,
    /// Total requests across all workers (split deterministically).
    pub total_ops: u64,
    /// Seed for the substrate RNGs and every worker's request stream.
    pub seed: u64,
    /// Apply the DynamoDB-shaped latency model (off = zero-latency
    /// storage, for functional tests).
    pub model_latency: bool,
    /// Enable the DAAL tail-row cache (the measured hot-path fix; off
    /// restores the always-scan read path for A/B comparison).
    pub tail_cache: bool,
    /// Run timer-triggered per-SSF garbage collectors *concurrently with
    /// the client workers* (online GC, paper §5): background collector
    /// functions fire every [`DriveOptions::gc_period`] of virtual time
    /// while the workers drive load, and the run records a
    /// storage-growth series ([`StorageSeries`]) proving the DAAL/log
    /// tables reach a steady-state plateau instead of growing without
    /// bound.
    pub gc: bool,
    /// Virtual-time period of the GC timers (and half the storage
    /// sampling period).
    pub gc_period: Duration,
    /// `T` (the execution lease and recycle horizon) for GC-enabled
    /// runs — small relative to the run's virtual duration, so recycling
    /// reaches steady state within the measured window, but above the
    /// run's latency tail: the lease kills any instance still running `T`
    /// after its launch.
    pub gc_t_max: Duration,
    /// Platform concurrency cap override (`None` = the driver default of
    /// 1000). The in-flight stress tests pin this *low* to prove the
    /// point of the cooperative runtime: 10k parked workflows over a few
    /// dozen worker threads.
    pub platform_concurrency: Option<usize>,
    /// Chaos-production mode (`None` = no fault injection): a seeded
    /// crash storm kills SSF instances *and* IC/GC collector passes
    /// mid-flight while the client workers push the normal request mix,
    /// with both collectors running on timers. The run then verifies the
    /// end state against a crash-free oracle drive of the same request
    /// stream and records a [`RecoverySection`]. Ignored in baseline
    /// mode, which has no recovery machinery to exercise.
    pub chaos: Option<ChaosOptions>,
}

/// Crash-storm knobs for a chaos drive (see [`DriveOptions::chaos`]).
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Kill probability at each SSF crash point.
    pub ssf_kill_prob: f64,
    /// `T_max` for the run (virtual, [`beldi::BeldiConfig::t_max`]): the
    /// lease that kills an instance `T` after its launch, the window in
    /// which a root retry is admitted, and the GC's recycle horizon. It
    /// must exceed the run's latency tail, chaos-inflated execution times
    /// included, or healthy instances die on the lease and retry storms
    /// livelock on it. At long-run scale (heavy queueing, modelled
    /// latency) size it against the observed request-latency tail, not
    /// the smoke defaults. The recovery check's ceiling is a third of it
    /// ([`crate::gate::max_recovery_p99_ms`]).
    pub t_max: Duration,
    /// Re-launch killed intents (root retries + IC timers + post-run
    /// recovery drain). `false` is the sabotage configuration the
    /// recovery check's own tests use: killed workflows stay dead, so
    /// its conservation check must fail.
    pub relaunch: bool,
}

/// Kill probability at each collector (`ic.*`/`gc.*`) crash point of a
/// chaos drive.
const COLLECTOR_KILL_PROB: f64 = 4e-3;

/// Hard cap on a chaos drive's injected crashes, far above any run's
/// count, so the cap check never shapes the schedule.
const MAX_CRASHES: u64 = 10_000;

/// IC restart delay of a chaos drive — short, so recovery latencies are
/// dominated by detection + re-execution rather than the paper's
/// production 30 s back-off.
const CHAOS_IC_RESTART_DELAY: Duration = Duration::from_millis(100);

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            ssf_kill_prob: 5e-4,
            // Comfortably above the smoke-scale latency tail (~30 s
            // virtual): the lease should catch genuine zombies, not
            // routinely kill slow-but-healthy instances.
            t_max: Duration::from_secs(60),
            relaunch: true,
        }
    }
}

impl Default for DriveOptions {
    fn default() -> Self {
        DriveOptions {
            workers: 4,
            total_ops: 1_000,
            seed: 42,
            model_latency: true,
            tail_cache: true,
            gc: false,
            gc_period: Duration::from_millis(500),
            gc_t_max: Duration::from_secs(4),
            platform_concurrency: None,
            chaos: None,
        }
    }
}

/// Latency percentile summary in microseconds (virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Mean.
    pub mean_us: u64,
    /// Maximum.
    pub max_us: u64,
}

impl LatencySummary {
    /// The summary of a virtual-time latency histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        let us = |d: Duration| d.as_micros() as u64;
        LatencySummary {
            p50_us: us(h.quantile(0.50)),
            p90_us: us(h.quantile(0.90)),
            p95_us: us(h.quantile(0.95)),
            p99_us: us(h.quantile(0.99)),
            mean_us: us(h.mean()),
            max_us: us(h.max()),
        }
    }
}

wire_fields!(LatencySummary: p50_us, p90_us, p95_us, p99_us, mean_us, max_us);

/// One storage-growth observation, taken on virtual time during a run.
///
/// Sampling is observational: it reads table sizes without touching the
/// latency model or metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StorageSample {
    /// Virtual microseconds since the measurement window opened.
    pub t_us: u64,
    /// Total rows across Beldi metadata tables (intent, log, shadow
    /// tables) — the storage GC exists to bound.
    pub meta_rows: u64,
    /// Total rows across application data tables (DAAL rows in Beldi
    /// mode; one row per key otherwise).
    pub data_rows: u64,
    /// Cumulative completed GC passes at sample time.
    pub gc_passes: u64,
    /// Cumulative intents recycled.
    pub gc_recycled: u64,
    /// Cumulative log entries deleted.
    pub gc_deleted_log_entries: u64,
    /// Cumulative DAAL/shadow rows deleted.
    pub gc_deleted_rows: u64,
    /// Cumulative corrupt (cyclic) chains encountered — any non-zero
    /// value is a red flag.
    pub gc_corrupt_chains: u64,
    /// Cumulative completed intent-collector passes at sample time
    /// (zero unless the run started the IC timers, i.e. chaos mode).
    pub ic_passes: u64,
    /// Cumulative instances re-launched by the IC.
    pub ic_restarted: u64,
    /// Cumulative corrupt (envelope-less) intents quarantined by the IC
    /// — `gc_corrupt_chains`'s twin; any non-zero value is a red flag.
    pub ic_corrupt: u64,
    /// Per-table row counts, sorted by table name.
    pub tables: BTreeMap<String, u64>,
}

wire_fields!(StorageSample:
    t_us, meta_rows, data_rows, gc_passes, gc_recycled, gc_deleted_log_entries, gc_deleted_rows,
    gc_corrupt_chains, ic_passes, ic_restarted, ic_corrupt, tables
);

/// The storage-growth record of one run: periodic [`StorageSample`]s
/// plus end-of-run DAAL statistics. See `DESIGN.md` §10 for how
/// `drive --gc`'s growth check reads this.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StorageSeries {
    /// Samples in time order; the last one is taken after the workers
    /// finish (the steady-state endpoint the growth check reads).
    pub samples: Vec<StorageSample>,
    /// Longest DAAL chain (rows reachable from `HEAD`) across every
    /// Beldi data-table key at the end of the run; zero in non-Beldi
    /// modes.
    pub max_chain_len: u64,
}

wire_fields!(StorageSeries: samples, max_chain_len);

/// One in-flight observation: how many executor tasks were live at a
/// moment of virtual time.
///
/// "Live" counts every unfinished task on the run's executor — the client
/// workers, plus the drive's own await-all task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InFlightSample {
    /// Virtual microseconds since the measurement window opened.
    pub t_us: u64,
    /// Live executor tasks at sample time.
    pub live: u64,
}

/// The in-flight record of one drive: periodic [`InFlightSample`]s plus
/// the high-water mark.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InFlightSeries {
    /// Samples in time order.
    pub samples: Vec<InFlightSample>,
    /// Maximum concurrent live tasks: the post-spawn reading (every
    /// client worker is in flight at that point) or the largest sample,
    /// whichever is greater. The ≥10k acceptance gate reads this.
    pub high_water: u64,
}

wire_fields!(InFlightSample: t_us, live);
wire_fields!(InFlightSeries: samples, high_water);

/// The recovery record of one chaos drive: what the storm did, how fast
/// killed workflows came back, and whether the end state matches a
/// crash-free oracle run of the same request stream.
///
/// Recovery latency is defined on **virtual time**: for every instance
/// the injector killed at least once and that reached `Done`, the
/// intent-creation → Done interval, recorded once per instance into the
/// registry's `core.recovery` histogram. The percentiles below are read
/// from it (log-bucketed: within ~3% of the exact sample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySection {
    /// Total crashes the storm injected.
    pub injected_crashes: u64,
    /// Instance restarts observed by the injector (re-executions of an
    /// already-seen instance id — root retries, IC re-launches, and
    /// collector passes resuming after a kill).
    pub restarts: u64,
    /// Injected crashes per crash-point label, sorted by label.
    pub crash_sites: BTreeMap<String, u64>,
    /// Completed IC passes (timer-triggered plus the post-run drain).
    pub ic_passes: u64,
    /// Instances the IC re-launched.
    pub ic_restarted: u64,
    /// IC passes killed mid-flight by the storm.
    pub ic_crashes: u64,
    /// GC passes killed mid-flight by the storm.
    pub gc_crashes: u64,
    /// Corrupt (envelope-less) intents the IC quarantined — zero in a
    /// healthy system.
    pub ic_corrupt: u64,
    /// Corrupt chains plus intents the GC counted and skipped — zero in
    /// a healthy system.
    pub gc_corrupt: u64,
    /// Killed instances that reached `Done` (the recovery-latency
    /// sample count).
    pub recovered_intents: u64,
    /// Median recovery latency, virtual ms.
    pub recovery_p50_ms: u64,
    /// 90th-percentile recovery latency, virtual ms.
    pub recovery_p90_ms: u64,
    /// 99th-percentile recovery latency, virtual ms.
    pub recovery_p99_ms: u64,
    /// Effects the chaos run produced beyond the oracle run (clamped at
    /// zero from below; lost effects surface as a digest mismatch
    /// instead). Exactly-once demands zero.
    pub duplicate_effects: i64,
    /// The oracle run's state digest.
    pub oracle_digest: String,
    /// Whether the chaos run's conservation digest equals the oracle's.
    pub digest_match: bool,
}

wire_fields!(RecoverySection:
    injected_crashes, restarts, crash_sites, ic_passes, ic_restarted, ic_crashes, gc_crashes,
    ic_corrupt, gc_corrupt, recovered_intents, recovery_p50_ms, recovery_p90_ms, recovery_p99_ms,
    duplicate_effects, oracle_digest, digest_match
);

/// The result of one `app × mode × workers` drive.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// App driven ("media" / "social" / "travel").
    pub app: String,
    /// Table/logging mode (CLI spelling, e.g. "beldi").
    pub mode: String,
    /// Concurrent client workers.
    pub workers: usize,
    /// Requests issued (all of them complete — closed loop).
    pub ops: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Virtual time the run took, in microseconds.
    pub elapsed_virtual_us: u64,
    /// Wall-clock milliseconds (informational; the one machine-dependent
    /// field, excluded from all comparisons).
    pub wall_ms: u64,
    /// Completions per virtual second.
    pub throughput_rps: f64,
    /// Per-request service latency (virtual).
    pub latency: LatencySummary,
    /// Database operation delta over the measured window.
    pub db: MetricsSnapshot,
    /// FNV-1a digest (hex) of the app's interleaving-invariant final
    /// state fingerprint — equal across runs with the same seed and
    /// worker count.
    pub state_digest: String,
    /// The app's effect count after the run.
    pub effects: i64,
    /// Whether online GC ran concurrently with the workers.
    pub gc: bool,
    /// Storage-growth series (always recorded; sampled densely when GC
    /// is on, final-only otherwise).
    pub storage: StorageSeries,
    /// In-flight client-task series.
    pub in_flight: InFlightSeries,
    /// Recovery record (`Some` only for chaos drives).
    pub recovery: Option<RecoverySection>,
}

wire_fields!(BenchRun:
    app, mode, workers, ops, errors, elapsed_virtual_us, wall_ms, throughput_rps,
    latency, db, state_digest, effects, gc, storage, in_flight, recovery
);
wire_fields!(MetricsSnapshot:
    gets, writes, queries, scans, transact_writes, deletes, cond_failures, bytes_read,
    bytes_written, rows_scanned, lock_waits, partition_ops
);

impl BenchRun {
    /// The identity CI matches baseline and current runs on.
    pub fn key(&self) -> String {
        format!("{}/{}/w{}", self.app, self.mode, self.workers)
    }

    /// Serializes the run for the JSON report.
    #[expect(
        clippy::expect_used,
        reason = "`wire_fields!` encodes a struct, never `None`"
    )]
    pub fn to_value(&self) -> Value {
        self.encode().expect("a record always encodes")
    }

    /// Decodes a run from report JSON (tolerant of missing fields, which
    /// decode as zero/empty — the gate validates what it needs).
    pub fn from_value(v: &Value) -> Self {
        Wire::decode(Some(v))
    }
}

/// The HTTP front door's run (`drive --smoke`'s front door row): one
/// seeded request stream through real sockets, then the same stream
/// in-process. The door admits requests on the environment's `SimClock`,
/// so every field is a function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontRun {
    /// App driven ("media" / "social" / "travel").
    pub app: String,
    /// Table/logging mode (CLI spelling, e.g. "beldi").
    pub mode: String,
    /// Requests sent over the wire (== requests replayed in-process).
    pub requests: u64,
    /// Client connections, all open before the first request.
    pub clients: usize,
    /// Non-200 responses plus transport failures on the HTTP side.
    pub errors: u64,
    /// Virtual time the HTTP run took, in microseconds.
    pub elapsed_virtual_us: u64,
    /// Per-request latency at the door, admission to reply (virtual).
    pub latency: LatencySummary,
    /// Database operations over the HTTP run.
    pub db: MetricsSnapshot,
    /// Fingerprint digest of the served environment's final state.
    pub front_digest: String,
    /// Fingerprint digest after the in-process replay.
    pub inproc_digest: String,
}

wire_fields!(FrontRun:
    app, mode, requests, clients, errors, elapsed_virtual_us, latency, db, front_digest,
    inproc_digest
);

/// A full driver session: configuration plus one [`BenchRun`] per
/// `app × mode × workers` point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The seed all runs used.
    pub seed: u64,
    /// Requests per run.
    pub total_ops: u64,
    /// The mix preset name ("default" / "write-heavy").
    pub mix: String,
    /// Whether the tail cache was enabled.
    pub tail_cache: bool,
    /// The measured runs.
    pub runs: Vec<BenchRun>,
    /// The front door's run (`drive --smoke` only), gated like a run.
    pub front: Option<FrontRun>,
}

wire_fields!(BenchReport:
    seed, total_ops, mix = "default".to_owned(), tail_cache = true, runs, front
);

impl BenchReport {
    /// Serializes the report (the `BENCH_results.json` document).
    pub fn to_value(&self) -> Value {
        with_key(self, "schema", Value::Int(BENCH_SCHEMA))
    }

    /// Pretty JSON text of the report.
    pub fn to_json(&self) -> String {
        beldi::value::json::to_json_pretty(&self.to_value())
    }

    /// Decodes a report document.
    ///
    /// # Errors
    ///
    /// A message naming the problem when the document is not a report of
    /// the current [`BENCH_SCHEMA`].
    pub fn from_value(v: &Value) -> Result<Self, String> {
        match v.get_int("schema") {
            Some(BENCH_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "bench schema {other}, this build reads and writes schema {BENCH_SCHEMA}: \
                     regenerate the report (`{REBASELINE}`)"
                ))
            }
            None => return Err("not a bench report (no `schema` field)".into()),
        }
        if v.get_list("runs").is_none() {
            return Err("bench report has no `runs` list".into());
        }
        Ok(Wire::decode(Some(v)))
    }

    /// Parses report JSON text.
    ///
    /// # Errors
    ///
    /// A message naming the problem (JSON syntax or report shape).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = beldi::value::json::from_json(text).map_err(|e| e.to_string())?;
        BenchReport::from_value(&v)
    }
}

/// The seeded RNG of worker `w` — part of the public determinism
/// contract: tests regenerate a worker's exact request stream with this.
pub fn worker_rng(seed: u64, worker: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Worker `w`'s deterministic share of `total` requests (first
/// `total % workers` workers take one extra).
pub fn ops_for_worker(total: u64, workers: usize, w: usize) -> u64 {
    let base = total / workers as u64;
    let extra = u64::from((w as u64) < total % workers as u64);
    base + extra
}

/// A platform shaped like the paper's AWS setup: 1,000-concurrent-Lambda
/// cap (the Figs. 14/15/26 bottleneck), modest cold starts, queueing at
/// saturation.
pub fn lambda_like_platform() -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: 1000,
        invoke_timeout: Duration::from_secs(120),
        cold_start: Duration::from_millis(150),
        warm_start: Duration::from_millis(3),
        // AWS invocation dispatch is tens of ms; weighting it like the
        // real platform keeps Beldi's extra database round trips in
        // paper-like proportion to invocation cost.
        invoke_overhead: Duration::from_millis(10),
        warm_pool_per_fn: 2_000,
        saturation: SaturationPolicy::Queue,
    }
}

/// [`lambda_like_platform`] with an effectively unbounded invocation
/// timeout (a closed-loop client waits for its reply however long the
/// queue) and, optionally, another concurrency cap.
pub fn driver_platform(concurrency: Option<usize>) -> PlatformConfig {
    let aws = lambda_like_platform();
    PlatformConfig {
        concurrency_limit: concurrency.unwrap_or(aws.concurrency_limit),
        invoke_timeout: Duration::from_secs(24 * 3600),
        ..aws
    }
}

/// Takes one storage-growth observation (`elapsed_us` = virtual time
/// since the measurement window opened).
fn storage_sample(env: &BeldiEnv, elapsed_us: u64) -> StorageSample {
    let t = env.telemetry();
    let mut sample = StorageSample {
        t_us: elapsed_us,
        gc_passes: t.get(Metric::GcPasses),
        gc_recycled: t.get(Metric::GcRecycledIntents),
        gc_deleted_log_entries: t.get(Metric::GcDeletedLogEntries),
        gc_deleted_rows: t.get(Metric::GcDeletedRows),
        gc_corrupt_chains: t.get(Metric::GcCorruptChains),
        ic_passes: t.get(Metric::IcPasses),
        ic_restarted: t.get(Metric::IcRestarted),
        ic_corrupt: t.get(Metric::IcCorrupt),
        ..StorageSample::default()
    };
    for (name, rows) in env.db().table_row_counts() {
        if schema::is_meta_table(&name) {
            sample.meta_rows += rows as u64;
        } else {
            sample.data_rows += rows as u64;
        }
        sample.tables.insert(name, rows as u64);
    }
    sample
}

/// Longest DAAL chain across every registered data-table key (Beldi
/// mode; other modes have single-row items and report zero).
fn max_chain_len(env: &BeldiEnv, mode: Mode) -> u64 {
    if mode != Mode::Beldi {
        return 0;
    }
    let mut max = 0u64;
    for ssf in env.ssf_names() {
        for logical in env.ssf_tables(&ssf) {
            let physical = schema::data_table(&ssf, &logical);
            let Ok(keys) = env.db().distinct_hash_keys(&physical) else {
                continue;
            };
            for key in keys {
                let Some(key) = key.as_str() else { continue };
                if let Ok(len) = env.daal_chain_len(&ssf, &logical, key) {
                    max = max.max(len as u64);
                }
            }
        }
    }
    max
}

/// Resolves the chaos/GC implications of `opts` for `mode`.
///
/// Baseline mode has no collectors to run (start_gc is a no-op there)
/// and no recovery machinery for a storm to exercise; treat the whole
/// run as GC- and chaos-free so its report never claims collectors it
/// cannot have.
fn resolve_run_shape(mode: Mode, opts: &DriveOptions) -> (Option<&ChaosOptions>, bool) {
    let chaos = if mode == Mode::Baseline {
        None
    } else {
        opts.chaos.as_ref()
    };
    let gc = (opts.gc || chaos.is_some()) && mode != Mode::Baseline;
    (chaos, gc)
}

/// Builds the environment for one drive — config resolution and app
/// setup — on the builder's default clock: a fresh `SimClock` seeded like
/// the substrate, whose first participant is the calling thread.
fn build_bench_env(
    app: &dyn WorkflowApp,
    mode: Mode,
    opts: &DriveOptions,
    chaos: Option<&ChaosOptions>,
    gc: bool,
) -> BeldiEnv {
    let mut cfg = BeldiConfig::for_mode(mode).with_tail_cache(opts.tail_cache);
    if gc {
        cfg = cfg
            .with_t_max(opts.gc_t_max)
            .with_collector_period(opts.gc_period);
    }
    if let Some(c) = chaos {
        // A `t_max` sized for chaos-inflated execution times rather than
        // the GC-test default.
        cfg = cfg
            .with_ic_restart_delay(CHAOS_IC_RESTART_DELAY)
            .with_t_max(c.t_max);
    }
    let mut builder = BeldiEnv::builder(cfg)
        .seed(opts.seed)
        .platform(driver_platform(opts.platform_concurrency));
    if opts.model_latency {
        builder = builder.latency(LatencyModel::dynamo());
    }
    let env = builder.build();
    app.setup(&env);
    env
}

/// What the load loop needs to know about the run.
struct RunShape<'a> {
    app: &'a dyn WorkflowApp,
    opts: &'a DriveOptions,
    env: &'a Arc<BeldiEnv>,
    /// Whether garbage collectors run beside the load.
    gc: bool,
    /// Whether the intent collector runs beside the load (chaos runs,
    /// except with `relaunch: false`, which keeps the IC off so killed
    /// workflows stay dead and the conservation check has something to
    /// catch).
    ic: bool,
    /// Chaos runs pin every workflow root to a deterministic instance id
    /// (`storm-w{w}-op{i}`): combined with log-key-derived callee ids this
    /// makes the whole execution tree's ids — and therefore the storm's
    /// kill schedule — a pure function of the seed. The budget re-drives
    /// a killed root with the *same* id (exactly-once), or is 1 with
    /// `relaunch: false`. `None` outside chaos runs: fresh ids, the full
    /// [`MAX_ROOT_ATTEMPTS`] budget.
    root_attempts: Option<usize>,
}

/// What the load loop hands back to the finish.
struct Load {
    /// Virtual time from the first request's issue to the last reply.
    elapsed: Duration,
    errors: u64,
    hist: Histogram,
    /// Storage observations taken while the load ran.
    storage_samples: Vec<StorageSample>,
    in_flight: InFlightSeries,
}

/// Runs one drive of `app` in `mode`: the set-up, the load loop
/// (`run_load`), the finish. See the module docs.
pub fn drive(app: &dyn WorkflowApp, mode: Mode, opts: &DriveOptions) -> BenchRun {
    assert!(opts.workers > 0, "need at least one worker");
    let (chaos, gc) = resolve_run_shape(mode, opts);
    let env = Arc::new(build_bench_env(app, mode, opts, chaos, gc));
    // Open the measurement window: everything from here is the run.
    let window = env.db_metrics();
    let faults = env.platform().faults();
    if let Some(c) = chaos {
        // The storm races the load and the collectors. Crash panics are
        // simulated failures, not bugs — keep them out of the test output.
        beldi_simfaas::silence_crash_backtraces();
        faults.set_storm_policy(Some(StormPolicy {
            ssf_prob: c.ssf_kill_prob,
            collector_prob: COLLECTOR_KILL_PROB,
            max_crashes: MAX_CRASHES,
            seed: opts.seed,
        }));
    }
    let shape = RunShape {
        app,
        opts,
        env: &env,
        gc,
        ic: chaos.is_some_and(|c| c.relaunch),
        root_attempts: chaos.map(|c| if c.relaunch { MAX_ROOT_ATTEMPTS } else { 1 }),
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock runtime is operator reporting only and never enters the simulated timeline or logged state"
    )]
    let wall_start = std::time::Instant::now();
    let load = run_load(&shape);

    if let Some(c) = chaos {
        // Storm over. Drain: re-drive every interrupted intent to
        // completion on virtual time so the end state is quiescent and
        // comparable to the oracle's — unless killed workflows are meant
        // to stay dead.
        faults.set_storm_policy(None);
        if c.relaunch {
            #[expect(
                clippy::expect_used,
                reason = "with the storm off no probe kills a drain pass, and the in-memory store fails no call the IC makes"
            )]
            env.drain_recovery(50)
                .expect("recovery drain must not fail");
        }
    }
    let db = env.db_metrics().delta(&window);
    // The steady-state endpoint: one final sample after the last request
    // (and collector stop / recovery drain), then the end-of-run DAAL
    // depth statistic.
    let mut storage = StorageSeries {
        samples: load.storage_samples,
        max_chain_len: max_chain_len(&env, mode),
    };
    storage
        .samples
        .push(storage_sample(&env, load.elapsed.as_micros() as u64));
    let digest = state_digest(app, &env);
    let effects = app.effect_count(&env);

    // Conservation check: re-drive the same request stream crash-free and
    // compare final-state digests and effect counts. The apps'
    // fingerprints are interleaving-invariant, so under exactly-once
    // semantics the digests must be bit-identical no matter what the
    // storm killed.
    let recovery = chaos.map(|_| {
        let t = env.telemetry();
        let latencies = t.histogram(Hist::Recovery);
        let pct = |q: f64| latencies.quantile(q).as_millis() as u64;
        let oracle_opts = DriveOptions {
            chaos: None,
            ..opts.clone()
        };
        let oracle = drive(app, mode, &oracle_opts);
        RecoverySection {
            injected_crashes: faults.injected_count(),
            restarts: faults.restart_count(),
            crash_sites: faults.crash_sites(),
            ic_passes: t.get(Metric::IcPasses),
            ic_restarted: t.get(Metric::IcRestarted),
            ic_crashes: t.get(Metric::IcCrashes),
            gc_crashes: t.get(Metric::GcCrashes),
            ic_corrupt: t.get(Metric::IcCorrupt),
            gc_corrupt: t.get(Metric::GcCorruptChains) + t.get(Metric::GcCorruptIntents),
            recovered_intents: latencies.len(),
            recovery_p50_ms: pct(0.50),
            recovery_p90_ms: pct(0.90),
            recovery_p99_ms: pct(0.99),
            duplicate_effects: (effects - oracle.effects).max(0),
            digest_match: digest == oracle.state_digest,
            oracle_digest: oracle.state_digest,
        }
    });

    BenchRun {
        app: app.kind().to_owned(),
        mode: mode.name().to_owned(),
        workers: opts.workers,
        ops: opts.total_ops,
        errors: load.errors,
        elapsed_virtual_us: load.elapsed.as_micros() as u64,
        wall_ms: wall_start.elapsed().as_millis() as u64,
        throughput_rps: opts.total_ops as f64 / load.elapsed.as_secs_f64().max(1e-9),
        latency: LatencySummary::from_histogram(&load.hist),
        db,
        state_digest: digest,
        effects,
        gc,
        storage,
        in_flight: load.in_flight,
        recovery,
    }
}

/// Worker `w`'s request stream, in issue order — drawn up front, so the
/// request multiset is the same whatever the schedule.
fn worker_requests(app: &dyn WorkflowApp, opts: &DriveOptions, w: usize) -> Vec<Value> {
    let mut rng = worker_rng(opts.seed, w);
    (0..ops_for_worker(opts.total_ops, opts.workers, w))
        .map(|_| app.gen_load_request(&mut rng))
        .collect()
}

/// The load loop: `opts.workers` closed-loop client tasks on one
/// executor, each awaiting [`BeldiEnv::invoke_task`] for its
/// [`worker_requests`] in turn, with the collector timers and a sampler
/// thread beside them. A worker waiting for its reply — or for the
/// admission gate — is a parked waker, which is what lets one process
/// carry ≥10k concurrent workflows over a handful of platform threads.
fn run_load(shape: &RunShape<'_>) -> Load {
    let (app, opts, env, gc) = (shape.app, shape.opts, shape.env, shape.gc);
    let rt = beldi_runtime::Executor::new(env.clock().clone(), opts.seed);
    let handle = rt.handle();
    // The collector timers are threads of the environment's clock.
    if gc {
        match shape.ic {
            true => env.start_collectors(),
            false => env.start_gc(),
        }
    }
    let clock = env.clock().clone();
    let start = clock.now();
    let errors = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let entry = app.entry_point();
    let root_attempts = shape.root_attempts;
    // Admission gate: roots must never saturate the platform's worker
    // pool, because every admitted root issues *nested* SSF calls that
    // need permits of their own — hand all the permits to parked roots
    // and the pool livelocks with every root stuck behind its own
    // callees. A quarter of the pool for roots leaves the rest for
    // nested fan-out; workers past the gate stay parked on semaphore
    // wakers.
    let admission = Arc::new(beldi_runtime::Semaphore::new(
        (env.platform().config().concurrency_limit / 4).max(1),
    ));
    let mut clients = Vec::with_capacity(opts.workers);
    for w in 0..opts.workers {
        let requests = worker_requests(app, opts, w);
        let (env, clock) = (Arc::clone(env), clock.clone());
        let (errors, hist) = (Arc::clone(&errors), Arc::clone(&hist));
        let admission = Arc::clone(&admission);
        clients.push(rt.spawn(async move {
            let mut local = Histogram::new();
            for (i, request) in requests.into_iter().enumerate() {
                let t0 = clock.now();
                let (instance, attempts) = match root_attempts {
                    Some(n) => (format!("storm-w{w}-op{i}"), n),
                    None => (env.platform().new_uuid(), MAX_ROOT_ATTEMPTS),
                };
                let permit = admission.acquire().await;
                let result = env.invoke_task(entry, &instance, request, attempts).await;
                drop(permit);
                if result.is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                local.record(clock.now().since(t0));
            }
            hist.lock().merge(&local);
        }));
    }
    // Every client worker is live right here, before the executor runs.
    let spawned_live = handle.live_tasks() as u64;

    // Sampler thread: the in-flight curve, plus storage growth when
    // collectors run.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampled = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    let sampler = {
        let stop = Arc::clone(&sampler_stop);
        let sampled = Arc::clone(&sampled);
        let c = clock.clone();
        let handle = handle.clone();
        let env = Arc::clone(env);
        let period = opts.gc_period.max(Duration::from_millis(1)) * 2;
        let body = move || {
            while !stop.load(Ordering::Relaxed) {
                c.sleep(period);
                let elapsed = c.now().since(start).as_micros() as u64;
                let mut sampled = sampled.lock();
                sampled.0.push(InFlightSample {
                    t_us: elapsed,
                    live: handle.live_tasks() as u64,
                });
                if gc {
                    sampled.1.push(storage_sample(&env, elapsed));
                }
            }
        };
        clock.spawn("sampler".into(), Box::new(body))
    };

    // Drive everything to completion on this thread: the await-all task
    // keeps the executor running until the last worker finishes.
    rt.block_on(async move {
        for c in clients {
            c.await;
        }
    });
    let elapsed = clock.now().since(start);
    sampler_stop.store(true, Ordering::Relaxed);
    env.stop_collectors();
    if let Err(panic) = sampler.join() {
        std::panic::resume_unwind(panic);
    }
    let (samples, storage_samples) = std::mem::take(&mut *sampled.lock());
    let high_water = samples.iter().map(|s| s.live).fold(spawned_live, u64::max);
    let hist = std::mem::take(&mut *hist.lock());
    Load {
        elapsed,
        errors: errors.load(Ordering::Relaxed),
        hist,
        storage_samples,
        in_flight: InFlightSeries {
            samples,
            high_water,
        },
    }
}

/// FNV-1a digest of a [`Value`], stable across platforms and runs
/// (unlike `DefaultHasher`, whose keys are process-random).
pub fn value_digest(v: &Value) -> u64 {
    beldi::value::Fnv1a::digest(v)
}

/// The hex digest of `app`'s interleaving-invariant final-state
/// fingerprint in `env` ([`BenchRun::state_digest`]).
pub fn state_digest(app: &dyn WorkflowApp, env: &BeldiEnv) -> String {
    format!("{:016x}", value_digest(&app.bench_fingerprint(env)))
}

/// A tiny helper used by report consumers: `Map` of run key → run, for
/// joining baseline and current reports.
pub fn runs_by_key(report: &BenchReport) -> BTreeMap<String, &BenchRun> {
    report.runs.iter().map(|r| (r.key(), r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi::value::vmap;

    #[test]
    fn ops_split_covers_total_exactly() {
        for (total, workers) in [(10u64, 3usize), (7, 8), (0, 2), (100, 1), (5, 5)] {
            let sum: u64 = (0..workers)
                .map(|w| ops_for_worker(total, workers, w))
                .sum();
            assert_eq!(sum, total, "total={total} workers={workers}");
            // Shares differ by at most one.
            let shares: Vec<u64> = (0..workers)
                .map(|w| ops_for_worker(total, workers, w))
                .collect();
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn worker_rngs_are_deterministic_and_distinct() {
        use rand::Rng;
        let draw = |seed, w| -> Vec<u32> {
            let mut rng = worker_rng(seed, w);
            (0..8).map(|_| rng.gen()).collect()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
    }

    #[test]
    fn value_digest_is_stable_and_discriminating() {
        let a = vmap! { "x" => 1i64, "y" => "s" };
        let b = vmap! { "x" => 2i64, "y" => "s" };
        assert_eq!(value_digest(&a), value_digest(&a));
        assert_ne!(value_digest(&a), value_digest(&b));
    }

    #[test]
    fn report_json_round_trips() {
        let run = BenchRun {
            app: "media".into(),
            mode: "beldi".into(),
            workers: 4,
            ops: 100,
            errors: 0,
            elapsed_virtual_us: 1_234_567,
            wall_ms: 89,
            throughput_rps: 81.0,
            latency: LatencySummary {
                p50_us: 10,
                p90_us: 20,
                p95_us: 25,
                p99_us: 30,
                mean_us: 12,
                max_us: 40,
            },
            db: MetricsSnapshot {
                gets: 5,
                writes: 4,
                partition_ops: vec![3],
                ..MetricsSnapshot::default()
            },
            state_digest: "00000000deadbeef".into(),
            effects: 7,
            gc: true,
            storage: StorageSeries {
                samples: vec![StorageSample {
                    t_us: 500_000,
                    meta_rows: 40,
                    data_rows: 40,
                    gc_passes: 3,
                    gc_recycled: 12,
                    gc_deleted_log_entries: 30,
                    gc_deleted_rows: 9,
                    gc_corrupt_chains: 0,
                    ic_passes: 5,
                    ic_restarted: 2,
                    ic_corrupt: 0,
                    tables: [("f.intent".to_owned(), 4u64)].into_iter().collect(),
                }],
                max_chain_len: 3,
            },
            in_flight: InFlightSeries {
                samples: vec![
                    InFlightSample {
                        t_us: 250_000,
                        live: 10_400,
                    },
                    InFlightSample {
                        t_us: 750_000,
                        live: 3_200,
                    },
                ],
                high_water: 10_412,
            },
            recovery: Some(RecoverySection {
                injected_crashes: 17,
                restarts: 21,
                crash_sites: [
                    ("wrapper.enter".to_owned(), 9u64),
                    ("ic.exit".to_owned(), 2u64),
                ]
                .into_iter()
                .collect(),
                ic_passes: 5,
                ic_restarted: 2,
                ic_crashes: 2,
                gc_crashes: 1,
                ic_corrupt: 0,
                gc_corrupt: 0,
                recovered_intents: 14,
                recovery_p50_ms: 120,
                recovery_p90_ms: 450,
                recovery_p99_ms: 900,
                duplicate_effects: 0,
                oracle_digest: "00000000deadbeef".into(),
                digest_match: true,
            }),
        };
        // Both shapes a report can hold: a plain run, and a chaos run
        // with its recovery section.
        let plain = BenchRun {
            recovery: None,
            ..run.clone()
        };
        let report = BenchReport {
            seed: 42,
            total_ops: 100,
            mix: "default".into(),
            tail_cache: true,
            runs: vec![plain, run],
            front: Some(Wire::decode(None)),
        };
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(parsed.runs[0].key(), "media/beldi/w4");
        // A plain run's JSON carries no chaos-only section.
        let plain = beldi::value::json::to_json_pretty(&parsed.runs[0].to_value());
        assert!(!plain.contains("recovery"), "{plain}");
    }

    fn keys_of(v: &Value) -> Vec<&str> {
        v.as_map().unwrap().keys().map(|k| k.as_str()).collect()
    }

    /// The wire names are the Rust field names; this pins them, so
    /// renaming a field cannot silently change the report schema.
    #[test]
    fn report_keys_are_pinned() {
        let run = BenchRun {
            in_flight: InFlightSeries {
                samples: vec![InFlightSample::default()],
                high_water: 1,
            },
            recovery: Some(Wire::decode(None)),
            storage: StorageSeries {
                samples: vec![StorageSample::default()],
                max_chain_len: 0,
            },
            ..Wire::decode(None)
        };
        let report = BenchReport {
            runs: vec![run],
            ..Wire::decode(None)
        };
        let v = report.to_value();
        assert_eq!(
            keys_of(&v),
            ["mix", "runs", "schema", "seed", "tail_cache", "total_ops"]
        );
        let run = &v.get_list("runs").unwrap()[0];
        assert_eq!(
            keys_of(run),
            [
                "app",
                "db",
                "effects",
                "elapsed_virtual_us",
                "errors",
                "gc",
                "in_flight",
                "latency",
                "mode",
                "ops",
                "recovery",
                "state_digest",
                "storage",
                "throughput_rps",
                "wall_ms",
                "workers",
            ]
        );
        assert_eq!(
            keys_of(run.get_attr("latency").unwrap()),
            ["max_us", "mean_us", "p50_us", "p90_us", "p95_us", "p99_us"]
        );
        assert_eq!(
            keys_of(run.get_attr("db").unwrap()),
            [
                "bytes_read",
                "bytes_written",
                "cond_failures",
                "deletes",
                "gets",
                "lock_waits",
                "partition_ops",
                "queries",
                "rows_scanned",
                "scans",
                "transact_writes",
                "writes",
            ]
        );
        let storage = run.get_attr("storage").unwrap();
        assert_eq!(keys_of(storage), ["max_chain_len", "samples"]);
        assert_eq!(
            keys_of(&storage.get_list("samples").unwrap()[0]),
            [
                "data_rows",
                "gc_corrupt_chains",
                "gc_deleted_log_entries",
                "gc_deleted_rows",
                "gc_passes",
                "gc_recycled",
                "ic_corrupt",
                "ic_passes",
                "ic_restarted",
                "meta_rows",
                "t_us",
                "tables",
            ]
        );
        let in_flight = run.get_attr("in_flight").unwrap();
        assert_eq!(keys_of(in_flight), ["high_water", "samples"]);
        assert_eq!(
            keys_of(&in_flight.get_list("samples").unwrap()[0]),
            ["live", "t_us"]
        );
        assert_eq!(
            keys_of(run.get_attr("recovery").unwrap()),
            [
                "crash_sites",
                "digest_match",
                "duplicate_effects",
                "gc_corrupt",
                "gc_crashes",
                "ic_corrupt",
                "ic_crashes",
                "ic_passes",
                "ic_restarted",
                "injected_crashes",
                "oracle_digest",
                "recovered_intents",
                "recovery_p50_ms",
                "recovery_p90_ms",
                "recovery_p99_ms",
                "restarts",
            ]
        );
    }

    /// The committed baseline is the gate's exact golden: it must be a
    /// report this build reads, and writing it back must change nothing.
    #[test]
    fn committed_baseline_decodes_and_reencodes_to_itself() {
        let text = include_str!("../../../BENCH_baseline.json");
        let committed = beldi::value::json::from_json(text).unwrap();
        let report = BenchReport::from_value(&committed).unwrap();
        assert!(!report.runs.is_empty());
        assert_eq!(report.to_value(), committed);
    }

    #[test]
    fn malformed_reports_are_rejected_with_reasons() {
        assert!(BenchReport::from_json("{}").unwrap_err().contains("schema"));
        assert!(BenchReport::from_json("[1,2]")
            .unwrap_err()
            .contains("schema"));
        assert!(BenchReport::from_json("{\"schema\":3}")
            .unwrap_err()
            .contains("runs"));
        let stale = BenchReport::from_json("{\"schema\":2,\"runs\":[]}").unwrap_err();
        assert!(
            stale.contains("schema 2") && stale.contains(REBASELINE),
            "{stale}"
        );
        assert!(BenchReport::from_json("not json").is_err());
    }
}
