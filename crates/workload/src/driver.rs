//! The load loop and the closed-loop workload driver (`BENCH_results.json`).
//!
//! [`run_clients`] is the one load loop: each [`Client`] is a task on one
//! [`beldi_runtime::Executor`] that waits for its start offset, then
//! awaits [`BeldiEnv::invoke_task`] for each of its requests in turn,
//! behind an admission gate. The figures' open-loop sweeps pass a client
//! per arrival; [`drive`] passes `N` client workers at offset 0 that
//! share one [`BeldiEnv`] (one database, a lock per table), each issuing
//! its next request the moment the previous one completes — a capacity
//! benchmark: throughput is whatever the system sustains.
//!
//! Design points:
//!
//! - **One load loop.** A client waiting for its start, a permit or a
//!   reply is a parked waker, not an OS thread, so "every request in
//!   flight at once" is simply `workers = total_ops`. The SSF bodies run
//!   on platform worker threads, bounded by the concurrency cap.
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
//!   counters, every sample, the chaos recovery record, the final-state
//!   digest — is a pure function of `(seed, options)`.
//! - **One window.** The environment's one registry,
//!   [`BeldiEnv::telemetry`], is read after setup and again where the run
//!   ends (after the recovery drain), so [`BenchRun::counters`] holds every
//!   counter the measured run moved. Request and recovery latencies are
//!   its histograms.
//!
//! Reports serialize to JSON via `beldi_value::json` (see `DESIGN.md` §9
//! for the schema) and read back for the CI regression gate; each report
//! struct's field list is declared once, in a [`wire_fields!`] call
//! beside it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi::value::Value;
use beldi::{schema, BeldiConfig, BeldiEnv, Mode, MAX_ROOT_ATTEMPTS};
use beldi_apps::WorkflowApp;
use beldi_runtime::{Executor, Semaphore};
use beldi_simclock::{Hist, Metric, Telemetry};
use beldi_simdb::LatencyModel;
use beldi_simfaas::{CrashPlan, Label, PlatformConfig, SaturationPolicy, StormPolicy};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::history;
use crate::wire::{with_key, Wire};
use crate::wire_fields;
use beldi_simclock::Histogram;

/// Report schema version (bumped on incompatible JSON changes).
pub const BENCH_SCHEMA: i64 = 4;

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
    /// while the workers drive load, and the run's [`BenchRun::samples`]
    /// show whether the DAAL/log tables reach a steady-state plateau
    /// instead of growing without bound.
    pub gc: bool,
    /// Virtual-time period of the GC timers (and half the sampling
    /// period).
    pub gc_period: Duration,
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
    /// stream, judges the storm's run record with the [`crate::history`]
    /// checker and records a [`RecoverySection`]. Baseline, which retries
    /// but logs nothing, is the recovery check's negative control: besides
    /// the storm's draws, the first instance past a write's exit dies
    /// there, so every storm has a write for baseline to re-apply.
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
}

/// Kill probability at each collector (`ic.*`/`gc.*`) crash point of a
/// chaos drive.
const COLLECTOR_KILL_PROB: f64 = 4e-3;

/// `T` (the execution lease and recycle horizon) of a GC-enabled drive:
/// small relative to the run's virtual duration, so recycling reaches
/// steady state within the measured window, but above the run's latency
/// tail, as the lease kills any instance still running `T` after its
/// launch.
pub const GC_T_MAX: Duration = Duration::from_secs(4);

/// Hard cap on a chaos drive's injected crashes: it guarantees a storm
/// ends. A storm that reaches it injects no more, so the cap shaped its
/// schedule, and [`crate::gate::recovery_gate`] fails the run.
pub(crate) const MAX_CRASHES: u64 = 10_000;

/// IC restart delay of a chaos drive — short, so recovery latencies are
/// dominated by detection + re-execution rather than the paper's
/// production 30 s back-off.
const CHAOS_IC_RESTART_DELAY: Duration = Duration::from_millis(100);

impl ChaosOptions {
    /// The `drive --smoke` storm, 100x the default rate: enough kills in
    /// a 120-request run to put recovery under load.
    pub fn smoke() -> Self {
        ChaosOptions {
            ssf_kill_prob: 5e-2,
            ..ChaosOptions::default()
        }
    }
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            ssf_kill_prob: 5e-4,
            // Comfortably above the smoke-scale latency tail (~30 s
            // virtual): the lease should catch genuine zombies, not
            // routinely kill slow-but-healthy instances.
            t_max: Duration::from_secs(60),
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

/// The registry counters a run's measured window moved, by
/// [`Metric::as_str`] name. A counter the window left alone is absent and
/// reads 0, so a new row of the telemetry table reaches every report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<String, u64>);

impl FromIterator<(Metric, u64)> for Counters {
    fn from_iter<I: IntoIterator<Item = (Metric, u64)>>(counts: I) -> Self {
        let moved = counts.into_iter().filter(|&(_, n)| n > 0);
        Counters(moved.map(|(m, n)| (m.as_str().to_owned(), n)).collect())
    }
}

impl Counters {
    /// What `t`'s counters hold: the reading a window opens with.
    pub fn read(t: &Telemetry) -> Self {
        Metric::ALL.into_iter().map(|m| (m, t.get(m))).collect()
    }

    /// What `t`'s counters moved since `start` was read from it.
    pub fn since(start: &Counters, t: &Telemetry) -> Self {
        let moved = |m| t.get(m) - start.get(m);
        Metric::ALL.into_iter().map(|m| (m, moved(m))).collect()
    }

    /// Counter `m`'s value.
    pub fn get(&self, m: Metric) -> u64 {
        self.0.get(m.as_str()).copied().unwrap_or(0)
    }

    /// Store operations of every kind (`MetricsSnapshot::total_ops`).
    pub fn db_ops(&self) -> u64 {
        use Metric::{DbDeletes, DbGets, DbQueries, DbScans, DbTransactWrites, DbWrites};
        let kinds = [
            DbGets,
            DbWrites,
            DbQueries,
            DbScans,
            DbTransactWrites,
            DbDeletes,
        ];
        kinds.into_iter().map(|m| self.get(m)).sum()
    }
}

impl Wire for Counters {
    fn encode(&self) -> Option<Value> {
        self.0.encode()
    }
    fn decode(v: Option<&Value>) -> Self {
        Counters(Wire::decode(v))
    }
}

/// One observation of a run on virtual time, by the sampler thread or
/// after the last reply. It reads table sizes and the executor's task
/// count, and touches neither the latency model nor a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sample {
    /// Virtual microseconds since the measurement window opened.
    pub t_us: u64,
    /// Live executor tasks: the client workers, plus the drive's own
    /// await-all task.
    pub live: u64,
    /// Total rows across Beldi metadata tables (intent, log, shadow
    /// tables) — the storage GC exists to bound.
    pub meta_rows: u64,
    /// Total rows across application data tables (DAAL rows in Beldi
    /// mode; one row per key otherwise).
    pub data_rows: u64,
}

wire_fields!(Sample: t_us, live, meta_rows, data_rows);

/// The recovery record of one chaos drive: where the storm struck, how
/// fast killed workflows came back, and what the checks of its end state
/// and its run record found. What it and the collectors counted is in
/// the run's [`BenchRun::counters`].
///
/// Recovery latency is defined on **virtual time**: for every instance
/// the injector killed at least once and that reached `Done`, the
/// intent-creation → Done interval, recorded once per instance into the
/// registry's `core.recovery` histogram. The percentiles below are read
/// from it (log-bucketed: within ~3% of the exact sample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySection {
    /// Injected crashes per crash-point label, sorted by label.
    pub crash_sites: BTreeMap<String, u64>,
    /// Killed instances that reached `Done` (the recovery-latency
    /// sample count).
    pub recovered_intents: u64,
    /// Median recovery latency, virtual ms.
    pub recovery_p50_ms: u64,
    /// 90th-percentile recovery latency, virtual ms.
    pub recovery_p90_ms: u64,
    /// 99th-percentile recovery latency, virtual ms.
    pub recovery_p99_ms: u64,
    /// What the [`crate::history`] checker found in the storm's run
    /// record, from its first request to the end of its recovery drain.
    /// Exactly-once demands zero.
    pub history_findings: u64,
    /// The oracle run's state digest.
    pub oracle_digest: String,
    /// Whether the chaos run's conservation digest equals the oracle's.
    pub digest_match: bool,
}

wire_fields!(RecoverySection:
    crash_sites, recovered_intents, recovery_p50_ms, recovery_p90_ms, recovery_p99_ms,
    history_findings, oracle_digest, digest_match
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
    /// Every registry counter the measured window moved.
    pub counters: Counters,
    /// FNV-1a digest (hex) of the app's interleaving-invariant final
    /// state fingerprint — equal across runs with the same seed and
    /// worker count.
    pub state_digest: String,
    /// Whether online GC ran concurrently with the workers.
    pub gc: bool,
    /// Samples in time order, one per sampler period; the last is taken
    /// after the workers finish (and the collectors stop, and a chaos
    /// run's recovery drain): the endpoint the growth check reads.
    pub samples: Vec<Sample>,
    /// Per-table row counts at the last sample, sorted by table name.
    pub tables: BTreeMap<String, u64>,
    /// Longest DAAL chain (rows reachable from `HEAD`) across every
    /// Beldi data-table key at the end of the run; zero in non-Beldi
    /// modes.
    pub max_chain_len: u64,
    /// Most live executor tasks at once: the post-spawn reading (every
    /// client worker is in flight then) or the largest sample.
    pub high_water: u64,
    /// Recovery record (`Some` only for chaos drives).
    pub recovery: Option<RecoverySection>,
}

wire_fields!(BenchRun:
    app, mode, workers, ops, errors, elapsed_virtual_us, wall_ms, throughput_rps,
    latency, counters, state_digest, gc, samples, tables, max_chain_len, high_water, recovery
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
    /// Every registry counter the HTTP run moved.
    pub counters: Counters,
    /// Fingerprint digest of the served environment's final state.
    pub front_digest: String,
    /// Fingerprint digest after the in-process replay.
    pub inproc_digest: String,
}

wire_fields!(FrontRun:
    app, mode, requests, clients, errors, elapsed_virtual_us, latency, counters, front_digest,
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
/// timeout and, optionally, another concurrency cap. A root sent by
/// [`run_clients`] (`Platform::invoke_pending`) has no caller-side
/// timeout; this one bounds the nested calls inside it — a sync callee's
/// admission and reply, an async callee's admission — which a saturated
/// cap queues however long.
pub fn driver_platform(concurrency: Option<usize>) -> PlatformConfig {
    let aws = lambda_like_platform();
    PlatformConfig {
        concurrency_limit: concurrency.unwrap_or(aws.concurrency_limit),
        invoke_timeout: Duration::from_secs(24 * 3600),
        ..aws
    }
}

/// Every table's row count, sorted by table name.
fn table_rows(env: &BeldiEnv) -> BTreeMap<String, u64> {
    let counts = env.db().table_row_counts().into_iter();
    counts.map(|(name, rows)| (name, rows as u64)).collect()
}

/// The observation of `tables` ([`table_rows`]) at `t_us` of virtual
/// time since the window opened, with `live` executor tasks.
fn sample(t_us: u64, live: u64, tables: &BTreeMap<String, u64>) -> Sample {
    let rows = |meta| {
        tables
            .iter()
            .filter(move |(name, _)| schema::is_meta_table(name) == meta)
    };
    Sample {
        t_us,
        live,
        meta_rows: rows(true).map(|(_, n)| n).sum(),
        data_rows: rows(false).map(|(_, n)| n).sum(),
    }
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
            .with_t_max(GC_T_MAX)
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
    /// A chaos run: the IC runs beside the GC. In every run a root's id is
    /// the platform's id for its `(worker, request)`, so with log-key-derived
    /// callee ids the storm's kill schedule is a pure function of the seed.
    chaos: bool,
}

/// What the load loop hands back to the finish.
struct Load {
    /// Virtual time from the first request's issue to the last reply.
    elapsed: Duration,
    errors: u64,
    /// Observations taken while the load ran.
    samples: Vec<Sample>,
    /// [`BenchRun::high_water`].
    high_water: u64,
}

/// Runs one drive of `app` in `mode`: the set-up, the load loop
/// (`run_load`), the finish. See the module docs.
pub fn drive(app: &dyn WorkflowApp, mode: Mode, opts: &DriveOptions) -> BenchRun {
    assert!(opts.workers > 0, "need at least one worker");
    // Collectors run in GC and chaos runs, but baseline has none to run,
    // so its report never claims them.
    let chaos = opts.chaos.as_ref();
    let gc = (opts.gc || chaos.is_some()) && mode != Mode::Baseline;
    let env = Arc::new(build_bench_env(app, mode, opts, chaos, gc));
    // Open the measurement window: everything from here is the run.
    let window = Counters::read(env.telemetry());
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
        // One kill on purpose: the first instance past a write's exit dies
        // there, so baseline's control bites whatever the storm drew
        // (travel writes only in its few reservations).
        faults.set_global_plan(Some(CrashPlan::AtLabel(Label::WriteExit)));
        env.telemetry().start_record(env.clock().clone());
    }
    let shape = RunShape {
        app,
        opts,
        env: &env,
        gc,
        chaos: chaos.is_some(),
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock runtime is operator reporting only and never enters the simulated timeline or logged state"
    )]
    let wall_start = std::time::Instant::now();
    let load = run_load(&shape);

    if chaos.is_some() {
        // Storm over. Drain: re-drive every interrupted intent to
        // completion on virtual time so the end state is quiescent and
        // comparable to the oracle's.
        faults.set_storm_policy(None);
        faults.set_global_plan(None);
        #[expect(
            clippy::expect_used,
            reason = "with the storm off no probe kills a drain pass, and the in-memory store fails no call the IC makes"
        )]
        env.drain_recovery(50)
            .expect("recovery drain must not fail");
    }
    let counters = Counters::since(&window, env.telemetry());
    // The steady-state endpoint: one final sample after the last request
    // (and collector stop / recovery drain), when no task is live, then
    // the end-of-run DAAL depth statistic.
    let elapsed_us = load.elapsed.as_micros() as u64;
    let max_chain = max_chain_len(&env, mode);
    let tables = table_rows(&env);
    let mut samples = load.samples;
    samples.push(sample(elapsed_us, 0, &tables));
    let digest = state_digest(app, &env);

    // Conservation check: re-drive the same request stream crash-free and
    // compare final-state digests. The apps' fingerprints are
    // interleaving-invariant, so under exactly-once semantics the digests
    // must be bit-identical no matter what the storm killed. The storm's
    // own record is judged by the history checker.
    let recovery = chaos.map(|_| {
        let t = env.telemetry();
        let history_findings = history::check(&t.take_record()).len() as u64;
        let latencies = t.histogram(Hist::Recovery);
        let pct = |q: f64| latencies.quantile(q).as_millis() as u64;
        let oracle_opts = DriveOptions {
            chaos: None,
            ..opts.clone()
        };
        let oracle = drive(app, mode, &oracle_opts);
        RecoverySection {
            crash_sites: faults.crash_sites(),
            recovered_intents: latencies.len(),
            recovery_p50_ms: pct(0.50),
            recovery_p90_ms: pct(0.90),
            recovery_p99_ms: pct(0.99),
            history_findings,
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
        elapsed_virtual_us: elapsed_us,
        wall_ms: wall_start.elapsed().as_millis() as u64,
        throughput_rps: opts.total_ops as f64 / load.elapsed.as_secs_f64().max(1e-9),
        latency: LatencySummary::from_histogram(&env.telemetry().histogram(Hist::Request)),
        counters,
        state_digest: digest,
        gc,
        samples,
        tables,
        max_chain_len: max_chain,
        high_water: load.high_water,
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

/// `drive`'s part of the load: `opts.workers` closed-loop [`Client`]s
/// at offset 0, a quarter of the platform's instances in flight, with the
/// collector timers and a sampler thread beside them.
fn run_load(shape: &RunShape<'_>) -> Load {
    let (app, opts, env, gc) = (shape.app, shape.opts, shape.env, shape.gc);
    let rt = Executor::new(env.clock().clone(), opts.seed);
    // The collector timers are threads of the environment's clock.
    if gc {
        match shape.chaos {
            true => env.start_collectors(),
            false => env.start_gc(),
        }
    }
    let clock = env.clock().clone();
    let start = clock.now();

    // Sampler thread: the in-flight and storage-growth curves.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampled = Arc::new(Mutex::new(Vec::new()));
    let sampler = {
        let stop = Arc::clone(&sampler_stop);
        let sampled = Arc::clone(&sampled);
        let c = clock.clone();
        let handle = rt.handle();
        let env = Arc::clone(env);
        let period = opts.gc_period.max(Duration::from_millis(1)) * 2;
        let body = move || {
            while !stop.load(Ordering::Relaxed) {
                c.sleep(period);
                let elapsed = c.now().since(start).as_micros() as u64;
                let live = handle.live_tasks() as u64;
                sampled
                    .lock()
                    .push(sample(elapsed, live, &table_rows(&env)));
            }
        };
        clock.spawn("sampler".into(), Box::new(body))
    };

    let clients = (0..opts.workers).map(|w| Client {
        issuer: format!("worker-{w}"),
        start: Duration::ZERO,
        requests: worker_requests(app, opts, w),
    });
    // Roots must not hold every platform instance: each admitted root
    // issues *nested* SSF calls that need instances of their own, so a
    // pool handed wholly to roots livelocks with every root stuck behind
    // its own callees. A quarter for roots leaves the rest for fan-out.
    let in_flight = (env.platform().config().concurrency_limit / 4).max(1);
    let outcomes = run_clients(&rt, env, app.entry_point(), clients.collect(), in_flight);
    let elapsed = clock.now().since(start);
    sampler_stop.store(true, Ordering::Relaxed);
    env.stop_collectors();
    if let Err(panic) = sampler.join() {
        std::panic::resume_unwind(panic);
    }
    for o in &outcomes {
        env.telemetry().record(Hist::Request, o.latency);
    }
    let samples = std::mem::take(&mut *sampled.lock());
    // Every client is live once spawned, before the executor first runs.
    let spawned_live = opts.workers as u64;
    let high_water = samples.iter().map(|s| s.live).fold(spawned_live, u64::max);
    Load {
        elapsed,
        errors: outcomes.iter().filter(|o| !o.ok).count() as u64,
        samples,
        high_water,
    }
}

/// One client of [`run_clients`]: an issuer that sends its requests in
/// order, the first `start` after the load opens, each later one the
/// moment the one before replies. Request `i`'s instance id is
/// [`Platform::issue_id`](beldi_simfaas::Platform::issue_id)`(issuer, i)`,
/// so two loads on one environment need different issuer names: a
/// repeated id replays the earlier instance's reply instead of executing.
#[derive(Debug)]
pub struct Client {
    /// Names the client's instance ids.
    pub issuer: String,
    /// When the first request is issued, from the load's start.
    pub start: Duration,
    /// The entry point's inputs, in issue order.
    pub requests: Vec<Value>,
}

/// What one request of [`run_clients`] came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Virtual time from the request's issue to its reply, the wait for
    /// admission included; a client's first request is issued at its
    /// start, so a late arrival's backlog counts (no coordinated omission).
    pub latency: Duration,
    /// Whether the invocation returned `Ok`.
    pub ok: bool,
}

/// The load loop. Each client is a task on `rt` that waits for its
/// start, then awaits [`BeldiEnv::invoke_task`] of `entry` for each of
/// its requests in turn, behind an admission gate of `in_flight`
/// permits. A client waiting for its start, a permit or a reply is a
/// parked waker, not a thread, so one loop runs a closed loop (`W`
/// clients at offset 0: [`drive`]) and an open one (a client per arrival,
/// at `i / rate`, with wrk2's connection count as the gate: the figures).
/// Returns every request's [`Outcome`], client by client in issue order.
///
/// # Panics
///
/// Panics when `in_flight` is zero.
pub fn run_clients(
    rt: &Executor,
    env: &Arc<BeldiEnv>,
    entry: &str,
    clients: Vec<Client>,
    in_flight: usize,
) -> Vec<Outcome> {
    assert!(in_flight > 0, "need at least one request in flight");
    let (handle, start) = (rt.handle(), env.clock().now());
    let admission = Arc::new(Semaphore::new(in_flight));
    let tasks: Vec<_> = clients
        .into_iter()
        .map(|client| {
            let (env, handle) = (Arc::clone(env), handle.clone());
            let (admission, entry) = (Arc::clone(&admission), entry.to_owned());
            rt.spawn(async move {
                let mut issued = start.plus(client.start);
                handle.sleep_until(issued).await;
                let mut outcomes = Vec::with_capacity(client.requests.len());
                for (i, request) in client.requests.into_iter().enumerate() {
                    let instance = env.platform().issue_id(&client.issuer, i as u64);
                    let permit = admission.acquire().await;
                    let reply = env.invoke_task(&entry, &instance, request, MAX_ROOT_ATTEMPTS);
                    let ok = reply.await.is_ok();
                    drop(permit);
                    let now = handle.now();
                    outcomes.push(Outcome {
                        latency: now.since(issued),
                        ok,
                    });
                    issued = now;
                }
                outcomes
            })
        })
        .collect();
    rt.block_on(async move {
        let mut outcomes = Vec::new();
        for task in tasks {
            outcomes.extend(task.await);
        }
        outcomes
    })
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
    use beldi::{BeldiError, SsfBody};
    use beldi_apps::MediaApp;
    use beldi_simclock::SimInstant;

    /// An environment whose `echo` SSF costs `overhead` of platform time
    /// and nothing else (no cold starts, zero-latency storage), fails on
    /// an input divisible by 5 when `fail_fifths`, and logs when each
    /// execution of its body starts.
    fn echo_env(
        mode: Mode,
        overhead: Duration,
        fail_fifths: bool,
    ) -> (Arc<BeldiEnv>, Arc<Mutex<Vec<SimInstant>>>) {
        let platform = PlatformConfig {
            concurrency_limit: 100,
            invoke_timeout: Duration::from_secs(3600),
            cold_start: Duration::ZERO,
            warm_start: Duration::ZERO,
            invoke_overhead: overhead,
            warm_pool_per_fn: 100,
            saturation: SaturationPolicy::Queue,
        };
        let env = BeldiEnv::builder(BeldiConfig::for_mode(mode))
            .platform(platform)
            .build();
        let (clock, started) = (env.clock().clone(), Arc::new(Mutex::new(Vec::new())));
        let log = Arc::clone(&started);
        let body: SsfBody = Arc::new(move |_, input| {
            log.lock().push(clock.now());
            match input.as_int() {
                Some(i) if fail_fifths && i % 5 == 0 => {
                    Err(BeldiError::Protocol(format!("request {i} fails")))
                }
                _ => Ok(input),
            }
        });
        env.register_ssf("echo", &[], body);
        (Arc::new(env), started)
    }

    /// An open-loop schedule: a client per arrival, every `interval`, of
    /// one request each, `Value::Int(i)`.
    fn arrivals(issuer: &str, n: u32, interval: Duration) -> Vec<Client> {
        let client = |i: u32| Client {
            issuer: format!("{issuer}-{i}"),
            start: interval * i,
            requests: vec![Value::Int(i64::from(i))],
        };
        (0..n).map(client).collect()
    }

    /// 100 arrivals a virtual second for 2 s: 200 requests, each body
    /// run at its arrival, none late, the last 1.99 s in.
    #[test]
    fn issues_the_scheduled_number_of_requests() {
        let (env, started) = echo_env(Mode::Baseline, Duration::ZERO, false);
        let (rt, t0) = (Executor::new(env.clock().clone(), 1), env.clock().now());
        let clients = arrivals("a", 200, Duration::from_millis(10));
        let outcomes = run_clients(&rt, &env, "echo", clients, 4);
        assert_eq!(outcomes.len(), 200);
        assert!(outcomes.iter().all(|o| o.ok && o.latency == Duration::ZERO));
        let expected: Vec<_> = (0..200u32)
            .map(|i| t0.plus(Duration::from_millis(10) * i))
            .collect();
        assert_eq!(*started.lock(), expected);
        assert_eq!(env.clock().now().since(t0), Duration::from_millis(1990));
    }

    /// Two closed-loop clients of 25 requests: the 10 whose input is a
    /// multiple of 5 fail, and are counted, not retried.
    #[test]
    fn errors_are_counted() {
        let (env, started) = echo_env(Mode::Baseline, Duration::from_millis(1), true);
        let client = |c: i64| Client {
            issuer: format!("worker-{c}"),
            start: Duration::ZERO,
            requests: (0..25).map(|i| Value::Int(2 * i + c)).collect(),
        };
        let rt = Executor::new(env.clock().clone(), 1);
        let outcomes = run_clients(&rt, &env, "echo", vec![client(0), client(1)], 2);
        assert_eq!(outcomes.iter().filter(|o| !o.ok).count(), 10);
        assert_eq!(started.lock().len(), 50);
        // Client by client, in issue order: client 0 sends 0, 2, 4, ...
        assert!(!outcomes[0].ok && outcomes[1].ok && !outcomes[5].ok);
    }

    /// 40 ms of platform overhead, an arrival every 10 ms and 2 requests
    /// in flight: the gate serves one request every 20 ms, so request
    /// `i`, due at `10 i` ms, replies at `40 + 10 i + 20 (i / 2)` ms. The
    /// backlog shows as latency from each request's start.
    #[test]
    fn a_backlog_shows_as_latency_from_each_start() {
        let (env, _) = echo_env(Mode::Baseline, Duration::from_millis(40), false);
        let (rt, t0) = (Executor::new(env.clock().clone(), 1), env.clock().now());
        let clients = arrivals("a", 100, Duration::from_millis(10));
        let outcomes = run_clients(&rt, &env, "echo", clients, 2);
        let latencies: Vec<_> = outcomes.iter().map(|o| o.latency).collect();
        let expected: Vec<_> = (0..100u64)
            .map(|i| Duration::from_millis(40 + 20 * (i / 2)))
            .collect();
        assert_eq!(latencies, expected);
        assert_eq!(env.clock().now().since(t0), Duration::from_millis(2010));
    }

    /// Two loads on one environment, under different issuers, both
    /// execute. A load that repeats an issuer repeats its instance ids,
    /// and each of its requests replays the earlier instance's reply.
    #[test]
    fn two_loads_on_one_environment_both_execute() {
        let (env, started) = echo_env(Mode::Beldi, Duration::from_millis(1), false);
        let rt = Executor::new(env.clock().clone(), 1);
        let load = |issuer| {
            let clients = arrivals(issuer, 20, Duration::from_millis(5));
            let outcomes = run_clients(&rt, &env, "echo", clients, 4);
            assert!(outcomes.iter().all(|o| o.ok));
        };
        load("minute-0");
        load("minute-1");
        assert_eq!(started.lock().len(), 40);
        load("minute-0");
        assert_eq!(started.lock().len(), 40, "a repeated id executes nothing");
    }

    /// The same seed gives the same outcomes: a media app on modelled
    /// storage latency, 6 closed-loop clients of 8 requests and a late
    /// one, 3 in flight. Another seed gives other latencies.
    #[test]
    fn the_same_seed_gives_the_same_outcomes() {
        let run = |seed: u64| {
            let env = BeldiEnv::builder(BeldiConfig::beldi())
                .seed(seed)
                .latency(LatencyModel::dynamo())
                .platform(driver_platform(None))
                .build();
            let app = MediaApp {
                movies: 10,
                users: 6,
                ..MediaApp::default()
            };
            app.setup(&env);
            let env = Arc::new(env);
            let clients = (0..7).map(|c| {
                let mut rng = worker_rng(seed, c);
                Client {
                    issuer: format!("worker-{c}"),
                    start: Duration::from_millis(if c == 6 { 500 } else { 0 }),
                    requests: (0..8).map(|_| app.gen_load_request(&mut rng)).collect(),
                }
            });
            let rt = Executor::new(env.clock().clone(), seed);
            run_clients(&rt, &env, app.entry(), clients.collect(), 3)
        };
        let first = run(7);
        assert_eq!(first.len(), 56);
        assert!(first.iter().all(|o| o.ok));
        assert_eq!(run(7), first);
        assert_ne!(run(8), first);
    }

    #[test]
    #[should_panic(expected = "need at least one request in flight")]
    fn zero_in_flight_bound_rejected() {
        let (env, _) = echo_env(Mode::Baseline, Duration::ZERO, false);
        let rt = Executor::new(env.clock().clone(), 1);
        run_clients(&rt, &env, "echo", arrivals("a", 1, Duration::ZERO), 0);
    }

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
            counters: [
                (Metric::DbGets, 5),
                (Metric::DbWrites, 4),
                (Metric::WaitDieRetry, 7),
            ]
            .into_iter()
            .collect(),
            state_digest: "00000000deadbeef".into(),
            gc: true,
            samples: vec![
                Sample {
                    t_us: 250_000,
                    live: 10_400,
                    meta_rows: 40,
                    data_rows: 40,
                },
                Sample {
                    t_us: 750_000,
                    live: 3_200,
                    meta_rows: 44,
                    data_rows: 40,
                },
            ],
            tables: [("f.intent".to_owned(), 4u64)].into_iter().collect(),
            max_chain_len: 3,
            high_water: 10_412,
            recovery: Some(RecoverySection {
                crash_sites: [
                    ("wrapper.enter".to_owned(), 9u64),
                    ("ic.exit".to_owned(), 2u64),
                ]
                .into_iter()
                .collect(),
                recovered_intents: 14,
                recovery_p50_ms: 120,
                recovery_p90_ms: 450,
                recovery_p99_ms: 900,
                history_findings: 0,
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
    /// renaming a field cannot silently change the report schema. The
    /// `counters` keys are the registry's names
    /// (`tests/driver.rs::counters_are_the_registrys_names`).
    #[test]
    fn report_keys_are_pinned() {
        let run = BenchRun {
            samples: vec![Sample::default()],
            recovery: Some(Wire::decode(None)),
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
                "counters",
                "elapsed_virtual_us",
                "errors",
                "gc",
                "high_water",
                "latency",
                "max_chain_len",
                "mode",
                "ops",
                "recovery",
                "samples",
                "state_digest",
                "tables",
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
            keys_of(&run.get_list("samples").unwrap()[0]),
            ["data_rows", "live", "meta_rows", "t_us"]
        );
        assert_eq!(
            keys_of(run.get_attr("recovery").unwrap()),
            [
                "crash_sites",
                "digest_match",
                "history_findings",
                "oracle_digest",
                "recovered_intents",
                "recovery_p50_ms",
                "recovery_p90_ms",
                "recovery_p99_ms",
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
        let no_runs = format!("{{\"schema\":{BENCH_SCHEMA}}}");
        assert!(BenchReport::from_json(&no_runs)
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
