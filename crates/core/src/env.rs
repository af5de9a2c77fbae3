//! The Beldi environment: database + platform + registry + collectors.
//!
//! A [`BeldiEnv`] owns one simulated FaaS platform and one simulated NoSQL
//! database (the paper's AWS Lambda + DynamoDB) and registers SSFs on
//! them, wrapped by the Beldi runtime. It is the embedding-level
//! counterpart of "deploy your functions and tables, then point clients at
//! the workflow entry".
//!
//! Per-SSF resources created at registration (data sovereignty, §2.2):
//! an intent table, a log table, the SSF's data tables
//! (linked DAALs in Beldi mode), their shadow tables, and — as platform
//! functions — the SSF's intent collector and garbage collector.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use beldi_simclock::{Hist, Metric, Op, SharedClock, SimClock, Telemetry};
use beldi_simdb::{Database, LatencyModel, MetricsSnapshot, ScanRequest, TableRef};
use beldi_simfaas::{InvokeError, Label, Platform, PlatformConfig, PlatformSnapshot, Probe};
use beldi_value::Value;
use parking_lot::{Mutex, RwLock};

use crate::config::{BeldiConfig, Mode};
use crate::context::SsfContext;
use crate::daal;
use crate::error::{BeldiError, BeldiResult};
use crate::gc::{self, GcReport};
use crate::ic::{self, IcReport};
use crate::intent;
use crate::invoke::{Envelope, Outcome};
use crate::modes;
use crate::schema;
use crate::wrapper;

/// An SSF body: deterministic application logic over a [`SsfContext`].
///
/// Bodies must be deterministic given their logged reads (Olive's intent
/// requirement); all nondeterminism must flow through the context's
/// logged helpers ([`SsfContext::logged_uuid`],
/// [`SsfContext::logged_now_ms`]) or logged reads.
pub type SsfBody = Arc<dyn Fn(&mut SsfContext, Value) -> BeldiResult<Value> + Send + Sync>;

/// A registered SSF: its name, body and tables. The tables are resolved
/// here once, by the names `schema.rs` spells, and every store call of
/// the wrapper, every [`SsfContext`] and the collectors goes through them.
pub(crate) struct Ssf {
    pub name: Arc<str>,
    pub intent_table: TableRef,
    pub log_table: TableRef,
    /// Its data tables, in declaration order.
    pub tables: Vec<SsfTable>,
    pub body: SsfBody,
}

/// One data table an SSF declared: the name its code uses, the physical
/// table and the shadow table backing it (§6.2).
pub(crate) struct SsfTable {
    pub logical: String,
    pub data: TableRef,
    pub shadow: TableRef,
}

impl Ssf {
    /// SSF `name` with its tables resolved in `db`. A table its mode does
    /// not create fails each call through it with `TableNotFound`.
    fn new(db: &Database, name: &str, tables: &[&str], body: SsfBody) -> Self {
        Ssf {
            name: name.into(),
            intent_table: db.table(&schema::intent_table(name)),
            log_table: db.table(&schema::log_table(name)),
            tables: tables
                .iter()
                .map(|&logical| SsfTable {
                    logical: logical.to_owned(),
                    data: db.table(&schema::data_table(name, logical)),
                    shadow: db.table(&schema::shadow_table(name, logical)),
                })
                .collect(),
            body,
        }
    }
}

/// One of the two collectors, as its platform function runs it.
struct Collector {
    /// Suffix of the platform function (`{ssf}.ic`) and of the per-pass
    /// instance id.
    kind: &'static str,
    /// Runs one pass for an SSF, firing the crash hook at each crash
    /// point. The pass counts itself into the registry.
    run: fn(&Arc<EnvCore>, &Ssf, &dyn Fn(Label)),
    /// The counter of passes an injected crash killed.
    crashes: Metric,
}

const IC: Collector = Collector {
    kind: "ic",
    run: |core, ssf, crash| drop(ic::run_ic_with(core, ssf, crash)),
    crashes: Metric::IcCrashes,
};

const GC: Collector = Collector {
    kind: "gc",
    run: |core, ssf, crash| {
        let hooks = gc::GcHooks {
            crash,
            probe: &|_| {},
        };
        drop(gc::run_gc_with(core, ssf, &hooks));
    },
    crashes: Metric::GcCrashes,
};

/// Shared interior of a [`BeldiEnv`].
pub(crate) struct EnvCore {
    pub db: Arc<Database>,
    pub platform: Arc<Platform>,
    pub config: BeldiConfig,
    pub registry: RwLock<HashMap<String, Arc<Ssf>>>,
    /// Tail-row cache for DAAL reads (`Some` only in Beldi mode with
    /// [`BeldiConfig::daal_tail_cache`] on).
    pub tail_cache: Option<daal::TailCache>,
    /// Per-SSF rotating scan cursors for batch-limited IC passes.
    ic_cursors: Mutex<HashMap<String, usize>>,
    timers: Mutex<Vec<beldi_simfaas::TimerHandle>>,
}

impl EnvCore {
    /// The deployment's registry (the platform's, which the database
    /// shares).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        self.platform.telemetry()
    }

    /// The registered SSF `name`.
    pub(crate) fn ssf(&self, name: &str) -> BeldiResult<Arc<Ssf>> {
        self.registry
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BeldiError::Protocol(format!("SSF {name} not registered")))
    }

    /// The start offset for a batch-limited IC scan over `len` unfinished
    /// intents: a per-SSF cursor advanced by `limit` each pass, so
    /// successive bounded passes rotate through the whole index instead
    /// of truncating the same prefix (which starves the tail).
    pub(crate) fn ic_scan_offset(&self, ssf: &str, limit: usize, len: usize) -> usize {
        let mut cursors = self.ic_cursors.lock();
        let cursor = cursors.entry(ssf.to_owned()).or_insert(0);
        let start = *cursor % len.max(1);
        *cursor = cursor.wrapping_add(limit);
        start
    }

    /// Records the recovery latency of a completed instance, once, iff
    /// the fault injector killed it at least once: intent creation →
    /// Done, on virtual time. Called from the wrapper's completion and
    /// replay paths (a post-done crash reaches only the latter).
    pub(crate) fn record_recovery(&self, instance: &str, created_ms: u64) {
        if !self.platform.faults().first_recovery(instance) {
            return;
        }
        let now_ms = self.platform.clock().now().as_millis();
        let latency = Duration::from_millis(now_ms.saturating_sub(created_ms));
        self.telemetry().record(Hist::Recovery, latency);
    }
}

/// Builder for a [`BeldiEnv`] with non-default substrate parameters
/// (latency model, clock, platform limits) — what the benchmark
/// harnesses use to reproduce the paper's setup.
pub struct EnvBuilder {
    config: BeldiConfig,
    clock: Option<SharedClock>,
    latency: LatencyModel,
    platform: PlatformConfig,
    seed: u64,
}

impl EnvBuilder {
    /// Starts a builder with the given Beldi configuration, a zero-latency
    /// database, a test platform, and — unless [`EnvBuilder::clock`] says
    /// otherwise — a [`SimClock`] seeded like the substrate, whose first
    /// participant is the thread that calls [`EnvBuilder::build`].
    ///
    /// On that default clock every other thread that touches the
    /// environment must be started with `env.clock().spawn(..)` and wait
    /// through the clock; a raw `std::thread` that waits on it panics.
    /// A thread that waits on a socket reaches the environment through a
    /// participant instead (DESIGN.md §14).
    pub fn new(config: BeldiConfig) -> Self {
        EnvBuilder {
            config,
            clock: None,
            latency: LatencyModel::zero(),
            platform: PlatformConfig::for_tests(),
            seed: 7,
        }
    }

    /// Uses an explicit shared clock.
    pub fn clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Uses the given database latency model (e.g.
    /// [`LatencyModel::dynamo`] for paper-shaped latencies).
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Uses the given platform configuration (concurrency cap, cold
    /// starts, timeouts).
    pub fn platform(mut self, platform: PlatformConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Seeds the platform/database RNGs (UUIDs, latency jitter).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the environment.
    ///
    /// # Panics
    ///
    /// With the [`crate::ConfigError`] text when
    /// [`BeldiConfig::validate`] rejects the configuration.
    pub fn build(self) -> BeldiEnv {
        if let Err(e) = self.config.validate() {
            panic!("invalid BeldiConfig: {e}");
        }
        let clock = self.clock.unwrap_or_else(|| SimClock::shared(self.seed));
        let platform = Platform::new(clock.clone(), self.platform, self.seed.wrapping_add(1));
        let db =
            Database::with_telemetry(clock, self.latency, self.seed, platform.telemetry().clone());
        let tail_cache = (self.config.mode == Mode::Beldi && self.config.daal_tail_cache)
            .then(daal::TailCache::new);
        BeldiEnv {
            core: Arc::new(EnvCore {
                db,
                platform,
                config: self.config,
                registry: RwLock::new(HashMap::new()),
                tail_cache,
                ic_cursors: Mutex::new(HashMap::new()),
                timers: Mutex::new(Vec::new()),
            }),
        }
    }
}

/// A Beldi deployment: simulated platform + database + registered SSFs.
///
/// Cloning yields another handle to the *same* deployment (the state is
/// behind an `Arc`), which is how background samplers and executor
/// tasks share an environment.
///
/// See the [crate-level docs](crate) for a quickstart.
#[derive(Clone)]
pub struct BeldiEnv {
    core: Arc<EnvCore>,
}

/// Root invocations retry (acting as an impatient intent collector for
/// the workflow root) up to this many times. Harnesses that pin instance
/// ids ([`BeldiEnv::invoke_attempts`], [`BeldiEnv::invoke_task`]) pass
/// the same budget.
pub const MAX_ROOT_ATTEMPTS: usize = 50;

/// How long a root waits before re-launching a failed attempt.
const ROOT_RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// One root invocation's retry policy — the driver side of exactly-once —
/// stated once for the blocking front ([`BeldiEnv::invoke_attempts`]) and
/// the executor front ([`BeldiEnv::invoke_task`]), which differ only in
/// how they wait for the platform and for the back-off.
struct RootCall<'a> {
    core: &'a EnvCore,
    name: &'a str,
    instance: Arc<str>,
    envelope: Value,
    attempts_left: usize,
    first_attempt_ms: u64,
    last_err: Option<InvokeError>,
}

impl<'a> RootCall<'a> {
    fn new(
        core: &'a EnvCore,
        name: &'a str,
        instance: &'a str,
        input: Value,
        max_attempts: usize,
    ) -> Self {
        let instance: Arc<str> = instance.into();
        RootCall {
            core,
            name,
            envelope: Envelope::call(Some(instance.clone()), input, None, false).into_value(),
            instance,
            attempts_left: max_attempts.max(1),
            first_attempt_ms: core.platform.clock().now().as_millis(),
            last_err: None,
        }
    }

    /// The payload of the next attempt, or `None` once the budget is
    /// spent. A retry carries the first attempt's time, and the wrapper
    /// refuses it once `T` has passed since then (`Outcome::Expired`).
    fn next_attempt(&mut self) -> Option<Value> {
        if self.attempts_left == 0 {
            return None;
        }
        self.attempts_left -= 1;
        Some(match self.last_err {
            None => self.envelope.clone(),
            Some(_) => Envelope::retry(&self.envelope, self.first_attempt_ms),
        })
    }

    /// Folds one attempt's reply in: `Break` carries the call's result,
    /// `Continue` means back off and try [`RootCall::next_attempt`].
    fn settle(&mut self, reply: Result<Value, InvokeError>) -> ControlFlow<BeldiResult<Value>> {
        let _op = self.core.telemetry().op(Op::RootSettle, &self.instance);
        let expired = match reply {
            Ok(v) => match Outcome::from_reply(v) {
                Outcome::Expired => true,
                outcome => return ControlFlow::Break(outcome.into_result()),
            },
            Err(e) => {
                self.last_err = Some(e);
                false
            }
        };
        // The instance may have completed before dying (e.g. crashed
        // after marking done): then the intent holds the return value.
        // Baseline registers none, so it retries (§2.1).
        let ssf = match self.core.ssf(self.name) {
            Ok(ssf) => ssf,
            Err(e) => return ControlFlow::Break(Err(e)),
        };
        let table = &ssf.intent_table;
        let record = match self.core.config.mode {
            Mode::Baseline => Ok(None),
            _ => intent::load(&self.core.db, table, &self.instance),
        };
        match record {
            Ok(Some(rec)) if rec.done => {
                self.core.record_recovery(&self.instance, rec.created_ms);
                // The replay a retry would get.
                let ret = rec.root_outcome(table.name()).map(Outcome::from_reply);
                ControlFlow::Break(ret.and_then(Outcome::into_result))
            }
            // Refused past its window: the last attempt's failure stands.
            Ok(_) if expired => ControlFlow::Break(Err(self.give_up())),
            Ok(_) => ControlFlow::Continue(()),
            Err(e) => ControlFlow::Break(Err(e)),
        }
    }

    /// The call's error once it stops retrying.
    #[expect(
        clippy::expect_used,
        reason = "called once an attempt failed: the budget is at least one, a first \
                  attempt is never refused as expired, and every failure sets `last_err`"
    )]
    fn give_up(&self) -> BeldiError {
        BeldiError::Invoke(self.last_err.clone().expect("at least one attempt"))
    }
}

/// Summary of one [`BeldiEnv::drain_recovery`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Intent-collector passes performed.
    pub passes: usize,
    /// Instances re-launched across all passes.
    pub restarted: usize,
    /// Unfinished intents remaining after the final pass (zero on a
    /// successful drain).
    pub unfinished: usize,
}

impl BeldiEnv {
    /// A fast, deterministic environment for tests and examples: Beldi
    /// mode, zero storage latency, no platform overheads, and the
    /// builder's default seeded [`SimClock`] — so the caller's own
    /// threads go through `env.clock().spawn(..)` (see
    /// [`EnvBuilder::new`]).
    pub fn for_tests() -> Self {
        EnvBuilder::new(BeldiConfig::beldi()).build()
    }

    /// Like [`BeldiEnv::for_tests`] with an explicit configuration.
    pub fn for_tests_with(config: BeldiConfig) -> Self {
        EnvBuilder::new(config).build()
    }

    /// Starts a builder for custom substrate parameters.
    pub fn builder(config: BeldiConfig) -> EnvBuilder {
        EnvBuilder::new(config)
    }

    // ---- Registration ----

    /// Registers SSF `name` with its logical data tables and body.
    ///
    /// Creates the SSF's tables (intent, log, one linked DAAL plus shadow
    /// table per data table — or their plain-table equivalents in
    /// cross-table/baseline mode) and registers the SSF,
    /// its intent collector (`{name}.ic`), and its garbage collector
    /// (`{name}.gc`) on the platform.
    ///
    /// # Panics
    ///
    /// Panics on setup errors: duplicate registration or table creation
    /// failures. Registration happens once at deployment time; failures
    /// are deployment bugs.
    pub fn register_ssf(&self, name: &str, tables: &[&str], body: SsfBody) {
        let mode = self.core.config.mode;
        let mut registry = self.core.registry.write();
        assert!(
            !registry.contains_key(name),
            "SSF `{name}` registered twice"
        );
        let db = &self.core.db;
        let create = |table: String, schema: beldi_simdb::TableSchema| {
            db.create_table(table.as_str(), schema)
                .unwrap_or_else(|e| panic!("creating table {table}: {e}"));
        };
        if mode != Mode::Baseline {
            create(schema::intent_table(name), schema::intent_schema());
            create(schema::log_table(name), schema::log_schema());
        }
        for &logical in tables {
            let data = schema::data_table(name, logical);
            match mode {
                Mode::Beldi => {
                    create(data, schema::daal_schema());
                    create(schema::shadow_table(name, logical), schema::shadow_schema());
                }
                Mode::CrossTable | Mode::Baseline => create(data, schema::plain_data_schema()),
            }
        }
        let ssf = Arc::new(Ssf::new(db, name, tables, body));
        registry.insert(name.to_owned(), ssf.clone());
        drop(registry);

        // Platform functions: the SSF itself, its IC, and its GC.
        let weak = Arc::downgrade(&self.core);
        self.core
            .platform
            .register(name, wrapper::make_handler(weak, ssf.clone()));
        if mode != Mode::Baseline {
            for collector in [IC, GC] {
                self.core.platform.register(
                    format!("{name}.{}", collector.kind),
                    collector_handler(&self.core, &ssf, collector),
                );
            }
        }
    }

    // ---- Invocation ----

    /// Invokes SSF `name` as a workflow root and waits for the result.
    ///
    /// The driver side of exactly-once: a fresh instance id is chosen
    /// once, and platform-level failures (crashes, timeouts) are retried
    /// with the *same* id until the intent completes — so the workflow
    /// executes exactly once no matter how many times its instances crash
    /// mid-flight. Baseline retries the same way but logs nothing, so a
    /// retry re-applies its killed attempt's effects (§2.1).
    ///
    /// # Errors
    ///
    /// - [`BeldiError::TxnAborted`] when the workflow's transaction
    ///   aborted;
    /// - [`BeldiError::Protocol`] for application errors;
    /// - [`BeldiError::Invoke`] when the platform failed beyond recovery.
    pub fn invoke(&self, name: &str, input: Value) -> BeldiResult<Value> {
        let instance = self.core.platform.new_uuid();
        self.invoke_as(name, &instance, input)
    }

    /// [`BeldiEnv::invoke`] with a caller-chosen instance id (useful for
    /// tests that re-drive a specific intent).
    pub fn invoke_as(&self, name: &str, instance: &str, input: Value) -> BeldiResult<Value> {
        self.invoke_attempts(name, instance, input, MAX_ROOT_ATTEMPTS)
    }

    /// [`BeldiEnv::invoke_as`] with an explicit retry budget.
    ///
    /// `max_attempts = 1` disables the root's built-in re-launch.
    pub fn invoke_attempts(
        &self,
        name: &str,
        instance: &str,
        input: Value,
        max_attempts: usize,
    ) -> BeldiResult<Value> {
        let mut call = RootCall::new(&self.core, name, instance, input, max_attempts);
        while let Some(envelope) = call.next_attempt() {
            let reply = self.core.platform.invoke_sync(name, envelope);
            if let ControlFlow::Break(result) = call.settle(reply) {
                return result;
            }
            self.clock().sleep(ROOT_RETRY_BACKOFF);
        }
        Err(call.give_up())
    }

    /// Invokes SSF `name` asynchronously as a workflow root; returns the
    /// instance id.
    ///
    /// The intent is registered *before* the call fires (the environment
    /// plays the caller's role in Fig. 20), so the intent collector can
    /// finish the execution even if this initial dispatch is lost.
    pub fn invoke_async(&self, name: &str, input: Value) -> BeldiResult<String> {
        let instance: Arc<str> = self.core.platform.new_uuid().into();
        if self.core.config.mode != Mode::Baseline {
            let now_ms = self.clock().now().as_millis();
            intent::register(
                &self.core.db,
                &self.core.ssf(name)?.intent_table,
                &instance,
                Envelope::call(Some(instance.clone()), input.clone(), None, true).into_args(),
                true,
                None,
                now_ms,
            )?;
        }
        let envelope = Envelope::call(Some(instance.clone()), input, None, true).into_value();
        self.core
            .platform
            .invoke_async(name, envelope)
            .map_err(BeldiError::Invoke)?;
        Ok(instance.to_string())
    }

    /// The executor-task counterpart of [`BeldiEnv::invoke_attempts`]:
    /// a future that drives the same `RootCall` policy but parks on a
    /// waker while the instance runs instead of blocking a client thread,
    /// so ten thousand of them on a [`beldi_runtime::Executor`] are ten
    /// thousand in-flight workflows in one process. The SSF bodies still
    /// run on platform worker threads, bounded by the concurrency cap.
    ///
    /// The future must be awaited *inside* an executor (its retry
    /// backoff uses [`beldi_runtime::sleep`], which resolves the
    /// thread's current executor).
    pub fn invoke_task(
        &self,
        name: &str,
        instance: &str,
        input: Value,
        max_attempts: usize,
    ) -> impl std::future::Future<Output = BeldiResult<Value>> + Send + 'static {
        let core = self.core.clone();
        let name = name.to_owned();
        let instance = instance.to_owned();
        async move {
            let mut call = RootCall::new(&core, &name, &instance, input, max_attempts);
            while let Some(envelope) = call.next_attempt() {
                let reply = core.platform.invoke_pending(&name, envelope).await;
                if let ControlFlow::Break(result) = call.settle(reply) {
                    return result;
                }
                beldi_runtime::sleep(ROOT_RETRY_BACKOFF).await;
            }
            Err(call.give_up())
        }
    }

    // ---- Collectors ----

    /// Runs one intent-collector pass for `ssf` synchronously.
    pub fn run_ic_once(&self, ssf: &str) -> BeldiResult<IcReport> {
        ic::run_ic(&self.core, &*self.core.ssf(ssf)?)
    }

    /// Runs one garbage-collector pass for `ssf` synchronously.
    pub fn run_gc_once(&self, ssf: &str) -> BeldiResult<GcReport> {
        gc::run_gc(&self.core, &*self.core.ssf(ssf)?)
    }

    /// Starts the timer-triggered intent and garbage collectors for every
    /// registered SSF (period: [`BeldiConfig::collector_period`], the
    /// paper's 1-minute timers). They stop when the environment drops.
    pub fn start_collectors(&self) {
        self.start_timers(true, true);
    }

    /// Starts only the timer-triggered garbage collectors — the *online
    /// GC* configuration the workload driver uses: per-SSF collector
    /// functions fire every [`BeldiConfig::collector_period`] of virtual
    /// time, concurrently with live SSF traffic, and count their passes
    /// into [`BeldiEnv::telemetry`]. They stop on
    /// [`BeldiEnv::stop_collectors`] or when the environment drops.
    pub fn start_gc(&self) {
        self.start_timers(false, true);
    }

    fn start_timers(&self, ic: bool, gc: bool) {
        if self.core.config.mode == Mode::Baseline {
            return;
        }
        let period = self.core.config.collector_period;
        // Sorted, not registration/hash order: the timer creation order
        // decides collector firing order at equal deadlines, which must be
        // stable across runs for the crash-schedule explorer.
        let names: Vec<String> = self.ssf_names();
        let mut timers = self.core.timers.lock();
        for name in names {
            if ic {
                timers.push(self.core.platform.schedule_timer(
                    format!("{name}.ic"),
                    period,
                    Value::Null,
                ));
            }
            if gc {
                timers.push(self.core.platform.schedule_timer(
                    format!("{name}.gc"),
                    period,
                    Value::Null,
                ));
            }
        }
    }

    /// Stops all collector timers.
    pub fn stop_collectors(&self) {
        // Taken out first: stopping a timer waits for its thread, and
        // that wait must not hold the lock.
        let timers = std::mem::take(&mut *self.core.timers.lock());
        for t in timers {
            t.stop();
        }
    }

    /// Drives intent-collector passes until no unfinished intent remains
    /// for any registered SSF (or `max_passes` is exhausted) — the
    /// "recovery drain" the crash-schedule explorer runs after a crashed
    /// workload so every interrupted execution is re-driven to completion
    /// on virtual time.
    ///
    /// Each pass advances the virtual clock past the IC restart delay,
    /// runs one IC pass per SSF, and waits for an SSF's re-executions to
    /// settle before the next SSF's pass fires, so recoveries interleave
    /// deterministically in the fault injector's global stream. Zero
    /// [`DrainReport::unfinished`] means quiescent; at least one pass
    /// always runs. Baseline mode has no intents and returns at once.
    pub fn drain_recovery(&self, max_passes: usize) -> BeldiResult<DrainReport> {
        let mut report = DrainReport::default();
        if self.core.config.mode == Mode::Baseline {
            return Ok(report);
        }
        let names: Vec<String> = self.ssf_names();
        let step = self.core.config.ic_restart_delay + Duration::from_millis(5);
        for pass in 0..max_passes.max(1) {
            report.passes = pass + 1;
            self.clock().sleep(step);
            let mut unfinished = 0;
            for name in &names {
                let ssf = self.core.ssf(name)?;
                let r = ic::run_ic(&self.core, &ssf)?;
                unfinished += r.unfinished;
                report.restarted += r.restarted;
                if r.restarted > 0 {
                    self.await_ssf_quiescence(&ssf);
                }
            }
            report.unfinished = unfinished;
            if unfinished == 0 {
                return Ok(report);
            }
        }
        Ok(report)
    }

    /// Best-effort wait (bounded virtual time) until an SSF has no
    /// unfinished intents — used by [`BeldiEnv::drain_recovery`] to
    /// serialize restarted re-executions. A re-execution that crashes
    /// again simply leaves its intent unfinished; the next drain pass
    /// picks it up. Paced on the workspace clock so exploration and
    /// scaled-time runs see a consistent timeline (a real-time sleep
    /// here stalled wall-clock time per drained intent).
    fn await_ssf_quiescence(&self, ssf: &Ssf) {
        for _ in 0..50 {
            self.clock().sleep(Duration::from_millis(1));
            let left = self
                .core
                .db
                .index_query(
                    &ssf.intent_table,
                    schema::A_DONE,
                    &Value::Bool(false),
                    &ScanRequest::all(),
                )
                .map(|rows| rows.len())
                .unwrap_or(0);
            if left == 0 {
                return;
            }
        }
    }

    // ---- Data loading and inspection ----

    /// Seeds `key = value` in an SSF's data table, bypassing logging
    /// (data loading, not part of the exactly-once API).
    pub fn seed(&self, ssf: &str, table: &str, key: &str, value: Value) -> BeldiResult<()> {
        let physical = self.core.db.table(&schema::data_table(ssf, table));
        match self.core.config.mode {
            Mode::Beldi => daal::seed(
                &self.core.db,
                &physical,
                key,
                value,
                self.clock().now().as_millis(),
            ),
            Mode::CrossTable | Mode::Baseline => {
                modes::seed_plain(&self.core.db, &physical, key, value)
            }
        }
    }

    /// Reads the current committed value of `key` in an SSF's data table
    /// (verification helper for tests and benchmarks; unlogged).
    pub fn read_current(&self, ssf: &str, table: &str, key: &str) -> BeldiResult<Value> {
        let physical = self.core.db.table(&schema::data_table(ssf, table));
        match self.core.config.mode {
            Mode::Beldi => daal::read_value(&self.core.db, &physical, &key.into()),
            Mode::CrossTable | Mode::Baseline => {
                modes::baseline_read(&self.core.db, &physical, key)
            }
        }
    }

    /// The length of `key`'s DAAL chain (Beldi mode), for GC experiments.
    pub fn daal_chain_len(&self, ssf: &str, table: &str, key: &str) -> BeldiResult<usize> {
        let physical = self.core.db.table(&schema::data_table(ssf, table));
        Ok(daal::traverse(&self.core.db, &physical, &key.into(), None)?.len())
    }

    // ---- Accessors ----

    /// Names of all registered SSFs, sorted.
    pub fn ssf_names(&self) -> Vec<String> {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut v: Vec<String> = self.core.registry.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// The logical data tables an SSF declared at registration (empty for
    /// unknown SSFs).
    pub fn ssf_tables(&self, ssf: &str) -> Vec<String> {
        self.core
            .registry
            .read()
            .get(ssf)
            .map(|e| e.tables.iter().map(|t| t.logical.clone()).collect())
            .unwrap_or_default()
    }

    /// The simulated database.
    pub fn db(&self) -> &Arc<Database> {
        &self.core.db
    }

    /// The simulated platform.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.core.platform
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        self.core.platform.clock()
    }

    /// The Beldi configuration.
    pub fn config(&self) -> &BeldiConfig {
        &self.core.config
    }

    /// The deployment's counters, gauges and histograms: the database's,
    /// the platform's, the fault injector's, the collectors' and the tail
    /// cache's, in one registry.
    pub fn telemetry(&self) -> &Telemetry {
        self.core.telemetry()
    }

    /// A snapshot of database operation metrics.
    pub fn db_metrics(&self) -> MetricsSnapshot {
        self.core.db.metrics()
    }

    /// A snapshot of platform metrics.
    pub fn platform_metrics(&self) -> PlatformSnapshot {
        self.core.platform.metrics()
    }

    /// Builds a bare context bound to this environment (crate-internal
    /// test helper: drives the ops layer without the wrapper). It has no
    /// registered intent, so its creation time is 0: of its writes, only
    /// those to a `HEAD` row go through the tail cache.
    #[doc(hidden)]
    #[expect(
        clippy::expect_used,
        reason = "a test helper: an unregistered SSF is the calling test's bug"
    )]
    pub fn test_context(&self, ssf: &str, instance: &str) -> SsfContext {
        let ssf = self.core.ssf(ssf).expect("test_context: a registered SSF");
        let now_ms = self.clock().now().as_millis();
        let probe = self.core.platform.faults().probe(&instance.into());
        SsfContext::new(self.core.clone(), ssf, probe, 0, now_ms)
    }

    /// The shared interior (crate-internal test helper: lets unit tests
    /// drive `gc::run_gc_with` with custom hooks).
    #[cfg(test)]
    pub(crate) fn test_core(&self) -> &Arc<EnvCore> {
        &self.core
    }

    /// The registered SSF `name` (crate-internal test helper).
    #[cfg(test)]
    pub(crate) fn test_ssf(&self, name: &str) -> Arc<Ssf> {
        self.core.ssf(name).expect("a registered SSF")
    }
}

impl Drop for BeldiEnv {
    /// Stops the timers and retires the platform's warm workers, waiting
    /// for both: no thread outlives its environment. The waits are ones
    /// the clock sees, so the dropping thread must be one of the clock's.
    fn drop(&mut self) {
        // An unwinding thread waits for nothing: on a poisoned `SimClock`
        // the wait panics, and a second panic aborts the process. Timers
        // and workers then stop unjoined, when their handles drop.
        if std::thread::panicking() {
            return;
        }
        self.stop_collectors();
        self.core.platform.retire_workers();
    }
}

/// Platform handler for an IC or GC timer function.
///
/// Both collectors run under the fault injector — a pass registers a
/// deterministic per-pass instance id (`{ssf}.ic#p{N}` / `{ssf}.gc#p{N}`,
/// counting passes that won the busy guard) and fires the fixed `ic.*` /
/// `gc.*` crash points — so the crash-schedule explorer and the chaos
/// storm can kill collectors between any two steps exactly like they kill
/// SSF instances. A killed pass re-panics (the platform reports it
/// crashed); the next invocation resumes the idempotent work.
fn collector_handler(
    core: &Arc<EnvCore>,
    ssf: &Arc<Ssf>,
    collector: Collector,
) -> beldi_simfaas::FunctionHandler {
    let weak: Weak<EnvCore> = Arc::downgrade(core);
    let ssf = ssf.clone();
    // Reentrancy guard: timer ticks fire on schedule whether or not the
    // previous pass finished, and without the guard a slow pass lets
    // invocations pile up without bound (hundreds of concurrent
    // collectors scanning the same tables). One pass per SSF and
    // collector at a time; a tick that finds the collector busy simply
    // yields to it — both collectors are at-least-once, so skipped ticks
    // cost nothing.
    let busy = AtomicBool::new(false);
    // Executed passes (ticks that won the busy guard): mints the per-pass
    // instance id the chaos storm's kill decisions key on.
    let passes = AtomicU64::new(0);
    Arc::new(move |_ictx, _payload| {
        let Some(core) = weak.upgrade() else {
            return Value::Null;
        };
        if busy.swap(true, Ordering::AcqRel) {
            return Value::Null;
        }
        let pass = passes.fetch_add(1, Ordering::Relaxed);
        // A pass id is used once, so the injector keeps no entry for it.
        let instance = crate::ids::shared(format_args!("{}.{}#p{pass}", ssf.name, collector.kind));
        let (faults, probe) = (core.platform.faults(), Probe::untracked(instance));
        let crash = |label: Label| faults.crash_point(&probe, label);
        // A failed pass is non-fatal: the next timer tick retries.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (collector.run)(&core, &ssf, &crash)
        }));
        busy.store(false, Ordering::Release);
        if let Err(panic) = result {
            core.telemetry().add(collector.crashes, 1);
            std::panic::resume_unwind(panic);
        }
        Value::Null
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_counter_counts() {
        let env = BeldiEnv::for_tests();
        env.register_ssf(
            "counter",
            &["state"],
            Arc::new(|ctx, _input| {
                let cur = ctx.read("state", "hits")?.as_int().unwrap_or(0);
                ctx.write("state", "hits", Value::Int(cur + 1))?;
                Ok(Value::Int(cur + 1))
            }),
        );
        assert_eq!(env.invoke("counter", Value::Null).unwrap(), Value::Int(1));
        assert_eq!(env.invoke("counter", Value::Null).unwrap(), Value::Int(2));
        assert_eq!(
            env.read_current("counter", "state", "hits").unwrap(),
            Value::Int(2)
        );
    }

    /// A root retry is checked where it lands: one that reaches the
    /// wrapper at its first attempt's time plus `T` is admitted, and one
    /// later than that is refused and registers nothing — here after the
    /// GC recycled the completed intent, so admitting it would run the
    /// workflow a second time.
    #[test]
    fn a_root_retry_past_its_window_is_refused_and_registers_nothing() {
        let t = Duration::from_millis(50);
        let env = BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(t));
        env.register_ssf(
            "counter",
            &["state"],
            Arc::new(|ctx, _| {
                let cur = ctx.read("state", "hits")?.as_int().unwrap_or(0);
                ctx.write("state", "hits", Value::Int(cur + 1))?;
                Ok(Value::Int(cur + 1))
            }),
        );
        let first_ms = env.clock().now().as_millis();
        let first = Envelope::call(Some("r".into()), Value::Null, None, false).into_value();
        assert_eq!(
            env.invoke_as("counter", "r", Value::Null),
            Ok(Value::Int(1))
        );
        let retry_at = |ms: u64| {
            env.clock()
                .sleep_until(beldi_simclock::SimInstant::from_millis(ms));
            let retry = Envelope::retry(&first, first_ms);
            Outcome::from_reply(env.platform().invoke_sync("counter", retry).unwrap())
        };
        let intents = || env.db().row_count("counter.intent").unwrap();

        // The window's last instant: the intent is there, and replays.
        assert_eq!(retry_at(first_ms + 50), Outcome::Ok(Value::Int(1)));
        // Past `T` after it finished, the intent is recycled.
        env.clock().sleep(t + Duration::from_millis(1));
        assert_eq!(env.run_gc_once("counter").unwrap().recycled_intents, 1);
        assert_eq!(intents(), 0);
        let now = env.clock().now().as_millis();
        assert_eq!(retry_at(now), Outcome::Expired);
        assert_eq!(intents(), 0, "a refused retry registers nothing");
        assert_eq!(
            env.read_current("counter", "state", "hits").unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let env = BeldiEnv::for_tests();
        let body: SsfBody = Arc::new(|_, _| Ok(Value::Null));
        env.register_ssf("f", &[], body.clone());
        env.register_ssf("f", &[], body);
    }

    #[test]
    fn seed_and_read_current_all_modes() {
        for cfg in [
            BeldiConfig::beldi(),
            BeldiConfig::cross_table(),
            BeldiConfig::baseline(),
        ] {
            let env = BeldiEnv::for_tests_with(cfg);
            env.register_ssf("f", &["t"], Arc::new(|_, _| Ok(Value::Null)));
            env.seed("f", "t", "k", Value::Int(9)).unwrap();
            assert_eq!(env.read_current("f", "t", "k").unwrap(), Value::Int(9));
        }
    }

    #[test]
    fn async_root_invocation_completes() {
        let env = BeldiEnv::for_tests();
        env.register_ssf(
            "writer",
            &["t"],
            Arc::new(|ctx, input| {
                ctx.write("t", "k", input)?;
                Ok(Value::Null)
            }),
        );
        let id = env.invoke_async("writer", Value::Int(5)).unwrap().into();
        // Wait for the async instance to finish.
        let table = schema::intent_table("writer");
        for _ in 0..500 {
            if let Some(rec) = intent::load(env.db(), &env.db().table(&table), &id).unwrap() {
                if rec.done {
                    break;
                }
            }
            env.clock().sleep(Duration::from_millis(1));
        }
        assert_eq!(env.read_current("writer", "t", "k").unwrap(), Value::Int(5));
    }

    #[test]
    fn invoke_task_matches_blocking_invoke() {
        let env = BeldiEnv::for_tests();
        env.register_ssf(
            "counter",
            &["state"],
            Arc::new(|ctx, _input| {
                let cur = ctx.read("state", "hits")?.as_int().unwrap_or(0);
                ctx.write("state", "hits", Value::Int(cur + 1))?;
                Ok(Value::Int(cur + 1))
            }),
        );
        let rt = beldi_runtime::Executor::new(env.clock().clone(), 4);
        let fut = env.invoke_task("counter", "task-1", Value::Null, 50);
        assert_eq!(rt.block_on(fut).unwrap(), Value::Int(1));
        // The blocking path continues over the same state.
        assert_eq!(env.invoke("counter", Value::Null).unwrap(), Value::Int(2));
    }

    #[test]
    fn invoke_task_is_exactly_once_under_crashes() {
        use beldi_simfaas::CrashPlan;
        let env = BeldiEnv::for_tests();
        env.register_ssf(
            "bump",
            &["t"],
            Arc::new(|ctx, _| {
                let v = ctx.read("t", "n")?.as_int().unwrap_or(0);
                ctx.write("t", "n", Value::Int(v + 1))?;
                Ok(Value::Int(v + 1))
            }),
        );
        env.platform()
            .faults()
            .plan("task-crash".to_owned(), CrashPlan::AtOrdinal(2));
        let rt = beldi_runtime::Executor::new(env.clock().clone(), 5);
        let fut = env.invoke_task("bump", "task-crash", Value::Null, 50);
        assert_eq!(rt.block_on(fut).unwrap(), Value::Int(1));
        assert_eq!(env.read_current("bump", "t", "n").unwrap(), Value::Int(1));
    }

    #[test]
    fn many_concurrent_invoke_tasks_on_one_executor() {
        let env = BeldiEnv::for_tests();
        env.register_ssf(
            "add",
            &["t"],
            Arc::new(|ctx, input| {
                // One key per task: exactly-once delivery is the claim under
                // test, not cross-instance RMW atomicity (that's txn mode).
                let key = format!("k{}", input.as_int().unwrap_or(0));
                let v = ctx.read("t", &key)?.as_int().unwrap_or(0);
                ctx.write("t", &key, Value::Int(v + 1))?;
                Ok(Value::Null)
            }),
        );
        let rt = beldi_runtime::Executor::new(env.clock().clone(), 6);
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let fut = env.invoke_task("add", &format!("conc-{i}"), Value::Int(i), 50);
                rt.spawn(async move { fut.await.unwrap() })
            })
            .collect();
        rt.run();
        assert!(handles.iter().all(|h| h.is_finished()));
        let total: i64 = (0..64)
            .map(|k| {
                env.read_current("add", "t", &format!("k{k}"))
                    .unwrap()
                    .as_int()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 64, "every task's write must land exactly once");
    }

    #[test]
    fn invoke_surfaces_application_errors() {
        let env = BeldiEnv::for_tests();
        env.register_ssf(
            "bad",
            &[],
            Arc::new(|_, _| Err(BeldiError::Protocol("nope".into()))),
        );
        assert!(matches!(
            env.invoke("bad", Value::Null),
            Err(BeldiError::Protocol(_))
        ));
    }
}
