//! The systematic crash-schedule explorer.
//!
//! FoundationDB-style simulation testing applied to Beldi's headline
//! guarantee: exactly-once execution "even if an SSF crashes in the midst
//! of its execution and is restarted an arbitrary number of times" (§2.2).
//! Instead of hand-picking a few crash points, the explorer *enumerates*
//! them:
//!
//! 1. **Oracle run** — a crash-free run of a fixed, seeded request
//!    sequence with the fault injector in trace mode, recording every
//!    crash point any instance passes (the *global crash stream*) plus the
//!    final canonical application state.
//! 2. **Depth-1 sweep** — one run per recorded crash point `k` (every
//!    `stride`-th, and the first of each label), with a global plan that
//!    kills whatever instance reaches step `k`. Up to the crash the run is
//!    byte-identical to the oracle (same seeds, same sequential schedule),
//!    so every schedule is reached deterministically.
//! 3. **Depth-2 samples** — seeded random pairs `[i, i+gap]`
//!    ([`beldi_simfaas::CrashPlan::Script`]): the second crash lands in
//!    the *recovery* of the first, exercising multi-crash restarts.
//!
//! After each crashed run the driver lets root-level retries finish, then
//! [`beldi::BeldiEnv::drain_recovery`] re-drives any still-unfinished
//! intent through the intent collector on virtual time, and the state is
//! read once no invocation is in flight. The run passes
//! when (a) every request succeeded, (b) recovery quiesced, (c) the
//! canonical state equals the oracle's, and (d) the [`crate::history`]
//! checker finds no step applied twice and no write for a recycled instance
//! in the run's record. Any failure becomes a [`Violation`] carrying the
//! exact seed and schedule needed to replay it (see `DESIGN.md` §8).
//!
//! Baseline, which retries but logs nothing, is the negative control: a
//! retry re-applies steps (§2.1), [`crate::gate::crash_verdict`].
//!
//! With [`ExploreOptions::gc_check`] the explorer additionally verifies
//! GC quiescence per schedule: every done intent carries the finish time
//! its done-mark sets, and after `T` elapses, repeated GC passes must
//! empty the log and intent tables and shrink every DAAL to head +
//! tail — found by walking every key, which also checks
//! that the collector's sparse appended-row index lists exactly the keys
//! holding a non-head row.

use std::time::Duration;

use beldi::value::Value;
use beldi::{schema, BeldiConfig, BeldiEnv, BeldiError, CrashPlan, Label, Mode};
use beldi_apps::rng::request_rng;
use beldi_apps::WorkflowApp;
use beldi_simdb::{DbSnapshot, Projection, ScanRequest};
use beldi_simfaas::crash_stream;

use crate::driver::Counters;
use crate::gate::counted_corruption;
use crate::history;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for one exploration ([`explore`]).
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Frontend requests per run (the same seeded sequence every run).
    pub requests: usize,
    /// Seed for the request stream, the substrate RNGs, and the depth-2
    /// pair sampler. Identical options ⇒ identical report.
    pub seed: u64,
    /// Sweep every `stride`-th crash point (1 = exhaustive; smoke tests
    /// use larger strides), and the first point of every label the oracle
    /// passes (`usize::MAX`: those only).
    pub stride: usize,
    /// Seeded random depth-2 pairs to run (0 = depth 1 only).
    pub depth2_samples: usize,
    /// Also assert GC quiescence after every schedule.
    pub gc_check: bool,
    /// Interleave one GC pass per SSF (invoked as the platform function
    /// `{ssf}.gc`, exactly as the timer trigger would) after every
    /// frontend request. The collectors' step-boundary `gc.*` crash
    /// points join the global crash stream, so the depth-1 sweep also
    /// kills GC passes *between any two of a pass's steps* while SSF
    /// traffic is live — the online-GC regime — and verifies the final
    /// state against the (equally GC-interleaved) crash-free oracle.
    pub gc_interleave: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            requests: 4,
            seed: 42,
            stride: 1,
            depth2_samples: 0,
            gc_check: false,
            gc_interleave: false,
        }
    }
}

impl ExploreOptions {
    /// CI's preset (`explore --smoke`): every fifth crash point, the first
    /// of every label, and two depth-2 pairs over three requests. It is
    /// sized to kill commits: at seed 42 three is the fewest requests with
    /// which the travel app commits a reservation (with two, nothing
    /// reserves), so its sweep crashes before a commit signal and before a
    /// flush.
    pub fn smoke() -> Self {
        ExploreOptions {
            requests: 3,
            stride: 5,
            depth2_samples: 2,
            ..ExploreOptions::default()
        }
    }
}

/// What a schedule violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A frontend request returned an error the oracle did not.
    RequestError,
    /// Recovery never quiesced (unfinished intents after the drain cap).
    IncompleteRecovery,
    /// The scheduled crash never fired — determinism itself is broken.
    NoCrashInjected,
    /// Canonical application state differs from the crash-free oracle.
    StateDivergence,
    /// The run record breaks a clause of the [`crate::history`] checker.
    History,
    /// Logs/intents/DAAL rows survived the GC quiescence check.
    GcResidue,
    /// A collector counted (and skipped) a corrupt chain or intent.
    Corruption,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::RequestError => "request-error",
            ViolationKind::IncompleteRecovery => "incomplete-recovery",
            ViolationKind::NoCrashInjected => "no-crash-injected",
            ViolationKind::StateDivergence => "state-divergence",
            ViolationKind::History => "history",
            ViolationKind::GcResidue => "gc-residue",
            ViolationKind::Corruption => "corruption",
        };
        f.write_str(s)
    }
}

/// One detected violation, with everything needed to replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The global crash schedule that produced it (empty = oracle run).
    pub schedule: Vec<u64>,
    /// The label of the first scheduled crash point (from the oracle
    /// trace), when known.
    pub label: &'static str,
    /// Human-readable specifics (divergent rows, error messages).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let schedule: Vec<String> = self.schedule.iter().map(u64::to_string).collect();
        write!(
            f,
            "[{}] schedule=[{}] at `{}`: {}",
            self.kind,
            schedule.join(","),
            self.label,
            self.detail
        )
    }
}

/// The outcome of one exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// App explored.
    pub app: String,
    /// Table/logging mode explored.
    pub mode: Mode,
    /// The seed everything derived from.
    pub seed: u64,
    /// Requests per run.
    pub requests: usize,
    /// Crash points the oracle run recorded (the global stream length).
    pub crash_points: usize,
    /// Crash schedules executed (depth 1 + depth 2).
    pub schedules: usize,
    /// Total crashes injected across all schedules.
    pub crashes_injected: u64,
    /// The labels at which the schedules made their first crash, each
    /// once, in [`Label::ALL`] order: what the sweep covered.
    pub crashed_labels: Vec<Label>,
    /// The labels any run passed — the oracle, or a schedule before or
    /// after its crash — each once, in [`Label::ALL`] order.
    pub reached_labels: Vec<Label>,
    /// Everything that failed verification.
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// True when every schedule passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A three-SSF synthetic pipeline exercising every primitive — read,
/// write, conditional write, a synchronous and an asynchronous
/// sub-invocation (`root → worker → async sink`) — with tiny per-run
/// cost.
///
/// This is the explorer's reference workload and the **canary's**
/// sensitizer: its conditional write computes from an earlier read
/// (`gate = count + 1`), so a crash landing between the count write and
/// the not-yet-applied gate write forces the re-execution to recompute
/// the gate's value from its replayed read. In the sabotaged variant
/// ([`PipelineApp::sabotaged`]) that read bypasses the log, so the
/// replay sees fresh state and the gate diverges — the detection the
/// self-test asserts. Workloads whose writes don't depend on earlier
/// reads (pure stores, self-correcting list appends) cannot expose a
/// read-replay bug, which is exactly why the canary runs here.
/// `PipelineApp::default()` runs the correct protocol.
#[derive(Default)]
pub struct PipelineApp {
    /// Whether `root` reads its counter straight from the store (the
    /// planted bug) instead of through the read log.
    unlogged_count: bool,
}

impl PipelineApp {
    /// The explorer's canary: the same pipeline, except that `root` takes
    /// its `count` from outside the logged API, so a re-execution re-reads
    /// *fresh* state instead of replaying what its first execution saw. A
    /// sweep over it must report violations; one that does not has lost
    /// its teeth.
    pub fn sabotaged() -> Box<dyn WorkflowApp> {
        Box::new(PipelineApp {
            unlogged_count: true,
        })
    }
}

impl WorkflowApp for PipelineApp {
    fn kind(&self) -> &'static str {
        "pipeline"
    }

    fn entry_point(&self) -> &'static str {
        "root"
    }

    fn install(&self, env: &BeldiEnv) {
        use std::sync::Arc;
        // The unlogged read goes through a captured handle, which makes
        // the environment own a reference to itself: sabotaged
        // environments are leaked, a price only the self-test pays.
        let store = self.unlogged_count.then(|| env.clone());
        env.register_ssf(
            "worker",
            &["wt"],
            Arc::new(|ctx, input: Value| {
                let c = ctx.read("wt", "count")?.as_int().unwrap_or(0);
                ctx.write("wt", "count", Value::Int(c + 1))?;
                ctx.async_invoke("sink", Value::Int(c + 1))?;
                Ok(Value::Int(input.as_int().unwrap_or(0) + c + 1))
            }),
        );
        // One counter per worker run: async sinks may overlap, and two
        // that counted on one key would race.
        env.register_ssf(
            "sink",
            &["st"],
            Arc::new(|ctx, run: Value| {
                let key = sink_key(run.as_int().unwrap_or(0));
                let c = ctx.read("st", &key)?.as_int().unwrap_or(0);
                ctx.write("st", &key, Value::Int(c + 1))?;
                Ok(Value::Null)
            }),
        );
        env.register_ssf(
            "root",
            &["rt"],
            Arc::new(move |ctx, input| {
                let c = match &store {
                    None => ctx.read("rt", "count")?,
                    Some(env) => env.read_current("root", "rt", "count")?,
                };
                let c = c.as_int().unwrap_or(0);
                ctx.write("rt", "count", Value::Int(c + 1))?;
                let gated = ctx.cond_write(
                    "rt",
                    "gate",
                    Value::Int(c + 1),
                    beldi::value::Cond::not_exists(beldi::A_VALUE)
                        .or(beldi::value::Cond::lt(beldi::A_VALUE, 1_000_000i64)),
                )?;
                let sub = ctx.sync_invoke("worker", input)?;
                Ok(beldi::value::vmap! { "count" => c + 1, "gated" => gated, "sub" => sub })
            }),
        );
    }

    fn gen_request(&self, rng: &mut SmallRng) -> Value {
        Value::Int(rng.gen_range(0..100i64))
    }

    fn canonical_state(&self, env: &BeldiEnv) -> Value {
        let sinks = sink_counts(env).into_iter().map(Value::Int).collect();
        beldi::value::vmap! {
            "root" => env.read_current("root", "rt", "count").unwrap_or(Value::Null),
            "gate" => env.read_current("root", "rt", "gate").unwrap_or(Value::Null),
            "worker" => env.read_current("worker", "wt", "count").unwrap_or(Value::Null),
            "sink" => Value::List(sinks),
        }
    }
}

/// The key `sink` counts the worker's run `run` under.
fn sink_key(run: i64) -> String {
    format!("run-{run}")
}

/// How many times `sink` counted each worker run, in run order.
fn sink_counts(env: &BeldiEnv) -> Vec<i64> {
    let int = |ssf, table, key: &str| env.read_current(ssf, table, key).ok()?.as_int();
    let runs = int("worker", "wt", "count").unwrap_or(0);
    (1..=runs)
        .map(|run| int("sink", "st", &sink_key(run)).unwrap_or(0))
        .collect()
}

/// Everything captured from one run. The environment rides along so
/// forensics (raw snapshot diffs) can be taken lazily — only when a
/// schedule actually diverges — instead of cloning every table on every
/// clean run.
struct RunOutcome {
    /// The labels of the crash points passed, in global-stream order.
    crash_points: Vec<Label>,
    injected: u64,
    errors: Vec<String>,
    unfinished: usize,
    state: Value,
    /// What the [`history`] checker found in the run's record.
    history: Vec<String>,
    gc_residue: Option<String>,
    corruption: Option<String>,
}

/// `T` used for explorer environments (virtual, like every wait here: the
/// environments run on the builder's default seeded clock).
const EXPLORE_T_MAX: Duration = Duration::from_millis(200);

/// IC restart delay for explorer environments (virtual).
const EXPLORE_IC_DELAY: Duration = Duration::from_millis(40);

/// Drain passes before concluding recovery is stuck.
const DRAIN_PASSES: usize = 40;

fn build_env(mode: Mode, opts: &ExploreOptions) -> BeldiEnv {
    let cfg = BeldiConfig::for_mode(mode)
        .with_t_max(EXPLORE_T_MAX)
        .with_ic_restart_delay(EXPLORE_IC_DELAY);
    BeldiEnv::builder(cfg).seed(opts.seed).build()
}

/// Runs the seeded request sequence once under the given global crash
/// schedule (empty = crash-free), drains recovery, and captures the
/// crash points it passed and the verification state.
fn run_schedule(
    app: &dyn WorkflowApp,
    mode: Mode,
    opts: &ExploreOptions,
    schedule: &[u64],
) -> (RunOutcome, BeldiEnv) {
    let env = build_env(mode, opts);
    app.setup(&env);
    let faults = env.platform().faults();
    env.telemetry().start_record(env.clock().clone());
    if !schedule.is_empty() {
        let steps: Vec<usize> = schedule.iter().map(|&s| s as usize).collect();
        faults.set_global_plan(Some(CrashPlan::Script(steps)));
    }
    // With gc_interleave, one collector pass per SSF follows every
    // request — the same sequence in the oracle and in every schedule,
    // so the collectors' crash points occupy identical global-stream
    // positions run to run.
    let gc_names: Vec<String> = if opts.gc_interleave && mode != Mode::Baseline {
        env.ssf_names()
    } else {
        Vec::new()
    };
    let mut rng = request_rng(opts.seed);
    let mut errors = Vec::new();
    for i in 0..opts.requests {
        let payload = app.gen_request(&mut rng);
        if let Err(e) = env.invoke(app.entry_point(), payload) {
            errors.push(format!("request {i}: {e}"));
        }
        for ssf in &gc_names {
            // Collectors are at-least-once: an injected crash mid-pass is
            // the schedule under test, not a failure — the next pass (or
            // the end-of-run quiescence drive) resumes the idempotent
            // work. Only non-crash errors would be bugs, and those
            // surface through the gc_check residue scan.
            env.platform()
                .invoke_sync(&format!("{ssf}.gc"), Value::Null)
                .ok();
        }
    }
    let unfinished = match env.drain_recovery(DRAIN_PASSES) {
        Ok(report) => report.unfinished,
        Err(e) => {
            errors.push(format!("drain: {e}"));
            usize::MAX
        }
    };
    // An async call may still run: in baseline nothing drains it.
    let in_flight = await_idle(&env);
    if in_flight > 0 {
        errors.push(format!("{in_flight} invocation(s) still in flight"));
    }
    let record = env.telemetry().take_record();
    let crash_points = crash_stream(&record).map(|v| v.label).collect();
    let state = app.canonical_state(&env);
    let gc_residue = if opts.gc_check && mode != Mode::Baseline {
        gc_quiescence_residue(&env, mode)
    } else {
        None
    };
    let outcome = RunOutcome {
        crash_points,
        injected: faults.injected_count(),
        errors,
        unfinished,
        state,
        history: history::check(&record),
        gc_residue,
        corruption: counted_corruption(&Counters::read(env.telemetry())),
    };
    (outcome, env)
}

/// Waits, at most `T` of virtual time, until no invocation is in flight;
/// how many still are.
fn await_idle(env: &BeldiEnv) -> i64 {
    for _ in 0..EXPLORE_T_MAX.as_millis() {
        if env.platform_metrics().active == 0 {
            break;
        }
        env.clock().sleep(Duration::from_millis(1));
    }
    env.platform_metrics().active
}

/// Drives the GC to quiescence and reports anything left behind.
///
/// First, before any pass can recycle them, every done intent must carry
/// the finish time its done-mark sets, a non-negative int: the collector
/// counts the recycle horizon from it and would leave an intent without
/// one in place. Then four passes with `T` elapsing in between cover the
/// full pipeline: recycle intents + delete logs + disconnect DAAL rows →
/// delete dangled rows (orphans from failed appends need one extra
/// stamp-then-delete round).
fn gc_quiescence_residue(env: &BeldiEnv, mode: Mode) -> Option<String> {
    let ssfs = env.ssf_names();
    let mut residue = Vec::new();
    for ssf in &ssfs {
        let table = schema::intent_table(ssf);
        let rows = env
            .db()
            .scan_all(&table, &ScanRequest::all())
            .unwrap_or_default();
        let n = rows
            .iter()
            .filter(|row| {
                let mark = schema::DoneMark::decode(&table, row);
                matches!(
                    mark,
                    Err(BeldiError::Corrupt {
                        attr: schema::A_FINISH,
                        ..
                    })
                )
            })
            .count();
        if n > 0 {
            residue.push(format!("{table}: {n} done intent(s) without a FinishTime"));
        }
    }
    for _ in 0..4 {
        env.clock().sleep(EXPLORE_T_MAX + Duration::from_millis(20));
        for ssf in &ssfs {
            if let Err(e) = env.run_gc_once(ssf) {
                residue.push(format!("gc pass failed for {ssf}: {e}"));
                return Some(residue.join("; "));
            }
        }
    }
    let count = |table: &str| -> usize {
        env.db()
            .scan_all(table, &ScanRequest::all())
            .map(|r| r.len())
            .unwrap_or(0)
    };
    for ssf in &ssfs {
        for table in [schema::intent_table(ssf), schema::log_table(ssf)] {
            let n = count(&table);
            if n > 0 {
                residue.push(format!("{table}: {n} row(s)"));
            }
        }
        if mode == Mode::Beldi {
            for logical in env.ssf_tables(ssf) {
                let shadow = schema::shadow_table(ssf, &logical);
                let n = count(&shadow);
                if n > 0 {
                    residue.push(format!("{shadow}: {n} shadow row(s)"));
                }
                daal_table_residue(env, &schema::data_table(ssf, &logical), &mut residue);
            }
        }
    }
    if residue.is_empty() {
        None
    } else {
        Some(residue.join("; "))
    }
}

/// Checks one quiescent data table by walking every key, independently
/// of the collector's sparse index, which makes the walk that index's
/// completeness reference: every DAAL is compacted to head + tail, every
/// non-head row carries the appended-row marker, and the index lists
/// exactly the keys the walk finds holding such a row.
fn daal_table_residue(env: &BeldiEnv, data: &str, residue: &mut Vec<String>) {
    let Ok(keys) = env.db().distinct_hash_keys(data) else {
        return;
    };
    let mut walked = Vec::new();
    for key in keys {
        let rows = env
            .db()
            .query(data, &key, &ScanRequest::all())
            .unwrap_or_default();
        if rows.len() > 2 {
            let n = rows.len();
            residue.push(format!("{data}/{key}: {n} DAAL rows (> head+tail)"));
        }
        let appended: Vec<&Value> = rows
            .iter()
            .filter(|row| row.get_str(schema::A_ROW_ID) != Some(schema::ROW_HEAD))
            .collect();
        if appended.is_empty() {
            continue;
        }
        if appended
            .iter()
            .any(|row| row.get_bool(schema::A_APPENDED) != Some(true))
        {
            residue.push(format!("{data}/{key}: non-head row without the marker"));
        }
        walked.push(key);
    }
    let keys_only = ScanRequest::all().with_projection(Projection::attrs([schema::A_KEY]));
    let mut indexed: Vec<Value> = env
        .db()
        .index_query(data, schema::A_APPENDED, &Value::Bool(true), &keys_only)
        .unwrap_or_default()
        .iter()
        .filter_map(|row| row.get_attr(schema::A_KEY).cloned())
        .collect();
    indexed.dedup();
    if indexed != walked {
        residue.push(format!(
            "{data}: the appended-row index lists {indexed:?}, the walk found {walked:?}"
        ));
    }
}

/// Explores one app in one mode. See the module docs for the procedure.
pub fn explore(app: &dyn WorkflowApp, mode: Mode, opts: &ExploreOptions) -> ExploreReport {
    let (oracle, oracle_env) = run_schedule(app, mode, opts, &[]);
    // Raw-forensics snapshot of the oracle, taken only once a schedule
    // actually diverges (clean sweeps never pay for it).
    let mut oracle_snapshot: Option<DbSnapshot> = None;
    let mut report = ExploreReport {
        app: app.kind().to_owned(),
        mode,
        seed: opts.seed,
        requests: opts.requests,
        crash_points: oracle.crash_points.len(),
        schedules: 0,
        crashes_injected: 0,
        crashed_labels: Vec::new(),
        reached_labels: Vec::new(),
        violations: Vec::new(),
    };
    let mut reached: Vec<Label> = oracle.crash_points.clone();
    if !oracle.errors.is_empty()
        || oracle.unfinished != 0
        || oracle.corruption.is_some()
        || !oracle.history.is_empty()
    {
        report.violations.push(Violation {
            kind: ViolationKind::RequestError,
            schedule: Vec::new(),
            label: "<oracle>",
            detail: format!(
                "crash-free oracle run failed: errors={:?} unfinished={} corruption={:?} \
                 history={:?}",
                oracle.errors, oracle.unfinished, oracle.corruption, oracle.history
            ),
        });
        return report;
    }

    // Depth 1: one schedule per strided crash point, and one at the first
    // point of every label the oracle passes, so no label it reaches goes
    // uncrashed whatever the stride. Point 0 is its label's first.
    let stride = opts.stride.max(1);
    let mut points: Vec<u64> = (0..oracle.crash_points.len() as u64)
        .step_by(stride)
        .collect();
    points.extend(Label::ALL.into_iter().filter_map(|label| {
        let first = oracle.crash_points.iter().position(|&l| l == label);
        first.map(|k| k as u64)
    }));
    points.sort_unstable();
    points.dedup();
    let mut schedules: Vec<Vec<u64>> = points.into_iter().map(|k| vec![k]).collect();

    // Depth 2: seeded pairs [i, i+gap]; the second crash lands during the
    // recovery of the first (the global stream keeps counting across
    // re-executions).
    let mut pair_rng = SmallRng::seed_from_u64(opts.seed ^ 0xD2D2_D2D2);
    for _ in 0..opts.depth2_samples {
        if oracle.crash_points.is_empty() {
            break;
        }
        let i = pair_rng.gen_range(0..oracle.crash_points.len()) as u64;
        let gap = pair_rng.gen_range(1..25usize) as u64;
        schedules.push(vec![i, i + gap]);
    }

    let mut crashed = Vec::new();
    for schedule in schedules {
        report.schedules += 1;
        let (out, run_env) = run_schedule(app, mode, opts, &schedule);
        report.crashes_injected += out.injected;
        reached.extend(out.crash_points);
        let first = schedule
            .first()
            .and_then(|&k| oracle.crash_points.get(k as usize))
            .copied();
        crashed.extend(first);
        let label = first.map_or("", Label::as_str);
        let mut fail = |kind, detail| {
            report.violations.push(Violation {
                kind,
                schedule: schedule.clone(),
                label,
                detail,
            });
        };
        if !out.errors.is_empty() {
            fail(ViolationKind::RequestError, out.errors.join("; "));
        }
        if out.unfinished != 0 {
            fail(
                ViolationKind::IncompleteRecovery,
                format!(
                    "{} unfinished intent(s) after {DRAIN_PASSES} passes",
                    out.unfinished
                ),
            );
        }
        if out.injected == 0 {
            // Up to the first scheduled step the run replays the oracle
            // exactly, so the crash must fire; anything else means the
            // schedule itself is nondeterministic.
            fail(
                ViolationKind::NoCrashInjected,
                "scheduled crash point was never reached".to_owned(),
            );
        }
        if out.state != oracle.state {
            // Pinpoint the rows via the raw snapshot diff, keeping only
            // application tables (metadata legitimately differs).
            let (app_diff, _meta) = oracle_snapshot
                .get_or_insert_with(|| oracle_env.db().snapshot())
                .diff(&run_env.db().snapshot())
                .split(schema::is_meta_table);
            fail(
                ViolationKind::StateDivergence,
                format!(
                    "canonical state differs from oracle; raw app-table diff: {}",
                    app_diff.summarize(4)
                ),
            );
        }
        for finding in out.history {
            fail(ViolationKind::History, finding);
        }
        if let Some(residue) = out.gc_residue {
            fail(ViolationKind::GcResidue, residue);
        }
        if let Some(counted) = out.corruption {
            fail(ViolationKind::Corruption, counted);
        }
    }
    report.crashed_labels = in_table_order(&crashed);
    report.reached_labels = in_table_order(&reached);
    report
}

/// `labels` without repeats, in [`Label::ALL`] order.
fn in_table_order(labels: &[Label]) -> Vec<Label> {
    Label::ALL
        .into_iter()
        .filter(|l| labels.contains(l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi::value::vmap;
    use std::sync::Arc;

    /// The quiescence walk polices the collector's sparse index: a chain
    /// grown and compacted by the protocol leaves no residue, a non-head
    /// row planted without the marker is reported twice over (unmarked,
    /// and absent from the index).
    #[test]
    fn quiescence_walk_checks_the_appended_row_index() {
        let env = build_env(Mode::Beldi, &ExploreOptions::default());
        env.register_ssf(
            "w",
            &["t"],
            Arc::new(|ctx, key| {
                ctx.write("t", key.as_str().unwrap_or_default(), Value::Int(1))?;
                Ok(Value::Null)
            }),
        );
        let capacity = BeldiConfig::beldi().daal_row_capacity;
        for _ in 0..2 * capacity + 1 {
            env.invoke("w", Value::from("grown")).unwrap();
        }
        env.invoke("w", Value::from("single")).unwrap();
        assert_eq!(env.daal_chain_len("w", "t", "grown").unwrap(), 3);
        assert_eq!(gc_quiescence_residue(&env, Mode::Beldi), None);
        assert_eq!(env.daal_chain_len("w", "t", "grown").unwrap(), 2);

        env.db()
            .put(
                "w.data.t",
                vmap! { schema::A_KEY => "single", schema::A_ROW_ID => "R-planted" },
            )
            .unwrap();
        let residue = gc_quiescence_residue(&env, Mode::Beldi).expect("planted row");
        assert!(
            residue.contains(r#""single": non-head row without the marker"#),
            "{residue}"
        );
        assert!(residue.contains(r#"lists [Str("grown")],"#), "{residue}");
    }

    /// The quiescence check reads the finish time itself, before any pass:
    /// a done intent whose done-mark left none is reported.
    #[test]
    fn quiescence_check_requires_a_finish_time_on_every_done_intent() {
        let env = build_env(Mode::Beldi, &ExploreOptions::default());
        env.register_ssf("w", &[], Arc::new(|_, _| Ok(Value::Null)));
        env.invoke("w", Value::Null).unwrap();
        assert_eq!(gc_quiescence_residue(&env, Mode::Beldi), None);

        for finish in [None, Some(Value::from("7")), Some(Value::Int(-7))] {
            let mut intent = vmap! { schema::A_ID => "planted", schema::A_DONE => true };
            if let Some(f) = finish {
                intent.as_map_mut().unwrap().insert(schema::A_FINISH, f);
            }
            env.db().put("w.intent", intent).unwrap();
            let residue = gc_quiescence_residue(&env, Mode::Beldi).expect("planted intent");
            assert!(
                residue.starts_with("w.intent: 1 done intent(s) without a FinishTime"),
                "{residue}"
            );
        }
    }
}
