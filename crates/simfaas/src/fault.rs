//! Crash injection.
//!
//! Beldi's exactly-once guarantee must hold "even if an SSF crashes in the
//! midst of its execution and is restarted by the provider an arbitrary
//! number of times" (§2.2). To validate that, the Beldi library calls
//! [`FaultInjector::crash_point`] at every labelled point around its
//! externally visible effects (before/after each database write, log
//! append, invocation, callback, and intent completion). The injector
//! decides — per scripted plan or seeded [`StormPolicy`] — whether the
//! instance dies *right there*, by unwinding with a [`CrashSignal`] panic
//! that the platform catches and reports as [`crate::InvokeError::Crashed`].
//!
//! Besides per-instance plans, the injector maintains one **global crash
//! stream**: every crash point, from any instance, is numbered by a
//! monotonically increasing *global step*. A plan installed with
//! [`FaultInjector::set_global_plan`] is evaluated against this stream, so
//! a test can say "crash whatever instance passes the N-th crash point of
//! this whole workload" without knowing instance ids in advance — the
//! primitive the crash-schedule explorer sweeps. While a reader has the
//! run record started (`Telemetry::start_record`) each point is one
//! crash event in it, which [`crate::crash_stream`] reads back, so a
//! crash-free run enumerates exactly the schedules worth exploring.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use beldi_simclock::{EventKind, Gauge, Metric, Telemetry};
use beldi_value::Fnv1a;
use parking_lot::Mutex;

use crate::Label;

/// Panic payload distinguishing a modelled crash from a genuine bug: an
/// injected one, or an instance that gives itself up once a message's
/// retries ran out.
#[derive(Debug, Clone)]
pub struct CrashSignal {
    /// The crash-point label where the instance died, or why it gave up.
    pub point: String,
}

/// Guards [`silence_crash_backtraces`] against double installation.
static BACKTRACES_SILENCED: AtomicBool = AtomicBool::new(false);

/// Installs a panic hook that silences [`CrashSignal`] panics (they are
/// modelled crashes, not bugs) while delegating everything else to the
/// previous hook.
///
/// Idempotent: only the first call installs the hook; repeated calls are
/// no-ops instead of chaining ever-deeper hook wrappers.
///
/// Demos and long fault-injection runs call this so their output is not
/// drowned in backtraces; tests generally keep the default hook for
/// diagnosability.
pub fn silence_crash_backtraces() {
    if BACKTRACES_SILENCED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<CrashSignal>().is_none() {
            previous(info);
        }
    }));
}

/// A scripted crash plan.
///
/// Installed per instance id ([`FaultInjector::plan`]), ordinals count
/// that instance's own crash points; installed globally
/// ([`FaultInjector::set_global_plan`]), they count the *global* crash
/// stream across every instance (and "lifetime" equals "ordinal", since
/// the global stream is never reset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashPlan {
    /// Crash at the `n`-th crash point the instance passes (0-based),
    /// counting every labelled point in execution order and resetting on
    /// re-execution. One-shot: the plan is consumed when it fires, so the
    /// re-executed instance runs on.
    AtOrdinal(usize),
    /// Crash the first time the instance passes the given label. One-shot.
    AtLabel(Label),
    /// Scripted multi-crash sequence: crash at each listed *lifetime*
    /// ordinal in turn — the `n`-th crash point (0-based) the instance
    /// passes counted across restarts, never reset by
    /// [`FaultInjector::instance_started`] (write entries strictly
    /// ascending) — so one plan kills the instance several times across
    /// successive restarts; a one-entry script is one crash there. An
    /// entry whose exact point was missed (e.g. another plan fired there
    /// first) triggers at the next point reached instead of stalling the
    /// script. The plan is consumed when its last entry fires.
    Script(Vec<usize>),
}

/// A deterministic, rate-configurable crash storm: the policy that kills
/// live traffic and collector passes at random, for the chaos driver and
/// for tests.
///
/// The storm decides each kill by hashing `(seed, instance id, execution
/// generation, label, per-execution label occurrence)`, all quantities
/// local to one execution, so a decision draws on no shared random
/// stream. On the seeded `SimClock` instance ids and execution order are
/// functions of the seed, so the realized crash schedule is too, which
/// is what lets the chaos driver assert bit-identical schedules across
/// same-seed runs. The execution *generation* (how many times the
/// instance started) feeds the hash, so a killed execution's restart
/// draws fresh decisions instead of dying at the same point forever.
#[derive(Debug, Clone)]
pub struct StormPolicy {
    /// Kill probability at each SSF crash point.
    pub ssf_prob: f64,
    /// Kill probability at each collector (`ic.*` / `gc.*`,
    /// [`Label::is_collector`]) crash point.
    pub collector_prob: f64,
    /// Hard cap on total injected crashes, plan-fired ones included
    /// (guarantees workloads finish).
    pub max_crashes: u64,
    /// Hash seed.
    pub seed: u64,
}

impl StormPolicy {
    /// The execution-local kill decision (see type docs).
    fn kills(&self, instance: &str, generation: u64, label: Label, label_count: u32) -> bool {
        let prob = if label.is_collector() {
            self.collector_prob
        } else {
            self.ssf_prob
        };
        if prob <= 0.0 {
            return false;
        }
        // FNV-1a over the decision key; the top 53 bits map uniformly
        // onto [0, 1).
        let h = Fnv1a::seeded(
            self.seed,
            &[
                instance.as_bytes(),
                b"\x00",
                &generation.to_le_bytes(),
                label.as_str().as_bytes(),
                b"\x00",
                &u64::from(label_count).to_le_bytes(),
            ],
        );
        ((h >> 11) as f64 / (1u64 << 53) as f64) < prob
    }
}

/// One instance's crash-point counters: what a probe reads and bumps
/// without the injector's lock.
struct Counters {
    /// Crash points passed during the *current* execution (reset when an
    /// execution starts, [`FaultInjector::instance_started`]).
    ordinal: AtomicUsize,
    /// Crash points passed across the instance's whole lifetime (never
    /// reset).
    lifetime: AtomicUsize,
    /// Occurrences per label, indexed by [`Label::index`] (reset when an
    /// execution starts).
    label_counts: [AtomicU32; Label::COUNT],
    /// Which execution of this instance is running (0-based; bumped when
    /// an execution starts, never reset). Feeds the [`StormPolicy`] hash
    /// so restarts draw fresh decisions.
    generation: AtomicU64,
    /// Injected crashes and lease kills at this instance across its
    /// lifetime.
    crashes: AtomicU64,
    /// Whether the instance's recovery latency was sampled
    /// ([`FaultInjector::first_recovery`]).
    recovery_sampled: AtomicBool,
}

impl Counters {
    /// An instance before its first probe.
    fn new() -> Self {
        Counters {
            ordinal: AtomicUsize::new(0),
            lifetime: AtomicUsize::new(0),
            label_counts: std::array::from_fn(|_| AtomicU32::new(0)),
            generation: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            recovery_sampled: AtomicBool::new(false),
        }
    }

    /// A known instance's next execution starts: its per-execution
    /// counters reset in place, so a restart allocates nothing.
    fn restart(&self) {
        self.ordinal.store(0, Ordering::Relaxed);
        for count in &self.label_counts {
            count.store(0, Ordering::Relaxed);
        }
        self.generation.fetch_add(1, Ordering::Relaxed);
    }
}

impl Clone for Counters {
    fn clone(&self) -> Self {
        let load = |a: &AtomicU32| AtomicU32::new(a.load(Ordering::Relaxed));
        Counters {
            ordinal: AtomicUsize::new(self.ordinal.load(Ordering::Relaxed)),
            lifetime: AtomicUsize::new(self.lifetime.load(Ordering::Relaxed)),
            label_counts: std::array::from_fn(|i| load(&self.label_counts[i])),
            generation: AtomicU64::new(self.generation.load(Ordering::Relaxed)),
            crashes: AtomicU64::new(self.crashes.load(Ordering::Relaxed)),
            recovery_sampled: AtomicBool::new(self.recovery_sampled.load(Ordering::Relaxed)),
        }
    }
}

/// Where a [`Probe`]'s counters live.
#[derive(Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "a handle of an id used once keeps its counters inline: boxing them is the \
              allocation per invocation the variant exists to avoid"
)]
enum Slot {
    /// In the handle: an instance the injector keeps no entry for.
    Own(Counters),
    /// Shared with the injector's entry for the instance, and so with
    /// every handle of it: a restart resets them for all.
    Shared(Arc<Counters>),
}

/// One instance's crash-probe handle: its id and its crash-point
/// counters. [`FaultInjector::crash_point`] bumps the counters through it
/// and, while nothing is armed, touches nothing else but the global step.
///
/// An execution gets its handle once, from
/// [`FaultInjector::instance_started`], and probes through it; a handle
/// from [`Probe::untracked`] is for an id that is used once. A clone of a
/// tracked handle shares its counters; a clone of an untracked one
/// copies them and counts on alone.
#[derive(Clone)]
pub struct Probe {
    id: Arc<str>,
    slot: Slot,
}

impl Probe {
    /// A handle the injector keeps no entry for: an id used by one
    /// execution only (a platform request id, a collector pass), which no
    /// restart can see again. It counts from zero.
    pub fn untracked(id: Arc<str>) -> Probe {
        Probe {
            id,
            slot: Slot::Own(Counters::new()),
        }
    }

    /// The instance id.
    pub fn id(&self) -> &Arc<str> {
        &self.id
    }

    fn counters(&self) -> &Counters {
        match &self.slot {
            Slot::Own(c) => c,
            Slot::Shared(c) => c,
        }
    }
}

/// A plan plus its progress (for [`CrashPlan::Script`]).
struct PlanState {
    plan: CrashPlan,
    /// Next unfired index into a [`CrashPlan::Script`].
    script_pos: usize,
}

impl PlanState {
    fn new(plan: CrashPlan) -> Self {
        PlanState {
            plan,
            script_pos: 0,
        }
    }

    /// Evaluates the plan at one crash point; returns `(fire, consumed)`.
    ///
    /// `ordinal` is the per-execution counter, `lifetime` the
    /// across-restarts counter (for the global stream both are the
    /// global step).
    fn check(&mut self, ordinal: usize, lifetime: usize, label: Label) -> (bool, bool) {
        match &self.plan {
            CrashPlan::AtOrdinal(n) => (ordinal == *n, true),
            CrashPlan::AtLabel(l) => (*l == label, true),
            // `<=` so an entry whose exact step was passed while another
            // plan (or the storm) fired there still triggers at the next
            // point instead of silently stalling the rest of the script;
            // it also makes a non-ascending entry fire immediately rather
            // than never.
            CrashPlan::Script(steps) => match steps.get(self.script_pos) {
                Some(&next) if next <= lifetime => {
                    self.script_pos += 1;
                    (true, self.script_pos >= steps.len())
                }
                _ => (false, false),
            },
        }
    }
}

/// Everything a crash-point decision reads or writes while something is
/// armed. One lock, so a decision — plans, storm hash, record event — is
/// a single ordered event in the global crash stream.
#[derive(Default)]
struct InjectorState {
    /// Per-instance scripted plans.
    plans: HashMap<String, PlanState>,
    /// The instances an execution started for, by id: their counters,
    /// shared with the handles.
    instances: HashMap<Arc<str>, Arc<Counters>>,
    /// The global plan, if any.
    global_plan: Option<PlanState>,
    /// Injected crashes per label ("crash counts by site"), by name.
    crash_sites: BTreeMap<&'static str, u64>,
    storm: Option<StormPolicy>,
}

impl InjectorState {
    /// Whether a probe can crash: a plan, a global plan or a storm is on.
    fn armed(&self) -> bool {
        !self.plans.is_empty() || self.global_plan.is_some() || self.storm.is_some()
    }
}

/// Decides, at every crash point, whether the current instance dies.
#[derive(Default)]
pub struct FaultInjector {
    state: Mutex<InjectorState>,
    /// Mirrors [`InjectorState::armed`], written under the lock: an
    /// unarmed probe reads it and takes no lock.
    armed: AtomicBool,
    /// Next global step number: every probe takes one, armed or not.
    step: AtomicU64,
    /// Where the `faults.*` counters and gauge live, and the run record.
    telemetry: Arc<Telemetry>,
}

impl FaultInjector {
    /// Creates an injector with no faults configured, counting into a
    /// registry of its own.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// An injector counting into `telemetry` (its platform's).
    pub(crate) fn recording_into(telemetry: Arc<Telemetry>) -> Self {
        FaultInjector {
            telemetry,
            ..FaultInjector::default()
        }
    }

    /// Runs `f` on the locked state, then republishes whether it is armed.
    fn arm<R>(&self, f: impl FnOnce(&mut InjectorState) -> R) -> R {
        let mut s = self.state.lock();
        let r = f(&mut s);
        self.armed.store(s.armed(), Ordering::Relaxed);
        r
    }

    /// Kills the calling instance because its execution lease expired
    /// (the platform's `T_max` contract — the bound Beldi's GC safety
    /// argument leans on in §5).
    ///
    /// Bookkeeping mirrors an injected crash — the instance's crash count
    /// and the per-site tally both advance, so recovery tracking treats
    /// the victim like any other casualty — but the `injected` counter is
    /// untouched: a timeout is the platform enforcing its contract, not
    /// the fault policy firing. The site is [`Label::PlatformTMax`].
    pub fn timeout_kill(&self, probe: &Probe) -> ! {
        let label = Label::PlatformTMax;
        self.telemetry.add(Metric::FaultsLeaseKills, 1);
        probe.counters().crashes.fetch_add(1, Ordering::Relaxed);
        *self
            .state
            .lock()
            .crash_sites
            .entry(label.as_str())
            .or_insert(0) += 1;
        std::panic::panic_any(CrashSignal {
            point: format!("{label}@{}", probe.id),
        });
    }

    /// Number of lease-expiry kills delivered via
    /// [`FaultInjector::timeout_kill`].
    pub fn timeout_count(&self) -> u64 {
        self.telemetry.get(Metric::FaultsLeaseKills)
    }

    /// Scripts a crash plan for a specific instance id.
    ///
    /// Applies to the instance's *next* execution that reaches the point;
    /// plans are one-shot so the intent-collector re-execution proceeds.
    pub fn plan(&self, instance_id: impl Into<String>, plan: CrashPlan) {
        let id = instance_id.into();
        self.arm(|s| s.plans.insert(id, PlanState::new(plan)));
    }

    /// Installs (or clears) the global crash plan, evaluated against the
    /// global crash stream: ordinals count every crash point any instance
    /// passes, in execution order, and are never reset.
    ///
    /// This is the crash-schedule explorer's primitive — "crash whoever
    /// reaches step `n` of this workload", with [`CrashPlan::Script`]
    /// extending it to multi-crash schedules across recoveries.
    pub fn set_global_plan(&self, plan: Option<CrashPlan>) {
        self.arm(|s| s.global_plan = plan.map(PlanState::new));
    }

    /// Installs (or clears) the deterministic crash storm.
    pub fn set_storm_policy(&self, policy: Option<StormPolicy>) {
        self.arm(|s| s.storm = policy);
    }

    /// Number of crashes injected so far.
    pub fn injected_count(&self) -> u64 {
        self.telemetry.get(Metric::FaultsInjected)
    }

    /// Number of instance *restarts* observed: [`FaultInjector::instance_started`]
    /// calls for an instance id already seen before.
    pub fn restart_count(&self) -> u64 {
        self.telemetry.get(Metric::FaultsRestarts)
    }

    /// Injected crashes at one instance across its lifetime (zero for
    /// instances never seen, never killed, or not tracked).
    pub fn instance_crashes(&self, instance_id: &str) -> u64 {
        let s = self.state.lock();
        let crashes = |c: &Arc<Counters>| c.crashes.load(Ordering::Relaxed);
        s.instances.get(instance_id).map_or(0, crashes)
    }

    /// Whether `instance_id` was killed at least once and its recovery is
    /// not sampled yet; marks it sampled. The mark is part of what
    /// [`FaultInjector::forget`] drops, so it costs nothing once the
    /// instance is retired. Until something is killed it takes no lock.
    pub fn first_recovery(&self, instance_id: &str) -> bool {
        if self.injected_count() == 0 && self.timeout_count() == 0 {
            return false;
        }
        let s = self.state.lock();
        s.instances.get(instance_id).is_some_and(|c| {
            c.crashes.load(Ordering::Relaxed) > 0
                && !c.recovery_sampled.swap(true, Ordering::Relaxed)
        })
    }

    /// Injected crashes per crash-point label, sorted by label name.
    pub fn crash_sites(&self) -> BTreeMap<String, u64> {
        let s = self.state.lock();
        s.crash_sites
            .iter()
            .map(|(&label, &n)| (label.to_owned(), n))
            .collect()
    }

    /// Drops everything kept about one instance: its crash-point counters
    /// and any scripted plan it never reached.
    ///
    /// For the owner of the instance's lifetime to call once the id is
    /// retired (the garbage collector, when it deletes the intent) —
    /// without it the injector grows by one entry per instance for the
    /// life of the process. An id seen again afterwards starts over as a
    /// new instance, with counters of its own. A handle held past `forget`
    /// (an execution outliving its lease) keeps counting on the forgotten
    /// counters, which nothing reads any more and no restart resets.
    pub fn forget(&self, instance_id: &str) {
        self.arm(|s| {
            if s.instances.remove(instance_id).is_some() {
                self.telemetry.move_gauge(Gauge::FaultsInstances, -1);
            }
            s.plans.remove(instance_id);
        });
    }

    /// The handle of `instance_id`, whose entry the injector keeps: the
    /// known instance's, or a new one's. Starts no execution, so it counts
    /// no restart: it is for probes on an instance's behalf outside its
    /// executions (an async registration, the front door's).
    pub fn probe(&self, instance_id: &Arc<str>) -> Probe {
        self.entry(instance_id).0
    }

    /// Starts an execution of an instance and returns its handle.
    ///
    /// The platform's handlers call this when an execution (including a
    /// re-execution) begins, so `AtOrdinal` plans count points within a
    /// single execution. A known instance counts a restart and has its
    /// per-execution counters reset in place; the lifetime counter (for
    /// [`CrashPlan::Script`]) is preserved.
    pub fn instance_started(&self, instance_id: &Arc<str>) -> Probe {
        let (probe, known) = self.entry(instance_id);
        if known {
            self.telemetry.add(Metric::FaultsRestarts, 1);
            probe.counters().restart();
        }
        probe
    }

    /// The tracked handle of `instance_id`, and whether it was known.
    fn entry(&self, instance_id: &Arc<str>) -> (Probe, bool) {
        let mut s = self.state.lock();
        let s = &mut *s;
        let (counters, known) = match s.instances.get(instance_id) {
            Some(counters) => (counters.clone(), true),
            None => {
                let counters = Arc::new(Counters::new());
                s.instances.insert(instance_id.clone(), counters.clone());
                self.telemetry.move_gauge(Gauge::FaultsInstances, 1);
                (counters, false)
            }
        };
        let probe = Probe {
            id: instance_id.clone(),
            slot: Slot::Shared(counters),
        };
        (probe, known)
    }

    /// Called by the Beldi library at each labelled crash point, with the
    /// handle of the instance passing it. It bumps the handle's counters
    /// and takes the next global step; only while a plan, a global plan or
    /// a storm is on, or the run record, does it take the injector's lock
    /// and decide. A probe that does not crash allocates nothing (unless
    /// the run record keeps it).
    ///
    /// A label is a [`Label`]:
    ///
    /// ```
    /// use beldi_simfaas::{FaultInjector, Label, Probe};
    /// let faults = FaultInjector::new();
    /// let probe = faults.instance_started(&"i1".into());
    /// faults.crash_point(&probe, Label::WrapperEnter);
    /// ```
    ///
    /// never a string:
    ///
    /// ```compile_fail
    /// use beldi_simfaas::FaultInjector;
    /// let faults = FaultInjector::new();
    /// let probe = faults.instance_started(&"i1".into());
    /// faults.crash_point(&probe, "wrapper.enter");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics with a [`CrashSignal`] payload when the instance is scripted
    /// (per-instance plan, global plan, or storm) to die here. The
    /// platform catches it.
    pub fn crash_point(&self, probe: &Probe, label: Label) {
        let c = probe.counters();
        let ordinal = c.ordinal.fetch_add(1, Ordering::Relaxed);
        let lifetime = c.lifetime.fetch_add(1, Ordering::Relaxed);
        let label_count = c.label_counts[label.index()].fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::Relaxed) && !self.telemetry.recording() {
            self.step.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let instance_id = &*probe.id;
        let mut guard = self.state.lock();
        let s = &mut *guard;

        // Decision order: per-instance plan, global plan, storm. This
        // point's position in the global stream is `step`.
        let step = self.step.fetch_add(1, Ordering::Relaxed);
        let mut should_crash = false;
        if let Some(ps) = s.plans.get_mut(instance_id) {
            let (fire, consumed) = ps.check(ordinal, lifetime, label);
            if fire && consumed {
                s.plans.remove(instance_id);
            }
            should_crash = fire;
        }
        if !should_crash {
            if let Some(ps) = s.global_plan.as_mut() {
                let (fire, consumed) = ps.check(step as usize, step as usize, label);
                if fire && consumed {
                    s.global_plan = None;
                }
                should_crash = fire;
            }
        }
        if !should_crash {
            should_crash = match s.storm.as_ref() {
                Some(storm) if self.injected_count() < storm.max_crashes => {
                    let generation = c.generation.load(Ordering::Relaxed);
                    storm.kills(instance_id, generation, label, label_count)
                }
                _ => false,
            };
        }
        self.telemetry.log(&probe.id, || EventKind::Crash {
            step,
            label: label.as_str(),
            crashed: should_crash,
        });
        self.armed.store(s.armed(), Ordering::Relaxed);
        if should_crash {
            self.telemetry.add(Metric::FaultsInjected, 1);
            *s.crash_sites.entry(label.as_str()).or_insert(0) += 1;
            c.crashes.fetch_add(1, Ordering::Relaxed);
            drop(guard);
            std::panic::panic_any(CrashSignal {
                point: format!("{label}#{label_count}@{ordinal}/g{step}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Real labels standing in for the points of an execution.
    const A: Label = Label::WrapperEnter;
    const B: Label = Label::ReadEnter;
    const C: Label = Label::WriteEnter;
    const D: Label = Label::WriteExit;

    fn catches_crash(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<CrashSignal> {
        match std::panic::catch_unwind(f) {
            Ok(()) => None,
            Err(payload) => Some(
                *payload
                    .downcast::<CrashSignal>()
                    .expect("panic payload must be a CrashSignal"),
            ),
        }
    }

    /// Starts an execution of instance `id`.
    fn start(inj: &FaultInjector, id: &str) -> Probe {
        inj.instance_started(&id.into())
    }

    /// The crash a probe at `label` causes, if any.
    fn probe_crash(inj: &FaultInjector, probe: &Probe, label: Label) -> Option<CrashSignal> {
        catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point(probe, label)
        }))
    }

    #[test]
    fn no_plan_no_crash() {
        let inj = FaultInjector::new();
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, C);
        inj.crash_point(&i1, D);
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn at_ordinal_fires_once() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::AtOrdinal(2));
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A);
        inj.crash_point(&i1, B);
        let sig = probe_crash(&inj, &i1, C).expect("third point must crash");
        assert!(sig.point.starts_with("write.enter#0@2"), "{}", sig.point);
        // Re-execution: plan consumed, no further crash.
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A);
        inj.crash_point(&i1, B);
        inj.crash_point(&i1, C);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn plans_are_per_instance() {
        let inj = FaultInjector::new();
        inj.plan("victim", CrashPlan::AtLabel(D));
        let victim = start(&inj, "victim");
        let bystander = start(&inj, "bystander");
        inj.crash_point(&bystander, D); // Unaffected.
        assert!(probe_crash(&inj, &victim, D).is_some());
    }

    #[test]
    fn restart_resets_ordinals() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::AtOrdinal(1));
        let first = start(&inj, "i1");
        inj.crash_point(&first, A); // ordinal 0.
        let i1 = start(&inj, "i1"); // Restart before reaching ordinal 1.
        inj.crash_point(&i1, A); // ordinal 0 again — survives...
        assert!(probe_crash(&inj, &i1, B).is_some()); // ...ordinal 1 — dies.
    }

    /// A restart resets the counters of every handle of the instance: a
    /// duplicate execution still running counts on from the restart.
    #[test]
    fn a_restart_resets_the_counters_every_handle_shares() {
        let inj = FaultInjector::new();
        let first = start(&inj, "i1");
        inj.crash_point(&first, A);
        inj.crash_point(&first, A);
        let _second = start(&inj, "i1");
        inj.plan("i1", CrashPlan::AtOrdinal(0));
        let sig = probe_crash(&inj, &first, A).expect("ordinal 0 again");
        assert!(sig.point.starts_with("wrapper.enter#0@0"), "{}", sig.point);
    }

    #[test]
    fn lifetime_ordinal_survives_restarts() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::Script(vec![3]));
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A); // lifetime 0
        inj.crash_point(&i1, B); // lifetime 1
        let i1 = start(&inj, "i1"); // restart resets ordinal, not lifetime
        inj.crash_point(&i1, A); // lifetime 2
        let sig = probe_crash(&inj, &i1, B).unwrap(); // lifetime 3 — dies (ordinal is 1).

        // Per-execution counters reset on restart: this is execution 2's
        // first `B` (occurrence 0, ordinal 1) — only the lifetime count
        // made the plan fire.
        assert!(sig.point.starts_with("read.enter#0@1"), "{}", sig.point);
    }

    #[test]
    fn script_fires_across_restarts_in_order() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::Script(vec![1, 4]));
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A); // lifetime 0
        assert!(probe_crash(&inj, &i1, B).is_some()); // lifetime 1 — first crash.

        // Restart: re-runs the same points.
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A); // lifetime 2
        inj.crash_point(&i1, B); // lifetime 3
        assert!(probe_crash(&inj, &i1, C).is_some()); // lifetime 4 — second crash.

        // Script exhausted: a third restart runs clean.
        let i1 = start(&inj, "i1");
        for l in [A, B, C, D] {
            inj.crash_point(&i1, l);
        }
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn script_entry_whose_step_was_missed_fires_at_the_next_point() {
        let inj = FaultInjector::new();
        // Per-instance plan fires at global step 1 — exactly where the
        // global script's first entry points. The script must catch up at
        // step 2 instead of stalling forever.
        inj.plan("i1", CrashPlan::AtOrdinal(1));
        inj.set_global_plan(Some(CrashPlan::Script(vec![1, 3])));
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A); // step 0
        assert!(probe_crash(&inj, &i1, B).is_some()); // step 1 — per-instance plan wins.
        let i1 = start(&inj, "i1");
        assert!(
            probe_crash(&inj, &i1, A).is_some(), // step 2 — script catches up.
            "missed script entry must fire at the next point"
        );
        let i1 = start(&inj, "i1");
        assert!(probe_crash(&inj, &i1, A).is_some()); // step 3 — second entry on time.
        assert_eq!(inj.injected_count(), 3);
    }

    #[test]
    fn global_plan_crashes_across_instances() {
        let inj = FaultInjector::new();
        inj.set_global_plan(Some(CrashPlan::AtOrdinal(2)));
        let i1 = start(&inj, "i1");
        let i2 = start(&inj, "i2");
        inj.crash_point(&i1, A); // global step 0
        inj.crash_point(&i2, A); // global step 1
        let sig = probe_crash(&inj, &i2, B).unwrap(); // global step 2 — dies.
        assert!(sig.point.ends_with("/g2"), "{}", sig.point);
        // One-shot: the stream continues crash-free.
        inj.crash_point(&i1, B);
        assert_eq!(inj.injected_count(), 1);
    }

    /// The points of two executions, `i1` then `i2`, each `[A, B, C, A]`,
    /// with `arm` run on the injector before probe number `armed_after`
    /// (0-based across both). Returns the crash signal, if one fired.
    fn run_arming_after(armed_after: usize, arm: impl Fn(&FaultInjector)) -> Option<String> {
        let inj = FaultInjector::new();
        let mut probes = 0;
        for id in ["i1", "i2"] {
            let probe = start(&inj, id);
            for label in [A, B, C, A] {
                if probes == armed_after {
                    arm(&inj);
                }
                probes += 1;
                if let Some(sig) = probe_crash(&inj, &probe, label) {
                    return Some(sig.point);
                }
            }
        }
        None
    }

    /// A global plan installed after `k` unarmed probes fires where it
    /// would have fired armed from the start: the global step counts
    /// every probe, armed or not.
    #[test]
    fn a_global_plan_installed_mid_run_fires_at_its_global_step() {
        let arm = |inj: &FaultInjector| inj.set_global_plan(Some(CrashPlan::AtOrdinal(7)));
        let from_start = run_arming_after(0, arm);
        assert_eq!(from_start.as_deref(), Some("wrapper.enter#1@3/g7"));
        for k in 1..=7 {
            assert_eq!(
                run_arming_after(k, arm),
                from_start,
                "armed after {k} probes"
            );
        }
    }

    /// A per-instance plan installed mid-execution fires at the ordinal
    /// it names, with the label occurrence it would have seen from the
    /// start: the handle counted the unarmed probes.
    #[test]
    fn an_instance_plan_installed_mid_execution_fires_at_its_ordinal() {
        let arm = |inj: &FaultInjector| inj.plan("i2", CrashPlan::AtOrdinal(3));
        let from_start = run_arming_after(0, arm);
        assert_eq!(from_start.as_deref(), Some("wrapper.enter#1@3/g7"));
        for k in 1..=7 {
            assert_eq!(
                run_arming_after(k, arm),
                from_start,
                "armed after {k} probes"
            );
        }
        // A script counts lifetimes the same way.
        let script = |inj: &FaultInjector| inj.plan("i1", CrashPlan::Script(vec![2]));
        let from_start = run_arming_after(0, script);
        assert_eq!(from_start.as_deref(), Some("write.enter#0@2/g2"));
        assert_eq!(run_arming_after(2, script), from_start);
    }

    #[test]
    fn global_script_schedules_multiple_crashes() {
        let inj = FaultInjector::new();
        inj.set_global_plan(Some(CrashPlan::Script(vec![0, 2])));
        let i1 = start(&inj, "i1");
        assert!(probe_crash(&inj, &i1, A).is_some()); // step 0 — dies.
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A); // step 1
        assert!(probe_crash(&inj, &i1, B).is_some()); // step 2 — dies.
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, A); // step 3 — script exhausted.
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn trace_records_the_global_stream() {
        let inj = FaultInjector::new();
        let i1 = start(&inj, "i1");
        inj.crash_point(&i1, D); // Step 0, before the record starts.
        inj.telemetry
            .start_record(beldi_simclock::SimClock::shared(0));
        let i2 = start(&inj, "i2");
        inj.crash_point(&i1, A);
        inj.crash_point(&i2, B);
        inj.plan("i1", CrashPlan::AtLabel(C));
        let _ = probe_crash(&inj, &i1, C);
        let record = inj.telemetry.take_record();
        let stream: Vec<_> = crate::crash_stream(&record).collect();
        assert_eq!(stream.len(), 3);
        assert_eq!(stream[0].step, 1);
        assert_eq!(stream[0].instance, "i1");
        assert_eq!(stream[0].label, A);
        assert!(!stream[0].crashed);
        assert_eq!(stream[2].label, C);
        assert!(stream[2].crashed);
        // Nothing is recorded once the record is taken.
        inj.crash_point(&i2, D);
        assert!(inj.telemetry.take_record().is_empty());
    }

    #[test]
    fn storm_decisions_are_pure_and_scoped() {
        let storm = StormPolicy {
            ssf_prob: 0.5,
            collector_prob: 0.0,
            max_crashes: 1_000,
            seed: 7,
        };
        // Pure function of the decision key: same inputs, same answer.
        for count in 0..8 {
            assert_eq!(
                storm.kills("i1", 0, Label::WrapperEnter, count),
                storm.kills("i1", 0, Label::WrapperEnter, count),
            );
        }
        // The generation feeds the hash, so a restart is not doomed to
        // die at the same point forever: across many generations the
        // decision must flip at least once.
        let flips = (0..64)
            .filter(|&g| {
                storm.kills("i1", g, Label::WrapperEnter, 0)
                    != storm.kills("i1", g + 1, Label::WrapperEnter, 0)
            })
            .count();
        assert!(flips > 0, "generation must vary the decision");
        // At probability 1 every label is killed.
        let eager = StormPolicy {
            ssf_prob: 1.0,
            collector_prob: 1.0,
            max_crashes: 1_000,
            seed: 7,
        };
        for label in Label::ALL {
            assert!(eager.kills("i1", 0, label, 0), "{label}");
        }
        // Collector labels draw from collector_prob, SSF labels from
        // ssf_prob.
        let collectors_only = StormPolicy {
            ssf_prob: 0.0,
            collector_prob: 1.0,
            max_crashes: 1_000,
            seed: 7,
        };
        assert!(collectors_only.kills("f.ic#p0", 0, Label::IcEnter, 0));
        assert!(collectors_only.kills("f.gc#p0", 0, Label::GcEnter, 0));
        assert!(!collectors_only.kills("i1", 0, Label::WrapperEnter, 0));
    }

    /// The storm hashes `(seed, instance, generation, label name,
    /// occurrence)`: these decisions are what that hash gave when labels
    /// were strings. A change to what the hash reads moves them.
    #[test]
    fn storm_decisions_are_pinned() {
        let pins = [
            (7, "i1", 0, Label::WrapperEnter, 0, false),
            (7, "i1", 0, Label::WrapperEnter, 3, false),
            (42, "root-17", 2, Label::WriteExit, 1, true),
            (42, "media-9", 0, Label::InvokePreCall, 5, false),
            (3, "f.ic#p4", 0, Label::IcEnter, 0, true),
            (3, "f.gc#p11", 1, Label::GcPostDaal, 0, false),
            (99, "front-3", 0, Label::FrontPreReply, 0, true),
            (1, "i2", 7, Label::TxnPreFinalize, 2, true),
            (11, "x-5", 3, Label::ReadPreLog, 9, false),
            (5, "t", 0, Label::DaalAppendPostLink, 1, true),
            (13, "i1", 0, Label::AsyncRegPostIntent, 0, true),
            (21, "front-8", 4, Label::FrontEnter, 0, false),
            (42, "storm-w0-op3", 0, Label::ReadPostLog, 0, true),
        ];
        for (seed, instance, generation, label, count, kills) in pins {
            let storm = StormPolicy {
                ssf_prob: 0.5,
                collector_prob: 0.3,
                max_crashes: 1_000,
                seed,
            };
            assert_eq!(
                storm.kills(instance, generation, label, count),
                kills,
                "({seed}, {instance}, {generation}, {label}, {count})"
            );
        }
    }

    #[test]
    fn storm_respects_cap_and_counts_sites() {
        let inj = FaultInjector::new();
        inj.set_storm_policy(Some(StormPolicy {
            ssf_prob: 1.0,
            collector_prob: 1.0,
            max_crashes: 2,
            seed: 3,
        }));
        let mut crashes = 0;
        for i in 0..10 {
            let probe = start(&inj, &format!("i{i}"));
            if probe_crash(&inj, &probe, Label::WrapperEnter).is_some() {
                crashes += 1;
            }
        }
        assert_eq!(crashes, 2);
        assert_eq!(inj.injected_count(), 2);
        assert_eq!(inj.crash_sites().get("wrapper.enter"), Some(&2));
        // Both victims record a lifetime crash count of one.
        assert_eq!(inj.instance_crashes("i0"), 1);
        assert_eq!(inj.instance_crashes("i9"), 0);
    }

    #[test]
    fn restart_count_tracks_repeat_starts() {
        let inj = FaultInjector::new();
        start(&inj, "a");
        start(&inj, "b");
        assert_eq!(inj.restart_count(), 0);
        start(&inj, "a");
        start(&inj, "a");
        assert_eq!(inj.restart_count(), 2);
        // A probe on an instance's behalf is no execution of it; a
        // forgotten id starts over.
        inj.probe(&"a".into());
        inj.forget("b");
        start(&inj, "b");
        assert_eq!(inj.restart_count(), 2);
    }

    /// A handle held past `forget` counts on the forgotten counters; the
    /// id started again is a new instance, with counters of its own, that
    /// the old handle neither sees nor resets.
    #[test]
    fn a_handle_held_past_forget_counts_alone() {
        let inj = FaultInjector::new();
        let old = start(&inj, "i1");
        inj.crash_point(&old, A);
        inj.crash_point(&old, A);
        inj.forget("i1");
        let new = start(&inj, "i1");
        assert_eq!(inj.restart_count(), 0, "a forgotten id starts over");
        inj.plan("i1", CrashPlan::AtLabel(B));
        let sig = probe_crash(&inj, &old, B).expect("the plan is by id");
        assert!(sig.point.starts_with("read.enter#0@2"), "{}", sig.point);
        assert_eq!(inj.instance_crashes("i1"), 0, "counted on the old handle");
        assert!(!inj.first_recovery("i1"));
        inj.plan("i1", CrashPlan::AtLabel(B));
        let sig = probe_crash(&inj, &new, B).expect("the new instance's");
        assert!(sig.point.starts_with("read.enter#0@0"), "{}", sig.point);
        assert_eq!(inj.instance_crashes("i1"), 1);
        // A restart resets the new instance's counters, not the old
        // handle's.
        let _again = start(&inj, "i1");
        assert_eq!(inj.restart_count(), 1);
        inj.plan("i1", CrashPlan::AtOrdinal(0));
        inj.crash_point(&old, A); // Ordinal 4: no crash.
        assert!(probe_crash(&inj, &new, A).is_some());
    }

    /// An untracked handle and the probe of a known instance leave the
    /// injector's entries alone; `forget` gives an entry back.
    #[test]
    fn only_a_started_or_probed_instance_has_an_entry() {
        let inj = FaultInjector::new();
        let entries = || inj.telemetry.gauge(Gauge::FaultsInstances).0;
        let once = Probe::untracked("req-1".into());
        inj.crash_point(&once, A);
        assert_eq!(entries(), 0);
        let i1 = start(&inj, "i1");
        inj.probe(&"i1".into());
        assert_eq!(entries(), 1);
        drop(i1);
        inj.forget("i1");
        assert_eq!(entries(), 0);
    }

    /// The recovery of a killed instance is sampled once.
    #[test]
    fn a_recovery_is_sampled_once() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::AtOrdinal(0));
        let i1 = start(&inj, "i1");
        assert!(!inj.first_recovery("i1"));
        assert!(probe_crash(&inj, &i1, A).is_some());
        start(&inj, "i1");
        assert!(inj.first_recovery("i1"));
        assert!(!inj.first_recovery("i1"));
    }

    #[test]
    fn silence_crash_backtraces_is_idempotent() {
        // Repeated calls must not chain new hooks (the second call is a
        // no-op) — and injected crashes must still unwind normally.
        silence_crash_backtraces();
        silence_crash_backtraces();
        silence_crash_backtraces();
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::AtOrdinal(0));
        let i1 = start(&inj, "i1");
        assert!(probe_crash(&inj, &i1, A).is_some());
    }
}
