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
//! primitive the crash-schedule explorer sweeps. [Trace
//! mode](FaultInjector::start_trace) records the stream (one
//! [`TraceEntry`] per point) so a crash-free run enumerates exactly the
//! schedules worth exploring.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use beldi_simclock::{Gauge, Metric, Telemetry};
use parking_lot::Mutex;

use crate::Label;

/// Panic payload distinguishing an injected crash from a genuine bug.
#[derive(Debug, Clone)]
pub struct CrashSignal {
    /// The crash-point label where the instance died.
    pub point: String,
}

/// Guards [`silence_crash_backtraces`] against double installation.
static BACKTRACES_SILENCED: AtomicBool = AtomicBool::new(false);

/// Installs a panic hook that silences injected [`CrashSignal`] panics
/// (they are simulated crashes, not bugs) while delegating everything
/// else to the previous hook.
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
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for chunk in [
            instance.as_bytes(),
            b"\x00",
            &generation.to_le_bytes(),
            label.as_str().as_bytes(),
            b"\x00",
            &u64::from(label_count).to_le_bytes(),
        ] {
            for &b in chunk {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        ((h >> 11) as f64 / (1u64 << 53) as f64) < prob
    }
}

/// One recorded crash-point visit (trace mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Position in the global crash stream (0-based, across all
    /// instances).
    pub step: u64,
    /// The instance that passed the point.
    pub instance: String,
    /// The crash-point label.
    pub label: Label,
    /// Whether an injected crash fired here.
    pub crashed: bool,
}

struct InstanceState {
    /// Crash points passed during the *current* execution (reset on
    /// re-execution via [`FaultInjector::instance_started`]).
    ordinal: usize,
    /// Crash points passed across the instance's whole lifetime (never
    /// reset).
    lifetime: usize,
    /// Occurrences per label, indexed by [`Label::index`] (reset on
    /// re-execution).
    label_counts: [u32; Label::COUNT],
    /// Which execution of this instance is running (0-based; bumped by
    /// [`FaultInjector::instance_started`], never reset). Feeds the
    /// [`StormPolicy`] hash so restarts draw fresh decisions.
    generation: u64,
    /// Injected crashes at this instance across its lifetime.
    crashes: u64,
    /// Whether the instance's recovery latency was sampled
    /// ([`FaultInjector::first_recovery`]).
    recovery_sampled: bool,
}

impl InstanceState {
    /// An instance before its first execution.
    const FRESH: InstanceState = InstanceState {
        ordinal: 0,
        lifetime: 0,
        label_counts: [0; Label::COUNT],
        generation: 0,
        crashes: 0,
        recovery_sampled: false,
    };
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

/// Everything a crash-point decision reads or writes. One lock, so a
/// decision — counters, plans, storm hash, trace entry — is
/// a single ordered event in the global crash stream.
#[derive(Default)]
struct InjectorState {
    /// Per-instance scripted plans.
    plans: HashMap<String, PlanState>,
    /// Per-instance crash-point counters.
    instances: HashMap<String, InstanceState>,
    /// Next global step number.
    step: u64,
    /// The global plan, if any.
    global_plan: Option<PlanState>,
    /// Recorded entries while trace mode is on.
    trace: Option<Vec<TraceEntry>>,
    /// Injected crashes per label ("crash counts by site"), by name.
    crash_sites: BTreeMap<&'static str, u64>,
    storm: Option<StormPolicy>,
}

/// Decides, at every crash point, whether the current instance dies.
#[derive(Default)]
pub struct FaultInjector {
    state: Mutex<InjectorState>,
    /// Where the `faults.*` counters and gauge live.
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
            state: Mutex::default(),
            telemetry,
        }
    }

    /// Registers an instance the injector has not seen, in the
    /// `faults.instances` gauge too.
    fn track(&self, states: &mut HashMap<String, InstanceState>, instance_id: &str) {
        states.insert(instance_id.to_owned(), InstanceState::FRESH);
        self.telemetry.move_gauge(Gauge::FaultsInstances, 1);
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
    pub fn timeout_kill(&self, instance_id: &str) -> ! {
        let label = Label::PlatformTMax;
        self.telemetry.add(Metric::FaultsLeaseKills, 1);
        {
            let mut s = self.state.lock();
            if let Some(st) = s.instances.get_mut(instance_id) {
                st.crashes += 1;
            }
            *s.crash_sites.entry(label.as_str()).or_insert(0) += 1;
        }
        std::panic::panic_any(CrashSignal {
            point: format!("{label}@{instance_id}"),
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
        self.state
            .lock()
            .plans
            .insert(instance_id.into(), PlanState::new(plan));
    }

    /// Installs (or clears) the global crash plan, evaluated against the
    /// global crash stream: ordinals count every crash point any instance
    /// passes, in execution order, and are never reset.
    ///
    /// This is the crash-schedule explorer's primitive — "crash whoever
    /// reaches step `n` of this workload", with [`CrashPlan::Script`]
    /// extending it to multi-crash schedules across recoveries.
    pub fn set_global_plan(&self, plan: Option<CrashPlan>) {
        self.state.lock().global_plan = plan.map(PlanState::new);
    }

    /// Installs (or clears) the deterministic crash storm.
    pub fn set_storm_policy(&self, policy: Option<StormPolicy>) {
        self.state.lock().storm = policy;
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
    /// instances never seen or never killed).
    pub fn instance_crashes(&self, instance_id: &str) -> u64 {
        let s = self.state.lock();
        s.instances.get(instance_id).map_or(0, |st| st.crashes)
    }

    /// Whether `instance_id` was killed at least once and its recovery is
    /// not sampled yet; marks it sampled. The mark is part of what
    /// [`FaultInjector::forget`] drops, so it costs nothing once the
    /// instance is retired.
    pub fn first_recovery(&self, instance_id: &str) -> bool {
        let mut s = self.state.lock();
        match s.instances.get_mut(instance_id) {
            Some(st) if st.crashes > 0 && !st.recovery_sampled => {
                st.recovery_sampled = true;
                true
            }
            _ => false,
        }
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
    /// new instance.
    pub fn forget(&self, instance_id: &str) {
        let mut s = self.state.lock();
        if s.instances.remove(instance_id).is_some() {
            self.telemetry.move_gauge(Gauge::FaultsInstances, -1);
        }
        s.plans.remove(instance_id);
    }

    /// Starts (or restarts) trace mode: subsequent crash points are
    /// recorded until [`FaultInjector::take_trace`].
    pub fn start_trace(&self) {
        self.state.lock().trace = Some(Vec::new());
    }

    /// Stops trace mode and returns the recorded entries (empty if trace
    /// mode was never started).
    pub fn take_trace(&self) -> Vec<TraceEntry> {
        self.state.lock().trace.take().unwrap_or_default()
    }

    /// Resets per-execution crash-point counters for an instance.
    ///
    /// The platform calls this when an execution (including a re-execution)
    /// begins, so `AtOrdinal` plans count points within a single
    /// execution. The lifetime counter (for [`CrashPlan::Script`]) is
    /// preserved across restarts. A known instance is reset in place, so
    /// a restart allocates nothing.
    pub fn instance_started(&self, instance_id: &str) {
        let mut guard = self.state.lock();
        let states = &mut guard.instances;
        match states.get_mut(instance_id) {
            Some(st) => {
                self.telemetry.add(Metric::FaultsRestarts, 1);
                st.ordinal = 0;
                st.label_counts = [0; Label::COUNT];
                st.generation += 1;
            }
            None => self.track(states, instance_id),
        }
    }

    /// Called by the Beldi library at each labelled crash point. After an
    /// instance's first probe, a probe that does not crash allocates
    /// nothing (unless trace mode records it).
    ///
    /// A label is a [`Label`]:
    ///
    /// ```
    /// use beldi_simfaas::{FaultInjector, Label};
    /// let faults = FaultInjector::new();
    /// faults.crash_point("i1", Label::WrapperEnter);
    /// ```
    ///
    /// never a string:
    ///
    /// ```compile_fail
    /// use beldi_simfaas::FaultInjector;
    /// let faults = FaultInjector::new();
    /// faults.crash_point("i1", "wrapper.enter");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics with a [`CrashSignal`] payload when the instance is scripted
    /// (per-instance plan, global plan, or storm) to die here. The
    /// platform catches it.
    pub fn crash_point(&self, instance_id: &str, label: Label) {
        let mut guard = self.state.lock();
        let s = &mut *guard;

        // Lookup before insert: the id is allocated as a map key only the
        // first time this instance passes a probe.
        if !s.instances.contains_key(instance_id) {
            self.track(&mut s.instances, instance_id);
        }
        let st = s.instances.get_mut(instance_id).expect("just ensured");
        let (ordinal, lifetime, generation) = (st.ordinal, st.lifetime, st.generation);
        st.ordinal += 1;
        st.lifetime += 1;
        let count = &mut st.label_counts[label.index()];
        let label_count = *count;
        *count += 1;

        // Decision order: per-instance plan, global plan, storm. This
        // point's position in the global stream is `step`.
        let step = s.step;
        s.step += 1;
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
                    storm.kills(instance_id, generation, label, label_count)
                }
                _ => false,
            };
        }
        if let Some(trace) = s.trace.as_mut() {
            trace.push(TraceEntry {
                step,
                instance: instance_id.to_owned(),
                label,
                crashed: should_crash,
            });
        }
        if should_crash {
            self.telemetry.add(Metric::FaultsInjected, 1);
            *s.crash_sites.entry(label.as_str()).or_insert(0) += 1;
            s.instances
                .get_mut(instance_id)
                .expect("just ensured")
                .crashes += 1;
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

    #[test]
    fn no_plan_no_crash() {
        let inj = FaultInjector::new();
        inj.instance_started("i1");
        inj.crash_point("i1", C);
        inj.crash_point("i1", D);
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn at_ordinal_fires_once() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::AtOrdinal(2));
        inj.instance_started("i1");
        inj.crash_point("i1", A);
        inj.crash_point("i1", B);
        let sig = catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", C);
        }))
        .expect("third point must crash");
        assert!(sig.point.starts_with("write.enter#0@2"), "{}", sig.point);
        // Re-execution: plan consumed, no further crash.
        inj.instance_started("i1");
        inj.crash_point("i1", A);
        inj.crash_point("i1", B);
        inj.crash_point("i1", C);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn plans_are_per_instance() {
        let inj = FaultInjector::new();
        inj.plan("victim", CrashPlan::AtLabel(D));
        inj.instance_started("victim");
        inj.instance_started("bystander");
        inj.crash_point("bystander", D); // Unaffected.
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("victim", D);
        }))
        .is_some());
    }

    #[test]
    fn restart_resets_ordinals() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::AtOrdinal(1));
        inj.instance_started("i1");
        inj.crash_point("i1", A); // ordinal 0.
        inj.instance_started("i1"); // Restart before reaching ordinal 1.
        inj.crash_point("i1", A); // ordinal 0 again — survives...
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", B); // ...ordinal 1 — dies.
        }))
        .is_some());
    }

    #[test]
    fn lifetime_ordinal_survives_restarts() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::Script(vec![3]));
        inj.instance_started("i1");
        inj.crash_point("i1", A); // lifetime 0
        inj.crash_point("i1", B); // lifetime 1
        inj.instance_started("i1"); // restart resets ordinal, not lifetime
        inj.crash_point("i1", A); // lifetime 2
        let sig = catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", B); // lifetime 3 — dies (ordinal is 1).
        }))
        .unwrap();
        // Per-execution counters reset on restart: this is execution 2's
        // first `B` (occurrence 0, ordinal 1) — only the lifetime count
        // made the plan fire.
        assert!(sig.point.starts_with("read.enter#0@1"), "{}", sig.point);
    }

    #[test]
    fn script_fires_across_restarts_in_order() {
        let inj = FaultInjector::new();
        inj.plan("i1", CrashPlan::Script(vec![1, 4]));
        inj.instance_started("i1");
        inj.crash_point("i1", A); // lifetime 0
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", B); // lifetime 1 — first crash.
        }))
        .is_some());
        // Restart: re-runs the same points.
        inj.instance_started("i1");
        inj.crash_point("i1", A); // lifetime 2
        inj.crash_point("i1", B); // lifetime 3
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", C); // lifetime 4 — second crash.
        }))
        .is_some());
        // Script exhausted: a third restart runs clean.
        inj.instance_started("i1");
        for l in [A, B, C, D] {
            inj.crash_point("i1", l);
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
        inj.instance_started("i1");
        inj.crash_point("i1", A); // step 0
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", B); // step 1 — per-instance plan wins.
        }))
        .is_some());
        inj.instance_started("i1");
        assert!(
            catches_crash(std::panic::AssertUnwindSafe(|| {
                inj.crash_point("i1", A); // step 2 — script catches up.
            }))
            .is_some(),
            "missed script entry must fire at the next point"
        );
        inj.instance_started("i1");
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", A); // step 3 — second entry on time.
        }))
        .is_some());
        assert_eq!(inj.injected_count(), 3);
    }

    #[test]
    fn global_plan_crashes_across_instances() {
        let inj = FaultInjector::new();
        inj.set_global_plan(Some(CrashPlan::AtOrdinal(2)));
        inj.instance_started("i1");
        inj.instance_started("i2");
        inj.crash_point("i1", A); // global step 0
        inj.crash_point("i2", A); // global step 1
        let sig = catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i2", B); // global step 2 — dies.
        }))
        .unwrap();
        assert!(sig.point.ends_with("/g2"), "{}", sig.point);
        // One-shot: the stream continues crash-free.
        inj.crash_point("i1", B);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn global_script_schedules_multiple_crashes() {
        let inj = FaultInjector::new();
        inj.set_global_plan(Some(CrashPlan::Script(vec![0, 2])));
        inj.instance_started("i1");
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", A); // step 0 — dies.
        }))
        .is_some());
        inj.instance_started("i1");
        inj.crash_point("i1", A); // step 1
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", B); // step 2 — dies.
        }))
        .is_some());
        inj.instance_started("i1");
        inj.crash_point("i1", A); // step 3 — script exhausted.
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn trace_records_the_global_stream() {
        let inj = FaultInjector::new();
        inj.start_trace();
        inj.instance_started("i1");
        inj.instance_started("i2");
        inj.crash_point("i1", A);
        inj.crash_point("i2", B);
        inj.plan("i1", CrashPlan::AtLabel(C));
        let _ = catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", C);
        }));
        let trace = inj.take_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].step, 0);
        assert_eq!(trace[0].instance, "i1");
        assert_eq!(trace[0].label, A);
        assert!(!trace[0].crashed);
        assert_eq!(trace[2].label, C);
        assert!(trace[2].crashed);
        // Trace mode is off after take_trace.
        inj.crash_point("i2", D);
        assert!(inj.take_trace().is_empty());
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
            let id = format!("i{i}");
            inj.instance_started(&id);
            if catches_crash(std::panic::AssertUnwindSafe(|| {
                inj.crash_point(&id, Label::WrapperEnter);
            }))
            .is_some()
            {
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
        inj.instance_started("a");
        inj.instance_started("b");
        assert_eq!(inj.restart_count(), 0);
        inj.instance_started("a");
        inj.instance_started("a");
        assert_eq!(inj.restart_count(), 2);
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
        inj.instance_started("i1");
        assert!(catches_crash(std::panic::AssertUnwindSafe(|| {
            inj.crash_point("i1", A);
        }))
        .is_some());
    }
}
