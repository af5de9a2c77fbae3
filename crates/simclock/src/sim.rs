//! [`SimClock`]: deterministic virtual time for N threads.
//!
//! The clock knows every thread that may wait on it — its
//! *participants* — and lets exactly one of them run at a time (the
//! *baton*). A participant gives the baton up only at a clock-visible
//! wait: [`Clock::sleep`], [`Clock::park_until`], joining a thread it
//! started with [`Clock::spawn`], [`Clock::yield_now`], or exiting. The
//! clock then hands the baton to one runnable participant, drawn with a
//! seeded generator; when none is runnable it moves virtual time to the
//! earliest pending deadline and wakes every participant waiting for
//! that instant.
//! Virtual time therefore moves only by what is slept, and which thread
//! runs next depends on the seed alone: host speed and host scheduling
//! cannot enter.
//!
//! The thread that builds the clock is its first participant; every
//! other one must be started through [`Clock::spawn`]. Code that runs
//! while holding the baton must not block on anything another
//! participant would have to run to release (a channel, a condition
//! variable, a raw `std::thread` join): no one else can run. Short
//! mutex sections are fine — nobody is switched out inside one.
//!
//! The one exception is the *hold*: a participant may block on a host
//! event that no participant has to run to provide — bytes from a thread
//! outside the schedule — while it keeps the baton. Nobody else runs and
//! virtual time stands still until the event arrives. The HTTP front
//! door's admission participant holds while a connection it answered
//! owes its next request or its close (DESIGN.md §14); a schedule around
//! a hold is a function of the seed as long as what the host sends is.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{Thread, ThreadId};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::clock::{spawn_named, Clock, JoinHandle, SimInstant};

/// What a participant that does not hold the baton is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Holds the baton.
    Running,
    /// Ready to run; waiting for the baton.
    Runnable,
    /// Until virtual time reaches the deadline (nanoseconds).
    Sleep(u64),
    /// Until unparked, or the deadline if there is one.
    Park(Option<u64>),
    /// Until the participant with this id exits.
    Join(usize),
}

struct Participant {
    name: String,
    wait: Wait,
    /// An unpark that arrived while the participant was not parked.
    token: bool,
    /// Signalled when `wait` becomes `Running`, or the clock is poisoned.
    granted: Arc<Condvar>,
    /// Participants in `Wait::Join` of this one.
    joiners: Vec<usize>,
}

struct State {
    /// Registration order is id order.
    participants: BTreeMap<usize, Participant>,
    by_thread: HashMap<ThreadId, usize>,
    next_id: usize,
    running: Option<usize>,
    runnable: Vec<usize>,
    /// `(deadline, participant)` of every `Sleep` and deadlined `Park`.
    timers: BTreeSet<(u64, usize)>,
    rng: u64,
    /// Set once the schedule cannot continue; every blocked participant
    /// panics with it.
    poisoned: Option<String>,
    /// The schedule, while it is recorded.
    schedule: Option<Vec<String>>,
}

struct Inner {
    now: AtomicU64,
    state: Mutex<State>,
}

/// The deterministic participant clock (see the module docs).
pub struct SimClock {
    inner: Arc<Inner>,
}

impl State {
    /// SplitMix64: the schedule's only source of choice.
    fn draw(&mut self, n: usize) -> usize {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn register(&mut self, name: String, wait: Wait) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.participants.insert(
            id,
            Participant {
                name,
                wait,
                token: false,
                granted: Arc::new(Condvar::new()),
                joiners: Vec::new(),
            },
        );
        id
    }

    fn log(&mut self, now: u64, what: &str, id: usize) {
        if let Some(schedule) = self.schedule.as_mut() {
            let name = &self.participants[&id].name;
            schedule.push(format!("{} {what} {name}", SimInstant::from_nanos(now)));
        }
    }

    /// Participant `id`, or the report of a schedule that lost it (every
    /// id the clock holds — a timer's, a joiner's, a thread's — names a
    /// registered participant until its exit removes them all).
    fn participant(&mut self, id: usize) -> Result<&mut Participant, String> {
        self.participants
            .get_mut(&id)
            .ok_or_else(|| format!("SimClock lost participant {id}"))
    }

    fn make_runnable(&mut self, now: u64, id: usize) -> Result<(), String> {
        let was = std::mem::replace(&mut self.participant(id)?.wait, Wait::Runnable);
        if let Wait::Sleep(at) | Wait::Park(Some(at)) = was {
            self.timers.remove(&(at, id));
        }
        self.runnable.push(id);
        self.log(now, "wake", id);
        Ok(())
    }

    fn describe_waits(&self) -> String {
        let mut table = String::new();
        for p in self.participants.values() {
            let on = match p.wait {
                Wait::Running => "running".to_owned(),
                Wait::Runnable => "runnable".to_owned(),
                Wait::Sleep(at) => format!("sleep until {}", SimInstant::from_nanos(at)),
                Wait::Park(None) => "park (no deadline)".to_owned(),
                Wait::Park(Some(at)) => format!("park until {}", SimInstant::from_nanos(at)),
                Wait::Join(id) => match self.participants.get(&id) {
                    Some(target) => format!("join of {}", target.name),
                    None => "join of an exited thread".to_owned(),
                },
            };
            write!(table, "\n  {} -> {on}", p.name).ok();
        }
        table
    }
}

impl Inner {
    /// Hands the baton to the next participant. Call with no one
    /// running. `Err` is the deadlock report: everyone is parked and no
    /// deadline is pending.
    fn dispatch(&self, s: &mut State) -> Result<(), String> {
        debug_assert!(s.running.is_none());
        loop {
            if !s.runnable.is_empty() {
                let pick = match s.runnable.len() {
                    1 => 0,
                    n => s.draw(n),
                };
                let id = s.runnable.swap_remove(pick);
                s.running = Some(id);
                s.log(self.now.load(Ordering::Relaxed), "run", id);
                let p = s.participant(id)?;
                p.wait = Wait::Running;
                p.granted.notify_one();
                return Ok(());
            }
            let Some(&(at, _)) = s.timers.first() else {
                if s.participants.is_empty() {
                    return Ok(());
                }
                return Err(format!(
                    "SimClock deadlock at {}: every participant is parked and no timer is \
                     pending{}",
                    SimInstant::from_nanos(self.now.load(Ordering::Relaxed)),
                    s.describe_waits()
                ));
            };
            // Time moves here and nowhere else. Everyone waiting for
            // this instant wakes as one batch, in registration order.
            let now = self.now.fetch_max(at, Ordering::SeqCst).max(at);
            while let Some(&(due, id)) = s.timers.first() {
                if due != at {
                    break;
                }
                s.make_runnable(now, id)?;
            }
        }
    }

    /// Stops the schedule: every participant blocked now or later
    /// panics with `report`.
    fn poison(&self, s: &mut State, report: String) {
        for p in s.participants.values() {
            p.granted.notify_one();
        }
        s.poisoned = Some(report);
    }

    /// Stops the schedule and panics with `report`, for a participant
    /// that cannot go on (the others panic with it when they block).
    fn fail(&self, s: &mut State, report: String) -> ! {
        self.poison(s, report.clone());
        panic!("{report}");
    }

    fn current(&self, s: &State) -> usize {
        let thread = std::thread::current();
        match s.by_thread.get(&thread.id()) {
            Some(&id) => id,
            None => panic!(
                "thread `{}` is not a participant of this SimClock and cannot wait on it: \
                 spawn it through the clock (Clock::spawn)",
                thread.name().unwrap_or("unnamed")
            ),
        }
    }

    /// Gives the baton up to wait for `wait`; returns holding it again.
    fn block(&self, mut s: parking_lot::MutexGuard<'_, State>, id: usize, wait: Wait) {
        if let Some(report) = &s.poisoned {
            panic!("{report}");
        }
        debug_assert_eq!(s.running, Some(id), "only the baton holder can block");
        let queued = match wait {
            Wait::Sleep(at) | Wait::Park(Some(at)) => {
                s.timers.insert((at, id));
                Ok(())
            }
            Wait::Join(target) => s.participant(target).map(|t| t.joiners.push(id)),
            _ => Ok(()),
        };
        let waiting = queued.and_then(|()| s.participant(id).map(|p| p.wait = wait));
        s.running = None;
        // A report poisons the clock, and `await_baton` panics with it.
        if let Err(report) = waiting.and_then(|()| self.dispatch(&mut s)) {
            self.poison(&mut s, report);
        }
        self.await_baton(s, id);
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the schedule itself: a participant without the baton parks its OS thread here, and the clock hands the baton on before it does"
    )]
    fn await_baton(&self, mut s: parking_lot::MutexGuard<'_, State>, id: usize) {
        let granted = Arc::clone(&s.participants[&id].granted);
        loop {
            if let Some(report) = &s.poisoned {
                panic!("{report}");
            }
            if s.participants[&id].wait == Wait::Running {
                return;
            }
            granted.wait(&mut s);
        }
    }

    /// A spawned thread's first step: waits for its first turn.
    fn await_first_turn(&self, id: usize) {
        let mut s = self.state.lock();
        s.by_thread.insert(std::thread::current().id(), id);
        self.await_baton(s, id);
    }

    /// A spawned thread's last step, on return or unwind: leaves the
    /// schedule, wakes its joiners and passes the baton on.
    fn exit(&self, id: usize) {
        let mut s = self.state.lock();
        let gone = s.participants.remove(&id);
        s.by_thread.remove(&std::thread::current().id());
        // A poisoned clock schedules nothing: everyone is unwinding.
        let (Some(gone), None) = (gone, &s.poisoned) else {
            return;
        };
        let now = self.now.load(Ordering::Relaxed);
        let woken = gone
            .joiners
            .into_iter()
            .try_for_each(|joiner| s.make_runnable(now, joiner));
        s.running = None;
        // A drop guard must not panic: the threads left behind report
        // the deadlock, or the lost participant.
        if let Err(report) = woken.and_then(|()| self.dispatch(&mut s)) {
            self.poison(&mut s, report);
        }
    }

    /// The clock-visible half of [`JoinHandle::join`]. A thread outside
    /// the schedule has nothing to give up and falls through to the
    /// host's join.
    fn await_exit(&self, target: usize) {
        let s = self.state.lock();
        let Some(&id) = s.by_thread.get(&std::thread::current().id()) else {
            return;
        };
        if s.participants.contains_key(&target) {
            self.block(s, id, Wait::Join(target));
        }
    }
}

/// Leaves the schedule when the spawned thread's body returns or unwinds.
struct Exit {
    inner: Arc<Inner>,
    id: usize,
}

impl Drop for Exit {
    fn drop(&mut self) {
        self.inner.exit(self.id);
    }
}

impl SimClock {
    /// Creates a clock at the epoch whose schedule is fixed by `seed`.
    /// The calling thread becomes its first participant and holds the
    /// baton.
    pub fn new(seed: u64) -> Self {
        let inner = Inner {
            now: AtomicU64::new(0),
            state: Mutex::new(State {
                participants: BTreeMap::new(),
                by_thread: HashMap::new(),
                next_id: 0,
                running: None,
                runnable: Vec::new(),
                timers: BTreeSet::new(),
                rng: seed,
                poisoned: None,
                schedule: None,
            }),
        };
        {
            let mut s = inner.state.lock();
            let thread = std::thread::current();
            let name = thread.name().unwrap_or("main").to_owned();
            let id = s.register(name, Wait::Running);
            s.by_thread.insert(thread.id(), id);
            s.running = Some(id);
        }
        SimClock {
            inner: Arc::new(inner),
        }
    }

    /// Wraps a new clock in an [`Arc`] for sharing.
    pub fn shared(seed: u64) -> Arc<SimClock> {
        Arc::new(SimClock::new(seed))
    }

    /// Starts recording the schedule: one line per wake-up and per baton
    /// hand-over, `"<time> wake|run <participant>"`. For this crate's
    /// determinism tests; what a run did is the registry's run record
    /// ([`crate::Telemetry::start_record`]).
    #[cfg(test)]
    fn record_schedule(&self) {
        self.inner.state.lock().schedule = Some(Vec::new());
    }

    /// Takes the recorded schedule (empty if recording was off).
    #[cfg(test)]
    fn take_schedule(&self) -> Vec<String> {
        self.inner.state.lock().schedule.take().unwrap_or_default()
    }
}

impl Clock for SimClock {
    fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.inner.now.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let s = self.inner.state.lock();
        let id = self.inner.current(&s);
        let deadline = self.now().plus(d).as_nanos();
        self.inner.block(s, id, Wait::Sleep(deadline));
    }

    fn park_until(&self, deadline: Option<SimInstant>) {
        let mut s = self.inner.state.lock();
        let id = self.inner.current(&s);
        let token = match s.participant(id) {
            Ok(p) => std::mem::take(&mut p.token),
            Err(report) => self.inner.fail(&mut s, report),
        };
        if token {
            return;
        }
        if deadline.is_some_and(|d| d <= self.now()) {
            return;
        }
        self.inner
            .block(s, id, Wait::Park(deadline.map(SimInstant::as_nanos)));
    }

    fn unpark(&self, thread: &Thread) {
        let mut s = self.inner.state.lock();
        let Some(&id) = s.by_thread.get(&thread.id()) else {
            return;
        };
        let woken = match s.participant(id) {
            Ok(p) if matches!(p.wait, Wait::Park(_)) => {
                let now = self.inner.now.load(Ordering::Relaxed);
                s.make_runnable(now, id)
            }
            Ok(p) => {
                p.token = true;
                Ok(())
            }
            Err(report) => Err(report),
        };
        if let Err(report) = woken {
            self.inner.fail(&mut s, report);
        }
    }

    /// The caller joins the runnable set and the seeded draw picks who
    /// runs next, itself included: the draw a hand-off to a parked thread
    /// makes, with the caller in the woken thread's place.
    fn yield_now(&self) {
        let mut s = self.inner.state.lock();
        let id = self.inner.current(&s);
        let now = self.inner.now.load(Ordering::Relaxed);
        if let Err(report) = s.make_runnable(now, id) {
            self.inner.fail(&mut s, report);
        }
        self.inner.block(s, id, Wait::Runnable);
    }

    fn spawn(&self, name: String, body: Box<dyn FnOnce() + Send>) -> JoinHandle {
        let id = {
            let mut s = self.inner.state.lock();
            let id = s.register(name.clone(), Wait::Runnable);
            s.runnable.push(id);
            if s.running.is_none() && s.poisoned.is_none() {
                // A participant was just added, so this finds one to run
                // unless the schedule lost track of its own.
                if let Err(report) = self.inner.dispatch(&mut s) {
                    self.inner.fail(&mut s, report);
                }
            }
            id
        };
        let inner = Arc::clone(&self.inner);
        let thread = spawn_named(name, move || {
            let _exit = Exit {
                inner: Arc::clone(&inner),
                id,
            };
            inner.await_first_turn(id);
            body();
        });
        let inner = Arc::clone(&self.inner);
        JoinHandle::new(thread, Some(Box::new(move || inner.await_exit(id))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SharedClock;
    use crate::sync::{park_on, Semaphore};

    fn spawn(
        clock: &Arc<SimClock>,
        name: &str,
        body: impl FnOnce() + Send + 'static,
    ) -> JoinHandle {
        clock.spawn(name.to_owned(), Box::new(body))
    }

    /// Five sleepers with staggered periods; returns the schedule trace.
    fn schedule_trace(seed: u64) -> Vec<String> {
        let clock = SimClock::shared(seed);
        clock.record_schedule();
        let threads: Vec<_> = (0..5u64)
            .map(|i| {
                let c = Arc::clone(&clock);
                spawn(&clock, &format!("p{i}"), move || {
                    for _ in 0..4 {
                        c.sleep(Duration::from_millis(1 + i % 2));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        clock.take_schedule()
    }

    #[test]
    fn time_moves_only_by_what_is_slept() {
        let clock = SimClock::shared(1);
        assert_eq!(clock.now(), SimInstant::EPOCH);
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now().as_millis(), 3_600_000);
        // Two overlapping sleepers cost the longer sleep, not the sum.
        let (a, b) = (Arc::clone(&clock), Arc::clone(&clock));
        let ta = spawn(&clock, "a", move || a.sleep(Duration::from_millis(30)));
        let tb = spawn(&clock, "b", move || b.sleep(Duration::from_millis(50)));
        ta.join().unwrap();
        tb.join().unwrap();
        assert_eq!(clock.now().as_millis(), 3_600_050);
    }

    #[test]
    fn same_seed_replays_the_schedule_and_another_seed_changes_it() {
        let reference = schedule_trace(42);
        assert!(reference.len() > 20, "{reference:?}");
        assert_eq!(reference, schedule_trace(42));
        assert_eq!(reference, schedule_trace(42));
        assert!(
            (0..8).any(|seed| schedule_trace(seed) != reference),
            "eight other seeds all drew the same schedule"
        );
    }

    #[test]
    fn equal_deadline_sleepers_wake_as_one_batch_in_registration_order() {
        let clock = SimClock::shared(9);
        let woke_at = Arc::new(Mutex::new(Vec::new()));
        let threads: Vec<_> = [("late", 20u64), ("a", 10), ("b", 10), ("c", 10)]
            .into_iter()
            .map(|(name, ms)| {
                let (c, woke_at) = (Arc::clone(&clock), Arc::clone(&woke_at));
                spawn(&clock, name, move || {
                    c.sleep_until(SimInstant::from_millis(ms));
                    woke_at.lock().push((name, c.now().as_millis()));
                })
            })
            .collect();
        clock.record_schedule();
        for t in threads {
            t.join().unwrap();
        }
        // The joining test thread (named `…::tests::…`) wakes too.
        let wakes: Vec<String> = clock
            .take_schedule()
            .into_iter()
            .filter(|line| line.contains(" wake ") && !line.contains("::"))
            .collect();
        assert_eq!(
            wakes,
            [
                "t+0.010s wake a",
                "t+0.010s wake b",
                "t+0.010s wake c",
                "t+0.020s wake late"
            ]
        );
        // The whole batch ran before time moved on.
        let mut woke_at = woke_at.lock().clone();
        assert_eq!(woke_at.pop(), Some(("late", 20)));
        assert!(woke_at.iter().all(|(_, at)| *at == 10), "{woke_at:?}");
    }

    #[test]
    fn unpark_wakes_a_parked_thread_and_is_not_lost_when_early() {
        let clock = SimClock::shared(3);
        let parked = Arc::new(Mutex::new(None));
        let (c, slot) = (Arc::clone(&clock), Arc::clone(&parked));
        let sleeper = spawn(&clock, "parker", move || {
            *slot.lock() = Some(std::thread::current());
            c.park_until(None);
        });
        // Let it park, then wake it: no time passes for an unpark.
        clock.sleep(Duration::from_millis(1));
        clock.unpark(parked.lock().as_ref().expect("the parker ran first"));
        sleeper.join().unwrap();
        assert_eq!(clock.now().as_millis(), 1);
        // Early unpark: the token makes the next park return at once.
        clock.unpark(&std::thread::current());
        clock.park_until(None);
        // A deadline ends a park nobody interrupts.
        clock.park_until(Some(SimInstant::from_millis(5)));
        assert_eq!(clock.now().as_millis(), 5);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the outsider under test is exactly a thread the clock did not start"
    )]
    fn a_thread_outside_the_schedule_cannot_wait_on_the_clock() {
        let clock = SimClock::shared(1);
        let c = Arc::clone(&clock);
        let outsider = std::thread::Builder::new()
            .name("raw-worker".into())
            .spawn(move || c.sleep(Duration::from_millis(1)))
            .unwrap();
        let panic = outsider.join().unwrap_err();
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("raw-worker"), "{message}");
        assert!(message.contains("spawn it through the clock"), "{message}");
    }

    #[test]
    fn a_deadlock_panics_with_the_wait_table_instead_of_hanging() {
        let clock = SimClock::shared(1);
        let c = Arc::clone(&clock);
        let stuck = spawn(&clock, "stuck", move || c.park_until(None));
        let waiting = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stuck.join()));
        let panic = waiting.expect_err("joining a thread nobody will unpark");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("SimClock deadlock"), "{message}");
        assert!(message.contains("stuck -> park (no deadline)"), "{message}");
        assert!(message.contains("-> join of stuck"), "{message}");
    }

    #[test]
    fn a_participant_that_unwinds_hands_the_baton_on() {
        let clock = SimClock::shared(5);
        let c = Arc::clone(&clock);
        let doomed = spawn(&clock, "doomed", move || {
            c.sleep(Duration::from_millis(1));
            std::panic::resume_unwind(Box::new("killed"));
        });
        let c = Arc::clone(&clock);
        let survivor = spawn(&clock, "survivor", move || {
            c.sleep(Duration::from_millis(2))
        });
        assert!(doomed.join().is_err());
        survivor.join().unwrap();
        assert_eq!(clock.now().as_millis(), 2);
    }

    /// A caller making six calls beside two bystanders, each call either
    /// handed to a worker thread — started by the first call, parked and
    /// woken after — or run on the caller's own thread between two
    /// yields. Returns who held the baton when, the worker's turns read
    /// as the caller's.
    fn call_schedule(seed: u64, hand_off: bool) -> Vec<String> {
        const CALLS: usize = 6;
        let tick = Duration::from_millis(1);
        let clock = SimClock::shared(seed);
        clock.record_schedule();
        let bystanders: Vec<_> = (0..2)
            .map(|i| {
                let c = Arc::clone(&clock);
                spawn(&clock, &format!("b{i}"), move || {
                    for _ in 0..CALLS {
                        c.sleep(tick);
                    }
                })
            })
            .collect();
        // The call, the reply, and the worker's retirement.
        let flags = Arc::new(Mutex::new((false, false, false)));
        let worker_thread = Arc::new(Mutex::new(None::<Thread>));
        let worker_join = Arc::new(Mutex::new(None));
        let (c, f, wt, wj) = (
            Arc::clone(&clock),
            Arc::clone(&flags),
            Arc::clone(&worker_thread),
            Arc::clone(&worker_join),
        );
        let caller = spawn(&clock, "caller", move || {
            let work = move |c: &SimClock| c.sleep(tick / 2);
            for _ in 0..CALLS {
                c.sleep(tick);
                if !hand_off {
                    c.yield_now();
                    work(&c);
                    c.yield_now();
                    continue;
                }
                f.lock().0 = true;
                let parked = wt.lock().clone();
                if let Some(worker) = parked {
                    c.unpark(&worker);
                } else {
                    let (wc, wf, caller) = (Arc::clone(&c), Arc::clone(&f), std::thread::current());
                    let wt = Arc::clone(&wt);
                    *wj.lock() = Some(spawn(&c, "worker", move || {
                        *wt.lock() = Some(std::thread::current());
                        loop {
                            if std::mem::take(&mut wf.lock().0) {
                                work(&wc);
                                wf.lock().1 = true;
                                wc.unpark(&caller);
                            } else if wf.lock().2 {
                                return;
                            }
                            wc.park_until(None);
                        }
                    }));
                }
                while !std::mem::take(&mut f.lock().1) {
                    c.park_until(None);
                }
            }
        });
        caller.join().unwrap();
        for t in bystanders {
            t.join().unwrap();
        }
        let schedule = clock
            .take_schedule()
            .into_iter()
            .filter(|line| line.contains(" run "))
            .map(|line| line.replace(" run worker", " run caller"))
            .collect();
        if hand_off {
            flags.lock().2 = true;
            clock.unpark(worker_thread.lock().as_ref().expect("the worker started"));
            let worker = worker_join.lock().take().expect("the worker started");
            worker.join().unwrap();
        }
        schedule
    }

    #[test]
    fn a_yield_draws_as_the_hand_off_to_a_parked_thread_it_replaces() {
        let reference = call_schedule(0, false);
        assert!(reference.len() > 20, "{reference:?}");
        for seed in 0..8 {
            assert_eq!(
                call_schedule(seed, true),
                call_schedule(seed, false),
                "seed {seed}"
            );
        }
        assert!(
            (1..8).any(|seed| call_schedule(seed, false) != reference),
            "eight seeds all drew the same schedule: no draw had a choice"
        );
    }

    #[test]
    fn semaphore_wakes_clock_parked_threads_in_arrival_order() {
        let clock = SimClock::shared(11);
        let shared: SharedClock = clock.clone();
        let sem = Semaphore::new(1);
        let held = sem.try_acquire().expect("one free");
        let arrived = Arc::new(Mutex::new(Vec::new()));
        let served = Arc::new(Mutex::new(Vec::new()));
        let far = SimInstant::from_millis(1_000_000);
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let (shared, sem) = (shared.clone(), sem.clone());
                let (arrived, served) = (Arc::clone(&arrived), Arc::clone(&served));
                spawn(&clock, &format!("w{i}"), move || {
                    // The seeded pick, not `i`, decides who queues first.
                    arrived.lock().push(i);
                    let permit = park_on(&shared, far, sem.acquire()).expect("no timeout");
                    served.lock().push(i);
                    shared.sleep(Duration::from_millis(1));
                    drop(permit);
                })
            })
            .collect();
        // Every waiter is queued once this sleep returns.
        clock.sleep(Duration::from_millis(1));
        assert_eq!(arrived.lock().len(), 6);
        drop(held);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*served.lock(), *arrived.lock());
        assert_eq!(sem.available(), 1);
    }
}
