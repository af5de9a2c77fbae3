//! The cooperative executor: seeded ready queue, waker plumbing, and
//! virtual-time timers.
//!
//! # Scheduling model
//!
//! One thread (the caller of [`Executor::run`] / [`Executor::block_on`])
//! polls every task. The ready queue is a plain vector; when more than
//! one task is runnable the executor draws the next index from a seeded
//! RNG, so a given seed fixes the interleaving exactly — re-running the
//! same task set with the same seed replays the same schedule, which is
//! what lets the §8 explorer and the chaos storm replay crash schedules
//! over async workloads.
//!
//! # Timer contract
//!
//! [`Sleep`] registers a `(deadline, waker)` entry in a binary heap keyed
//! on virtual time. The executor only consults the heap when the ready
//! queue is empty, and then fires exactly one *equal-deadline batch* (all
//! entries sharing the earliest deadline) per drain. Firing is therefore
//! a pure function of the heap contents — how far the clock overshot the
//! deadline while the executor was busy never changes which tasks wake
//! together, on a clock whose time other threads move too.
//!
//! # Idle
//!
//! With nothing runnable the executor thread parks on its clock
//! ([`beldi_simclock::Clock::park_until`]) until the earliest timer
//! deadline, or with no deadline when the heap is empty. That is its only wait: a
//! [`beldi_simclock::SimClock`] sees it and moves virtual time straight
//! to the deadline; a clock with the host-default park re-reads its time
//! on the park's own cadence.
//!
//! # Cross-thread wakes
//!
//! Wakers are `Send`; platform worker threads complete invocations by
//! waking the awaiting task, which enqueues it and unparks the executor
//! thread through the clock. The executor never blocks while holding
//! the scheduler lock.

use std::collections::{BinaryHeap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::Duration;

use beldi_simclock::{SharedClock, SimClock, SimInstant};
use parking_lot::Mutex;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::join::{complete, JoinHandle, JoinState};

type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

struct TaskSlot {
    /// Taken (None) while the task is being polled.
    future: Option<TaskFuture>,
    /// True while the id sits in the ready queue (dedup for repeated
    /// wakes).
    queued: bool,
}

/// A registered virtual-time timer. Ordered by `(deadline, seq)` so the
/// heap pops deterministically; `seq` is the registration order.
struct TimerEntry {
    at: u64,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Sched {
    tasks: HashMap<u64, TaskSlot>,
    ready: Vec<u64>,
    timers: BinaryHeap<TimerEntry>,
    timer_seq: u64,
    next_id: u64,
    /// Tasks spawned and not yet completed (includes blocked tasks not
    /// in the ready queue).
    live: usize,
    rng: SmallRng,
    /// Poll order (task ids), while it is recorded.
    schedule: Option<Vec<u64>>,
    polls: u64,
    /// The executor thread, while it is parked idle: whoever makes work
    /// for it takes this and unparks it.
    idle: Option<Thread>,
}

pub(crate) struct Inner {
    clock: SharedClock,
    sched: Mutex<Sched>,
}

impl Inner {
    /// Unparks the executor if it went idle before `s` gained the work
    /// the caller just added. Consumes the guard: the clock is called
    /// with the scheduler lock released.
    fn rouse(&self, mut s: parking_lot::MutexGuard<'_, Sched>) {
        let idle = s.idle.take();
        drop(s);
        if let Some(thread) = idle {
            self.clock.unpark(&thread);
        }
    }

    fn wake_task(&self, id: u64) {
        let mut s = self.sched.lock();
        if let Some(slot) = s.tasks.get_mut(&id) {
            if !slot.queued {
                slot.queued = true;
                s.ready.push(id);
                self.rouse(s);
            }
        }
    }

    fn add_timer(&self, at: SimInstant, waker: Waker) {
        let mut s = self.sched.lock();
        let seq = s.timer_seq;
        s.timer_seq += 1;
        s.timers.push(TimerEntry {
            at: at.as_nanos(),
            seq,
            waker,
        });
        // The executor may be parked past this deadline (or without
        // one); unpark it so it picks the new deadline up.
        self.rouse(s);
    }
}

/// Per-task waker: enqueues the task and unparks the executor.
struct TaskWaker {
    inner: Arc<Inner>,
    id: u64,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.inner.wake_task(self.id);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.inner.wake_task(self.id);
    }
}

/// The deterministic cooperative executor (see module docs).
pub struct Executor {
    inner: Arc<Inner>,
}

/// A cloneable, `Send + Sync` handle to a running (or not-yet-running)
/// executor: spawn tasks, build timer futures, read the virtual clock.
#[derive(Clone)]
pub struct Handle {
    inner: Arc<Inner>,
}

impl Executor {
    /// Creates an executor over `clock`, with `seed` fixing every
    /// ready-queue scheduling decision.
    pub fn new(clock: SharedClock, seed: u64) -> Executor {
        Executor {
            inner: Arc::new(Inner {
                clock,
                sched: Mutex::new(Sched {
                    tasks: HashMap::new(),
                    ready: Vec::new(),
                    timers: BinaryHeap::new(),
                    timer_seq: 0,
                    next_id: 0,
                    live: 0,
                    rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
                    schedule: None,
                    polls: 0,
                    idle: None,
                }),
            }),
        }
    }

    /// Creates an executor on its own [`SimClock`], whose first
    /// participant is the calling thread — which must therefore also be
    /// the one that runs it. An idle executor then jumps virtual time to
    /// its next timer deadline, so the schedule *and* every virtual
    /// timestamp are a pure function of (task set, seed).
    pub fn simulated(seed: u64) -> Executor {
        Executor::new(SimClock::shared(seed), seed)
    }

    /// Returns a cloneable handle usable from any thread.
    pub fn handle(&self) -> Handle {
        Handle {
            inner: self.inner.clone(),
        }
    }

    /// Starts recording the poll order (task ids, in the order the
    /// executor polled them). For this crate's determinism tests; what a
    /// run did is the registry's run record (`Telemetry::start_record`).
    #[cfg(test)]
    pub(crate) fn record_schedule(&self) {
        self.inner.sched.lock().schedule = Some(Vec::new());
    }

    /// Takes the recorded poll order (empty if recording was off).
    #[cfg(test)]
    pub(crate) fn take_schedule(&self) -> Vec<u64> {
        self.inner.sched.lock().schedule.take().unwrap_or_default()
    }

    /// Spawns a task; see [`Handle::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.handle().spawn(fut)
    }

    /// Number of spawned-but-not-completed tasks right now.
    pub fn live_tasks(&self) -> usize {
        self.inner.sched.lock().live
    }

    /// Total task polls performed so far.
    pub fn polls(&self) -> u64 {
        self.inner.sched.lock().polls
    }

    /// Runs until every spawned task has completed.
    pub fn run(&self) {
        self.run_until(|s| s.live == 0);
    }

    /// Spawns `fut` and runs until it completes, driving every other
    /// spawned task meanwhile. Remaining tasks stay parked and resume on
    /// the next `run`/`block_on` call.
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let handle = self.spawn(fut);
        let state = handle.state.clone();
        self.run_until(move |_| state.lock().done);
        handle
            .take_result()
            .expect("block_on task completed without a result")
    }

    /// The core scheduling loop. `finished` is evaluated under the
    /// scheduler lock at every decision point.
    fn run_until(&self, finished: impl Fn(&Sched) -> bool) {
        let _enter = crate::context::enter(self.handle());
        loop {
            // Decide the next action under the lock, then act outside it
            // (polls and wakes must not hold the scheduler lock).
            enum Next {
                Poll(u64, TaskFuture),
                FireTimers(Vec<Waker>),
                Park(Option<SimInstant>),
            }
            let next = {
                let mut s = self.inner.sched.lock();
                s.idle = None;
                if finished(&s) {
                    return;
                }
                if !s.ready.is_empty() {
                    // Seeded pick among the runnable tasks: THE
                    // determinism lever. `swap_remove` keeps the pick
                    // O(1); the queue's residual order is itself a
                    // deterministic function of the wake sequence.
                    let runnable = s.ready.len();
                    let i = if runnable > 1 {
                        s.rng.gen_range(0..runnable)
                    } else {
                        0
                    };
                    let id = s.ready.swap_remove(i);
                    match s.tasks.get_mut(&id) {
                        Some(slot) => {
                            slot.queued = false;
                            match slot.future.take() {
                                Some(fut) => {
                                    s.polls += 1;
                                    if let Some(schedule) = s.schedule.as_mut() {
                                        schedule.push(id);
                                    }
                                    Next::Poll(id, fut)
                                }
                                // Woken while being polled elsewhere in
                                // this loop — cannot happen on the
                                // single executor thread, but a stale
                                // requeue is harmless to skip.
                                None => continue,
                            }
                        }
                        // Stale id of a completed task.
                        None => continue,
                    }
                } else {
                    match s.timers.peek().map(|head| head.at) {
                        Some(due_at) if self.inner.clock.now().as_nanos() >= due_at => {
                            // Fire exactly the equal-deadline batch (module
                            // docs: determinism under clock overshoot).
                            let mut wakers = Vec::new();
                            while s.timers.peek().is_some_and(|t| t.at == due_at) {
                                wakers.push(s.timers.pop().expect("peeked").waker);
                            }
                            Next::FireTimers(wakers)
                        }
                        // Nothing runnable: park until the next deadline,
                        // or — with none — until another thread's wake.
                        next_deadline => {
                            s.idle = Some(std::thread::current());
                            Next::Park(next_deadline.map(SimInstant::from_nanos))
                        }
                    }
                }
            };

            match next {
                Next::Poll(id, mut fut) => {
                    let waker = Waker::from(Arc::new(TaskWaker {
                        inner: self.inner.clone(),
                        id,
                    }));
                    let mut cx = Context::from_waker(&waker);
                    match fut.as_mut().poll(&mut cx) {
                        Poll::Ready(()) => {
                            let mut s = self.inner.sched.lock();
                            s.tasks.remove(&id);
                            s.live -= 1;
                        }
                        Poll::Pending => {
                            let mut s = self.inner.sched.lock();
                            if let Some(slot) = s.tasks.get_mut(&id) {
                                slot.future = Some(fut);
                            }
                        }
                    }
                }
                Next::FireTimers(wakers) => {
                    for w in wakers {
                        w.wake();
                    }
                }
                // `idle` was set under the lock that found no work, so
                // a wake that came since has already unparked this
                // thread and the park returns at once.
                Next::Park(deadline) => self.inner.clock.park_until(deadline),
            }
        }
    }
}

impl Handle {
    /// Spawns a future as a new task; it becomes runnable immediately.
    /// Callable from any thread, including from inside other tasks.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let state = JoinState::new();
        let st = state.clone();
        let wrapped: TaskFuture = Box::pin(async move {
            let out = fut.await;
            complete(&st, out);
        });
        let mut s = self.inner.sched.lock();
        let id = s.next_id;
        s.next_id += 1;
        s.tasks.insert(
            id,
            TaskSlot {
                future: Some(wrapped),
                queued: true,
            },
        );
        s.ready.push(id);
        s.live += 1;
        self.inner.rouse(s);
        JoinHandle { state, id }
    }

    /// A future that suspends the task for `d` of virtual time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.inner.clock.now().plus(d))
    }

    /// A future that suspends the task until virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimInstant) -> Sleep {
        Sleep {
            inner: self.inner.clone(),
            deadline,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.inner.clock.now()
    }

    /// The executor's clock.
    pub fn clock(&self) -> SharedClock {
        self.inner.clock.clone()
    }

    /// Number of spawned-but-not-completed tasks right now — the
    /// in-flight gauge the driver samples for its high-water series.
    pub fn live_tasks(&self) -> usize {
        self.inner.sched.lock().live
    }
}

/// Future returned by [`Handle::sleep`]: pending until the executor's
/// virtual clock reaches the deadline.
pub struct Sleep {
    inner: Arc<Inner>,
    deadline: SimInstant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.inner.clock.now() >= self.deadline {
            Poll::Ready(())
        } else {
            // Re-registering on every poll is safe: a stale entry just
            // wakes the task spuriously and it re-checks the clock.
            self.inner.add_timer(self.deadline, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future that yields the task back to the scheduler exactly once,
/// letting the seeded ready-queue pick run something else.
pub struct YieldNow {
    yielded: bool,
}

impl YieldNow {
    pub(crate) fn new() -> YieldNow {
        YieldNow { yielded: false }
    }
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}
