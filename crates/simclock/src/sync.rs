//! Waker-based synchronisation: the workspace's one counting
//! [`Semaphore`].
//!
//! It lives here, beside [`Ticker`](crate::Ticker), because `simclock`
//! is the one crate both of its users already depend on: `simfaas`
//! holds the platform-wide concurrency cap in it, and `beldi-runtime`
//! re-exports it (`beldi_runtime::sync`) for *admission control* in the
//! async workload driver, where a bounded platform worker pool
//! livelocks when every freed permit is handed to a parked root
//! workflow (each admitted root spawns nested SSF calls that need
//! permits of their own, so roots must never be allowed to saturate the
//! pool).
//!
//! There is one waiting discipline: a waiter parks a [`Waker`],
//! releasing a [`Permit`] wakes the oldest live waiter, and the woken
//! waiter re-contends for the permit (a fresh acquirer may have taken
//! it first, in which case the waiter parks again at the back). The
//! permit count and the wait queue sit under one lock, so a poll checks
//! and parks atomically. An executor task awaits [`Acquire`] directly; a
//! thread that wants to block drives the same future with [`park_on`],
//! whose waker unparks it through the clock. Withdrawn waiters (dropped
//! futures) leave cleared slots that a release skips, and a waiter
//! dropped after it was woken passes the wake on, so cancellation can
//! never strand a permit.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use parking_lot::Mutex;

use crate::clock::{SharedClock, SimInstant};

/// A parked waiter: `None` after withdrawal (dropped or re-parked).
type WaiterSlot = Arc<Mutex<Option<Waker>>>;

struct SemState {
    permits: usize,
    waiters: VecDeque<WaiterSlot>,
}

struct SemInner {
    state: Mutex<SemState>,
}

impl SemInner {
    /// Returns `returned` permits to the pool and wakes the oldest live
    /// waiter to contend for what is free.
    fn wake_next(&self, returned: usize) {
        let to_wake = {
            let mut s = self.state.lock();
            s.permits += returned;
            // Pop withdrawn slots; hand the wake to the oldest live
            // waiter. The waker is invoked outside the lock.
            loop {
                match s.waiters.pop_front() {
                    Some(slot) => {
                        if let Some(waker) = slot.lock().take() {
                            break Some(waker);
                        }
                    }
                    None => break None,
                }
            }
        };
        if let Some(waker) = to_wake {
            waker.wake();
        }
    }
}

/// A counting semaphore with FIFO wakeups (see module docs).
///
/// Cloning shares the permit pool. Permits are RAII: dropping a
/// [`Permit`] releases it.
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<SemInner>,
}

impl Semaphore {
    /// A pool of `permits` permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Arc::new(SemInner {
                state: Mutex::new(SemState {
                    permits,
                    waiters: VecDeque::new(),
                }),
            }),
        }
    }

    /// Takes a permit without waiting, if one is free.
    #[must_use = "a permit bound to `_` is released on the same line"]
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut s = self.inner.state.lock();
        if s.permits > 0 {
            s.permits -= 1;
            Some(Permit {
                inner: Arc::clone(&self.inner),
            })
        } else {
            None
        }
    }

    /// Waits for a permit. The returned future is cancel-safe: dropping
    /// it withdraws the parked waiter.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            inner: Arc::clone(&self.inner),
            slot: None,
        }
    }

    /// Currently free permits (diagnostic; racy by nature).
    pub fn available(&self) -> usize {
        self.inner.state.lock().permits
    }
}

/// An acquired permit; released on drop.
#[must_use = "a permit bound to `_` is released on the same line"]
pub struct Permit {
    inner: Arc<SemInner>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.inner.wake_next(1);
    }
}

/// The future of [`Semaphore::acquire`].
pub struct Acquire {
    inner: Arc<SemInner>,
    slot: Option<WaiterSlot>,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        // Withdraw the previous park first: this poll may have been
        // triggered by the very release that consumed that slot, and a
        // stale live slot would eat a future wakeup.
        if let Some(slot) = self.slot.take() {
            slot.lock().take();
        }
        let mut s = self.inner.state.lock();
        if s.permits > 0 {
            s.permits -= 1;
            return Poll::Ready(Permit {
                inner: Arc::clone(&self.inner),
            });
        }
        let slot: WaiterSlot = Arc::new(Mutex::new(Some(cx.waker().clone())));
        s.waiters.push_back(Arc::clone(&slot));
        drop(s);
        self.slot = Some(slot);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // A slot already cleared means a release spent its wake on
            // us; dropped before re-polling, pass that wake on so the
            // free permit does not sit beside parked waiters.
            if slot.lock().take().is_none() {
                self.inner.wake_next(0);
            }
        }
    }
}

/// [`park_on`]'s waker: unparks the waiting thread through the clock.
struct Unparker {
    clock: SharedClock,
    thread: Thread,
    /// Set by a wake, cleared by the poll it causes (`Release`/`Acquire`
    /// pair), so a park that ends on its deadline re-checks the clock
    /// without re-polling — a poll would re-queue a semaphore waiter at
    /// the back.
    woken: AtomicBool,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.clock.unpark(&self.thread);
    }
}

/// Drives `fut` on the calling thread, parked on `clock` between polls,
/// until it resolves or virtual time reaches `deadline` — then `None`,
/// and dropping the future withdraws whatever waker it had parked.
pub fn park_on<F: Future>(clock: &SharedClock, deadline: SimInstant, fut: F) -> Option<F::Output> {
    let mut fut = pin!(fut);
    let unparker = Arc::new(Unparker {
        clock: Arc::clone(clock),
        thread: std::thread::current(),
        woken: AtomicBool::new(true),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    loop {
        if unparker.woken.swap(false, Ordering::Acquire) {
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return Some(out);
            }
        }
        if clock.now() >= deadline {
            return None;
        }
        clock.park_until(Some(deadline));
    }
}
