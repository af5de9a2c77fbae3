//! The executor-side name of the workspace's waker-based [`Semaphore`].
//!
//! The implementation lives in [`beldi_simclock::sync`] (the crate this
//! one and `beldi-simfaas` both depend on); it is re-exported here so
//! task code keeps writing `beldi_runtime::Semaphore`. Its tests stay
//! here because they drive it with the [`Executor`](crate::Executor).

pub use beldi_simclock::sync::{Acquire, Permit, Semaphore};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{Context, Poll};

    #[test]
    fn permits_bound_concurrency() {
        let rt = Executor::simulated(3);
        let sem = Semaphore::new(4);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let (sem, active, peak, done) = (
                sem.clone(),
                Arc::clone(&active),
                Arc::clone(&peak),
                Arc::clone(&done),
            );
            rt.spawn(async move {
                let _permit = sem.acquire().await;
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                crate::sleep(std::time::Duration::from_millis(2)).await;
                active.fetch_sub(1, Ordering::SeqCst);
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        rt.run();
        assert_eq!(done.load(Ordering::SeqCst), 64);
        assert!(peak.load(Ordering::SeqCst) <= 4, "cap breached");
        assert_eq!(sem.available(), 4, "all permits returned");
    }

    #[test]
    fn try_acquire_does_not_jump_a_full_pool() {
        let sem = Semaphore::new(1);
        let p = sem.try_acquire().expect("one free");
        assert!(sem.try_acquire().is_none());
        drop(p);
        assert!(sem.try_acquire().is_some());
    }

    #[test]
    fn dropped_acquire_does_not_strand_waiters() {
        let rt = Executor::simulated(9);
        let sem = Semaphore::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        // Holder takes the permit, a doomed waiter parks and is dropped,
        // then a live waiter must still get through when the holder
        // releases.
        let holder = sem.try_acquire().expect("free");
        {
            let sem = sem.clone();
            rt.spawn(async move {
                let mut acq = Box::pin(sem.acquire());
                futures_poll_once(&mut acq).await; // parks
                drop(acq); // withdraws
            });
        }
        {
            let (sem, done) = (sem.clone(), Arc::clone(&done));
            rt.spawn(async move {
                let _p = sem.acquire().await;
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Let both tasks park, then release from outside.
        let h = rt.handle();
        rt.block_on(async move { h.sleep(std::time::Duration::from_millis(1)).await });
        drop(holder);
        rt.run();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    /// The release's one wake goes to the oldest waiter; if that waiter
    /// is dropped before it re-polls, the wake must move on to the next
    /// or the permit sits free beside a parked task forever.
    #[test]
    fn woken_then_dropped_acquire_passes_the_wake_on() {
        let rt = Executor::simulated(5);
        let sem = Semaphore::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        let holder = sem.try_acquire().expect("free");
        // First in line: parks, then outlives its task un-polled.
        let doomed = Arc::new(parking_lot::Mutex::new(None));
        {
            let (sem, doomed) = (sem.clone(), Arc::clone(&doomed));
            rt.block_on(async move {
                let mut acq = Box::pin(sem.acquire());
                futures_poll_once(&mut acq).await;
                *doomed.lock() = Some(acq);
            });
        }
        {
            let (sem, done) = (sem.clone(), Arc::clone(&done));
            rt.spawn(async move {
                let _p = sem.acquire().await;
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let h = rt.handle();
        rt.block_on(async move { h.sleep(std::time::Duration::from_millis(1)).await });
        drop(holder); // spends its wake on `doomed`
        drop(doomed.lock().take()); // never re-polled
        rt.run();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    /// Polls `fut` exactly once inside an async context, ignoring the
    /// result (test helper for exercising cancellation).
    async fn futures_poll_once<F: Future + Unpin>(fut: &mut F) {
        struct Once<'a, F>(&'a mut F);
        impl<F: Future + Unpin> Future for Once<'_, F> {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                drop(Pin::new(&mut *self.0).poll(cx));
                Poll::Ready(())
            }
        }
        Once(fut).await
    }
}
