//! Offline shim for `parking_lot`, backed by `std::sync`.
//!
//! Implements the slice of the `parking_lot` API this workspace uses, with
//! the two semantic properties the callers rely on:
//!
//! * **No poisoning.** Injected crashes (`beldi_simfaas`'s fault
//!   injector) panic across held guards; like the real `parking_lot`, a
//!   later `lock()` must succeed, so poison errors are unwrapped into
//!   their inner guards.
//! * **Guard-returning lock methods.** `lock()` / `read()` / `write()`
//!   return guards directly, not `Result`s.
//!
//! `MutexGuard` holds its inner std guard in an `Option` so `Condvar::wait`
//! (which in `parking_lot` takes `&mut MutexGuard`) can move the std guard
//! out and back across the blocking call.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Instant;

/// A mutual-exclusion lock with the `parking_lot` API shape.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Always `Some` outside of `Condvar::wait*` internals.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        MutexGuard { inner: Some(guard) }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(poison)) => Some(MutexGuard {
                inner: Some(poison.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// A reader-writer lock with the `parking_lot` API shape.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking as needed. Never poisons.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        RwLockReadGuard { inner }
    }

    /// Acquires exclusive write access, blocking as needed. Never poisons.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        RwLockWriteGuard { inner }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable with the `parking_lot` API shape (waits take
/// `&mut MutexGuard` and re-lock in place).
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, atomically releasing and re-acquiring the
    /// guard's mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken during wait");
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        guard.inner = Some(inner);
    }

    /// Blocks until notified or `deadline` passes.
    #[expect(
        clippy::disallowed_methods,
        reason = "the shim is the host's primitives under parking_lot's names: a deadline on the host's clock is its contract"
    )]
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let inner = guard.inner.take().expect("guard taken during wait");
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(poison) => poison.into_inner(),
        };
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all blocked waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the property under test is a holder that panics on another host thread"
    )]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("crash while holding the lock");
        })
        .join();
        // parking_lot semantics: no poisoning, the lock stays usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        #[expect(clippy::disallowed_methods, reason = "a deadline on the host's clock")]
        let deadline = Instant::now() + Duration::from_millis(10);
        #[expect(
            clippy::disallowed_methods,
            reason = "the shim's own test of its host-time wait"
        )]
        let res = cv.wait_until(&mut g, deadline);
        assert!(res.timed_out());
        drop(g);
        // The guard must be intact after the wait.
        let _ = m.lock();
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = RwLock::new(5i32);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }
}
