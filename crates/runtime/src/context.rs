//! The thread-local "current executor" context.
//!
//! [`Executor::run`](crate::Executor::run) installs its handle here for
//! the duration of the loop, which is what lets plain async code call
//! [`crate::sleep`] / [`crate::spawn`] without threading a [`Handle`]
//! through every signature — the same shape tokio gives `tokio::spawn`.

use std::cell::RefCell;

use crate::executor::Handle;

thread_local! {
    static CURRENT: RefCell<Vec<Handle>> = const { RefCell::new(Vec::new()) };
}

/// Installs `handle` as the thread's current executor until the guard
/// drops. Nests (re-entrant `block_on` restores the outer handle).
pub(crate) fn enter(handle: Handle) -> EnterGuard {
    CURRENT.with(|c| c.borrow_mut().push(handle));
    EnterGuard { _priv: () }
}

pub(crate) struct EnterGuard {
    _priv: (),
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The current executor's handle.
///
/// # Panics
///
/// Panics when called outside an executor's `run`/`block_on` — async
/// entry points that may be driven from foreign threads should carry a
/// `Handle` explicitly instead.
#[expect(
    clippy::expect_used,
    reason = "documented above: outside an executor there is no handle to return"
)]
pub fn handle() -> Handle {
    try_handle().expect("no beldi-runtime executor is running on this thread")
}

/// The current executor's handle, or `None` outside an executor.
pub fn try_handle() -> Option<Handle> {
    CURRENT.with(|c| c.borrow().last().cloned())
}
