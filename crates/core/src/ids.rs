//! Instance ids, step numbers, and log keys.
//!
//! Every SSF execution is identified by an *instance id* (§3.3): a root's
//! is issued, not drawn ([`beldi_simfaas::Platform::issue_id`]), and a
//! callee's is the id [`callee_id`] derives from its caller's invoke-log
//! key, which a callback inverts to write that entry by key. Every
//! external operation inside an instance gets a monotonically increasing
//! *step number*; the pair keys all of Beldi's logs (Fig. 3). Each id and
//! log key is built once, as one shared string that every row key,
//! attribute and path naming it holds.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// An SSF instance id (unique per execution intent, stable across
/// re-executions of the same intent).
pub type InstanceId = Arc<str>;

pub use beldi_simclock::StepNumber;

/// Separator between instance id and step in a log key. A callee id
/// contains it too, so a key splits at the last one.
pub const LOG_KEY_SEP: char = '#';

/// Formats `args` into one shared string. The text is assembled in a
/// reused per-thread buffer, so the `Arc` is the only allocation.
pub(crate) fn shared(args: fmt::Arguments<'_>) -> Arc<str> {
    thread_local!(static BUF: RefCell<String> = const { RefCell::new(String::new()) });
    BUF.with_borrow_mut(|buf| {
        buf.clear();
        let _ = buf.write_fmt(args); // Writing to a `String` cannot fail.
        Arc::from(buf.as_str())
    })
}

/// Builds the log key for `(instance, step)` — the primary key of read,
/// write, and invoke log entries (paper Fig. 3).
pub fn log_key(instance: &str, step: StepNumber) -> Arc<str> {
    shared(format_args!("{instance}{LOG_KEY_SEP}{step}"))
}

/// Splits a log key back into `(instance, step)`; `None` when malformed.
pub fn parse_log_key(key: &str) -> Option<(&str, StepNumber)> {
    let (instance, step) = key.rsplit_once(LOG_KEY_SEP)?;
    let step = step.parse().ok()?;
    Some((instance, step))
}

/// Makes `call`, its store calls tagged in the run record as tries to log
/// the outcome of the step `log_key` names ([`beldi_simclock::logging_step`]).
pub(crate) fn logging<R>(log_key: &str, call: impl FnOnce() -> R) -> R {
    match parse_log_key(log_key) {
        Some((_, step)) => beldi_simclock::logging_step(step, call),
        None => call(),
    }
}

/// The id of the callee invoked at the caller's invoke-log entry `log_key`.
pub fn callee_id(log_key: &str) -> Arc<str> {
    shared(format_args!("{log_key}.c"))
}

/// Inverts [`callee_id`]; `None` for an id no log key derives (a root's, a forged one).
pub fn callee_log_key(callee_id: &str) -> Option<&str> {
    callee_id
        .strip_suffix(".c")
        .filter(|k| parse_log_key(k).is_some())
}

/// The id under which SSF `ssf` finalizes transaction `txn_id` (§6.2): the
/// instance id of the commit/abort signal sent to `ssf`, and so the key of
/// that signal's intent, which is the SSF's finalize claim; the owner's
/// SSF, which gets no signal, claims the same id in its intent table. The
/// SSF qualifies it because instance ids are global to the platform. It
/// is short on purpose: a flush's log key, `{id}#{step}`, stays in the
/// data row's write log, which every later write to the row bills.
pub fn finalize_marker(ssf: &str, txn_id: &str) -> Arc<str> {
    shared(format_args!("{txn_id}@{ssf}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_key_round_trips() {
        let k = log_key("abc-123", 42);
        assert_eq!(&*k, "abc-123#42");
        assert_eq!(parse_log_key(&k), Some(("abc-123", 42)));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(parse_log_key("no-separator"), None);
        assert_eq!(parse_log_key("a#notanumber"), None);
    }

    #[test]
    fn parse_uses_last_separator() {
        // A callee id contains the separator; the step is always the last
        // segment.
        assert_eq!(parse_log_key("a#b#3"), Some(("a#b", 3)));
        assert_eq!(parse_log_key("r#1.c#2"), Some(("r#1.c", 2)));
    }

    #[test]
    fn callee_id_round_trips() {
        let k = log_key("root", 3);
        let id = callee_id(&k);
        assert_eq!(&*id, "root#3.c");
        assert_eq!(callee_log_key(&id), Some(&*k));
        // A callee's callee: the log key holds the parent callee's id.
        let nested = callee_id(&log_key(&id, 2));
        assert_eq!(&*nested, "root#3.c#2.c");
        assert_eq!(callee_log_key(&nested), Some("root#3.c#2"));
        assert_eq!(callee_log_key("r#1.c#2.c"), Some("r#1.c#2"));
    }

    #[test]
    fn callee_log_key_rejects_ids_no_log_key_produces() {
        for id in ["ghost-callee", "", ".c", "x.c.c", "x#1.c.c", "r#1", "r#.c"] {
            assert_eq!(callee_log_key(id), None, "{id:?}");
        }
    }

    #[test]
    fn finalize_marker_is_recognised() {
        let m = finalize_marker("hotel", "t-1");
        assert_eq!(&*m, "t-1@hotel");
        // One per transaction and SSF: a diamond's two signals to one SSF
        // share it, signals to two SSFs do not.
        assert_eq!(finalize_marker("hotel", "t-1"), m);
        assert_ne!(finalize_marker("flight", "t-1"), m);
        assert_ne!(finalize_marker("hotel", "t-2"), m);
        // A marker's id names no log entry a callback could address, and
        // its own log keys split back into it.
        assert_eq!(callee_log_key(&m), None);
        assert_eq!(parse_log_key(&log_key(&m, 4)), Some((&*m, 4)));
    }
}
