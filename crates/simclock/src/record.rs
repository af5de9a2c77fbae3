//! The run record: what a run did, event by event, on virtual time.
//!
//! A reader starts it ([`Telemetry::start_record`]) and takes it
//! ([`Telemetry::take_record`]); in between, every layer hands its events
//! to the registry it already counts into. An [`Event`] is one of three
//! kinds, each keyed by the instance it belongs to: a crash-point visit
//! (the fault injector's global crash stream), a store call, and a
//! platform invocation. Callbacks, intent registrations and done-marks
//! are store calls, named by the op that issued them.
//!
//! The issuer of a store call is the innermost [`OpScope`] open on the
//! calling thread: `core` opens one at each public op and each collector
//! step ([`Telemetry::op`]), which counts the op whether or not a reader
//! is on. A scope restores the one it opened in when it drops, so a
//! synchronous callee running on its caller's thread hands the thread
//! back to its caller's scope.
//!
//! With no reader, recording an event is one relaxed load and builds
//! nothing, and a scope is a thread-local swap: nothing is allocated.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{SharedClock, SimInstant};
use crate::telemetry::{Op, Telemetry};

/// What kind of store call a [`StoreCall`] is: one per operation counter
/// of the store (`MetricsSnapshot::total_ops` sums them), each with its
/// latency in the store's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// A point read.
    Get,
    /// A single-row put or (conditional) update.
    Write,
    /// A (conditional) delete.
    Delete,
    /// One page of a hash-key or index query.
    Query,
    /// One page of a scan.
    Scan,
    /// A cross-table transactional write.
    TransactWrite,
}

/// One store call, as the store billed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCall {
    /// The operation.
    pub kind: StoreKind,
    /// The table it named (a transaction's first item's).
    pub table: Arc<str>,
    /// The item's key; a query's hash key or `attr=value` index key; a
    /// transaction's items, each `table/key ` (space-terminated). `None`
    /// for a scan.
    pub key: Option<String>,
    /// Whether its condition held; `None` when it had none.
    pub cond: Option<bool>,
    /// Rows it returned, wrote or (a query or scan page) examined.
    pub rows: u64,
    /// Bytes it read or wrote, as the store counts them.
    pub bytes: u64,
    /// The innermost op scope open when it was issued.
    pub issuer: Option<Op>,
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A crash point was passed: its position in the global crash
    /// stream, its label's name and whether an injected crash fired.
    Crash {
        /// Position in the global crash stream (0-based, every probe of
        /// the injector's life).
        step: u64,
        /// The label's dotted name.
        label: &'static str,
        /// Whether the instance died here.
        crashed: bool,
    },
    /// A store call.
    Store(StoreCall),
    /// The platform started an invocation of `function` (its instance is
    /// the request id).
    Invoke {
        /// The function invoked.
        function: Arc<str>,
        /// Whether it paid a cold start.
        cold: bool,
    },
}

/// One event of the run record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When, on the clock the reader started the record with.
    pub at: SimInstant,
    /// The instance it belongs to: the probed instance, the issuer's, or
    /// the invocation's request id. `None` for a store call no op scope
    /// covers.
    pub instance: Option<Arc<str>>,
    /// What happened.
    pub kind: EventKind,
}

/// The record while a reader has it started.
#[derive(Default)]
pub(crate) struct Recorder {
    /// Mirrors `events.is_some()`: an unread record is one load.
    on: AtomicBool,
    /// The clock events are stamped with, and the events so far.
    events: Mutex<Option<(SharedClock, Vec<Event>)>>,
}

thread_local! {
    /// The innermost op scope open on this thread, with its instance.
    static ISSUER: Cell<Option<(Op, Arc<str>)>> = const { Cell::new(None) };
}

/// An op scope, open until dropped (see the module docs). It lives on the
/// thread that opened it.
#[must_use = "a scope names the issuer only while it is alive"]
pub struct OpScope {
    outer: Option<(Op, Arc<str>)>,
    _thread: PhantomData<*const ()>,
}

impl Drop for OpScope {
    fn drop(&mut self) {
        let outer = self.outer.take();
        // A thread tearing down its locals has no scope to restore.
        ISSUER.try_with(|slot| slot.set(outer)).ok();
    }
}

impl Telemetry {
    /// Starts (or restarts, emptied) the run record, stamping events with
    /// `clock`'s time.
    pub fn start_record(&self, clock: SharedClock) {
        *self.recorder.events.lock() = Some((clock, Vec::new()));
        self.recorder.on.store(true, Ordering::Relaxed);
    }

    /// Stops the run record and returns its events in the order they were
    /// recorded (empty if it was never started).
    pub fn take_record(&self) -> Vec<Event> {
        let mut events = self.recorder.events.lock();
        self.recorder.on.store(false, Ordering::Relaxed);
        events.take().map(|(_, events)| events).unwrap_or_default()
    }

    /// Whether a reader has the run record started.
    pub fn recording(&self) -> bool {
        self.recorder.on.load(Ordering::Relaxed)
    }

    /// Records an event of `instance`; `kind` is built only if a reader
    /// has the record started.
    pub fn log(&self, instance: &Arc<str>, kind: impl FnOnce() -> EventKind) {
        if self.recording() {
            self.push(Some(instance.clone()), kind());
        }
    }

    /// Records a store call under the innermost op scope: `call` is given
    /// the scope's op, and is built only if a reader has the record
    /// started.
    pub fn log_store(&self, call: impl FnOnce(Option<Op>) -> StoreCall) {
        if self.recording() {
            let issuer = ISSUER.try_with(|slot| {
                let current = slot.take();
                slot.set(current.clone());
                current
            });
            let (op, instance) = issuer.ok().flatten().unzip();
            self.push(instance, EventKind::Store(call(op)));
        }
    }

    fn push(&self, instance: Option<Arc<str>>, kind: EventKind) {
        if let Some((clock, events)) = self.recorder.events.lock().as_mut() {
            let at = clock.now();
            events.push(Event { at, instance, kind });
        }
    }

    /// Opens the scope of `op` on behalf of `instance`: counts the op and
    /// names it the issuer of this thread's store calls until the scope
    /// drops.
    pub fn op(&self, op: Op, instance: &Arc<str>) -> OpScope {
        self.add(op.metric(), 1);
        let opened = Some((op, instance.clone()));
        OpScope {
            outer: ISSUER.try_with(|slot| slot.replace(opened)).ok().flatten(),
            _thread: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimClock, StoreKind};

    fn call(issuer: Option<Op>) -> StoreCall {
        StoreCall {
            kind: StoreKind::Get,
            table: "t".into(),
            key: Some("k".into()),
            cond: None,
            rows: 1,
            bytes: 8,
            issuer,
        }
    }

    fn issuers(record: &[Event]) -> Vec<Option<Op>> {
        record
            .iter()
            .map(|e| match &e.kind {
                EventKind::Store(c) => c.issuer,
                _ => None,
            })
            .collect()
    }

    /// The innermost scope names the issuer; dropping it restores the
    /// outer one, also when it unwinds.
    #[test]
    fn scopes_nest_and_restore() {
        let t = Telemetry::new();
        t.start_record(SimClock::shared(0));
        let (a, b): (Arc<str>, Arc<str>) = ("a".into(), "b".into());
        t.log_store(call);
        let outer = t.op(Op::SyncInvoke, &a);
        t.log_store(call);
        {
            let _inner = t.op(Op::Read, &b);
            t.log_store(call);
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = t.op(Op::Write, &b);
            panic!("a crash");
        }));
        assert!(unwound.is_err());
        t.log_store(call);
        drop(outer);
        t.log_store(call);
        let record = t.take_record();
        assert_eq!(
            issuers(&record),
            [
                None,
                Some(Op::SyncInvoke),
                Some(Op::Read),
                Some(Op::SyncInvoke),
                None
            ]
        );
        let instances: Vec<Option<&str>> = record.iter().map(|e| e.instance.as_deref()).collect();
        assert_eq!(instances, [None, Some("a"), Some("b"), Some("a"), None]);
        assert_eq!(t.get(Op::SyncInvoke.metric()), 1);
        assert_eq!(t.get(Op::Write.metric()), 1);
    }

    /// Nothing is recorded before a reader starts the record or after it
    /// takes it.
    #[test]
    fn only_a_started_record_records() {
        let t = Telemetry::new();
        let id: Arc<str> = "i".into();
        let crash = || EventKind::Crash {
            step: 0,
            label: "x.y",
            crashed: false,
        };
        t.log(&id, crash);
        assert!(t.take_record().is_empty());
        t.start_record(SimClock::shared(0));
        assert!(t.recording());
        t.log(&id, crash);
        assert_eq!(t.take_record().len(), 1);
        assert!(!t.recording());
        t.log(&id, crash);
        assert!(t.take_record().is_empty());
    }
}
