//! The per-instance execution context handed to SSF bodies.
//!
//! A [`SsfContext`] is the only handle application code gets: it exposes
//! the Beldi API of Fig. 2 (implemented across `ops.rs`, `invoke.rs`, and
//! `txn.rs`) and hides the instance id / step-number bookkeeping that
//! makes re-execution deterministic. Everything externally visible an SSF
//! does must go through this context — that is what lets the intent
//! collector replay a crashed instance without duplicating its effects.

use std::sync::Arc;

use beldi_simclock::{Op, OpScope, SharedClock};
use beldi_simdb::{Database, TableRef};
use beldi_simfaas::{Label, Platform, Probe};

use crate::config::Mode;
use crate::daal::DaalParams;
use crate::env::{EnvCore, Ssf};
use crate::error::{BeldiError, BeldiResult};
use crate::ids::{log_key, InstanceId, StepNumber};
use crate::txn::TxnState;

/// Execution context of one SSF instance.
///
/// Obtained by the Beldi wrapper and passed to the registered body; see
/// [`crate::BeldiEnv::register_ssf`]. All methods that touch the database
/// or other SSFs are *logged steps*: a re-executed instance replays their
/// recorded results instead of re-performing them.
pub struct SsfContext {
    pub(crate) core: Arc<EnvCore>,
    /// The running SSF, with its table names.
    pub(crate) ssf: Arc<Ssf>,
    /// This execution's crash-probe handle, which holds the instance id.
    pub(crate) probe: Probe,
    pub(crate) step: StepNumber,
    /// The steps at which this instance has an entry in its SSF's log,
    /// whichever execution wrote it; the done-mark records them for the
    /// collector.
    pub(crate) log_steps: Vec<StepNumber>,
    pub(crate) caller: Option<Arc<str>>,
    pub(crate) is_async: bool,
    pub(crate) txn: Option<TxnState>,
    /// When this intent was created (registered), in virtual
    /// milliseconds: no execution of it writes earlier. 0 when unknown,
    /// which leaves only `HEAD` rows to cached writes.
    created_ms: u64,
    /// Virtual deadline of this *launch*'s execution lease: launch +
    /// [`crate::BeldiConfig::t_max`]. Checked at every crash probe — the
    /// platform-timeout contract the GC's `finish + T_max` recycling rule
    /// relies on.
    deadline_ms: u64,
}

impl SsfContext {
    /// Builds a context for an execution, probing through `probe`, of an
    /// intent created at `created_ms`, launched at `launch_ms` (the clock
    /// read before the launch's first intent store op, from which its
    /// lease counts). The wrapper sets the caller, `is_async` and an
    /// inherited transaction.
    pub(crate) fn new(
        core: Arc<EnvCore>,
        ssf: Arc<Ssf>,
        probe: Probe,
        created_ms: u64,
        launch_ms: u64,
    ) -> Self {
        let deadline_ms = launch_ms + core.config.t_max.as_millis() as u64;
        SsfContext {
            core,
            ssf,
            probe,
            step: 0,
            log_steps: Vec::new(),
            caller: None,
            is_async: false,
            txn: None,
            created_ms,
            deadline_ms,
        }
    }

    // ---- Introspection ----

    /// Name of the running SSF.
    pub fn ssf_name(&self) -> &str {
        &self.ssf.name
    }

    /// This execution intent's instance id (stable across re-executions).
    pub fn instance_id(&self) -> &str {
        self.instance()
    }

    /// The instance id, shared.
    pub(crate) fn instance(&self) -> &InstanceId {
        self.probe.id()
    }

    /// The next step number to be consumed.
    pub fn step(&self) -> StepNumber {
        self.step
    }

    /// The mode the environment runs in.
    pub fn mode(&self) -> Mode {
        self.core.config.mode
    }

    /// True while inside a transaction in `Execute` mode.
    pub fn in_txn(&self) -> bool {
        let execute = |t: &TxnState| t.ctx.mode == crate::txn::TxnMode::Execute && !t.ended;
        self.txn.as_ref().is_some_and(execute)
    }

    /// The current transaction id, if inside a transaction.
    pub fn txn_id(&self) -> Option<&str> {
        self.txn.as_ref().map(|t| &*t.ctx.id)
    }

    /// Name of the SSF that invoked this instance, if any (workflow roots
    /// have no caller).
    pub fn caller(&self) -> Option<&str> {
        self.caller.as_deref()
    }

    /// True when this instance was invoked asynchronously.
    pub fn is_async(&self) -> bool {
        self.is_async
    }

    // ---- Internal plumbing ----

    pub(crate) fn db(&self) -> &Database {
        &self.core.db
    }

    pub(crate) fn platform(&self) -> &Arc<Platform> {
        &self.core.platform
    }

    pub(crate) fn clock(&self) -> &SharedClock {
        self.core.platform.clock()
    }

    /// Current virtual time in milliseconds. **Not** logged; internal uses
    /// only (timestamps on rows, GC bookkeeping). Application code that
    /// needs time must call [`SsfContext::logged_now_ms`].
    pub(crate) fn raw_now_ms(&self) -> u64 {
        self.clock().now().as_millis()
    }

    /// A fresh UUID. **Not** logged; callers must log it themselves (as
    /// `sync_invoke` does with callee ids).
    pub(crate) fn fresh_uuid(&self) -> String {
        self.core.platform.new_uuid()
    }

    /// Consumes and returns the next log key (`instance#step`).
    pub(crate) fn next_log_key(&mut self) -> Arc<str> {
        let k = log_key(self.instance(), self.step);
        self.step += 1;
        k
    }

    /// Opens the scope of `op` for this instance: it counts the op and
    /// names it the issuer of the store calls made until it drops.
    pub(crate) fn op(&self, op: Op) -> OpScope {
        self.core.telemetry().op(op, self.instance())
    }

    /// A labelled crash point: the fault injector may kill the instance
    /// here (modelled as a panic the platform catches).
    ///
    /// Probes double as the execution-lease checkpoints: every external
    /// effect in the protocol is bracketed by probes, so checking the
    /// `t_max` deadline here guarantees an expired instance dies before
    /// its next effect — the platform-timeout bound that makes GC
    /// recycling (`finish + T_max`) safe against in-flight duplicates.
    pub(crate) fn crash(&self, label: Label) {
        let faults = self.core.platform.faults();
        if self.raw_now_ms() > self.deadline_ms {
            faults.timeout_kill(&self.probe);
        }
        faults.crash_point(&self.probe, label);
    }

    /// Resolves a logical table name to the SSF's physical data table,
    /// enforcing data sovereignty (§2.2): an SSF can only name tables it
    /// registered.
    pub(crate) fn data_table(&self, logical: &str) -> BeldiResult<TableRef> {
        self.table(logical).map(|t| t.data.clone())
    }

    /// The shadow table backing a logical table (§6.2).
    pub(crate) fn shadow_table(&self, logical: &str) -> BeldiResult<TableRef> {
        self.table(logical).map(|t| t.shadow.clone())
    }

    fn table(&self, logical: &str) -> BeldiResult<&crate::env::SsfTable> {
        let table = self.ssf.tables.iter().find(|t| t.logical == logical);
        table.ok_or_else(|| {
            BeldiError::Protocol(format!(
                "SSF {} has no table `{logical}` (data sovereignty)",
                self.ssf.name
            ))
        })
    }

    /// Runs `f` with DAAL parameters bound to this context for a write
    /// to `physical`: its store, row capacity, clock, the tail cache (for
    /// this SSF's data tables; shadow tables are not cached), the
    /// intent's creation time, crash probes and row-id source.
    pub(crate) fn with_daal<R>(
        &self,
        physical: &TableRef,
        f: impl FnOnce(&DaalParams<'_>) -> BeldiResult<R>,
    ) -> BeldiResult<R> {
        let now_ms = || self.raw_now_ms();
        let crash = |label: Label| self.crash(label);
        let new_row_id = || crate::ids::shared(format_args!("R-{}", self.fresh_uuid()));
        let data = self
            .ssf
            .tables
            .iter()
            .any(|t| t.data.name() == physical.name());
        f(&DaalParams {
            db: self.db(),
            capacity: self.core.config.daal_row_capacity,
            now_ms: &now_ms,
            tail_cache: self.core.tail_cache.as_ref().filter(|_| data),
            intent_created_ms: self.created_ms,
            crash: &crash,
            new_row_id: &new_row_id,
        })
    }
}
