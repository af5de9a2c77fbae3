//! The intent collector (§3.3).
//!
//! Beldi's logs give *at-most-once* semantics; the intent collector (IC)
//! supplies the *at-least-once* half. A timer-triggered serverless
//! function per SSF, it scans the intent table for instances that have
//! not completed and re-executes them with their original instance id and
//! arguments: the intent's `Args` with the row's own `Id`, `Caller` and
//! `Async` put back ([`Envelope::resend`]). Re-executing a still-running
//! instance is safe — every step replays from the logs — but wasteful, so
//! the IC implements the paper's two optimizations: a secondary index on
//! the `Done` flag, and a minimum re-launch delay enforced with a
//! compare-and-swap on the last-launch timestamp (so concurrent IC
//! instances do not double-restart).
//!
//! Like the GC, a pass fires step-boundary crash points (`ic.enter` /
//! `ic.post_scan` / `ic.exit`) plus one probe before each re-launch
//! (`ic.pre_restart`), so the chaos driver and the explorer can kill
//! collector passes mid-flight exactly like SSF instances.

use std::sync::Arc;

use beldi_simclock::Metric;
use beldi_simdb::ScanRequest;
use beldi_value::Value;

use crate::env::{EnvCore, Ssf};
use crate::error::BeldiResult;
use crate::intent::{self, IntentRecord};
use crate::invoke::Envelope;
use crate::schema::A_DONE;
use crate::Label;

/// Summary of one intent-collector pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcReport {
    /// Unfinished intents found (excluding corrupt rows).
    pub unfinished: usize,
    /// Instances re-launched this pass.
    pub restarted: usize,
    /// Intents skipped because they were launched too recently.
    pub too_recent: usize,
    /// Corrupt intents found (no call or signal envelope to re-send) and
    /// quarantined. A healthy system never increments this.
    pub corrupt: usize,
}

/// Runs one IC pass for `ssf` without fault injection (synchronous
/// harness passes and recovery drains).
pub(crate) fn run_ic(core: &Arc<EnvCore>, ssf: &Ssf) -> BeldiResult<IcReport> {
    run_ic_with(core, ssf, &|_| {})
}

/// Runs one IC pass for `ssf`, firing `crash` at each `ic.*` point, and
/// counts it: every way a pass is run — timer, harness, recovery drain —
/// comes through here.
pub(crate) fn run_ic_with(
    core: &Arc<EnvCore>,
    ssf: &Ssf,
    crash: &dyn Fn(Label),
) -> BeldiResult<IcReport> {
    let result = pass(core, ssf, crash);
    let t = core.telemetry();
    t.add(Metric::IcPasses, 1);
    match &result {
        Ok(r) => {
            t.add(Metric::IcUnfinished, r.unfinished as u64);
            t.add(Metric::IcRestarted, r.restarted as u64);
            t.add(Metric::IcTooRecent, r.too_recent as u64);
        }
        Err(_) => t.add(Metric::IcErrors, 1),
    }
    result
}

fn pass(core: &Arc<EnvCore>, ssf: &Ssf, crash: &dyn Fn(Label)) -> BeldiResult<IcReport> {
    crash(Label::IcEnter);
    let table = &*ssf.intent_table;
    let mut rows = core
        .db
        .index_query(table, A_DONE, &Value::Bool(false), &ScanRequest::all())?;
    // Appendix A: collectors are SSFs with execution timeouts, so a pass
    // may be bounded. The batch window *rotates* through the index via a
    // persisted per-SSF cursor: truncating the same prefix every pass
    // would starve the tail whenever the first `limit` intents stay
    // ineligible (too recent, or perpetually crashing re-executions).
    if let Some(limit) = core.config.collector_batch_limit {
        if rows.len() > limit {
            let start = core.ic_scan_offset(&ssf.name, limit, rows.len());
            rows.rotate_left(start);
            rows.truncate(limit);
        }
    }
    crash(Label::IcPostScan);
    let now_ms = core.platform.clock().now().as_millis();
    let delay_ms = core.config.ic_restart_delay.as_millis() as u64;

    let mut report = IcReport::default();
    for row in rows {
        let Some(rec) = IntentRecord::from_row(row) else {
            continue;
        };
        let Some(envelope) = Envelope::resend(&rec).filter(relaunchable) else {
            // Nothing to re-fire: the row is corrupt (registration always
            // stores the call, or the decision signal, to re-send). A
            // relaunch would only earn a "bad envelope" reply and leave the
            // intent unfinished, so quarantine it: the Done=false index
            // stops returning it, and quiescence is reached.
            report_corrupt_intent(core, table, &rec.id, &mut report)?;
            continue;
        };
        report.unfinished += 1;
        if now_ms.saturating_sub(rec.last_launch_ms) < delay_ms {
            report.too_recent += 1;
            continue;
        }
        // Claim the restart; losers saw a concurrent IC win the CAS.
        if !intent::claim_launch(&core.db, table, &rec.id, rec.last_launch_ms, now_ms)? {
            continue;
        }
        crash(Label::IcPreRestart);
        // Re-fire the original envelope. Failures here are fine: the next
        // pass tries again.
        if core.platform.invoke_async(&ssf.name, envelope).is_ok() {
            report.restarted += 1;
        }
    }
    crash(Label::IcExit);
    Ok(report)
}

/// Whether `envelope` is one the collector can re-send: the call an
/// execution intent stores, or the signal a decision intent stores.
fn relaunchable(envelope: &Value) -> bool {
    matches!(
        Envelope::from_value(envelope.clone()),
        Ok(Envelope::Call { .. } | Envelope::TxnSignal { .. })
    )
}

/// Counts and quarantines a corrupt intent (nothing to re-send): marked done
/// with no outcome (which decodes as a null one) so it leaves the unfinished index and the GC can
/// recycle it. The pass goes on: a corrupt intent is a protocol bug, not
/// an operational condition, so the registry counts it here, where it is
/// found, and every gate fails on a nonzero `core.ic.corrupt`.
fn report_corrupt_intent(
    core: &Arc<EnvCore>,
    table: &str,
    id: &Arc<str>,
    report: &mut IcReport,
) -> BeldiResult<()> {
    report.corrupt += 1;
    core.telemetry().add(Metric::IcCorrupt, 1);
    let now_ms = core.platform.clock().now().as_millis();
    intent::mark_done(&core.db, table, id, None, &[], now_ms)
}
