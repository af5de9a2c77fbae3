//! The intent collector (§3.3).
//!
//! Beldi's logs give *at-most-once* semantics; the intent collector (IC)
//! supplies the *at-least-once* half. A timer-triggered serverless
//! function per SSF, it scans the intent table for instances that have
//! not completed and re-executes them with their original instance id and
//! arguments ([`Envelope::resend`]). Re-executing a still-running instance
//! is safe — every step replays from the logs — but wasteful, so the IC
//! has the paper's two optimizations: a secondary index on `Done`, and a
//! minimum re-launch delay enforced with a compare-and-swap on the
//! last-launch timestamp. Like the GC, a pass fires crash points at its
//! step boundaries and before each re-launch.

use std::sync::Arc;

use beldi_simclock::{Metric, Op};
use beldi_simdb::{ScanRequest, TableRef};
use beldi_value::Value;

use crate::env::{EnvCore, Ssf};
use crate::error::{BeldiError, BeldiResult};
use crate::intent;
use crate::invoke::Envelope;
use crate::schema::{IntentRecord, A_DONE, A_ID};
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
    /// Corrupt intents found — a row that breaks its decode rule, or one
    /// with no call or signal envelope to re-send — and quarantined. A
    /// healthy system never increments this.
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
    let _scan = core.telemetry().op(Op::IcScan, &ssf.name);
    let table = &ssf.intent_table;
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
        let rec = match IntentRecord::decode(table.name(), &row) {
            Ok(rec) => rec,
            Err(BeldiError::Corrupt { key, attr, .. }) => {
                let id = (attr != A_ID).then(|| key.as_str().into());
                report_corrupt_intent(core, table, id.as_ref(), &mut report)?;
                continue;
            }
            Err(e) => return Err(e),
        };
        let Some(envelope) = Envelope::resend(&rec).filter(relaunchable) else {
            // Nothing to re-fire: registration always stores the call, or
            // the decision signal, to re-send. A relaunch would only earn a
            // "bad envelope" reply and leave the intent unfinished.
            report_corrupt_intent(core, table, Some(&rec.id), &mut report)?;
            continue;
        };
        report.unfinished += 1;
        if now_ms.saturating_sub(rec.last_launch_ms) < delay_ms {
            report.too_recent += 1;
            continue;
        }
        // Claim the restart; losers saw a concurrent IC win the CAS.
        let _restart = core.telemetry().op(Op::IcRestart, &rec.id);
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

/// Counts a corrupt intent and quarantines it, when its id is readable:
/// marked done with no outcome, it leaves the unfinished index, quiescence
/// is reached, and the GC can recycle it. The pass goes on: a corrupt
/// intent is a protocol bug, not an operational condition, so the
/// registry counts it here, where it is found, and every gate fails on a
/// nonzero `core.ic.corrupt`.
fn report_corrupt_intent(
    core: &Arc<EnvCore>,
    table: &TableRef,
    id: Option<&Arc<str>>,
    report: &mut IcReport,
) -> BeldiResult<()> {
    report.corrupt += 1;
    core.telemetry().add(Metric::IcCorrupt, 1);
    let Some(id) = id else {
        return Ok(());
    };
    let now_ms = core.platform.clock().now().as_millis();
    intent::mark_done(&core.db, table, id, None, &[], now_ms)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use beldi_simclock::Metric;
    use beldi_simdb::PrimaryKey;
    use beldi_value::{vmap, Value};

    use crate::schema::{A_ARGS, A_CREATED, A_DONE, A_ID, A_LAST_LAUNCH};
    use crate::BeldiEnv;

    /// An unfinished intent whose launch time is not a time is not one
    /// launched at 0: the collector counts and quarantines it, and
    /// relaunches nothing.
    #[test]
    fn an_intent_breaking_its_rule_is_counted_and_quarantined() {
        let env = BeldiEnv::for_tests();
        env.register_ssf("f", &[], Arc::new(|_, _| Ok(Value::Null)));
        let call = vmap! { "Op" => "call", "Input" => 1i64 };
        let intent = vmap! {
            A_ID => "bad", A_DONE => false, A_ARGS => call, A_CREATED => 0i64,
            A_LAST_LAUNCH => "0"
        };
        #[expect(clippy::disallowed_methods, reason = "plants corruption")]
        env.db().put("f.intent", intent).unwrap();
        env.clock().sleep(std::time::Duration::from_secs(60));
        let report = env.run_ic_once("f").unwrap();
        assert_eq!((report.corrupt, report.restarted), (1, 0), "{report:?}");
        assert_eq!(env.telemetry().get(Metric::IcCorrupt), 1);
        let row = env.db().get("f.intent", &PrimaryKey::hash("bad"), None);
        assert_eq!(row.unwrap().unwrap().get_bool(A_DONE), Some(true));
        assert_eq!(env.run_ic_once("f").unwrap().corrupt, 0, "quarantined");
    }
}
