//! The history checker: Beldi's two promises judged from the run record,
//! knowing `core`'s schema only, never an app's (DESIGN §8).
//!
//! - **(a)** `core` tags each store call that tries to log a step's
//!   outcome with the step ([`beldi_simclock::logging_step`]). Across every
//!   execution of an instance, each `(instance, step)` may have one tagged
//!   call whose condition held or that had none; a second is an effect a
//!   re-execution applied again (§2.1).
//! - **(b)** Once GC step 6 has deleted an instance's intent (an
//!   [`Op::GcRecycle`] delete on an intent table, issued in the instance's
//!   scope), no later store call of a non-collector op that can change the
//!   store carries that instance (§5). Any execution of the instance
//!   writes, starting with its intent registration; a read is a guard that
//!   finds the intent gone and runs nothing.
//!
//! A repeat callback is not checked: it is an idempotent `set_if_absent`
//! under `exists(CalleeFn)`, whose condition always holds, so the record
//! cannot tell which callback applied.

use std::collections::{HashMap, HashSet};

use beldi_simclock::Op::{GcClassify, GcDaal, GcLogPrune, GcRecycle, IcRestart, IcScan};
use beldi_simclock::{Event, EventKind, Op, StepNumber, StoreKind};

/// The collector steps, the one kind of op that may touch a recycled
/// instance's rows.
const COLLECTOR_OPS: [Op; 6] = [IcScan, IcRestart, GcClassify, GcLogPrune, GcDaal, GcRecycle];

/// Checks `record` against both clauses: one line per broken one, naming
/// the clause and the instance, with the step applied twice (a) or the op
/// that wrote for a recycled instance (b). Each `(instance, step)` and each
/// recycled instance is reported once, at its first offending call, in
/// record order.
pub fn check(record: &[Event]) -> Vec<String> {
    let mut applied: HashMap<(&str, StepNumber), usize> = HashMap::new();
    let (mut recycled, mut reported) = (HashSet::new(), HashSet::new());
    let mut findings = Vec::new();
    for event in record {
        let (EventKind::Store(call), Some(instance)) = (&event.kind, &event.instance) else {
            continue;
        };
        let Some(op) = call.issuer else {
            continue;
        };
        if let (Some(step), false) = (call.step, call.cond == Some(false)) {
            let n = applied.entry((instance, step)).or_default();
            *n += 1;
            if *n == 2 {
                findings.push(format!("(a) step {step} of `{instance}` applied twice"));
            }
        }
        if op == GcRecycle && call.kind == StoreKind::Delete && call.table.ends_with(".intent") {
            recycled.insert(&**instance);
        } else if !COLLECTOR_OPS.contains(&op)
            && matches!(
                call.kind,
                StoreKind::Write | StoreKind::Delete | StoreKind::TransactWrite
            )
            && recycled.contains(&**instance)
            && reported.insert(&**instance)
        {
            let op = op.as_str();
            findings.push(format!("(b) `{instance}` called by {op} after its recycle"));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi::value::Value;
    use beldi_simclock::{SimInstant, StoreCall};
    use std::time::Duration;

    /// A store call of `instance` issued by `op`.
    fn call(instance: &str, op: Op, kind: StoreKind, table: &str, key: &str) -> Event {
        Event {
            at: SimInstant::EPOCH,
            instance: Some(instance.into()),
            kind: EventKind::Store(StoreCall {
                kind,
                table: table.into(),
                key: Some(key.into()),
                cond: None,
                rows: 1,
                bytes: 8,
                latency: Duration::ZERO,
                issuer: Some(op),
                step: None,
            }),
        }
    }

    /// A write of `instance` tagged with `step`, whose condition came out
    /// `cond`.
    fn tagged(instance: &str, step: StepNumber, cond: Option<bool>) -> Event {
        let mut e = call(instance, Op::Write, StoreKind::Write, "f.data.t", "k");
        if let EventKind::Store(c) = &mut e.kind {
            c.step = Some(step);
            c.cond = cond;
        }
        e
    }

    /// GC step 6 deleting `instance`'s intent.
    fn recycle(instance: &str) -> Event {
        call(
            instance,
            Op::GcRecycle,
            StoreKind::Delete,
            "f.intent",
            instance,
        )
    }

    /// Each step applied once, a failed retry, and the recycle last.
    #[test]
    fn a_clean_record_passes() {
        let record = [
            call("i", Op::IntentRegister, StoreKind::Write, "f.intent", "i"),
            tagged("i", 0, Some(true)),
            tagged("i", 1, None),
            tagged("i", 0, Some(false)),
            tagged("j", 0, Some(true)),
            call("i", Op::MarkDone, StoreKind::Write, "f.intent", "i"),
            recycle("i"),
        ];
        assert!(check(&record).is_empty());
    }

    /// A second held call for one `(instance, step)` breaks (a), once
    /// however often it repeats.
    #[test]
    fn a_second_held_call_of_a_step_breaks_a() {
        let record = [
            tagged("i", 3, Some(true)),
            tagged("i", 3, None),
            tagged("i", 3, None),
        ];
        assert_eq!(check(&record), ["(a) step 3 of `i` applied twice"]);
    }

    /// A tagged call whose condition failed applied nothing.
    #[test]
    fn a_failed_tagged_call_does_not_break_a() {
        let record = [tagged("i", 3, Some(true)), tagged("i", 3, Some(false))];
        assert!(check(&record).is_empty());
    }

    /// A write of a non-collector op on a recycled instance breaks (b).
    #[test]
    fn a_call_after_the_recycle_breaks_b() {
        let record = [
            recycle("i"),
            call("i", Op::Write, StoreKind::Write, "f.log", "i#0"),
            call("i", Op::Write, StoreKind::Write, "f.log", "i#0"),
        ];
        let want = "(b) `i` called by core.op.write after its recycle";
        assert_eq!(check(&record), [want]);
    }

    /// A read after the recycle changes nothing: a guard that finds the
    /// intent gone does not break (b).
    #[test]
    fn a_read_after_the_recycle_does_not_break_b() {
        let record = [
            recycle("i"),
            call("i", Op::IntentRegister, StoreKind::Get, "f.intent", "i"),
            call("i", Op::Read, StoreKind::Query, "f.data.t", "k"),
        ];
        assert!(check(&record).is_empty());
    }

    /// GC step 6's delete, as a real run records it, names the recycled
    /// instance: a later call of that instance breaks (b).
    #[test]
    fn a_recycle_a_run_recorded_names_its_instance() {
        let env = beldi::BeldiEnv::for_tests();
        env.register_ssf("f", &[], std::sync::Arc::new(|_, _| Ok(Value::Null)));
        env.telemetry().start_record(env.clock().clone());
        env.invoke("f", Value::Null).unwrap();
        env.clock()
            .sleep(env.config().t_max + Duration::from_millis(1));
        assert_eq!(env.run_gc_once("f").unwrap().recycled_intents, 1);
        let mut record = env.telemetry().take_record();
        assert!(check(&record).is_empty());
        let registered = record.iter().find(
            |e| matches!(&e.kind, EventKind::Store(c) if c.issuer == Some(Op::IntentRegister)),
        );
        let instance = registered.and_then(|e| e.instance.clone()).unwrap();
        record.push(call(&instance, Op::Write, StoreKind::Write, "f.log", "x"));
        let want = format!("(b) `{instance}` called by core.op.write after its recycle");
        assert_eq!(check(&record), [want]);
    }

    /// The collector's own calls after the recycle do not break (b).
    #[test]
    fn a_collector_call_after_the_recycle_does_not_break_b() {
        let record = [
            recycle("i"),
            recycle("i"),
            call("i", Op::IcRestart, StoreKind::Write, "f.intent", "i"),
            call("i", Op::GcDaal, StoreKind::Query, "f.data.t", "k"),
        ];
        assert!(check(&record).is_empty());
    }
}
