//! Fault injection demo: crash an SSF at every point of its execution and
//! watch Beldi's logs + intent collector deliver exactly-once semantics —
//! then run the same experiment on the unprotected baseline and watch the
//! state corrupt.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use std::sync::Arc;

use beldi_repro::beldi::{BeldiConfig, BeldiEnv, CrashPlan, Label, SsfBody};
use beldi_repro::value::Value;

/// A payment-ish workflow: bump a balance, then invoke a ledger SSF that
/// appends an audit record. Double execution of either half is visible.
fn register_workflow(env: &BeldiEnv) {
    env.register_ssf(
        "ledger",
        &["audit"],
        Arc::new(|ctx, input| {
            let n = ctx.read("audit", "entries")?.as_int().unwrap_or(0);
            ctx.write("audit", "entries", Value::Int(n + 1))?;
            ctx.write("audit", &format!("entry-{n}"), input)?;
            Ok(Value::Int(n + 1))
        }),
    );
    let body: SsfBody = Arc::new(|ctx, input| {
        let balance = ctx.read("accounts", "alice")?.as_int().unwrap_or(0);
        let amount = input.as_int().unwrap_or(0);
        ctx.write("accounts", "alice", Value::Int(balance + amount))?;
        ctx.sync_invoke("ledger", input)?;
        Ok(Value::Int(balance + amount))
    });
    env.register_ssf("pay", &["accounts"], body);
}

fn state(env: &BeldiEnv) -> (i64, i64) {
    let balance = env
        .read_current("pay", "accounts", "alice")
        .unwrap()
        .as_int()
        .unwrap_or(0);
    let entries = env
        .read_current("ledger", "audit", "entries")
        .unwrap()
        .as_int()
        .unwrap_or(0);
    (balance, entries)
}

fn main() {
    beldi_repro::beldi::silence_crash_backtraces();
    println!("== Beldi: crash at every point, recover, verify exactly-once ==");
    let mut crashes_fired = 0;
    for ordinal in 0..40 {
        let env = BeldiEnv::for_tests();
        register_workflow(&env);
        let id = format!("pay-crash-{ordinal}");
        env.platform()
            .faults()
            .plan(id.clone(), CrashPlan::AtOrdinal(ordinal));
        // The driver retries the same intent — the role the intent
        // collector plays for async work.
        let out = env
            .invoke_as("pay", &id, Value::Int(100))
            .expect("recovered");
        let (balance, entries) = state(&env);
        assert_eq!(out, Value::Int(100));
        assert_eq!((balance, entries), (100, 1), "ordinal {ordinal}");
        crashes_fired += env.platform().faults().injected_count();
    }
    println!("   40 crash schedules, {crashes_fired} crashes injected");
    println!("   every run: balance = 100, audit entries = 1  ✓ exactly once\n");

    println!("== Baseline: the provider's retry duplicates effects ==");
    let env = BeldiEnv::for_tests_with(BeldiConfig::baseline());
    register_workflow(&env);
    // The same crash Beldi survived above: `pay` dies after its balance
    // write, before it calls the ledger. The baseline retries it too, but
    // with no log to replay from, the retry writes the balance again.
    env.platform()
        .faults()
        .plan("pay-1", CrashPlan::AtLabel(Label::InvokePreCall));
    env.invoke_as("pay", "pay-1", Value::Int(100)).unwrap();
    let (balance, entries) = state(&env);
    println!("   after one logical payment, killed once and retried:");
    println!("   balance = {balance} (should be 100), audit entries = {entries} (should be 1)");
    assert_eq!((balance, entries), (200, 1));
    println!("   the baseline double-charged — the anomaly Beldi eliminates.");
}
