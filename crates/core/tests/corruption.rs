//! The corruption fuzzer: a damaged row is decoded, never defaulted.
//!
//! Each case runs a generated program (`properties.rs`'s shape, plus an
//! invoke edge, optionally inside a transaction), crashes the root at an
//! arbitrary ordinal, damages one attribute of one row of an intent, log,
//! data or shadow table — removes a required one, changes one's kind, or
//! truncates a list — and resumes through `drain_recovery` and a root
//! retry, with a GC pass between them. The outcome must be a
//! `BeldiError::Corrupt` (as a typed error, or as its message when it
//! crossed an invocation), a nonzero corruption count, or the model's
//! state and checksum: never a panic, a hang, or an effect the model does
//! not have.
//!
//! Not damaged: key attributes (they name the row), the application's
//! values (any kind is a value; only a read entry's or a written shadow
//! row's may go missing) and the attributes only an index reads
//! (`TxnId`, `Appended`), which a query finds by value, so a damaged one
//! hides its row from every decoder.

use std::sync::Arc;
use std::time::Duration;

use beldi::schema::{
    A_CALLEE_FN, A_CREATED, A_DONE, A_FINISH, A_FLAG, A_ID, A_KEY, A_LAST_LAUNCH, A_LOG_KEY,
    A_ORIG_KEY, A_ORIG_TABLE, A_RET, A_ROW_ID, A_TXN_ID, A_VALUE, A_WRITTEN,
};
use beldi::simclock::Metric;
use beldi::value::{Cond, Value};
use beldi::{BeldiConfig, BeldiEnv, BeldiError, BeldiResult, CrashPlan};
use beldi_simdb::ScanRequest;
use proptest::prelude::*;

/// One operation of a generated program.
#[derive(Debug, Clone)]
enum Op {
    /// Unconditional write of `val` to key `k`.
    Write(usize, i64),
    /// Write `val` to `k` if the current value is at least `threshold`.
    CondWriteGe(usize, i64, i64),
    /// Read key `k` and fold it into the result checksum.
    Read(usize),
    /// Read-modify-write increment of key `k`.
    Inc(usize),
    /// Call `adder`, which increments its own key `k` and returns it.
    Call(usize),
}

const KEYS: [&str; 3] = ["ka", "kb", "kc"];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS.len(), -50i64..50).prop_map(|(k, v)| Op::Write(k, v)),
        (0..KEYS.len(), -20i64..20, -50i64..50).prop_map(|(k, t, v)| Op::CondWriteGe(k, t, v)),
        (0..KEYS.len()).prop_map(Op::Read),
        (0..KEYS.len()).prop_map(Op::Inc),
        (0..KEYS.len()).prop_map(Op::Call),
    ]
}

/// What a crash-free execution leaves: both SSFs' keys and the checksum.
#[derive(Debug, PartialEq, Eq)]
struct Model {
    prog: [i64; 3],
    adder: [i64; 3],
    checksum: i64,
}

fn run_model(ops: &[Op]) -> Model {
    let (mut prog, mut adder, mut checksum) = ([0i64; 3], [0i64; 3], 0i64);
    let mut fold = |v: i64| checksum = checksum.wrapping_mul(31).wrapping_add(v);
    for op in ops {
        match *op {
            Op::Write(k, v) => prog[k] = v,
            Op::CondWriteGe(k, t, v) => {
                if prog[k] >= t {
                    prog[k] = v;
                }
            }
            Op::Read(k) => fold(prog[k]),
            Op::Inc(k) => prog[k] += 1,
            Op::Call(k) => {
                adder[k] += 1;
                fold(adder[k]);
            }
        }
    }
    Model {
        prog,
        adder,
        checksum,
    }
}

/// The program as an SSF `prog` over table `t`, calling `adder` (table
/// `c`); inside one transaction when `in_txn`. Small rows, so chains grow,
/// and a short re-launch delay, so a drain relaunches within the lease.
fn program_env(ops: Vec<Op>, in_txn: bool) -> BeldiEnv {
    let config = BeldiConfig::beldi()
        .with_row_capacity(2)
        .with_ic_restart_delay(Duration::from_millis(10));
    let env = BeldiEnv::for_tests_with(config);
    env.register_ssf(
        "adder",
        &["c"],
        Arc::new(|ctx, input| {
            let key = KEYS[input.as_int().unwrap_or(0) as usize];
            let v = ctx.read("c", key)?.as_int().unwrap_or(0) + 1;
            ctx.write("c", key, Value::Int(v))?;
            Ok(Value::Int(v))
        }),
    );
    env.register_ssf(
        "prog",
        &["t"],
        Arc::new(move |ctx, _| {
            if in_txn {
                ctx.begin_tx()?;
            }
            let mut checksum = 0i64;
            let mut fold = |v: Value| {
                let v = v.as_int().unwrap_or(0);
                checksum = checksum.wrapping_mul(31).wrapping_add(v);
            };
            for op in &ops {
                match *op {
                    Op::Write(k, v) => ctx.write("t", KEYS[k], Value::Int(v))?,
                    Op::CondWriteGe(k, t, v) => {
                        let cond = Cond::ge(beldi::A_VALUE, t);
                        ctx.cond_write("t", KEYS[k], Value::Int(v), cond)?;
                    }
                    Op::Read(k) => fold(ctx.read("t", KEYS[k])?),
                    Op::Inc(k) => {
                        let v = ctx.read("t", KEYS[k])?.as_int().unwrap_or(0);
                        ctx.write("t", KEYS[k], Value::Int(v + 1))?;
                    }
                    Op::Call(k) => fold(ctx.sync_invoke("adder", Value::Int(k as i64))?),
                }
            }
            if in_txn && ctx.end_tx()? != beldi::TxnOutcome::Committed {
                return Err(BeldiError::TxnAborted);
            }
            Ok(Value::Int(checksum))
        }),
    );
    for k in KEYS {
        env.seed("prog", "t", k, Value::Int(0)).unwrap();
        env.seed("adder", "c", k, Value::Int(0)).unwrap();
    }
    env
}

fn state(env: &BeldiEnv, ssf: &str, table: &str) -> [i64; 3] {
    KEYS.map(|k| {
        let v = env.read_current(ssf, table, k).unwrap();
        v.as_int().unwrap_or(0)
    })
}

/// The corruption a collector counted, summed.
fn counted(env: &BeldiEnv) -> u64 {
    let t = env.telemetry();
    [
        Metric::GcCorruptChains,
        Metric::GcCorruptIntents,
        Metric::IcCorrupt,
    ]
    .into_iter()
    .map(|m| t.get(m))
    .sum()
}

/// Whether `result` reports corruption: typed, or as the message of the
/// error it became when it crossed an invocation.
fn corrupt(result: &BeldiResult<Value>) -> bool {
    match result {
        Err(BeldiError::Corrupt { .. }) => true,
        Err(e) => e.to_string().contains("corrupt: "),
        Ok(_) => false,
    }
}

/// One way to damage an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// Remove a required attribute.
    Remove,
    /// Replace it with a value of another kind.
    Retype,
    /// Drop the last element of a list.
    Truncate,
}

/// The kinds of table a case damages a row of.
const KINDS: [&str; 4] = ["intent", "log", "data", "shadow"];

fn table(ssf: &str, kind: &str) -> String {
    match kind {
        "intent" => beldi::schema::intent_table(ssf),
        "log" => beldi::schema::log_table(ssf),
        "data" => beldi::schema::data_table(ssf, if ssf == "prog" { "t" } else { "c" }),
        _ => beldi::schema::shadow_table(ssf, if ssf == "prog" { "t" } else { "c" }),
    }
}

/// The damages `row` of a `kind` table admits, attribute by attribute.
fn damages(kind: &str, row: &Value) -> Vec<(String, Damage)> {
    let required: &[&str] = match kind {
        "intent" => &[A_DONE, A_CREATED, A_FINISH, A_LAST_LAUNCH, A_RET],
        "log" => &[A_VALUE, A_CALLEE_FN, A_FLAG],
        "data" => &[A_CREATED],
        _ if row.get_bool(A_WRITTEN) == Some(true) => {
            &[A_CREATED, A_ORIG_KEY, A_ORIG_TABLE, A_WRITTEN, A_VALUE]
        }
        _ => &[A_CREATED, A_ORIG_KEY, A_ORIG_TABLE, A_WRITTEN],
    };
    let untouched = [A_ID, A_LOG_KEY, A_KEY, A_ROW_ID, A_TXN_ID, "Appended"];
    let mut out = Vec::new();
    for (name, value) in row.as_map().unwrap().iter() {
        let name = name.as_str();
        if untouched.contains(&name) {
            continue;
        }
        if required.contains(&name) {
            out.push((name.to_owned(), Damage::Remove));
        }
        if name != A_VALUE {
            out.push((name.to_owned(), Damage::Retype));
        }
        if value.as_list().is_some_and(|l| !l.is_empty()) {
            out.push((name.to_owned(), Damage::Truncate));
        }
    }
    out
}

/// A value of another kind than `v`'s.
fn retyped(v: &Value) -> Value {
    match v {
        Value::Int(_) => Value::from("7"),
        Value::List(_) => Value::from("list"),
        _ => Value::Int(7),
    }
}

/// Damages one attribute of one row, chosen by `pick`, of a table of the
/// kind `kinds[0]` (or, when it has none, of the next kind); what it did.
fn damage(env: &BeldiEnv, ssf: &str, kind: usize, pick: u64) -> Option<String> {
    for kind in (0..KINDS.len()).map(|i| KINDS[(kind + i) % KINDS.len()]) {
        let name = table(ssf, kind);
        let rows = env.db().scan_all(&name, &ScanRequest::all()).unwrap();
        let slots: Vec<(usize, String, Damage)> = rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| damages(kind, row).into_iter().map(move |(a, d)| (i, a, d)))
            .collect();
        if slots.is_empty() {
            continue;
        }
        let (i, attr, how) = &slots[(pick % slots.len() as u64) as usize];
        let mut row = rows[*i].clone();
        let m = row.as_map_mut().unwrap();
        match how {
            Damage::Remove => drop(m.remove(attr)),
            Damage::Retype => {
                let bad = retyped(&m.get(attr).unwrap().clone());
                m.insert(attr.clone(), bad);
            }
            Damage::Truncate => drop(m.get_mut(attr).and_then(|l| match l {
                Value::List(l) => l.pop(),
                _ => None,
            })),
        }
        #[expect(clippy::disallowed_methods, reason = "plants corruption")]
        env.db().put(&name, row).unwrap();
        return Some(format!("{how:?} {name}/{i}.{attr}"));
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        ..ProptestConfig::default()
    })]

    /// A damaged row surfaces as corruption, or recovery reaches the
    /// model: never a panic, a hang, or an effect the model lacks.
    #[test]
    fn damaged_rows_are_reported_or_harmless(
        ops in prop::collection::vec(op_strategy(), 1..8),
        in_txn in 0usize..2,
        ordinal in 0usize..60,
        in_adder in 0usize..4,
        kind in 0usize..KINDS.len(),
        pick in 0u64..u64::MAX,
    ) {
        beldi::silence_crash_backtraces();
        let model = run_model(&ops);
        let env = program_env(ops, in_txn == 1);
        env.platform().faults().plan("root".to_owned(), CrashPlan::AtOrdinal(ordinal));
        let first = env.invoke_attempts("prog", "root", Value::Null, 1);
        // A root the crash left registered is the collector's to finish.
        let root_key = beldi_simdb::PrimaryKey::hash("root");
        let registered = env.db().get("prog.intent", &root_key, None).unwrap().is_some();
        let ssf = if in_adder == 0 { "adder" } else { "prog" };
        let what = damage(&env, ssf, kind, pick);

        env.drain_recovery(8).unwrap();
        for ssf in ["prog", "adder"] {
            env.run_gc_once(ssf).unwrap();
        }
        let drained = (state(&env, "prog", "t"), state(&env, "adder", "c"));
        let result = env.invoke_as("prog", "root", Value::Null);
        let context = format!("{what:?} in_txn {in_txn} ordinal {ordinal}, first {first:?}, result {result:?}");

        let crashes = env.platform_metrics().crashes;
        prop_assert_eq!(crashes, env.platform().faults().injected_count(), "a panic: {}", context);
        if !corrupt(&result) && counted(&env) == 0 {
            let recovered = Model {
                prog: state(&env, "prog", "t"),
                adder: state(&env, "adder", "c"),
                checksum: result.as_ref().ok().and_then(Value::as_int).unwrap_or(i64::MIN),
            };
            prop_assert_eq!(&recovered, &model, "{}", context);
            if registered {
                prop_assert_eq!(drained, (model.prog, model.adder), "drained: {}", context);
            }
        }
    }
}
