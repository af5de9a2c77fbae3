//! Workflow composition tests: synchronous/asynchronous invocations,
//! callbacks, recursion, and driver-function graphs (§2.1, §4.5).

use std::sync::Arc;
use std::time::Duration;

use beldi::value::{vmap, Value};
use beldi::{BeldiConfig, BeldiEnv, BeldiError};

mod common;
use common::{contended_env, join_all, spawn};

/// Two-SSF chain: `outer` invokes `inner` and combines results.
fn chain_env(cfg: BeldiConfig) -> BeldiEnv {
    let env = BeldiEnv::for_tests_with(cfg);
    env.register_ssf(
        "inner",
        &["state"],
        Arc::new(|ctx, input| {
            let n = input.as_int().unwrap_or(0);
            let seen = ctx.read("state", "calls")?.as_int().unwrap_or(0);
            ctx.write("state", "calls", Value::Int(seen + 1))?;
            Ok(Value::Int(n * 2))
        }),
    );
    env.register_ssf(
        "outer",
        &["state"],
        Arc::new(|ctx, input| {
            let doubled = ctx.sync_invoke("inner", input)?;
            let n = doubled.as_int().unwrap_or(0);
            ctx.write("state", "last", Value::Int(n + 1))?;
            Ok(Value::Int(n + 1))
        }),
    );
    env
}

#[test]
fn sync_invoke_chain_returns_result() {
    let env = chain_env(BeldiConfig::beldi());
    let out = env.invoke("outer", Value::Int(5)).unwrap();
    assert_eq!(out, Value::Int(11));
    assert_eq!(
        env.read_current("outer", "state", "last").unwrap(),
        Value::Int(11)
    );
    assert_eq!(
        env.read_current("inner", "state", "calls").unwrap(),
        Value::Int(1)
    );
}

#[test]
fn sync_invoke_chain_works_in_all_modes() {
    for cfg in [
        BeldiConfig::beldi(),
        BeldiConfig::cross_table(),
        BeldiConfig::baseline(),
    ] {
        let env = chain_env(cfg);
        assert_eq!(env.invoke("outer", Value::Int(3)).unwrap(), Value::Int(7));
    }
}

#[test]
fn callee_errors_propagate_to_caller() {
    let env = BeldiEnv::for_tests();
    env.register_ssf(
        "failing",
        &[],
        Arc::new(|_, _| Err(BeldiError::Protocol("deliberate".into()))),
    );
    env.register_ssf(
        "driver",
        &[],
        Arc::new(|ctx, _| ctx.sync_invoke("failing", Value::Null)),
    );
    match env.invoke("driver", Value::Null) {
        Err(BeldiError::Protocol(m)) => assert!(m.contains("deliberate")),
        other => panic!("expected protocol error, got {other:?}"),
    }
}

#[test]
fn three_level_chain_and_fanout() {
    // driver -> a, b; a -> b. A diamond-ish driver graph.
    let env = BeldiEnv::for_tests();
    env.register_ssf(
        "b",
        &["t"],
        Arc::new(|ctx, input| {
            let n = input.as_int().unwrap_or(0);
            let c = ctx.read("t", "count")?.as_int().unwrap_or(0);
            ctx.write("t", "count", Value::Int(c + 1))?;
            Ok(Value::Int(n + 100))
        }),
    );
    env.register_ssf("a", &[], Arc::new(|ctx, input| ctx.sync_invoke("b", input)));
    env.register_ssf(
        "driver",
        &[],
        Arc::new(|ctx, input| {
            let x = ctx.sync_invoke("a", input.clone())?.as_int().unwrap();
            let y = ctx.sync_invoke("b", input)?.as_int().unwrap();
            Ok(Value::Int(x + y))
        }),
    );
    assert_eq!(
        env.invoke("driver", Value::Int(1)).unwrap(),
        Value::Int(202)
    );
    // b executed twice (once via a, once directly).
    assert_eq!(env.read_current("b", "t", "count").unwrap(), Value::Int(2));
}

#[test]
fn recursive_ssf_terminates_with_distinct_instances() {
    // Recursion through the platform: factorial via self-invocation. Every
    // recursive call is a distinct instance id (§3.3).
    let env = BeldiEnv::for_tests();
    env.register_ssf(
        "fact",
        &[],
        Arc::new(|ctx, input| {
            let n = input.as_int().unwrap_or(0);
            if n <= 1 {
                return Ok(Value::Int(1));
            }
            let sub = ctx.sync_invoke("fact", Value::Int(n - 1))?;
            Ok(Value::Int(n * sub.as_int().unwrap()))
        }),
    );
    assert_eq!(env.invoke("fact", Value::Int(6)).unwrap(), Value::Int(720));
}

/// A synchronous call runs on its caller's thread, so a chain of them
/// shares one stack: 32 links deep, on a thread started through the
/// clock (a spawned thread's stack, not the test's main thread's), it
/// completes.
#[test]
fn a_32_deep_sync_chain_completes_on_one_spawned_thread() {
    const DEPTH: i64 = 32;
    let env = Arc::new(BeldiEnv::for_tests());
    let threads = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen = threads.clone();
    env.register_ssf(
        "link",
        &[],
        Arc::new(move |ctx, input| {
            seen.lock().push(std::thread::current().id());
            let n = input.as_int().unwrap_or(0);
            if n == DEPTH {
                return Ok(Value::Int(n));
            }
            ctx.sync_invoke("link", Value::Int(n + 1))
        }),
    );
    let root = spawn(&env, "root", |env| {
        assert_eq!(
            env.invoke("link", Value::Int(1)).unwrap(),
            Value::Int(DEPTH)
        );
    });
    join_all(vec![root]);
    let threads = threads.lock().clone();
    assert_eq!(threads.len(), DEPTH as usize);
    assert_ne!(threads[0], std::thread::current().id());
    assert!(threads.iter().all(|t| *t == threads[0]), "{threads:?}");
}

#[test]
fn async_invoke_runs_exactly_once() {
    let env = BeldiEnv::for_tests();
    env.register_ssf(
        "sink",
        &["t"],
        Arc::new(|ctx, input| {
            let c = ctx.read("t", "count")?.as_int().unwrap_or(0);
            ctx.write("t", "count", Value::Int(c + 1))?;
            ctx.write("t", "last", input)?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf(
        "src",
        &[],
        Arc::new(|ctx, input| {
            ctx.async_invoke("sink", input)?;
            Ok(Value::from("fired"))
        }),
    );
    assert_eq!(
        env.invoke("src", Value::Int(9)).unwrap(),
        Value::from("fired")
    );
    // Wait for the async sink to land.
    let deadline = env.clock().now().plus(Duration::from_secs(5));
    loop {
        let c = env.read_current("sink", "t", "count").unwrap();
        if c == Value::Int(1) {
            break;
        }
        assert!(env.clock().now() < deadline, "async sink never ran");
        env.clock().sleep(Duration::from_millis(2));
    }
    assert_eq!(
        env.read_current("sink", "t", "last").unwrap(),
        Value::Int(9)
    );
    // Drive the IC a few times: the completed intent must not re-fire.
    for _ in 0..3 {
        env.run_ic_once("sink").unwrap();
    }
    env.clock().sleep(Duration::from_millis(20));
    assert_eq!(
        env.read_current("sink", "t", "count").unwrap(),
        Value::Int(1)
    );
}

#[test]
fn concurrent_root_invocations_are_isolated() {
    let env = Arc::new(contended_env(BeldiConfig::beldi()));
    env.register_ssf(
        "acc",
        &["t"],
        Arc::new(|ctx, input| {
            let key = input.get_str("key").unwrap().to_owned();
            let cur = ctx.read("t", &key)?.as_int().unwrap_or(0);
            ctx.write("t", &key, Value::Int(cur + 1))?;
            Ok(Value::Null)
        }),
    );
    let threads = (0..8)
        .map(|i| {
            spawn(&env, format!("client-{i}"), move |env| {
                for _ in 0..5 {
                    env.invoke("acc", vmap! { "key" => format!("k{i}") })
                        .unwrap();
                }
            })
        })
        .collect();
    join_all(threads);
    for i in 0..8 {
        assert_eq!(
            env.read_current("acc", "t", &format!("k{i}")).unwrap(),
            Value::Int(5),
            "key k{i}"
        );
    }
}

#[test]
fn contended_counter_with_locks_is_linear() {
    // Many concurrent workflows increment one counter under the lock API;
    // the result must equal the number of invocations.
    let env = Arc::new(contended_env(BeldiConfig::beldi()));
    env.register_ssf(
        "locked-inc",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.lock("t", "counter")?;
            let cur = ctx.read("t", "counter")?.as_int().unwrap_or(0);
            ctx.write("t", "counter", Value::Int(cur + 1))?;
            ctx.unlock("t", "counter")?;
            Ok(Value::Int(cur + 1))
        }),
    );
    let threads = (0..6)
        .map(|i| {
            spawn(&env, format!("client-{i}"), |env| {
                for _ in 0..4 {
                    env.invoke("locked-inc", Value::Null).unwrap();
                }
            })
        })
        .collect();
    join_all(threads);
    assert_eq!(
        env.read_current("locked-inc", "t", "counter").unwrap(),
        Value::Int(24)
    );
}

#[test]
fn caller_and_async_introspection() {
    let env = BeldiEnv::for_tests();
    env.register_ssf(
        "callee",
        &[],
        Arc::new(|ctx, _| {
            Ok(vmap! {
                "caller" => ctx.caller().unwrap_or("none"),
                "async" => ctx.is_async(),
            })
        }),
    );
    env.register_ssf(
        "caller-fn",
        &[],
        Arc::new(|ctx, _| ctx.sync_invoke("callee", Value::Null)),
    );
    let out = env.invoke("caller-fn", Value::Null).unwrap();
    assert_eq!(out.get_str("caller"), Some("caller-fn"));
    assert_eq!(out.get_bool("async"), Some(false));
    // Root invocations have no caller.
    let root = env.invoke("callee", Value::Null).unwrap();
    assert_eq!(root.get_str("caller"), Some("none"));
}
