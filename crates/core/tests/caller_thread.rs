//! A synchronous invocation runs on its caller's thread, so a run that
//! makes only synchronous calls starts no thread.
//!
//! One test, so that nothing else in this process starts or ends a
//! thread while the count is read.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use beldi::value::Value;
use beldi::BeldiEnv;
use parking_lot::Mutex;

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn sync_calls_run_on_the_callers_thread_and_start_none() {
    let at_start = threads_now();
    let env = BeldiEnv::for_tests();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let noted = seen.clone();
    env.register_ssf(
        "inner",
        &[],
        Arc::new(move |_ctx, input| {
            noted.lock().push(std::thread::current().id());
            Ok(input)
        }),
    );
    let noted = seen.clone();
    env.register_ssf(
        "outer",
        &[],
        Arc::new(move |ctx, input| {
            noted.lock().push(std::thread::current().id());
            // `inner`'s result comes back through a callback into
            // `outer` (§4.5): a third invocation per call.
            ctx.sync_invoke("inner", input)
        }),
    );
    for i in 0..20 {
        assert_eq!(env.invoke("outer", Value::Int(i)).unwrap(), Value::Int(i));
    }

    let seen = seen.lock().clone();
    assert_eq!(seen.len(), 40);
    let caller = std::thread::current().id();
    assert!(seen.iter().all(|thread| *thread == caller), "{seen:?}");
    let m = env.platform_metrics();
    assert_eq!(m.invocations, 60);
    assert!(m.cold_starts >= 2, "one container per SSF at least");
    assert_eq!(threads_now(), at_start, "no thread started");
    drop(env);
    assert_eq!(threads_now(), at_start);
}
