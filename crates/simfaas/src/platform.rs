//! The simulated FaaS [`Platform`].

use std::cell::Cell;
use std::collections::HashMap;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::time::Duration;

use beldi_simclock::{park_on, Permit, ScaledClock, Semaphore, SharedClock, Ticker, TickerHandle};
use beldi_value::Value;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::{InvokeError, InvokeResult};
use crate::fault::{CrashSignal, FaultInjector};
use crate::labels;
use crate::metrics::{PlatformMetrics, PlatformSnapshot};

/// Context handed to a running function instance.
#[derive(Clone)]
pub struct InvocationCtx {
    /// The fresh id the platform assigned to this execution (AWS "request
    /// id"). Beldi uses it as the instance id of workflow-root SSFs.
    pub request_id: String,
    /// Name the function was invoked under.
    pub function: String,
    /// Handle back to the platform (for nested invocations).
    pub platform: Arc<Platform>,
}

/// A registered function body.
///
/// Returning normally completes the invocation; panicking models a crash
/// (the injector's [`CrashSignal`] or a genuine bug) and surfaces to
/// synchronous callers as [`InvokeError::Crashed`].
pub type FunctionHandler = Arc<dyn Fn(&InvocationCtx, Value) -> Value + Send + Sync>;

/// What to do when the concurrency cap is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturationPolicy {
    /// Queue the invocation until a worker slot frees (latency grows at
    /// saturation — the shape in Figs. 14/15/26).
    Queue,
    /// Reject immediately with [`InvokeError::Throttled`] (AWS gateway
    /// behaviour beyond the account limit).
    Reject,
}

/// Platform tuning knobs. Durations are in *virtual* time.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Account-wide concurrent instance cap (AWS: 1,000).
    pub concurrency_limit: usize,
    /// How long a synchronous caller waits before giving up.
    pub invoke_timeout: Duration,
    /// Worker cold-start penalty.
    pub cold_start: Duration,
    /// Warm-start overhead.
    pub warm_start: Duration,
    /// Fixed per-invocation network/dispatch overhead.
    pub invoke_overhead: Duration,
    /// Max idle warm workers retained per function.
    pub warm_pool_per_fn: usize,
    /// Behaviour at the concurrency cap.
    pub saturation: SaturationPolicy,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            concurrency_limit: 1000,
            invoke_timeout: Duration::from_secs(60),
            cold_start: Duration::from_millis(120),
            warm_start: Duration::from_millis(1),
            invoke_overhead: Duration::from_millis(8),
            warm_pool_per_fn: 512,
            saturation: SaturationPolicy::Queue,
        }
    }
}

impl PlatformConfig {
    /// A zero-overhead configuration for unit tests.
    pub fn for_tests() -> Self {
        PlatformConfig {
            concurrency_limit: 10_000,
            invoke_timeout: Duration::from_secs(3600),
            cold_start: Duration::ZERO,
            warm_start: Duration::ZERO,
            invoke_overhead: Duration::ZERO,
            warm_pool_per_fn: 10_000,
            saturation: SaturationPolicy::Queue,
        }
    }
}

#[derive(Clone)]
struct FunctionEntry {
    handler: FunctionHandler,
    /// Number of idle warm workers for this function.
    warm_idle: Arc<Mutex<usize>>,
}

/// Handle to a timer trigger; the timer stops when this is dropped or
/// stopped.
pub struct TimerHandle {
    inner: Option<TickerHandle>,
}

impl TimerHandle {
    /// Stops the timer.
    pub fn stop(mut self) {
        if let Some(t) = self.inner.take() {
            t.stop();
        }
    }
}

/// The simulated serverless platform.
pub struct Platform {
    functions: RwLock<HashMap<String, FunctionEntry>>,
    clock: SharedClock,
    config: PlatformConfig,
    permits: Semaphore,
    faults: FaultInjector,
    metrics: PlatformMetrics,
    uuid_rng: Mutex<SmallRng>,
    uuid_ctr: AtomicU64,
}

impl Platform {
    /// Creates a platform on the given clock.
    pub fn new(clock: SharedClock, config: PlatformConfig, seed: u64) -> Arc<Self> {
        let permits = Semaphore::new(config.concurrency_limit);
        Arc::new(Platform {
            functions: RwLock::new(HashMap::new()),
            clock,
            config,
            permits,
            faults: FaultInjector::new(),
            metrics: PlatformMetrics::new(),
            uuid_rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            uuid_ctr: AtomicU64::new(0),
        })
    }

    /// Creates a zero-overhead platform on a real-time clock, for tests.
    pub fn for_tests() -> Arc<Self> {
        Platform::new(ScaledClock::shared(1.0), PlatformConfig::for_tests(), 0)
    }

    /// Returns the platform clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Returns the platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Returns the fault injector.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Returns a snapshot of invocation metrics.
    pub fn metrics(&self) -> PlatformSnapshot {
        self.metrics.snapshot()
    }

    /// Generates a fresh unique id (deterministic per platform seed).
    ///
    /// Serves as AWS's "request id" and as Beldi's caller-generated callee
    /// ids (§3.3).
    pub fn new_uuid(&self) -> String {
        let n = self.uuid_ctr.fetch_add(1, Ordering::Relaxed);
        let r: u64 = self.uuid_rng.lock().gen();
        format!("{r:016x}-{n:08x}")
    }

    /// Registers (or replaces) a function under `name`.
    pub fn register(&self, name: impl Into<String>, handler: FunctionHandler) {
        self.functions.write().insert(
            name.into(),
            FunctionEntry {
                handler,
                warm_idle: Arc::new(Mutex::new(0)),
            },
        );
    }

    fn lookup(&self, name: &str) -> InvokeResult<FunctionEntry> {
        let functions = self.functions.read();
        functions
            .get(name)
            .cloned()
            .ok_or_else(|| InvokeError::FunctionNotFound(name.to_owned()))
    }

    /// The one admission step behind every entry point: resolves `name`
    /// and takes a concurrency permit under the saturation policy —
    /// `Reject` throttles at once, `Queue` parks the caller's waker in
    /// the semaphore until a permit frees.
    async fn admit(&self, name: &str) -> InvokeResult<(FunctionEntry, Permit)> {
        let entry = self.lookup(name)?;
        let permit = match self.config.saturation {
            SaturationPolicy::Queue => self.permits.acquire().await,
            SaturationPolicy::Reject => {
                self.permits.try_acquire().ok_or_else(|| self.throttled())?
            }
        };
        Ok((entry, permit))
    }

    /// Counts and names a refusal at the concurrency cap.
    fn throttled(&self) -> InvokeError {
        self.metrics.record_throttle();
        InvokeError::Throttled
    }

    /// The one completion step: launches the admitted invocation and
    /// resolves to the worker's reply. The worker fills a cell and wakes
    /// whoever awaits it — an executor task, or a thread in [`park_on`].
    async fn complete(
        self: &Arc<Self>,
        name: &str,
        admitted: (FunctionEntry, Permit),
        payload: Value,
    ) -> InvokeResult<Value> {
        let cell = Arc::new(Mutex::new(Completion::default()));
        let filled = cell.clone();
        let sink = move |reply| {
            let waker = {
                let mut c = filled.lock();
                c.reply = Some(reply);
                c.waker.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        };
        self.launch_worker(name, admitted, payload, Box::new(sink));
        std::future::poll_fn(|cx| {
            let mut c = cell.lock();
            match c.reply.take() {
                Some(reply) => Poll::Ready(reply),
                None => {
                    c.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        })
        .await
    }

    /// Invokes a function synchronously, returning its result.
    ///
    /// The calling thread parks on the same admission and completion
    /// steps [`Platform::invoke_pending`] awaits, up to the configured
    /// timeout in virtual time: [`InvokeError::Throttled`] if that
    /// passes while the invocation is still queued for a permit,
    /// [`InvokeError::Timeout`] once it is running (the abandoned worker
    /// runs on and frees its own permit). The instance runs on its own
    /// worker thread; a panic inside the handler — including injected
    /// [`CrashSignal`]s — yields [`InvokeError::Crashed`].
    pub fn invoke_sync(self: &Arc<Self>, name: &str, payload: Value) -> InvokeResult<Value> {
        let deadline = self.clock.now().plus(self.config.invoke_timeout);
        let queued = Cell::new(true);
        let invocation = async {
            let admitted = self.admit(name).await?;
            queued.set(false);
            self.complete(name, admitted, payload).await
        };
        match park_on(&self.clock, deadline, invocation) {
            Some(result) => result,
            None if queued.get() => Err(self.throttled()),
            None => {
                self.metrics.record_timeout();
                Err(InvokeError::Timeout)
            }
        }
    }

    /// Invokes a function asynchronously (fire and forget): blocks only
    /// until the invocation is admitted, then returns the request id
    /// assigned to the execution.
    pub fn invoke_async(self: &Arc<Self>, name: &str, payload: Value) -> InvokeResult<String> {
        let deadline = self.clock.now().plus(self.config.invoke_timeout);
        let admitted =
            park_on(&self.clock, deadline, self.admit(name)).ok_or_else(|| self.throttled())??;
        Ok(self.launch_worker(name, admitted, payload, Box::new(|_| {})))
    }

    /// Invokes a function without blocking: the returned future waits
    /// for a concurrency permit (parked on a waker, not a thread) and
    /// then for the worker's completion. This is the async executor's
    /// entry point — ten thousand pending invocations cost ten thousand
    /// parked tasks, not ten thousand blocked threads.
    ///
    /// Unlike [`Platform::invoke_sync`] there is no caller-side timeout:
    /// queued invocations wait for a permit indefinitely (the platform
    /// `T_max` execution lease bounds runaway workers instead). Under
    /// [`SaturationPolicy::Reject`] the future resolves to
    /// [`InvokeError::Throttled`] immediately when no permit is free.
    pub fn invoke_pending(
        self: &Arc<Self>,
        name: &str,
        payload: Value,
    ) -> impl Future<Output = InvokeResult<Value>> + Send + 'static {
        let platform = self.clone();
        let name = name.to_owned();
        async move {
            let admitted = platform.admit(&name).await?;
            platform.complete(&name, admitted, payload).await
        }
    }

    /// Starts a worker for an admitted invocation and returns its
    /// request id. The worker runs the handler on its own thread,
    /// returns itself to the warm pool and frees the permit, then
    /// delivers exactly one reply through `sink`.
    fn launch_worker(
        self: &Arc<Self>,
        name: &str,
        admitted: (FunctionEntry, Permit),
        payload: Value,
        sink: Box<dyn FnOnce(InvokeResult<Value>) + Send>,
    ) -> String {
        let (FunctionEntry { handler, warm_idle }, permit) = admitted;
        // Cold or warm start?
        let cold = {
            let mut idle = warm_idle.lock();
            if *idle > 0 {
                *idle -= 1;
                false
            } else {
                true
            }
        };

        let request_id = self.new_uuid();
        let ctx = InvocationCtx {
            request_id: request_id.clone(),
            function: name.to_owned(),
            platform: self.clone(),
        };
        let platform = self.clone();
        let fn_name = name.to_owned();
        let startup = self.config.invoke_overhead
            + if cold {
                self.config.cold_start
            } else {
                self.config.warm_start
            };
        let warm_cap = self.config.warm_pool_per_fn;
        self.metrics.start(cold);
        let worker = move || {
            let run = || {
                platform.clock.sleep(startup);
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    // The worker booted (startup delay paid) but may
                    // die before the handler runs: the permit is
                    // still freed below and the caller sees
                    // `Crashed`, so recovery must re-run the intent
                    // from scratch.
                    platform
                        .faults
                        .crash_point(&ctx.request_id, labels::WORKER_PRE_HANDLER);
                    (handler)(&ctx, payload)
                }));
                // The request id is this run's alone (a re-execution is a
                // new request): the injector need not remember it.
                platform.faults.forget(&ctx.request_id);
                let reply = match result {
                    Ok(value) => {
                        platform.metrics.finish_ok();
                        Ok(value)
                    }
                    Err(panic) => {
                        platform.metrics.finish_crash();
                        Err(InvokeError::Crashed(describe_panic(panic)))
                    }
                };
                let mut idle = warm_idle.lock();
                if *idle < warm_cap {
                    *idle += 1;
                }
                reply
            };
            // A worker that dies outside its handler (while booting,
            // say) still owes its caller a reply: without one a task
            // in `invoke_pending`, which has no timeout, waits forever.
            let reply = std::panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
                platform.metrics.finish_crash();
                Err(InvokeError::Crashed("worker-lost".into()))
            });
            // Free the permit (the worker is already back in the warm
            // pool) *before* replying: a closed-loop caller re-invokes
            // the moment the reply lands, and must find this worker
            // warm and its permit free rather than race them.
            drop(permit);
            sink(reply);
        };
        // Detached: the worker's reply, not its exit, is what callers await.
        self.clock.spawn(format!("ssf-{fn_name}"), Box::new(worker));
        request_id
    }

    /// Schedules `function` to be invoked asynchronously every `period`
    /// (virtual time) with the given payload — the timer trigger used for
    /// intent and garbage collectors (§7.2).
    pub fn schedule_timer(
        self: &Arc<Self>,
        function: impl Into<String>,
        period: Duration,
        payload: Value,
    ) -> TimerHandle {
        let platform = self.clone();
        let function = function.into();
        let ticker = Ticker::spawn(self.clock.clone(), period, move || {
            let _ = platform.invoke_async(&function, payload.clone());
        });
        TimerHandle {
            inner: Some(ticker),
        }
    }
}

/// The worker→caller completion cell of [`Platform::complete`].
#[derive(Default)]
struct Completion {
    reply: Option<InvokeResult<Value>>,
    waker: Option<Waker>,
}

fn describe_panic(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(sig) = panic.downcast_ref::<CrashSignal>() {
        sig.point.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <opaque>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;
    use beldi_simclock::{Clock, SimClock, SimInstant};
    use beldi_value::vmap;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn echo_handler() -> FunctionHandler {
        Arc::new(|_ctx, payload| payload)
    }

    /// A handler that blocks until the returned sender passes it a token
    /// (one per invocation) or is dropped (all at once).
    fn gated_handler() -> (mpsc::Sender<()>, FunctionHandler) {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let handler: FunctionHandler = Arc::new(move |_ctx, payload| {
            let _ = rx.lock().recv();
            payload
        });
        (tx, handler)
    }

    /// A one-permit `Queue` platform on `clock`.
    fn one_permit(clock: SharedClock, invoke_timeout: Duration) -> Arc<Platform> {
        let config = PlatformConfig {
            concurrency_limit: 1,
            invoke_timeout,
            ..PlatformConfig::for_tests()
        };
        Platform::new(clock, config, 0)
    }

    /// Spins (yielding) until `cond` holds: waits for another thread to
    /// reach a state the test can observe, with no time margin.
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sync_invoke_returns_result() {
        let p = Platform::for_tests();
        p.register("echo", echo_handler());
        let out = p.invoke_sync("echo", vmap! { "x" => 42i64 }).unwrap();
        assert_eq!(out.get_int("x"), Some(42));
        let m = p.metrics();
        assert_eq!(m.invocations, 1);
        assert_eq!(m.completions, 1);
    }

    #[test]
    fn unknown_function_is_an_error() {
        let p = Platform::for_tests();
        assert!(matches!(
            p.invoke_sync("nope", Value::Null),
            Err(InvokeError::FunctionNotFound(_))
        ));
    }

    #[test]
    fn request_ids_are_unique() {
        let p = Platform::for_tests();
        let ids: std::collections::HashSet<String> = (0..1000).map(|_| p.new_uuid()).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn handler_panic_surfaces_as_crash() {
        let p = Platform::for_tests();
        p.register(
            "boom",
            Arc::new(|_ctx: &InvocationCtx, _payload: Value| -> Value {
                panic!("kaboom");
            }),
        );
        let err = p.invoke_sync("boom", Value::Null).unwrap_err();
        assert!(matches!(err, InvokeError::Crashed(ref m) if m.contains("kaboom")));
        assert_eq!(p.metrics().crashes, 1);
    }

    #[test]
    fn injected_crash_surfaces_with_point_label() {
        let p = Platform::for_tests();
        let p2 = p.clone();
        p.register(
            "flaky",
            Arc::new(move |ctx: &InvocationCtx, _| -> Value {
                p2.faults().instance_started(&ctx.request_id);
                p2.faults()
                    .crash_point(&ctx.request_id, labels::WRITE_AFTER);
                Value::from("survived")
            }),
        );
        // No plan: survives.
        assert_eq!(
            p.invoke_sync("flaky", Value::Null).unwrap(),
            Value::from("survived")
        );
        // We don't know the next request id in advance, so install a
        // global label-targeted plan (a blanket random policy would fire
        // at `worker.pre_handler` before the handler's own probe).
        p.faults()
            .set_global_plan(Some(crate::CrashPlan::AtLabel(labels::WRITE_AFTER.into())));
        let err = p.invoke_sync("flaky", Value::Null).unwrap_err();
        assert!(matches!(err, InvokeError::Crashed(ref pt) if pt.contains(labels::WRITE_AFTER)));
        // One-shot plan consumed: next call survives.
        assert!(p.invoke_sync("flaky", Value::Null).is_ok());
    }

    #[test]
    fn worker_pre_handler_crash_frees_permit() {
        let p = Platform::for_tests();
        let entered = Arc::new(AtomicU64::new(0));
        let entered2 = entered.clone();
        p.register(
            "victim",
            Arc::new(move |_ctx: &InvocationCtx, _| -> Value {
                entered2.fetch_add(1, Ordering::SeqCst);
                Value::from("ran")
            }),
        );
        p.faults().set_random_policy(Some(crate::RandomCrashPolicy {
            prob: 1.0,
            max_crashes: 1,
            seed: 7,
        }));
        // The worker dies at `worker.pre_handler`: the handler never runs,
        // the caller sees `Crashed` naming the label, and the permit is
        // freed so the next invocation still gets a worker.
        let err = p.invoke_sync("victim", Value::Null).unwrap_err();
        assert!(
            matches!(err, InvokeError::Crashed(ref pt) if pt.contains(labels::WORKER_PRE_HANDLER))
        );
        assert_eq!(entered.load(Ordering::SeqCst), 0);
        assert_eq!(
            p.invoke_sync("victim", Value::Null).unwrap(),
            Value::from("ran")
        );
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_sync_invocations() {
        let p = Platform::for_tests();
        p.register("inner", echo_handler());
        p.register(
            "outer",
            Arc::new(|ctx: &InvocationCtx, payload: Value| {
                ctx.platform
                    .invoke_sync("inner", payload)
                    .expect("inner must succeed")
            }),
        );
        let out = p.invoke_sync("outer", vmap! { "v" => 7i64 }).unwrap();
        assert_eq!(out.get_int("v"), Some(7));
        assert_eq!(p.metrics().invocations, 2);
    }

    #[test]
    fn async_invoke_runs_eventually() {
        let p = Platform::for_tests();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        p.register(
            "bump",
            Arc::new(move |_ctx: &InvocationCtx, _| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Value::Null
            }),
        );
        let rid = p.invoke_async("bump", Value::Null).unwrap();
        assert!(!rid.is_empty());
        for _ in 0..100 {
            if hits.load(Ordering::SeqCst) == 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("async invocation never ran");
    }

    #[test]
    fn concurrency_cap_rejects_when_policy_is_reject() {
        let mut cfg = PlatformConfig::for_tests();
        cfg.concurrency_limit = 1;
        cfg.saturation = SaturationPolicy::Reject;
        let p = Platform::new(ScaledClock::shared(1.0), cfg, 0);
        let (gate, slow) = gated_handler();
        p.register("slow", slow);
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.invoke_sync("slow", Value::Null));
        // Wait for the first invocation to hold the only permit.
        wait_until(|| p.metrics().active == 1);
        assert_eq!(
            p.invoke_sync("slow", Value::Null),
            Err(InvokeError::Throttled)
        );
        gate.send(()).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(p.metrics().throttles, 1);
    }

    #[test]
    fn warm_pool_reduces_cold_starts() {
        let p = Platform::for_tests();
        p.register("echo", echo_handler());
        p.invoke_sync("echo", Value::Null).unwrap();
        p.invoke_sync("echo", Value::Null).unwrap();
        p.invoke_sync("echo", Value::Null).unwrap();
        let m = p.metrics();
        assert_eq!(m.cold_starts, 1, "only the first start is cold");
        assert_eq!(m.warm_starts, 2);
    }

    /// Closed-loop callers re-invoke the moment a reply lands. With one
    /// permit and the re-invoke issued *from the reply callback*, the
    /// worker must already be back in the pool with its permit free.
    #[test]
    fn reinvoke_from_reply_callback_is_never_cold() {
        const REINVOKES: usize = 20;

        fn invoke_chain(p: Arc<Platform>, left: usize, done: mpsc::Sender<()>) {
            let entry = p.lookup("echo").unwrap();
            let permit = p
                .permits
                .try_acquire()
                .expect("permit still held at reply time");
            let next = p.clone();
            p.launch_worker(
                "echo",
                (entry, permit),
                Value::Null,
                Box::new(move |result| {
                    result.unwrap();
                    match left {
                        0 => done.send(()).unwrap(),
                        _ => invoke_chain(next, left - 1, done),
                    }
                }),
            );
        }

        let p = one_permit(ScaledClock::shared(1.0), Duration::from_secs(3600));
        p.register("echo", echo_handler());
        let (done_tx, done_rx) = mpsc::channel();
        invoke_chain(p.clone(), REINVOKES, done_tx);
        // A callback that panics drops its sender, which ends the wait.
        done_rx
            .recv()
            .expect("a reply callback failed to re-invoke");
        let m = p.metrics();
        assert_eq!(m.cold_starts, 1, "only the first start is cold");
        assert_eq!(m.warm_starts, REINVOKES as u64);
    }

    /// A clock on which no worker survives its start-up delay: `sleep`
    /// runs outside the handler's `catch_unwind`.
    struct BootKillingClock;

    impl Clock for BootKillingClock {
        fn now(&self) -> SimInstant {
            SimInstant::EPOCH
        }

        fn sleep(&self, _: Duration) {
            panic!("worker dies while booting");
        }
    }

    /// A worker lost before it replies must fail its caller, not hang
    /// it, whichever way the caller waits; and it must not keep its
    /// permit (one permit: the second call would queue forever).
    #[test]
    fn lost_worker_fails_the_caller_on_both_fronts() {
        let p = one_permit(Arc::new(BootKillingClock), Duration::from_secs(3600));
        p.register("echo", echo_handler());
        let lost = Err(InvokeError::Crashed("worker-lost".into()));

        assert_eq!(p.invoke_sync("echo", Value::Null), lost);
        assert_eq!(p.permits.available(), 1);
        assert_eq!(p.metrics().active, 0);

        let rt = beldi_runtime::Executor::new(p.clock().clone(), 1);
        assert_eq!(rt.block_on(p.invoke_pending("echo", Value::Null)), lost);
        assert_eq!(p.permits.available(), 1);
        assert_eq!(p.metrics().active, 0);
        assert_eq!(p.metrics().crashes, 2);
    }

    /// Threads in `invoke_sync` and tasks in `invoke_pending` queue on
    /// one semaphore: every invocation completes and the cap holds.
    #[test]
    fn mixed_fronts_share_one_permit_pool() {
        let mut cfg = PlatformConfig::for_tests();
        cfg.concurrency_limit = 2;
        let p = Platform::new(ScaledClock::shared(1000.0), cfg, 0);
        p.register(
            "work",
            Arc::new(|ctx: &InvocationCtx, v| {
                ctx.platform.clock().sleep(Duration::from_millis(500));
                v
            }),
        );
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let p = p.clone();
                std::thread::spawn(move || p.invoke_sync("work", Value::Int(i)))
            })
            .collect();
        let rt = beldi_runtime::Executor::new(p.clock().clone(), 3);
        let tasks: Vec<_> = (6..12)
            .map(|i| rt.spawn(p.invoke_pending("work", Value::Int(i))))
            .collect();
        rt.run();
        let mut seen: Vec<Value> = threads
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        seen.extend(tasks.into_iter().map(|h| h.take_result().unwrap().unwrap()));
        assert_eq!(seen, (0..12).map(Value::Int).collect::<Vec<_>>());
        let m = p.metrics();
        assert_eq!(m.completions, 12);
        assert!(m.peak_active <= 2, "cap breached: {}", m.peak_active);
        assert_eq!(p.permits.available(), 2);
    }

    /// The sync front's timeout is virtual and names where the
    /// invocation was when it passed: `Timeout` if running, `Throttled`
    /// if still queued. Neither abandoned invocation leaks a permit.
    #[test]
    fn sync_deadline_distinguishes_queued_from_running() {
        let timeout = Duration::from_secs(10);
        let clock = SimClock::shared(0);
        let p = one_permit(clock.clone(), timeout);
        // Holds the only permit for 25 s: past the first caller's
        // deadline (10 s) and the second's (20 s).
        p.register(
            "hold",
            Arc::new(|ctx: &InvocationCtx, v| {
                ctx.platform.clock().sleep(Duration::from_secs(25));
                v
            }),
        );
        p.register("echo", echo_handler());

        // Running: the handler is in when the deadline passes.
        assert_eq!(
            p.invoke_sync("hold", Value::Null),
            Err(InvokeError::Timeout)
        );
        assert_eq!(clock.now(), SimInstant::from_millis(10_000));
        assert_eq!(p.metrics().timeouts, 1);
        assert_eq!(p.permits.available(), 0, "the abandoned worker runs on");

        // Queued behind that worker until its own deadline.
        assert_eq!(
            p.invoke_sync("echo", Value::Null),
            Err(InvokeError::Throttled)
        );
        assert_eq!(clock.now(), SimInstant::from_millis(20_000));
        let m = p.metrics();
        assert_eq!((m.throttles, m.timeouts, m.invocations), (1, 1, 1));

        // Let the abandoned worker finish: its permit comes back, and the
        // withdrawn waiter took none with it.
        clock.sleep(Duration::from_secs(6));
        assert_eq!(p.permits.available(), 1);
        assert_eq!(p.metrics().active, 0);
        assert_eq!(p.invoke_sync("echo", Value::Int(1)), Ok(Value::Int(1)));
    }

    /// `invoke_async` is fire-and-forget only once admitted: against a
    /// saturated `Queue` pool it blocks until a permit frees.
    #[test]
    fn async_invoke_waits_for_admission() {
        let p = one_permit(ScaledClock::shared(1.0), Duration::from_secs(3600));
        let (gate, hold) = gated_handler();
        p.register("hold", hold);
        let p2 = p.clone();
        let holder = std::thread::spawn(move || p2.invoke_sync("hold", Value::Null));
        wait_until(|| p.metrics().active == 1);

        let p2 = p.clone();
        let fire = std::thread::spawn(move || {
            let request_id = p2.invoke_async("hold", Value::Null);
            (request_id, p2.metrics().completions)
        });
        // Whenever `fire` gets going, it cannot be admitted while the
        // holder has the only permit.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(p.metrics().invocations, 1);
        gate.send(()).unwrap();
        holder.join().unwrap().unwrap();

        let (request_id, completions_at_return) = fire.join().unwrap();
        assert!(!request_id.unwrap().is_empty());
        assert_eq!(completions_at_return, 1, "admitted before the permit freed");
        gate.send(()).unwrap();
        wait_until(|| p.metrics().completions == 2);
    }

    #[test]
    fn pending_invoke_resolves_on_executor() {
        let p = Platform::for_tests();
        p.register("echo", echo_handler());
        let rt = beldi_runtime::Executor::new(p.clock().clone(), 1);
        let fut = p.invoke_pending("echo", vmap! { "x" => 5i64 });
        let out = rt.block_on(fut).unwrap();
        assert_eq!(out.get_int("x"), Some(5));
    }

    #[test]
    fn pending_invoke_unknown_function_fails_fast() {
        let p = Platform::for_tests();
        let rt = beldi_runtime::Executor::new(p.clock().clone(), 1);
        let err = rt
            .block_on(p.invoke_pending("nope", Value::Null))
            .unwrap_err();
        assert!(matches!(err, InvokeError::FunctionNotFound(_)));
    }

    #[test]
    fn pending_invoke_crash_surfaces() {
        let p = Platform::for_tests();
        p.register(
            "boom",
            Arc::new(|_ctx: &InvocationCtx, _| -> Value { panic!("kapow") }),
        );
        let rt = beldi_runtime::Executor::new(p.clock().clone(), 1);
        let err = rt
            .block_on(p.invoke_pending("boom", Value::Null))
            .unwrap_err();
        assert!(matches!(err, InvokeError::Crashed(ref m) if m.contains("kapow")));
    }

    #[test]
    fn pending_invokes_queue_past_the_concurrency_cap() {
        // 50 concurrent invocations through 4 permits: every pending
        // future must still resolve (parked on wakers, not threads).
        let mut cfg = PlatformConfig::for_tests();
        cfg.concurrency_limit = 4;
        let p = Platform::new(ScaledClock::shared(1000.0), cfg, 0);
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        p.register(
            "work",
            Arc::new(move |_ctx: &InvocationCtx, v| {
                hits2.fetch_add(1, Ordering::SeqCst);
                v
            }),
        );
        let rt = beldi_runtime::Executor::new(p.clock().clone(), 9);
        let handles: Vec<_> = (0..50)
            .map(|i| {
                let fut = p.invoke_pending("work", Value::Int(i));
                rt.spawn(async move { fut.await.unwrap() })
            })
            .collect();
        rt.run();
        assert_eq!(hits.load(Ordering::SeqCst), 50);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.take_result(), Some(Value::Int(i as i64)));
        }
    }

    #[test]
    fn pending_invoke_reject_policy_throttles() {
        let mut cfg = PlatformConfig::for_tests();
        cfg.concurrency_limit = 0;
        cfg.saturation = SaturationPolicy::Reject;
        let p = Platform::new(ScaledClock::shared(1.0), cfg, 0);
        p.register("echo", echo_handler());
        let rt = beldi_runtime::Executor::new(p.clock().clone(), 2);
        let err = rt
            .block_on(p.invoke_pending("echo", Value::Null))
            .unwrap_err();
        assert!(matches!(err, InvokeError::Throttled));
        assert_eq!(p.metrics().throttles, 1);
    }

    #[test]
    fn timer_trigger_fires() {
        let clock = ScaledClock::shared(1000.0);
        let p = Platform::new(clock, PlatformConfig::for_tests(), 0);
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        p.register(
            "tick",
            Arc::new(move |_ctx: &InvocationCtx, _| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Value::Null
            }),
        );
        let timer = p.schedule_timer("tick", Duration::from_secs(60), Value::Null);
        // 5 virtual minutes = 300 ms real.
        std::thread::sleep(Duration::from_millis(400));
        timer.stop();
        let n = hits.load(Ordering::SeqCst);
        assert!(n >= 2, "timer should have fired repeatedly, got {n}");
    }
}
