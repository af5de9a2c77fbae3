//! The simulated FaaS [`Platform`].

use std::collections::HashMap;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use beldi_simclock::{ScaledClock, SharedClock, SimInstant, Ticker, TickerHandle};
use beldi_value::Value;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::{InvokeError, InvokeResult};
use crate::fault::{CrashSignal, FaultInjector};
use crate::labels;
use crate::metrics::{PlatformMetrics, PlatformSnapshot};
use crate::semaphore::{Semaphore, WaiterSlot};

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

    /// Returns true if a function is registered under `name`.
    pub fn has_function(&self, name: &str) -> bool {
        self.functions.read().contains_key(name)
    }

    /// Returns all registered function names, sorted.
    pub fn function_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.functions.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn lookup(&self, name: &str) -> InvokeResult<(FunctionHandler, Arc<Mutex<usize>>)> {
        let functions = self.functions.read();
        let entry = functions
            .get(name)
            .ok_or_else(|| InvokeError::FunctionNotFound(name.to_owned()))?;
        Ok((entry.handler.clone(), entry.warm_idle.clone()))
    }

    /// Waits for a concurrency permit according to the saturation policy.
    fn acquire_permit(&self, deadline: SimInstant) -> InvokeResult<()> {
        if self.permits.try_acquire() {
            return Ok(());
        }
        match self.config.saturation {
            SaturationPolicy::Reject => {
                self.metrics.record_throttle();
                Err(InvokeError::Throttled)
            }
            SaturationPolicy::Queue => {
                // Poll in small virtual-time steps so queueing delay shows
                // up in virtual time regardless of the clock rate.
                loop {
                    if self.permits.acquire(Some(Duration::from_micros(200))) {
                        return Ok(());
                    }
                    if self.clock.now() >= deadline {
                        self.metrics.record_throttle();
                        return Err(InvokeError::Throttled);
                    }
                }
            }
        }
    }

    /// Invokes a function synchronously, returning its result.
    ///
    /// The caller blocks (up to the configured timeout in virtual time);
    /// the instance runs on its own worker thread. A panic inside the
    /// handler — including injected [`CrashSignal`]s — yields
    /// [`InvokeError::Crashed`].
    pub fn invoke_sync(self: &Arc<Self>, name: &str, payload: Value) -> InvokeResult<Value> {
        let deadline = self.clock.now().plus(self.config.invoke_timeout);
        let rx = self.dispatch(name, payload, deadline)?;
        // Wait for the worker in virtual time.
        loop {
            // beldi-lint: allow(async-safety/blocking-in-task, invoke_sync is
            // the thread-per-worker platform path - callers opt into blocking
            // their own thread; executor tasks go through invoke_async, which
            // parks a waker instead)
            match rx.recv_timeout(Duration::from_micros(200)) {
                Ok(result) => return result,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.clock.now() >= deadline {
                        self.metrics.record_timeout();
                        return Err(InvokeError::Timeout);
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Worker vanished without sending: treat as crash.
                    return Err(InvokeError::Crashed("worker-lost".into()));
                }
            }
        }
    }

    /// Invokes a function asynchronously (fire and forget).
    ///
    /// Returns the request id assigned to the execution.
    pub fn invoke_async(self: &Arc<Self>, name: &str, payload: Value) -> InvokeResult<String> {
        let deadline = self.clock.now().plus(self.config.invoke_timeout);
        let (request_id, rx) = self.dispatch_inner(name, payload, deadline)?;
        drop(rx);
        Ok(request_id)
    }

    fn dispatch(
        self: &Arc<Self>,
        name: &str,
        payload: Value,
        deadline: SimInstant,
    ) -> InvokeResult<mpsc::Receiver<InvokeResult<Value>>> {
        self.dispatch_inner(name, payload, deadline)
            .map(|(_, rx)| rx)
    }

    fn dispatch_inner(
        self: &Arc<Self>,
        name: &str,
        payload: Value,
        deadline: SimInstant,
    ) -> InvokeResult<(String, mpsc::Receiver<InvokeResult<Value>>)> {
        let (handler, warm_idle) = self.lookup(name)?;
        self.acquire_permit(deadline)?;
        let (tx, rx) = mpsc::sync_channel::<InvokeResult<Value>>(1);
        let request_id = self.launch_worker(
            name,
            handler,
            warm_idle,
            payload,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        Ok((request_id, rx))
    }

    /// Starts a worker for an invocation whose permit is already held.
    /// The worker runs the handler on its own thread, returns itself to
    /// the warm pool and frees the permit, then delivers the result
    /// through `sink`. Shared by the blocking (mpsc) and async
    /// (waker-completion) delivery paths.
    fn launch_worker(
        self: &Arc<Self>,
        name: &str,
        handler: FunctionHandler,
        warm_idle: Arc<Mutex<usize>>,
        payload: Value,
        sink: Box<dyn FnOnce(InvokeResult<Value>) + Send>,
    ) -> String {
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
        std::thread::Builder::new()
            .name(format!("ssf-{fn_name}"))
            .spawn(move || {
                platform.clock.sleep(startup);
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    // The worker booted (startup delay paid) but may die
                    // before the handler runs: the permit is still freed
                    // below and the caller sees `Crashed`, so recovery
                    // must re-run the intent from scratch.
                    platform
                        .faults
                        .crash_point(&ctx.request_id, labels::WORKER_PRE_HANDLER);
                    (handler)(&ctx, payload)
                }));
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
                // Return the worker to the warm pool and free the permit
                // *before* replying: a closed-loop caller re-invokes the
                // moment the reply lands, and must find this worker warm
                // and its permit free rather than race them.
                {
                    let mut idle = warm_idle.lock();
                    if *idle < warm_cap {
                        *idle += 1;
                    }
                }
                platform.permits.release();
                sink(reply);
            })
            .expect("spawn worker thread");
        request_id
    }

    /// Invokes a function without blocking: returns a [`PendingInvoke`]
    /// future that waits for a concurrency permit (parked on a waker,
    /// not a thread) and then for the worker's completion. This is the
    /// async executor's entry point — ten thousand pending invocations
    /// cost ten thousand parked tasks, not ten thousand blocked threads.
    ///
    /// Unlike [`Platform::invoke_sync`] there is no caller-side timeout:
    /// queued invocations wait for a permit indefinitely (the platform
    /// `T_max` execution lease bounds runaway workers instead). Under
    /// [`SaturationPolicy::Reject`] the future resolves to
    /// [`InvokeError::Throttled`] immediately when no permit is free.
    pub fn invoke_pending(self: &Arc<Self>, name: &str, payload: Value) -> PendingInvoke {
        let state = match self.lookup(name) {
            Ok((handler, warm_idle)) => PendingState::Queued {
                name: name.to_owned(),
                payload: Some(payload),
                handler,
                warm_idle,
                slot: None,
            },
            Err(e) => PendingState::Failed(Some(e)),
        };
        PendingInvoke {
            platform: self.clone(),
            state,
        }
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

/// The worker→future completion cell: the worker thread fills `result`
/// and wakes `waker`; the awaiting task takes the result on its next
/// poll.
struct CompletionCell {
    result: Option<InvokeResult<Value>>,
    waker: Option<Waker>,
}

enum PendingState {
    /// Lookup failed at creation; the error surfaces on first poll.
    Failed(Option<InvokeError>),
    /// Waiting for a concurrency permit.
    Queued {
        name: String,
        payload: Option<Value>,
        handler: FunctionHandler,
        warm_idle: Arc<Mutex<usize>>,
        /// Our parked waiter in the semaphore's wake queue, if any.
        slot: Option<WaiterSlot>,
    },
    /// Worker launched; waiting for its completion.
    Running {
        cell: Arc<Mutex<CompletionCell>>,
    },
    Done,
}

/// Future returned by [`Platform::invoke_pending`]; resolves to the
/// invocation's result. See that method for the waiting semantics.
pub struct PendingInvoke {
    platform: Arc<Platform>,
    state: PendingState,
}

impl Future for PendingInvoke {
    type Output = InvokeResult<Value>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        loop {
            match &mut this.state {
                PendingState::Failed(e) => {
                    let e = e.take().expect("PendingInvoke polled after completion");
                    this.state = PendingState::Done;
                    return Poll::Ready(Err(e));
                }
                PendingState::Queued { slot, .. } => {
                    // Any previously parked slot may already have been
                    // consumed by a release (that is why we are being
                    // polled); withdraw it and re-contend fresh.
                    if let Some(old) = slot.take() {
                        *old.lock() = None;
                    }
                    let acquired = this.platform.permits.try_acquire() || {
                        match this.platform.config.saturation {
                            SaturationPolicy::Reject => {
                                this.platform.metrics.record_throttle();
                                this.state = PendingState::Done;
                                return Poll::Ready(Err(InvokeError::Throttled));
                            }
                            SaturationPolicy::Queue => {
                                // Park first, then re-try: closes the
                                // race with a release that found an
                                // empty waiter queue.
                                let parked = this.platform.permits.park_waiter(cx.waker().clone());
                                if this.platform.permits.try_acquire() {
                                    *parked.lock() = None;
                                    true
                                } else {
                                    *slot = Some(parked);
                                    return Poll::Pending;
                                }
                            }
                        }
                    };
                    debug_assert!(acquired);
                    let PendingState::Queued {
                        name,
                        payload,
                        handler,
                        warm_idle,
                        ..
                    } = std::mem::replace(&mut this.state, PendingState::Done)
                    else {
                        unreachable!("state checked above");
                    };
                    let cell = Arc::new(Mutex::new(CompletionCell {
                        result: None,
                        waker: None,
                    }));
                    let sink_cell = cell.clone();
                    this.platform.launch_worker(
                        &name,
                        handler,
                        warm_idle,
                        payload.expect("payload present until launch"),
                        Box::new(move |result| {
                            let waker = {
                                let mut c = sink_cell.lock();
                                c.result = Some(result);
                                c.waker.take()
                            };
                            if let Some(w) = waker {
                                w.wake();
                            }
                        }),
                    );
                    this.state = PendingState::Running { cell };
                    // Fall through to the Running arm.
                }
                PendingState::Running { cell } => {
                    let mut c = cell.lock();
                    if let Some(result) = c.result.take() {
                        drop(c);
                        this.state = PendingState::Done;
                        return Poll::Ready(result);
                    }
                    c.waker = Some(cx.waker().clone());
                    return Poll::Pending;
                }
                PendingState::Done => panic!("PendingInvoke polled after completion"),
            }
        }
    }
}

impl Drop for PendingInvoke {
    fn drop(&mut self) {
        // Withdraw a parked waiter so a release does not wake a corpse.
        if let PendingState::Queued {
            slot: Some(slot), ..
        } = &self.state
        {
            *slot.lock() = None;
        }
    }
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
    use beldi_value::vmap;
    use std::sync::atomic::AtomicUsize;

    fn echo_handler() -> FunctionHandler {
        Arc::new(|_ctx, payload| payload)
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
        let (tx, rx) = mpsc::sync_channel::<()>(0);
        let rx = Arc::new(Mutex::new(rx));
        let rx2 = rx.clone();
        p.register(
            "slow",
            Arc::new(move |_ctx: &InvocationCtx, _| {
                // Block until the test releases us.
                let _ = rx2.lock().recv();
                Value::Null
            }),
        );
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.invoke_sync("slow", Value::Null));
        // Wait for the first invocation to hold the only permit.
        for _ in 0..200 {
            if p.metrics().active == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            p.invoke_sync("slow", Value::Null),
            Err(InvokeError::Throttled)
        );
        tx.send(()).unwrap();
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
            let (handler, warm_idle) = p.lookup("echo").unwrap();
            assert!(p.permits.try_acquire(), "permit still held at reply time");
            let next = p.clone();
            p.launch_worker(
                "echo",
                handler,
                warm_idle,
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

        let config = PlatformConfig {
            concurrency_limit: 1,
            ..PlatformConfig::for_tests()
        };
        let p = Platform::new(ScaledClock::shared(1.0), config, 0);
        p.register("echo", echo_handler());
        let (done_tx, done_rx) = mpsc::channel();
        invoke_chain(p.clone(), REINVOKES, done_tx);
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a reply callback failed to re-invoke");
        let m = p.metrics();
        assert_eq!(m.cold_starts, 1, "only the first start is cold");
        assert_eq!(m.warm_starts, REINVOKES as u64);
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
