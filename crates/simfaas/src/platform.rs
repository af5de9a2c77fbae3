//! The simulated FaaS [`Platform`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Poll, Waker};
use std::thread::Thread;
use std::time::Duration;

use beldi_simclock::{
    park_on, EventKind, Gauge, JoinHandle, Metric, Permit, PlatformSnapshot, Semaphore,
    SharedClock, SimClock, Telemetry, Ticker, TickerHandle,
};
use beldi_value::Value;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::{InvokeError, InvokeResult};
use crate::fault::{CrashSignal, FaultInjector, Probe};
use crate::Label;

/// Context handed to a running function instance.
#[derive(Clone)]
pub struct InvocationCtx {
    /// The crash-probe handle of the fresh id the platform assigned to
    /// this execution (AWS "request id"). The id is this run's alone (a
    /// re-execution is a new request), so the injector keeps no entry
    /// for it.
    probe: Probe,
    /// Handle back to the platform (for nested invocations).
    pub platform: Arc<Platform>,
}

impl InvocationCtx {
    /// The request id: Beldi uses it as the instance id of an SSF called
    /// without one.
    pub fn request_id(&self) -> &Arc<str> {
        self.probe.id()
    }
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
    /// The function's idle warm containers.
    pool: Arc<Mutex<WarmPool>>,
}

#[derive(Default)]
struct WarmPool {
    /// Idle containers, most recently used last.
    idle: Vec<Container>,
    /// Set when the function is replaced or its platform torn down: a
    /// container still running is not pooled again.
    retired: bool,
}

/// A warm container: the modelled slot a cold start creates and a warm
/// start reuses. A synchronous invocation runs in it on its caller's
/// thread. An asynchronous or pending one runs on the container's own
/// thread, started the first time one needs it and parked on the clock
/// between invocations.
#[derive(Default)]
struct Container {
    worker: Option<Arc<Worker>>,
}

/// A container's thread.
#[derive(Default)]
struct Worker {
    /// Published by the worker's thread before it first enters the pool.
    thread: OnceLock<Thread>,
    /// What the worker does when it next wakes.
    next: Mutex<Next>,
    /// For whoever retires the worker and waits for its thread.
    join: Mutex<Option<JoinHandle>>,
}

#[derive(Default)]
#[expect(
    clippy::large_enum_variant,
    reason = "a job passes through here once per invocation a worker runs; boxing it would \
              allocate once per invocation"
)]
enum Next {
    /// Nothing yet: park.
    #[default]
    Wait,
    Run(Job, ReplySink),
    Retire,
}

/// One admitted invocation, ready to run in its container.
struct Job {
    ctx: InvocationCtx,
    payload: Value,
    /// Dispatch overhead plus the cold- or warm-start delay.
    startup: Duration,
    permit: Permit,
}

/// Length of a [`Platform::new_uuid`] id: 16 hex digits, a dash, 8 hex
/// digits (more once the counter passes `u32::MAX`).
const UUID_LEN: usize = 25;

/// Where a worker delivers its one reply.
type ReplySink = Box<dyn FnOnce(InvokeResult<Value>) + Send>;

impl FunctionEntry {
    /// Closes the pool and tells the idle containers' threads to exit.
    /// Returns their handles: join them to wait, drop them not to.
    fn retire(&self, clock: &SharedClock) -> Vec<JoinHandle> {
        let idle = {
            let mut pool = self.pool.lock();
            pool.retired = true;
            std::mem::take(&mut pool.idle)
        };
        idle.into_iter()
            .filter_map(|container| container.retire(clock))
            .collect()
    }
}

impl Container {
    /// Tells the container's thread, if it has one, to exit. Returns its
    /// handle.
    fn retire(self, clock: &SharedClock) -> Option<JoinHandle> {
        let worker = self.worker?;
        worker.wake(clock, Next::Retire);
        let join = worker.join.lock().take();
        join
    }
}

impl Worker {
    /// Hands a parked worker its next step.
    fn wake(&self, clock: &SharedClock, next: Next) {
        *self.next.lock() = next;
        #[expect(
            clippy::expect_used,
            reason = "a container has a worker only once `serve` runs, and `serve` publishes the thread first"
        )]
        let thread = self.thread.get().expect("a pooled worker has run");
        clock.unpark(thread);
    }

    /// The worker thread's body: runs `job`, then whatever the pool hands
    /// it, until it is retired or the pool has no room for its container.
    /// Between invocations it holds no reference to the platform.
    fn serve(
        self: Arc<Self>,
        mut job: Job,
        mut sink: ReplySink,
        handler: FunctionHandler,
        pool: Arc<Mutex<WarmPool>>,
        clock: SharedClock,
    ) {
        let thread = self.thread.set(std::thread::current());
        #[expect(
            clippy::expect_used,
            reason = "`launch_worker` starts one thread per worker, and only that thread serves it"
        )]
        thread.expect("a worker serves on one thread");
        loop {
            let container = Container {
                worker: Some(Arc::clone(&self)),
            };
            let (reply, turned_away) = job.run(container, &handler, &pool);
            sink(reply);
            if turned_away.is_some() {
                return;
            }
            (job, sink) = loop {
                // Taken in its own statement: the lock must not be held
                // while parked.
                let next = std::mem::take(&mut *self.next.lock());
                match next {
                    Next::Run(job, sink) => break (job, sink),
                    Next::Retire => return,
                    Next::Wait => clock.park_until(None),
                }
            };
        }
    }
}

impl Job {
    /// Runs the invocation in `container` on the calling thread — its
    /// worker's, or a synchronous caller's: the start-up delay, the
    /// handler, the container back into the warm pool, the permit freed.
    /// Returns the reply, and the container if the pool turned it away.
    fn run(
        self,
        container: Container,
        handler: &FunctionHandler,
        pool: &Mutex<WarmPool>,
    ) -> (InvokeResult<Value>, Option<Container>) {
        let Job {
            ctx,
            payload,
            startup,
            permit,
        } = self;
        let platform = &ctx.platform;
        let mut container = Some(container);
        let run = || {
            platform.clock.sleep(startup);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // The container booted (startup delay paid) but may
                // die before the handler runs: the permit is
                // still freed below and the caller sees
                // `Crashed`, so recovery must re-run the intent
                // from scratch.
                platform
                    .faults
                    .crash_point(&ctx.probe, Label::WorkerPreHandler);
                (handler)(&ctx, payload)
            }));
            let reply = match result {
                Ok(value) => {
                    platform.finish(Metric::FaasCompletions);
                    Ok(value)
                }
                Err(panic) => {
                    platform.finish(Metric::FaasCrashes);
                    Err(InvokeError::Crashed(describe_panic(panic)))
                }
            };
            // A crashed handler took its container's state with it, not
            // the container: it is warm either way.
            let mut pool = pool.lock();
            if !pool.retired && pool.idle.len() < platform.config.warm_pool_per_fn {
                pool.idle.extend(container.take());
            }
            reply
        };
        // A container that dies outside its handler (while booting,
        // say) still owes its caller a reply: without one a task
        // in `invoke_pending`, which has no timeout, waits forever.
        // It is not pooled.
        let reply = std::panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
            platform.finish(Metric::FaasCrashes);
            Err(InvokeError::Crashed("worker-lost".into()))
        });
        // Free the permit (the container is already back in the warm
        // pool) *before* replying: a closed-loop caller re-invokes
        // the moment the reply lands, and must find this container
        // warm and its permit free rather than race them.
        drop(permit);
        (reply, container)
    }
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
    /// The deployment's registry: the platform creates it, and the
    /// database and every layer above record into it.
    telemetry: Arc<Telemetry>,
    uuid_rng: Mutex<SmallRng>,
    uuid_ctr: AtomicU64,
}

impl Platform {
    /// Creates a platform on the given clock, with a fresh registry.
    pub fn new(clock: SharedClock, config: PlatformConfig, seed: u64) -> Arc<Self> {
        let permits = Semaphore::new(config.concurrency_limit);
        let telemetry = Arc::new(Telemetry::new());
        Arc::new(Platform {
            functions: RwLock::new(HashMap::new()),
            clock,
            config,
            permits,
            faults: FaultInjector::recording_into(telemetry.clone()),
            telemetry,
            uuid_rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            uuid_ctr: AtomicU64::new(0),
        })
    }

    /// Creates a zero-overhead platform on a [`SimClock`], for tests: the
    /// calling thread is the clock's first participant.
    pub fn for_tests() -> Arc<Self> {
        Platform::new(SimClock::shared(0), PlatformConfig::for_tests(), 0)
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
        self.telemetry.platform()
    }

    /// The registry the platform counts into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Counts an invocation's end (`outcome` is completions or crashes).
    fn finish(&self, outcome: Metric) {
        self.telemetry.add(outcome, 1);
        self.telemetry.move_gauge(Gauge::FaasActive, -1);
    }

    /// Generates a fresh unique id (deterministic per platform seed).
    ///
    /// Serves as AWS's "request id" and as Beldi's caller-generated callee
    /// ids (§3.3).
    pub fn new_uuid(&self) -> String {
        let n = self.uuid_ctr.fetch_add(1, Ordering::Relaxed);
        let r: u64 = self.uuid_rng.lock().gen();
        // Sized up front: `format!` would grow the string twice.
        let mut id = String::with_capacity(UUID_LEN);
        write!(id, "{r:016x}-{n:08x}").ok(); // Writing to a `String` cannot fail.
        id
    }

    /// Registers (or replaces) a function under `name`. A replaced
    /// function's warm containers are retired, their threads not waited
    /// for.
    pub fn register(&self, name: impl Into<String>, handler: FunctionHandler) {
        let entry = FunctionEntry {
            handler,
            pool: Arc::default(),
        };
        let replaced = self.functions.write().insert(name.into(), entry);
        if let Some(replaced) = replaced {
            replaced.retire(&self.clock);
        }
    }

    /// Retires every function's warm pool and waits for the idle
    /// containers' threads to exit; a container still running is not
    /// pooled again, and its thread exits when it is done.
    /// The wait is one the clock sees, so call it from a thread of the
    /// clock. Later invocations all start cold.
    pub fn retire_workers(&self) {
        for worker in self.retire_all() {
            worker.join().ok();
        }
    }

    fn retire_all(&self) -> Vec<JoinHandle> {
        let functions = self.functions.read();
        // By name, not hash order: on a `SimClock` the order threads are
        // woken in is part of the schedule.
        #[expect(clippy::disallowed_methods, reason = "sorted by name on the next line")]
        let mut entries: Vec<_> = functions.iter().collect();
        entries.sort_unstable_by_key(|(name, _)| *name);
        entries
            .into_iter()
            .flat_map(|(_, entry)| entry.retire(&self.clock))
            .collect()
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
        self.telemetry.add(Metric::FaasThrottles, 1);
        InvokeError::Throttled
    }

    /// The one completion step of the two fronts that run on a worker
    /// thread: launches the admitted invocation and resolves to the
    /// worker's reply. The worker fills a cell and wakes whoever awaits
    /// it — an executor task, or a thread in [`park_on`].
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
    /// The calling thread parks on the admission step
    /// [`Platform::invoke_pending`] awaits, up to the configured timeout
    /// in virtual time: [`InvokeError::Throttled`] if that passes while
    /// the invocation is still queued for a permit. Once admitted, the
    /// instance runs in a warm container on the calling thread; a panic
    /// inside the handler — including injected [`CrashSignal`]s — yields
    /// [`InvokeError::Crashed`]. A reply that lands past the timeout is
    /// dropped for [`InvokeError::Timeout`]; the permit is free by then.
    pub fn invoke_sync(self: &Arc<Self>, name: &str, payload: Value) -> InvokeResult<Value> {
        let deadline = self.clock.now().plus(self.config.invoke_timeout);
        let admitted =
            park_on(&self.clock, deadline, self.admit(name)).ok_or_else(|| self.throttled())??;
        let (FunctionEntry { handler, pool }, permit) = admitted;
        let (container, job) = self.start(name, &pool, permit, payload);
        // On a `SimClock` the turn ends at the two points where a worker
        // thread would take over — woken here while the caller parks, and
        // waking the caller before it parks itself — so the schedule
        // draws as if it had.
        self.clock.yield_now();
        let (reply, turned_away) = job.run(container, &handler, &pool);
        // A container the pool turned away takes its thread, if it has
        // one, with it: the thread exits unjoined, as a turned-away
        // worker's does.
        if let Some(container) = turned_away {
            container.retire(&self.clock);
        }
        self.clock.yield_now();
        if self.clock.now() > deadline {
            self.telemetry.add(Metric::FaasTimeouts, 1);
            return Err(InvokeError::Timeout);
        }
        reply
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

    /// Takes a container for an admitted invocation of `name` — the
    /// function's most recently idle one, else a new one: a cold start —
    /// and counts the start, and records it in the run record. Returns the
    /// container and the job to run in it.
    fn start(
        self: &Arc<Self>,
        name: &str,
        pool: &Mutex<WarmPool>,
        permit: Permit,
        payload: Value,
    ) -> (Container, Job) {
        let warm = pool.lock().idle.pop();
        let cold = warm.is_none();
        let ctx = InvocationCtx {
            probe: Probe::untracked(self.new_uuid().into()),
            platform: self.clone(),
        };
        let startup = self.config.invoke_overhead
            + if cold {
                self.config.cold_start
            } else {
                self.config.warm_start
            };
        let start = if cold {
            Metric::FaasColdStarts
        } else {
            Metric::FaasWarmStarts
        };
        self.telemetry.add(Metric::FaasInvocations, 1);
        self.telemetry.add(start, 1);
        self.telemetry.move_gauge(Gauge::FaasActive, 1);
        self.telemetry.log(ctx.request_id(), || EventKind::Invoke {
            function: name.into(),
            cold,
        });
        let job = Job {
            ctx,
            payload,
            startup,
            permit,
        };
        (warm.unwrap_or_default(), job)
    }

    /// Hands an admitted invocation to its container's thread and returns
    /// its request id: a parked thread is woken, a container without one
    /// gets one started here. The worker runs the handler, returns its
    /// container to the warm pool and frees the permit, then delivers
    /// exactly one reply through `sink`.
    fn launch_worker(
        self: &Arc<Self>,
        name: &str,
        admitted: (FunctionEntry, Permit),
        payload: Value,
        sink: ReplySink,
    ) -> String {
        let (FunctionEntry { handler, pool }, permit) = admitted;
        let (container, job) = self.start(name, &pool, permit, payload);
        let request_id = job.ctx.request_id().to_string();
        match container.worker {
            Some(worker) => worker.wake(&self.clock, Next::Run(job, sink)),
            None => {
                let worker = Arc::new(Worker::default());
                let (served, clock) = (worker.clone(), self.clock.clone());
                let body = move || served.serve(job, sink, handler, pool, clock);
                let thread = self.clock.spawn(format!("ssf-{name}"), Box::new(body));
                *worker.join.lock() = Some(thread);
            }
        }
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
            platform.invoke_async(&function, payload.clone()).ok();
        });
        TimerHandle {
            inner: Some(ticker),
        }
    }
}

impl Drop for Platform {
    /// Retires the warm workers without waiting for them: dropping must
    /// not block on a clock that may never advance again.
    fn drop(&mut self) {
        self.retire_all();
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
    use beldi_simclock::{Clock, SimInstant};
    use beldi_value::vmap;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    fn echo_handler() -> FunctionHandler {
        Arc::new(|_ctx, payload| payload)
    }

    /// A handler that holds its worker, and its permit, for `d` of
    /// virtual time.
    fn holding_handler(d: Duration) -> FunctionHandler {
        Arc::new(move |ctx, payload| {
            ctx.platform.clock().sleep(d);
            payload
        })
    }

    /// A handler that notes the thread each invocation runs on.
    fn thread_noting_handler() -> (Arc<Mutex<Vec<ThreadId>>>, FunctionHandler) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let handler: FunctionHandler = Arc::new(move |_ctx, payload| {
            seen2.lock().push(std::thread::current().id());
            payload
        });
        (seen, handler)
    }

    /// A handler that holds its container, and its permit, for as many
    /// milliseconds of virtual time as its payload says.
    fn payload_holding_handler() -> FunctionHandler {
        Arc::new(|ctx, payload| {
            let ms = payload.as_int().expect("a hold in milliseconds");
            ctx.platform.clock().sleep(Duration::from_millis(ms as u64));
            payload
        })
    }

    /// Worker threads alive for a registered `handler` while no
    /// synchronous call of it runs: each holds one reference, beside the
    /// test's and the function table's.
    fn live_workers(handler: &FunctionHandler) -> usize {
        Arc::strong_count(handler) - 2
    }

    fn idle_containers(p: &Platform, name: &str) -> usize {
        p.lookup(name).unwrap().pool.lock().idle.len()
    }

    /// Runs `fut` to completion on an executor of `p`'s clock, on the
    /// calling thread.
    fn pending<T: Send + 'static>(
        p: &Platform,
        fut: impl Future<Output = T> + Send + 'static,
    ) -> T {
        beldi_runtime::Executor::new(p.clock().clone(), 1).block_on(fut)
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

    /// Runs `body` on a new thread of `p`'s clock. The returned closure
    /// joins the thread and yields what `body` returned.
    fn on_clock<T: Send + 'static>(
        p: &Platform,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> impl FnOnce() -> T {
        let (tx, rx) = mpsc::channel();
        let send = move || tx.send(body()).expect("the test still listens");
        let thread = p.clock().spawn("caller".into(), Box::new(send));
        move || {
            thread.join().expect("the caller thread panicked");
            rx.try_recv().expect("a joined caller has sent its result")
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
        let ids: HashSet<String> = (0..1000).map(|_| p.new_uuid()).collect();
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
                let probe = p2.faults().instance_started(ctx.request_id());
                p2.faults().crash_point(&probe, Label::WrapperEnter);
                Value::from("survived")
            }),
        );
        // No plan: survives.
        assert_eq!(
            p.invoke_sync("flaky", Value::Null).unwrap(),
            Value::from("survived")
        );
        // We don't know the next request id in advance, so install a
        // global label-targeted plan (a storm at probability 1 would fire
        // at `worker.pre_handler` before the handler's own probe).
        p.faults()
            .set_global_plan(Some(crate::CrashPlan::AtLabel(Label::WrapperEnter)));
        let err = p.invoke_sync("flaky", Value::Null).unwrap_err();
        assert!(matches!(err, InvokeError::Crashed(ref pt) if pt.contains("wrapper.enter")));
        // One-shot plan consumed: next call survives.
        assert!(p.invoke_sync("flaky", Value::Null).is_ok());
    }

    /// An invocation probes under its request id, which no restart can
    /// see again: with nothing armed, the injector gains no entry for it.
    #[test]
    fn an_unarmed_invocation_leaves_the_injector_entries_alone() {
        let p = Platform::for_tests();
        p.register("probing", Arc::new(|_: &InvocationCtx, _| Value::Null));
        let entries = || p.telemetry().gauge(Gauge::FaultsInstances);
        let before = entries();
        for _ in 0..3 {
            p.invoke_sync("probing", Value::Null).unwrap();
        }
        assert_eq!(entries(), before);
        assert_eq!(p.faults().restart_count(), 0);
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
        p.faults().set_storm_policy(Some(crate::StormPolicy {
            ssf_prob: 1.0,
            collector_prob: 1.0,
            max_crashes: 1,
            seed: 7,
        }));
        // The worker dies at `worker.pre_handler`: the handler never runs,
        // the caller sees `Crashed` naming the label, and the permit is
        // freed so the next invocation still gets a worker.
        let err = p.invoke_sync("victim", Value::Null).unwrap_err();
        assert!(
            matches!(err, InvokeError::Crashed(ref pt) if pt.contains(Label::WorkerPreHandler.as_str()))
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
        assert_eq!(hits.load(Ordering::SeqCst), 0, "the caller did not wait");
        p.clock().sleep(Duration::from_millis(1));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrency_cap_rejects_when_policy_is_reject() {
        let mut cfg = PlatformConfig::for_tests();
        cfg.concurrency_limit = 1;
        cfg.saturation = SaturationPolicy::Reject;
        let p = Platform::new(SimClock::shared(0), cfg, 0);
        p.register("slow", holding_handler(Duration::from_secs(10)));
        let p2 = p.clone();
        let first = on_clock(&p, move || p2.invoke_sync("slow", Value::Null));
        // Let the first invocation take the only permit.
        p.clock().sleep(Duration::from_secs(1));
        assert_eq!(p.metrics().active, 1);
        assert_eq!(
            p.invoke_sync("slow", Value::Null),
            Err(InvokeError::Throttled)
        );
        first().unwrap();
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

    /// The warm pool is the mechanism, not a count beside it: a cold
    /// start begins a container and every warm start reuses one. A
    /// pending invocation runs on the container's thread, started once;
    /// a synchronous one borrows the container on its caller's thread
    /// and leaves that thread parked.
    #[test]
    fn a_warm_worker_is_one_thread_reused() {
        const CALLS: usize = 50;
        let p = Platform::for_tests();
        let (seen, handler) = thread_noting_handler();
        p.register("echo", handler.clone());
        for i in 0..CALLS {
            if i == CALLS / 2 {
                p.invoke_sync("echo", Value::Null).unwrap();
            }
            pending(&p, p.invoke_pending("echo", Value::Null)).unwrap();
        }
        let mut seen = seen.lock().clone();
        assert_eq!(seen.len(), CALLS + 1);
        let on_caller = seen.remove(CALLS / 2);
        assert_eq!(on_caller, std::thread::current().id());
        assert_ne!(seen[0], on_caller);
        assert!(seen.iter().all(|thread| *thread == seen[0]), "{seen:?}");
        assert_eq!(live_workers(&handler), 1);
        let m = p.metrics();
        assert_eq!((m.cold_starts, m.warm_starts), (1, CALLS as u64));
    }

    /// A synchronous chain occupies one container per link, as on
    /// Lambda, and runs on the thread of its root: reached by a pending
    /// invocation, the chain's one thread is the root container's.
    /// Repeating it starts no further thread.
    #[test]
    fn a_nested_chain_reuses_one_thread_per_function() {
        let p = Platform::for_tests();
        let (seen, inner) = thread_noting_handler();
        p.register("inner", inner.clone());
        let seen2 = seen.clone();
        let outer: FunctionHandler = Arc::new(move |ctx: &InvocationCtx, payload: Value| {
            seen2.lock().push(std::thread::current().id());
            ctx.platform.invoke_sync("inner", payload).unwrap()
        });
        p.register("outer", outer.clone());
        for _ in 0..10 {
            pending(&p, p.invoke_pending("outer", Value::Null)).unwrap();
        }
        let seen = seen.lock().clone();
        assert_eq!(seen.len(), 20);
        assert_ne!(seen[0], std::thread::current().id());
        assert!(seen.iter().all(|thread| *thread == seen[0]), "{seen:?}");
        assert_eq!((live_workers(&outer), live_workers(&inner)), (1, 0));
        let m = p.metrics();
        assert_eq!(
            (m.cold_starts, m.warm_starts),
            (2, 18),
            "the caller's container is occupied"
        );
    }

    /// Both fronts take containers from one pool. A root warmed up by
    /// synchronous calls, then reached by pending invocations that call
    /// back into it synchronously (a Beldi call's root-plus-callback
    /// shape), starts nothing cold: each start takes the container the
    /// last one left, whichever front left it.
    #[test]
    fn sync_and_pending_invocations_share_one_pool() {
        let p = Platform::for_tests();
        let callback = || Value::from("callback");
        p.register(
            "root",
            Arc::new(move |ctx: &InvocationCtx, payload: Value| {
                if payload == callback() {
                    return payload;
                }
                ctx.platform.invoke_sync("callee", payload).unwrap()
            }),
        );
        p.register(
            "callee",
            Arc::new(move |ctx: &InvocationCtx, payload: Value| {
                ctx.platform.invoke_sync("root", callback()).unwrap();
                payload
            }),
        );
        for _ in 0..3 {
            p.invoke_sync("root", Value::Null).unwrap();
        }
        let m = p.metrics();
        assert_eq!((m.cold_starts, m.warm_starts), (3, 6));
        for _ in 0..3 {
            pending(&p, p.invoke_pending("root", Value::Null)).unwrap();
        }
        let m = p.metrics();
        assert_eq!((m.cold_starts, m.warm_starts), (3, 15));
    }

    /// A crash inside the handler — a plain panic or an injected
    /// `CrashSignal` — loses the instance, not the container: it goes
    /// back to the pool and the next start is warm, on its thread.
    #[test]
    fn a_crashed_handler_leaves_its_worker_warm() {
        let p = Platform::for_tests();
        let (seen, note) = thread_noting_handler();
        p.register(
            "flaky",
            Arc::new(move |ctx: &InvocationCtx, payload: Value| {
                note(ctx, Value::Null);
                if payload == Value::from("panic") {
                    panic!("kaboom");
                }
                let faults = ctx.platform.faults();
                let probe = faults.instance_started(ctx.request_id());
                faults.crash_point(&probe, Label::WrapperEnter);
                payload
            }),
        );
        let call = |payload| pending(&p, p.invoke_pending("flaky", payload));
        assert!(call(Value::Null).is_ok());
        let err = call(Value::from("panic")).unwrap_err();
        assert!(matches!(err, InvokeError::Crashed(ref m) if m.contains("kaboom")));
        assert!(call(Value::Null).is_ok());
        p.faults()
            .set_global_plan(Some(crate::CrashPlan::AtLabel(Label::WrapperEnter)));
        let err = call(Value::Null).unwrap_err();
        assert!(matches!(err, InvokeError::Crashed(ref pt) if pt.contains("wrapper.enter")));
        assert!(call(Value::Null).is_ok());

        let seen = seen.lock().clone();
        assert_eq!(seen.len(), 5);
        assert_ne!(seen[0], std::thread::current().id());
        assert!(seen.iter().all(|thread| *thread == seen[0]), "{seen:?}");
        let m = p.metrics();
        assert_eq!((m.cold_starts, m.warm_starts, m.crashes), (1, 4, 2));
    }

    /// A container that finishes when the pool already holds
    /// `warm_pool_per_fn` idle ones is not kept, on either front: a
    /// worker's thread exits, and a synchronous caller turned away with
    /// a container that has a thread takes the thread with it.
    #[test]
    fn a_full_pool_turns_a_finishing_worker_away() {
        let mut cfg = PlatformConfig::for_tests();
        cfg.warm_pool_per_fn = 1;
        let p = Platform::new(SimClock::shared(0), cfg, 0);
        let hold = payload_holding_handler();
        p.register("hold", hold.clone());
        let two_pending_at_once = |p: &Arc<Platform>| {
            let rt = beldi_runtime::Executor::new(p.clock().clone(), 1);
            let calls: Vec<_> = (0..2)
                .map(|_| rt.spawn(p.invoke_pending("hold", Value::Int(1_000))))
                .collect();
            rt.run();
            for call in calls {
                call.take_result().unwrap().unwrap();
            }
        };
        two_pending_at_once(&p);
        assert_eq!(p.metrics().cold_starts, 2);
        assert_eq!(idle_containers(&p, "hold"), 1);
        assert_eq!(live_workers(&hold), 1);
        // One warm container for two callers: the second start is cold again.
        two_pending_at_once(&p);
        let m = p.metrics();
        assert_eq!((m.cold_starts, m.warm_starts), (3, 1));
        assert_eq!(live_workers(&hold), 1);

        // Two synchronous callers: the first borrows the warm container,
        // thread and all, and holds it past the second, which starts
        // cold and takes the pool's one place.
        let p2 = p.clone();
        let first = on_clock(&p, move || p2.invoke_sync("hold", Value::Int(2_000)));
        p.clock().sleep(Duration::from_millis(1));
        let p2 = p.clone();
        let second = on_clock(&p, move || p2.invoke_sync("hold", Value::Int(1_000)));
        second().unwrap();
        first().unwrap();
        let m = p.metrics();
        assert_eq!((m.cold_starts, m.warm_starts), (4, 2));
        assert_eq!(idle_containers(&p, "hold"), 1);
        // The turned-away container's thread needs a turn to exit.
        p.clock().sleep(Duration::from_millis(1));
        assert_eq!(live_workers(&hold), 0);
    }

    /// A worker still running when its pool is retired exits when it is
    /// done instead of parking in a pool nobody will wake.
    #[test]
    fn a_worker_running_when_its_pool_retires_does_not_come_back() {
        let p = Platform::for_tests();
        let hold = holding_handler(Duration::from_secs(1));
        p.register("hold", hold.clone());
        p.invoke_async("hold", Value::Null).unwrap();
        p.clock().sleep(Duration::from_millis(1));
        assert_eq!(p.metrics().active, 1);
        p.retire_workers();
        assert_eq!(live_workers(&hold), 1, "nobody idle to retire");
        p.clock().sleep(Duration::from_secs(1));
        assert_eq!(p.metrics().completions, 1);
        assert_eq!(idle_containers(&p, "hold"), 0);
        assert_eq!(live_workers(&hold), 0);
        // The platform still serves; every start is cold now.
        p.invoke_sync("hold", Value::Null).unwrap();
        assert_eq!(p.metrics().cold_starts, 2);
        assert_eq!(idle_containers(&p, "hold"), 0);
    }

    /// `retire_workers` returns once the idle containers' threads are
    /// gone.
    #[test]
    fn retire_workers_waits_for_the_idle_threads() {
        let p = Platform::for_tests();
        let (inner, outer) = (echo_handler(), echo_handler());
        p.register("inner", inner.clone());
        p.register("outer", outer.clone());
        pending(&p, p.invoke_pending("inner", Value::Null)).unwrap();
        p.invoke_async("outer", Value::Null).unwrap();
        p.clock().sleep(Duration::from_millis(1));
        assert_eq!((live_workers(&inner), live_workers(&outer)), (1, 1));
        p.retire_workers();
        assert_eq!((live_workers(&inner), live_workers(&outer)), (0, 0));
    }

    #[test]
    fn replacing_a_function_retires_its_idle_workers() {
        let p = Platform::for_tests();
        let old = echo_handler();
        p.register("f", old.clone());
        pending(&p, p.invoke_pending("f", Value::Int(1))).unwrap();
        assert_eq!(live_workers(&old), 1);
        p.register("f", Arc::new(|_ctx, _payload| Value::from("new")));
        // Retired, not waited for: the worker needs a turn to exit.
        p.clock().sleep(Duration::from_millis(1));
        assert_eq!(Arc::strong_count(&old), 1, "table entry and worker gone");
        assert_eq!(
            p.invoke_sync("f", Value::Int(1)).unwrap(),
            Value::from("new")
        );
        assert_eq!(p.metrics().cold_starts, 2, "the new function starts cold");
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

        let p = one_permit(SimClock::shared(0), Duration::from_secs(3600));
        p.register("echo", echo_handler());
        let (done_tx, done_rx) = mpsc::channel();
        invoke_chain(p.clone(), REINVOKES, done_tx);
        // Every start and handler is free, so the whole chain runs at
        // t = 0, before this sleep ends.
        p.clock().sleep(Duration::from_millis(1));
        done_rx
            .try_recv()
            .expect("a reply callback failed to re-invoke");
        let m = p.metrics();
        assert_eq!(m.cold_starts, 1, "only the first start is cold");
        assert_eq!(m.warm_starts, REINVOKES as u64);
    }

    /// A `SimClock` that counts the turns its participants yield.
    struct YieldCounting {
        clock: Arc<SimClock>,
        yields: AtomicUsize,
    }

    impl Clock for YieldCounting {
        fn now(&self) -> SimInstant {
            self.clock.now()
        }

        fn sleep(&self, d: Duration) {
            self.clock.sleep(d);
        }

        fn park_until(&self, deadline: Option<SimInstant>) {
            self.clock.park_until(deadline);
        }

        fn unpark(&self, thread: &Thread) {
            self.clock.unpark(thread);
        }

        fn yield_now(&self) {
            self.yields.fetch_add(1, Ordering::SeqCst);
            self.clock.yield_now();
        }

        fn spawn(&self, name: String, body: Box<dyn FnOnce() + Send>) -> JoinHandle {
            self.clock.spawn(name, body)
        }
    }

    /// A synchronous call yields its turn at the two points where a
    /// hand-off to a worker thread would switch threads, nested calls
    /// included; an invocation that runs on a thread of its container
    /// yields nowhere.
    #[test]
    fn a_sync_call_yields_where_a_hand_off_would_switch() {
        let clock = Arc::new(YieldCounting {
            clock: SimClock::shared(0),
            yields: AtomicUsize::new(0),
        });
        let p = Platform::new(clock.clone(), PlatformConfig::for_tests(), 0);
        p.register("inner", echo_handler());
        p.register(
            "outer",
            Arc::new(|ctx: &InvocationCtx, payload: Value| {
                ctx.platform.invoke_sync("inner", payload).unwrap()
            }),
        );
        let yields = || clock.yields.load(Ordering::SeqCst);
        p.invoke_sync("inner", Value::Null).unwrap();
        assert_eq!(yields(), 2);
        p.invoke_sync("outer", Value::Null).unwrap();
        assert_eq!(yields(), 6);
        pending(&p, p.invoke_pending("inner", Value::Null)).unwrap();
        assert_eq!(yields(), 6);
        // Run on its container's thread, `outer` still calls `inner`
        // synchronously.
        pending(&p, p.invoke_pending("outer", Value::Null)).unwrap();
        assert_eq!(yields(), 8);
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
    /// it, whichever way the caller waits; it must not keep its permit
    /// (one permit: the second call would queue forever); and it is not
    /// pooled — a lost container is gone, thread and all.
    #[test]
    fn lost_worker_fails_the_caller_on_both_fronts() {
        let p = one_permit(Arc::new(BootKillingClock), Duration::from_secs(3600));
        let echo = echo_handler();
        p.register("echo", echo.clone());
        let lost = Err(InvokeError::Crashed("worker-lost".into()));

        assert_eq!(p.invoke_sync("echo", Value::Null), lost);
        assert_eq!(p.permits.available(), 1);
        assert_eq!(p.metrics().active, 0);

        let rt = beldi_runtime::Executor::new(p.clock().clone(), 1);
        assert_eq!(rt.block_on(p.invoke_pending("echo", Value::Null)), lost);
        assert_eq!(p.permits.available(), 1);
        assert_eq!(p.metrics().active, 0);
        assert_eq!(p.metrics().crashes, 2);

        let m = p.metrics();
        assert_eq!((m.cold_starts, m.warm_starts), (2, 0));
        assert_eq!(idle_containers(&p, "echo"), 0);
        // Host threads (this clock schedules nothing): each exits right
        // after its reply, which is all there is to wait for.
        while live_workers(&echo) > 0 {
            std::thread::yield_now();
        }
    }

    /// Threads in `invoke_sync` and tasks in `invoke_pending` queue on
    /// one semaphore: every invocation completes and the cap holds.
    #[test]
    fn mixed_fronts_share_one_permit_pool() {
        let mut cfg = PlatformConfig::for_tests();
        cfg.concurrency_limit = 2;
        let p = Platform::new(SimClock::shared(0), cfg, 0);
        p.register("work", holding_handler(Duration::from_millis(500)));
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let p2 = p.clone();
                on_clock(&p, move || p2.invoke_sync("work", Value::Int(i)))
            })
            .collect();
        let rt = beldi_runtime::Executor::new(p.clock().clone(), 3);
        let tasks: Vec<_> = (6..12)
            .map(|i| rt.spawn(p.invoke_pending("work", Value::Int(i))))
            .collect();
        rt.run();
        let mut seen: Vec<Value> = threads.into_iter().map(|join| join().unwrap()).collect();
        seen.extend(tasks.into_iter().map(|h| h.take_result().unwrap().unwrap()));
        assert_eq!(seen, (0..12).map(Value::Int).collect::<Vec<_>>());
        let m = p.metrics();
        assert_eq!(m.completions, 12);
        assert_eq!(m.peak_active, 2, "the cap binds and holds");
        assert_eq!(p.permits.available(), 2);
        // Twelve invocations, two at a time, half a second each.
        assert_eq!(p.clock().now(), SimInstant::from_millis(3_000));
    }

    /// The sync front's timeout is virtual and names where the
    /// invocation was when it passed: `Throttled` if still queued at the
    /// deadline; `Timeout` if its reply lands past the deadline. A
    /// running callee is not abandoned: it runs to its end on the
    /// caller's thread, and its permit is free when the caller hears.
    /// Neither case leaks a permit.
    #[test]
    fn sync_deadline_distinguishes_queued_from_running() {
        let timeout = Duration::from_secs(10);
        let clock = SimClock::shared(0);
        let p = one_permit(clock.clone(), timeout);
        p.register("hold", payload_holding_handler());

        // A reply that lands on the deadline is in time.
        assert_eq!(
            p.invoke_sync("hold", Value::Int(10_000)),
            Ok(Value::Int(10_000))
        );
        assert_eq!(clock.now(), SimInstant::from_millis(10_000));

        // Holds the only permit for 25 s: past its own deadline (20 s)
        // and the queued caller's (20.001 s).
        let p2 = p.clone();
        let holder = on_clock(&p, move || p2.invoke_sync("hold", Value::Int(25_000)));
        clock.sleep(Duration::from_millis(1));
        assert_eq!(p.metrics().active, 1);

        // Queued behind the holder until its own deadline.
        assert_eq!(
            p.invoke_sync("hold", Value::Int(0)),
            Err(InvokeError::Throttled)
        );
        assert_eq!(clock.now(), SimInstant::from_millis(20_001));
        let m = p.metrics();
        assert_eq!((m.throttles, m.timeouts, m.invocations), (1, 0, 2));

        // Running: the callee finished, past the deadline.
        assert_eq!(holder(), Err(InvokeError::Timeout));
        assert_eq!(clock.now(), SimInstant::from_millis(35_000));
        let m = p.metrics();
        assert_eq!((m.timeouts, m.completions, m.active), (1, 2, 0));
        // The holder's permit came back, and the withdrawn waiter took
        // none with it.
        assert_eq!(p.permits.available(), 1);
        assert_eq!(p.invoke_sync("hold", Value::Int(1)), Ok(Value::Int(1)));
    }

    /// `invoke_async` is fire-and-forget only once admitted: against a
    /// saturated `Queue` pool it blocks until a permit frees.
    #[test]
    fn async_invoke_waits_for_admission() {
        let clock = SimClock::shared(0);
        let p = one_permit(clock.clone(), Duration::from_secs(3600));
        p.register("hold", holding_handler(Duration::from_secs(10)));
        let p2 = p.clone();
        let holder = on_clock(&p, move || p2.invoke_sync("hold", Value::Null));
        clock.sleep(Duration::from_secs(1));
        assert_eq!(p.metrics().active, 1);

        let p2 = p.clone();
        let fire = on_clock(&p, move || {
            let request_id = p2.invoke_async("hold", Value::Null);
            (request_id, p2.metrics().completions, p2.clock().now())
        });
        // `fire` has run as far as it can: it cannot be admitted while
        // the holder has the only permit.
        clock.sleep(Duration::from_secs(1));
        assert_eq!(p.metrics().invocations, 1);
        holder().unwrap();

        let (request_id, completions_at_return, returned_at) = fire();
        assert!(!request_id.unwrap().is_empty());
        assert_eq!(completions_at_return, 1, "admitted before the permit freed");
        assert_eq!(returned_at, SimInstant::from_millis(10_000));
        // Fired and forgotten: the second invocation holds for its own 10 s.
        assert_eq!(p.metrics().completions, 1);
        clock.sleep(Duration::from_secs(11));
        assert_eq!(p.metrics().completions, 2);
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
        let p = Platform::new(SimClock::shared(0), cfg, 0);
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
        let p = Platform::new(SimClock::shared(0), cfg, 0);
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
        let clock = SimClock::shared(0);
        let p = Platform::new(clock.clone(), PlatformConfig::for_tests(), 0);
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
        // Five minutes and a moment: the tick due at the fifth minute
        // has fired and its invocation has run.
        clock.sleep(Duration::from_millis(5 * 60_000 + 1));
        timer.stop();
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }
}
