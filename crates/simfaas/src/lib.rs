//! A simulated serverless (FaaS) platform for the Beldi reproduction.
//!
//! Models the aspects of AWS Lambda the paper depends on (§2.1, §7.2):
//!
//! - **Stateless routing with fresh instance ids**: every invocation gets a
//!   new request id; nothing persists between invocations except what the
//!   function writes to its database.
//! - **Synchronous and asynchronous invocation** ([`Platform::invoke_sync`],
//!   [`Platform::invoke_async`]); callers of a synchronous chain each occupy
//!   a container, as on Lambda. Both park the calling thread on the one
//!   admission step that [`Platform::invoke_pending`] hands to executor
//!   tasks as a future. A synchronous invocation then runs on its caller's
//!   thread; the other two run on their container's thread.
//! - **Cold/warm starts**: a per-function pool of warm containers, shared
//!   by every entry point; an invocation that finds none idle makes one and
//!   pays the cold-start penalty. A container keeps a parked thread once an
//!   asynchronous or pending invocation has run in it.
//! - **A platform-wide concurrency cap** (AWS: 1,000 concurrent Lambdas per
//!   account) — the saturation bottleneck in the paper's Figs. 14, 15, 26.
//! - **Execution timeouts**: a synchronous caller hears `Timeout` when the
//!   reply lands past the configured timeout; the callee is not cut short
//!   (providers expose no kill switch — the fact Beldi's GC synchrony
//!   assumption leans on).
//! - **Crash-restart failure injection** ([`FaultInjector`]): instances can
//!   be crashed at any labelled crash point, deterministically (scripted
//!   plans) or randomly (a seeded storm). The paper's exactly-once guarantee
//!   is validated against these crashes; automatic platform retry is *off*,
//!   matching §7.2 ("We turn off automatic Lambda restarts and let Beldi's
//!   intent collectors take care of restarting failed Lambdas").
//! - **Timer triggers** ([`Platform::schedule_timer`]) for intent and
//!   garbage collectors (1-minute resolution on AWS).

#![warn(clippy::let_underscore_must_use)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod fault;
mod labels;
mod platform;

pub use beldi_simclock::PlatformSnapshot;
pub use error::{InvokeError, InvokeResult};
pub use fault::{
    silence_crash_backtraces, CrashPlan, CrashSignal, FaultInjector, Probe, StormPolicy, TraceEntry,
};
pub use labels::Label;
pub use platform::{
    FunctionHandler, InvocationCtx, Platform, PlatformConfig, SaturationPolicy, TimerHandle,
};
