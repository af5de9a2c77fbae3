//! The driver: set-up, the closed-loop pass, and the two kinds of run
//! (`--trace 0`: end-to-end metrics; `--trace 1`: per-layer metrics).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{Outcome, Path, Stream, Sut, System, Workload};
use crate::host::{self, Yardstick};
use crate::json::Json;
use crate::layers;
use crate::stats::{median, p50_p99};
use crate::trace::{Counters, Tracer};

/// Requests sent (in-process) before every pass so that warm pools,
/// caches and lazily built state are in place when measuring starts.
pub const WARMUP: usize = 200;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Per-workload constants of the benchmark.
pub struct Plan {
    /// Requests the modelled metrics cover: the pass always runs at
    /// least this many, so they do not depend on how fast the host is.
    pub n_model: usize,
    /// One IC pass and one GC pass per SSF after this many requests.
    /// 250 app requests are about 100 s of modelled time, the paper's
    /// one-minute timers. A `kv-zipf` request is a quarter as long and a
    /// GC pass walks all 131,072 keys, so at 250 the workload would be
    /// four fifths collector; at 1,000 the collector is about half.
    pub collect_every: usize,
    /// Upper bound on requests per second, to size the stream.
    max_rate: f64,
}

pub fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::MediaRead => Plan {
            n_model: 3_000,
            collect_every: 250,
            max_rate: 2_000.0,
        },
        Workload::TravelTxn => Plan {
            n_model: 3_000,
            collect_every: 250,
            max_rate: 1_500.0,
        },
        Workload::SocialFront => Plan {
            n_model: 3_000,
            collect_every: 250,
            max_rate: 200.0,
        },
        Workload::KvZipf => Plan {
            n_model: 12_000,
            collect_every: 1_000,
            max_rate: 8_000.0,
        },
    }
}

/// A value with its unit, as the result line prints it.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Workload identity and other facts worth keeping with the numbers.
    pub notes: BTreeMap<String, Json>,
    /// The traced pass, for the trace file (`--trace 1` only).
    pub trace: Option<Json>,
}

impl RunResult {
    /// The result line the contract asks for: exactly these four keys.
    pub fn to_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, (value, unit))| {
                    (
                        name.as_str(),
                        Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

// ---- Set-up ----------------------------------------------------------------

/// A system set up for a pass, and what setting it up cost.
pub struct SetUp {
    pub sut: Sut,
    /// `requests` is 0; the times leave out the yardstick doses.
    pub cost: HostWindow,
}

/// Environment build, data load and warm-up: what `setup_s` times.
/// Warm-up goes in-process on every path (over HTTP it would cost
/// 200 × 44 ms); the door shares the platform's warm pool. The yardstick
/// is dosed through it like through a pass, so that a set-up can be
/// scaled by how fast the host was during that set-up.
pub fn set_up(stream: &Stream, system: System, path: Path, tracer: &mut Tracer) -> SetUp {
    let (started, cpu0) = (Instant::now(), host::process_cpu());
    let mut yard = Yardstick::start();
    let span = tracer.open("setup", 0, "", || (0, Counters::default()));
    let mut sut = Sut::build(stream.workload, system, stream.seed);
    tracer.close(span, 0, || (sut.clock().now_nanos(), sut.counters()));
    yard.dose_if_due();
    let span = tracer.open("warmup", 0, "", || {
        (sut.clock().now_nanos(), sut.counters())
    });
    let mut failed = 0;
    let mut quiet = Tracer::new(false);
    for (i, req) in stream.requests[..WARMUP].iter().enumerate() {
        failed += u64::from(!sut.issue(i, req, &mut quiet).ok);
        yard.dose_if_due();
    }
    assert_eq!(failed, 0, "warm-up requests must succeed");
    if path == Path::Http {
        sut.open_wire();
    }
    tracer.close(span, 0, || (sut.clock().now_nanos(), sut.counters()));
    let cost = HostWindow {
        wall_s: (started.elapsed() - yard.wall).as_secs_f64(),
        cpu_s: (host::process_cpu() - cpu0)
            .saturating_sub(yard.cpu)
            .as_secs_f64(),
        yard_units: yard.units,
        yard_wall_s: yard.wall.as_secs_f64(),
        ..HostWindow::default()
    };
    SetUp { sut, cost }
}

// ---- The pass --------------------------------------------------------------

/// Host-side readings at one instant.
#[derive(Clone, Copy)]
struct HostMark {
    at: Instant,
    cpu: Duration,
    cpu_user_ms: f64,
    cpu_sys_ms: f64,
    allocs: u64,
    alloc_bytes: u64,
}

impl HostMark {
    fn now() -> Self {
        let (cpu_user_ms, cpu_sys_ms) = host::cpu_ms();
        let (allocs, alloc_bytes) = host::alloc_counts();
        HostMark {
            at: Instant::now(),
            cpu: host::process_cpu(),
            cpu_user_ms,
            cpu_sys_ms,
            allocs,
            alloc_bytes,
        }
    }
}

/// The timed window of a pass: requests `0..requests` of the measured
/// stream, collector passes included.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostWindow {
    pub requests: usize,
    /// Wall time of the window, yardstick doses left out.
    pub wall_s: f64,
    /// Process CPU time in the window, yardstick doses left out.
    pub cpu_s: f64,
    /// The share of the process's CPU time spent in the kernel.
    pub sys_share: f64,
    pub wire_bytes: u64,
    pub yard_units: u64,
    pub yard_wall_s: f64,
}

impl HostWindow {
    /// Requests per second of wall time, as the host ran them.
    pub fn raw_req_per_s(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }

    /// How fast the host was while the window was open (1 is nominal).
    pub fn speed_x(&self) -> f64 {
        host::speed_x(self.yard_units, Duration::from_secs_f64(self.yard_wall_s))
    }

    /// The window's wall time on a host of nominal speed: the time the
    /// process was busy is scaled, the time it waited is not.
    pub fn scaled_wall_s(&self) -> f64 {
        (self.wall_s - self.cpu_s).max(0.0) + self.cpu_s * self.speed_x()
    }

    /// Requests per second on a host of nominal speed.
    pub fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.scaled_wall_s()
    }

    /// CPU milliseconds the window took on a host of nominal speed.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_s * 1e3 * self.speed_x()
    }
}

/// Heap allocations over requests `0..requests`: the requests that are
/// in both windows. Counted to a fixed request whenever the host is
/// fast enough, so that the numbers repeat.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocWindow {
    pub requests: usize,
    pub allocs: u64,
    pub bytes: u64,
}

/// The modelled side of a pass over requests `0..requests`: counter
/// deltas, virtual time and stored rows when the last of them was done.
#[derive(Debug, Clone, Default)]
pub struct ModelWindow {
    pub requests: usize,
    pub counters: Counters,
    pub partition_ops: Vec<u64>,
    pub virt_ns: u64,
    pub sleeps: u64,
    pub rows_meta: u64,
    pub rows_data: u64,
    /// The process's peak resident memory so far (`VmHWM`), read here so
    /// that it does not depend on how many more requests the host window
    /// had time for.
    pub peak_rss_mb: f64,
}

pub struct Pass {
    /// One entry per measured request, in stream order.
    pub outcomes: Vec<Outcome>,
    pub host: HostWindow,
    pub alloc: AllocWindow,
    pub model: ModelWindow,
    pub collect_failures: u64,
}

impl Pass {
    pub fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.ok).count() as u64 + self.collect_failures
    }
}

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// The host window closes at the first request boundary this long
    /// after the start.
    pub seconds: f64,
    /// The model window closes after this many requests; with `None` it
    /// closes with the host window.
    pub n_model: Option<usize>,
    /// Never send more than this many measured requests.
    pub max_requests: usize,
}

impl Limits {
    /// Exactly the first `n` measured requests, however long they take.
    pub fn first(n: usize) -> Limits {
        Limits {
            seconds: f64::INFINITY,
            n_model: None,
            max_requests: n,
        }
    }
}

/// Every window's reading with `requests` measured requests done.
#[derive(Clone)]
struct Reading {
    host: HostWindow,
    alloc: AllocWindow,
    model: ModelWindow,
}

/// Drives the measured part of `stream` (everything after the warm-up)
/// through `sut`, closed loop, one request at a time. Collector passes
/// run after every `collect_every` requests.
///
/// Windows close on whole cycles — a block of requests and the
/// collector pass after it — so the collector's share of a window does
/// not depend on where in a cycle the time ran out: when `seconds` have
/// passed, the host window is what the last finished cycle read (the
/// requests after it are sent but not reported). Only a pass too short
/// for one cycle reports the raw window. The pass ends when the host
/// window and the model window are both closed; requests past the host
/// window go in-process.
pub fn run_pass(sut: &mut Sut, stream: &Stream, limits: Limits, tracer: &mut Tracer) -> Pass {
    let Limits {
        seconds,
        n_model,
        max_requests,
    } = limits;
    let available = stream.requests.len() - WARMUP;
    let measured = &stream.requests[WARMUP..WARMUP + max_requests.min(available)];
    let every = plan(stream.workload).collect_every;
    let mut outcomes = Vec::with_capacity(measured.len());
    let mut collect_failures = 0;

    let c0 = sut.counters();
    let p0 = sut.partition_ops();
    let (v0, s0) = (sut.clock().now_nanos(), sut.clock().sleeps());
    let w0 = sut.wire_bytes();
    let start = HostMark::now();
    // Every reading leaves out what the yardstick doses took.
    let read = |sut: &Sut, yard: &Yardstick, requests: usize| {
        let end = HostMark::now();
        let (rows_meta, rows_data) = sut.rows();
        Reading {
            host: HostWindow {
                requests,
                wall_s: (end.at - start.at - yard.wall).as_secs_f64(),
                cpu_s: (end.cpu - start.cpu).saturating_sub(yard.cpu).as_secs_f64(),
                sys_share: {
                    let (user, sys) = (
                        end.cpu_user_ms - start.cpu_user_ms,
                        end.cpu_sys_ms - start.cpu_sys_ms,
                    );
                    if user + sys > 0.0 {
                        sys / (user + sys)
                    } else {
                        0.0
                    }
                },
                wire_bytes: sut.wire_bytes() - w0,
                yard_units: yard.units,
                yard_wall_s: yard.wall.as_secs_f64(),
            },
            alloc: AllocWindow {
                requests,
                allocs: end.allocs - start.allocs - yard.allocs,
                bytes: end.alloc_bytes - start.alloc_bytes - yard.alloc_bytes,
            },
            model: ModelWindow {
                requests,
                counters: sut.counters().since(&c0),
                partition_ops: sut
                    .partition_ops()
                    .iter()
                    .zip(&p0)
                    .map(|(now, then)| now - then)
                    .collect(),
                virt_ns: sut.clock().now_nanos() - v0,
                sleeps: sut.clock().sleeps() - s0,
                rows_meta,
                rows_data,
                peak_rss_mb: host::peak_rss_mb(),
            },
        }
    };

    let mut yard = Yardstick::start();
    let mut cycle: Option<Reading> = None;
    let mut host: Option<Reading> = None;
    let mut model: Option<Reading> = None;
    for (i, req) in measured.iter().enumerate() {
        if i > 0 && i % every == 0 {
            collect_failures += sut.collect((i / every) as u64, tracer);
            yard.dose_if_due();
            cycle = Some(read(sut, &yard, i));
        }
        if host.is_none() && start.at.elapsed().as_secs_f64() >= seconds {
            host = Some(cycle.clone().unwrap_or_else(|| read(sut, &yard, i)));
            sut.close_wire();
        }
        if model.is_none() {
            model = match n_model {
                Some(n) if n == i => cycle
                    .clone()
                    .filter(|c| c.model.requests == i)
                    .or_else(|| Some(read(sut, &yard, i))),
                Some(_) => None,
                None => host.clone(),
            };
        }
        if host.is_some() && model.is_some() {
            break;
        }
        outcomes.push(sut.issue(WARMUP + i, req, tracer));
        yard.dose_if_due();
    }
    // The stream ran out first: close whatever is still open on what was
    // done. The rates stay valid; the window is shorter than asked.
    let end = read(sut, &yard, outcomes.len());
    sut.close_wire();
    let host = host.unwrap_or_else(|| end.clone());
    let model = model.unwrap_or(end);
    // Allocations are reported over the requests both windows cover.
    let alloc = if host.host.requests <= model.model.requests {
        host.alloc
    } else {
        model.alloc
    };
    Pass {
        outcomes,
        host: host.host,
        alloc,
        model: model.model,
        collect_failures,
    }
}

fn virt_ms(outcomes: &[Outcome]) -> (f64, f64) {
    let samples: Vec<u64> = outcomes.iter().map(|o| o.virt_ns).collect();
    let (p50, p99) = p50_p99(&samples);
    (p50 as f64 / 1e6, p99 as f64 / 1e6)
}

fn hex(digest: u64) -> Json {
    Json::from(format!("{digest:016x}"))
}

// ---- `--trace 0`: the end-to-end run -----------------------------------------

/// Digests pinned for [`PINNED_SEED`]: a later change to a generator or
/// a mix is reported as "workload changed", never as a speed-up.
const PINNED: &str = include_str!("../pinned.json");
pub const PINNED_SEED: u64 = 42;

fn pinned(workload: Workload, key: &str) -> Option<String> {
    let doc = Json::parse(PINNED).expect("pinned.json is valid JSON");
    doc.get(workload.name())?
        .get(key)?
        .as_str()
        .map(str::to_owned)
}

pub fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let plan = plan(workload);
    let path = workload.path();
    let cap = plan.n_model + (seconds * plan.max_rate) as usize;
    let stream = Stream::generate(workload, seed, WARMUP + cap);
    let mut problems: Vec<String> = Vec::new();

    // Set up several times and report the median; the last one is used.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sut = None;
    for _ in 0..SETUPS {
        drop(sut.take());
        let SetUp { sut: fresh, cost } =
            set_up(&stream, System::Beldi, path, &mut Tracer::new(false));
        setups.push(cost);
        sut = Some(fresh);
    }
    let mut sut = sut.expect("SETUPS is at least one");
    let setup_s = |f: fn(&HostWindow) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut off = Tracer::new(false);
    let limits = Limits {
        seconds,
        n_model: Some(plan.n_model),
        max_requests: cap,
    };
    let pass = run_pass(&mut sut, &stream, limits, &mut off);
    let done = pass.outcomes.len();
    if pass.model.requests < plan.n_model {
        problems.push(format!(
            "stream ran out after {} requests, before the {} the modelled metrics need",
            pass.model.requests, plan.n_model
        ));
    }

    // State after all `done` requests, against the generator's oracle
    // (kv-zipf) and against the same stream in baseline mode.
    let oracle = (workload == Workload::KvZipf).then(|| stream.kv_expected_state(WARMUP + done));
    let (state, wrong) = sut.state_digest(oracle.as_ref(), &mut off);
    if wrong > 0 {
        problems.push(format!(
            "{wrong} keys hold a value the oracle does not expect"
        ));
    }
    drop(sut);

    // Reference pass: the same stream in baseline mode, untimed. Gives
    // the baseline latency for `virt_overhead_x`, the pinned state
    // digest (after `n_model` requests) and the final state to compare.
    let mut base = set_up(&stream, System::Baseline, Path::InProcess, &mut off).sut;
    let mut base_outcomes = Vec::with_capacity(done);
    let mut state_at_model = None;
    for (i, req) in stream.requests[WARMUP..WARMUP + done].iter().enumerate() {
        if i == plan.n_model {
            let at_model =
                (workload == Workload::KvZipf).then(|| stream.kv_expected_state(WARMUP + i));
            state_at_model = Some(base.state_digest(at_model.as_ref(), &mut off).0);
        }
        base_outcomes.push(base.issue(WARMUP + i, req, &mut off));
    }
    let (base_state, base_wrong) = base.state_digest(oracle.as_ref(), &mut off);
    let state_at_model = state_at_model.unwrap_or(base_state);
    drop(base);
    let base_failed = base_outcomes.iter().filter(|o| !o.ok).count() as u64;
    if base_failed + base_wrong > 0 {
        problems.push(format!(
            "baseline reference: {base_failed} failed requests, {base_wrong} wrong keys"
        ));
    }
    if state != base_state {
        problems.push(format!(
            "state digest {state:016x} differs from baseline mode's {base_state:016x}"
        ));
    }

    // The HTTP workload's modelled cost must equal an in-process run of
    // the same requests.
    if path == Path::Http {
        let n = pass.host.requests;
        let mut twin = set_up(&stream, System::Beldi, Path::InProcess, &mut off).sut;
        let twin_pass = run_pass(&mut twin, &stream, Limits::first(n), &mut off);
        let differing = twin_pass
            .outcomes
            .iter()
            .zip(&pass.outcomes[..n])
            .filter(|(a, b)| a.virt_ns != b.virt_ns)
            .count();
        // The warm-pool race (ROADMAP, first item) turns a few warm
        // starts cold on one side or the other.
        if differing * 20 > n {
            problems.push(format!(
                "{differing} of {n} HTTP requests differ in modelled latency from the in-process run"
            ));
        }
    }

    let stream_digest = stream.digest(WARMUP + plan.n_model.min(done));
    if seed == PINNED_SEED {
        for (key, got) in [
            ("stream_digest", stream_digest),
            ("state_digest", state_at_model),
        ] {
            let got = format!("{got:016x}");
            match pinned(workload, key) {
                Some(want) if want == got => {}
                Some(want) => problems.push(format!(
                    "workload changed: {key} is {got}, pinned.json has {want}"
                )),
                None => problems.push(format!("pinned.json has no {key} for {}", workload.name())),
            }
        }
    }

    // Metrics. Modelled ones cover requests 0..n_model; host ones cover
    // the timed window.
    let m = &pass.model;
    let n = m.requests.max(1) as f64;
    let (p50, p99) = virt_ms(&pass.outcomes[..m.requests]);
    let (base_p50, _) = virt_ms(&base_outcomes[..m.requests.min(base_outcomes.len())]);
    let h = &pass.host;
    let hn = h.requests.max(1) as f64;
    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_owned(), (value, unit));
    };
    put("virt_p50_ms", p50, "ms");
    put("virt_p99_ms", p99, "ms");
    put("virt_overhead_x", p50 / base_p50, "ratio");
    put("db_ops_per_req", m.counters.db_ops() as f64 / n, "ops");
    put(
        "db_kb_per_req",
        m.counters.db_bytes() as f64 / 1024.0 / n,
        "KiB",
    );
    put("store_rows_end", (m.rows_meta + m.rows_data) as f64, "rows");
    put("host_req_per_s", h.req_per_s(), "req/s");
    put("host_cpu_ms_per_req", h.cpu_ms() / hn, "ms");
    let an = pass.alloc.requests.max(1) as f64;
    put(
        "alloc_kb_per_req",
        pass.alloc.bytes as f64 / 1024.0 / an,
        "KiB",
    );
    put("allocs_per_req", pass.alloc.allocs as f64 / an, "count");
    put("peak_rss_mb", m.peak_rss_mb, "MiB");
    put("setup_s", setup_s(HostWindow::scaled_wall_s), "s");

    for m in &crate::spec::END_TO_END {
        assert!(metrics.contains_key(m.name), "{} was not measured", m.name);
    }

    let mut notes = BTreeMap::new();
    notes.insert("stream_digest".to_owned(), hex(stream_digest));
    notes.insert("state_digest".to_owned(), hex(state_at_model));
    notes.insert("requests_timed".to_owned(), Json::from(h.requests as u64));
    notes.insert(
        "requests_modelled".to_owned(),
        Json::from(m.requests as u64),
    );
    notes.insert("requests_done".to_owned(), Json::from(done as u64));
    notes.insert("window_s".to_owned(), Json::from(h.wall_s + h.yard_wall_s));
    notes.insert("host_speed_x".to_owned(), Json::from(h.speed_x()));
    notes.insert("raw_req_per_s".to_owned(), Json::from(h.raw_req_per_s()));
    notes.insert("raw_setup_s".to_owned(), Json::from(setup_s(|w| w.wall_s)));
    notes.insert("cold_starts".to_owned(), Json::from(m.counters.cold_starts));
    notes.insert(
        "problems".to_owned(),
        Json::Arr(problems.iter().map(|p| Json::from(p.as_str())).collect()),
    );
    let failed = pass.failed();
    RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted: done as u64,
        failed,
        metrics,
        notes,
        trace: None,
    }
}

// ---- `--trace 1`: the per-layer run -------------------------------------------

pub fn run_layers(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let plan = plan(workload);
    let path = workload.path();
    // Three passes of a quarter of the time each over the same requests:
    // timed, traced, timed. The two timed ones around the traced one give
    // the repetition spread and keep a drift of the host out of the
    // tracing overhead. The probes take what is left: the traced pass
    // needs counts, not long timing.
    let window = seconds / 4.0;
    let stream = Stream::generate(workload, seed, WARMUP + (window * plan.max_rate) as usize);
    let limits = Limits {
        seconds: window,
        n_model: None,
        max_requests: usize::MAX,
    };
    let mut off = Tracer::new(false);
    let timed_pass = |off: &mut Tracer| {
        let mut sut = set_up(&stream, System::Beldi, path, off).sut;
        run_pass(&mut sut, &stream, limits, off)
    };
    let before = timed_pass(&mut off);

    let mut tracer = Tracer::new(true);
    let mut sut = set_up(&stream, System::Beldi, path, &mut tracer).sut;
    sut.clock().set_attribution(true);
    let traced = run_pass(&mut sut, &stream, limits, &mut tracer);
    sut.clock().set_attribution(false);
    let done = traced.outcomes.len();
    let oracle = (workload == Workload::KvZipf).then(|| stream.kv_expected_state(WARMUP + done));
    let (_, wrong) = sut.state_digest(oracle.as_ref(), &mut tracer);
    let max_chain_len = sut.max_chain_len(layers::HOT_KEYS);
    let peak_active = sut.peak_active();
    let by_thread = sut.clock().by_thread();
    drop(sut);
    let after = timed_pass(&mut off);

    // The in-process twin of an HTTP pass: the same requests without the
    // front door, for `front.http_overhead_ms`.
    let twin = (path == Path::Http).then(|| {
        let mut twin = set_up(&stream, System::Beldi, Path::InProcess, &mut off).sut;
        run_pass(&mut twin, &stream, Limits::first(done), &mut off)
    });

    let probes = crate::adapter::run_probes();

    let metrics = layers::metrics(&layers::Inputs {
        timed: [&before, &after],
        traced: &traced,
        spans: tracer.spans(),
        twin: twin.as_ref(),
        max_chain_len,
        peak_active,
        probes: &probes,
    });

    let ledger = layers::ledger(workload, &metrics);
    let trace = layers::trace_document(workload, seed, &tracer, &by_thread, &ledger);

    let mut notes = BTreeMap::new();
    notes.insert(
        "requests_timed".to_owned(),
        Json::from((before.host.requests + after.host.requests) as u64),
    );
    notes.insert("requests_traced".to_owned(), Json::from(done as u64));
    notes.insert("ledger".to_owned(), ledger);
    let passes = [Some(&before), Some(&traced), Some(&after), twin.as_ref()];
    let failed = passes.iter().flatten().map(|p| p.failed()).sum::<u64>();
    RunResult {
        correct: failed == 0 && wrong == 0,
        attempted: passes
            .iter()
            .flatten()
            .map(|p| p.outcomes.len() as u64)
            .sum(),
        failed,
        metrics,
        notes,
        trace: Some(trace),
    }
}
