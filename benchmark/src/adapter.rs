//! The one file that names workspace symbols, and the place spans are
//! recorded: every call the benchmark makes into the system goes
//! through here. `README.md` lists the symbols used; a later change to
//! the system keeps them or forwards them here, and nothing else in the
//! benchmark has to move.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use beldi::{BeldiConfig, BeldiEnv, BeldiError, Mode, A_VALUE};
use beldi_apps::{bench_app, MixProfile, WorkflowApp};
use beldi_bench::front::FrontDoor;
use beldi_runtime::Executor;
use beldi_simclock::{Clock, SimInstant};
use beldi_simdb::{Database, LatencyModel, PrimaryKey, ScanRequest, TableSchema, TransactOp};
use beldi_simfaas::{Platform, PlatformConfig, SaturationPolicy};
use beldi_value::{json, vmap, Cond, Path as AttrPath, Update, Value};

use crate::clock::LedgerClock;
use crate::gen::{
    self, kv_key, kv_reply_cond, kv_reply_read, kv_value, Fnv, KvOpKind, KvOracle, KvRequest,
};
use crate::probes::{ns_per_call, BATCHES};
use crate::run::Metrics;
use crate::stats::median;
use crate::trace::{Counters, Tracer};

impl Clock for LedgerClock {
    fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.now_nanos())
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

// ---- The pinned model ------------------------------------------------------

/// The database latency model, pinned here so that editing
/// `LatencyModel::dynamo()` cannot silently move the modelled numbers.
/// Every field is named: a field added later fails to compile here until
/// it is pinned too.
fn pinned_latency() -> LatencyModel {
    LatencyModel {
        get_base: Duration::from_micros(3_500),
        write_base: Duration::from_micros(5_000),
        scan_base: Duration::from_micros(4_000),
        scan_per_row: Duration::from_micros(60),
        per_kib: Duration::from_micros(15),
        transact_base: Duration::from_micros(14_000),
        jitter: 0.35,
        tail_prob: 0.01,
        tail_mult: 6.0,
    }
}

/// Modelled cost of one warm invocation: dispatch overhead plus warm start.
pub const WARM_INVOKE_MS: f64 = 13.0;
/// What a cold start adds on top of a warm one.
pub const COLD_EXTRA_MS: f64 = 147.0;

/// The platform model, pinned like the latency model (the values of
/// `beldi_bench::lambda_like_platform()` at the commit that added the
/// benchmark).
fn pinned_platform() -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: 1000,
        invoke_timeout: Duration::from_secs(120),
        cold_start: Duration::from_millis(150),
        warm_start: Duration::from_millis(3),
        invoke_overhead: Duration::from_millis(10),
        warm_pool_per_fn: 2_000,
        saturation: SaturationPolicy::Queue,
    }
}

// ---- Workloads -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MediaRead,
    TravelTxn,
    SocialFront,
    KvZipf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MediaRead,
        Workload::TravelTxn,
        Workload::SocialFront,
        Workload::KvZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MediaRead => "media-read",
            Workload::TravelTxn => "travel-txn",
            Workload::SocialFront => "social-front",
            Workload::KvZipf => "kv-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The app behind the workload and its request mix; `None` for the
    /// benchmark's own `kv-zipf` function.
    fn app(self, mode: Mode) -> Option<Box<dyn WorkflowApp>> {
        let (kind, mix) = match self {
            Workload::MediaRead => ("media", MixProfile::Default),
            Workload::TravelTxn => ("travel", MixProfile::WriteHeavy),
            Workload::SocialFront => ("social", MixProfile::Default),
            Workload::KvZipf => return None,
        };
        Some(bench_app(kind, mode, mix).expect("the three apps exist"))
    }

    /// How the workload's requests reach the system.
    pub fn path(self) -> Path {
        match self {
            Workload::SocialFront => Path::Http,
            _ => Path::InProcess,
        }
    }
}

/// Which of the paper's systems runs the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Beldi,
    Baseline,
}

/// How requests reach the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `BeldiEnv::invoke` on the calling thread.
    InProcess,
    /// `POST /invoke/{ssf}` over one keep-alive connection.
    Http,
}

/// The request kinds the per-layer metrics break latency down by.
pub const KINDS: [&str; 9] = [
    "page",
    "compose-review",
    "search",
    "recommend",
    "login",
    "reserve",
    "home-timeline",
    "user-timeline",
    "compose-post",
];

const KV_SSF: &str = "kv";
const KV_TABLE: &str = "store";
const KV_KIND: &str = "kv";

// ---- Request streams -------------------------------------------------------

enum Body {
    App {
        payload: Value,
        /// The framed HTTP request, for workloads sent over the wire.
        wire: Option<Vec<u8>>,
    },
    Kv {
        ops: KvRequest,
        /// Digest of the reply the oracle expects.
        expect: u64,
    },
}

pub struct Request {
    pub kind: &'static str,
    body: Body,
}

/// A workload's requests, generated up front from the seed. The system
/// sees nothing of the generator: only these inputs.
pub struct Stream {
    pub workload: Workload,
    pub seed: u64,
    pub requests: Vec<Request>,
}

impl Stream {
    pub fn generate(workload: Workload, seed: u64, n: usize) -> Stream {
        let requests = match workload.app(Mode::Beldi) {
            Some(app) => {
                let mut rng = beldi_apps::rng::request_rng(seed);
                let entry = app.entry_point();
                (0..n)
                    .map(|i| {
                        let payload = app.gen_load_request(&mut rng);
                        let kind = request_kind(workload, &payload);
                        let wire = (workload.path() == Path::Http)
                            .then(|| frame_request(entry, seed, i, &payload));
                        Request {
                            kind,
                            body: Body::App { payload, wire },
                        }
                    })
                    .collect()
            }
            None => {
                let mut oracle = KvOracle::new(seed);
                gen::kv_stream(seed, n)
                    .into_iter()
                    .map(|ops| Request {
                        kind: KV_KIND,
                        body: Body::Kv {
                            expect: oracle.apply(&ops),
                            ops,
                        },
                    })
                    .collect()
            }
        };
        Stream {
            workload,
            seed,
            requests,
        }
    }

    /// FNV digest of the first `n` generated requests: the workload's
    /// identity. A change to a generator or a mix changes it.
    pub fn digest(&self, n: usize) -> u64 {
        let mut h = Fnv::new();
        for req in &self.requests[..n] {
            match &req.body {
                Body::App { payload, .. } => h.write(json::to_json(payload).as_bytes()),
                Body::Kv { ops, .. } => h.write_u64(gen::kv_stream_digest(&[*ops])),
            }
        }
        h.finish()
    }

    /// The oracle after the first `n` requests (`kv-zipf`; on the apps
    /// it has seen nothing).
    pub fn kv_expected_state(&self, n: usize) -> KvOracle {
        let mut oracle = KvOracle::new(self.seed);
        for req in &self.requests[..n] {
            if let Body::Kv { ops, .. } = &req.body {
                oracle.apply(ops);
            }
        }
        oracle
    }
}

fn request_kind(workload: Workload, payload: &Value) -> &'static str {
    let op = payload.get_str("op").unwrap_or("");
    let name = match (workload, op) {
        (Workload::MediaRead, "compose") => "compose-review",
        (Workload::SocialFront, "compose") => "compose-post",
        (_, op) => op,
    };
    KINDS
        .into_iter()
        .find(|k| *k == name)
        .unwrap_or_else(|| panic!("{}: unknown request kind {op:?}", workload.name()))
}

/// One `write_all` worth of bytes per request. The instance id has the
/// shape of the platform's own ids, so rows and log keys are as large as
/// on the in-process path and the modelled cost is the same.
fn frame_request(entry: &str, seed: u64, index: usize, payload: &Value) -> Vec<u8> {
    let body = json::to_json(payload);
    let mut h = Fnv::new();
    h.write_u64(seed);
    h.write_u64(index as u64);
    format!(
        "POST /invoke/{entry} HTTP/1.1\r\nhost: benchmark\r\nx-beldi-instance: {:016x}-{index:08x}\r\ncontent-length: {}\r\n\r\n{body}",
        h.finish(),
        body.len(),
    )
    .into_bytes()
}

// ---- The system under test -------------------------------------------------

/// The front door and the benchmark's own client: one connection,
/// `TCP_NODELAY`, one `write_all` per request.
struct Wire {
    door: FrontDoor,
    conn: BufReader<TcpStream>,
    bytes: u64,
}

impl Wire {
    fn open(env: &Arc<BeldiEnv>) -> Wire {
        let door = FrontDoor::start(env.clone(), "127.0.0.1:0", 0)
            .expect("bind the front door to a loopback port");
        let stream = TcpStream::connect(door.addr()).expect("connect to the front door");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Wire {
            door,
            conn: BufReader::new(stream),
            bytes: 0,
        }
    }

    /// Closes the connection, then stops the door and joins its threads.
    fn close(self) {
        drop(self.conn);
        self.door.shutdown();
    }
}

/// One built environment with a workload installed: the unit a pass
/// runs against.
pub struct Sut {
    env: Arc<BeldiEnv>,
    clock: Arc<LedgerClock>,
    system: System,
    app: Option<Box<dyn WorkflowApp>>,
    entry: &'static str,
    ssfs: Vec<String>,
    wire: Option<Wire>,
}

/// What one request cost, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub ok: bool,
    pub virt_ns: u64,
    pub host_ns: u64,
}

impl Sut {
    /// Builds the environment (default configuration for the mode, the
    /// pinned model, a fresh `LedgerClock`), installs the workload and
    /// loads its data.
    pub fn build(workload: Workload, system: System, seed: u64) -> Sut {
        let mode = match system {
            System::Beldi => Mode::Beldi,
            System::Baseline => Mode::Baseline,
        };
        let clock = Arc::new(LedgerClock::new());
        let env = Arc::new(
            BeldiEnv::builder(BeldiConfig::for_mode(mode))
                .clock(clock.clone())
                .latency(pinned_latency())
                .platform(pinned_platform())
                .seed(seed)
                .build(),
        );
        let app = workload.app(mode);
        let entry = match &app {
            Some(app) => {
                app.setup(&env);
                app.entry_point()
            }
            None => {
                install_kv(&env, seed);
                KV_SSF
            }
        };
        let ssfs = env.ssf_names();
        Sut {
            env,
            clock,
            system,
            app,
            entry,
            ssfs,
            wire: None,
        }
    }

    /// Starts the front door over this environment and opens the
    /// client's one keep-alive connection; later requests go over HTTP.
    pub fn open_wire(&mut self) {
        self.wire = Some(Wire::open(&self.env));
    }

    pub fn clock(&self) -> &LedgerClock {
        &self.clock
    }

    fn sample(&self) -> (u64, Counters) {
        (self.clock.now_nanos(), self.counters())
    }

    /// Sends one request and checks its reply. Over HTTP the span is an
    /// `http_roundtrip` child of the `request` span. (Not named `request`:
    /// `beldi-lint` matches calls by name across the whole tree, and the
    /// front door's client calls a `request` from an executor root.)
    pub fn issue(&mut self, index: usize, req: &Request, tracer: &mut Tracer) -> Outcome {
        let span = tracer.open("request", index as u64, req.kind, || self.sample());
        let virt0 = self.clock.now_nanos();
        let host0 = Instant::now();
        let ok = match (&req.body, self.wire.is_some()) {
            (
                Body::App {
                    wire: Some(bytes), ..
                },
                true,
            ) => {
                let inner = tracer.open("http_roundtrip", index as u64, req.kind, || self.sample());
                let wire = self.wire.as_mut();
                let ok = wire.is_some_and(|wire| matches!(roundtrip(wire, bytes), Ok(true)));
                tracer.close(inner, 0, || self.sample());
                ok
            }
            (Body::App { payload, .. }, _) => self.env.invoke(self.entry, payload.clone()).is_ok(),
            (Body::Kv { ops, expect }, _) => self
                .env
                .invoke(self.entry, kv_payload(ops))
                .is_ok_and(|reply| kv_reply_digest(&reply) == Some(*expect)),
        };
        let host_ns = host0.elapsed().as_nanos() as u64;
        let virt_ns = self.clock.now_nanos() - virt0;
        tracer.close(span, 0, || self.sample());
        Outcome {
            ok,
            virt_ns,
            host_ns,
        }
    }

    /// One intent-collector pass and one garbage-collector pass for
    /// every SSF: what the paper's one-minute timers would have run. The
    /// driver calls this between requests because no timer may run on
    /// the `LedgerClock`. Returns the number of failed passes.
    pub fn collect(&self, pass: u64, tracer: &mut Tracer) -> u64 {
        if self.system == System::Baseline {
            return 0;
        }
        let mut failed = 0;
        // `run` returns the pass's result count, or `None` if it failed.
        let mut pass_of = |name, child, run: &dyn Fn(&str) -> Option<usize>| {
            let whole = tracer.open(name, pass, "", || self.sample());
            for ssf in &self.ssfs {
                let span = tracer.open(child, pass, ssf, || self.sample());
                let count = run(ssf);
                failed += u64::from(count.is_none());
                tracer.close(span, count.unwrap_or(0) as u64, || self.sample());
            }
            tracer.close(whole, 0, || self.sample());
        };
        pass_of("ic_pass", "ic", &|ssf| {
            self.env.run_ic_once(ssf).ok().map(|r| r.restarted)
        });
        pass_of("gc_pass", "gc", &|ssf| {
            let report = self.env.run_gc_once(ssf).ok()?;
            Some(report.recycled_intents + report.deleted_log_entries + report.deleted_rows)
        });
        failed
    }

    /// The system's counters, flattened.
    pub fn counters(&self) -> Counters {
        let db = self.env.db_metrics();
        let faas = self.env.platform_metrics();
        Counters {
            gets: db.gets,
            writes: db.writes,
            queries: db.queries,
            scans: db.scans,
            transact_writes: db.transact_writes,
            deletes: db.deletes,
            cond_failures: db.cond_failures,
            bytes_read: db.bytes_read,
            bytes_written: db.bytes_written,
            rows_scanned: db.rows_scanned,
            lock_waits: db.lock_waits,
            invocations: faas.invocations,
            cold_starts: faas.cold_starts,
        }
    }

    /// Lock acquisitions per partition so far.
    pub fn partition_ops(&self) -> Vec<u64> {
        self.env.db_metrics().partition_ops
    }

    /// Most instances that ever ran at once.
    pub fn peak_active(&self) -> u64 {
        self.env.platform_metrics().peak_active.max(0) as u64
    }

    /// Rows stored right now, as (Beldi's own tables, data tables).
    pub fn rows(&self) -> (u64, u64) {
        let mut meta = 0;
        let mut data = 0;
        for (table, rows) in self.env.db().table_row_counts() {
            if beldi::schema::is_meta_table(&table) {
                meta += rows as u64;
            } else {
                data += rows as u64;
            }
        }
        (meta, data)
    }

    /// Digest of the application state, and how many keys hold a wrong
    /// value. For the apps the digest is of `bench_fingerprint`. For
    /// `kv-zipf` it is the generator's own expected state (`expected`,
    /// the oracle after the same requests), and every key the oracle says
    /// was written is read back and compared with it.
    pub fn state_digest(&self, expected: Option<&KvOracle>, tracer: &mut Tracer) -> (u64, u64) {
        let span = tracer.open("fingerprint", 0, "", || self.sample());
        let mut wrong = 0;
        let digest = match (&self.app, expected) {
            (Some(app), _) => {
                let mut h = Fnv::new();
                h.write(json::to_json(&app.bench_fingerprint(&self.env)).as_bytes());
                h.finish()
            }
            (None, Some(oracle)) => {
                for (key, value) in oracle.written() {
                    let stored = self.env.read_current(KV_SSF, KV_TABLE, &kv_key(key));
                    let stored = stored.ok().and_then(|v| v.as_str().map(str::to_owned));
                    wrong += u64::from(stored.as_deref() != Some(kv_value(value).as_str()));
                }
                oracle.state_digest()
            }
            (None, None) => 0,
        };
        tracer.close(span, wrong, || self.sample());
        (digest, wrong)
    }

    /// Longest DAAL chain among the `hottest` keys of `kv-zipf` (where
    /// chains grow deepest); 0 for the apps, whose keys the benchmark
    /// does not know.
    pub fn max_chain_len(&self, hottest: u32) -> u64 {
        if self.app.is_some() || self.system == System::Baseline {
            return 0;
        }
        (0..hottest)
            .filter_map(|k| self.env.daal_chain_len(KV_SSF, KV_TABLE, &kv_key(k)).ok())
            .max()
            .unwrap_or(0) as u64
    }

    /// Bytes sent and received over the wire so far.
    pub fn wire_bytes(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.bytes)
    }

    /// Closes the connection and stops the front door, joining its
    /// threads; later requests go in-process. A no-op without a door.
    pub fn close_wire(&mut self) {
        if let Some(wire) = self.wire.take() {
            wire.close();
        }
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        self.close_wire();
    }
}

/// Writes one framed request and reads one framed reply; `Ok(true)` for
/// a `200` whose body is an `{"ok": …}` envelope.
fn roundtrip(wire: &mut Wire, request: &[u8]) -> io::Result<bool> {
    wire.conn.get_mut().write_all(request)?;
    let mut received = 0;
    let mut line = String::new();
    received += wire.conn.read_line(&mut line)?;
    let status_ok = line.split_whitespace().nth(1) == Some("200");
    let mut content_length = 0usize;
    loop {
        line.clear();
        let n = wire.conn.read_line(&mut line)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        received += n;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::from(io::ErrorKind::InvalidData))?;
            }
        }
    }
    // The door is ours and its replies are a few KiB; a larger length
    // means a broken frame, not a body to allocate for.
    if content_length > 64 << 20 {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let mut body = vec![0u8; content_length];
    wire.conn.read_exact(&mut body)?;
    wire.bytes += (request.len() + received + content_length) as u64;
    Ok(status_ok && body.starts_with(b"{\"ok\":"))
}

// ---- kv-zipf: the benchmark's own SSF ---------------------------------------

/// Registers the `kv` function — eight logged operations per invocation,
/// chosen by its input — and seeds every key.
fn install_kv(env: &BeldiEnv, seed: u64) {
    env.register_ssf(
        KV_SSF,
        &[KV_TABLE],
        Arc::new(|ctx, input| {
            let bad = || BeldiError::Protocol("kv: malformed request".into());
            let mut reply = Vec::new();
            for op in input.as_list().ok_or_else(bad)? {
                let [kind, key, value] = op.as_list().ok_or_else(bad)?.as_slice() else {
                    return Err(bad());
                };
                let key = key.as_str().ok_or_else(bad)?;
                match kind.as_int() {
                    Some(0) => reply.push(ctx.read(KV_TABLE, key)?),
                    Some(1) => ctx.write(KV_TABLE, key, value.clone())?,
                    Some(2) => {
                        let cond = Cond::le(A_VALUE, value.clone());
                        reply.push(Value::Bool(ctx.cond_write(
                            KV_TABLE,
                            key,
                            value.clone(),
                            cond,
                        )?));
                    }
                    _ => return Err(bad()),
                }
            }
            Ok(Value::List(reply))
        }),
    );
    for key in 0..gen::KV_KEYS as u32 {
        env.seed(
            KV_SSF,
            KV_TABLE,
            &kv_key(key),
            Value::from(kv_value(gen::kv_initial(seed, key))),
        )
        .expect("seed a kv key");
    }
}

fn kv_payload(ops: &KvRequest) -> Value {
    Value::List(
        ops.iter()
            .map(|op| {
                let (kind, value) = match op.kind {
                    KvOpKind::Read => (0, Value::Null),
                    KvOpKind::Write => (1, Value::from(kv_value(op.arg))),
                    KvOpKind::CondWrite => (2, Value::from(kv_value(op.arg))),
                };
                Value::List(vec![Value::Int(kind), Value::from(kv_key(op.key)), value])
            })
            .collect(),
    )
}

/// Digest of a `kv` reply, built the way the oracle builds the expected
/// one; `None` for a reply of the wrong shape.
fn kv_reply_digest(reply: &Value) -> Option<u64> {
    let mut h = Fnv::new();
    for item in reply.as_list()? {
        match item {
            Value::Str(s) => kv_reply_read(&mut h, s),
            Value::Bool(b) => kv_reply_cond(&mut h, *b),
            _ => return None,
        }
    }
    Some(h.finish())
}

// ---- Layer probes ----------------------------------------------------------

/// Runs every layer probe: tight single-thread loops over each layer's
/// public functions with fixed inputs. Nothing here sleeps for real (the
/// clock is a `LedgerClock`), so a probe times the layer's own code.
pub fn run_probes() -> Metrics {
    let mut out = Metrics::new();
    probe_value(&mut out);
    probe_simdb(&mut out);
    probe_simfaas_and_runtime(&mut out);
    probe_core(&mut out);
    probe_front(&mut out);
    out
}

fn put(out: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    out.insert(name.to_owned(), (value, unit));
}

/// A full DAAL row: key, row id, value, and a write log of `entries`
/// outcomes keyed `instance#step`.
fn daal_row(entries: usize) -> Value {
    let mut writes = beldi_value::Map::new();
    for i in 0..entries {
        writes.insert(
            format!("{:016x}-{i:08x}#3", 0x5eed_u64 + i as u64),
            Value::Bool(true),
        );
    }
    vmap! {
        "Key" => "k000000",
        "RowId" => "HEAD",
        "Value" => kv_value(7),
        "LogSize" => entries as i64,
        "RecentWrites" => Value::Map(writes),
        "Created" => 1_000i64,
    }
}

fn probe_value(out: &mut Metrics) {
    let row = daal_row(100);
    put(
        out,
        "value.clone_row_ns",
        ns_per_call(300, || {
            black_box(black_box(&row).clone());
        }),
        "ns",
    );

    // The condition and update of a DAAL log append (core's case B).
    let log_key = "00000000deadbeef-00000001#3";
    let cond = Cond::not_exists(AttrPath::attr("RecentWrites").then_attr(log_key))
        .and(Cond::not_exists("LogSize").or(Cond::lt("LogSize", Value::Int(1_000))))
        .and(Cond::not_exists("NextRow"));
    put(
        out,
        "value.cond_eval_ns",
        ns_per_call(10_000, || {
            black_box(
                black_box(&cond)
                    .eval(black_box(&row))
                    .expect("condition evaluates"),
            );
        }),
        "ns",
    );
    let update = Update::new()
        .inc("LogSize", 1)
        .set(
            AttrPath::attr("RecentWrites").then_attr(log_key),
            Value::Bool(true),
        )
        .set("Value", kv_value(9));
    let mut target = row.clone();
    put(
        out,
        "value.update_apply_ns",
        ns_per_call(10_000, || {
            black_box(&update)
                .apply(black_box(&mut target))
                .expect("update applies");
        }),
        "ns",
    );

    // About 4 KiB of JSON shaped like a timeline reply.
    let posts: Vec<Value> = (0..16i64)
        .map(|i| {
            vmap! {
                "post_id" => format!("{:016x}-{i:08x}", 0xfeed_u64),
                "creator" => format!("user-{}", i % 7),
                "text" => "the quick brown fox jumps over the lazy dog ".repeat(3),
                "mentions" => Value::List(vec![Value::from("user-1"), Value::from("user-2")]),
                "ts" => 1_700_000_000_000i64 + i,
            }
        })
        .collect();
    let payload = vmap! { "ok" => Value::List(posts) };
    let text = json::to_json(&payload);
    put(
        out,
        "value.json_emit_us",
        ns_per_call(200, || {
            black_box(json::to_json(black_box(&payload)));
        }) / 1e3,
        "us",
    );
    put(
        out,
        "value.json_parse_us",
        ns_per_call(200, || {
            black_box(json::from_json(black_box(&text)).expect("own output parses"));
        }) / 1e3,
        "us",
    );
}

/// A zero-latency database on a `LedgerClock` with one DAAL-shaped
/// table of `rows` single-row keys; returns it with 1,024 keys spread
/// evenly over the table. The large size is `kv-zipf`'s key count: a
/// million rows take over ten seconds to build in the sandbox.
fn probe_table(rows: usize) -> (Arc<Database>, Vec<PrimaryKey>) {
    let db = Database::new(Arc::new(LedgerClock::new()), LatencyModel::zero(), 1);
    db.create_table("t", TableSchema::hash_and_sort("Key", "RowId"))
        .expect("create the probe table");
    for i in 0..rows {
        db.put("t", probe_item(i)).expect("fill the probe table");
    }
    let stride = (rows / 1_024).max(1);
    let keys = (0..1_024)
        .map(|i| PrimaryKey::hash_sort(format!("k{:07}", (i * stride) % rows), "HEAD"))
        .collect();
    (db, keys)
}

fn probe_item(i: usize) -> Value {
    vmap! { "Key" => format!("k{i:07}"), "RowId" => "HEAD", "Value" => i as i64 }
}

fn probe_simdb(out: &mut Metrics) {
    for (rows, tag) in [(1_000usize, "1k"), (gen::KV_KEYS, "128k")] {
        let (db, keys) = probe_table(rows);
        let mut next = 0usize;
        let mut key = || {
            next = (next + 1) % keys.len();
            &keys[next]
        };
        put(
            out,
            &format!("simdb.get_ns.{tag}"),
            ns_per_call(5_000, || {
                black_box(db.get("t", key(), None).expect("get"));
            }),
            "ns",
        );
        let stride = (rows / 1_024).max(1);
        let items: Vec<Value> = (0..1_024)
            .map(|i| probe_item((i * stride) % rows))
            .collect();
        let mut next_item = 0usize;
        put(
            out,
            &format!("simdb.put_ns.{tag}"),
            ns_per_call(5_000, || {
                next_item = (next_item + 1) % items.len();
                db.put("t", items[next_item].clone()).expect("put");
            }),
            "ns",
        );
        let cond = Cond::exists("Key");
        let update = Update::new().set("Value", 1i64);
        put(
            out,
            &format!("simdb.cond_update_ns.{tag}"),
            ns_per_call(5_000, || {
                db.update("t", key(), black_box(&cond), black_box(&update))
                    .expect("update");
            }),
            "ns",
        );
    }

    let (db, keys) = probe_table(1_000);
    for i in 0..20 {
        db.put(
            "t",
            vmap! { "Key" => "chain", "RowId" => format!("r{i:02}"), "Value" => kv_value(i) },
        )
        .expect("build the 20-row key");
    }
    let hash = Value::from("chain");
    let all = ScanRequest::all();
    put(
        out,
        "simdb.query20_us",
        ns_per_call(300, || {
            black_box(db.query("t", black_box(&hash), &all).expect("query"));
        }) / 1e3,
        "us",
    );
    let ops = |a: &PrimaryKey, b: &PrimaryKey| {
        [a, b].map(|key| TransactOp::Update {
            table: "t".to_owned(),
            key: key.clone(),
            cond: Cond::exists("Key"),
            update: Update::new().set("Value", 2i64),
        })
    };
    let mut next = 0usize;
    put(
        out,
        "simdb.transact2_us",
        ns_per_call(300, || {
            next = (next + 2) % keys.len();
            db.transact_write(&ops(&keys[next], &keys[next + 1]))
                .expect("transact");
        }) / 1e3,
        "us",
    );
}

fn probe_simfaas_and_runtime(out: &mut Metrics) {
    let clock: Arc<LedgerClock> = Arc::new(LedgerClock::new());
    let platform = Platform::new(clock.clone(), PlatformConfig::for_tests(), 1);
    platform.register("noop", Arc::new(|_, input| input));
    put(
        out,
        "simfaas.invoke_sync_us",
        ns_per_call(300, || {
            black_box(platform.invoke_sync("noop", Value::Null).expect("invoke"));
        }) / 1e3,
        "us",
    );
    let rt = Executor::new(clock, 1);
    put(
        out,
        "simfaas.invoke_pending_us",
        ns_per_call(300, || {
            black_box(
                rt.block_on(platform.invoke_pending("noop", Value::Null))
                    .expect("invoke"),
            );
        }) / 1e3,
        "us",
    );

    // Timers need a clock that moves when the executor is idle, which a
    // `LedgerClock` never does: the simulated executor jumps to the next
    // deadline instead.
    let rt = Executor::simulated(1);
    const INNER: usize = 100;
    put(
        out,
        "runtime.spawn_join_ns",
        ns_per_call(20, || {
            rt.block_on(async {
                for _ in 0..INNER {
                    black_box(beldi_runtime::spawn(async { black_box(1u64) }).await);
                }
            });
        }) / INNER as f64,
        "ns",
    );
    put(
        out,
        "runtime.timer_ns",
        ns_per_call(20, || {
            rt.block_on(async {
                for _ in 0..INNER {
                    beldi_runtime::sleep(Duration::from_millis(1)).await;
                }
            });
        }) / INNER as f64,
        "ns",
    );
}

/// Operations per invocation of the `probe` SSF: enough that clock
/// reads around the loop are noise.
const CORE_OPS: i64 = 16;

/// Fig. 13's rows: one Beldi operation at a time, timed inside a
/// benchmark-registered SSF so that the invocation around it is not in
/// the number. Pinned model, so `virt_ms` is the modelled cost.
fn probe_core(out: &mut Metrics) {
    let clock = Arc::new(LedgerClock::new());
    let env = BeldiEnv::builder(BeldiConfig::for_mode(Mode::Beldi))
        .clock(clock.clone())
        .latency(pinned_latency())
        .platform(pinned_platform())
        .seed(1)
        .build();
    env.register_ssf("probe-noop", &[], Arc::new(|_, input| Ok(input)));
    let body_clock = clock.clone();
    env.register_ssf(
        "probe",
        &["t"],
        Arc::new(move |ctx, input| {
            let op = input.get_str("op").unwrap_or("");
            let virt0 = body_clock.now_nanos();
            let host0 = Instant::now();
            for i in 0..CORE_OPS {
                match op {
                    "read" => drop(ctx.read("t", "r")?),
                    "write" => ctx.write("t", "w", Value::from(kv_value(i as u64)))?,
                    "cond_write" => {
                        let cond = Cond::exists(A_VALUE);
                        ctx.cond_write("t", "c", Value::from(kv_value(i as u64)), cond)?;
                    }
                    "sync_invoke" => drop(ctx.sync_invoke("probe-noop", Value::Null)?),
                    "txn2" => {
                        ctx.begin_tx()?;
                        ctx.write("t", "x", Value::Int(i))?;
                        ctx.write("t", "y", Value::Int(i))?;
                        ctx.end_tx()?;
                    }
                    _ => return Err(BeldiError::Protocol(format!("probe: unknown op {op:?}"))),
                }
            }
            Ok(vmap! {
                "host_ns" => host0.elapsed().as_nanos() as i64,
                "virt_ns" => (body_clock.now_nanos() - virt0) as i64,
            })
        }),
    );
    for key in ["r", "w", "c", "x", "y"] {
        env.seed("probe", "t", key, Value::from(kv_value(0)))
            .expect("seed a probe key");
    }
    for op in ["read", "write", "cond_write", "sync_invoke", "txn2"] {
        let mut host = Vec::new();
        let mut virt = Vec::new();
        let mut ops = Vec::new();
        for _ in 0..=BATCHES {
            let before = env.db_metrics().total_ops();
            let reply = env
                .invoke("probe", vmap! { "op" => op })
                .expect("probe invocation");
            let after = env.db_metrics().total_ops();
            host.push(reply.get_int("host_ns").unwrap_or(0) as f64 / CORE_OPS as f64);
            virt.push(reply.get_int("virt_ns").unwrap_or(0) as f64 / CORE_OPS as f64);
            ops.push((after - before) as f64);
            // Keep the store on a plateau, as the workloads do.
            for ssf in env.ssf_names() {
                let _ = env.run_gc_once(&ssf);
            }
        }
        // An invocation with no operation costs the same logging every
        // time; what is above it belongs to the operations.
        let idle_before = env.db_metrics().total_ops();
        env.invoke("probe-noop", Value::Null)
            .expect("noop invocation");
        let idle = (env.db_metrics().total_ops() - idle_before) as f64;
        put(
            out,
            &format!("core.{op}.host_us"),
            median(&host[1..]) / 1e3,
            "us",
        );
        put(
            out,
            &format!("core.{op}.virt_ms"),
            median(&virt[1..]) / 1e6,
            "ms",
        );
        put(
            out,
            &format!("core.{op}.db_ops"),
            (median(&ops[1..]) - idle) / CORE_OPS as f64,
            "ops",
        );
    }
}

/// One request to a no-op SSF through the front door and back, with the
/// benchmark's own client.
fn probe_front(out: &mut Metrics) {
    let env = Arc::new(
        BeldiEnv::builder(BeldiConfig::for_mode(Mode::Beldi))
            .clock(Arc::new(LedgerClock::new()))
            .build(),
    );
    env.register_ssf("noop", &[], Arc::new(|_, input| Ok(input)));
    let mut wire = Wire::open(&env);
    let mut index = 0;
    // Each round trip waits out the delayed-ACK timer (about 40 ms), so
    // the batches are single calls.
    put(
        out,
        "front.noop_roundtrip_us",
        ns_per_call(1, || {
            index += 1;
            let request = frame_request("noop", 1, index, &Value::Null);
            assert!(
                matches!(roundtrip(&mut wire, &request), Ok(true)),
                "noop round trip"
            );
        }) / 1e3,
        "us",
    );
    wire.close();
}
