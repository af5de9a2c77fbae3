//! The network front door: an HTTP/1.1 gateway over the cooperative
//! executor (DESIGN.md §14).
//!
//! A [`FrontDoor`] binds a [`std::net::TcpListener`], accepts
//! keep-alive connections on plain threads, and routes every
//! `POST /invoke/{ssf}` body onto one [`beldi_runtime::Executor`] as a
//! root workflow task ([`beldi::BeldiEnv::invoke_task`]). The workflow
//! is a cheap executor task, but each in-flight request also holds its
//! connection's thread, parked on a channel until the reply: the door
//! carries as many requests at once as it has connections, one OS thread
//! each. The wire format is deliberately
//! minimal — JSON bodies, `content-length` framing, no chunked
//! encoding — because the client is the workspace's own harness, not a
//! browser.
//!
//! | request                | response                                  |
//! |------------------------|-------------------------------------------|
//! | `GET /healthz`         | `200` `ok`                                |
//! | `GET /ssfs`            | `200` JSON array of registered SSF names  |
//! | `POST /invoke/{ssf}`   | `200` `{"ok": result}` / `500` `{"error"}`|
//!
//! Request sizes are bounded by constants: a declared body over 1 MiB is
//! answered `413` before it is allocated, a request or header line over
//! 8 KiB or a 65th header `431`; either closes the connection.
//!
//! A caller may pin the workflow instance id with an
//! `x-beldi-instance` header; retrying a request under the same id
//! replays the recorded result instead of re-executing (the root
//! protocol's exactly-once contract). Without the header the door
//! assigns `front-{n}`.
//!
//! The handler fires the `front.*` crash points around the executor
//! handoff and catches its own [`CrashSignal`], dropping the connection
//! the way a crashed gateway would — so chaos storms extend across the
//! network boundary.
//!
//! [`front_smoke`] is the CI gate behind `front --smoke`: it drives a
//! seeded request stream through real sockets, replays the identical
//! stream in-process, and compares state digests (exactly-once across
//! the network equals exactly-once in memory).

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the real-socket exception: the acceptor, the per-connection threads and the smoke \
              clients wait on TCP peers no simulated clock can see, so the door runs on plain \
              threads over a ScaledClock; a handler parks its own connection thread on a channel \
              while its task runs on the executor thread, which never blocks here"
)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use beldi::value::{json, Value};
use beldi::{BeldiEnv, Mode, MAX_ROOT_ATTEMPTS};
use beldi_apps::bench_app;
use beldi_runtime::{Executor, Handle, Semaphore};
use beldi_simfaas::{CrashSignal, Label};
use beldi_workload::driver::state_digest;
use beldi_workload::wire::with_key;

struct DoorState {
    env: Arc<BeldiEnv>,
    handle: Handle,
    seq: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
}

/// A running HTTP front door (see the module docs).
pub struct FrontDoor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<DoorState>,
    keepalive: Option<beldi_runtime::sync::Permit>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    executor: Option<std::thread::JoinHandle<()>>,
}

impl FrontDoor {
    /// Binds `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `env`'s registered SSFs on a fresh executor
    /// seeded with `seed`.
    pub fn start(env: Arc<BeldiEnv>, bind: &str, seed: u64) -> io::Result<FrontDoor> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;

        let rt = Executor::new(env.clock().clone(), seed);
        let handle = rt.handle();
        // `Executor::run` returns when the task set drains; the door
        // holds this permit and parks one task on the semaphore so the
        // executor outlives idle periods between requests. Dropping the
        // permit at shutdown lets that task (and `run`) finish.
        let gate = Semaphore::new(1);
        let keepalive = gate.try_acquire().expect("fresh semaphore has a permit");
        {
            let gate = gate.clone();
            rt.spawn(async move {
                let _permit = gate.acquire().await;
            });
        }
        let executor = std::thread::spawn(move || rt.run());

        let state = Arc::new(DoorState {
            env,
            handle,
            seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || {
                        serve_connection(stream, &state).ok();
                    });
                }
            })
        };

        Ok(FrontDoor {
            addr,
            stop,
            state,
            keepalive: Some(keepalive),
            acceptor: Some(acceptor),
            executor: Some(executor),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (any status).
    pub fn requests_served(&self) -> u64 {
        self.state.served.load(Ordering::SeqCst)
    }

    /// Requests answered with a non-2xx status so far.
    pub fn request_errors(&self) -> u64 {
        self.state.errors.load(Ordering::SeqCst)
    }

    /// Stops accepting, releases the executor keepalive, and joins both
    /// service threads. In-flight connections are abandoned.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `incoming()` with a throwaway connect.
        TcpStream::connect(self.addr).ok();
        if let Some(t) = self.acceptor.take() {
            t.join().ok();
        }
        drop(self.keepalive.take());
        if let Some(t) = self.executor.take() {
            t.join().ok();
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

// ---- Wire handling ---------------------------------------------------------

struct Request {
    method: String,
    path: String,
    instance: Option<String>,
    body: Vec<u8>,
    close: bool,
}

/// Largest request body the door accepts (`413` above it).
const MAX_BODY_BYTES: usize = 1 << 20;
/// Longest request or header line the door accepts (`431` above it).
const MAX_LINE_BYTES: usize = 8 << 10;
/// Most header lines the door accepts per request (`431` above it).
const MAX_HEADERS: usize = 64;

fn headers_too_large() -> Response {
    Response::json(
        431,
        "Request Header Fields Too Large",
        "{\"error\":\"request or header line over 8 KiB, or more than 64 headers\"}".into(),
    )
}

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line`; returns the
/// byte count (`0` at EOF), or `None` once the line runs past the bound.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> io::Result<Option<usize>> {
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(line)?;
    Ok((n <= MAX_LINE_BYTES).then_some(n))
}

/// Reads one framed request; `None` on clean EOF before a request line.
/// A request over one of the size limits comes back as the `Err`
/// response to send; nothing is allocated for it and the rest of its
/// bytes are left unread, so the connection cannot be reused.
fn read_request(
    reader: &mut BufReader<TcpStream>,
) -> io::Result<Option<Result<Request, Response>>> {
    let mut line = String::new();
    match read_bounded_line(reader, &mut line)? {
        None => return Ok(Some(Err(headers_too_large()))),
        Some(0) => return Ok(None),
        Some(_) => {}
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad request line",
        ));
    };
    let (method, path) = (method.to_owned(), path.to_owned());

    let mut content_length = 0usize;
    let mut instance = None;
    let mut close = false;
    for n_headers in 0.. {
        let mut header = String::new();
        match read_bounded_line(reader, &mut header)? {
            None => return Ok(Some(Err(headers_too_large()))),
            Some(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ))
            }
            Some(_) => {}
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if n_headers == MAX_HEADERS {
            return Ok(Some(Err(headers_too_large())));
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("x-beldi-instance") {
            instance = Some(value.to_owned());
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Some(Err(Response::json(
            413,
            "Content Too Large",
            "{\"error\":\"body over 1 MiB\"}".into(),
        ))));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Ok(Request {
        method,
        path,
        instance,
        body,
        close,
    })))
}

struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, reason: &'static str, body: String) -> Response {
        Response {
            status,
            reason,
            content_type: "application/json",
            body,
        }
    }

    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        )?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

fn serve_connection(stream: TcpStream, state: &DoorState) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    while let Some(framed) = read_request(&mut reader)? {
        let (response, close) = match framed {
            Ok(req) => {
                // A scripted front-door crash (`front.*` label) unwinds
                // here; drop the connection abruptly, as a crashed
                // gateway would.
                match std::panic::catch_unwind(AssertUnwindSafe(|| route(&req, state))) {
                    Ok(r) => (r, req.close),
                    Err(payload) => {
                        if payload.downcast_ref::<CrashSignal>().is_some() {
                            return Ok(());
                        }
                        std::panic::resume_unwind(payload);
                    }
                }
            }
            Err(reject) => (reject, true),
        };
        state.served.fetch_add(1, Ordering::SeqCst);
        if response.status >= 300 {
            state.errors.fetch_add(1, Ordering::SeqCst);
        }
        response.write_to(&mut writer)?;
        if close {
            break;
        }
    }
    Ok(())
}

fn route(req: &Request, state: &DoorState) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain",
            body: "ok\n".into(),
        },
        ("GET", "/ssfs") => {
            let names: Vec<String> = state
                .env
                .ssf_names()
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect();
            Response::json(200, "OK", format!("[{}]", names.join(",")))
        }
        ("POST", path) => match path.strip_prefix("/invoke/") {
            Some(ssf) if !ssf.is_empty() => invoke(req, ssf, state),
            _ => Response::json(404, "Not Found", "{\"error\":\"no such route\"}".into()),
        },
        _ => Response::json(404, "Not Found", "{\"error\":\"no such route\"}".into()),
    }
}

fn invoke(req: &Request, ssf: &str, state: &DoorState) -> Response {
    if !state.env.ssf_names().iter().any(|n| n == ssf) {
        return Response::json(
            404,
            "Not Found",
            format!("{{\"error\":\"unknown ssf {ssf}\"}}"),
        );
    }
    let payload = match std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| json::from_json(t).ok())
    {
        Some(v) => v,
        None => {
            return Response::json(
                400,
                "Bad Request",
                "{\"error\":\"body is not JSON\"}".into(),
            )
        }
    };
    let instance = req
        .instance
        .clone()
        .unwrap_or_else(|| format!("front-{}", state.seq.fetch_add(1, Ordering::SeqCst)));

    let faults = state.env.platform().faults();
    faults.crash_point(&instance, Label::FrontEnter);

    // Hand the workflow to the executor; this thread parks on the
    // channel while the task runs the root-invocation protocol.
    let fut = state
        .env
        .invoke_task(ssf, &instance, payload, MAX_ROOT_ATTEMPTS);
    let (tx, rx) = mpsc::channel();
    state.handle.spawn(async move {
        tx.send(fut.await).ok();
    });
    faults.crash_point(&instance, Label::FrontPostSpawn);
    let result = rx.recv();
    faults.crash_point(&instance, Label::FrontPreReply);

    match result {
        Ok(Ok(value)) => Response::json(200, "OK", format!("{{\"ok\":{}}}", json::to_json(&value))),
        Ok(Err(e)) => Response::json(
            500,
            "Internal Server Error",
            format!(
                "{{\"error\":{}}}",
                json::to_json(&Value::from(e.to_string()))
            ),
        ),
        Err(_) => Response::json(
            500,
            "Internal Server Error",
            "{\"error\":\"executor shut down\"}".into(),
        ),
    }
}

// ---- HTTP client (harness side) --------------------------------------------

/// A minimal keep-alive HTTP client for the smoke harness and tests.
pub struct FrontClient {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl FrontClient {
    /// A client for the door at `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> FrontClient {
        FrontClient { addr, conn: None }
    }

    fn conn(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sends one request; returns `(status, body)`. Drops the cached
    /// connection on any transport error so the next call reconnects.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<(u16, String)> {
        let result = self.try_request(method, path, headers, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// `POST /invoke/{ssf}` with a JSON payload; returns `(status, body)`.
    pub fn invoke(&mut self, ssf: &str, payload: &Value) -> io::Result<(u16, String)> {
        self.request(
            "POST",
            &format!("/invoke/{ssf}"),
            &[],
            &json::to_json(payload),
        )
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<(u16, String)> {
        let reader = self.conn()?;
        {
            let stream = reader.get_mut();
            write!(stream, "{method} {path} HTTP/1.1\r\nhost: front\r\n")?;
            for (name, value) in headers {
                write!(stream, "{name}: {value}\r\n")?;
            }
            write!(stream, "content-length: {}\r\n\r\n{body}", body.len())?;
            stream.flush()?;
        }

        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 body"))
    }
}

// ---- Smoke harness ---------------------------------------------------------

/// The outcome of [`front_smoke`]: one seeded request stream driven
/// through real sockets versus the identical stream replayed in-process.
#[derive(Debug, Clone)]
pub struct FrontSmokeReport {
    /// App driven ("media" / "social" / "travel").
    pub app: String,
    /// The mode's spelling ([`Mode::name`]).
    pub mode: String,
    /// Requests sent over the wire (== requests replayed in-process).
    pub requests: u64,
    /// Concurrent client connections.
    pub clients: usize,
    /// Non-200 responses plus transport failures on the HTTP side.
    pub errors: u64,
    /// Wall-clock duration of the HTTP run.
    pub wall_ms: u64,
    /// HTTP requests per wall-clock second.
    pub rps: f64,
    /// Fingerprint digest of the served environment's final state.
    pub front_digest: String,
    /// Fingerprint digest after the in-process replay.
    pub inproc_digest: String,
}

impl FrontSmokeReport {
    /// The gate: did the networked run converge to the in-process state?
    pub fn digest_match(&self) -> bool {
        self.front_digest == self.inproc_digest
    }

    /// Serializes the report for `BENCH_async_results.json`-style
    /// artifacts: its fields plus the derived `digest_match` verdict.
    pub fn to_json(&self) -> String {
        let verdict = Value::Bool(self.digest_match());
        json::to_json_pretty(&with_key(self, "digest_match", verdict))
    }
}

beldi_workload::wire_fields!(FrontSmokeReport:
    app, mode, requests, clients, errors, wall_ms, rps, front_digest, inproc_digest
);

/// Drives `requests` seeded frontend requests for `kind`/`mode` through
/// a real [`FrontDoor`] with `clients` concurrent connections, replays
/// the identical stream in-process, and reports both state digests.
/// Returns `None` for an unknown app kind.
pub fn front_smoke(
    kind: &str,
    mode: Mode,
    requests: usize,
    clients: usize,
    partitions: usize,
    seed: u64,
) -> Option<FrontSmokeReport> {
    let mix = beldi_apps::MixProfile::Default;
    let app = bench_app(kind, mode, mix)?;

    // One request stream, drawn up front so both paths see the same
    // multiset (the apps' bench fingerprints are interleaving-invariant).
    let reqs: Vec<Value> = {
        let mut rng = beldi_apps::rng::request_rng(seed);
        (0..requests)
            .map(|_| app.gen_load_request(&mut rng))
            .collect()
    };
    let entry = app.entry_point();

    // HTTP side: a served environment behind a real socket.
    let served_env = Arc::new(crate::front_env(mode, partitions));
    app.setup(&served_env);
    let door = FrontDoor::start(Arc::clone(&served_env), "127.0.0.1:0", seed)
        .expect("bind an ephemeral front door");
    let started = std::time::Instant::now();
    let errors = {
        let n_slots = clients.max(1);
        let mut slots: Vec<Vec<Value>> = vec![Vec::new(); n_slots];
        for (i, r) in reqs.iter().enumerate() {
            slots[i % n_slots].push(r.clone());
        }
        let workers: Vec<_> = slots
            .into_iter()
            .map(|slot| {
                let addr = door.addr();
                std::thread::spawn(move || {
                    let mut client = FrontClient::new(addr);
                    let mut errors = 0u64;
                    for payload in &slot {
                        match client.invoke(entry, payload) {
                            Ok((200, _)) => {}
                            _ => errors += 1,
                        }
                    }
                    errors
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap_or(1)).sum()
    };
    let wall = started.elapsed();
    door.shutdown();
    let front_digest = state_digest(app.as_ref(), &served_env);

    // In-process side: the same stream, no sockets, no executor.
    let inproc_env = crate::front_env(mode, partitions);
    app.setup(&inproc_env);
    for payload in &reqs {
        inproc_env.invoke(entry, payload.clone()).ok();
    }
    let inproc_digest = state_digest(app.as_ref(), &inproc_env);

    let wall_ms = wall.as_millis() as u64;
    Some(FrontSmokeReport {
        app: kind.to_owned(),
        mode: mode.name().to_owned(),
        requests: requests as u64,
        clients: clients.max(1),
        errors,
        wall_ms,
        rps: requests as f64 / wall.as_secs_f64().max(1e-9),
        front_digest,
        inproc_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn door_for_media() -> (Arc<BeldiEnv>, FrontDoor, Box<dyn beldi_apps::WorkflowApp>) {
        let app =
            bench_app("media", Mode::Beldi, beldi_apps::MixProfile::Default).expect("media exists");
        let env = Arc::new(crate::front_env(Mode::Beldi, 4));
        app.setup(&env);
        let door = FrontDoor::start(Arc::clone(&env), "127.0.0.1:0", 7).expect("bind");
        (env, door, app)
    }

    #[test]
    fn healthz_ssfs_and_errors_route() {
        let (_env, door, _app) = door_for_media();
        let mut client = FrontClient::new(door.addr());
        let (status, body) = client.request("GET", "/healthz", &[], "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = client.request("GET", "/ssfs", &[], "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("compose"), "ssf listing: {body}");
        let (status, _) = client
            .request("POST", "/invoke/no-such-ssf", &[], "null")
            .unwrap();
        assert_eq!(status, 404);
        let (status, _) = client
            .request("POST", "/invoke/media-compose-review", &[], "{not json")
            .unwrap();
        assert_eq!(status, 400);
        let (status, _) = client.request("GET", "/nowhere", &[], "").unwrap();
        assert_eq!(status, 404);
        assert_eq!(door.request_errors(), 3);
        door.shutdown();
    }

    #[test]
    fn oversized_requests_are_rejected_and_the_door_survives() {
        let (_env, door, _app) = door_for_media();
        // Each hostile request ends where the door stops reading it, so
        // the door's close is a clean FIN and the reply always arrives.
        let with_headers =
            |n: usize| format!("GET /healthz HTTP/1.1\r\n{}", "x-junk: 1\r\n".repeat(n));
        let with_body = |declared: usize, sent: usize| {
            format!(
                "POST /invoke/no-such-ssf HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n{}",
                " ".repeat(sent)
            )
        };
        let endless = "a".repeat(MAX_LINE_BYTES + 1);
        let cases = [
            // A lying content-length: rejected before any allocation.
            (with_body(99_999_999_999_999, 0), 413),
            (with_body(MAX_BODY_BYTES, MAX_BODY_BYTES), 404),
            (format!("GET /healthz HTTP/1.1\r\n{endless}"), 431),
            (endless.clone(), 431),
            (with_headers(MAX_HEADERS + 1), 431),
            (with_headers(MAX_HEADERS) + "\r\n", 200),
        ];
        for (request, want) in cases {
            let mut stream = TcpStream::connect(door.addr()).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            BufReader::new(stream).read_line(&mut reply).unwrap();
            let status: u16 = reply.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert_eq!(status, want, "{:.60}", request);
            // The door outlives whatever it just rejected.
            let (ok, _) = FrontClient::new(door.addr())
                .request("GET", "/healthz", &[], "")
                .unwrap();
            assert_eq!(ok, 200);
        }
        door.shutdown();
    }

    #[test]
    fn invokes_execute_workflows_over_the_wire() {
        let (env, door, app) = door_for_media();
        let mut rng = beldi_apps::rng::request_rng(42);
        let mut client = FrontClient::new(door.addr());
        for _ in 0..5 {
            let (status, body) = client
                .invoke(app.entry_point(), &app.gen_load_request(&mut rng))
                .unwrap();
            assert_eq!(status, 200, "body: {body}");
            assert!(body.starts_with("{\"ok\":"), "body: {body}");
        }
        assert_eq!(door.requests_served(), 5);
        door.shutdown();
        // The workflows really ran: the app has observable state.
        let state = app.canonical_state(&env);
        assert_ne!(state, Value::Null);
    }

    #[test]
    fn pinned_instance_id_replays_instead_of_reexecuting() {
        let (env, door, app) = door_for_media();
        let mut rng = beldi_apps::rng::request_rng(9);
        let payload = json::to_json(&app.gen_load_request(&mut rng));
        let mut client = FrontClient::new(door.addr());
        let path = format!("/invoke/{}", app.entry_point());
        let headers = [("x-beldi-instance", "pinned-1")];
        let (s1, b1) = client.request("POST", &path, &headers, &payload).unwrap();
        let digest_after_first = state_digest(app.as_ref(), &env);
        let (s2, b2) = client.request("POST", &path, &headers, &payload).unwrap();
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(b1, b2, "a retry under the same id must replay the result");
        assert_eq!(
            digest_after_first,
            state_digest(app.as_ref(), &env),
            "the retry must not re-execute effects"
        );
        door.shutdown();
    }

    #[test]
    fn smoke_digest_matches_in_process_run() {
        let report = front_smoke("media", Mode::Beldi, 16, 4, 4, 42).expect("known app");
        assert_eq!(report.errors, 0, "all HTTP invokes should succeed");
        assert!(report.digest_match(), "{report:?}");
        assert!(report.rps > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"digest_match\": true"), "{json}");
    }
}
