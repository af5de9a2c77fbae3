//! The network front door: an HTTP/1.1 gateway onto the environment's
//! clock (DESIGN.md §14).
//!
//! A [`FrontDoor`] binds a [`std::net::TcpListener`] and accepts
//! keep-alive connections on plain threads. Those *socket threads* only
//! parse requests and write responses. Everything that touches the
//! environment — the SSF listing, the `front.*` crash probes, the
//! door-assigned `front-{n}` instance id and every workflow
//! ([`beldi::BeldiEnv::invoke_task`]) — happens on one *admission
//! participant*: a thread of the environment's clock that runs the
//! door's [`beldi_runtime::Executor`], each workflow a task on it. The
//! wire format is deliberately minimal — JSON bodies, `content-length`
//! framing, no chunked encoding — because the client is the workspace's
//! own harness, not a browser.
//!
//! | request                | response                                  |
//! |------------------------|-------------------------------------------|
//! | `GET /healthz`         | `200` `ok` (from the socket thread)       |
//! | `GET /ssfs`            | `200` JSON array of registered SSF names  |
//! | `POST /invoke/{ssf}`   | `200` `{"ok": result}` / `500` `{"error"}`|
//!
//! Request sizes are bounded by constants: a declared body over 1 MiB is
//! answered `413` before it is allocated, a request or header line over
//! 8 KiB or a 65th header `431`; either closes the connection.
//!
//! **Admission order is fixed.** Requests are admitted by connection
//! index (accept order), then by sequence within the connection, never
//! by arrival. While an open connection has been answered and has sent
//! neither its next request nor its close, the admission participant
//! *holds*: it waits for those bytes and keeps the clock's baton, so no
//! other participant runs and virtual time stands still. That models
//! closed-loop clients with zero think time, one per connection: a
//! client that keeps an answered connection open while it waits on
//! another connection stalls the door. A door with no open connection
//! holds too. So a run whose clients all connect before any of them
//! sends is a function of the seed (DESIGN.md §14 states the trade-off).
//!
//! A caller may pin the workflow instance id with an
//! `x-beldi-instance` header; retrying a request under the same id
//! replays the recorded result instead of re-executing (the root
//! protocol's exactly-once contract). Without the header the door
//! assigns `front-{n}`, in admission order.
//!
//! The admission participant fires the `front.*` crash points around
//! the executor handoff and catches its own [`CrashSignal`]; the socket
//! thread then drops the connection the way a crashed gateway would — so
//! chaos storms extend across the network boundary.
//!
//! [`front_smoke`] is `drive --smoke`'s front door row: it drives a
//! seeded request stream through real sockets and replays the identical
//! stream in-process; the drive checks that the two state digests agree
//! (exactly-once across the network equals exactly-once in memory).

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the real-socket exception: the acceptor, the socket threads and the smoke clients \
              wait on TCP peers no simulated clock can see, so they run outside the schedule and \
              never touch the environment; the admission participant's one host wait is the hold \
              (DESIGN.md §14)"
)]

use std::collections::BTreeMap;
use std::future::Future;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::task::Poll;

use beldi::simclock::{Hist, JoinHandle, SimInstant};
use beldi::value::{json, Value};
use beldi::{BeldiEnv, BeldiResult, Mode, MAX_ROOT_ATTEMPTS};
use beldi_apps::bench_app;
use beldi_runtime::{Executor, Handle};
use beldi_simfaas::{CrashSignal, Label, Probe};
use beldi_workload::driver::{state_digest, FrontRun, LatencySummary};

/// What the acceptor and the socket threads tell the admission
/// participant, over one channel.
enum Event {
    /// Connection `index` was accepted; its replies go to the sender
    /// (`None`: the door crashed, drop the connection).
    Open(usize, mpsc::Sender<Option<Response>>),
    /// Connection `index`'s next request. A socket thread sends one and
    /// waits for its reply before it reads on.
    Request(usize, Request),
    /// Connection `index` is gone; its socket thread has exited.
    Closed(usize),
    /// The door accepts nothing more.
    Stop,
}

/// Stops the acceptor: it accepts nothing more and passes the stop on
/// to the admission participant.
#[derive(Clone)]
struct Stopper {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Stopper {
    fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Unblock the acceptor's `incoming()` with a throwaway connect.
        TcpStream::connect(self.addr).ok();
    }
}

/// A running HTTP front door (see the module docs).
pub struct FrontDoor {
    stopper: Stopper,
    admission: Option<JoinHandle>,
}

impl FrontDoor {
    /// Binds `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `env`'s registered SSFs: an admission participant
    /// on `env`'s clock, its executor seeded with `seed`.
    pub fn start(env: Arc<BeldiEnv>, bind: &str, seed: u64) -> io::Result<FrontDoor> {
        let listener = TcpListener::bind(bind)?;
        let stopper = Stopper {
            flag: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr()?,
        };
        let (events, inbox) = mpsc::channel();
        {
            let flag = Arc::clone(&stopper.flag);
            std::thread::spawn(move || accept(&listener, &flag, &events));
        }
        let clock = env.clock().clone();
        let admission = clock.spawn(
            "front-admission".into(),
            Box::new(move || {
                let rt = Executor::new(env.clock().clone(), seed);
                let door = Admission {
                    handle: rt.handle(),
                    env,
                    inbox,
                    conns: BTreeMap::new(),
                    in_flight: Vec::new(),
                    assigned: 0,
                    stopping: false,
                };
                rt.block_on(door.run());
            }),
        );
        Ok(FrontDoor {
            stopper,
            admission: Some(admission),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.stopper.addr
    }

    /// Stops accepting, then waits until every open connection has
    /// closed and every admitted workflow has finished. The wait is a
    /// join of the admission participant, which the clock sees; close
    /// every client first, or this waits for it.
    pub fn shutdown(mut self) {
        self.stopper.stop();
        self.join();
    }

    /// Waits for the door without stopping it: forever, unless another
    /// thread stops it.
    pub(crate) fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(admission) = self.admission.take() {
            admission.join().ok();
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        if self.admission.is_some() {
            self.stopper.stop();
            self.join();
        }
    }
}

/// The acceptor: numbers connections in accept order and announces each
/// before its socket thread can send anything.
fn accept(listener: &TcpListener, stop: &AtomicBool, events: &mpsc::Sender<Event>) {
    for (index, conn) in listener.incoming().enumerate() {
        if stop.load(Ordering::SeqCst) {
            events.send(Event::Stop).ok();
            return;
        }
        let Ok(stream) = conn else { continue };
        let (replies, inbox) = mpsc::channel();
        if events.send(Event::Open(index, replies)).is_err() {
            return;
        }
        let events = events.clone();
        std::thread::spawn(move || {
            serve_connection(index, stream, &events, &inbox).ok();
            events.send(Event::Closed(index)).ok();
        });
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
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<Option<usize>> {
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
fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Result<Request, Response>>> {
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

    fn not_found(body: String) -> Response {
        Response::json(404, "Not Found", body)
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

/// A socket thread: parses requests off `stream`, answers `GET /healthz`
/// itself, hands every other request to the admission participant and
/// writes its reply. Returns when the peer closes, a request is
/// rejected, or the door crashed the connection.
fn serve_connection(
    index: usize,
    stream: TcpStream,
    events: &mpsc::Sender<Event>,
    replies: &mpsc::Receiver<Option<Response>>,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    while let Some(framed) = read_request(&mut reader)? {
        let (response, close) = match framed {
            Ok(req) if (req.method.as_str(), req.path.as_str()) == ("GET", "/healthz") => {
                let ok = Response {
                    status: 200,
                    reason: "OK",
                    content_type: "text/plain",
                    body: "ok\n".into(),
                };
                (ok, req.close)
            }
            Ok(req) => {
                let close = req.close;
                if events.send(Event::Request(index, req)).is_err() {
                    return Ok(());
                }
                match replies.recv() {
                    Ok(Some(response)) => (response, close),
                    // A scripted front-door crash (`front.*` label): drop
                    // the connection abruptly, as a crashed gateway would.
                    Ok(None) | Err(_) => return Ok(()),
                }
            }
            Err(reject) => (reject, true),
        };
        response.write_to(&mut writer)?;
        if close {
            break;
        }
    }
    Ok(())
}

// ---- Admission -------------------------------------------------------------

/// Where an open connection stands, as the admission participant sees
/// it. A socket thread has at most one request outstanding.
enum Turn {
    /// New or answered: it owes its next request or its close.
    Owed,
    /// A request received and not yet admitted.
    Sent(Request),
    /// A request admitted and not yet answered.
    Served,
}

struct Conn {
    replies: mpsc::Sender<Option<Response>>,
    turn: Turn,
}

/// An admitted workflow. `conn` is `None` once the door crashed before
/// replying: the workflow runs on, and nobody hears its result.
struct Flight {
    conn: Option<usize>,
    /// The workflow's crash-probe handle, which holds its instance id.
    probe: Probe,
    admitted: SimInstant,
    task: beldi_runtime::JoinHandle<BeldiResult<Value>>,
}

/// The admission participant's state; [`Admission::run`] is its loop.
struct Admission {
    env: Arc<BeldiEnv>,
    handle: Handle,
    inbox: mpsc::Receiver<Event>,
    /// Open connections, by index: admission order.
    conns: BTreeMap<usize, Conn>,
    in_flight: Vec<Flight>,
    /// Door-assigned instance ids handed out.
    assigned: u64,
    stopping: bool,
}

impl Admission {
    async fn run(mut self) {
        loop {
            // The hold: nobody else runs until every open connection has
            // spoken; an idle door waits for a connection or a stop.
            while self.must_hold() {
                let Ok(event) = self.inbox.recv() else { return };
                self.apply(event);
            }
            if self.stopping && self.conns.is_empty() && self.in_flight.is_empty() {
                return;
            }
            let sent: Vec<usize> = self
                .conns
                .iter()
                .filter(|(_, c)| matches!(c.turn, Turn::Sent(_)))
                .map(|(&index, _)| index)
                .collect();
            for index in sent {
                self.admit(index);
            }
            if !self.in_flight.is_empty() {
                for (flight, result) in finished(&mut self.in_flight).await {
                    self.answer(flight, result);
                }
            }
        }
    }

    fn must_hold(&self) -> bool {
        let owed = self.conns.values().any(|c| matches!(c.turn, Turn::Owed));
        let idle = self.conns.is_empty() && self.in_flight.is_empty() && !self.stopping;
        owed || idle
    }

    fn apply(&mut self, event: Event) {
        match event {
            Event::Open(index, replies) => {
                let turn = Turn::Owed;
                self.conns.insert(index, Conn { replies, turn });
            }
            Event::Request(index, req) => {
                if let Some(conn) = self.conns.get_mut(&index) {
                    conn.turn = Turn::Sent(req);
                }
            }
            Event::Closed(index) => {
                self.conns.remove(&index);
            }
            Event::Stop => self.stopping = true,
        }
    }

    /// Admits connection `index`'s request: answers it here, or starts
    /// its workflow on the executor.
    fn admit(&mut self, index: usize) {
        let Some(conn) = self.conns.get_mut(&index) else {
            return;
        };
        let Turn::Sent(req) = std::mem::replace(&mut conn.turn, Turn::Served) else {
            return;
        };
        let ssf = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/ssfs") => {
                let names: Vec<String> = self
                    .env
                    .ssf_names()
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect();
                let listing = Response::json(200, "OK", format!("[{}]", names.join(",")));
                return self.reply(index, Some(listing));
            }
            ("POST", path) => match path.strip_prefix("/invoke/") {
                Some(ssf) if !ssf.is_empty() => ssf,
                _ => return self.reply(index, Some(no_route())),
            },
            _ => return self.reply(index, Some(no_route())),
        };
        if !self.env.ssf_names().iter().any(|n| n == ssf) {
            let unknown = Response::not_found(format!("{{\"error\":\"unknown ssf {ssf}\"}}"));
            return self.reply(index, Some(unknown));
        }
        let Some(payload) = std::str::from_utf8(&req.body)
            .ok()
            .and_then(|t| json::from_json(t).ok())
        else {
            let bad = Response::json(
                400,
                "Bad Request",
                "{\"error\":\"body is not JSON\"}".into(),
            );
            return self.reply(index, Some(bad));
        };
        let instance = req.instance.unwrap_or_else(|| {
            self.assigned += 1;
            format!("front-{}", self.assigned - 1)
        });

        // The door probes on the workflow's behalf, outside its executions.
        let probe = self.env.platform().faults().probe(&instance.into());
        if !survives(&self.env, &probe, Label::FrontEnter) {
            return self.reply(index, None);
        }
        let workflow = self
            .env
            .invoke_task(ssf, probe.id(), payload, MAX_ROOT_ATTEMPTS);
        let task = self.handle.spawn(workflow);
        let conn = survives(&self.env, &probe, Label::FrontPostSpawn).then_some(index);
        if conn.is_none() {
            self.reply(index, None);
        }
        self.in_flight.push(Flight {
            conn,
            probe,
            admitted: self.env.clock().now(),
            task,
        });
    }

    /// Answers a finished workflow's connection, if the door still has it.
    fn answer(&mut self, flight: Flight, result: BeldiResult<Value>) {
        let Some(index) = flight.conn else { return };
        if !survives(&self.env, &flight.probe, Label::FrontPreReply) {
            return self.reply(index, None);
        }
        let latency = self.env.clock().now().since(flight.admitted);
        self.env.telemetry().record(Hist::FrontRequest, latency);
        let response = match result {
            Ok(value) => Response::json(200, "OK", format!("{{\"ok\":{}}}", json::to_json(&value))),
            Err(e) => Response::json(
                500,
                "Internal Server Error",
                format!(
                    "{{\"error\":{}}}",
                    json::to_json(&Value::from(e.to_string()))
                ),
            ),
        };
        self.reply(index, Some(response));
    }

    /// Hands connection `index` its reply (`None`: drop the connection);
    /// it then owes its next request or its close.
    fn reply(&mut self, index: usize, response: Option<Response>) {
        if let Some(conn) = self.conns.get_mut(&index) {
            conn.turn = Turn::Owed;
            conn.replies.send(response).ok();
        }
    }
}

fn no_route() -> Response {
    Response::not_found("{\"error\":\"no such route\"}".into())
}

/// Fires a `front.*` crash probe; `false` when it crashed the door.
fn survives(env: &BeldiEnv, probe: &Probe, label: Label) -> bool {
    let probe = || env.platform().faults().crash_point(probe, label);
    match std::panic::catch_unwind(AssertUnwindSafe(probe)) {
        Ok(()) => true,
        Err(payload) if payload.downcast_ref::<CrashSignal>().is_some() => false,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Waits until at least one admitted workflow has finished; removes and
/// returns every finished one, in admission order.
fn finished(
    in_flight: &mut Vec<Flight>,
) -> impl Future<Output = Vec<(Flight, BeldiResult<Value>)>> + '_ {
    std::future::poll_fn(move |cx| {
        let mut done = Vec::new();
        let mut i = 0;
        while i < in_flight.len() {
            match Pin::new(&mut in_flight[i].task).poll(cx) {
                Poll::Ready(result) => done.push((in_flight.remove(i), result)),
                Poll::Pending => i += 1,
            }
        }
        if done.is_empty() {
            Poll::Pending
        } else {
            Poll::Ready(done)
        }
    })
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
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => BufReader::new(TcpStream::connect(self.addr)?),
        };
        Ok(self.conn.insert(conn))
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

/// The outcome of [`front_smoke`]: the run's modelled record plus the
/// two host-timed numbers, which alone differ between equal runs.
#[derive(Debug, Clone)]
pub struct FrontSmokeReport {
    /// Everything a function of the seed and the flags.
    pub run: FrontRun,
    /// Wall-clock duration of the HTTP run.
    pub wall_ms: u64,
    /// HTTP requests per wall-clock second.
    pub rps: f64,
}

impl FrontSmokeReport {
    /// Prints the run's outcome: host rate, modelled cost and digests.
    pub fn print_summary(&self) {
        let run = &self.run;
        println!(
            "front smoke: {} requests via {} client(s) in {} ms ({:.1} rps, {} errors)",
            run.requests, run.clients, self.wall_ms, self.rps, run.errors
        );
        println!(
            "  virtual: {:.1} ms elapsed, p50 {:.2} ms, p99 {:.2} ms, {} db ops",
            run.elapsed_virtual_us as f64 / 1e3,
            run.latency.p50_us as f64 / 1e3,
            run.latency.p99_us as f64 / 1e3,
            run.db.total_ops()
        );
        println!("  front digest:      {}", run.front_digest);
        println!("  in-process digest: {}", run.inproc_digest);
    }
}

/// Drives `requests` seeded frontend requests for `kind`/`mode` through
/// a real [`FrontDoor`] with `clients` concurrent connections, replays
/// the identical stream in-process, and reports both state digests and
/// the HTTP run's modelled cost. Errors: `NotFound` for an unknown app
/// kind, or the error of binding the door or of a client's first request.
///
/// The calling thread becomes the first participant of the served
/// environment's clock; it waits for the door in [`FrontDoor::shutdown`]
/// while the clients run on threads outside the schedule.
pub fn front_smoke(
    kind: &str,
    mode: Mode,
    requests: usize,
    clients: usize,
    seed: u64,
) -> io::Result<FrontSmokeReport> {
    let mix = beldi_apps::MixProfile::Default;
    let unknown = || io::Error::new(io::ErrorKind::NotFound, format!("unknown app {kind:?}"));
    let app = bench_app(kind, mode, mix).ok_or_else(unknown)?;

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
    let served_env = Arc::new(crate::front_env(mode));
    app.setup(&served_env);
    let clock = served_env.clock().clone();
    let (t0, db0) = (clock.now(), served_env.db_metrics());
    let door = FrontDoor::start(Arc::clone(&served_env), "127.0.0.1:0", seed)?;
    let started = std::time::Instant::now();
    let n_slots = clients.max(1);
    // Every client connects, and the door accepts it (its socket thread
    // answers `/healthz`), before any of them sends a request: admission
    // order is then connection order, whatever the host does.
    let mut slots: Vec<(FrontClient, Vec<Value>)> = (0..n_slots)
        .map(|_| {
            let mut client = FrontClient::new(door.addr());
            client.request("GET", "/healthz", &[], "")?;
            Ok((client, Vec::new()))
        })
        .collect::<io::Result<_>>()?;
    for (i, r) in reqs.iter().enumerate() {
        slots[i % n_slots].1.push(r.clone());
    }
    let answered = Arc::new(AtomicU64::new(0));
    for (mut client, slot) in slots {
        let answered = Arc::clone(&answered);
        std::thread::spawn(move || {
            for payload in &slot {
                if let Ok((200, _)) = client.invoke(entry, payload) {
                    answered.fetch_add(1, Ordering::SeqCst);
                }
            }
            // Counted before the close the door waits for.
            drop(client);
        });
    }
    door.shutdown();
    let wall = started.elapsed();
    let elapsed = clock.now().since(t0);
    let db = served_env.db_metrics().delta(&db0);
    let latency = served_env.telemetry().histogram(Hist::FrontRequest);
    let front_digest = state_digest(app.as_ref(), &served_env);

    // In-process side: the same stream, no sockets, no executor.
    let inproc_env = crate::front_env(mode);
    app.setup(&inproc_env);
    for payload in &reqs {
        inproc_env.invoke(entry, payload.clone()).ok();
    }
    let inproc_digest = state_digest(app.as_ref(), &inproc_env);

    Ok(FrontSmokeReport {
        run: FrontRun {
            app: kind.to_owned(),
            mode: mode.name().to_owned(),
            requests: requests as u64,
            clients: n_slots,
            errors: requests as u64 - answered.load(Ordering::SeqCst),
            elapsed_virtual_us: elapsed.as_micros() as u64,
            latency: LatencySummary::from_histogram(&latency),
            db,
            front_digest,
            inproc_digest,
        },
        wall_ms: wall.as_millis() as u64,
        rps: requests as f64 / wall.as_secs_f64().max(1e-9),
    })
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;

    /// Records the largest single allocation each thread asks for, so a
    /// test can check what the parser allocated.
    struct LargestAlloc;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to the system allocator;
    // the only addition is a thread-local `Cell` store, which allocates
    // nothing.
    unsafe impl GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            LARGEST.try_with(|l| l.set(l.get().max(layout.size()))).ok();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static ALLOC: LargestAlloc = LargestAlloc;

    fn media_env() -> (Arc<BeldiEnv>, Box<dyn beldi_apps::WorkflowApp>) {
        let app =
            bench_app("media", Mode::Beldi, beldi_apps::MixProfile::Default).expect("media exists");
        let env = Arc::new(crate::front_env(Mode::Beldi));
        app.setup(&env);
        (env, app)
    }

    /// Serves `env` while `client` runs on a thread outside the clock;
    /// this thread, the clock's first participant, waits for the door on
    /// the clock meanwhile. The client stops the door when it is done,
    /// or when it panics, whose panic this then resumes.
    fn serve<T: Send + 'static>(
        env: &Arc<BeldiEnv>,
        client: impl FnOnce(SocketAddr) -> T + Send + 'static,
    ) -> T {
        let door = FrontDoor::start(Arc::clone(env), "127.0.0.1:0", 7).expect("bind");
        let stopper = door.stopper.clone();
        let out = Arc::new(std::sync::Mutex::new(None));
        let slot = Arc::clone(&out);
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| client(stopper.addr)));
            *slot.lock().unwrap() = Some(result);
            stopper.stop();
        });
        door.wait();
        let result = out.lock().unwrap().take().expect("the client thread ran");
        result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    #[test]
    fn healthz_ssfs_and_errors_route() {
        let (env, _app) = media_env();
        let replies = serve(&env, |addr| {
            let mut client = FrontClient::new(addr);
            [
                ("GET", "/healthz", ""),
                ("GET", "/ssfs", ""),
                ("POST", "/invoke/no-such-ssf", "null"),
                ("POST", "/invoke/media-compose-review", "{not json"),
                ("GET", "/nowhere", ""),
            ]
            .map(|(method, path, body)| client.request(method, path, &[], body).unwrap())
        });
        let statuses = replies.each_ref().map(|(status, _)| *status);
        assert_eq!(statuses, [200, 200, 404, 400, 404]);
        assert_eq!(replies[0].1, "ok\n");
        assert!(replies[1].1.contains("compose"), "ssf listing: {replies:?}");
    }

    /// A body nested far past what `from_json` accepts, or holding a
    /// number no `f64` holds, is a 400 like any other body that is not
    /// JSON; ten thousand `[`s once overflowed the parsing thread's stack
    /// and aborted the process.
    #[test]
    fn a_deeply_nested_body_is_a_400_and_the_door_keeps_serving() {
        let (env, _app) = media_env();
        let replies = serve(&env, |addr| {
            let mut client = FrontClient::new(addr);
            let deep = "[".repeat(10_000);
            [
                ("POST", "/invoke/media-compose-review", deep.as_str()),
                ("POST", "/invoke/media-compose-review", "[1e999999]"),
                ("GET", "/ssfs", ""),
            ]
            .map(|(method, path, body)| client.request(method, path, &[], body).unwrap())
        });
        let statuses = replies.each_ref().map(|(status, _)| *status);
        assert_eq!(statuses, [400, 400, 200]);
        assert!(replies[2].1.contains("compose"), "ssf listing: {replies:?}");
    }

    #[test]
    fn oversized_requests_are_rejected_and_the_door_survives() {
        let (env, _app) = media_env();
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
        let outcomes = serve(&env, move |addr| {
            cases.map(|(request, want)| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(request.as_bytes()).unwrap();
                let mut reply = String::new();
                BufReader::new(stream).read_line(&mut reply).unwrap();
                let status: u16 = reply.split_whitespace().nth(1).unwrap().parse().unwrap();
                // The door outlives whatever it just rejected.
                let (ok, _) = FrontClient::new(addr)
                    .request("GET", "/ssfs", &[], "")
                    .unwrap();
                (status, want, ok)
            })
        });
        for (status, want, ok) in outcomes {
            assert_eq!((status, ok), (want, 200));
        }
    }

    #[test]
    fn invokes_execute_workflows_over_the_wire() {
        let (env, app) = media_env();
        let mut rng = beldi_apps::rng::request_rng(42);
        let payloads: Vec<Value> = (0..5).map(|_| app.gen_load_request(&mut rng)).collect();
        let entry = app.entry_point();
        let replies = serve(&env, move |addr| {
            let mut client = FrontClient::new(addr);
            let invoke = |p: &Value| client.invoke(entry, p).unwrap();
            payloads.iter().map(invoke).collect::<Vec<_>>()
        });
        for (status, body) in replies {
            assert_eq!(status, 200, "body: {body}");
            assert!(body.starts_with("{\"ok\":"), "body: {body}");
        }
        // The workflows really ran, timed on the environment's clock.
        assert_ne!(app.canonical_state(&env), Value::Null);
        let latency = env.telemetry().histogram(Hist::FrontRequest);
        assert_eq!(latency.len(), 5);
        assert!(latency.min() > std::time::Duration::ZERO);
    }

    #[test]
    fn pinned_instance_id_replays_instead_of_reexecuting() {
        // The same pinned request once, and twice, against equal
        // environments: the retry replays the result and changes nothing.
        let pinned = |times: usize| {
            let (env, app) = media_env();
            let mut rng = beldi_apps::rng::request_rng(9);
            let payload = json::to_json(&app.gen_load_request(&mut rng));
            let path = format!("/invoke/{}", app.entry_point());
            let replies = serve(&env, move |addr| {
                let mut client = FrontClient::new(addr);
                let headers = [("x-beldi-instance", "pinned-1")];
                (0..times)
                    .map(|_| client.request("POST", &path, &headers, &payload).unwrap())
                    .collect::<Vec<_>>()
            });
            (replies, state_digest(app.as_ref(), &env))
        };
        let (once, digest_once) = pinned(1);
        let (twice, digest_twice) = pinned(2);
        assert_eq!(once[0].0, 200);
        assert_eq!(twice[0], once[0]);
        assert_eq!(twice[1], twice[0], "a retry under the same id must replay");
        assert_eq!(digest_twice, digest_once, "the retry must not re-execute");
    }

    #[test]
    fn admission_follows_connection_order_not_arrival() {
        let env = Arc::new(crate::front_env(Mode::Beldi));
        let whoami = |ctx: &mut beldi::SsfContext, _| Ok(Value::from(ctx.instance_id()));
        env.register_ssf("whoami", &[], Arc::new(whoami));
        let (early, late) = serve(&env, |addr| {
            let [mut first, mut second] = [FrontClient::new(addr), FrontClient::new(addr)];
            for client in [&mut first, &mut second] {
                client.request("GET", "/healthz", &[], "").unwrap();
            }
            // Two closed-loop clients, each closing its connection once
            // answered. The second connection's request arrives first, by
            // 50 ms of host time; the door still admits the first's first.
            let late = std::thread::spawn(move || second.invoke("whoami", &Value::Null));
            std::thread::sleep(std::time::Duration::from_millis(50));
            let early = first.invoke("whoami", &Value::Null);
            drop(first);
            (early.unwrap(), late.join().unwrap().unwrap())
        });
        assert_eq!(early, (200, "{\"ok\":\"front-0\"}".to_owned()));
        assert_eq!(late, (200, "{\"ok\":\"front-1\"}".to_owned()));
    }

    #[test]
    fn smoke_digest_matches_in_process_run() {
        let report = front_smoke("media", Mode::Beldi, 16, 4, 42).expect("known app");
        assert_eq!(report.run.errors, 0, "all HTTP invokes should succeed");
        let failures = beldi_workload::front_gate(&report.run);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(report.rps > 0.0);
        assert!(report.run.latency.p50_us > 0 && report.run.db.total_ops() > 0);
    }

    #[test]
    fn a_smoke_run_is_a_function_of_its_seed() {
        let run = || {
            let report = front_smoke("social", Mode::Beldi, 12, 3, 7).expect("known app");
            assert_eq!(report.run.errors, 0);
            report.run
        };
        assert_eq!(run(), run());
    }

    /// One hostile fragment of a request: protocol text, an edge the
    /// parser bounds, or arbitrary bytes (invalid UTF-8 included).
    fn fragment() -> impl Strategy<Value = Vec<u8>> {
        const TEXT: [&str; 10] = [
            "GET /healthz HTTP/1.1\r\n",
            "POST /invoke/x HTTP/1.1\r\n",
            "GET",
            "\r\n",
            "\r",
            ":",
            "x-beldi-instance: i\r\n",
            "connection: close\r\n",
            "content-length: 12x\r\n",
            "content-length: -1\r\n",
        ];
        prop_oneof![
            (0..TEXT.len()).prop_map(|i| TEXT[i].as_bytes().to_vec()),
            (0..u64::MAX).prop_map(|n| format!("content-length: {n}\r\n").into_bytes()),
            (0..2 * MAX_BODY_BYTES)
                .prop_map(|n| format!("content-length: {n}\r\n\r\n").into_bytes()),
            (MAX_LINE_BYTES - 2..MAX_LINE_BYTES + 3).prop_map(|n| vec![b'h'; n]),
            (MAX_HEADERS - 1..MAX_HEADERS + 3).prop_map(|n| "h: v\r\n".repeat(n).into_bytes()),
            prop::collection::vec((0..256u16).prop_map(|b| b as u8), 0..48),
        ]
    }

    fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(fragment(), 0..10).prop_map(|parts| parts.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Whatever arrives, the parser returns a request, a 4xx reply
        /// or an I/O error — it never panics — and allocates nothing
        /// larger than a body the door accepts.
        #[test]
        fn hostile_bytes_parse_to_a_request_a_4xx_or_an_error(input in hostile_bytes()) {
            let mut reader = &input[..];
            LARGEST.with(|l| l.set(0));
            loop {
                match read_request(&mut reader) {
                    Ok(Some(Ok(req))) => prop_assert!(req.body.len() <= MAX_BODY_BYTES),
                    Ok(Some(Err(reply))) => {
                        prop_assert!((400..500).contains(&reply.status));
                        break;
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            let largest = LARGEST.with(Cell::get);
            prop_assert!(largest <= MAX_BODY_BYTES, "{largest}");
        }
    }
}
