//! Spans and counters recorded by the benchmark around each call it
//! makes into the system. Spans stay in memory during a pass and are
//! written out when it ends.

use std::time::Instant;

use crate::json::Json;

/// The system's own counters, flattened to plain numbers: simdb's
/// operation metrics and simfaas' invocation metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub gets: u64,
    pub writes: u64,
    pub queries: u64,
    pub scans: u64,
    pub transact_writes: u64,
    pub deletes: u64,
    pub cond_failures: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub rows_scanned: u64,
    pub lock_waits: u64,
    pub invocations: u64,
    pub cold_starts: u64,
}

impl Counters {
    pub fn db_ops(&self) -> u64 {
        self.gets + self.writes + self.queries + self.scans + self.transact_writes + self.deletes
    }

    pub fn db_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            gets: self.gets - earlier.gets,
            writes: self.writes - earlier.writes,
            queries: self.queries - earlier.queries,
            scans: self.scans - earlier.scans,
            transact_writes: self.transact_writes - earlier.transact_writes,
            deletes: self.deletes - earlier.deletes,
            cond_failures: self.cond_failures - earlier.cond_failures,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            lock_waits: self.lock_waits - earlier.lock_waits,
            invocations: self.invocations - earlier.invocations,
            cold_starts: self.cold_starts - earlier.cold_starts,
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("gets", Json::from(self.gets)),
            ("writes", Json::from(self.writes)),
            ("queries", Json::from(self.queries)),
            ("scans", Json::from(self.scans)),
            ("transact_writes", Json::from(self.transact_writes)),
            ("deletes", Json::from(self.deletes)),
            ("cond_failures", Json::from(self.cond_failures)),
            ("bytes_read", Json::from(self.bytes_read)),
            ("bytes_written", Json::from(self.bytes_written)),
            ("rows_scanned", Json::from(self.rows_scanned)),
            ("lock_waits", Json::from(self.lock_waits)),
            ("invocations", Json::from(self.invocations)),
            ("cold_starts", Json::from(self.cold_starts)),
        ])
    }
}

/// One timed call into the system.
#[derive(Debug, Clone)]
pub struct Span {
    /// `setup`, `warmup`, `request`, `http_roundtrip`, `ic_pass`,
    /// `gc_pass`, `ic`, `gc` or `fingerprint`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request index in the stream, or the pass number.
    pub id: u64,
    /// Request kind, or the SSF a collector child span ran for.
    pub kind: String,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    /// What the call added to the system's counters.
    pub delta: Counters,
    /// A result count: intents and rows a `gc` span recycled.
    pub count: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    pub fn virt_ns(&self) -> u64 {
        self.virt_end_ns - self.virt_start_ns
    }
}

/// An open span: where it starts and what the counters read then.
pub struct Open {
    index: usize,
    before: Counters,
}

/// Collects spans when `enabled`; otherwise every call is a no-op, so
/// the timed pass and the traced pass run the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span. `sample` reads (virtual now, counters) and is only
    /// called when tracing is on.
    pub fn open(
        &mut self,
        name: &'static str,
        id: u64,
        kind: &str,
        sample: impl FnOnce() -> (u64, Counters),
    ) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let (virt, before) = sample();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            id,
            kind: kind.to_owned(),
            host_start_ns: self.epoch.elapsed().as_nanos() as u64,
            host_end_ns: 0,
            virt_start_ns: virt,
            virt_end_ns: virt,
            delta: Counters::default(),
            count: 0,
        });
        self.stack.push(index);
        Some(Open { index, before })
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(
        &mut self,
        open: Option<Open>,
        count: u64,
        sample: impl FnOnce() -> (u64, Counters),
    ) {
        let Some(open) = open else { return };
        let host_end = self.epoch.elapsed().as_nanos() as u64;
        let (virt, after) = sample();
        let span = &mut self.spans[open.index];
        span.host_end_ns = host_end;
        span.virt_end_ns = virt;
        span.delta = after.since(&open.before);
        span.count = count;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.index), "spans must close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("id", Json::from(s.id)),
                        ("kind", Json::from(s.kind.as_str())),
                        ("host_start_ns", Json::from(s.host_start_ns)),
                        ("host_end_ns", Json::from(s.host_end_ns)),
                        ("virt_start_ns", Json::from(s.virt_start_ns)),
                        ("virt_end_ns", Json::from(s.virt_end_ns)),
                        ("count", Json::from(s.count)),
                        ("delta", s.delta.to_json()),
                    ])
                })
                .collect(),
        )
    }
}
