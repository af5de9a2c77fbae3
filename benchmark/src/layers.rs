//! Per-layer metrics: what the traced pass and the probes say about
//! each crate, and the ledger that sets unit cost × count per request
//! against the end-to-end host cost.

use std::collections::BTreeMap;

use crate::adapter::{Workload, COLD_EXTRA_MS, KINDS, WARM_INVOKE_MS};
use crate::clock::ThreadShare;
use crate::json::Json;
use crate::run::{Metrics, Pass};
use crate::stats::{median, p50_p99, range_share};
use crate::trace::{Span, Tracer};

/// `core.daal.max_chain_len` looks at this many of the hottest
/// `kv-zipf` keys: chains grow with writes, and these take a third of them.
pub const HOT_KEYS: u32 = 64;

pub struct Inputs<'a> {
    /// The same stream and window with tracing off, run before and
    /// after the traced pass.
    pub timed: [&'a Pass; 2],
    pub traced: &'a Pass,
    pub spans: &'a [Span],
    /// In-process run of the traced requests, for an HTTP workload.
    pub twin: Option<&'a Pass>,
    pub max_chain_len: u64,
    pub peak_active: u64,
    /// Probe results, already named and with units.
    pub probes: &'a Metrics,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Host (p50, p99) in ms of the first `n` requests of a pass.
fn host_ms(pass: &Pass, n: usize) -> (f64, f64) {
    let samples: Vec<u64> = pass.outcomes[..n].iter().map(|o| o.host_ns).collect();
    let (p50, p99) = p50_p99(&samples);
    (p50 as f64 / 1e6, p99 as f64 / 1e6)
}

/// Every per-layer metric, in one map. A metric that does not apply to
/// the workload (a request kind it never sends, `front.*` without a
/// front door, chain length without known keys) reads 0.
pub fn metrics(inp: &Inputs) -> Metrics {
    let mut out = inp.probes.clone();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.insert(name.to_owned(), (value, unit));
    };
    let m = &inp.traced.model;
    let h = &inp.traced.host;
    let n = m.requests.max(1) as f64;
    let c = &m.counters;
    let per_req = |v: u64| v as f64 / n;

    put("simdb.gets_per_req", per_req(c.gets), "ops");
    put("simdb.writes_per_req", per_req(c.writes), "ops");
    put("simdb.queries_per_req", per_req(c.queries), "ops");
    put("simdb.scans_per_req", per_req(c.scans), "ops");
    put(
        "simdb.transact_writes_per_req",
        per_req(c.transact_writes),
        "ops",
    );
    put("simdb.deletes_per_req", per_req(c.deletes), "ops");
    put(
        "simdb.rows_scanned_per_req",
        per_req(c.rows_scanned),
        "rows",
    );
    put(
        "simdb.kb_read_per_req",
        per_req(c.bytes_read) / 1024.0,
        "KiB",
    );
    put(
        "simdb.kb_written_per_req",
        per_req(c.bytes_written) / 1024.0,
        "KiB",
    );
    put(
        "simdb.cond_failures_per_req",
        per_req(c.cond_failures),
        "count",
    );
    put("simdb.lock_waits_per_req", per_req(c.lock_waits), "count");
    let part_mean = mean(m.partition_ops.iter().map(|v| *v as f64));
    let part_max = m.partition_ops.iter().copied().max().unwrap_or(0) as f64;
    put(
        "simdb.partition_skew",
        if part_mean > 0.0 {
            part_max / part_mean
        } else {
            0.0
        },
        "ratio",
    );

    let virt_total = m.virt_ns as f64 / 1e6 / n;
    let virt_faas =
        per_req(c.invocations) * WARM_INVOKE_MS + per_req(c.cold_starts) * COLD_EXTRA_MS;
    put("simdb.virt_ms_per_req", virt_total - virt_faas, "ms");
    put("simfaas.invokes_per_req", per_req(c.invocations), "count");
    put("simfaas.cold_starts", c.cold_starts as f64, "count");
    put("simfaas.peak_active", inp.peak_active as f64, "count");
    put("simfaas.virt_ms_per_req", virt_faas, "ms");
    put("simclock.sleeps_per_req", per_req(m.sleeps), "count");
    put("simclock.virt_ms_per_req", virt_total, "ms");

    let named = |name: &'static str| inp.spans.iter().filter(move |s| s.name == name);
    let gc_host_ms = named("gc_pass").fold(0.0, |sum, s| sum + s.host_ns() as f64 / 1e6);
    put(
        "core.gc.host_ms_per_pass",
        mean(named("gc_pass").map(|s| s.host_ns() as f64 / 1e6)),
        "ms",
    );
    put(
        "core.gc.virt_ms_per_pass",
        mean(named("gc_pass").map(|s| s.virt_ns() as f64 / 1e6)),
        "ms",
    );
    put(
        "core.gc.db_ops_per_pass",
        mean(named("gc_pass").map(|s| s.delta.db_ops() as f64)),
        "ops",
    );
    put(
        "core.gc.rows_scanned_per_pass",
        mean(named("gc_pass").map(|s| s.delta.rows_scanned as f64)),
        "rows",
    );
    let passes = named("gc_pass").count().max(1) as f64;
    put(
        "core.gc.recycled_per_pass",
        named("gc").fold(0.0, |sum, s| sum + s.count as f64) / passes,
        "rows",
    );
    put(
        "core.gc.host_share_pct",
        100.0 * gc_host_ms / (h.wall_s * 1e3),
        "%",
    );
    put(
        "core.ic.host_ms_per_pass",
        mean(named("ic_pass").map(|s| s.host_ns() as f64 / 1e6)),
        "ms",
    );
    put(
        "core.ic.db_ops_per_pass",
        mean(named("ic_pass").map(|s| s.delta.db_ops() as f64)),
        "ops",
    );
    put("core.store.meta_rows_end", m.rows_meta as f64, "rows");
    put("core.store.data_rows_end", m.rows_data as f64, "rows");
    put("core.daal.max_chain_len", inp.max_chain_len as f64, "rows");

    for kind in KINDS {
        let of_kind: Vec<&Span> = named("request").filter(|s| s.kind == kind).collect();
        let p50 = |f: fn(&Span) -> u64| {
            let samples: Vec<u64> = of_kind.iter().map(|s| f(s)).collect();
            p50_p99(&samples).0 as f64 / 1e6
        };
        put(
            &format!("apps.{kind}.virt_p50_ms"),
            p50(Span::virt_ns),
            "ms",
        );
        put(
            &format!("apps.{kind}.host_p50_ms"),
            p50(Span::host_ns),
            "ms",
        );
        put(
            &format!("apps.{kind}.db_ops"),
            mean(of_kind.iter().map(|s| s.delta.db_ops() as f64)),
            "ops",
        );
    }

    let hn = h.requests.max(1);
    put(
        "front.http_overhead_ms",
        inp.twin.map_or(0.0, |twin| {
            let shared = hn.min(twin.outcomes.len());
            host_ms(inp.traced, shared).0 - host_ms(twin, shared).0
        }),
        "ms",
    );
    put(
        "front.wire_kb_per_req",
        h.wire_bytes as f64 / 1024.0 / hn as f64,
        "KiB",
    );

    let (p50, p99) = host_ms(inp.traced, h.requests);
    put("host.p50_ms", p50, "ms");
    put("host.p99_ms", p99, "ms");
    let cpu_per_req = h.cpu_ms() / hn as f64;
    put(
        "host.cpu_user_ms_per_req",
        cpu_per_req * (1.0 - h.sys_share),
        "ms",
    );
    put("host.cpu_sys_ms_per_req", cpu_per_req * h.sys_share, "ms");
    put("host.speed_x", h.speed_x(), "ratio");
    put("host.raw_req_per_s", h.raw_req_per_s(), "req/s");
    let off = inp.timed.map(|p| p.host.req_per_s());
    put("host.spread_pct", 100.0 * range_share(&off), "%");
    let (off, on) = (median(&off), h.req_per_s());
    put("host.trace_overhead_pct", 100.0 * (off - on) / off, "%");
    out
}

/// The outside-in ledger: probe unit cost × traced count per request,
/// summed, against the traced pass's CPU per request, with the
/// remainder the probes do not explain. Unit costs of the substrate
/// layers (simfaas, simdb) do not overlap, so their products add up;
/// what is left is core's own logic, the apps, value handling outside
/// the store, and the client.
pub fn ledger(workload: Workload, metrics: &Metrics) -> Json {
    let get = |name: &str| metrics.get(name).map_or(0.0, |(v, _)| *v);
    // Table size the workload's stores are nearest to.
    let size = if workload == Workload::KvZipf {
        "128k"
    } else {
        "1k"
    };
    let terms: Vec<(String, f64, f64)> = vec![
        (
            "simfaas.invoke_sync_us × simfaas.invokes_per_req".to_owned(),
            get("simfaas.invoke_sync_us") / 1e3,
            get("simfaas.invokes_per_req"),
        ),
        (
            format!("simdb.get_ns.{size} × simdb.gets_per_req"),
            get(&format!("simdb.get_ns.{size}")) / 1e6,
            get("simdb.gets_per_req"),
        ),
        (
            format!("simdb.cond_update_ns.{size} × simdb.writes_per_req"),
            get(&format!("simdb.cond_update_ns.{size}")) / 1e6,
            get("simdb.writes_per_req"),
        ),
        (
            format!("simdb.put_ns.{size} × simdb.deletes_per_req"),
            get(&format!("simdb.put_ns.{size}")) / 1e6,
            get("simdb.deletes_per_req"),
        ),
        // A query is priced as a point read plus its rows; the row price
        // is what the 20-row query costs above a point read, per row.
        (
            format!("simdb.get_ns.{size} × (simdb.queries_per_req + simdb.scans_per_req)"),
            get(&format!("simdb.get_ns.{size}")) / 1e6,
            get("simdb.queries_per_req") + get("simdb.scans_per_req"),
        ),
        (
            format!("(simdb.query20_us − simdb.get_ns.{size}) ÷ 20 × simdb.rows_scanned_per_req"),
            (get("simdb.query20_us") / 1e3 - get(&format!("simdb.get_ns.{size}")) / 1e6) / 20.0,
            get("simdb.rows_scanned_per_req"),
        ),
        (
            "simdb.transact2_us × simdb.transact_writes_per_req".to_owned(),
            get("simdb.transact2_us") / 1e3,
            get("simdb.transact_writes_per_req"),
        ),
    ];
    // Probe times are as the host ran them, so the CPU time they are set
    // against is too: the scaling to a nominal host is taken out again.
    let cpu =
        (get("host.cpu_user_ms_per_req") + get("host.cpu_sys_ms_per_req")) / get("host.speed_x");
    let explained: f64 = terms.iter().map(|(_, unit, count)| unit * count).sum();
    Json::obj([
        (
            "terms",
            Json::Arr(
                terms
                    .iter()
                    .map(|(name, unit_ms, count)| {
                        Json::obj([
                            ("term", Json::from(name.as_str())),
                            ("unit_ms", Json::from(*unit_ms)),
                            ("count_per_req", Json::from(*count)),
                            ("ms_per_req", Json::from(unit_ms * count)),
                            (
                                "share_of_cpu_pct",
                                Json::from(100.0 * unit_ms * count / cpu),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("explained_ms_per_req", Json::from(explained)),
        ("host_cpu_ms_per_req", Json::from(cpu)),
        ("unexplained_ms_per_req", Json::from(cpu - explained)),
        (
            "unexplained_pct",
            Json::from(100.0 * (cpu - explained) / cpu),
        ),
    ])
}

/// The traced pass as one document: spans, virtual time by thread, and
/// the ledger. `main` writes it to `benchmark/out/trace-<workload>.json`.
pub fn trace_document(
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
    by_thread: &BTreeMap<String, ThreadShare>,
    ledger: &Json,
) -> Json {
    Json::obj([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        (
            "virtual_time_by_thread",
            Json::obj(by_thread.iter().map(|(name, share)| {
                (
                    name.as_str(),
                    Json::obj([
                        ("sleeps", Json::from(share.sleeps)),
                        ("virt_ms", Json::from(share.nanos as f64 / 1e6)),
                    ]),
                )
            })),
        ),
        ("ledger", ledger.clone()),
        ("spans", tracer.to_json()),
    ])
}
