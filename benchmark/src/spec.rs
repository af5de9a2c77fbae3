//! The end-to-end metrics: names, units, directions and bounds. The
//! same table is written out in `BENCHMARK.json`; a self-test keeps the
//! two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `BENCHMARK.json`'s bound: the share of the reference median by
    /// which the median of runs with *different seeds* may worsen. It has
    /// to stay above the seed-to-seed spread of the noisiest workload.
    pub bound: f64,
    /// `compare`'s bound, for two result files of the *same seed*, where
    /// the modelled metrics repeat exactly.
    pub same_seed_bound: f64,
    /// Modelled metrics are functions of (seed, configuration): they
    /// must repeat between repetitions of one run.
    pub modelled: bool,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bounds: (f64, f64),
    modelled: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: bounds.0,
        same_seed_bound: bounds.1,
        modelled,
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    metric("virt_p50_ms", "ms", Better::Lower, (0.15, 0.01), true),
    metric("virt_p99_ms", "ms", Better::Lower, (0.05, 0.02), true),
    metric(
        "virt_overhead_x",
        "ratio",
        Better::Lower,
        (0.05, 0.01),
        true,
    ),
    metric("db_ops_per_req", "ops", Better::Lower, (0.05, 0.01), true),
    metric("db_kb_per_req", "KiB", Better::Lower, (0.10, 0.01), true),
    metric("store_rows_end", "rows", Better::Lower, (0.10, 0.02), true),
    metric(
        "host_req_per_s",
        "req/s",
        Better::Higher,
        (0.20, 0.10),
        false,
    ),
    metric(
        "host_cpu_ms_per_req",
        "ms",
        Better::Lower,
        (0.25, 0.10),
        false,
    ),
    metric(
        "alloc_kb_per_req",
        "KiB",
        Better::Lower,
        (0.25, 0.01),
        false,
    ),
    metric(
        "allocs_per_req",
        "count",
        Better::Lower,
        (0.25, 0.01),
        false,
    ),
    metric("peak_rss_mb", "MiB", Better::Lower, (0.20, 0.20), false),
    metric("setup_s", "s", Better::Lower, (0.25, 0.25), false),
];

/// `setup_s` is a fraction of a second on every workload, where a
/// quarter of it is scheduler noise: in `compare` a worsening also has
/// to exceed this many seconds to count.
pub const SETUP_FLOOR_S: f64 = 0.5;

/// Two repetitions of a modelled metric that differ by more than this
/// share count towards `nondet_share`.
pub const NONDET_TOLERANCE: f64 = 0.005;

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: f64 = 15.0;

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
