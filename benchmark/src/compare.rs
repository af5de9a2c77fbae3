//! `compare A.json B.json`: is B no worse than A?
//!
//! Both files must come from the same seed, so the bounds are the
//! same-seed ones of `spec.rs`, tighter than `BENCHMARK.json`'s. One row
//! per workload × end-to-end metric with both medians, the change, the
//! bound and a verdict. `regressed`: B's median is worse
//! than A's by more than the bound. `unresolved`: it is not, but the
//! repetitions of A or B spread wider than the bound, so "unchanged"
//! cannot be claimed either. Workload identity comes first: differing
//! digests mean the two files measured different inputs.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, SETUP_FLOOR_S};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric of one workload: `a` and `b` are the two
/// medians, the spreads are `(max − min) ÷ median` over each side's
/// repetitions.
pub fn verdict(m: &EndToEnd, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    // The bound as an amount of the metric. `setup_s` also has a floor.
    let floor = if m.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let allowed = (m.same_seed_bound * a.abs()).max(floor);
    let worse_by = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by > allowed {
        Verdict::Regressed
    } else if spread_a.max(spread_b) * a.abs() > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Digest, `fail_share`, `nondet_share` and missing-data violations.
    pub violations: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }
}

pub fn compare(a: &Json, b: &Json) -> Comparison {
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    let empty = std::collections::BTreeMap::new();
    let workloads = |doc: &'_ Json| doc.get("workloads").and_then(Json::as_obj).cloned();
    let (wa, wb) = (
        workloads(a).unwrap_or_else(|| empty.clone()),
        workloads(b).unwrap_or_else(|| empty.clone()),
    );
    if a.get("seed") != b.get("seed") {
        violations.push("the two files were run with different seeds".to_owned());
    }
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            violations.push(format!("{name}: missing from the second file"));
            continue;
        };
        for key in ["stream_digest", "state_digest"] {
            let (da, db) = (
                ra.get(key).and_then(Json::as_str),
                rb.get(key).and_then(Json::as_str),
            );
            if da != db || da.is_none() {
                violations.push(format!(
                    "{name}: workload changed ({key} {} vs {})",
                    da.unwrap_or("none"),
                    db.unwrap_or("none")
                ));
            }
        }
        for (side, r) in [("first", ra), ("second", rb)] {
            for key in ["fail_share", "nondet_share"] {
                let v = r.get(key).and_then(Json::as_f64).unwrap_or(1.0);
                if v != 0.0 {
                    violations.push(format!("{name}: {key} is {v} in the {side} file"));
                }
            }
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                violations.push(format!(
                    "{name}: the {side} file's outputs were not correct"
                ));
            }
        }
        for m in &END_TO_END {
            let read =
                |r: &Json, field: &str| r.get("end_to_end")?.get(m.name)?.get(field)?.as_f64();
            match (
                read(ra, "median"),
                read(rb, "median"),
                read(ra, "spread"),
                read(rb, "spread"),
            ) {
                (Some(ma), Some(mb), Some(sa), Some(sb)) => rows.push(Row {
                    workload: name.clone(),
                    metric: m.name,
                    unit: m.unit,
                    a: ma,
                    b: mb,
                    verdict: verdict(m, ma, mb, sa, sb),
                }),
                _ => violations.push(format!("{name}: {} missing from a file", m.name)),
            }
        }
    }
    for name in wb.keys().filter(|n| !wa.contains_key(*n)) {
        violations.push(format!("{name}: missing from the first file"));
    }
    Comparison { rows, violations }
}

/// Prints the table and returns the process exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let result = compare(&a, &b);
    println!(
        "{:<13} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for r in &result.rows {
        let m = crate::spec::end_to_end(r.metric).expect("rows come from the table");
        let change = if r.a == 0.0 {
            0.0
        } else {
            100.0 * (r.b - r.a) / r.a.abs()
        };
        println!(
            "{:<13} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {} ({})",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            100.0 * m.same_seed_bound,
            r.verdict.label(),
            r.unit,
        );
    }
    for v in &result.violations {
        println!("VIOLATION: {v}");
    }
    let count = |v: Verdict| result.rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} regressed, {} violations",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed),
        result.violations.len()
    );
    i32::from(!result.passed())
}
