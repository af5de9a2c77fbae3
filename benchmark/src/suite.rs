//! The one command: every workload, three timed repetitions interleaved
//! round-robin, then one per-layer run each; prints every metric and
//! writes the results file `compare` reads.
//!
//! Each run is a child process of this binary, so a workload never
//! shares a heap, a warm pool or a peak-memory reading with another.
//! Interleaving confines a noisy neighbour to one repetition of each
//! workload; host metrics report the median repetition.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use crate::adapter::Workload;
use crate::json::Json;
use crate::spec::{END_TO_END, NONDET_TOLERANCE};
use crate::stats::{iqr_share, median, range_share};

const REPETITIONS: usize = 3;

/// What one child run printed.
struct Child {
    line: Json,
    notes: BTreeMap<String, Json>,
    wall_s: f64,
}

fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let t = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} run exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    let line = Json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let notes = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .filter_map(|l| l.split_once(": "))
        .filter_map(|(k, v)| Some((k.to_owned(), Json::parse(v).ok()?)))
        .collect();
    Ok(Child {
        line,
        notes,
        wall_s,
    })
}

/// A run's metrics by name: value and unit.
type Values = BTreeMap<String, (f64, String)>;

fn metric_values(child: &Child) -> Values {
    child
        .line
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|(name, m)| {
                    let value = m.get("value")?.as_f64()?;
                    let unit = m.get("unit")?.as_str()?.to_owned();
                    Some((name.clone(), (value, unit)))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn count(child: &Child, key: &str) -> f64 {
    child.line.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs the suite and returns the process exit code.
pub fn run_all(workloads: &[Workload], seed: u64, seconds: f64, out_path: &str) -> i32 {
    let started = Instant::now();
    let mut timed: BTreeMap<&'static str, Vec<Child>> = BTreeMap::new();
    let mut layers: BTreeMap<&'static str, Child> = BTreeMap::new();
    let mut wall: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut run = |w: Workload, trace: bool| -> Option<Child> {
        eprintln!(
            "running {} ({})",
            w.name(),
            if trace { "per-layer" } else { "end-to-end" }
        );
        match run_child(w, seed, seconds, trace) {
            Ok(child) => {
                *wall.entry(w.name()).or_default() += child.wall_s;
                Some(child)
            }
            Err(e) => {
                eprintln!("{e}");
                None
            }
        }
    };
    for _ in 0..REPETITIONS {
        for w in workloads {
            let Some(child) = run(*w, false) else {
                return 1;
            };
            timed.entry(w.name()).or_default().push(child);
        }
    }
    for w in workloads {
        let Some(child) = run(*w, true) else { return 1 };
        layers.insert(w.name(), child);
    }

    let mut all_ok = true;
    let mut doc = BTreeMap::new();
    for w in workloads {
        let reps = &timed[w.name()];
        let per_rep: Vec<_> = reps.iter().map(metric_values).collect();
        println!("\n== {} ==", w.name());
        let mut end_to_end = BTreeMap::new();
        let mut nondet = 0usize;
        for m in &END_TO_END {
            let values: Vec<f64> = per_rep
                .iter()
                .filter_map(|r| r.get(m.name).map(|(v, _)| *v))
                .collect();
            if values.len() != reps.len() {
                eprintln!("{}: a repetition did not report {}", w.name(), m.name);
                all_ok = false;
                continue;
            }
            let spread = range_share(&values);
            nondet += usize::from(m.modelled && spread > NONDET_TOLERANCE);
            println!(
                "{:<24} {:>14.4} {:<6} spread {:>6.2} %",
                m.name,
                median(&values),
                m.unit,
                100.0 * spread
            );
            end_to_end.insert(
                m.name.to_owned(),
                Json::obj([
                    ("median", Json::from(median(&values))),
                    ("unit", Json::from(m.unit)),
                    ("spread", Json::from(spread)),
                    (
                        "repetitions",
                        Json::Arr(values.into_iter().map(Json::from).collect()),
                    ),
                ]),
            );
        }
        let modelled = END_TO_END.iter().filter(|m| m.modelled).count();
        let nondet_share = nondet as f64 / modelled as f64;
        let attempted: f64 = reps.iter().map(|c| count(c, "attempted")).sum();
        let failed: f64 = reps.iter().map(|c| count(c, "failed")).sum();
        let fail_share = failed / attempted.max(1.0);
        let digests = |key: &str| -> Vec<String> {
            let mut all: Vec<String> = reps
                .iter()
                .filter_map(|c| c.notes.get(key)?.as_str().map(str::to_owned))
                .collect();
            all.dedup();
            all
        };
        let (stream, state) = (digests("stream_digest"), digests("state_digest"));
        let layer = &layers[w.name()];
        let correct = reps
            .iter()
            .chain([layer])
            .all(|c| c.line.get("correct").and_then(Json::as_bool) == Some(true))
            && stream.len() == 1
            && state.len() == 1;
        for c in reps.iter().chain([layer]) {
            if let Some(problems) = c.notes.get("problems").and_then(Json::as_arr) {
                for p in problems {
                    println!("PROBLEM: {}", p.as_str().unwrap_or("?"));
                }
            }
        }
        println!("{:<24} {:>14.6} fraction", "fail_share", fail_share);
        println!("{:<24} {:>14.6} fraction", "nondet_share", nondet_share);
        println!(
            "stream_digest {}  state_digest {}",
            stream.join("/"),
            state.join("/")
        );
        let per_layer = metric_values(layer);
        for (name, (value, unit)) in &per_layer {
            println!("  {name:<38} {value:>14.4} {unit}");
        }
        if let Some(ledger) = layer.notes.get("ledger") {
            println!("  ledger: {}", ledger.render());
        }
        println!("{}: {:.1} s of wall time", w.name(), wall[w.name()]);
        all_ok &= correct && fail_share == 0.0 && nondet_share == 0.0;
        doc.insert(
            w.name().to_owned(),
            Json::obj([
                ("correct", Json::from(correct)),
                ("fail_share", Json::from(fail_share)),
                ("nondet_share", Json::from(nondet_share)),
                ("stream_digest", Json::from(stream.join("/"))),
                ("state_digest", Json::from(state.join("/"))),
                ("end_to_end", Json::Obj(end_to_end)),
                (
                    "per_layer",
                    Json::obj(per_layer.into_iter().map(|(name, (value, unit))| {
                        (
                            name,
                            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                        )
                    })),
                ),
                (
                    "ledger",
                    layer.notes.get("ledger").cloned().unwrap_or(Json::Null),
                ),
                ("wall_s", Json::from(wall[w.name()])),
            ]),
        );
    }
    let total = started.elapsed().as_secs_f64();
    println!("\ntotal: {total:.1} s of wall time");
    let doc = Json::obj([
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("repetitions", Json::from(REPETITIONS as u64)),
        ("total_wall_s", Json::from(total)),
        ("workloads", Json::Obj(doc)),
    ]);
    let written = std::path::Path::new(out_path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out_path, doc.render_pretty()));
    match written {
        Ok(()) => println!("results written to {out_path}"),
        Err(e) => {
            eprintln!("could not write {out_path}: {e}");
            return 1;
        }
    }
    i32::from(!all_ok)
}

/// `spread`: one run of every workload for each of `seeds` seeds, then
/// for every end-to-end metric the distance between the first and third
/// quartile of its values as a share of their median — what the
/// acceptance rule for `BENCHMARK.json` looks at. A spread wider than
/// the metric's bound fails (`setup_s` is exempt there); one wider than
/// a third of it is marked. Returns the process exit code.
pub fn run_spread(workloads: &[Workload], seeds: u64, seconds: f64) -> i32 {
    let mut runs: BTreeMap<&'static str, Vec<Values>> = BTreeMap::new();
    let mut all_ok = true;
    for seed in 1..=seeds {
        for w in workloads {
            eprintln!("running {} with seed {seed}", w.name());
            match run_child(*w, seed, seconds, false) {
                Ok(child) => {
                    if child.line.get("correct").and_then(Json::as_bool) != Some(true) {
                        eprintln!("{} with seed {seed}: outputs were not correct", w.name());
                        all_ok = false;
                    }
                    runs.entry(w.name())
                        .or_default()
                        .push(metric_values(&child));
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
    }
    for (workload, runs) in &runs {
        println!("\n== {workload} ==");
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(m.name).map(|(v, _)| *v))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let spread = iqr_share(&values);
            let mark = if spread > m.bound && m.name != "setup_s" {
                all_ok = false;
                "WIDER THAN THE BOUND"
            } else if spread > m.bound / 3.0 {
                "over a third of the bound"
            } else {
                ""
            };
            println!(
                "{:<24} median {:>14.4} {:<6} spread {:>6.2} %  bound {:>4.0} %  {mark}",
                m.name,
                median(&values),
                m.unit,
                100.0 * spread,
                100.0 * m.bound
            );
        }
    }
    i32::from(!all_ok)
}
