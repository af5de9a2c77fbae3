//! Command line of the benchmark. See `README.md`.

use std::process::ExitCode;

use beldi_benchmark::adapter::{run_probes, Workload};
use beldi_benchmark::spec::RUN_SECONDS;
use beldi_benchmark::{compare, host, run, suite, OUT_DIR};

const USAGE: &str = "\
usage:
  beldi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last line printed is the result
  beldi-benchmark all [--seed <n>] [--seconds <s>] [--workload <name>] [--out <file>]
      every workload: three timed repetitions and a per-layer run each
  beldi-benchmark spread [--seeds <n>] [--seconds <s>] [--workload <name>]
      one run per seed 1..n (default 10); the spread of each metric against its bound
  beldi-benchmark compare <A.json> <B.json>
      is B no worse than A, metric by metric
  beldi-benchmark probes
      the layer probes alone
workloads: media-read travel-txn social-front kv-zipf";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flag(name) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {text:?}")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.flag("--workload") {
            None => Ok(None),
            Some(name) => Workload::parse(name)
                .map(Some)
                .ok_or_else(|| format!("--workload: no workload named {name:?}")),
        }
    }
}

/// A run needs the repository around it: it is started from the root of
/// a checkout, where the crates it measures and its own files are.
fn check_checkout() -> Result<(), String> {
    for needed in ["benchmark/Cargo.toml", "crates/core/Cargo.toml"] {
        if !std::path::Path::new(needed).is_file() {
            return Err(format!(
                "{needed} not found: run the benchmark from the root of the repository"
            ));
        }
    }
    Ok(())
}

fn main_inner() -> Result<i32, String> {
    let args = Args(std::env::args().skip(1).collect());
    if let Some("compare") = args.0.first().map(String::as_str) {
        return match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => Ok(compare::run(a, b)),
            _ => Err("compare needs two result files".into()),
        };
    }
    // Everything below measures; see `pin_to_one_cpu` for why on one CPU.
    if host::pin_to_one_cpu().is_none() {
        eprintln!("warning: could not pin to one CPU; host metrics will be noisier");
    }
    match args.0.first().map(String::as_str) {
        Some("probes") => {
            for (name, (value, unit)) in run_probes() {
                println!("{name:<40} {value:>16.4} {unit}");
            }
            Ok(0)
        }
        Some("spread") => {
            check_checkout()?;
            let seeds = args.parsed("--seeds")?.unwrap_or(10);
            let seconds = positive(args.parsed("--seconds")?.unwrap_or(RUN_SECONDS))?;
            let workloads = args.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            Ok(suite::run_spread(&workloads, seeds, seconds))
        }
        Some("all") => {
            check_checkout()?;
            let seed = args.parsed("--seed")?.unwrap_or(run::PINNED_SEED);
            let seconds = positive(args.parsed("--seconds")?.unwrap_or(RUN_SECONDS))?;
            let workloads = args.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            let default_out = format!("{OUT_DIR}/results.json");
            let out = args.flag("--out").unwrap_or(&default_out);
            Ok(suite::run_all(&workloads, seed, seconds, out))
        }
        _ => {
            let workload = args.workload()?.ok_or(USAGE)?;
            let seed: u64 = args.parsed("--seed")?.ok_or(USAGE)?;
            let seconds = positive(args.parsed("--seconds")?.ok_or(USAGE)?)?;
            let trace = match args.flag("--trace") {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(USAGE.into()),
            };
            check_checkout()?;
            let started = std::time::Instant::now();
            let result = if trace {
                run::run_layers(workload, seed, seconds)
            } else {
                run::run_end_to_end(workload, seed, seconds)
            };
            for (name, (value, unit)) in &result.metrics {
                println!("{name:<40} {value:>16.4} {unit}");
            }
            if let Some(doc) = &result.trace {
                let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
                match std::fs::create_dir_all(OUT_DIR)
                    .and_then(|()| std::fs::write(&path, doc.render()))
                {
                    Ok(()) => println!("# trace_file: \"{path}\""),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
            println!("# wall_s: {:.1}", started.elapsed().as_secs_f64());
            for (key, note) in &result.notes {
                println!("# {key}: {}", note.render());
            }
            println!("{}", result.to_line());
            Ok(0)
        }
    }
}

fn positive(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 {
        Ok(seconds)
    } else {
        Err("--seconds must be a positive number".into())
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => ExitCode::from(code as u8),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
