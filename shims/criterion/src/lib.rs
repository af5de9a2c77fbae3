//! Offline shim for the slice of `criterion` this workspace uses:
//! benchmark groups, `sample_size`, `measurement_time`,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, `Bencher::iter`,
//! and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is a straightforward wall-clock mean over `sample_size`
//! samples (each sample auto-scaled to run for roughly
//! `measurement_time / sample_size`), printed one line per benchmark. No
//! statistical analysis, HTML reports, or baseline comparison — just
//! enough to run `cargo bench` offline and eyeball relative cost.
//!
//! Like real criterion, `cargo bench -- --test` runs every benchmark
//! exactly once without measuring — the smoke mode CI uses to catch bench
//! bit-rot cheaply.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    /// `cargo bench -- --test`: run each benchmark once, skip measuring.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let test_mode = self.test_mode;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
            test_mode,
        }
    }

    /// Benchmarks a function outside of any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (sample_size, measurement_time) = (self.sample_size, self.measurement_time);
        if self.test_mode {
            run_once(&id.to_string(), f);
        } else {
            run_benchmark(&id.to_string(), sample_size, measurement_time, f);
        }
        self
    }
}

/// A two-part benchmark id (`function/parameter`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter label.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Creates an id from a parameter label only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// A named collection of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    test_mode: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the wall-clock budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        if self.test_mode {
            run_once(&full, |b| f(b));
        } else {
            run_benchmark(&full, self.sample_size, self.measurement_time, |b| f(b));
        }
        self
    }

    /// Benchmarks `f` under `id` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        if self.test_mode {
            run_once(&full, |b| f(b, input));
        } else {
            run_benchmark(&full, self.sample_size, self.measurement_time, |b| {
                f(b, input)
            });
        }
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timer handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`.
    #[expect(
        clippy::disallowed_methods,
        reason = "a benchmark harness measures host time; nothing it times runs on a virtual clock's schedule"
    )]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// `--test` smoke mode: execute the benchmark body once, unmeasured.
fn run_once<F>(name: &str, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    println!("{name:<50} test: ok");
}

fn run_benchmark<F>(name: &str, sample_size: usize, measurement_time: Duration, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Calibrate: time one iteration to pick a per-sample iteration count
    // that fits the budget.
    let mut calib = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut calib);
    let per_iter = calib.elapsed.max(Duration::from_nanos(1));
    let budget_per_sample = measurement_time
        .checked_div(sample_size as u32)
        .unwrap_or(Duration::from_millis(100));
    let iters = (budget_per_sample.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut total = Duration::ZERO;
    let mut total_iters = 0u64;
    let mut min = Duration::MAX;
    for _ in 0..sample_size {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per = b.elapsed.checked_div(iters as u32).unwrap_or(b.elapsed);
        min = min.min(per);
        total += b.elapsed;
        total_iters += iters;
    }
    let mean = total
        .checked_div(total_iters.min(u32::MAX as u64) as u32)
        .unwrap_or(Duration::ZERO);
    println!(
        "{name:<50} mean {:>12?}  min {:>12?}  ({sample_size} samples x {iters} iters)",
        mean, min
    );
}

/// Declares a function that runs the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_example(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.measurement_time(Duration::from_millis(30));
        group.bench_with_input(BenchmarkId::new("sum", 100), &100u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        group.finish();
    }

    criterion_group!(benches, bench_example);

    #[test]
    fn group_runs_to_completion() {
        benches();
    }
}
