//! Offline stand-in for the `criterion` crate (no network in this build
//! environment). Provides the API subset CAPRA's benches use — benchmark
//! groups, `bench_function` / `bench_with_input`, throughput annotation,
//! [`criterion_group!`] / [`criterion_main!`] — over a simple wall-clock
//! harness: calibrate a batch size, run timed batches, report the median.
//!
//! One environment knob: `CAPRA_BENCH_BUDGET_MS`, the per-benchmark
//! measurement budget (default 300 ms; CI's smoke run sets it low).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

/// Throughput annotation (affects the printed rate only).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }

    /// Just the parameter (for single-function groups).
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self(parameter.to_string())
    }
}

/// Conversion into a benchmark id (accepts `&str` and [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// The id string.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.0
    }
}

/// Passed to the closure under measurement; call [`Bencher::iter`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` invocations of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn budget() -> Duration {
    let ms = std::env::var("CAPRA_BENCH_BUDGET_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

/// Runs one benchmark: calibrate, measure, report.
fn run_bench(name: &str, throughput: Option<Throughput>, mut run: impl FnMut(&mut Bencher)) {
    let budget = budget();
    // Calibrate: grow the batch until one batch costs ≥ 1/20 of the budget.
    let mut iters: u64 = 1;
    let per_iter_estimate = loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        run(&mut b);
        if b.elapsed * 20 >= budget || iters >= 1 << 30 {
            break b.elapsed.as_secs_f64() / iters as f64;
        }
        iters = iters.saturating_mul(4);
    };
    // Measure: as many batches as fit in the budget (at least 3), median.
    let batches = ((budget.as_secs_f64() / (per_iter_estimate * iters as f64).max(1e-9)) as usize)
        .clamp(3, 25);
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            run(&mut b);
            b.elapsed.as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let ns = median * 1e9;
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!("  {:>12.0} elem/s", n as f64 / median),
        Some(Throughput::Bytes(n)) => format!("  {:>12.0} B/s", n as f64 / median),
        None => String::new(),
    };
    println!("bench: {name:<48} {ns:>14.1} ns/iter  ({iters} iters × {batches} batches){rate}");
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benches.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; the shim sizes batches by wall clock.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<I: IntoBenchmarkId>(
        &mut self,
        id: I,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into_id());
        run_bench(&name, self.throughput, f);
        self
    }

    /// Benchmarks `f` with a borrowed input under `id`.
    pub fn bench_with_input<I: IntoBenchmarkId, T: ?Sized>(
        &mut self,
        id: I,
        input: &T,
        mut f: impl FnMut(&mut Bencher, &T),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into_id());
        run_bench(&name, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group (printing is immediate; nothing to flush).
    pub fn finish(&mut self) {}
}

impl Criterion {
    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function(
        &mut self,
        id: impl IntoBenchmarkId,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_bench(&id.into_id(), None, f);
        self
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
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

    #[test]
    fn harness_measures_and_reports() {
        std::env::set_var("CAPRA_BENCH_BUDGET_MS", "5");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(10));
        group.bench_function("spin", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        group.bench_with_input(BenchmarkId::new("param", 3), &3u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>());
        });
        group.finish();
    }
}
