//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this workspace ships a
//! small wall-clock benchmark harness with criterion's API shape:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId`],
//! [`Throughput`] and `criterion_group!` / `criterion_main!`. Statistics
//! are deliberately simple — warm up, run a fixed measurement budget,
//! report mean ns/iter (and throughput when declared) on stdout. Good
//! enough to compare implementations by orders of magnitude; not a
//! replacement for criterion's statistics.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            measurement_time: Duration::from_millis(300),
            warm_up_time: Duration::from_millis(30),
        }
    }
}

impl Criterion {
    /// Accepted for API compatibility; command-line parsing is a no-op.
    pub fn configure_from_args(self) -> Criterion {
        self
    }

    /// Set the measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement_time = d;
        self
    }

    /// Set the warm-up budget per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up_time = d;
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.into_benchmark_id().label;
        run_one(
            &label,
            self.warm_up_time,
            self.measurement_time,
            None,
            &mut f,
        );
        self
    }
}

/// A named group sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the measurement budget is the
    /// driver's, whatever the sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declare the amount of work one iteration performs.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().label);
        run_one(
            &label,
            self._criterion.warm_up_time,
            self._criterion.measurement_time,
            self.throughput,
            &mut f,
        );
        self
    }

    /// Run a benchmark parameterized by an input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Finish the group (reports are already printed per benchmark).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; [`Bencher::iter`] runs the measurement.
pub struct Bencher {
    mode: BencherMode,
    /// total duration and iteration count accumulated by `iter`
    result: Option<(Duration, u64)>,
}

enum BencherMode {
    /// run the closure a fixed number of times, timing the whole batch
    Measure(u64),
}

impl Bencher {
    /// Time the routine. May be called once per closure invocation.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        match self.mode {
            BencherMode::Measure(iters) => {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                self.result = Some((start.elapsed(), iters));
            }
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    warm_up: Duration,
    budget: Duration,
    throughput: Option<Throughput>,
    f: &mut F,
) {
    // Warm-up and calibration: run single iterations until the warm-up
    // budget is spent, to estimate the per-iteration cost.
    let warm_start = Instant::now();
    let mut timed = Duration::ZERO;
    let mut calibration_iters: u64 = 0;
    while warm_start.elapsed() < warm_up || calibration_iters == 0 {
        let mut b = Bencher {
            mode: BencherMode::Measure(1),
            result: None,
        };
        f(&mut b);
        if let Some((d, n)) = b.result {
            timed += d;
            calibration_iters += n;
        } else {
            // closure never called iter(); nothing to measure
            println!("{label}: no measurement (Bencher::iter not called)");
            return;
        }
    }
    let per_iter = (timed.as_nanos() as f64 / calibration_iters as f64).max(1.0);
    // Size the measured batch to fit the budget.
    let iters = ((budget.as_nanos() as f64 / per_iter).ceil() as u64).clamp(1, 10_000_000);
    let mut b = Bencher {
        mode: BencherMode::Measure(iters),
        result: None,
    };
    f(&mut b);
    let (elapsed, n) = b.result.expect("iter was called during calibration");
    let ns = elapsed.as_nanos() as f64 / n as f64;
    let rate = throughput.map_or(String::new(), |Throughput::Elements(e)| {
        format!("  [{:.3e} elem/s]", e as f64 * 1e9 / ns)
    });
    println!("{label}: {} /iter ({n} iters){rate}", fmt_ns(ns));
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A function/parameter benchmark identifier displayed as `func/param`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Identify a benchmark by function name and parameter.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }
}

/// Conversion into [`BenchmarkId`] (strings and ids both accepted).
pub trait IntoBenchmarkId {
    /// Perform the conversion.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            label: self.to_string(),
        }
    }
}

/// Units of work per iteration, for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Define a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` from group-runner functions.
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
    fn measures_and_reports() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("noop", 1), |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &n| b.iter(|| n * n));
        group.finish();
        c.bench_function("top-level", |b| b.iter(|| black_box(2) * 2));
    }
}
