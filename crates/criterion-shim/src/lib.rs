//! A minimal, dependency-free drop-in for the subset of the Criterion API the
//! workspace benches use. The real `criterion` crate cannot be fetched in
//! offline build environments, so this local package (named `criterion`)
//! keeps `cargo bench` working everywhere: same macros, same `Bencher::iter`
//! protocol, wall-clock measurement with warm-up and multiple samples, and a
//! `group/name  time: [low mean high]` output line per benchmark.
//!
//! It intentionally implements nothing else: no plots, no regression
//! analysis, no HTML reports. Swap the path dependency back to crates.io
//! `criterion` when network access is available; no bench source changes are
//! needed.
//!
//! When the `BENCH_JSON` environment variable names a file, every benchmark
//! additionally appends one machine-readable JSON line to it:
//! `{"id":"group/name","low_ns":L,"mean_ns":M,"high_ns":H}`. CI uses this to
//! collect results across bench binaries into one artifact and gate
//! regressions against a committed baseline (see `bench_gate` in
//! `crates/bench`).

#![forbid(unsafe_code)]

use std::fmt;
use std::hint;
use std::time::{Duration, Instant};

/// Re-export-compatible `black_box`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Target total measurement time per benchmark.
const TARGET_TOTAL: Duration = Duration::from_millis(400);
/// Warm-up time before sampling.
const WARMUP: Duration = Duration::from_millis(100);

/// Benchmark identifier composed of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `function/parameter`.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: function.to_string(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// Anything usable as a benchmark name: `&str` or [`BenchmarkId`].
pub trait IntoBenchmarkName {
    /// The rendered benchmark name.
    fn into_name(self) -> String;
}

impl IntoBenchmarkName for &str {
    fn into_name(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkName for String {
    fn into_name(self) -> String {
        self
    }
}

impl IntoBenchmarkName for BenchmarkId {
    fn into_name(self) -> String {
        self.to_string()
    }
}

/// Timing driver handed to the closure of `bench_function`.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` repeatedly: a short warm-up, then timed samples until the
    /// target measurement budget is spent.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up and per-iteration cost estimate.
        let warm_start = Instant::now();
        let mut iters: u64 = 0;
        while warm_start.elapsed() < WARMUP {
            black_box(f());
            iters += 1;
        }
        let per_iter = warm_start.elapsed() / iters.max(1) as u32;
        // Aim for ~50 samples within the budget, at least 10.
        let sample_count = 50usize;
        let budget_per_sample = TARGET_TOTAL / sample_count as u32;
        let iters_per_sample = if per_iter.is_zero() {
            1000
        } else {
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u32
        };
        self.samples.clear();
        let bench_start = Instant::now();
        while self.samples.len() < sample_count && bench_start.elapsed() < TARGET_TOTAL * 2 {
            let s = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            self.samples.push(s.elapsed() / iters_per_sample);
        }
        if self.samples.is_empty() {
            let s = Instant::now();
            black_box(f());
            self.samples.push(s.elapsed());
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{} ns", ns)
    } else if ns < 1_000_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn report(group: &str, name: &str, samples: &[Duration]) {
    let mut sorted = samples.to_vec();
    sorted.sort();
    let low = sorted[0];
    let high = sorted[sorted.len() - 1];
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    println!(
        "{:<60} time: [{} {} {}]",
        format!("{}/{}", group, name),
        fmt_duration(low),
        fmt_duration(mean),
        fmt_duration(high)
    );
    append_json_line(group, name, low, mean, high);
}

/// Appends one JSON line per benchmark to the file named by `BENCH_JSON`
/// (append mode, so several bench binaries can share one results file).
fn append_json_line(group: &str, name: &str, low: Duration, mean: Duration, high: Duration) {
    use std::io::Write;
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!(
        "{{\"id\":\"{}/{}\",\"low_ns\":{},\"mean_ns\":{},\"high_ns\":{}}}\n",
        group,
        name,
        low.as_nanos(),
        mean.as_nanos(),
        high.as_nanos()
    );
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path);
    match file {
        Ok(mut f) => {
            let _ = f.write_all(line.as_bytes());
        }
        Err(e) => eprintln!("BENCH_JSON: cannot open {}: {}", path, e),
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; sampling is time-budgeted here.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<N: IntoBenchmarkName, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b);
        report(&self.name, &name.into_name(), &b.samples);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<N: IntoBenchmarkName, I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        name: N,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b, input);
        report(&self.name, &name.into_name(), &b.samples);
        self
    }

    /// Ends the group (no-op; present for API compatibility).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a benchmark group.
    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b);
        report("bench", name, &b.samples);
        self
    }
}

/// Declares a group-runner function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main`, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
