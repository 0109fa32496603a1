//! End-to-end build and serve benchmark for `hpcc-repro`.
//!
//! Three seeded, closed-loop workloads drive the program through its public
//! API and check every output:
//!
//! * [`cold_build`] — the paper's workflow on a fresh node: build → push →
//!   pull → launch, one pipeline at a time, nothing memoized;
//! * [`ci_rebuild`] — a shared-facility CI stream of commit waves through
//!   the multi-tenant build farm with the instruction cache on;
//! * [`serve_image`] — two wire-protocol connections reading (`ro`) and
//!   writing (`rw`) one built image.
//!
//! End-to-end metrics come from untraced runs; a traced run of the same
//! seed reports per-layer self times and counts (see [`trace`]). End-to-end
//! times are scaled to a host of fixed speed by a probe run before each
//! timed unit (see [`calib`]).

pub mod calib;
pub mod ci_rebuild;
pub mod cold_build;
pub mod gen;
pub mod serve_image;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = ["cold_build", "ci_rebuild", "serve_image"];

/// End-to-end metrics and units, printed by every untraced run. What a
/// unit of work is depends on the workload; see `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
];

/// Per-layer metrics and units, printed by every traced run. A layer a
/// workload leaves idle reads 0. Times are per build (`cold_build`,
/// `ci_rebuild`) or per request (`serve_image`); counts are per build
/// unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("core.frontend.us", "us"),
    ("core.frontend.allocs", "count"),
    ("core.plan.us", "us"),
    ("core.plan.allocs", "count"),
    ("core.base_env.us", "us"),
    ("core.base_env.allocs", "count"),
    ("core.base_env.derivations", "count"),
    ("core.execute.us", "us"),
    ("core.execute.allocs", "count"),
    ("core.execute.instructions", "count"),
    ("core.execute.force_modified", "count"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.deduped", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("vfs.cow_detach_nodes", "count"),
    ("image.pack.us", "us"),
    ("image.pack.bytes", "bytes"),
    ("image.pack.mib_per_s", "MiB/s"),
    ("image.pack.allocs", "count"),
    ("image.registry.push_us", "us"),
    ("image.registry.pull_us", "us"),
    ("runtime.launch.us", "us"),
    ("runtime.launch.allocs", "count"),
    ("farm.submit_us", "us"),
    ("farm.queue_wait_ms", "ms"),
    ("farm.build_ms", "ms"),
    ("farm.rejected", "count"),
    ("fuseproto.client.ns_per_op", "ns"),
    ("fuseproto.client.allocs_per_op", "count"),
    ("fuseproto.transport.ns_per_op", "ns"),
    ("fuseproto.transport.bytes_per_op", "bytes"),
    ("fuseproto.server.ns_per_op", "ns"),
    ("fuseproto.server.allocs_per_op", "count"),
    ("fuseproto.server.replayed", "count"),
    ("fuseproto.server.shed", "count"),
    ("fuseproto.server.protocol_errors", "count"),
    ("fuseproto.dispatch.lookup_ns", "ns"),
    ("fuseproto.dispatch.getattr_ns", "ns"),
    ("fuseproto.dispatch.open_ns", "ns"),
    ("fuseproto.dispatch.read_ns", "ns"),
    ("fuseproto.dispatch.readdir_ns", "ns"),
    ("fuseproto.dispatch.create_ns", "ns"),
    ("fuseproto.dispatch.write_ns", "ns"),
    ("fuseproto.dispatch.unlink_ns", "ns"),
    ("fuseproto.dispatch.allocs_per_op", "count"),
    ("fuseproto.dispatch.open_handles_end", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Record spans (per-layer metrics) instead of end-to-end metrics.
    pub traced: bool,
    /// Shrink inputs for a quick smoke run.
    pub tiny: bool,
}

impl Config {
    /// The measured duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Output checks of one run: failures are counted per unit of work, and
/// the first few messages are kept for the error report.
#[derive(Debug, Default)]
pub struct Checks {
    /// Units attempted.
    pub attempted: u64,
    /// Units whose output was wrong or whose operation failed.
    pub failed: u64,
    /// Checks that failed outside any unit (setup, end of run).
    pub broken: u64,
    /// First failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one unit's outcome.
    pub fn unit(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.note(message);
        }
    }

    /// Records a check outside any unit.
    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.broken += 1;
            self.note(message());
        }
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken == 0 && self.attempted > 0
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Metrics by name: end-to-end ones when untraced, per-layer ones when
    /// traced (except `trace.overhead_ratio`, which needs both runs).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Mean time of one unit of work on one load thread, in ns — the base
    /// of `trace.overhead_ratio`.
    pub mean_unit_ns: f64,
}

/// Load threads a workload may run: one per available core.
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload.
pub fn run_workload(name: &str, cfg: &Config) -> Option<Outcome> {
    match name {
        "cold_build" => Some(cold_build::run(cfg)),
        "ci_rebuild" => Some(ci_rebuild::run(cfg)),
        "serve_image" => Some(serve_image::run(cfg)),
        _ => None,
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result, and
/// returns it with the median set-up time in seconds. Each repeat is scaled
/// to the reference host by a probe run right before it on `threads`
/// threads, with the workload's speed exponent (see [`calib`]).
pub fn timed_setup<S>(threads: usize, exponent: f64, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let probe = calib::probe_ns_on(threads);
        let start = Instant::now();
        last = Some(setup());
        times.push(calib::scale(
            start.elapsed().as_nanos() as u64,
            probe,
            exponent,
        ));
    }
    times.sort_unstable();
    (
        last.expect("at least one set-up"),
        times[times.len() / 2] as f64 / 1e9,
    )
}

/// Nearest-rank percentile `q` (0..=1) of `samples`, sorting them.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Units of work per second in the median batch of `(units, ns)` batches,
/// `ns` scaled to the reference host: a median, so a burst of host noise in
/// a few batches does not move it.
pub fn median_rate(batches: &[(u64, u64)]) -> f64 {
    let mut rates: Vec<f64> = batches
        .iter()
        .map(|&(units, ns)| units as f64 * 1e9 / ns.max(1) as f64)
        .collect();
    if rates.is_empty() {
        return 0.0;
    }
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// The end-to-end metrics every untraced run reports; `ops_per_s` and the
/// latencies are scaled to the reference host.
pub fn end_to_end(
    setup_s: f64,
    ops_per_s: f64,
    latencies_ns: &mut [u64],
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("rss_peak_mib", rss_peak_mib());
    m.insert("ops_per_s", ops_per_s);
    m.insert("p50_us", percentile(latencies_ns, 0.50) as f64 / 1e3);
    m
}

/// Per-layer metrics with every [`PER_LAYER`] name present, 0 by default.
pub fn per_layer_defaults() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of the layers inside root spans over the roots' total time.
pub fn layer_sum_ratio(totals: &[trace::LayerTotals; trace::LAYERS]) -> f64 {
    let (mut layers, mut roots) = (0u64, 0u64);
    for layer in trace::Layer::ALL {
        let t = totals[layer as usize];
        if layer.is_root() {
            roots += t.total_ns;
        } else {
            layers += t.rooted_self_ns;
        }
    }
    ratio(layers as f64, roots as f64)
}

/// Where traced runs write their spans: under the Cargo target directory
/// (`CARGO_TARGET_DIR`, else `target` in the working directory).
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    target
        .join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}
