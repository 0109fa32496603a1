//! CI bench-regression gate.
//!
//! Compares a freshly measured bench results file (JSON lines written by the
//! criterion shim when `BENCH_JSON` is set) against a committed baseline and
//! fails — exit code 1 — if any benchmark named in the baseline regressed by
//! more than the allowed ratio (default 3×, generous enough to absorb
//! runner-to-runner noise while still catching an asymptotic regression like
//! the O(instructions × inodes) snapshot-store detach this gate was built
//! for, PERF.md §5).
//!
//! Usage: `bench_gate <current.json> <baseline.json> [max_ratio]`
//!
//! Only benchmarks present in the baseline are gated; extra entries in the
//! current results are informational. A baseline entry missing from the
//! current results fails the gate (the bench silently disappearing is itself
//! a regression).
//!
//! **Relative mode** — `bench_gate --relative <current.json> [max_ratio]` —
//! is the runner-variance-proof fallback (ROADMAP): instead of absolute
//! times against a committed baseline, it compares benches from the *same
//! run*, so a slow runner slows both sides identically and the ratio only
//! moves when one code path regresses relative to the other. Six checks,
//! one row each of the `CHECKS` table (numerator bench, denominator bench,
//! per-unit divisor, bound, failure message):
//!
//! 1. **Snapshot store**: `snapshot_store/many_tiny_run` normalized to
//!    per-instruction time (the workload has
//!    [`hpcc_bench::MANY_TINY_INSTRUCTIONS`] instructions) against
//!    `cached_rebuild/centos7_fully_cached`, gated at `max_ratio`.
//! 2. **Concurrent serving** (ISSUE 6): `shared_read/cycle_batch_8threads`
//!    normalized to per-cycle time
//!    ([`hpcc_bench::SHARED_READ_GATED_THREADS`] threads ×
//!    [`hpcc_bench::SHARED_READ_CYCLES_PER_THREAD`] cycles per iteration)
//!    against the same-run `shared_read/per_cycle_1thread` figure, gated at
//!    a fixed 2× — with 8 readers over one shared image the mean per-op
//!    cost must stay within 2× of the single-thread per-op cost. Because
//!    the batch is wall-clock over *total* cycles, a single-core runner
//!    (which serializes the threads) still satisfies the bound unless the
//!    read path actually contends.
//! 3. **Farm throughput** (ISSUE 7):
//!    `farm/throughput_256x8_full_overlap` normalized to per-build time
//!    ([`hpcc_bench::FARM_GATED_BUILDS`] builds per iteration) against the
//!    same-run `farm/serial_single_build` figure, gated at a fixed 0.75× —
//!    the ratio must stay *below* one: at 100% overlap cross-tenant dedup
//!    collapses 256 builds to one miss set plus cached adoptions, so a
//!    farm build must cost well under a standalone build. The bound is
//!    runner-speed invariant for the same reason as the other checks, and
//!    a single-core runner (which serializes the workers) still passes
//!    because dedup removes the work itself, not just the wall-clock.
//! 4. **Wire loop** (ISSUE 8): `wire/roundtrip_lookup_batch` against the
//!    same-run `wire/direct_lookup_batch` figure, gated at a fixed 3.5× —
//!    both batches run [`hpcc_bench::WIRE_OPS_PER_BATCH`] identical lookups
//!    through the same `Dispatch` session, one side as full wire round
//!    trips (encode → in-memory transport → decode → dispatch → reply frame
//!    → decode), one side as direct calls, so the ratio is the wire
//!    layer's own per-op overhead and nothing else. Same-op-count batches
//!    mean the ratio needs no normalization constant. The bound was 3×
//!    through ISSUE 8; ISSUE 9's per-frame integrity trailer (checksummed
//!    on encode and verified on decode, both directions — the price of
//!    turning in-flight corruption into a typed, retryable error instead
//!    of a silent misparse) and reply cache add a deliberate ~0.3× of a
//!    direct dispatch per round trip, so the bound moved to 3.5× to keep
//!    the same headroom over the measured ratio.
//! 5. **Retry policy** (ISSUE 9): `wire/policy_lookup_batch` against the
//!    same-run `wire/roundtrip_lookup_batch` figure, gated at a fixed
//!    1.2× — the same lookups in the same lockstep layout, one side driven
//!    through `Client::call_with` with the default `RetryPolicy`, one
//!    side as bare round trips. On a fault-free transport every reply
//!    arrives on the first receive, so the policy's deadline/backoff/jitter
//!    machinery must stay entirely off the measured path; 1.2× is the
//!    bound on the bookkeeping it is allowed to add per call.
//! 6. **Wire read**: `wire/roundtrip_read32k_batch` against the same-run
//!    `wire/direct_read32k_batch` figure, gated at a fixed 60×. Both
//!    batches run [`hpcc_bench::WIRE_OPS_PER_BATCH`] reads of the same
//!    32 KiB; the direct read only windows the file, so the ratio is what
//!    the wire charges for a payload: one copy into the frame, one through
//!    the transport, and a checksum on each end. Six measured runs put the
//!    ratio at 33–46× (median 35×), and at 45–57× (median 51×) while a
//!    read also copied into the reply cache and out of the client's
//!    receive buffer (PERF.md §16). The bound keeps 1.3× headroom over the
//!    worst measured run, because the direct batch is short enough for
//!    host noise to move the ratio by a third.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use hpcc_bench::{
    FARM_GATED_BUILDS, MANY_TINY_INSTRUCTIONS, SHARED_READ_CYCLES_PER_THREAD,
    SHARED_READ_GATED_THREADS,
};

/// One same-run relative check: the `numerator` bench's mean divided by
/// `divisor` (the units it runs per iteration), over the same-run
/// `denominator` bench's mean, must not exceed the bound.
struct Check {
    numerator: &'static str,
    denominator: &'static str,
    divisor: usize,
    /// The bound; `None` takes the command line's `max_ratio`.
    bound: Option<f64>,
    /// What a ratio over the bound means.
    failure: &'static str,
}

impl Check {
    /// The check's ratio in `results`; `None` if either bench is missing.
    fn ratio(&self, results: &BTreeMap<String, f64>) -> Option<f64> {
        let numerator = results.get(self.numerator)?;
        let denominator = results.get(self.denominator)?;
        Some((numerator / self.divisor as f64) / denominator.max(1.0))
    }
}

/// The relative gate, one row per check (see the module docs).
const CHECKS: [Check; 6] = [
    Check {
        numerator: "snapshot_store/many_tiny_run",
        denominator: "cached_rebuild/centos7_fully_cached",
        divisor: MANY_TINY_INSTRUCTIONS,
        bound: None,
        failure: "per-instruction snapshot-store time regressed past the cached-rebuild reference",
    },
    Check {
        numerator: "shared_read/cycle_batch_8threads",
        denominator: "shared_read/per_cycle_1thread",
        divisor: SHARED_READ_GATED_THREADS * SHARED_READ_CYCLES_PER_THREAD,
        bound: Some(2.0),
        failure: "contended shared-read per-cycle cost exceeded the single-thread figure",
    },
    Check {
        numerator: "farm/throughput_256x8_full_overlap",
        denominator: "farm/serial_single_build",
        divisor: FARM_GATED_BUILDS,
        bound: Some(0.75),
        failure: "full-overlap farm per-build cost exceeded the standalone single-build figure (cross-tenant dedup regressed)",
    },
    Check {
        numerator: "wire/roundtrip_lookup_batch",
        denominator: "wire/direct_lookup_batch",
        divisor: 1,
        bound: Some(3.5),
        failure: "wire round-trip per-op cost exceeded the same-run direct-dispatch figure",
    },
    Check {
        numerator: "wire/policy_lookup_batch",
        denominator: "wire/roundtrip_lookup_batch",
        divisor: 1,
        bound: Some(1.2),
        failure: "policy-wrapped fault-free round trips exceeded the bare call figure (retry machinery leaked onto the fast path)",
    },
    Check {
        numerator: "wire/roundtrip_read32k_batch",
        denominator: "wire/direct_read32k_batch",
        divisor: 1,
        bound: Some(60.0),
        failure: "wire round-trip 32 KiB read cost exceeded its bound over the same-run direct read (a payload copy came back)",
    },
];

/// Runs the relative gate (all same-run checks); returns the process exit
/// code.
fn run_relative(current_path: &str, max_ratio: f64) -> ExitCode {
    let text = match std::fs::read_to_string(current_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {}", current_path, e);
            return ExitCode::FAILURE;
        }
    };
    let current = parse_results(&text, current_path);
    let mut failed = false;
    for check in &CHECKS {
        let bound = check.bound.unwrap_or(max_ratio);
        let Some(ratio) = check.ratio(&current) else {
            eprintln!(
                "bench_gate: relative mode needs both {} and {} in {}",
                check.numerator, check.denominator, current_path
            );
            failed = true;
            continue;
        };
        println!(
            "relative gate: ({} / {}) / {} = {:.2} (max {:.2})",
            check.numerator, check.divisor, check.denominator, ratio, bound
        );
        if ratio > bound {
            eprintln!(
                "bench_gate: FAILED — {} ({:.2} > {:.2})",
                check.failure, ratio, bound
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("bench_gate: ok (relative)");
        ExitCode::SUCCESS
    }
}

/// One parsed result line: benchmark id -> mean nanoseconds.
fn parse_results(text: &str, source: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match (json_str_field(line, "id"), json_num_field(line, "mean_ns")) {
            (Some(id), Some(mean)) => {
                out.insert(id, mean);
            }
            _ => eprintln!(
                "bench_gate: {}: skipping unparseable line: {}",
                source, line
            ),
        }
    }
    out
}

/// Extracts `"key":"value"` from a flat JSON object line.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{}\":\"", key);
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key":number` from a flat JSON object line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{}\":", key);
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--relative") {
        let current = match args.get(2) {
            Some(c) => c,
            None => {
                eprintln!("usage: bench_gate --relative <current.json> [max_ratio]");
                return ExitCode::FAILURE;
            }
        };
        let max_ratio: f64 = args
            .get(3)
            .map(|s| s.parse().expect("max_ratio must be a number"))
            .unwrap_or(3.0);
        return run_relative(current, max_ratio);
    }
    if args.len() < 3 {
        eprintln!("usage: bench_gate <current.json> <baseline.json> [max_ratio]");
        eprintln!("       bench_gate --relative <current.json> [max_ratio]");
        return ExitCode::FAILURE;
    }
    let max_ratio: f64 = args
        .get(3)
        .map(|s| s.parse().expect("max_ratio must be a number"))
        .unwrap_or(3.0);
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {}", path, e);
            std::process::exit(1);
        }
    };
    let current = parse_results(&read(&args[1]), &args[1]);
    let baseline = parse_results(&read(&args[2]), &args[2]);
    if baseline.is_empty() {
        eprintln!("bench_gate: baseline {} has no entries", args[2]);
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    println!(
        "{:<50} {:>12} {:>12} {:>8}  verdict (gate: {}x)",
        "benchmark", "baseline_ns", "current_ns", "ratio", max_ratio
    );
    for (id, base_mean) in &baseline {
        match current.get(id) {
            None => {
                println!(
                    "{:<50} {:>12.0} {:>12} {:>8}  MISSING",
                    id, base_mean, "-", "-"
                );
                failed = true;
            }
            Some(cur_mean) => {
                let ratio = cur_mean / base_mean.max(1.0);
                let verdict = if ratio > max_ratio { "REGRESSED" } else { "ok" };
                println!(
                    "{:<50} {:>12.0} {:>12.0} {:>8.2}  {}",
                    id, base_mean, cur_mean, ratio, verdict
                );
                if ratio > max_ratio {
                    failed = true;
                }
            }
        }
    }
    for id in current.keys() {
        if !baseline.contains_key(id) {
            println!(
                "{:<50} {:>12} {:>12.0} {:>8}  (ungated)",
                id, "-", current[id], "-"
            );
        }
    }
    if failed {
        eprintln!(
            "bench_gate: FAILED — regression over {}x (or missing bench) detected",
            max_ratio
        );
        ExitCode::FAILURE
    } else {
        println!("bench_gate: ok");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The checks under the names they had as hand-written functions.

    /// A check's fixed bound.
    const fn fixed(check: &Check) -> f64 {
        match check.bound {
            Some(bound) => bound,
            None => panic!("the check takes the command-line bound"),
        }
    }

    const RELATIVE_WORKLOAD: &str = CHECKS[0].numerator;
    const RELATIVE_REFERENCE: &str = CHECKS[0].denominator;
    const SHARED_READ_BATCH: &str = CHECKS[1].numerator;
    const SHARED_READ_SINGLE: &str = CHECKS[1].denominator;
    const SHARED_READ_MAX_RATIO: f64 = fixed(&CHECKS[1]);
    const FARM_BATCH: &str = CHECKS[2].numerator;
    const FARM_SINGLE: &str = CHECKS[2].denominator;
    const FARM_MAX_RATIO: f64 = fixed(&CHECKS[2]);
    const WIRE_ROUNDTRIP: &str = CHECKS[3].numerator;
    const WIRE_DIRECT: &str = CHECKS[3].denominator;
    const WIRE_MAX_RATIO: f64 = fixed(&CHECKS[3]);
    const POLICY_ROUNDTRIP: &str = CHECKS[4].numerator;
    const POLICY_BARE: &str = CHECKS[4].denominator;
    const POLICY_MAX_RATIO: f64 = fixed(&CHECKS[4]);
    const READ_ROUNDTRIP: &str = CHECKS[5].numerator;
    const READ_DIRECT: &str = CHECKS[5].denominator;
    const READ_MAX_RATIO: f64 = fixed(&CHECKS[5]);

    fn relative_ratio(results: &BTreeMap<String, f64>) -> Option<f64> {
        CHECKS[0].ratio(results)
    }

    fn shared_read_ratio(results: &BTreeMap<String, f64>) -> Option<f64> {
        CHECKS[1].ratio(results)
    }

    fn farm_ratio(results: &BTreeMap<String, f64>) -> Option<f64> {
        CHECKS[2].ratio(results)
    }

    fn wire_ratio(results: &BTreeMap<String, f64>) -> Option<f64> {
        CHECKS[3].ratio(results)
    }

    fn policy_ratio(results: &BTreeMap<String, f64>) -> Option<f64> {
        CHECKS[4].ratio(results)
    }

    fn read_ratio(results: &BTreeMap<String, f64>) -> Option<f64> {
        CHECKS[5].ratio(results)
    }

    fn results(workload_ns: f64, reference_ns: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(RELATIVE_WORKLOAD.to_string(), workload_ns);
        m.insert(RELATIVE_REFERENCE.to_string(), reference_ns);
        m
    }

    #[test]
    fn relative_ratio_normalizes_per_instruction() {
        // 64 instructions at exactly the cached-rebuild time each → 1.0.
        let r = results(MANY_TINY_INSTRUCTIONS as f64 * 10_000.0, 10_000.0);
        assert!((relative_ratio(&r).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn relative_ratio_is_runner_speed_invariant() {
        let fast = results(640_000.0, 12_000.0);
        // The same machine 5x slower: both benches scale together.
        let slow = results(5.0 * 640_000.0, 5.0 * 12_000.0);
        assert!((relative_ratio(&fast).unwrap() - relative_ratio(&slow).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn relative_ratio_requires_both_benches() {
        let mut only_one = BTreeMap::new();
        only_one.insert(RELATIVE_WORKLOAD.to_string(), 1000.0);
        assert_eq!(relative_ratio(&only_one), None);
        assert_eq!(relative_ratio(&BTreeMap::new()), None);
    }

    fn shared_results(batch_ns: f64, single_ns: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(SHARED_READ_BATCH.to_string(), batch_ns);
        m.insert(SHARED_READ_SINGLE.to_string(), single_ns);
        m
    }

    #[test]
    fn shared_read_ratio_normalizes_per_cycle() {
        // The batch costing exactly (threads × cycles) single-thread
        // cycles → perfect scaling, ratio 1.0.
        let total = (SHARED_READ_GATED_THREADS * SHARED_READ_CYCLES_PER_THREAD) as f64;
        let r = shared_results(total * 2_000.0, 2_000.0);
        assert!((shared_read_ratio(&r).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_read_ratio_is_runner_speed_invariant() {
        let fast = shared_results(9_000_000.0, 1_800.0);
        // The same machine 5x slower: both benches scale together.
        let slow = shared_results(5.0 * 9_000_000.0, 5.0 * 1_800.0);
        assert!(
            (shared_read_ratio(&fast).unwrap() - shared_read_ratio(&slow).unwrap()).abs() < 1e-9
        );
    }

    #[test]
    fn shared_read_ratio_flags_contention() {
        // A global lock on the read path would multiply per-cycle cost
        // under 8 readers; 3x the single-thread figure must trip the bound.
        let total = (SHARED_READ_GATED_THREADS * SHARED_READ_CYCLES_PER_THREAD) as f64;
        let contended = shared_results(total * 3.0 * 2_000.0, 2_000.0);
        assert!(shared_read_ratio(&contended).unwrap() > SHARED_READ_MAX_RATIO);
    }

    #[test]
    fn shared_read_ratio_requires_both_benches() {
        let mut only_one = BTreeMap::new();
        only_one.insert(SHARED_READ_BATCH.to_string(), 1000.0);
        assert_eq!(shared_read_ratio(&only_one), None);
        assert_eq!(shared_read_ratio(&BTreeMap::new()), None);
    }

    fn farm_results(batch_ns: f64, single_ns: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(FARM_BATCH.to_string(), batch_ns);
        m.insert(FARM_SINGLE.to_string(), single_ns);
        m
    }

    #[test]
    fn farm_ratio_normalizes_per_build() {
        // The batch costing exactly FARM_GATED_BUILDS standalone builds →
        // no dedup benefit at all, ratio 1.0 (which would fail the 0.75 gate).
        let r = farm_results(FARM_GATED_BUILDS as f64 * 150_000.0, 150_000.0);
        assert!((farm_ratio(&r).unwrap() - 1.0).abs() < 1e-9);
        assert!(farm_ratio(&r).unwrap() > FARM_MAX_RATIO);
    }

    #[test]
    fn farm_ratio_is_runner_speed_invariant() {
        let fast = farm_results(4_000_000.0, 150_000.0);
        // The same machine 5x slower: both benches scale together.
        let slow = farm_results(5.0 * 4_000_000.0, 5.0 * 150_000.0);
        assert!((farm_ratio(&fast).unwrap() - farm_ratio(&slow).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn farm_ratio_passes_when_dedup_wins() {
        // Dedup collapsing the batch to ~one miss set plus cheap cached
        // adoptions: per-build cost a small fraction of a standalone build.
        let r = farm_results(FARM_GATED_BUILDS as f64 * 15_000.0, 150_000.0);
        assert!(farm_ratio(&r).unwrap() < FARM_MAX_RATIO);
    }

    #[test]
    fn farm_ratio_requires_both_benches() {
        let mut only_one = BTreeMap::new();
        only_one.insert(FARM_BATCH.to_string(), 1000.0);
        assert_eq!(farm_ratio(&only_one), None);
        assert_eq!(farm_ratio(&BTreeMap::new()), None);
    }

    fn wire_results(roundtrip_ns: f64, direct_ns: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(WIRE_ROUNDTRIP.to_string(), roundtrip_ns);
        m.insert(WIRE_DIRECT.to_string(), direct_ns);
        m
    }

    #[test]
    fn wire_ratio_is_the_plain_batch_quotient() {
        // Equal op counts per batch: a round trip costing 3.2x direct is
        // within the bound, 4x is not.
        assert!((wire_ratio(&wire_results(91_200.0, 28_500.0)).unwrap() - 3.2).abs() < 1e-9);
        assert!(wire_ratio(&wire_results(91_200.0, 28_500.0)).unwrap() < WIRE_MAX_RATIO);
        assert!(wire_ratio(&wire_results(114_000.0, 28_500.0)).unwrap() > WIRE_MAX_RATIO);
    }

    #[test]
    fn wire_ratio_is_runner_speed_invariant() {
        let fast = wire_results(74_000.0, 28_500.0);
        // The same machine 5x slower: both benches scale together.
        let slow = wire_results(5.0 * 74_000.0, 5.0 * 28_500.0);
        assert!((wire_ratio(&fast).unwrap() - wire_ratio(&slow).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn wire_ratio_requires_both_benches() {
        let mut only_one = BTreeMap::new();
        only_one.insert(WIRE_ROUNDTRIP.to_string(), 1000.0);
        assert_eq!(wire_ratio(&only_one), None);
        assert_eq!(wire_ratio(&BTreeMap::new()), None);
    }

    fn policy_results(policy_ns: f64, bare_ns: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(POLICY_ROUNDTRIP.to_string(), policy_ns);
        m.insert(POLICY_BARE.to_string(), bare_ns);
        m
    }

    #[test]
    fn policy_ratio_is_the_plain_batch_quotient() {
        // Equal op counts per batch: policy calls costing 1.05x bare round
        // trips are within the bound, 1.5x is not (the retry machinery
        // leaked onto the fault-free path).
        assert!((policy_ratio(&policy_results(84_000.0, 80_000.0)).unwrap() - 1.05).abs() < 1e-9);
        assert!(policy_ratio(&policy_results(84_000.0, 80_000.0)).unwrap() < POLICY_MAX_RATIO);
        assert!(policy_ratio(&policy_results(120_000.0, 80_000.0)).unwrap() > POLICY_MAX_RATIO);
    }

    #[test]
    fn policy_ratio_is_runner_speed_invariant() {
        let fast = policy_results(84_000.0, 80_000.0);
        // The same machine 5x slower: both benches scale together.
        let slow = policy_results(5.0 * 84_000.0, 5.0 * 80_000.0);
        assert!((policy_ratio(&fast).unwrap() - policy_ratio(&slow).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn policy_ratio_requires_both_benches() {
        let mut only_one = BTreeMap::new();
        only_one.insert(POLICY_ROUNDTRIP.to_string(), 1000.0);
        assert_eq!(policy_ratio(&only_one), None);
        assert_eq!(policy_ratio(&BTreeMap::new()), None);
    }

    fn read_results(roundtrip_ns: f64, direct_ns: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert(READ_ROUNDTRIP.to_string(), roundtrip_ns);
        m.insert(READ_DIRECT.to_string(), direct_ns);
        m
    }

    #[test]
    fn read_ratio_is_the_plain_batch_quotient() {
        // Equal op counts per batch: the quotient is the ratio, and a round
        // trip costing twice the bound's worth of direct reads fails.
        let direct = 40_000.0;
        let at_bound = read_results(READ_MAX_RATIO * direct, direct);
        assert!((read_ratio(&at_bound).unwrap() - READ_MAX_RATIO).abs() < 1e-9);
        assert!(
            read_ratio(&read_results(2.0 * READ_MAX_RATIO * direct, direct)).unwrap()
                > READ_MAX_RATIO
        );
    }

    #[test]
    fn read_ratio_is_runner_speed_invariant() {
        let fast = read_results(1_500_000.0, 40_000.0);
        // The same machine 5x slower: both benches scale together.
        let slow = read_results(5.0 * 1_500_000.0, 5.0 * 40_000.0);
        assert!((read_ratio(&fast).unwrap() - read_ratio(&slow).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn read_ratio_requires_both_benches() {
        let mut only_one = BTreeMap::new();
        only_one.insert(READ_ROUNDTRIP.to_string(), 1000.0);
        assert_eq!(read_ratio(&only_one), None);
        assert_eq!(read_ratio(&BTreeMap::new()), None);
    }

    #[test]
    fn parse_results_reads_shim_json_lines() {
        let text = "\
{\"id\":\"snapshot_store/many_tiny_run\",\"low_ns\":1,\"mean_ns\":640000,\"high_ns\":2}
{\"id\":\"cached_rebuild/centos7_fully_cached\",\"low_ns\":1,\"mean_ns\":10000,\"high_ns\":2}
not json
";
        let parsed = parse_results(text, "test");
        assert_eq!(parsed.len(), 2);
        let ratio = relative_ratio(&parsed).unwrap();
        assert!((ratio - (640_000.0 / 64.0) / 10_000.0).abs() < 1e-9);
    }
}
