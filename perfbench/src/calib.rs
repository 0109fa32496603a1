//! Host-speed calibration: every time the benchmark reports is scaled to a
//! host of fixed speed.
//!
//! The benchmark shares its host with other machines, and the speed a core
//! gives this process drifts by up to 1.8× over seconds to minutes, longer
//! than a run, most likely while a neighbour on the core's other hardware
//! thread takes issue slots from this one. Every timed unit of work (a
//! `cold_build` round, a `ci_rebuild` wave, a `serve_image` request batch,
//! a set-up) is therefore paired with a run of a fixed probe, timed right
//! before it, and reported as `t × (PROBE_REFERENCE_NS / t_probe)^e` (see
//! [`scale`]): about the time the unit would take on a host that runs the
//! probe in [`PROBE_REFERENCE_NS`].
//!
//! The probe is eight independent multiply-xor-shift lanes stored to the
//! stack each step: throughput-bound, like the program's mix of hashing,
//! copying and pointer work, so it slows by about the same factor when the
//! core is shared. The probe is the benchmark's own code, so a change to
//! the program moves the scaled time and not the probe.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the 2-vCPU machine the benchmark was sized on, with
/// its core not shared: the host speed every scaled time is expressed at.
pub const PROBE_REFERENCE_NS: f64 = 170_000.0;

/// Probe steps; each advances all eight lanes once.
const PROBE_STEPS: usize = 50_000;

/// Runs the probe once on this thread and returns its time in ns.
pub fn probe_ns() -> u64 {
    let start = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..PROBE_STEPS {
        for (k, v) in lanes.iter_mut().enumerate() {
            *v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k as u64) ^ (*v >> 29);
        }
        lanes = black_box(lanes);
    }
    black_box(lanes);
    start.elapsed().as_nanos() as u64
}

/// Runs the probe on `threads` threads at once — one per core a
/// multi-threaded unit runs on — and returns their mean time in ns.
pub fn probe_ns_on(threads: usize) -> u64 {
    if threads <= 1 {
        return probe_ns();
    }
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(probe_ns)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    total / threads as u64
}

/// `ns` measured now, scaled to the reference host by the probe time
/// `probe` measured with it: `ns × (PROBE_REFERENCE_NS / probe)^exponent`.
/// The exponent is the workload's sensitivity to core speed — 1 for work
/// that slows exactly as the probe does, less for work that waits on
/// memory, which a shared core slows less.
pub fn scale(ns: u64, probe: u64, exponent: f64) -> u64 {
    (ns as f64 * (PROBE_REFERENCE_NS / probe.max(1) as f64).powf(exponent)) as u64
}
