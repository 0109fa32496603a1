//! Stage-graph benchmarks (ISSUE 2): the diamond-shaped four-stage
//! Dockerfile built serially vs with parallel independent stages, plus the
//! fully cached rebuild exercising cross-stage cache sharing. Numbers are
//! recorded in PERF.md.

use criterion::{criterion_group, criterion_main, Criterion};

use hpcc_bench::{alice, build_diamond, diamond_dockerfile, stage_time_model};
use hpcc_core::{BuildOptions, Builder};

fn bench_diamond_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("multistage_diamond");
    group.bench_function("serial_cold", |b| {
        b.iter(|| {
            let (_, report) = build_diamond(false, false);
            assert!(report.success);
            report
        })
    });
    group.bench_function("parallel_cold", |b| {
        b.iter(|| {
            let (_, report) = build_diamond(true, false);
            assert!(report.success);
            report
        })
    });
    group.finish();

    // Critical-path analysis from measured per-stage times: the wall-clock
    // a multi-core host gets from parallel stages. Stage times come from a
    // *serial* run so they are uncontended. (This CI container has a single
    // CPU, so the measured parallel/serial wall-clocks above tie; the
    // graph's win shows up as makespan < serial_sum.)
    let (_, report) = build_diamond(false, false);
    let (makespan, serial_sum) = stage_time_model(&diamond_dockerfile(), &report);
    println!(
        "multistage_diamond/critical_path_model               makespan: {:?}  serial_sum: {:?}  stage_parallel_speedup: {:.2}x",
        makespan,
        serial_sum,
        serial_sum.as_secs_f64() / makespan.as_secs_f64()
    );
}

fn bench_diamond_cached(c: &mut Criterion) {
    let mut group = c.benchmark_group("multistage_diamond_cache");
    // Cross-stage sharing within one cold build: both middle stages chain
    // from the identical base-stage prefix, so whichever runs an instruction
    // first populates the cache for the other (and for the rebuild).
    group.bench_function("parallel_cold_with_cache", |b| {
        b.iter(|| {
            let (_, report) = build_diamond(true, true);
            assert!(report.success);
            report
        })
    });
    group.bench_function("parallel_cached_rebuild", |b| {
        let (mut builder, first) = build_diamond(true, true);
        assert!(first.success);
        let opts = BuildOptions::new("diamond").with_cache();
        b.iter(|| {
            let report = builder.build(&diamond_dockerfile(), &opts, None);
            assert!(report.success);
            let misses: usize = report.stages.iter().map(|s| s.cache_misses).sum();
            assert_eq!(misses, 0);
            report
        })
    });
    group.bench_function("serial_cached_rebuild", |b| {
        let mut builder = Builder::ch_image(alice());
        let opts = BuildOptions::new("diamond")
            .with_cache()
            .with_serial_stages();
        let first = builder.build(&diamond_dockerfile(), &opts, None);
        assert!(first.success);
        b.iter(|| {
            let report = builder.build(&diamond_dockerfile(), &opts, None);
            assert!(report.success);
            report
        })
    });
    group.finish();
}

criterion_group!(benches, bench_diamond_cold, bench_diamond_cached);
criterion_main!(benches);
