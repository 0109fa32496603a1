//! Multi-tenant build-farm throughput bench (ISSUE 7).
//!
//! `farm/serial_single_build` measures one standalone cached-enabled build
//! on a fresh builder with a private cache — what every tenant would pay
//! without the farm. The `throughput_*` rows drain a whole submission batch
//! ([`FARM_GATED_BUILDS`] builds across [`FARM_GATED_TENANTS`] tenants)
//! through one farm per iteration; dividing the batch mean by the build
//! count gives the aggregate per-build cost. At 100% overlap (every tenant
//! submits the byte-identical Dockerfile) cross-tenant dedup must collapse
//! the work to roughly one miss set plus cached adoptions, so
//! `bench_gate --relative` pins the per-build cost of the full-overlap
//! batch well *below* the same-run serial single-build figure. The
//! mixed-overlap row (shared prefix, tenant-unique tail) is informational.
//! See PERF.md §9 for recorded numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcc_bench::{FARM_GATED_BUILDS, FARM_GATED_TENANTS};
use hpcc_core::{centos7_fr_dockerfile, BuildOptions, Builder};
use hpcc_farm::{BuildFarm, BuildRequest, FarmConfig};
use hpcc_runtime::Invoker;

/// Submits `builds` requests spread round-robin across `tenants` tenants
/// and drains them, returning the number of successful builds. Each
/// tenant's Dockerfile is `dockerfile(tenant_index)`.
fn run_batch(
    workers: usize,
    tenants: usize,
    builds: usize,
    dockerfile: impl Fn(usize) -> String,
) -> usize {
    let farm = BuildFarm::new(FarmConfig::new(workers));
    let texts: Vec<String> = (0..tenants).map(&dockerfile).collect();
    for i in 0..builds {
        let tenant = i % tenants;
        farm.try_submit(BuildRequest::new(
            &format!("tenant{tenant}"),
            &texts[tenant],
            BuildOptions::new(&format!("img{}", i / tenants)).with_cache(),
        ))
        .expect("default farm queue depth holds the whole batch");
    }
    farm.drain().iter().filter(|r| r.report.success).count()
}

fn bench_farm_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("farm");

    // The no-farm reference: one standalone build, private cache, all
    // misses. Per iteration: fresh builder, so nothing carries over.
    group.bench_function("serial_single_build", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(Invoker::user("solo", 1000, 1000));
            let opts = BuildOptions::new("img").with_cache();
            let report = builder.build(centos7_fr_dockerfile(), &opts, None);
            assert!(report.success);
            black_box(report.stages.len())
        })
    });

    // 100% overlap: every tenant submits the byte-identical Dockerfile.
    // Cross-tenant dedup collapses the batch to one miss set; per-build
    // cost = mean / FARM_GATED_BUILDS. Gated by `bench_gate --relative`.
    group.bench_function(
        format!("throughput_{FARM_GATED_BUILDS}x{FARM_GATED_TENANTS}_full_overlap"),
        |b| {
            b.iter(|| {
                let ok = run_batch(
                    FARM_GATED_TENANTS,
                    FARM_GATED_TENANTS,
                    FARM_GATED_BUILDS,
                    |_| centos7_fr_dockerfile().to_string(),
                );
                assert_eq!(ok, FARM_GATED_BUILDS);
                black_box(ok)
            })
        },
    );

    // 0% overlap beyond the shared base environment: each tenant's
    // Dockerfile has a tenant-unique tail, so only the FROM prefix dedups.
    // Informational (ungated): shows throughput scaling when tenants do
    // real distinct work. Smaller batch to keep the bench affordable.
    group.bench_function("throughput_64x8_unique_tail", |b| {
        b.iter(|| {
            let ok = run_batch(FARM_GATED_TENANTS, FARM_GATED_TENANTS, 64, |tenant| {
                format!(
                    "FROM centos:7\n\
                     RUN echo tenant-{tenant} > /opt/owner\n\
                     RUN echo hello\n"
                )
            });
            assert_eq!(ok, 64);
            black_box(ok)
        })
    });

    // Worker-scaling reference: the same full-overlap batch on one worker.
    // Informational (ungated): the 1-vs-N comparison in PERF.md §9.
    group.bench_function("throughput_64x8_full_overlap_1worker", |b| {
        b.iter(|| {
            let ok = run_batch(1, FARM_GATED_TENANTS, 64, |_| {
                centos7_fr_dockerfile().to_string()
            });
            assert_eq!(ok, 64);
            black_box(ok)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_farm_throughput);
criterion_main!(benches);
