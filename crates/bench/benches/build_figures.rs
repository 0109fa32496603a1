//! Benchmarks regenerating the paper's build transcripts (Figures 2, 3, 8–11),
//! the build-type / build-cache ablations (experiments E2, E3, E7–E10,
//! E13, E15 in DESIGN.md) and the §5.3.3 LANL CI pipeline (E12). No row here
//! is in the gated baseline; the numbers are informational.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hpcc_bench::{alice, default_subuid_for};
use hpcc_cluster::{lanl_ci_pipeline, Cluster};
use hpcc_core::{
    centos7_dockerfile, centos7_fr_dockerfile, debian10_dockerfile, debian10_fr_dockerfile,
    BuildOptions, Builder,
};
use hpcc_image::Registry;

fn bench_failing_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_fig3_failing_type3_builds");
    group.bench_function("fig2_centos7_plain_type3", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(centos7_dockerfile(), &BuildOptions::new("foo"), None);
            assert!(!r.success);
            r
        })
    });
    group.bench_function("fig3_debian10_plain_type3", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(
                debian10_dockerfile(),
                &BuildOptions::new("foo").with_arch("amd64"),
                None,
            );
            assert!(!r.success);
            r
        })
    });
    group.finish();
}

fn bench_manual_fakeroot_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_fig9_manual_fakeroot_builds");
    group.bench_function("fig8_centos7_fr", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(centos7_fr_dockerfile(), &BuildOptions::new("foo"), None);
            assert!(r.success);
            r
        })
    });
    group.bench_function("fig9_debian10_fr", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(
                debian10_fr_dockerfile(),
                &BuildOptions::new("foo").with_arch("amd64"),
                None,
            );
            assert!(r.success);
            r
        })
    });
    group.finish();
}

fn bench_force_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_fig11_force_injection");
    group.bench_function("fig10_centos7_force", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(
                centos7_dockerfile(),
                &BuildOptions::new("foo").with_force(),
                None,
            );
            assert!(r.success);
            r
        })
    });
    group.bench_function("fig11_debian10_force", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(
                debian10_dockerfile(),
                &BuildOptions::new("foo").with_force().with_arch("amd64"),
                None,
            );
            assert!(r.success);
            r
        })
    });
    group.finish();
}

fn bench_build_types(c: &mut Criterion) {
    // E13: who can build the same Dockerfile, and at what cost.
    let mut group = c.benchmark_group("build_type_comparison");
    group.bench_function(BenchmarkId::new("type1_docker", "centos7"), |b| {
        b.iter(|| {
            let mut builder = Builder::docker();
            builder.build(centos7_dockerfile(), &BuildOptions::new("c7"), None)
        })
    });
    group.bench_function(BenchmarkId::new("type2_rootless_podman", "centos7"), |b| {
        b.iter(|| {
            let mut builder = Builder::rootless_podman(alice(), default_subuid_for("alice"));
            builder.build(centos7_dockerfile(), &BuildOptions::new("c7"), None)
        })
    });
    group.bench_function(BenchmarkId::new("type3_chimage_force", "centos7"), |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            builder.build(
                centos7_dockerfile(),
                &BuildOptions::new("c7").with_force(),
                None,
            )
        })
    });
    group.finish();
}

fn bench_build_cache(c: &mut Criterion) {
    // E15: iterative rebuilds with and without the per-instruction cache.
    let mut group = c.benchmark_group("build_cache");
    group.bench_function("rebuild_without_cache", |b| {
        let mut builder = Builder::ch_image(alice());
        let opts = BuildOptions::new("foo").with_force();
        builder.build(centos7_dockerfile(), &opts, None);
        b.iter(|| builder.build(centos7_dockerfile(), &opts, None))
    });
    group.bench_function("rebuild_with_cache", |b| {
        let mut builder = Builder::ch_image(alice());
        let opts = BuildOptions::new("foo").with_force().with_cache();
        builder.build(centos7_dockerfile(), &opts, None);
        b.iter(|| {
            let r = builder.build(centos7_dockerfile(), &opts, None);
            assert!(r.cache_hits > 0);
            r
        })
    });
    group.finish();
}

fn bench_ci_pipeline(c: &mut Criterion) {
    // E12: §5.3.3's LANL pipeline — schedule, build, push, pull, launch and
    // validate on a three-node cluster.
    let mut group = c.benchmark_group("lanl_ci_pipeline");
    group.sample_size(10);
    group.bench_function("three_stage_build_validate", |b| {
        b.iter(|| {
            let cluster = Cluster::generic_x86(3);
            let mut registry = Registry::new("gitlab.lanl.example");
            let report = lanl_ci_pipeline(&cluster, &mut registry, "builder", 2000);
            assert!(report.success);
            report.transcript.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_failing_builds,
    bench_manual_fakeroot_builds,
    bench_force_builds,
    bench_build_types,
    bench_build_cache,
    bench_ci_pipeline
);
criterion_main!(benches);
