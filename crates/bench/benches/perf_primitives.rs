//! The three cheap primitives of the build pipeline (ISSUE 1): snapshot
//! clones, SHA-256 hashing, and digest-keyed build-cache rebuilds.
//!
//! `cached_rebuild/*` quantifies the paper's §6.1 claim that a build cache
//! "greatly accelerates repetitive builds": a fully cached CentOS 7 rebuild
//! must be an order of magnitude faster than the uncached one, and a CI
//! rebuild of the LANL pipeline after an application edit (§5.3.3) is
//! mostly cache hits. See PERF.md for recorded before/after numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcc_bench::{alice, many_tiny_run_dockerfile, MANY_TINY_INSTRUCTIONS};
use hpcc_cluster::workflow::lanl_multistage_dockerfile;
use hpcc_core::{centos7_dockerfile, BuildOptions, Builder};
use hpcc_image::sha256;
use hpcc_kernel::{Gid, Uid};
use hpcc_vfs::{Filesystem, Mode};

fn built_centos7_fs() -> hpcc_vfs::Filesystem {
    let mut builder = Builder::ch_image(alice());
    let r = builder.build(
        centos7_dockerfile(),
        &BuildOptions::new("c7").with_force(),
        None,
    );
    assert!(r.success, "{}", r.transcript_text());
    builder.image("c7").unwrap().fs.clone()
}

fn bench_snapshot_clone(c: &mut Criterion) {
    use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
    use hpcc_vfs::{Actor, Filesystem, Mode};

    let mut group = c.benchmark_group("snapshot_clone");
    let fs = built_centos7_fs();
    group.bench_function("centos7_filesystem_clone", |b| {
        b.iter(|| black_box(fs.clone()).inode_count())
    });
    // A large synthetic tree: 4096 files of 1 KiB. Snapshots are O(1); the
    // seed implementation deep-copied all 4 MiB per clone.
    let mut big = Filesystem::new_local();
    for i in 0..4096 {
        big.install_file(
            &format!("/data/d{}/f{}", i % 64, i),
            vec![(i % 251) as u8; 1024],
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
    }
    group.bench_function("synthetic_4096x1KiB_clone", |b| {
        b.iter(|| black_box(big.clone()).inode_count())
    });
    // The deferred cost: first mutation after a clone detaches the inode
    // table (metadata copy; file bytes stay shared).
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    group.bench_function("synthetic_4096x1KiB_clone_then_first_write", |b| {
        b.iter(|| {
            let mut snap = big.clone();
            snap.write_file(&actor, "/data/d0/f0", b"dirty".to_vec(), Mode::FILE_644)
                .unwrap();
            snap.inode_count()
        })
    });
    group.finish();
}

fn bench_sha256_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256_throughput");
    for size in [4 * 1024usize, 1024 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        let label = if size >= 1024 * 1024 {
            format!("{}MiB", size / (1024 * 1024))
        } else {
            format!("{}KiB", size / 1024)
        };
        group.bench_function(format!("one_shot_{}", label), |b| {
            b.iter(|| sha256(black_box(&data)))
        });
    }
    group.finish();
}

fn bench_snapshot_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_store");
    // Cold build with the cache on: one snapshot stored per instruction,
    // with the next instruction's first mutation paying the detach. The
    // old flat Arc-shared inode table made this O(instructions × inodes).
    group.bench_function("many_tiny_run", |b| {
        let dockerfile = many_tiny_run_dockerfile(MANY_TINY_INSTRUCTIONS);
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(&dockerfile, &BuildOptions::new("tiny").with_cache(), None);
            assert!(r.success, "{}", r.transcript_text());
            r
        })
    });
    group.finish();
}

fn bench_cached_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("cached_rebuild");
    group.bench_function("centos7_fully_cached", |b| {
        let mut builder = Builder::ch_image(alice());
        let opts = BuildOptions::new("c7").with_force().with_cache();
        let first = builder.build(centos7_dockerfile(), &opts, None);
        assert!(first.success);
        b.iter(|| {
            let r = builder.build(centos7_dockerfile(), &opts, None);
            assert!(r.success && r.cache_misses == 0, "expected full cache hit");
            r
        })
    });
    // Instruction cache off, builder reused: every RUN re-executes, but the
    // memoized base environment serves FROM as a CoW snapshot — the
    // "rebuild during iterative development without a cache" path.
    group.bench_function("centos7_uncached", |b| {
        let mut builder = Builder::ch_image(alice());
        let opts = BuildOptions::new("c7").with_force();
        builder.build(centos7_dockerfile(), &opts, None);
        b.iter(|| builder.build(centos7_dockerfile(), &opts, None))
    });
    // A CI commit that edits only the application source: the toolchain and
    // Spack stages and the final stage's prefix are cache hits, and the
    // `COPY app.c` onward misses. Stages run serially on the calling
    // thread, so no thread spawn is timed.
    group.bench_function("lanl_app_edit", |b| {
        let mut builder = Builder::ch_image(alice());
        let opts = BuildOptions::new("app")
            .with_force()
            .with_cache()
            .with_cache_capacity(1024)
            .with_serial_stages();
        let mut commit = 0u64;
        let mut build = |builder: &mut Builder| {
            commit += 1;
            let mut context = Filesystem::new_local();
            let source = format!("int main(){{return {commit};}}");
            context
                .install_file(
                    "/app.c",
                    source.into_bytes(),
                    Uid(0),
                    Gid(0),
                    Mode::FILE_644,
                )
                .unwrap();
            builder.build(lanl_multistage_dockerfile(), &opts, Some(&context))
        };
        let first = build(&mut builder);
        assert!(first.success, "{}", first.transcript_text());
        b.iter(|| {
            let r = build(&mut builder);
            assert!(r.success && r.cache_misses == 3, "{}", r.transcript_text());
            r
        })
    });
    group.finish();
}

fn bench_cold_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_build");
    // A *fresh builder* per iteration: nothing is memoized, so this pays
    // base-tree construction, the tree's launch under Type III ownership,
    // and every RUN — the true first-build-on-a-new-node cost the paper's
    // "build anywhere" workflow exercises.
    group.bench_function("centos7_uncached", |b| {
        b.iter(|| {
            let mut builder = Builder::ch_image(alice());
            let r = builder.build(
                centos7_dockerfile(),
                &BuildOptions::new("c7").with_force(),
                None,
            );
            assert!(r.success, "{}", r.transcript_text());
            r
        })
    });
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
    use hpcc_vfs::{Actor, Filesystem, Mode};

    let mut group = c.benchmark_group("resolve");
    // Repeated lookups of one deep path — the shape of a RUN script reading
    // a package database: the generation-stamped resolve cache serves every
    // iteration after the first in O(1) with zero allocations.
    let mut fs = Filesystem::new_local();
    fs.install_file(
        "/usr/lib/sysimage/rpm/db/Packages/index/data",
        b"rpmdb".to_vec(),
        Uid(0),
        Gid(0),
        Mode::FILE_644,
    )
    .unwrap();
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    group.bench_function("deep_path_hot", |b| {
        b.iter(|| {
            fs.resolve(&actor, "/usr/lib/sysimage/rpm/db/Packages/index/data")
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot_clone,
    bench_snapshot_store,
    bench_sha256_throughput,
    bench_cached_rebuild,
    bench_cold_build,
    bench_resolve
);
criterion_main!(benches);
