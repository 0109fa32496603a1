//! Shared helpers for the benchmark harness and the `repro_figures` binary.
//!
//! Every figure and table of the paper's evaluation has a regeneration
//! function here (see DESIGN.md's experiment index); the Criterion benches
//! and the `repro_figures` binary are thin wrappers around these.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hpcc_cluster::{astra_workflow, lanl_ci_pipeline, Cluster};
use hpcc_core::{
    centos7_dockerfile, centos7_fr_dockerfile, debian10_dockerfile, debian10_fr_dockerfile,
    BuildOptions, BuildReport, Builder, PushOwnership,
};
use hpcc_distro::centos7;
use hpcc_fakeroot::{render_table1, FakerootSession, Flavor};
use hpcc_image::Registry;
use hpcc_kernel::{Credentials, Gid, IdMap, Uid, UserNamespace};
use hpcc_runtime::Invoker;
use hpcc_vfs::{Actor, FileType, Filesystem, Mode};

pub use hpcc_core::default_subuid_for;

/// The standard unprivileged invoking user used across experiments.
pub fn alice() -> Invoker {
    Invoker::user("alice", 1000, 1000)
}

/// Figure 1 / Figure 4: the `/etc/subuid` file and the resulting
/// `/proc/self/uid_map` for a privileged (Type II) container run by Alice.
pub fn repro_fig1_fig4() -> String {
    let mut subuid = hpcc_runtime::SubIdDb::new();
    subuid.add_range("alice", 200_000, 65_536);
    subuid.add_range("bob", 300_000, 65_536);
    let map = IdMap::privileged_build(1000, 200_000, 65_536);
    format!(
        "$ cat /etc/subuid\n{}$ podman unshare cat /proc/self/uid_map\n{}",
        subuid.render(),
        map.render_procfs()
    )
}

/// Figure 5: the unprivileged-Podman single-entry map.
pub fn repro_fig5() -> String {
    let map = IdMap::single(0, 1234);
    format!(
        "$ cat /etc/subuid\n$ podman unshare cat /proc/self/uid_map\n{}",
        map.render_procfs()
    )
}

/// Figure 2: plain Type III build of the CentOS 7 Dockerfile (fails with
/// `cpio: chown`).
pub fn repro_fig2() -> String {
    let mut b = Builder::ch_image(alice());
    let r = b.build(centos7_dockerfile(), &BuildOptions::new("foo"), None);
    format!(
        "$ ch-image build -t foo -f centos7.dockerfile .\n{}",
        r.transcript_text()
    )
}

/// Figure 3: plain Type III build of the Debian 10 Dockerfile (fails in
/// apt-get's privilege drop).
pub fn repro_fig3() -> String {
    let mut b = Builder::ch_image(alice());
    let r = b.build(
        debian10_dockerfile(),
        &BuildOptions::new("foo").with_arch("amd64"),
        None,
    );
    format!(
        "$ ch-image build -t foo -f debian10.dockerfile .\n{}",
        r.transcript_text()
    )
}

/// Figure 6: the Astra workflow (build on login node, push, distributed run).
pub fn repro_fig6(nodes: usize) -> String {
    let cluster = Cluster::astra(nodes);
    let mut registry = Registry::new("registry.sandia.example");
    let report = astra_workflow(&cluster, &mut registry, "ajyoung", 5432, nodes);
    report.transcript_text()
}

/// Figure 7: `fakeroot(1)` wrapping chown + mknod; inside vs outside views.
pub fn repro_fig7() -> String {
    let mut fs = Filesystem::new_local();
    fs.install_dir("/work", Uid(1000), Gid(1000), Mode::new(0o755))
        .unwrap();
    let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    let mut s = FakerootSession::new(Flavor::Fakeroot);
    let names = |u: Uid| match u.0 {
        0 => "root".to_string(),
        1000 => "alice".to_string(),
        65534 => "nobody".to_string(),
        o => o.to_string(),
    };
    let gnames = |g: Gid| match g.0 {
        0 => "root".to_string(),
        1000 => "alice".to_string(),
        65534 => "nogroup".to_string(),
        o => o.to_string(),
    };
    let mut out = String::from("$ fakeroot ./fakeroot.sh\n");
    out.push_str("+ touch test.file\n");
    fs.write_file(&actor, "/work/test.file", Vec::new(), Mode::new(0o640))
        .unwrap();
    out.push_str("+ chown nobody test.file\n");
    s.chown(&mut fs, &actor, "/work/test.file", Some(Uid(65534)), None)
        .unwrap();
    out.push_str("+ mknod test.dev c 1 1\n");
    s.mknod(
        &mut fs,
        &actor,
        "/work/test.dev",
        FileType::CharDevice,
        1,
        1,
        Mode::new(0o640),
    )
    .unwrap();
    out.push_str("+ ls -lh test.dev test.file\n");
    out.push_str(
        &s.ls_line(&fs, &actor, "/work/test.dev", names, gnames)
            .unwrap(),
    );
    out.push('\n');
    out.push_str(
        &s.ls_line(&fs, &actor, "/work/test.file", names, gnames)
            .unwrap(),
    );
    out.push_str("\n$ ls -lh test*\n");
    out.push_str(&fs.ls_line(&actor, "/work/test.dev", names, gnames).unwrap());
    out.push('\n');
    out.push_str(
        &fs.ls_line(&actor, "/work/test.file", names, gnames)
            .unwrap(),
    );
    out.push('\n');
    out
}

/// Figure 8: the manually modified CentOS 7 Dockerfile builds successfully.
pub fn repro_fig8() -> String {
    let mut b = Builder::ch_image(alice());
    let r = b.build(centos7_fr_dockerfile(), &BuildOptions::new("foo"), None);
    format!(
        "$ ch-image build -t foo -f centos7-fr.dockerfile .\n{}",
        r.transcript_text()
    )
}

/// Figure 9: the manually modified Debian 10 Dockerfile builds successfully.
pub fn repro_fig9() -> String {
    let mut b = Builder::ch_image(alice());
    let r = b.build(
        debian10_fr_dockerfile(),
        &BuildOptions::new("foo").with_arch("amd64"),
        None,
    );
    format!(
        "$ ch-image build -t foo -f debian10-fr.dockerfile .\n{}",
        r.transcript_text()
    )
}

/// Figure 10: `--force` build of the *unmodified* CentOS 7 Dockerfile.
pub fn repro_fig10() -> String {
    let mut b = Builder::ch_image(alice());
    let r = b.build(
        centos7_dockerfile(),
        &BuildOptions::new("foo").with_force(),
        None,
    );
    format!(
        "$ ch-image build --force -t foo -f centos7.dockerfile\n{}",
        r.transcript_text()
    )
}

/// Figure 11: `--force` build of the *unmodified* Debian 10 Dockerfile.
pub fn repro_fig11() -> String {
    let mut b = Builder::ch_image(alice());
    let r = b.build(
        debian10_dockerfile(),
        &BuildOptions::new("foo").with_force().with_arch("amd64"),
        None,
    );
    format!(
        "$ ch-image build --force -t foo -f debian10.dockerfile\n{}",
        r.transcript_text()
    )
}

/// Table 1: the fakeroot implementation comparison, plus a measured
/// package-coverage column from the simulation.
pub fn repro_table1() -> String {
    let mut out = render_table1();
    out.push('\n');
    out.push_str(
        "measured package coverage (openssh on CentOS 7 / openssh-client on Debian 10):\n",
    );
    for flavor in Flavor::ALL {
        let centos_ok = flavor_can_install_centos_openssh(flavor);
        let debian_ok = flavor_can_install_debian_openssh_client(flavor);
        out.push_str(&format!(
            "  {:<12} centos7/openssh: {:<4} debian10/openssh-client: {}\n",
            flavor.to_string(),
            if centos_ok { "ok" } else { "FAIL" },
            if debian_ok { "ok" } else { "FAIL" }
        ));
    }
    out
}

/// Instruction count of the benched `snapshot_store/many_tiny_run`
/// workload. Shared with `bench_gate --relative`, which normalizes that
/// bench to per-instruction time before comparing it against the same-run
/// `cached_rebuild` figure.
pub const MANY_TINY_INSTRUCTIONS: usize = 64;

/// Thread count of the gated many-readers workload
/// (`shared_read/cycle_batch_8threads` in benches/shared_readers.rs): one
/// iteration spawns this many reader threads against one [`hpcc_fuseproto::SharedImage`].
/// Shared with `bench_gate --relative`, which normalizes the batch to
/// per-cycle time before comparing it against the same-run
/// `shared_read/per_cycle_1thread` figure — both numbers come from one
/// process on one runner, so the ratio is machine- and core-count
/// invariant: a single-core runner serializes the batch, but each cycle
/// still costs the single-thread figure unless the read path contends.
pub const SHARED_READ_GATED_THREADS: usize = 8;

/// Full `resolve → open → read → release` cycles each reader thread runs
/// per batch iteration. High enough that thread spawn/join overhead is
/// amortized to noise against the measured per-cycle cost.
pub const SHARED_READ_CYCLES_PER_THREAD: usize = 512;

/// Builds per iteration of the gated farm-throughput workload
/// (`farm/throughput_256x8_full_overlap` in benches/farm_throughput.rs):
/// this many byte-identical builds queued across [`FARM_GATED_TENANTS`]
/// tenants and drained through one `hpcc_farm::BuildFarm`. Shared with
/// `bench_gate --relative`, which normalizes the batch to per-build time
/// before comparing it against the same-run `farm/serial_single_build`
/// figure — both numbers come from one process on one runner, so the ratio
/// only moves when cross-tenant dedup (or the scheduler) regresses, never
/// with runner speed.
pub const FARM_GATED_BUILDS: usize = 256;

/// Tenants the gated farm-throughput workload spreads its builds across.
pub const FARM_GATED_TENANTS: usize = 8;

/// Operations per iteration of the gated wire-loop workloads
/// (`wire/roundtrip_getattr_batch` and `wire/direct_getattr_batch` in
/// benches/wire_loop.rs): each iteration runs this many getattr ops, either
/// as full encode → transport → decode → dispatch → reply round trips or as
/// direct `Dispatch::handle` calls on the same session. Shared with
/// `bench_gate --relative`, which divides the two batch means — both sides
/// run the identical op count in one process on one runner, so the ratio
/// isolates the wire layer's own overhead (codec + framing + channel) from
/// machine speed.
pub const WIRE_OPS_PER_BATCH: usize = 256;

/// A pathological many-tiny-RUN single-stage Dockerfile with `instructions`
/// total instructions, every `RUN` touching one small file. With the build
/// cache enabled each instruction both stores a snapshot and immediately
/// mutates the filesystem again — the snapshot-store worst case (ISSUE 3,
/// PERF.md §5). Shared by the `snapshot_store/many_tiny_run` bench and the
/// `tests/snapshot_scaling.rs` sub-quadratic pin so both measure the same
/// workload.
pub fn many_tiny_run_dockerfile(instructions: usize) -> String {
    let mut text = String::from("FROM centos:7\nRUN mkdir -p /opt/artifacts\n");
    for i in 0..instructions.saturating_sub(2) {
        text.push_str(&format!("RUN echo payload-{i} > /opt/artifacts/f{i}\n"));
    }
    text
}

/// The diamond-shaped four-stage Dockerfile used by the stage-graph bench
/// (ISSUE 2): a shared toolchain base, two *independent* middle stages (MPI
/// stack vs Spack tree) the graph executor builds concurrently, and a
/// runtime stage assembling artifacts from both via `COPY --from`. `width`
/// controls per-middle-stage payload (one `RUN` writing one artifact file
/// each), standing in for the long package-install tails of real HPC
/// compile stages.
pub fn diamond_dockerfile_sized(width: usize) -> String {
    let mut text = String::from(
        "FROM centos:7 AS base\n\
         RUN yum install -y gcc\n\
         \n\
         FROM base AS mpi\n\
         RUN yum install -y openmpi\n\
         RUN yum install -y atse-env\n\
         RUN mkdir -p /opt/artifacts\n\
         RUN echo mpi-stack > /opt/artifacts/mpi\n",
    );
    for i in 0..width {
        text.push_str(&format!("RUN echo payload-{i} > /opt/artifacts/mpi-{i}\n"));
    }
    text.push_str(
        "\nFROM base AS tools\n\
         RUN yum install -y spack\n\
         RUN /opt/spack/bin/spack install app-deps\n\
         RUN mkdir -p /opt/artifacts\n\
         RUN echo tool-tree > /opt/artifacts/tools\n",
    );
    for i in 0..width {
        text.push_str(&format!(
            "RUN echo payload-{i} > /opt/artifacts/tools-{i}\n"
        ));
    }
    text.push_str(
        "\nFROM centos:7\n\
         COPY --from=mpi /usr/lib64/openmpi /usr/lib64/openmpi\n\
         COPY --from=mpi /opt/artifacts/mpi /opt/final/mpi\n\
         COPY --from=tools /opt/spack /opt/spack\n\
         COPY --from=tools /opt/artifacts/tools /opt/final/tools\n\
         RUN echo assembled\n",
    );
    text
}

/// The benched diamond: payload sized so each middle stage does roughly
/// millisecond-scale work, like a small real compile stage.
pub fn diamond_dockerfile() -> String {
    diamond_dockerfile_sized(256)
}

/// Critical-path analysis of a successful multi-stage build from its
/// *measured* per-stage execution times: returns `(makespan, serial_sum)`,
/// where `makespan` is the longest dependency-path time — the wall-clock a
/// host with enough cores achieves with parallel stages — and `serial_sum`
/// is the same stages executed back to back. On a single-CPU host the
/// measured wall-clock matches `serial_sum`; the ratio is the parallel
/// speedup the graph unlocks per added core.
pub fn stage_time_model(
    dockerfile: &str,
    report: &BuildReport,
) -> (std::time::Duration, std::time::Duration) {
    use std::time::Duration;
    let ir = hpcc_core::BuildIr::parse(dockerfile).expect("dockerfile parses");
    let graph = hpcc_core::BuildGraph::plan(&ir).expect("dockerfile plans");
    assert!(report.success && report.stages.len() == ir.stage_count());
    let serial: Duration = report.stages.iter().map(|s| s.elapsed).sum();
    let mut finish = vec![Duration::ZERO; report.stages.len()];
    for i in 0..report.stages.len() {
        let dep_max = graph
            .node(i)
            .deps
            .iter()
            .map(|&d| finish[d])
            .max()
            .unwrap_or(Duration::ZERO);
        finish[i] = dep_max + report.stages[i].elapsed;
    }
    let makespan = finish.iter().max().copied().unwrap_or(Duration::ZERO);
    (makespan, serial)
}

/// Builds the diamond Dockerfile once with a fresh Type III builder.
/// `parallel` toggles concurrent stage execution; `cache` the shared
/// per-instruction cache.
pub fn build_diamond(parallel: bool, cache: bool) -> (Builder, BuildReport) {
    let mut builder = Builder::ch_image(alice());
    let mut options = BuildOptions::new("diamond");
    if !parallel {
        options = options.with_serial_stages();
    }
    if cache {
        options = options.with_cache();
    }
    let report = builder.build(&diamond_dockerfile(), &options, None);
    (builder, report)
}

/// §5.3.3: the LANL CI pipeline.
pub fn repro_ci_pipeline() -> String {
    let cluster = Cluster::generic_x86(3);
    let mut registry = Registry::new("gitlab.lanl.example");
    lanl_ci_pipeline(&cluster, &mut registry, "builder", 2000).transcript_text()
}

/// Whether a given fakeroot flavor can install the CentOS openssh package in
/// a Type III container.
pub fn flavor_can_install_centos_openssh(flavor: Flavor) -> bool {
    let img = centos7("x86_64");
    let mut fs = img.fs;
    fs.flatten_ownership(Uid(1000), Gid(1000));
    let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
        .entered_own_namespace();
    let ns = UserNamespace::type3(Uid(1000), Gid(1000));
    let actor = Actor::new(&creds, &ns);
    let mut w = FakerootSession::new(flavor);
    hpcc_distro::yum_install(
        &mut fs,
        &actor,
        Some(&mut w),
        &img.catalog,
        &["openssh"],
        &[],
        "x86_64",
    )
    .success()
}

/// Whether a given fakeroot flavor can install Debian's openssh-client in a
/// Type III container (sandbox already disabled, indexes fetched).
pub fn flavor_can_install_debian_openssh_client(flavor: Flavor) -> bool {
    let img = hpcc_distro::debian10("amd64");
    let mut fs = img.fs;
    fs.flatten_ownership(Uid(1000), Gid(1000));
    let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
        .entered_own_namespace();
    let ns = UserNamespace::type3(Uid(1000), Gid(1000));
    let actor = Actor::new(&creds, &ns);
    fs.write_file(
        &actor,
        "/etc/apt/apt.conf.d/no-sandbox",
        b"APT::Sandbox::User \"root\";\n".to_vec(),
        Mode::FILE_644,
    )
    .unwrap();
    hpcc_distro::apt_update(&mut fs, &actor, &img.catalog);
    let mut w = FakerootSession::new(flavor);
    hpcc_distro::apt_install(
        &mut fs,
        &actor,
        Some(&mut w),
        &img.catalog,
        &["openssh-client"],
        "amd64",
    )
    .success()
}

/// Builds the paper's CentOS example with every builder type and reports
/// which succeed (experiment E13).
pub fn build_type_comparison() -> Vec<(String, bool, usize)> {
    let mut results = Vec::new();
    // Type I (Docker).
    let mut docker = Builder::docker();
    let r = docker.build(centos7_dockerfile(), &BuildOptions::new("c7"), None);
    results.push((
        "Type I (Docker)".to_string(),
        r.success,
        r.instructions_modified,
    ));
    // Type II (rootless Podman).
    let mut podman = Builder::rootless_podman(alice(), default_subuid_for("alice"));
    let r = podman.build(centos7_dockerfile(), &BuildOptions::new("c7"), None);
    results.push((
        "Type II (rootless Podman)".to_string(),
        r.success,
        r.instructions_modified,
    ));
    // Type III without --force.
    let mut ch = Builder::ch_image(alice());
    let r = ch.build(centos7_dockerfile(), &BuildOptions::new("c7"), None);
    results.push((
        "Type III (ch-image)".to_string(),
        r.success,
        r.instructions_modified,
    ));
    // Type III with --force.
    let mut chf = Builder::ch_image(alice());
    let r = chf.build(
        centos7_dockerfile(),
        &BuildOptions::new("c7").with_force(),
        None,
    );
    results.push((
        "Type III (ch-image --force)".to_string(),
        r.success,
        r.instructions_modified,
    ));
    results
}

/// Push-policy comparison (experiment E17): distinct recorded `uid:gid`
/// owner pairs per policy.
pub fn push_policy_comparison() -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (name, policy) in [
        ("flatten (Charliecloud)", PushOwnership::Flatten),
        ("preserve (Podman)", PushOwnership::Preserve),
        ("fakeroot-db (paper §6.2.2)", PushOwnership::FromFakerootDb),
    ] {
        let mut b = Builder::ch_image(alice());
        let r = b.build(
            centos7_dockerfile(),
            &BuildOptions::new("c7").with_force(),
            None,
        );
        assert!(r.success);
        let mut registry = Registry::new("r");
        b.push("c7", "x/openssh:1", &mut registry, policy).unwrap();
        let img = registry.pull("x/openssh:1").unwrap();
        let mut owners: Vec<(u32, u32)> = hpcc_vfs::tar::list(&img.layers[0].tar)
            .unwrap()
            .into_iter()
            .map(|e| (e.uid, e.gid))
            .collect();
        owners.sort_unstable();
        owners.dedup();
        out.push((name.to_string(), owners.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_transcript_contains_chown_failure() {
        let t = repro_fig2();
        assert!(t.contains("cpio: chown"));
        assert!(t.contains("error: build failed: RUN command exited with 1"));
    }

    #[test]
    fn fig3_transcript_contains_sandbox_failures() {
        let t = repro_fig3();
        assert!(t.contains("setgroups (1: Operation not permitted)"));
        assert!(t.contains("exited with 100"));
    }

    #[test]
    fn fig7_shows_lies_inside_and_truth_outside() {
        let t = repro_fig7();
        assert!(t.contains("crw-r----- 1 root root 1, 1 test.dev"));
        assert!(t.contains("-rw-r----- 1 nobody root 0 test.file"));
        assert!(t.contains("alice alice"));
    }

    #[test]
    fn fig10_fig11_force_builds_succeed() {
        assert!(repro_fig10().contains("--force: init OK & modified 1 RUN instructions"));
        assert!(repro_fig11().contains("--force: init OK & modified 2 RUN instructions"));
    }

    #[test]
    fn table1_coverage_matches_paper_narrative() {
        // CentOS openssh installs under all three flavors; Debian
        // openssh-client fails under plain fakeroot but works under pseudo
        // (paper §5.1 / §5.2).
        assert!(flavor_can_install_centos_openssh(Flavor::Fakeroot));
        assert!(flavor_can_install_centos_openssh(Flavor::Pseudo));
        assert!(!flavor_can_install_debian_openssh_client(Flavor::Fakeroot));
        assert!(flavor_can_install_debian_openssh_client(Flavor::Pseudo));
        let t = repro_table1();
        assert!(t.contains("ptrace(2)"));
    }

    #[test]
    fn build_type_comparison_shape() {
        let results = build_type_comparison();
        assert_eq!(results.len(), 4);
        // Type I, II succeed unmodified; plain Type III fails; --force succeeds.
        assert!(results[0].1);
        assert!(results[1].1);
        assert!(!results[2].1);
        assert!(results[3].1);
        assert_eq!(results[3].2, 1);
    }

    #[test]
    fn push_policies_differ_in_recorded_uids() {
        let results = push_policy_comparison();
        let flatten = results
            .iter()
            .find(|r| r.0.starts_with("flatten"))
            .unwrap()
            .1;
        let db = results
            .iter()
            .find(|r| r.0.starts_with("fakeroot-db"))
            .unwrap()
            .1;
        assert_eq!(flatten, 1);
        assert!(
            db > 1,
            "fakeroot-db push preserves intended multi-ID ownership"
        );
    }

    #[test]
    fn diamond_builds_both_ways_with_identical_results() {
        let (pb, pr) = build_diamond(true, false);
        let (sb, sr) = build_diamond(false, false);
        assert!(pr.success, "{:?}", pr.error);
        assert!(sr.success, "{:?}", sr.error);
        assert_eq!(pr.stages.len(), 4);
        let creds = Credentials::host_root();
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        for path in ["/opt/final/mpi", "/opt/final/tools", "/opt/spack/bin/spack"] {
            assert!(
                pb.image("diamond").unwrap().fs.exists(&actor, path),
                "{}",
                path
            );
            assert!(
                sb.image("diamond").unwrap().fs.exists(&actor, path),
                "{}",
                path
            );
        }
        // Only the final stage is tagged.
        assert_eq!(pb.tags(), vec!["diamond".to_string()]);
    }

    #[test]
    fn diamond_cached_rebuild_hits_every_instruction() {
        let (mut builder, first) = build_diamond(true, true);
        assert!(first.success);
        let opts = BuildOptions::new("diamond").with_cache();
        let second = builder.build(&diamond_dockerfile(), &opts, None);
        assert!(second.success);
        let misses: usize = second.stages.iter().map(|s| s.cache_misses).sum();
        assert_eq!(misses, 0, "fully cached rebuild must not miss");
    }

    #[test]
    fn fig6_and_pipeline_run() {
        let t = repro_fig6(2);
        assert!(t.contains("parallel distributed launch"));
        assert!(t.contains("ok"));
        let p = repro_ci_pipeline();
        assert!(p.contains("stage validate"));
    }

    #[test]
    fn fig1_fig4_fig5_maps_render() {
        let t = repro_fig1_fig4();
        assert!(t.contains("alice:200000:65536"));
        assert!(t.contains("200000"));
        let t5 = repro_fig5();
        assert!(t5.contains("1234"));
    }
}
