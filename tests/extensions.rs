//! Cross-crate integration tests for the future-work extensions:
//! §6.2.2 (fakeroot coverage and placement), §6.2.4 (kernel ID-map policies),
//! §6.2.5 (flatten annotation), §6.3 (multi-site CI), plus the overlay
//! storage and multi-stage build machinery they rest on.

use hpcc_repro::cluster::{astra_plus_x86_sites, multisite_ci};
use hpcc_repro::core::{
    centos7_dockerfile, push_to_oci, BuildGraph, BuildIr, BuildOptions, Builder, LayerMode,
    StageBase,
};
use hpcc_repro::fakeroot::{representative_packages, CoverageMatrix, Flavor};
use hpcc_repro::image::OwnershipMode;
use hpcc_repro::kernel::idpolicy::{policy_uid_map, MapPolicy, UniqueRangeAllocator};
use hpcc_repro::kernel::nsproxy::{build_container_kinds, unshare, NsAllocator, NsProxy};
use hpcc_repro::kernel::{CapabilitySet, Credentials, Gid, Uid, UserNamespace, UsernsId};
use hpcc_repro::oci::{ApiError, DistributionRegistry, FlattenPolicy, Platform};
use hpcc_repro::runtime::Invoker;
use hpcc_repro::vfs::{Actor, Mode, OverlayBackend, OverlayFs};

/// The Type III foundation end to end: an unprivileged user cannot unshare a
/// mount namespace directly, but can after creating a user namespace — and a
/// §6.2.4 policy map would give that namespace Figure-1-shaped IDs with no
/// helper at all.
#[test]
fn type3_namespace_stack_with_policy_maps() {
    let alice = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
    let mut proxy = NsProxy::host();
    let mut alloc = NsAllocator::new();
    // Without a user namespace: EPERM.
    assert!(unshare(
        &mut proxy,
        &mut alloc,
        &build_container_kinds(),
        &CapabilitySet::empty(),
        UsernsId::INIT,
        (5, 14),
    )
    .is_err());
    // With one (full caps inside it): the build-container namespaces appear.
    let out = unshare(
        &mut proxy,
        &mut alloc,
        &build_container_kinds(),
        &CapabilitySet::full(),
        UsernsId(1),
        (5, 14),
    )
    .unwrap();
    assert_eq!(out.created.len(), 4);
    // The §6.2.4 policy map reproduces the Figure 1 shape without newuidmap.
    let mut ranges = UniqueRangeAllocator::new(200_000, 65_536);
    let map = policy_uid_map(
        MapPolicy::RootPlusUniqueRange { count: 65_536 },
        &alice,
        &mut ranges,
    )
    .unwrap();
    assert_eq!(map.to_host(0), Some(1000));
    assert_eq!(map.to_host(1), Some(200_000));
}

/// A forced Type III build pushes to the OCI registry in both layer modes,
/// and the multi-arch index serves the right manifest per platform.
#[test]
fn forced_build_pushes_both_layer_modes_to_oci() {
    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice);
    let report = builder.build(
        centos7_dockerfile(),
        &BuildOptions::new("foo").with_force(),
        None,
    );
    assert!(report.success);

    let mut reg = DistributionRegistry::new("registry.example.gov", &["alice"]);
    let single = push_to_oci(
        &builder,
        "foo",
        &mut reg,
        "hpc/foo",
        "flat",
        LayerMode::SingleFlattened,
    )
    .unwrap();
    let layered = push_to_oci(
        &builder,
        "foo",
        &mut reg,
        "hpc/foo",
        "layered",
        LayerMode::BaseAndDiff,
    )
    .unwrap();
    assert_eq!(single.layer_count, 1);
    assert_eq!(layered.layer_count, 2);

    let pulled = reg
        .pull_for_platform("alice", "hpc/foo", "flat", &Platform::linux_amd64())
        .unwrap();
    assert_eq!(pulled.image.ownership, OwnershipMode::Flattened);
    // The build ran on x86-64 only, so an aarch64 pull is refused.
    assert_eq!(
        reg.pull_for_platform("alice", "hpc/foo", "flat", &Platform::linux_arm64())
            .unwrap_err(),
        ApiError::ManifestUnknown
    );
}

/// A repository with a `require`-flatten policy accepts the Charliecloud-style
/// push and rejects the preserved multi-layer push (§6.2.5).
#[test]
fn registry_flatten_policy_gates_pushes() {
    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice);
    assert!(
        builder
            .build(
                centos7_dockerfile(),
                &BuildOptions::new("foo").with_force(),
                None
            )
            .success
    );
    let mut reg = DistributionRegistry::new("registry.example.gov", &["alice"]);
    reg.create_repository("secure/foo", &["alice"], FlattenPolicy::Require);
    push_to_oci(
        &builder,
        "foo",
        &mut reg,
        "secure/foo",
        "1",
        LayerMode::SingleFlattened,
    )
    .unwrap();
    assert_eq!(
        push_to_oci(
            &builder,
            "foo",
            &mut reg,
            "secure/foo",
            "1",
            LayerMode::BaseAndDiff
        )
        .unwrap_err(),
        ApiError::Unsupported
    );
}

/// The §6.3 multi-site pipeline produces a two-architecture index from fully
/// unprivileged builds, and both sites pull their own variant.
#[test]
fn multisite_ci_builds_every_architecture_unprivileged() {
    let sites = astra_plus_x86_sites("ci-runner", 6000);
    let mut reg = DistributionRegistry::new("registry.example.gov", &["ci-runner"]);
    let report = multisite_ci(&sites, centos7_dockerfile(), &mut reg, "atse/app", "1.0");
    assert!(report.success);
    assert_eq!(report.index_platforms.len(), 2);
    assert!(report.results.iter().all(|r| r.pull_ok));
    assert!(report.results.iter().all(|r| r.instructions_modified > 0));
}

/// Multi-stage Dockerfiles build under the fully unprivileged builder and the
/// final image carries the artifact compiled in the first stage.
#[test]
fn multistage_build_under_type3() {
    let text = "\
FROM centos:7 AS compile
RUN yum install -y gcc
RUN mkdir -p /opt/app/bin && echo compiled > /opt/app/bin/hpc-app

FROM centos:7
COPY --from=compile /opt/app/bin/hpc-app /usr/local/bin/hpc-app
RUN echo runtime stage done
";
    let ir = BuildIr::parse(text).unwrap();
    assert!(ir.is_multistage());
    let graph = BuildGraph::plan(&ir).unwrap();
    assert_eq!(graph.node(1).deps, vec![0]);
    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice);
    let report = builder.build(text, &BuildOptions::new("app").with_force(), None);
    assert!(report.success);
    let built = builder.image("app").unwrap();
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    assert_eq!(
        built
            .fs
            .read_file(&actor, "/usr/local/bin/hpc-app")
            .unwrap(),
        b"compiled\n".to_vec()
    );
    // The intermediate compile stage is not tagged.
    assert!(builder.image("app.stage0").is_none());
    assert_eq!(builder.tags(), vec!["app".to_string()]);
}

/// A diamond-shaped four-stage Dockerfile plans into the expected DAG and
/// builds end to end: the two middle stages are independent (and execute
/// concurrently under the default options), and the final stage assembles
/// artifacts from both via `COPY --from`.
#[test]
fn diamond_stage_graph_builds_in_parallel() {
    let text = "\
FROM centos:7 AS base
RUN yum install -y gcc

FROM base AS left
RUN yum install -y openmpi
RUN mkdir -p /opt/out && echo left > /opt/out/left

FROM base AS right
RUN yum install -y spack
RUN mkdir -p /opt/out && echo right > /opt/out/right

FROM centos:7
COPY --from=left /opt/out/left /opt/final/left
COPY --from=2 /opt/out/right /opt/final/right
RUN echo assembled
";
    let ir = BuildIr::parse(text).unwrap();
    let graph = BuildGraph::plan(&ir).unwrap();
    assert_eq!(graph.levels(), &[vec![0], vec![1, 2], vec![3]]);
    assert_eq!(graph.node(1).base, StageBase::Stage(0));
    // --from=<alias> and --from=<index> resolve identically.
    assert_eq!(graph.node(3).deps, vec![1, 2]);

    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice);
    let report = builder.build(text, &BuildOptions::new("diamond"), None);
    assert!(report.success, "{:?}", report.error);
    assert_eq!(report.stages.len(), 4);
    let built = builder.image("diamond").unwrap();
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    assert_eq!(
        built.fs.read_file(&actor, "/opt/final/left").unwrap(),
        b"left\n".to_vec()
    );
    assert_eq!(
        built.fs.read_file(&actor, "/opt/final/right").unwrap(),
        b"right\n".to_vec()
    );
    // The final image is the runtime stage, not a union: no compilers.
    assert!(!built.fs.exists(&actor, "/usr/bin/gcc"));
}

/// Overlay storage behaves like the paper's storage drivers: writes copy up,
/// deletes whiteout, and squashing produces the flat single-layer tree a
/// Charliecloud push would ship.
#[test]
fn overlay_squash_matches_merged_view() {
    let mut base = hpcc_repro::vfs::Filesystem::new_local();
    base.install_file(
        "/etc/os-release",
        b"CentOS 7".to_vec(),
        Uid::ROOT,
        Gid::ROOT,
        Mode::FILE_644,
    )
    .unwrap();
    base.install_file("/bin/true", b"#!", Uid::ROOT, Gid::ROOT, Mode::EXEC_755)
        .unwrap();
    let mut ov = OverlayFs::new(vec![base], OverlayBackend::Fuse);
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    ov.write_file(&actor, "/etc/motd", b"hello".to_vec())
        .unwrap();
    ov.unlink(&actor, "/bin/true").unwrap();
    let (diff, whiteouts) = ov.commit_layer();
    assert!(diff.exists(&actor, "/etc/motd"));
    assert_eq!(whiteouts, vec!["/bin/true".to_string()]);
    let flat = ov.squash();
    assert!(flat.exists(&actor, "/etc/motd"));
    assert!(flat.exists(&actor, "/etc/os-release"));
}

/// The coverage matrix reproduces the paper's §5.1 observation that pseudo
/// installs packages Debian's fakeroot cannot, and that everything installable
/// anywhere is installable on x86-64.
#[test]
fn coverage_matrix_matches_paper_observations() {
    let matrix = CoverageMatrix::characterize(&representative_packages(), "x86_64");
    assert!(matrix.success_rate(Flavor::Pseudo) > matrix.success_rate(Flavor::Fakeroot));
    assert!(matrix.uninstallable_everywhere().is_empty());
}
