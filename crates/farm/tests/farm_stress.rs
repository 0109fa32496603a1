//! Farm-level integration tests: cross-tenant cache dedup, fairness and
//! typed backpressure, and a determinism stress run checked against a
//! serial replay on private builders.

use hpcc_core::{centos7_dockerfile, centos7_fr_dockerfile, BuildOptions, Builder};
use hpcc_farm::{BuildFarm, BuildRequest, FarmConfig, SubmitError};
use hpcc_image::{Digest, Sha256};
use hpcc_kernel::{Credentials, UserNamespace};
use hpcc_runtime::Invoker;
use hpcc_vfs::{Actor, FileType, Filesystem};

/// Content fingerprint of a filesystem tree: SHA-256 over the sorted
/// (path, uid, gid, mode, type, content) tuples. Inode numbers are *not*
/// hashed — concurrent builds allocate them in nondeterministic order, while
/// the visible tree must still be bit-identical.
fn fingerprint(fs: &Filesystem) -> Digest {
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    let mut h = Sha256::new();
    for (path, ino) in fs.walk() {
        let inode = fs.inode(ino).expect("walked inode exists");
        h.update(path.as_bytes());
        h.update(
            format!(
                "|{:?}|{:?}|{:?}|{:?}|",
                inode.uid,
                inode.gid,
                inode.mode,
                inode.file_type()
            )
            .as_bytes(),
        );
        if inode.file_type() == FileType::Regular {
            let bytes = fs
                .file_bytes_ino(&actor, ino)
                .expect("regular file readable as root");
            h.update(bytes.as_slice());
        }
        h.update(b"\n");
    }
    h.finalize()
}

fn image_fingerprint(farm: &BuildFarm, tenant: &str, tag: &str) -> Digest {
    let builder = farm.tenant_builder(tenant).expect("tenant has a builder");
    let guard = builder.read().unwrap();
    let image = guard.image(tag).expect("tag was built");
    fingerprint(&image.fs)
}

#[test]
fn cross_tenant_dedup_costs_one_set_of_misses_with_identical_digests() {
    // Reference: one tenant building alone over a private cache.
    let mut solo = Builder::ch_image(Invoker::user("solo", 1000, 1000));
    let opts = BuildOptions::new("img").with_cache();
    let report = solo.build(centos7_fr_dockerfile(), &opts, None);
    assert!(report.success, "{:?}", report.error);
    let single_misses = solo.shared_cache().misses();
    assert!(single_misses > 0);
    let reference = fingerprint(&solo.image("img").unwrap().fs);

    // Eight tenants race byte-identical Dockerfiles through one farm.
    let tenants: Vec<String> = (0..8).map(|i| format!("tenant{i}")).collect();
    let farm = BuildFarm::new(FarmConfig::new(8));
    for tenant in &tenants {
        farm.try_submit(BuildRequest::new(
            tenant,
            centos7_fr_dockerfile(),
            BuildOptions::new("img").with_cache(),
        ))
        .unwrap();
    }
    let results = farm.drain();
    assert_eq!(results.len(), tenants.len());
    for result in &results {
        assert!(
            result.report.success,
            "{}: {:?}",
            result.tenant, result.report.error
        );
    }
    // Exactly one set of misses farm-wide: concurrent identical instructions
    // collapse onto one in-flight leader per digest; everyone else either
    // hits the stored state or blocks on the leader (which counts as a hit).
    assert_eq!(farm.cache().misses(), single_misses);
    assert_eq!(farm.base_env_memo().derivations(), 1);
    assert!(farm.cache().hits() >= (tenants.len() - 1) * single_misses);
    for tenant in &tenants {
        assert_eq!(
            image_fingerprint(&farm, tenant, "img"),
            reference,
            "{tenant}"
        );
    }
}

#[test]
fn flooding_tenant_cannot_starve_another() {
    let quick = "FROM centos:7\nRUN echo hello\n";
    let farm = BuildFarm::new(FarmConfig::new(2).with_tenant_max_running(1));
    for i in 0..12 {
        farm.try_submit(BuildRequest::new(
            "flood",
            quick,
            BuildOptions::new(&format!("f{i}")),
        ))
        .unwrap();
    }
    // Submitted last, behind twelve queued flood builds.
    farm.try_submit(BuildRequest::new("victim", quick, BuildOptions::new("v0")))
        .unwrap();
    let results = farm.drain();
    assert_eq!(results.len(), 13);
    for result in &results {
        assert!(result.report.success, "{:?}", result.report.error);
    }
    // Every submission precedes `drain`, so the queue alone decides the
    // admission order: with round-robin across tenants and a per-tenant
    // in-flight cap of one, the victim is admitted right after the first
    // flood build, not after the flood drains. Completion order would also
    // depend on how the worker threads are scheduled.
    let mut admitted: Vec<(usize, &str)> = results
        .iter()
        .map(|r| (r.admission, r.tenant.as_str()))
        .collect();
    admitted.sort();
    assert!(
        admitted.iter().map(|a| a.0).eq(0..13),
        "one admission each: {admitted:?}"
    );
    assert_eq!(
        admitted[..2],
        [(0, "flood"), (1, "victim")],
        "victim starved by the flood"
    );
}

#[test]
fn backpressure_is_typed_not_a_panic() {
    let quick = "FROM centos:7\nRUN echo hello\n";
    let farm = BuildFarm::new(
        FarmConfig::new(1)
            .with_queue_capacity(2)
            .with_tenant_queue_cap(1),
    );
    farm.try_submit(BuildRequest::new("a", quick, BuildOptions::new("a1")))
        .unwrap();
    let err = farm
        .try_submit(BuildRequest::new("a", quick, BuildOptions::new("a2")))
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::TenantLimit {
            tenant: "a".to_string(),
            limit: 1
        }
    );
    farm.try_submit(BuildRequest::new("b", quick, BuildOptions::new("b1")))
        .unwrap();
    let err = farm
        .try_submit(BuildRequest::new("c", quick, BuildOptions::new("c1")))
        .unwrap_err();
    assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
    let stats = farm.stats().snapshot();
    assert_eq!(stats["a"].rejected, 1);
    assert_eq!(stats["c"].rejected, 1);
    let results = farm.drain();
    assert_eq!(results.len(), 2);
    assert_eq!(farm.queued(), 0);
    assert_eq!(farm.active_jobs(), 0);
}

#[test]
fn parse_and_execution_failures_finish_as_results_not_wedges() {
    let farm = BuildFarm::new(FarmConfig::new(2));
    farm.try_submit(BuildRequest::new(
        "a",
        "RUN echo no-from\n",
        BuildOptions::new("bad"),
    ))
    .unwrap();
    // The paper's unmodified CentOS 7 Dockerfile fails mid-build under a
    // Type III builder (cpio: chown).
    farm.try_submit(BuildRequest::new(
        "a",
        centos7_dockerfile(),
        BuildOptions::new("execfail"),
    ))
    .unwrap();
    farm.try_submit(BuildRequest::new(
        "a",
        "FROM centos:7\nRUN echo hello\n",
        BuildOptions::new("good"),
    ))
    .unwrap();
    let results = farm.drain();
    assert_eq!(results.len(), 3);
    let bad = results.iter().find(|r| r.report.tag == "bad").unwrap();
    assert!(!bad.report.success);
    assert!(bad.report.error.is_some());
    let execfail = results.iter().find(|r| r.report.tag == "execfail").unwrap();
    assert!(!execfail.report.success);
    assert!(execfail.report.error.is_some());
    let good = results.iter().find(|r| r.report.tag == "good").unwrap();
    assert!(good.report.success);
    assert_eq!(farm.queued(), 0);
    assert_eq!(farm.active_jobs(), 0);
    let stats = farm.stats().snapshot();
    assert_eq!(stats["a"].completed, 1);
    assert_eq!(stats["a"].failed, 2);
}

/// A four-stage diamond (shared base, two independent middles, assembling
/// final stage) so the stress run exercises stage-granular work stealing.
const DIAMOND: &str = "FROM centos:7 AS base\n\
     RUN yum install -y gcc\n\
     FROM base AS mpi\n\
     RUN yum install -y openmpi\n\
     RUN mkdir -p /opt/artifacts\n\
     RUN echo mpi > /opt/artifacts/mpi\n\
     FROM base AS tools\n\
     RUN mkdir -p /opt/artifacts\n\
     RUN echo tools > /opt/artifacts/tools\n\
     FROM centos:7\n\
     COPY --from=mpi /opt/artifacts/mpi /opt/final/mpi\n\
     COPY --from=tools /opt/artifacts/tools /opt/final/tools\n\
     RUN echo assembled\n";

fn tenant_jobs(tenant: &str) -> Vec<(String, String)> {
    vec![
        // 100% overlap across tenants.
        ("shared".to_string(), centos7_fr_dockerfile().to_string()),
        // Multi-stage, overlapping.
        ("diamond".to_string(), DIAMOND.to_string()),
        // Tenant-unique tail after a shared prefix.
        (
            "private".to_string(),
            format!("FROM centos:7\nRUN echo {tenant} > /opt/private\nRUN echo hello\n"),
        ),
    ]
}

#[test]
fn stress_matches_serial_replay_with_zero_queue_leaks() {
    let tenants: Vec<String> = (0..6).map(|i| format!("team{i}")).collect();
    let farm = BuildFarm::new(FarmConfig::new(8));
    let mut submitted = 0;
    for tenant in &tenants {
        for (tag, dockerfile) in tenant_jobs(tenant) {
            farm.try_submit(BuildRequest::new(
                tenant,
                &dockerfile,
                BuildOptions::new(&tag).with_cache(),
            ))
            .unwrap();
            submitted += 1;
        }
    }
    let results = farm.drain();
    assert_eq!(results.len(), submitted);
    for result in &results {
        assert!(
            result.report.success,
            "{}/{}: {:?}",
            result.tenant, result.report.tag, result.report.error
        );
    }
    // Zero queue leaks: nothing queued, nothing in flight, every submission
    // accounted for in the per-tenant counters.
    assert_eq!(farm.queued(), 0);
    assert_eq!(farm.active_jobs(), 0);
    let stats = farm.stats().snapshot();
    for tenant in &tenants {
        let s = &stats[tenant.as_str()];
        assert_eq!(s.submitted, 3, "{tenant}");
        assert_eq!(s.completed, 3, "{tenant}");
        assert_eq!(s.failed, 0, "{tenant}");
        assert_eq!(s.rejected, 0, "{tenant}");
    }
    // Determinism: every tenant's images are bit-identical to a serial
    // replay of the same requests on a fresh builder with a private cache —
    // shared-cache adoption must never leak another tenant's bytes in.
    for tenant in &tenants {
        let mut replay = Builder::ch_image(Invoker::user(tenant, 1000, 1000));
        for (tag, dockerfile) in tenant_jobs(tenant) {
            let opts = BuildOptions::new(&tag).with_cache();
            let report = replay.build(&dockerfile, &opts, None);
            assert!(report.success, "{tenant}/{tag}: {:?}", report.error);
            assert_eq!(
                image_fingerprint(&farm, tenant, &tag),
                fingerprint(&replay.image(&tag).unwrap().fs),
                "{tenant}/{tag} diverged from serial replay"
            );
        }
    }
}
