//! End-to-end workflows from the paper.
//!
//! * [`astra_workflow`] — Figure 6: `podman build` on an Astra login node,
//!   push to an OCI registry, then parallel distributed launch on compute
//!   nodes with an HPC runtime (Charliecloud-style Type III).
//! * [`lanl_ci_pipeline`] — §5.3.3: a production CI pipeline of three chained
//!   Dockerfiles (OpenMPI → Spack environment → application), built and
//!   validated on supercomputer nodes with `ch-image --force`.

use std::sync::Mutex;

use hpcc_core::{BuildOptions, Builder, BuilderKind, PushOwnership};
use hpcc_image::Registry;
use hpcc_runtime::{check_arch, Container, Invoker, StorageDriver, SubIdDb};

use crate::cluster::{Cluster, Scheduler};

/// Outcome of one node's container launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLaunch {
    /// Node name.
    pub node: String,
    /// Whether the containerized application started.
    pub success: bool,
    /// Diagnostic message.
    pub detail: String,
}

/// Report of a full workflow run.
#[derive(Debug, Clone)]
pub struct WorkflowReport {
    /// Narrative transcript of the workflow steps.
    pub transcript: Vec<String>,
    /// Whether every step succeeded.
    pub success: bool,
    /// Per-node launch results for the distributed-run step.
    pub launches: Vec<NodeLaunch>,
}

impl WorkflowReport {
    /// Transcript as one string.
    pub fn transcript_text(&self) -> String {
        self.transcript.join("\n")
    }
}

/// The ATSE-style Dockerfile built on Astra (compilers, MPI, third-party
/// libraries, test application — paper §4.2).
pub fn atse_dockerfile() -> &'static str {
    "FROM centos:7\n\
     RUN yum install -y gcc\n\
     RUN yum install -y openmpi\n\
     RUN yum install -y spack\n\
     RUN yum install -y atse-env\n\
     RUN fakeroot yum install -y openssh || yum install -y openssh\n\
     ENV ATSE_VERSION=1.2.5\n\
     LABEL org.atse.stack=\"full\"\n\
     CMD [\"/usr/lib64/openmpi/bin/mpirun\", \"atse-app\"]\n"
}

/// Figure 6: build on the login node with rootless Podman (Type II), push to
/// the site registry, and launch in parallel on `node_count` compute nodes
/// with a Type III runtime.
pub fn astra_workflow(
    cluster: &Cluster,
    registry: &mut Registry,
    user: &str,
    uid: u32,
    node_count: usize,
) -> WorkflowReport {
    let mut transcript = Vec::new();
    let mut launches = Vec::new();
    let login = match cluster.login_nodes().first() {
        Some(n) => (*n).clone(),
        None => {
            return WorkflowReport {
                transcript: vec!["no login node available".to_string()],
                success: false,
                launches,
            }
        }
    };
    let invoker = Invoker::user(user, uid, uid);
    transcript.push(format!(
        "[1/4] podman build on {} ({}, {})",
        login.name,
        login.arch,
        if login.sysctl.has_nfs_xattrs() {
            "RHEL8"
        } else {
            "RHEL7"
        }
    ));
    // Container storage must be node-local: the shared filesystem cannot hold
    // the UID-mapped store (paper §4.2).
    let mut subuid = SubIdDb::new();
    subuid.add_range(user, 200_000, 65_536);
    let mut builder = Builder::new(
        BuilderKind::RootlessPodman {
            subuid,
            driver: if login.sysctl.kernel_version >= (4, 18) {
                StorageDriver::FuseOverlayFs
            } else {
                StorageDriver::Vfs
            },
            backend: login.local_storage,
            sysctl: login.sysctl.clone(),
        },
        invoker.clone(),
    );
    let tag = "atse";
    let build = builder.build(
        atse_dockerfile(),
        &BuildOptions::new(tag).with_arch(&login.arch),
        None,
    );
    transcript.extend(build.transcript().iter().map(|l| format!("    {}", l)));
    if !build.success {
        transcript.push("build failed; aborting workflow".to_string());
        return WorkflowReport {
            transcript,
            success: false,
            launches,
        };
    }

    transcript.push("[2/4] push to OCI registry (GitLab container registry)".to_string());
    let reference = format!("atse/app:{}", login.arch);
    match builder.push(tag, &reference, registry, PushOwnership::Preserve) {
        Ok(digest) => transcript.push(format!("    pushed {} ({})", reference, digest.short())),
        Err(e) => {
            transcript.push(format!("    push failed: {}", e));
            return WorkflowReport {
                transcript,
                success: false,
                launches,
            };
        }
    }

    transcript.push(format!("[3/4] allocate {} compute nodes", node_count));
    let mut scheduler = Scheduler::new(cluster);
    let job = scheduler.submit("atse-run", node_count);
    let allocation = scheduler
        .job(job)
        .map(|j| j.allocation.clone())
        .unwrap_or_default();
    if allocation.len() < node_count {
        transcript.push("    insufficient compute nodes".to_string());
        return WorkflowReport {
            transcript,
            success: false,
            launches,
        };
    }

    transcript.push("[4/4] parallel distributed launch with an HPC container runtime".to_string());
    let image = match registry.pull(&reference) {
        Ok(i) => i,
        Err(e) => {
            transcript.push(format!("    pull failed: {}", e));
            return WorkflowReport {
                transcript,
                success: false,
                launches,
            };
        }
    };
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for node_name in &allocation {
            let node = cluster.node(node_name).cloned();
            let image = image.clone();
            let invoker = invoker.clone();
            let results = &results;
            scope.spawn(move || {
                let outcome = match node {
                    Some(node) => match check_arch(&image, &node.arch) {
                        Ok(()) => match Container::launch_type3(&image, &invoker) {
                            Ok(c) => {
                                let runnable =
                                    c.rootfs.exists(&c.actor(), "/usr/lib64/openmpi/bin/mpirun")
                                        && c.rootfs.exists(&c.actor(), "/opt/atse/bin/atse-config");
                                NodeLaunch {
                                    node: node.name.clone(),
                                    success: runnable,
                                    detail: if runnable {
                                        "mpirun atse-app".to_string()
                                    } else {
                                        "application missing from image".to_string()
                                    },
                                }
                            }
                            Err(e) => NodeLaunch {
                                node: node.name.clone(),
                                success: false,
                                detail: format!("launch failed: {}", e),
                            },
                        },
                        Err(_) => NodeLaunch {
                            node: node.name.clone(),
                            success: false,
                            detail: format!(
                                "exec format error: image is {}, node is {}",
                                image.config.architecture, node.arch
                            ),
                        },
                    },
                    None => NodeLaunch {
                        node: node_name.clone(),
                        success: false,
                        detail: "unknown node".to_string(),
                    },
                };
                hpcc_kernel::sync::lock_recover(results).push(outcome);
            });
        }
    });
    launches = results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    launches.sort_by(|a, b| a.node.cmp(&b.node));
    let all_ok = launches.iter().all(|l| l.success);
    for l in &launches {
        transcript.push(format!(
            "    {}: {} ({})",
            l.node,
            if l.success { "ok" } else { "FAILED" },
            l.detail
        ));
    }
    scheduler.complete(job, all_ok);
    WorkflowReport {
        transcript,
        success: all_ok,
        launches,
    }
}

/// The LANL production pipeline (§5.3.3) as one multi-stage Dockerfile: the
/// OpenMPI toolchain and the Spack environment are *independent* stages the
/// build graph executes concurrently, and the application stage assembles
/// both via `COPY --from` — the single-file, stage-graph form of
/// [`lanl_pipeline_dockerfiles`].
pub fn lanl_multistage_dockerfile() -> &'static str {
    "\
FROM centos:7 AS toolchain
RUN yum install -y gcc
RUN yum install -y openmpi
RUN yum install -y openssh

FROM centos:7 AS spack-env
RUN yum install -y gcc
RUN yum install -y spack
RUN /opt/spack/bin/spack install app-deps

FROM centos:7
RUN yum install -y gcc
COPY --from=toolchain /usr/lib64/openmpi /usr/lib64/openmpi
COPY --from=spack-env /opt/spack /opt/spack
COPY app.c /src/app.c
RUN gcc -o /usr/bin/app /src/app.c
CMD [\"/usr/bin/app\"]
"
}

/// The three Dockerfiles of the LANL production pipeline (§5.3.3): OpenMPI
/// base, Spack environment, application.
pub fn lanl_pipeline_dockerfiles() -> [(&'static str, &'static str); 3] {
    [
        (
            "openmpi",
            "FROM centos:7\nRUN yum install -y gcc\nRUN yum install -y openmpi\nRUN yum install -y openssh\n",
        ),
        (
            "spack-env",
            "FROM openmpi\nRUN yum install -y spack\nRUN /opt/spack/bin/spack install app-deps\n",
        ),
        (
            "app",
            "FROM spack-env\nCOPY app.c /src/app.c\nRUN gcc -o /usr/bin/app /src/app.c\nCMD [\"/usr/bin/app\"]\n",
        ),
    ]
}

/// §5.3.3: build the three chained images with `ch-image --force` on compute
/// nodes, push the final image to a private registry, then pull it back and
/// run the validation stage.
pub fn lanl_ci_pipeline(
    cluster: &Cluster,
    registry: &mut Registry,
    user: &str,
    uid: u32,
) -> WorkflowReport {
    let mut transcript = Vec::new();
    let invoker = Invoker::user(user, uid, uid);
    let arch = cluster
        .compute_nodes()
        .first()
        .map(|n| n.arch.clone())
        .unwrap_or_else(|| "x86_64".to_string());
    let mut scheduler = Scheduler::new(cluster);
    let build_job = scheduler.submit("ci-build", 1);
    transcript.push(format!(
        "stage build: job {} on {:?}",
        build_job,
        scheduler.job(build_job).unwrap().allocation
    ));

    // Build context containing the application source.
    let mut context = hpcc_vfs::Filesystem::new_local();
    context
        .install_file(
            "/app.c",
            b"int main(){return 0;}".to_vec(),
            hpcc_kernel::Uid(0),
            hpcc_kernel::Gid(0),
            hpcc_vfs::Mode::FILE_644,
        )
        .unwrap();

    let mut builder = Builder::ch_image(invoker.clone());
    for (tag, dockerfile) in lanl_pipeline_dockerfiles() {
        let report = builder.build(
            dockerfile,
            &BuildOptions::new(tag)
                .with_force()
                .with_cache()
                .with_arch(&arch),
            Some(&context),
        );
        transcript.push(format!(
            "  ch-image build --force -t {} : {} ({} instructions, {} modified)",
            tag,
            if report.success { "ok" } else { "FAILED" },
            report.instructions_total,
            report.instructions_modified
        ));
        if !report.success {
            transcript.extend(report.transcript().iter().map(|l| format!("    {}", l)));
            scheduler.complete(build_job, false);
            return WorkflowReport {
                transcript,
                success: false,
                launches: Vec::new(),
            };
        }
    }
    let reference = format!("lanl/app:{}", arch);
    match builder.push("app", &reference, registry, PushOwnership::Flatten) {
        Ok(d) => transcript.push(format!("  pushed {} ({})", reference, d.short())),
        Err(e) => {
            transcript.push(format!("  push failed: {}", e));
            scheduler.complete(build_job, false);
            return WorkflowReport {
                transcript,
                success: false,
                launches: Vec::new(),
            };
        }
    }
    scheduler.complete(build_job, true);

    // Validation stage: pull the image and run the test suite on a compute node.
    let validate_job = scheduler.submit("ci-validate", 1);
    transcript.push(format!(
        "stage validate: job {} on {:?}",
        validate_job,
        scheduler.job(validate_job).unwrap().allocation
    ));
    let image = match registry.pull(&reference) {
        Ok(i) => i,
        Err(e) => {
            transcript.push(format!("  pull failed: {}", e));
            return WorkflowReport {
                transcript,
                success: false,
                launches: Vec::new(),
            };
        }
    };
    let launch = match Container::launch_type3(&image, &invoker) {
        Ok(c) => {
            let ok = c.rootfs.exists(&c.actor(), "/usr/bin/app")
                && c.rootfs.exists(&c.actor(), "/usr/lib64/openmpi/bin/mpirun");
            NodeLaunch {
                node: scheduler
                    .job(validate_job)
                    .and_then(|j| j.allocation.first().cloned())
                    .unwrap_or_default(),
                success: ok,
                detail: if ok {
                    "test suite passed".to_string()
                } else {
                    "application binary missing".to_string()
                },
            }
        }
        Err(e) => NodeLaunch {
            node: String::new(),
            success: false,
            detail: format!("launch failed: {}", e),
        },
    };
    transcript.push(format!(
        "  validate on {}: {}",
        launch.node,
        if launch.success { "ok" } else { "FAILED" }
    ));
    let success = launch.success;
    scheduler.complete(validate_job, success);
    WorkflowReport {
        transcript,
        success,
        launches: vec![launch],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn astra_workflow_end_to_end() {
        let cluster = Cluster::astra(4);
        let mut registry = Registry::new("registry.sandia.example");
        let report = astra_workflow(&cluster, &mut registry, "ajyoung", 5432, 4);
        assert!(report.success, "{}", report.transcript_text());
        assert_eq!(report.launches.len(), 4);
        assert!(report.launches.iter().all(|l| l.success));
        // The image pushed is aarch64.
        let img = registry.pull("atse/app:aarch64").unwrap();
        assert_eq!(img.config.architecture, "aarch64");
        assert_eq!(registry.tags("atse/app"), ["aarch64"]);
    }

    #[test]
    fn x86_image_fails_on_astra_nodes() {
        // The motivation for building on Astra in the first place (§4.2):
        // existing x86_64 containers will not execute on aarch64.
        let astra = Cluster::astra(2);
        let generic = Cluster::generic_x86(1);
        let mut registry = Registry::new("r");
        // Build on the x86 cluster and push.
        let report = astra_workflow(&generic, &mut registry, "alice", 1000, 1);
        assert!(report.success);
        let image = registry.pull("atse/app:x86_64").unwrap();
        // Launching that image on an Astra node is refused.
        let node = astra.compute_nodes()[0];
        assert!(check_arch(&image, &node.arch).is_err());
    }

    #[test]
    fn lanl_ci_pipeline_builds_validates() {
        let cluster = Cluster::generic_x86(3);
        let mut registry = Registry::new("gitlab.lanl.example");
        let report = lanl_ci_pipeline(&cluster, &mut registry, "builder", 2000);
        assert!(report.success, "{}", report.transcript_text());
        let t = report.transcript_text();
        assert!(t.contains("ch-image build --force -t openmpi : ok"));
        assert!(t.contains("ch-image build --force -t spack-env : ok"));
        assert!(t.contains("ch-image build --force -t app : ok"));
        assert!(t.contains("stage validate"));
        // The pushed image is flattened: a single recorded owner.
        let img = registry.pull("lanl/app:x86_64").unwrap();
        assert_eq!(img.distinct_recorded_uids(), 1);
    }

    #[test]
    fn workflow_fails_gracefully_without_compute_nodes() {
        let cluster = Cluster::astra(0);
        let mut registry = Registry::new("r");
        let report = astra_workflow(&cluster, &mut registry, "alice", 1000, 2);
        assert!(!report.success);
        assert!(report
            .transcript_text()
            .contains("insufficient compute nodes"));
    }
}
