//! Multi-site, multi-architecture CI/CD (paper §6.3).
//!
//! The paper's impact section argues that low-privilege build "will allow
//! CI/CD pipelines to execute directly on supercomputing resources … perhaps
//! in parallel across multiple supercomputers or node types to automatically
//! produce specialized container images." This module runs that pipeline:
//! one CI job per site builds the same Dockerfile on that site's login-node
//! architecture with a fully unprivileged `ch-image --force` build, pushes the
//! result to a shared OCI registry, and the registry's multi-architecture
//! index accretes one entry per architecture. Compute nodes at every site can
//! then pull the variant matching their own CPUs — the problem that motivated
//! building on Astra in the first place (§4.2) disappears.

use std::collections::HashMap;

use hpcc_core::{push_to_oci, BuildOptions, LayerMode};
use hpcc_farm::{BuildFarm, BuildRequest, FarmConfig, FarmResult};
use hpcc_image::Digest;
use hpcc_oci::{DistributionRegistry, Platform};
use hpcc_runtime::Invoker;

use crate::cluster::Cluster;

/// One participating site: a machine plus the CI user that builds there.
#[derive(Debug, Clone)]
pub struct Site {
    /// Site name used in reports (e.g. `astra`, `generic-x86`).
    pub name: String,
    /// The machine.
    pub cluster: Cluster,
    /// The CI user running the build job on the login node.
    pub invoker: Invoker,
}

impl Site {
    /// A site around an existing cluster.
    pub fn new(name: &str, cluster: Cluster, invoker: Invoker) -> Self {
        Site {
            name: name.to_string(),
            cluster,
            invoker,
        }
    }

    /// The architecture CI builds target at this site (the login node's).
    pub fn arch(&self) -> String {
        self.cluster
            .login_nodes()
            .first()
            .map(|n| n.arch.clone())
            .unwrap_or_else(|| "x86_64".to_string())
    }
}

/// Result of one site's CI job.
#[derive(Debug, Clone)]
pub struct SiteBuildResult {
    /// Site name.
    pub site: String,
    /// Architecture built for.
    pub arch: String,
    /// Whether the unprivileged build succeeded.
    pub build_ok: bool,
    /// RUN instructions rewritten by `--force`.
    pub instructions_modified: usize,
    /// Manifest digest in the registry, if the push succeeded.
    pub manifest_digest: Option<Digest>,
    /// Whether a compute node at this site could pull its own architecture
    /// back out of the registry afterwards.
    pub pull_ok: bool,
}

/// Report of a whole multi-site pipeline run.
#[derive(Debug, Clone)]
pub struct MultiSiteReport {
    /// Per-site results, in input order.
    pub results: Vec<SiteBuildResult>,
    /// Platforms present in the registry's index for the pushed tag.
    pub index_platforms: Vec<Platform>,
    /// True if every site built, pushed, and pulled successfully.
    pub success: bool,
}

/// Runs the §6.3 pipeline: every site builds `dockerfile_text` for its own
/// architecture in parallel (one CI job per site), pushes to `repo:tag` in the
/// shared registry, and finally verifies that each site's compute nodes can
/// pull their own architecture.
///
/// Builds run concurrently through a [`BuildFarm`]: each site is one tenant
/// (its CI user is the tenant's invoker), with one worker per site draining
/// the queue. Stage tasks of a multi-stage Dockerfile are work-stolen across
/// the pool, and sites sharing a launch identity *and* architecture dedup
/// cached instruction prefixes; differing architectures partition the cache
/// key, so no site ever adopts another architecture's tree. Registry pushes
/// are serialized, as they would be by the registry service itself.
pub fn multisite_ci(
    sites: &[Site],
    dockerfile_text: &str,
    registry: &mut DistributionRegistry,
    repo: &str,
    tag: &str,
) -> MultiSiteReport {
    // Phase 1: every site's CI job goes through one farm.
    let farm = BuildFarm::new(FarmConfig::new(sites.len()));
    for site in sites {
        let request = BuildRequest::new(
            &site.name,
            dockerfile_text,
            BuildOptions::new(tag).with_force().with_arch(&site.arch()),
        )
        .with_invoker(site.invoker.clone());
        farm.try_submit(request)
            .expect("default farm queue depth holds one build per site");
    }
    let mut by_site: HashMap<String, FarmResult> = farm
        .drain()
        .into_iter()
        .map(|r| (r.tenant.clone(), r))
        .collect();

    // Phase 2: serialized pushes into the shared registry, then per-site pull
    // verification from a compute node of the site's architecture.
    let mut results = Vec::with_capacity(sites.len());
    for site in sites {
        let arch = site.arch();
        let outcome = by_site.remove(&site.name);
        let (build_ok, modified) = outcome
            .as_ref()
            .map(|r| {
                (
                    r.report.success,
                    r.report
                        .stages
                        .iter()
                        .map(|s| s.instructions_modified)
                        .sum(),
                )
            })
            .unwrap_or((false, 0));
        let mut manifest_digest = None;
        if build_ok {
            if let Some(builder) = farm.tenant_builder(&site.name) {
                let builder = hpcc_kernel::sync::read_recover(&builder);
                manifest_digest = push_to_oci(
                    &builder,
                    tag,
                    registry,
                    repo,
                    tag,
                    LayerMode::SingleFlattened,
                )
                .ok()
                .map(|r| r.manifest_digest);
            }
        }
        let platform = Platform::from_uname(&arch).unwrap_or_else(Platform::linux_amd64);
        let pull_ok = manifest_digest.is_some()
            && registry
                .pull_for_platform(&site.invoker.name, repo, tag, &platform)
                .is_ok();
        results.push(SiteBuildResult {
            site: site.name.clone(),
            arch,
            build_ok,
            instructions_modified: modified,
            manifest_digest,
            pull_ok,
        });
    }
    let index_platforms = registry
        .index(repo, tag)
        .map(|i| i.platforms())
        .unwrap_or_default();
    let success = results.iter().all(|r| r.build_ok && r.pull_ok);
    MultiSiteReport {
        results,
        index_platforms,
        success,
    }
}

/// The two-site configuration the paper implies: Astra (aarch64) plus a
/// generic x86-64 machine, with the same CI user at both.
pub fn astra_plus_x86_sites(user: &str, uid: u32) -> Vec<Site> {
    vec![
        Site::new("astra", Cluster::astra(4), Invoker::user(user, uid, uid)),
        Site::new(
            "generic-x86",
            Cluster::generic_x86(4),
            Invoker::user(user, uid, uid),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_core::centos7_dockerfile;

    fn registry() -> DistributionRegistry {
        DistributionRegistry::new("registry.example.gov", &["ci-runner"])
    }

    #[test]
    fn two_sites_produce_a_two_platform_index() {
        let sites = astra_plus_x86_sites("ci-runner", 6000);
        let mut reg = registry();
        let report = multisite_ci(&sites, centos7_dockerfile(), &mut reg, "atse/app", "1.0");
        assert!(report.success, "{:?}", report.results);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.index_platforms.len(), 2);
        let archs: Vec<String> = report.results.iter().map(|r| r.arch.clone()).collect();
        assert!(archs.contains(&"aarch64".to_string()));
        assert!(archs.contains(&"x86_64".to_string()));
        // Every site's build needed --force rewrites (the openssh install).
        assert!(report.results.iter().all(|r| r.instructions_modified > 0));
    }

    #[test]
    fn each_site_pulls_its_own_architecture() {
        let sites = astra_plus_x86_sites("ci-runner", 6000);
        let mut reg = registry();
        let report = multisite_ci(&sites, centos7_dockerfile(), &mut reg, "atse/app", "2.0");
        assert!(report.results.iter().all(|r| r.pull_ok));
        // An architecture nobody built remains unavailable.
        assert!(reg
            .pull_for_platform("ci-runner", "atse/app", "2.0", &Platform::linux_ppc64le())
            .is_err());
    }

    #[test]
    fn multistage_dockerfile_builds_at_every_site() {
        // Each site's CI job runs the stage graph: the compile stage feeds
        // the runtime stage via COPY --from, per architecture.
        let text = "\
FROM centos:7 AS compile
RUN yum install -y gcc
RUN mkdir -p /opt/app/bin && echo app > /opt/app/bin/app

FROM centos:7
COPY --from=compile /opt/app/bin/app /usr/local/bin/app
RUN yum install -y openssh
";
        let sites = astra_plus_x86_sites("ci-runner", 6000);
        let mut reg = registry();
        let report = multisite_ci(&sites, text, &mut reg, "atse/ms", "1.0");
        assert!(report.success, "{:?}", report.results);
        assert_eq!(report.index_platforms.len(), 2);
    }

    #[test]
    fn single_site_index_has_one_platform() {
        let sites = vec![Site::new(
            "astra",
            Cluster::astra(2),
            Invoker::user("ci-runner", 6000, 6000),
        )];
        let mut reg = registry();
        let report = multisite_ci(&sites, centos7_dockerfile(), &mut reg, "atse/app", "3.0");
        assert!(report.success);
        assert_eq!(report.index_platforms.len(), 1);
        assert_eq!(report.index_platforms[0], Platform::linux_arm64());
    }
}
