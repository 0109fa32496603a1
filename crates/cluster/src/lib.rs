//! `hpcc-cluster`: an HPC cluster substrate (nodes, shared filesystems, a
//! FIFO scheduler) hosting the paper's end-to-end workflows — the Astra
//! container DevOps workflow of Figure 6, the LANL three-Dockerfile CI
//! pipeline of §5.3.3, and the multi-site multi-architecture CI/CD of §6.3 —
//! with parallel distributed container launch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod multisite;
pub mod workflow;

pub use cluster::{Cluster, Job, JobState, Node, NodeKind, Scheduler};
pub use multisite::{astra_plus_x86_sites, multisite_ci, MultiSiteReport, Site, SiteBuildResult};
pub use workflow::{
    astra_workflow, atse_dockerfile, lanl_ci_pipeline, lanl_pipeline_dockerfiles, NodeLaunch,
    WorkflowReport,
};
