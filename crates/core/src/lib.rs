//! `hpcc-core`: low-privilege HPC container build — the paper's primary
//! contribution.
//!
//! A Dockerfile interpreter plus three builders matching the privilege
//! taxonomy: a Docker-style Type I baseline, a rootless-Podman-style Type II
//! builder (privileged user-namespace maps), and a Charliecloud `ch-image`
//! style Type III builder with optional `--force` automatic injection of
//! `fakeroot(1)` workarounds (paper §5.3), a per-instruction build cache
//! (§6.1 item 3), and registry push/pull with ownership flattening (§6.1) or
//! fakeroot-database ownership reconstruction (§6.2.2).
//!
//! The build pipeline is three layers over one instruction set:
//!
//! 1. **Front end** — [`dockerfile`] tokenizes (the *only* tokenizer) and
//!    [`ir`] lowers the instruction list into a stage-aware [`ir::BuildIr`].
//! 2. **Planner** — [`graph`] resolves `COPY --from=` / `FROM <alias>`
//!    references into a stage DAG, rejecting unknown, forward, self, and
//!    cyclic references at plan time.
//! 3. **Executor** — per-instruction handlers run each stage
//!    ([`execute_stage`]), and one state machine, [`GraphRun`], releases
//!    each stage once its dependencies succeed, skips the rest, and folds
//!    the stage reports into one [`BuildReport`]. Serial and scoped-thread
//!    drivers run it behind [`Builder::build`], and the build farm's
//!    workers run it too, so every way of running a build returns the same
//!    report. Stages share a digest-keyed build cache and pass artifacts
//!    as CoW snapshots.
//!
//! A multi-stage Dockerfile is the single-file form of the §5.3.3
//! chained-Dockerfile pipeline; [`ocipush`] exports built images to an OCI
//! distribution registry as single flattened layers or base-plus-diff layer
//! stacks, carrying the §6.2.5 flatten annotation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod cache;
pub mod dockerfile;
pub mod error;
pub mod executor;
pub mod force;
pub mod graph;
pub mod ir;
#[cfg(test)]
mod multistage;
pub mod ocipush;

pub use builder::{
    default_subuid_for, BaseEnvMemo, BuildOptions, BuildReport, Builder, BuilderKind, BuiltImage,
    PushOwnership, StageReport,
};
pub use cache::{
    BuildCache, CacheOutcome, CachedState, FlightGuard, ShardedBuildCache, CACHE_SHARDS,
};
pub use dockerfile::{
    centos7_dockerfile, centos7_fr_dockerfile, debian10_dockerfile, debian10_fr_dockerfile,
    Dockerfile, InstrSpan, Instruction, ParseError,
};
pub use error::BuildError;
pub use executor::{execute_stage, GraphRun, StageArtifact};
pub use force::{detect_config, ForceConfig, InitStep};
pub use graph::{BuildGraph, CopyFromEdge, GraphNode, StageBase};
pub use ir::{BuildIr, IrStage};
pub use ocipush::{push_to_oci, LayerMode, OciPushReport};
