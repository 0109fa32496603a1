//! `hpcc-farm`: a multi-tenant build farm over the shared build cache.
//!
//! The per-build parallelism of the core pipeline (independent stages of one
//! `BuildGraph` execute concurrently) becomes system-level traffic handling
//! here: a [`BuildFarm`] accepts [`BuildRequest`]s from many tenants into a
//! bounded queue with backpressure ([`BuildFarm::try_submit`] →
//! [`SubmitError::QueueFull`]), and [`BuildFarm::drain`] runs them on a
//! fixed worker pool under `std::thread::scope`.
//!
//! Three properties make the farm more than N builds in N threads:
//!
//! * **Work-stealing at stage granularity.** Each build's planned stage DAG
//!   is decomposed into per-stage tasks on per-worker deques; an idle worker
//!   steals stages from busy ones, so a wide multi-stage build spreads
//!   across the pool instead of serializing behind one worker. Each build's
//!   stages are released and folded by the same [`hpcc_core::GraphRun`]
//!   that drives [`hpcc_core::Builder::build`], so a farm build returns the
//!   same report as a direct one.
//! * **Cross-tenant dedup.** Every tenant's builder shares one
//!   `Arc<ShardedBuildCache>` and one `Arc<BaseEnvMemo>`
//!   ([`hpcc_core::Builder::with_shared`]), so identical instruction
//!   prefixes hit the same digest keys across tenants, and in-flight
//!   deduplication (`ShardedBuildCache::lookup_or_lead`) makes two tenants
//!   racing on the same prefix compute it exactly once — the second waits
//!   on the first's result. Cache keys bind the builder's launch identity,
//!   so tenants with different privilege parameters never adopt each
//!   other's trees.
//! * **Fairness and backpressure.** Admission is FIFO within a tenant and
//!   round-robin across tenants, with a per-tenant in-flight cap
//!   ([`FarmConfig::per_tenant_max_running`]) so one flooding tenant cannot
//!   starve another's single build; queue bounds surface as typed
//!   [`SubmitError`]s, never panics. Per-tenant [`FarmStats`] (submissions,
//!   completions, cache traffic, queue wait, build wall-clock) ride on
//!   atomic counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod queue;
mod request;
mod scheduler;
mod stats;

pub use request::{BuildRequest, FarmConfig, SubmitError};
pub use scheduler::{BuildFarm, FarmResult};
pub use stats::{FarmStats, TenantSnapshot};
