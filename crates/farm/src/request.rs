//! Build requests, farm configuration, and typed submission errors.

use hpcc_core::{BuildOptions, BuilderKind};
use hpcc_runtime::Invoker;
use hpcc_vfs::Filesystem;

/// One tenant's request for one build.
#[derive(Clone)]
pub struct BuildRequest {
    /// Tenant identifier: the fairness and stats unit. Each tenant gets its
    /// own `Builder` (tag namespace) over the farm's shared cache and
    /// base-environment memo.
    pub tenant: String,
    /// Dockerfile text to build.
    pub dockerfile: String,
    /// Build options (tag, cache, force, arch, build args).
    pub options: BuildOptions,
    /// Build-context filesystem for `COPY` instructions.
    pub context: Option<Filesystem>,
    /// The invoking user the tenant's builder runs as. The first request
    /// seen for a tenant fixes its builder's invoker; later requests from
    /// the same tenant reuse that builder.
    pub invoker: Invoker,
}

impl BuildRequest {
    /// A request for `tenant` with a default unprivileged invoker (uid/gid
    /// 1000, named after the tenant). Tenants sharing this default uid share
    /// cached instruction prefixes; distinct uids partition the cache by
    /// launch identity.
    pub fn new(tenant: &str, dockerfile: &str, options: BuildOptions) -> Self {
        BuildRequest {
            tenant: tenant.to_string(),
            dockerfile: dockerfile.to_string(),
            options,
            context: None,
            invoker: Invoker::user(tenant, 1000, 1000),
        }
    }

    /// Sets the invoking user.
    pub fn with_invoker(mut self, invoker: Invoker) -> Self {
        self.invoker = invoker;
        self
    }

    /// Sets the build-context filesystem.
    pub fn with_context(mut self, context: Filesystem) -> Self {
        self.context = Some(context);
        self
    }
}

/// Why a submission was rejected. Backpressure is a typed error, never a
/// panic: callers decide whether to retry, shed, or block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The farm-wide queue is at capacity.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The tenant's own queue slice is at capacity.
    TenantLimit {
        /// The tenant whose slice is full.
        tenant: String,
        /// The configured per-tenant bound that was hit.
        limit: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "build queue full (capacity {})", capacity)
            }
            SubmitError::TenantLimit { tenant, limit } => {
                write!(f, "tenant {} at queue limit ({})", tenant, limit)
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Farm sizing and fairness knobs.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker threads draining the queue (at least 1).
    pub workers: usize,
    /// Farm-wide queued-build bound; submissions beyond it get
    /// [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant queued-build bound; `None` leaves tenants bounded only by
    /// the farm-wide capacity.
    pub per_tenant_queue_cap: Option<usize>,
    /// Maximum builds of one tenant in flight at once. Admission skips
    /// tenants at this cap (round-robin moves on to the next tenant), so a
    /// flooding tenant cannot occupy every worker.
    pub per_tenant_max_running: usize,
    /// The builder kind every tenant's builder is created with.
    pub kind: BuilderKind,
}

impl FarmConfig {
    /// A config with `workers` workers, a 1024-deep queue, no per-tenant
    /// queue cap, a per-tenant in-flight cap equal to the worker count, and
    /// `ch-image` (Type III) builders.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        FarmConfig {
            workers,
            queue_capacity: 1024,
            per_tenant_queue_cap: None,
            per_tenant_max_running: workers,
            kind: BuilderKind::ChImage,
        }
    }

    /// Sets the farm-wide queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-tenant in-flight cap.
    pub fn with_tenant_max_running(mut self, cap: usize) -> Self {
        self.per_tenant_max_running = cap.max(1);
        self
    }
}
