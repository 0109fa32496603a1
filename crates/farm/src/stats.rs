//! Per-tenant farm statistics on atomic counters.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hpcc_kernel::sync::lock_recover;

/// Atomic per-tenant counters, updated lock-free on the build path.
#[derive(Debug, Default)]
pub(crate) struct TenantStats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_wait_ns: AtomicU64,
    build_ns: AtomicU64,
}

impl TenantStats {
    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_finished(
        &self,
        success: bool,
        cache_hits: u64,
        cache_misses: u64,
        queue_wait: Duration,
        build_wall: Duration,
    ) {
        if success {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.cache_hits.fetch_add(cache_hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(cache_misses, Ordering::Relaxed);
        self.queue_wait_ns
            .fetch_add(queue_wait.as_nanos() as u64, Ordering::Relaxed);
        self.build_ns
            .fetch_add(build_wall.as_nanos() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            queue_wait: Duration::from_nanos(self.queue_wait_ns.load(Ordering::Relaxed)),
            build_wall: Duration::from_nanos(self.build_ns.load(Ordering::Relaxed)),
        }
    }
}

/// A consistent-enough copy of one tenant's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected with a [`crate::SubmitError`].
    pub rejected: u64,
    /// Builds that finished successfully.
    pub completed: u64,
    /// Builds that finished with an error (parse, plan, or execution).
    pub failed: u64,
    /// Instruction-cache hits across the tenant's finished builds.
    pub cache_hits: u64,
    /// Instruction-cache misses across the tenant's finished builds.
    pub cache_misses: u64,
    /// Total time the tenant's builds sat queued before admission.
    pub queue_wait: Duration,
    /// Total wall-clock build time (admission to finalization).
    pub build_wall: Duration,
}

/// Per-tenant statistics for a whole farm.
#[derive(Debug, Default)]
pub struct FarmStats {
    tenants: Mutex<HashMap<String, Arc<TenantStats>>>,
}

impl FarmStats {
    /// The (shared) counter block for a tenant, created on first use.
    pub(crate) fn tenant(&self, name: &str) -> Arc<TenantStats> {
        let mut tenants = lock_recover(&self.tenants);
        Arc::clone(tenants.entry(name.to_string()).or_default())
    }

    /// Snapshots every tenant's counters, sorted by tenant name.
    pub fn snapshot(&self) -> BTreeMap<String, TenantSnapshot> {
        let tenants = lock_recover(&self.tenants);
        tenants
            .iter()
            .map(|(name, stats)| (name.clone(), stats.snapshot()))
            .collect()
    }
}
