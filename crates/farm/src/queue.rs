//! The tenant-fair admission queue.
//!
//! Builds queue FIFO *within* a tenant; admission rotates round-robin
//! *across* tenants with queued work, skipping tenants already at their
//! in-flight cap. The structure is guarded by one mutex in [`crate::BuildFarm`];
//! everything here is plain single-threaded bookkeeping.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::request::{BuildRequest, SubmitError};

/// A queued request plus its submission time (for queue-wait stats).
pub(crate) struct QueuedBuild {
    pub(crate) request: BuildRequest,
    pub(crate) submitted_at: Instant,
}

/// Per-tenant FIFO queues under a round-robin rotation.
///
/// Invariant: a tenant is in `rotation` exactly when its queue is non-empty.
#[derive(Default)]
pub(crate) struct FarmQueue {
    tenants: HashMap<String, VecDeque<QueuedBuild>>,
    rotation: VecDeque<String>,
    queued: usize,
    running: HashMap<String, usize>,
    /// Jobs admitted but not yet finalized. While this is non-zero, stage
    /// tasks may still exist (or appear) on worker deques.
    active_jobs: usize,
    /// Builds admitted so far: the next admission's index.
    admitted: usize,
}

impl FarmQueue {
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    pub(crate) fn active_jobs(&self) -> usize {
        self.active_jobs
    }

    /// True when no work remains anywhere: nothing queued and no admitted
    /// job is still in flight. Workers exit on this.
    pub(crate) fn idle(&self) -> bool {
        self.queued == 0 && self.active_jobs == 0
    }

    /// Enqueues a request, enforcing the farm-wide and per-tenant bounds.
    pub(crate) fn submit(
        &mut self,
        request: BuildRequest,
        queue_capacity: usize,
        per_tenant_cap: Option<usize>,
    ) -> Result<(), SubmitError> {
        if self.queued >= queue_capacity {
            return Err(SubmitError::QueueFull {
                capacity: queue_capacity,
            });
        }
        let tenant = request.tenant.clone();
        let slice = self.tenants.entry(tenant.clone()).or_default();
        if let Some(limit) = per_tenant_cap {
            if slice.len() >= limit {
                return Err(SubmitError::TenantLimit { tenant, limit });
            }
        }
        if slice.is_empty() {
            self.rotation.push_back(tenant);
        }
        slice.push_back(QueuedBuild {
            request,
            submitted_at: Instant::now(),
        });
        self.queued += 1;
        Ok(())
    }

    /// Admits the next build under round-robin fairness: the head of the
    /// rotation whose tenant is below `max_running`. Tenants at their cap
    /// keep their place in line but are skipped this pass. Admission marks
    /// the job active, counts it against the tenant's in-flight budget, and
    /// numbers it: the returned index counts admissions over the farm's
    /// lifetime from 0, decided here under the queue lock.
    pub(crate) fn admit(&mut self, max_running: usize) -> Option<(usize, QueuedBuild)> {
        for _ in 0..self.rotation.len() {
            let tenant = self.rotation.pop_front()?;
            let running = self.running.get(&tenant).copied().unwrap_or(0);
            if running >= max_running {
                self.rotation.push_back(tenant);
                continue;
            }
            let slice = self
                .tenants
                .get_mut(&tenant)
                .expect("rotation lists only tenants with queued work");
            let build = slice.pop_front().expect("rotation implies non-empty");
            if !slice.is_empty() {
                self.rotation.push_back(tenant.clone());
            }
            self.queued -= 1;
            *self.running.entry(tenant).or_insert(0) += 1;
            self.active_jobs += 1;
            self.admitted += 1;
            return Some((self.admitted - 1, build));
        }
        None
    }

    /// Marks an admitted job finalized, freeing its tenant in-flight slot.
    pub(crate) fn job_finished(&mut self, tenant: &str) {
        if let Some(running) = self.running.get_mut(tenant) {
            *running = running.saturating_sub(1);
        }
        self.active_jobs -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_core::BuildOptions;

    fn request(tenant: &str, tag: &str) -> BuildRequest {
        BuildRequest::new(tenant, "FROM centos:7\n", BuildOptions::new(tag))
    }

    #[test]
    fn fifo_within_tenant_round_robin_across() {
        let mut q = FarmQueue::default();
        q.submit(request("a", "a1"), 100, None).unwrap();
        q.submit(request("a", "a2"), 100, None).unwrap();
        q.submit(request("b", "b1"), 100, None).unwrap();
        let order: Vec<(usize, String)> = std::iter::from_fn(|| q.admit(8))
            .map(|(index, b)| (index, b.request.options.tag))
            .collect();
        assert_eq!(
            order,
            [(0, "a1".into()), (1, "b1".into()), (2, "a2".into())]
        );
        assert!(q.queued() == 0);
    }

    #[test]
    fn queue_full_is_typed() {
        let mut q = FarmQueue::default();
        q.submit(request("a", "a1"), 1, None).unwrap();
        let err = q.submit(request("b", "b1"), 1, None).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 1 });
    }

    #[test]
    fn tenant_cap_is_typed_and_does_not_block_others() {
        let mut q = FarmQueue::default();
        q.submit(request("a", "a1"), 100, Some(1)).unwrap();
        let err = q.submit(request("a", "a2"), 100, Some(1)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::TenantLimit {
                tenant: "a".to_string(),
                limit: 1
            }
        );
        q.submit(request("b", "b1"), 100, Some(1)).unwrap();
    }

    #[test]
    fn admission_skips_tenants_at_their_running_cap() {
        let mut q = FarmQueue::default();
        q.submit(request("flood", "f1"), 100, None).unwrap();
        q.submit(request("flood", "f2"), 100, None).unwrap();
        q.submit(request("victim", "v1"), 100, None).unwrap();
        // Cap 1: the flooder's second build is skipped while its first runs.
        let (_, first) = q.admit(1).unwrap();
        assert_eq!(first.request.options.tag, "f1");
        let (_, second) = q.admit(1).unwrap();
        assert_eq!(second.request.options.tag, "v1");
        assert!(q.admit(1).is_none(), "flood is at its cap");
        q.job_finished("flood");
        assert_eq!(q.admit(1).unwrap().1.request.options.tag, "f2");
        q.job_finished("flood");
        q.job_finished("victim");
        assert!(q.idle());
    }
}
