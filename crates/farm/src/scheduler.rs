//! The build farm: a work-stealing worker pool draining the tenant queue.
//!
//! Scheduling is two-level. *Admission* pulls whole builds out of the
//! tenant-fair [`FarmQueue`](crate::queue::FarmQueue) (FIFO within a tenant,
//! round-robin across tenants, per-tenant in-flight cap) and plans them into
//! stage DAGs. *Execution* is at stage granularity: each runnable stage is a
//! task on a per-worker deque; a worker pops its own deque LIFO (locality —
//! the stage it just released reuses hot upstream snapshots) and steals FIFO
//! from the other end of busier workers' deques, so a wide build's stages
//! spread across idle workers instead of serializing behind one.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use hpcc_core::executor::StageArtifact;
use hpcc_core::graph::BuildGraph;
use hpcc_core::ir::BuildIr;
use hpcc_core::{
    execute_stage, BaseEnvMemo, BuildError, BuildOptions, BuildReport, Builder, MultiStageReport,
    ShardedBuildCache,
};
use hpcc_runtime::Invoker;
use hpcc_vfs::Filesystem;

use crate::queue::FarmQueue;
use crate::request::{BuildRequest, FarmConfig, SubmitError};
use crate::stats::FarmStats;
use crate::sync::{lock_recover, read_recover, write_recover};

/// The outcome of one submitted build.
#[derive(Debug)]
pub struct FarmResult {
    /// The submitting tenant.
    pub tenant: String,
    /// The tag the build targeted.
    pub tag: String,
    /// The build's place in the farm's admission order, counted from 0 over
    /// the farm's lifetime. The queue assigns it under its lock, so unlike
    /// completion order it does not depend on worker timing.
    pub admission: usize,
    /// Per-stage reports, success flag, error, and skipped stages — the same
    /// shape a direct `build_multistage` call returns.
    pub report: MultiStageReport,
    /// Time the request sat queued before a worker admitted it.
    pub queue_wait: Duration,
    /// Wall-clock time from admission to finalization.
    pub elapsed: Duration,
}

/// One admitted build: its plan plus mutable per-stage progress.
struct Job {
    tenant: String,
    admission: usize,
    options: BuildOptions,
    context: Option<Filesystem>,
    ir: BuildIr,
    graph: BuildGraph,
    builder: Arc<RwLock<Builder>>,
    submitted_at: Instant,
    started_at: Instant,
    progress: Mutex<JobProgress>,
}

/// Stage bookkeeping for one job, guarded by the job's own mutex.
struct JobProgress {
    remaining_deps: Vec<usize>,
    reports: Vec<Option<BuildReport>>,
    artifacts: Vec<Option<StageArtifact>>,
    /// Stages handed to a deque so far.
    released: usize,
    /// Stages that finished executing (successfully or not).
    completed: usize,
    failed: bool,
}

type Task = (Arc<Job>, usize);

/// A multi-tenant build farm over one shared cache and base-env memo.
///
/// Submit with [`BuildFarm::try_submit`] (non-blocking, typed backpressure),
/// then run [`BuildFarm::drain`] to execute everything queued on
/// `config.workers` threads. `drain` may be called repeatedly; tenants,
/// their builders (and thus their tag namespaces), the instruction cache,
/// and the base-environment memo persist across drains, so a second drain
/// of identical work is served almost entirely from cache.
pub struct BuildFarm {
    config: FarmConfig,
    cache: Arc<ShardedBuildCache>,
    base_envs: Arc<BaseEnvMemo>,
    queue: Mutex<FarmQueue>,
    signal: Condvar,
    builders: Mutex<HashMap<String, Arc<RwLock<Builder>>>>,
    stats: FarmStats,
}

impl BuildFarm {
    /// A farm with a fresh shared cache and base-environment memo.
    pub fn new(config: FarmConfig) -> Self {
        BuildFarm::with_shared(
            config,
            Arc::new(ShardedBuildCache::new()),
            Arc::new(BaseEnvMemo::new()),
        )
    }

    /// A farm over an existing cache and memo — e.g. to share them with
    /// builders outside the farm, or between farms.
    pub fn with_shared(
        config: FarmConfig,
        cache: Arc<ShardedBuildCache>,
        base_envs: Arc<BaseEnvMemo>,
    ) -> Self {
        BuildFarm {
            config,
            cache,
            base_envs,
            queue: Mutex::new(FarmQueue::default()),
            signal: Condvar::new(),
            builders: Mutex::new(HashMap::new()),
            stats: FarmStats::default(),
        }
    }

    /// The farm's configuration.
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// The shared instruction cache.
    pub fn cache(&self) -> Arc<ShardedBuildCache> {
        Arc::clone(&self.cache)
    }

    /// The shared base-environment memo.
    pub fn base_env_memo(&self) -> Arc<BaseEnvMemo> {
        Arc::clone(&self.base_envs)
    }

    /// Per-tenant statistics.
    pub fn stats(&self) -> &FarmStats {
        &self.stats
    }

    /// Builds currently queued (admitted builds are not counted).
    pub fn queued(&self) -> usize {
        lock_queue(&self.queue).queued()
    }

    /// Builds admitted but not yet finalized.
    pub fn active_jobs(&self) -> usize {
        lock_queue(&self.queue).active_jobs()
    }

    /// A tenant's builder, if the tenant has had at least one build
    /// admitted. Lock it for reading to inspect built images
    /// (`builder.read().unwrap().image(tag)`), or for writing to push/pull.
    pub fn tenant_builder(&self, tenant: &str) -> Option<Arc<RwLock<Builder>>> {
        lock_recover_map(&self.builders).get(tenant).cloned()
    }

    /// Enqueues a build without blocking. Backpressure comes back as a
    /// typed [`SubmitError`]; an accepted request is built by the next
    /// [`BuildFarm::drain`].
    pub fn try_submit(&self, request: BuildRequest) -> Result<(), SubmitError> {
        let tenant = request.tenant.clone();
        let outcome = lock_queue(&self.queue).submit(
            request,
            self.config.queue_capacity,
            self.config.per_tenant_queue_cap,
        );
        match outcome {
            Ok(()) => {
                self.stats.tenant(&tenant).record_submitted();
                self.signal.notify_all();
                Ok(())
            }
            Err(e) => {
                self.stats.tenant(&tenant).record_rejected();
                Err(e)
            }
        }
    }

    /// Runs every queued build to completion on `config.workers` threads and
    /// returns the results in completion order. Stage tasks are
    /// work-stolen across the pool; the queue is empty and no job is in
    /// flight when this returns.
    pub fn drain(&self) -> Vec<FarmResult> {
        let workers = self.config.workers.max(1);
        let deques: Vec<Mutex<VecDeque<Task>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let results = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for me in 0..workers {
                let deques = &deques;
                let results = &results;
                scope.spawn(move || self.worker_loop(me, deques, results));
            }
        });
        results
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn worker_loop(
        &self,
        me: usize,
        deques: &[Mutex<VecDeque<Task>>],
        results: &Mutex<Vec<FarmResult>>,
    ) {
        loop {
            if let Some(task) = next_task(me, deques) {
                self.run_stage(me, task, deques, results);
                continue;
            }
            if self.try_admit(me, deques, results) {
                continue;
            }
            // No stage to run or steal and nothing admittable. Either the
            // farm is idle (exit) or in-flight jobs will release more work
            // (wait; the timeout is a missed-wakeup backstop).
            let queue = lock_queue(&self.queue);
            if queue.idle() {
                self.signal.notify_all();
                return;
            }
            match self.signal.wait_timeout(queue, Duration::from_micros(500)) {
                Ok((guard, _)) => drop(guard),
                Err(poisoned) => drop(poisoned.into_inner()),
            }
        }
    }

    /// Admits one build from the tenant-fair queue: plan it and release its
    /// root stages as tasks. Returns false when nothing is admittable.
    fn try_admit(
        &self,
        me: usize,
        deques: &[Mutex<VecDeque<Task>>],
        results: &Mutex<Vec<FarmResult>>,
    ) -> bool {
        let admitted = lock_queue(&self.queue).admit(self.config.per_tenant_max_running);
        let Some((admission, queued)) = admitted else {
            return false;
        };
        let started_at = Instant::now();
        let request = queued.request;
        let builder = self.builder_for(&request.tenant, &request.invoker);
        if request.options.cache_capacity.is_some() {
            self.cache.set_capacity(request.options.cache_capacity);
        }
        match Builder::plan_with_args(&request.dockerfile, &request.options.build_args) {
            Ok((ir, graph)) => {
                let stage_count = graph.stage_count();
                let roots = graph.roots();
                let remaining_deps: Vec<usize> =
                    graph.nodes.iter().map(|node| node.deps.len()).collect();
                let job = Arc::new(Job {
                    tenant: request.tenant,
                    admission,
                    options: request.options,
                    context: request.context,
                    ir,
                    graph,
                    builder,
                    submitted_at: queued.submitted_at,
                    started_at,
                    progress: Mutex::new(JobProgress {
                        remaining_deps,
                        reports: vec![None; stage_count],
                        artifacts: vec![None; stage_count],
                        released: roots.len(),
                        completed: 0,
                        failed: false,
                    }),
                });
                let mut deque = lock_recover(&deques[me]);
                for root in roots {
                    deque.push_back((Arc::clone(&job), root));
                }
                drop(deque);
                self.signal.notify_all();
            }
            Err(error) => {
                // Parse/plan failure: the build is finished before it ever
                // had stages.
                let report = MultiStageReport {
                    stages: Vec::new(),
                    success: false,
                    final_tag: None,
                    error: Some(error),
                    skipped: Vec::new(),
                };
                let queue_wait = started_at.duration_since(queued.submitted_at);
                let elapsed = started_at.elapsed();
                self.stats
                    .tenant(&request.tenant)
                    .record_finished(false, 0, 0, queue_wait, elapsed);
                push_result(
                    results,
                    FarmResult {
                        tenant: request.tenant.clone(),
                        tag: request.options.tag,
                        admission,
                        report,
                        queue_wait,
                        elapsed,
                    },
                );
                lock_queue(&self.queue).job_finished(&request.tenant);
                self.signal.notify_all();
            }
        }
        true
    }

    /// Executes one stage task, releases newly runnable dependents onto this
    /// worker's deque, and finalizes the job if this was its last stage.
    fn run_stage(
        &self,
        me: usize,
        (job, stage): Task,
        deques: &[Mutex<VecDeque<Task>>],
        results: &Mutex<Vec<FarmResult>>,
    ) {
        let upstream: HashMap<usize, StageArtifact> = {
            let progress = lock_progress(&job.progress);
            job.graph
                .node(stage)
                .deps
                .iter()
                .map(|&dep| {
                    (
                        dep,
                        progress.artifacts[dep]
                            .clone()
                            .expect("released stages have completed dependencies"),
                    )
                })
                .collect()
        };
        let (report, artifact) = {
            let builder = read_recover(&job.builder);
            execute_stage(
                &builder,
                &job.ir,
                &job.graph,
                stage,
                &job.options,
                job.context.as_ref(),
                &upstream,
            )
        };
        let mut to_release = Vec::new();
        let finalize = {
            let mut progress = lock_progress(&job.progress);
            let ok = artifact.is_some();
            progress.reports[stage] = Some(report);
            progress.artifacts[stage] = artifact;
            progress.completed += 1;
            if !ok {
                progress.failed = true;
            } else if !progress.failed {
                for &dependent in &job.graph.node(stage).dependents {
                    progress.remaining_deps[dependent] -= 1;
                    if progress.remaining_deps[dependent] == 0 {
                        to_release.push(dependent);
                    }
                }
                progress.released += to_release.len();
            }
            progress.completed == progress.released
                && (progress.failed || progress.completed == job.graph.stage_count())
        };
        if !to_release.is_empty() {
            let mut deque = lock_recover(&deques[me]);
            for dependent in to_release {
                deque.push_back((Arc::clone(&job), dependent));
            }
            drop(deque);
            self.signal.notify_all();
        }
        if finalize {
            self.finalize_job(&job, results);
        }
    }

    /// Folds a finished job's stage results into a [`FarmResult`], stores
    /// the final image in the tenant's builder, updates stats, and frees the
    /// tenant's in-flight slot.
    fn finalize_job(&self, job: &Arc<Job>, results: &Mutex<Vec<FarmResult>>) {
        let stage_count = job.graph.stage_count();
        let (reports, mut artifacts) = {
            let mut progress = lock_progress(&job.progress);
            (
                std::mem::take(&mut progress.reports),
                std::mem::take(&mut progress.artifacts),
            )
        };
        let success = artifacts.iter().all(|a| a.is_some());
        if success {
            if let Some(artifact) = artifacts[stage_count - 1].take() {
                let mut builder = write_recover(&job.builder);
                builder.store_artifact(&job.options.tag, &job.options.arch, artifact);
            }
        }
        let error = reports.iter().flatten().find_map(|r| r.error.clone());
        let first_failed =
            (0..stage_count).find(|&s| reports[s].is_some() && artifacts[s].is_none());
        let mut skipped = Vec::new();
        for (stage, report) in reports.iter().enumerate() {
            if report.is_some() {
                continue;
            }
            let dependency = job
                .graph
                .node(stage)
                .deps
                .iter()
                .copied()
                .find(|&d| artifacts[d].is_none())
                .or(first_failed)
                .unwrap_or(stage);
            skipped.push(BuildError::DependencyFailed { stage, dependency });
        }
        let (cache_hits, cache_misses) =
            reports.iter().flatten().fold((0u64, 0u64), |(h, m), r| {
                (h + r.cache_hits as u64, m + r.cache_misses as u64)
            });
        let report = MultiStageReport {
            stages: reports.into_iter().flatten().collect(),
            success,
            final_tag: success.then(|| job.options.tag.clone()),
            error,
            skipped,
        };
        let queue_wait = job.started_at.duration_since(job.submitted_at);
        let elapsed = job.started_at.elapsed();
        self.stats.tenant(&job.tenant).record_finished(
            success,
            cache_hits,
            cache_misses,
            queue_wait,
            elapsed,
        );
        push_result(
            results,
            FarmResult {
                tenant: job.tenant.clone(),
                tag: job.options.tag.clone(),
                admission: job.admission,
                report,
                queue_wait,
                elapsed,
            },
        );
        lock_queue(&self.queue).job_finished(&job.tenant);
        self.signal.notify_all();
    }

    /// The tenant's builder, created over the shared cache/memo on first
    /// use. A tenant's first admitted request fixes its invoker.
    fn builder_for(&self, tenant: &str, invoker: &Invoker) -> Arc<RwLock<Builder>> {
        let mut builders = lock_recover_map(&self.builders);
        Arc::clone(builders.entry(tenant.to_string()).or_insert_with(|| {
            Arc::new(RwLock::new(Builder::with_shared(
                self.config.kind.clone(),
                invoker.clone(),
                Arc::clone(&self.cache),
                Arc::clone(&self.base_envs),
            )))
        }))
    }
}

/// Pops this worker's own deque from the back (LIFO: the freshest release
/// has the hottest upstream snapshots), stealing from the front of others'
/// deques (FIFO: the oldest, least-local work) when empty.
fn next_task(me: usize, deques: &[Mutex<VecDeque<Task>>]) -> Option<Task> {
    if let Some(task) = lock_recover(&deques[me]).pop_back() {
        return Some(task);
    }
    let n = deques.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(task) = lock_recover(&deques[victim]).pop_front() {
            return Some(task);
        }
    }
    None
}

fn lock_queue(queue: &Mutex<FarmQueue>) -> std::sync::MutexGuard<'_, FarmQueue> {
    lock_recover(queue)
}

fn lock_progress(progress: &Mutex<JobProgress>) -> std::sync::MutexGuard<'_, JobProgress> {
    lock_recover(progress)
}

fn lock_recover_map<'a>(
    builders: &'a Mutex<HashMap<String, Arc<RwLock<Builder>>>>,
) -> std::sync::MutexGuard<'a, HashMap<String, Arc<RwLock<Builder>>>> {
    lock_recover(builders)
}

fn push_result(results: &Mutex<Vec<FarmResult>>, result: FarmResult) {
    lock_recover(results).push(result);
}
