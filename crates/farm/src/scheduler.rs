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

use hpcc_core::{
    execute_stage, BaseEnvMemo, BuildGraph, BuildIr, BuildOptions, BuildReport, Builder, GraphRun,
    ShardedBuildCache,
};
use hpcc_kernel::sync::{lock_recover, read_recover, wait_timeout_recover, write_recover};
use hpcc_runtime::Invoker;
use hpcc_vfs::Filesystem;

use crate::queue::FarmQueue;
use crate::request::{BuildRequest, FarmConfig, SubmitError};
use crate::stats::FarmStats;

/// The outcome of one submitted build.
#[derive(Debug)]
pub struct FarmResult {
    /// The submitting tenant.
    pub tenant: String,
    /// The build's place in the farm's admission order, counted from 0 over
    /// the farm's lifetime. The queue assigns it under its lock, so unlike
    /// completion order it does not depend on worker timing.
    pub admission: usize,
    /// The build's report: the same report [`Builder::build`] returns for
    /// the same Dockerfile.
    pub report: BuildReport,
    /// Time the request sat queued before a worker admitted it.
    pub queue_wait: Duration,
    /// Wall-clock time from admission to finalization.
    pub elapsed: Duration,
}

/// One admitted build: its plan plus the run of its stage graph.
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
    run: Mutex<GraphRun>,
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
        lock_recover(&self.queue).queued()
    }

    /// Builds admitted but not yet finalized.
    pub fn active_jobs(&self) -> usize {
        lock_recover(&self.queue).active_jobs()
    }

    /// A tenant's builder, if the tenant has had at least one build
    /// admitted. Lock it for reading to inspect built images
    /// (`builder.read().unwrap().image(tag)`), or for writing to push/pull.
    pub fn tenant_builder(&self, tenant: &str) -> Option<Arc<RwLock<Builder>>> {
        lock_recover(&self.builders).get(tenant).cloned()
    }

    /// Enqueues a build without blocking. Backpressure comes back as a
    /// typed [`SubmitError`]; an accepted request is built by the next
    /// [`BuildFarm::drain`].
    pub fn try_submit(&self, request: BuildRequest) -> Result<(), SubmitError> {
        let tenant = request.tenant.clone();
        let outcome = lock_recover(&self.queue).submit(
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
            let queue = lock_recover(&self.queue);
            if queue.idle() {
                self.signal.notify_all();
                return;
            }
            let backstop = Duration::from_micros(500);
            let _woken = wait_timeout_recover(&self.signal, queue, backstop, &self.queue);
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
        let admitted = lock_recover(&self.queue).admit(self.config.per_tenant_max_running);
        let Some((admission, queued)) = admitted else {
            return false;
        };
        let started_at = Instant::now();
        let request = queued.request;
        let builder = self.builder_for(&request.tenant, &request.invoker);
        let planned = read_recover(&builder).plan(&request.dockerfile, &request.options);
        let (ir, graph) = match planned {
            Ok(plan) => plan,
            Err(error) => {
                // The build is finished before it ever had stages.
                let report = BuildReport::failed(&request.options.tag, error);
                self.finish(
                    &request.tenant,
                    admission,
                    queued.submitted_at,
                    started_at,
                    report,
                    results,
                );
                return true;
            }
        };
        let job = Arc::new(Job {
            tenant: request.tenant,
            admission,
            options: request.options,
            context: request.context,
            run: Mutex::new(GraphRun::new(&graph)),
            ir,
            graph,
            builder,
            submitted_at: queued.submitted_at,
            started_at,
        });
        let mut deque = lock_recover(&deques[me]);
        for root in job.graph.roots() {
            deque.push_back((Arc::clone(&job), root));
        }
        drop(deque);
        self.signal.notify_all();
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
        let upstream = lock_recover(&job.run).upstream(&job.graph, stage);
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
        let (ready, finished) = {
            let mut run = lock_recover(&job.run);
            let ready = run.complete(&job.graph, stage, report, artifact);
            (ready, run.is_finished())
        };
        if !ready.is_empty() {
            let mut deque = lock_recover(&deques[me]);
            for dependent in ready {
                deque.push_back((Arc::clone(&job), dependent));
            }
            drop(deque);
            self.signal.notify_all();
        }
        if finished {
            let run = std::mem::take(&mut *lock_recover(&job.run));
            let (report, artifact) = run.finish(&job.graph, &job.options.tag);
            if let Some(artifact) = artifact {
                let mut builder = write_recover(&job.builder);
                builder.store_artifact(&job.options.tag, &job.options.arch, artifact);
            }
            self.finish(
                &job.tenant,
                job.admission,
                job.submitted_at,
                job.started_at,
                report,
                results,
            );
        }
    }

    /// Records a finished build: updates stats, publishes its
    /// [`FarmResult`], and frees the tenant's in-flight slot.
    fn finish(
        &self,
        tenant: &str,
        admission: usize,
        submitted_at: Instant,
        started_at: Instant,
        report: BuildReport,
        results: &Mutex<Vec<FarmResult>>,
    ) {
        let queue_wait = started_at.duration_since(submitted_at);
        let elapsed = started_at.elapsed();
        self.stats.tenant(tenant).record_finished(
            report.success,
            report.cache_hits as u64,
            report.cache_misses as u64,
            queue_wait,
            elapsed,
        );
        lock_recover(results).push(FarmResult {
            tenant: tenant.to_string(),
            admission,
            report,
            queue_wait,
            elapsed,
        });
        lock_recover(&self.queue).job_finished(tenant);
        self.signal.notify_all();
    }

    /// The tenant's builder, created over the shared cache/memo on first
    /// use. A tenant's first admitted request fixes its invoker.
    fn builder_for(&self, tenant: &str, invoker: &Invoker) -> Arc<RwLock<Builder>> {
        let mut builders = lock_recover(&self.builders);
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
