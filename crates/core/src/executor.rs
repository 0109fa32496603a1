//! The stage executor: runs a planned [`BuildGraph`].
//!
//! Each stage executes through a `StageCtx` with one `execute_*` handler
//! per instruction kind — the per-instruction logic that used to live in the
//! ~370-line monolithic `Builder::build` loop. Stages hand their results
//! downstream as [`StageArtifact`]s: copy-on-write [`Filesystem`] snapshots,
//! never `<tag>.stageN` pseudo-images in the builder's tag namespace.
//!
//! Scheduling is dependency-driven and lives in one state machine,
//! [`GraphRun`]: a stage is released the moment its last dependency
//! succeeds, and independent stages (e.g. the two middle stages of a
//! diamond) build concurrently under [`std::thread::scope`]. All stages
//! share the builder's [`crate::cache::ShardedBuildCache`] — 16
//! digest-prefix shards, each with its own lock — so an instruction chain
//! built by one stage is a cache hit for every other stage (including
//! stages of the same build) without wide graphs serializing on a single
//! cache lock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hpcc_fakeroot::LieDatabase;
use hpcc_image::{sha256, Digest, ImageConfig};
use hpcc_kernel::sync::lock_recover;
use hpcc_kernel::Credentials;
use hpcc_kernel::{KResult, UserNamespace};
use hpcc_shell::ExecEnv;
use hpcc_vfs::{Actor, FileBytes, Filesystem, Mode};

use crate::builder::{
    launch_error, BuildEnv, BuildOptions, BuildReport, Builder, BuilderKind, StageReport,
};
use crate::cache::{CachedState, StateKey};
use crate::dockerfile::Instruction;
use crate::error::BuildError;
use crate::force::{detect_config, ForceConfig};
use crate::graph::{BuildGraph, CopyFromEdge, GraphNode, StageBase};
use crate::ir::{BuildIr, IrStage};

/// What a completed stage passes downstream: a CoW filesystem snapshot plus
/// the metadata later stages or the final image need. Cloning an artifact
/// bumps reference counts; nothing is deep-copied.
#[derive(Debug, Clone)]
pub struct StageArtifact {
    /// Stage filesystem (copy-on-write snapshot; cloning is O(1)).
    pub fs: Filesystem,
    /// Image configuration accumulated by the stage (shared).
    pub config: Arc<ImageConfig>,
    /// Fakeroot lie database accumulated by the stage (shared).
    pub fakeroot_db: Arc<LieDatabase>,
    /// The underlying base-image reference (for catalogs and `BuiltImage`).
    pub base_reference: String,
    /// Chain digest after the stage's last instruction (present when the
    /// stage ran with the build cache on) — downstream cache keys bind to
    /// it, and a stage that reads an artifact without one runs uncached.
    pub final_state: Option<Digest>,
}

/// One build's stage graph in flight: the state machine behind every way
/// of running a build (the serial and threaded drivers here, and the build
/// farm's workers).
///
/// A stage is *released* once every dependency has succeeded; roots are
/// released from the start. The driver executes a released stage against
/// [`GraphRun::upstream`] and hands the result to [`GraphRun::complete`],
/// which returns the stages that result released. A stage runs if and only
/// if all its dependencies succeeded, so independent stages keep running
/// after a failure and every driver runs the same set of stages. Once
/// [`GraphRun::is_finished`], [`GraphRun::finish`] folds the run into the
/// build's [`BuildReport`].
///
/// Like a graph walker, the run does not borrow its graph: every call takes
/// the [`BuildGraph`] the run was created from.
#[derive(Debug, Default)]
pub struct GraphRun {
    stages: Vec<StageSlot>,
    released: usize,
    completed: usize,
}

#[derive(Debug)]
struct StageSlot {
    /// Dependencies that have not succeeded yet; 0 once released.
    pending: usize,
    report: Option<StageReport>,
    /// Present once the stage succeeded.
    artifact: Option<StageArtifact>,
}

impl GraphRun {
    /// A run of `graph` with its roots released.
    pub fn new(graph: &BuildGraph) -> Self {
        let stages: Vec<StageSlot> = graph
            .nodes
            .iter()
            .map(|node| StageSlot {
                pending: node.deps.len(),
                report: None,
                artifact: None,
            })
            .collect();
        let released = stages.iter().filter(|s| s.pending == 0).count();
        GraphRun {
            stages,
            released,
            completed: 0,
        }
    }

    /// Whether `stage` is released: every dependency succeeded.
    pub(crate) fn is_released(&self, stage: usize) -> bool {
        self.stages[stage].pending == 0
    }

    /// The artifacts a released `stage` reads, keyed by dependency: CoW
    /// clones, so refcount bumps and no tree copies.
    pub fn upstream(&self, graph: &BuildGraph, stage: usize) -> HashMap<usize, StageArtifact> {
        graph
            .node(stage)
            .deps
            .iter()
            .map(|&d| {
                let artifact = self.stages[d].artifact.clone();
                (d, artifact.expect("released after its dependencies"))
            })
            .collect()
    }

    /// Records a stage's result (its artifact is `None` if it failed) and
    /// returns the dependents it released, in stage order.
    pub fn complete(
        &mut self,
        graph: &BuildGraph,
        stage: usize,
        report: StageReport,
        artifact: Option<StageArtifact>,
    ) -> Vec<usize> {
        let mut ready = Vec::new();
        if artifact.is_some() {
            for &d in &graph.node(stage).dependents {
                self.stages[d].pending -= 1;
                if self.stages[d].pending == 0 {
                    ready.push(d);
                }
            }
        }
        let slot = &mut self.stages[stage];
        slot.report = Some(report);
        slot.artifact = artifact;
        self.completed += 1;
        self.released += ready.len();
        ready
    }

    /// Whether every released stage has completed, so no stage is running
    /// and none will be released.
    pub fn is_finished(&self) -> bool {
        self.completed == self.released
    }

    /// Folds a finished run into the build's report, tagged `tag`, plus the
    /// final stage's artifact if every stage succeeded.
    pub fn finish(self, graph: &BuildGraph, tag: &str) -> (BuildReport, Option<StageArtifact>) {
        debug_assert!(self.is_finished(), "finish() before the run finished");
        let skipped = (0..self.stages.len())
            .filter(|&stage| self.stages[stage].report.is_none())
            .map(|stage| BuildError::DependencyFailed {
                stage,
                dependency: self.skip_cause(graph, stage),
            })
            .collect();
        let mut stages = self.stages;
        let artifact = stages.last_mut().and_then(|s| s.artifact.take());
        let reports = stages.into_iter().filter_map(|s| s.report).collect();
        let report = BuildReport::from_stages(tag, reports, skipped);
        let artifact = artifact.filter(|_| report.success);
        (report, artifact)
    }

    /// Why `stage` never ran: its lowest-index dependency that failed or
    /// was skipped.
    fn skip_cause(&self, graph: &BuildGraph, stage: usize) -> usize {
        graph
            .node(stage)
            .deps
            .iter()
            .copied()
            .find(|&d| self.stages[d].artifact.is_none())
            .expect("a stage that never ran has a dependency that did not succeed")
    }
}

/// Execution state for one stage.
struct StageCtx<'a> {
    builder: &'a Builder,
    options: &'a BuildOptions,
    context: Option<&'a Filesystem>,
    stage: &'a IrStage,
    node: &'a GraphNode,
    upstream: &'a HashMap<usize, StageArtifact>,
    report: StageReport,
    env: Option<BuildEnv>,
    /// Shared with the cache entries and artifacts made from this stage;
    /// instructions that change it copy on write (`Arc::make_mut`).
    config: Arc<ImageConfig>,
    /// Shared like `config`; `RUN` moves it into the shell and back.
    fakeroot_db: Arc<LieDatabase>,
    force_cfg: Option<ForceConfig>,
    force_initialized: bool,
    /// Whether the next instruction probes and stores the build cache: the
    /// build's setting, until the stage reads content with no recorded
    /// state, which leaves its keys nothing to bind that content by. A
    /// `FROM` of a local tag built with the cache off or pulled, or of an
    /// earlier stage that ran uncached, turns it off for the whole stage;
    /// a `COPY --from` of such a stage turns it off from that instruction
    /// on, so the instructions before it keep their hits.
    use_cache: bool,
    parent: Option<Digest>,
    cache_hits: usize,
    cache_misses: usize,
    /// The builder's launch identity, computed once per stage — cache keys
    /// bind to it so tenants whose launched environments differ (uid/gid,
    /// subuid ranges) can never adopt each other's cached trees through a
    /// shared cache.
    builder_identity: String,
}

impl<'a> StageCtx<'a> {
    fn new(
        builder: &'a Builder,
        options: &'a BuildOptions,
        context: Option<&'a Filesystem>,
        stage: &'a IrStage,
        node: &'a GraphNode,
        upstream: &'a HashMap<usize, StageArtifact>,
        display_tag: String,
    ) -> Self {
        StageCtx {
            builder,
            options,
            context,
            stage,
            node,
            upstream,
            report: StageReport {
                stage: stage.index,
                alias: stage.alias.clone(),
                transcript: Vec::new(),
                success: false,
                tag: display_tag,
                instructions_total: 0,
                instructions_modified: 0,
                modifiable_runs: 0,
                force_config: None,
                cache_hits: 0,
                cache_misses: 0,
                elapsed: std::time::Duration::ZERO,
                error: None,
            },
            env: None,
            config: Arc::new(ImageConfig {
                architecture: options.arch.clone(),
                ..Default::default()
            }),
            fakeroot_db: Arc::new(LieDatabase::new()),
            force_cfg: None,
            force_initialized: false,
            use_cache: options.use_cache
                && match &node.base {
                    StageBase::Image(reference) => builder
                        .image(reference)
                        .is_none_or(|built| built.final_state.is_some()),
                    StageBase::Stage(s) => upstream
                        .get(s)
                        .is_some_and(|artifact| artifact.final_state.is_some()),
                },
            parent: None,
            cache_hits: 0,
            cache_misses: 0,
            builder_identity: builder.launch_identity(),
        }
    }

    /// Runs the stage to completion. On failure the report carries the error
    /// and no artifact is produced.
    fn run(mut self) -> (StageReport, Option<StageArtifact>) {
        for (idx, instruction) in self.stage.instructions.iter().enumerate() {
            if let Err(message) = self.execute_instruction(idx, instruction) {
                self.report.error = Some(BuildError::Execution {
                    stage: self.stage.index,
                    message,
                });
                return self.finish(None);
            }
        }
        let Some(env) = self.env.take() else {
            let message = "error: Dockerfile has no FROM".to_string();
            self.report.error = Some(BuildError::Execution {
                stage: self.stage.index,
                message,
            });
            return self.finish(None);
        };
        if matches!(self.builder.kind, BuilderKind::ChImage)
            && self.options.force
            && self.report.force_config.is_some()
        {
            self.report.transcript.push(format!(
                "--force: init OK & modified {} RUN instructions",
                self.report.instructions_modified
            ));
        }
        self.report.transcript.push(format!(
            "grown in {} instructions: {}",
            self.report.instructions_total, self.report.tag
        ));
        self.report.success = true;
        let artifact = StageArtifact {
            fs: env.fs,
            config: Arc::clone(&self.config),
            fakeroot_db: Arc::clone(&self.fakeroot_db),
            base_reference: env.base_reference,
            final_state: self.parent,
        };
        self.finish(Some(artifact))
    }

    fn finish(mut self, artifact: Option<StageArtifact>) -> (StageReport, Option<StageArtifact>) {
        self.report.cache_hits = self.cache_hits;
        self.report.cache_misses = self.cache_misses;
        (self.report, artifact)
    }

    /// Executes one instruction: cache probe, then the matching handler,
    /// then cache store.
    fn execute_instruction(&mut self, idx: usize, instruction: &Instruction) -> Result<(), String> {
        let n = idx + 1;
        self.report.instructions_total = n;
        let display = display_instruction(n, instruction);
        if self.use_cache && self.copies_from_a_stateless_stage(idx) {
            // Nothing binds the copied content: this instruction and every
            // later one run uncached, and the stage records no final state.
            self.use_cache = false;
            self.parent = None;
        }
        let state_id = if self.use_cache {
            Some(self.state_id_for(idx, instruction))
        } else {
            None
        };

        // In-flight dedup: either this thread is elected leader for the
        // digest (and must store or abort via the guard), or another
        // build's leader finishes first and this probe returns its result
        // as a hit — two tenants racing on an identical prefix compute it
        // exactly once.
        let mut flight = None;
        if let Some(id) = state_id {
            match self.builder.cache.lookup_or_lead(&id) {
                crate::cache::CacheOutcome::Hit(hit) => {
                    self.cache_hits += 1;
                    self.adopt_cached(display, instruction, &hit)?;
                    self.parent = Some(id);
                    return Ok(());
                }
                crate::cache::CacheOutcome::Lead(guard) => {
                    self.cache_misses += 1;
                    flight = Some(guard);
                }
            }
        }

        // Every handler starts its transcript with the instruction line.
        self.report.transcript.push(display);
        match instruction {
            Instruction::From { .. } => self.execute_from(None)?,
            Instruction::Run(cmd) => self.execute_run(cmd)?,
            Instruction::Copy {
                sources,
                dest,
                from,
            } => match from {
                Some(_) => self.execute_copy_from(idx, sources, dest)?,
                None => self.execute_copy(sources, dest)?,
            },
            Instruction::Env { key, value } => {
                Arc::make_mut(&mut self.config)
                    .env
                    .insert(key.clone(), value.clone());
            }
            Instruction::Workdir(path) => self.execute_workdir(path),
            Instruction::Label { key, value } => {
                Arc::make_mut(&mut self.config)
                    .labels
                    .insert(key.clone(), value.clone());
            }
            Instruction::Cmd(args) => Arc::make_mut(&mut self.config).cmd = args.clone(),
            Instruction::Entrypoint(args) => {
                Arc::make_mut(&mut self.config).entrypoint = args.clone();
            }
            Instruction::User(_)
            | Instruction::Arg { .. }
            | Instruction::Expose(_)
            | Instruction::Volume(_) => {}
        }

        if let Some(id) = state_id {
            if let Some(env) = &self.env {
                let state = CachedState {
                    fs: env.fs.clone(),
                    config: Arc::clone(&self.config),
                    fakeroot_db: Arc::clone(&self.fakeroot_db),
                    state_id: id,
                };
                match flight.take() {
                    // Completing the flight stores the state and wakes every
                    // waiter blocked on this digest.
                    Some(guard) => guard.complete(state),
                    None => self.builder.cache.store(state),
                }
            }
            self.parent = Some(id);
        }
        // An unconsumed guard (no env yet, or an error path unwound past us)
        // drops here, aborting the flight so a waiter is promoted to leader.
        drop(flight);
        Ok(())
    }

    /// The cache chain digest for an instruction. A `FROM` is bound to the
    /// *content* it starts from, not to a name: `FROM <stage>` chains from
    /// the upstream artifact's final state digest and `FROM <local tag>`
    /// from the tag's recorded final state, while `COPY --from=` mixes the
    /// source stage's final state into the key, so a changed upstream stage
    /// or a rebuilt tag invalidates downstream hits. A context `COPY`
    /// likewise binds each source's SHA-256, so an edited file misses under
    /// unchanged text.
    ///
    /// The inputs stream straight into one SHA-256 (see [`StateKey`]): the
    /// parent, the launch identity, `--force`, the arch, the instruction
    /// ([`bind_instruction`]), then each context source's digest or a
    /// missing marker, or the `COPY --from` source stage and its final state.
    fn state_id_for(&self, idx: usize, instruction: &Instruction) -> Digest {
        let parent = match (idx, &self.node.base) {
            (0, StageBase::Stage(s)) => self.upstream.get(s).and_then(|a| a.final_state),
            (0, StageBase::Image(reference)) => {
                self.builder.image(reference).and_then(|b| b.final_state)
            }
            _ => self.parent,
        };
        let mut key = StateKey::new(parent.as_ref());
        key.str(&self.builder_identity)
            .tag(self.options.force.into())
            .str(&self.options.arch);
        bind_instruction(&mut key, instruction);
        match instruction {
            Instruction::Copy {
                sources,
                from: None,
                ..
            } => {
                for src in sources {
                    let bytes = self.context.and_then(|ctx| context_file(ctx, src).ok());
                    key.opt_digest(bytes.map(|b| sha256(b.as_slice())).as_ref());
                }
            }
            Instruction::Copy { from: Some(_), .. } => match self.copy_from_edge(idx) {
                Some(edge) => {
                    let source_state = self
                        .upstream
                        .get(&edge.source_stage)
                        .and_then(|art| art.final_state.as_ref());
                    key.tag(1)
                        .u64(edge.source_stage as u64)
                        .opt_digest(source_state);
                }
                None => {
                    key.tag(0);
                }
            },
            _ => {}
        }
        key.finish()
    }

    /// Whether instruction `idx` is a `COPY --from` of a stage that left no
    /// final state (it ran uncached).
    fn copies_from_a_stateless_stage(&self, idx: usize) -> bool {
        self.copy_from_edge(idx).is_some_and(|edge| {
            self.upstream
                .get(&edge.source_stage)
                .is_none_or(|artifact| artifact.final_state.is_none())
        })
    }

    /// The planned `COPY --from` edge of instruction `idx`, if it has one.
    fn copy_from_edge(&self, idx: usize) -> Option<CopyFromEdge> {
        self.node
            .copy_from
            .iter()
            .find(|e| e.instruction == idx)
            .copied()
    }

    /// A cache hit: adopt the snapshot (refcount bumps, not deep copies).
    fn adopt_cached(
        &mut self,
        mut display: String,
        instruction: &Instruction,
        hit: &CachedState,
    ) -> Result<(), String> {
        display.push_str(" (cached)");
        self.report.transcript.push(display);
        match (self.env.as_mut(), instruction) {
            (Some(e), _) => e.fs = hit.fs.clone(),
            (None, Instruction::From { .. }) => self.execute_from(Some(&hit.fs))?,
            (None, _) => {}
        }
        self.config = Arc::clone(&hit.config);
        self.fakeroot_db = Arc::clone(&hit.fakeroot_db);
        Ok(())
    }

    /// `FROM`, cached or not. The environment comes from one constructor,
    /// and one epilogue follows: `ch-image` detects the `--force`
    /// configuration and announces it when `--force` is on. Its init checks
    /// stay pending until the first modified `RUN` that executes.
    ///
    /// A cache hit passes the cached tree, which the environment adopts in
    /// place of its source's own: on the fully cached path no base image is
    /// built and no container is launched.
    fn execute_from(&mut self, cached: Option<&Filesystem>) -> Result<(), String> {
        let env = match self.env_for_from(cached) {
            Ok(env) => env,
            Err(msg) => {
                self.report.transcript.push(msg.clone());
                return Err(msg);
            }
        };
        if let BuilderKind::ChImage = self.builder.kind {
            self.force_cfg = detect_config(&env.fs, &env.creds, &env.userns);
            if let (true, Some(cfg)) = (self.options.force, &self.force_cfg) {
                self.report.force_config = Some(cfg.name.to_string());
                self.report.transcript.push(format!(
                    "will use --force: {}: {}",
                    cfg.name, cfg.description
                ));
            }
        }
        self.env = Some(env);
        Ok(())
    }

    /// The environment a `FROM` starts in: an earlier stage's artifact, a
    /// local tag (which takes precedence over remote base images: the LANL
    /// three-stage pipeline chains `FROM` on locally built tags, §5.3.3), or
    /// a base image, launched through the memo unless the cache supplies the
    /// tree. Either way `cached`, if given, replaces the source's tree.
    fn env_for_from(&self, cached: Option<&Filesystem>) -> Result<BuildEnv, String> {
        let arch = &self.options.arch;
        let (fs, base_reference) = match &self.node.base {
            StageBase::Stage(s) => {
                let art = self
                    .upstream
                    .get(s)
                    .ok_or_else(|| format!("error: stage {} has no built artifact", s))?;
                (&art.fs, art.base_reference.as_str())
            }
            StageBase::Image(reference) => match (self.builder.image(reference), cached) {
                (Some(built), _) => (&built.fs, built.base_reference.as_str()),
                (None, Some(fs)) => (fs, reference.as_str()),
                (None, None) => {
                    return self
                        .builder
                        .base_env(&self.builder_identity, reference, arch)
                }
            },
        };
        let identity = self.builder.identity().map_err(launch_error)?;
        BuildEnv::new(cached.unwrap_or(fs).clone(), identity, base_reference, arch)
    }

    fn execute_run(&mut self, cmd: &str) -> Result<(), String> {
        let Some(e) = self.env.as_mut() else {
            let msg = "error: RUN before FROM".to_string();
            self.report.transcript.push(msg.clone());
            return Err(msg);
        };
        let modifiable = self
            .force_cfg
            .as_ref()
            .map(|c| c.run_is_modifiable(cmd))
            .unwrap_or(false);
        if modifiable {
            self.report.modifiable_runs += 1;
        }
        let wrap =
            matches!(self.builder.kind, BuilderKind::ChImage) && self.options.force && modifiable;

        let mut shell = ExecEnv::new(
            &mut e.fs,
            e.creds.clone(),
            &e.userns,
            &e.catalog,
            &self.options.arch,
        );
        // The lie database moves into the shell for this RUN and back out
        // after it (the stage fails on any early return, dropping it). A
        // database still shared with a cache entry is copied first.
        shell.fakeroot_db = std::mem::take(Arc::make_mut(&mut self.fakeroot_db));

        // --force initialization before the first modified RUN.
        if wrap && !self.force_initialized {
            let cfg = self.force_cfg.as_ref().expect("wrap implies config");
            let mut init_failed = None;
            for (i, step) in cfg.init_steps.iter().enumerate() {
                self.report.transcript.push(format!(
                    "workarounds: init step {}: checking: $ {}",
                    i + 1,
                    step.check
                ));
                let check = shell.run_command(&step.check);
                if check.success() {
                    continue;
                }
                self.report.transcript.push(format!(
                    "workarounds: init step {}: $ {}",
                    i + 1,
                    step.apply
                ));
                let apply = shell.run_command(&step.apply);
                self.report.transcript.extend(apply.lines);
                if apply.status != 0 {
                    init_failed = Some(apply.status);
                    break;
                }
            }
            if let Some(status) = init_failed {
                let msg = format!(
                    "error: build failed: --force initialization exited with {}",
                    status
                );
                self.report.transcript.push(msg.clone());
                return Err(msg);
            }
            self.force_initialized = true;
        }

        let result = if wrap {
            self.report.instructions_modified += 1;
            self.report.transcript.push(format!(
                "workarounds: RUN: new command: [ 'fakeroot', '/bin/sh', '-c', '{}' ]",
                cmd
            ));
            shell.run_wrapped(cmd)
        } else {
            shell.run_command(cmd)
        };
        *Arc::make_mut(&mut self.fakeroot_db) = std::mem::take(&mut shell.fakeroot_db);
        self.report.transcript.extend(result.lines);
        if result.status != 0 {
            let msg = format!(
                "error: build failed: RUN command exited with {}",
                result.status
            );
            self.report.transcript.push(msg.clone());
            if matches!(self.builder.kind, BuilderKind::ChImage)
                && !self.options.force
                && self.force_cfg.is_some()
                && self.report.modifiable_runs > 0
            {
                self.report
                    .transcript
                    .push("hint: --force may fix this failure; see ch-image(1)".to_string());
            }
            return Err(msg);
        }
        Ok(())
    }

    /// `COPY` from the user-provided build context.
    fn execute_copy(&mut self, sources: &[String], dest: &str) -> Result<(), String> {
        let Some(e) = self.env.as_mut() else {
            let msg = "error: COPY before FROM".to_string();
            self.report.transcript.push(msg.clone());
            return Err(msg);
        };
        let Some(ctx) = self.context else {
            let msg = format!("error: COPY {}: no build context", sources.join(" "));
            self.report.transcript.push(msg.clone());
            return Err(msg);
        };
        for src in sources {
            let Ok(content) = context_file(ctx, src) else {
                let msg = format!("error: COPY {}: not found in context", src);
                self.report.transcript.push(msg.clone());
                return Err(msg);
            };
            let dst = dest_for(dest, src);
            if let Err(errno) =
                e.fs.install_file(&dst, content, e.creds.euid, e.creds.egid, Mode::FILE_644)
            {
                let msg = format!("error: COPY {}: {}: {}", src, dst, errno);
                self.report.transcript.push(msg.clone());
                return Err(msg);
            }
        }
        Ok(())
    }

    /// `COPY --from=<stage>`: sources come out of the referenced stage's
    /// artifact as CoW subtree copies (file bytes stay shared).
    fn execute_copy_from(
        &mut self,
        idx: usize,
        sources: &[String],
        dest: &str,
    ) -> Result<(), String> {
        let Some(edge) = self.copy_from_edge(idx) else {
            let msg = "error: COPY --from not planned for this instruction".to_string();
            self.report.transcript.push(msg.clone());
            return Err(msg);
        };
        let Some(art) = self.upstream.get(&edge.source_stage) else {
            let msg = format!("error: stage {} has no built artifact", edge.source_stage);
            self.report.transcript.push(msg.clone());
            return Err(msg);
        };
        let Some(e) = self.env.as_mut() else {
            let msg = "error: COPY before FROM".to_string();
            self.report.transcript.push(msg.clone());
            return Err(msg);
        };
        let root_creds = Credentials::host_root();
        let host_ns = UserNamespace::initial();
        let root = Actor::new(&root_creds, &host_ns);
        for src in sources {
            if !art.fs.exists(&root, src) {
                let msg = format!(
                    "error: COPY --from={} {}: not found in stage image",
                    edge.source_stage, src
                );
                self.report.transcript.push(msg.clone());
                return Err(msg);
            }
            let dst = dest_for(dest, src);
            if let Err(err) = e.fs.copy_tree_from(&art.fs, src, &dst) {
                let msg = format!("error: COPY --from={} {}: {}", edge.source_stage, src, err);
                self.report.transcript.push(msg.clone());
                return Err(msg);
            }
        }
        Ok(())
    }

    fn execute_workdir(&mut self, path: &str) {
        Arc::make_mut(&mut self.config).workdir = path.to_string();
        if let Some(e) = self.env.as_mut() {
            let actor = Actor::new(&e.creds, &e.userns);
            if !e.fs.exists(&actor, path) {
                let _ =
                    e.fs.install_dir(path, e.creds.euid, e.creds.egid, Mode::DIR_755);
            }
        }
    }
}

/// Binds an instruction's content to a cache key: one tag per kind, then
/// every field. The `FROM` alias and the `--from` spelling (alias or index)
/// are naming, not content, so they stay out; the executor binds the
/// upstream stage and its final state instead.
fn bind_instruction(key: &mut StateKey, instruction: &Instruction) {
    match instruction {
        Instruction::From { image, alias: _ } => key.tag(1).str(image),
        Instruction::Run(cmd) => key.tag(2).str(cmd),
        Instruction::Copy {
            sources,
            dest,
            from: None,
        } => key.tag(3).strs(sources).str(dest),
        Instruction::Copy {
            sources,
            dest,
            from: Some(_),
        } => key.tag(4).strs(sources).str(dest),
        Instruction::Env { key: k, value } => key.tag(5).str(k).str(value),
        Instruction::Arg { name, default } => key.tag(6).str(name).opt_str(default.as_deref()),
        Instruction::Workdir(path) => key.tag(7).str(path),
        Instruction::User(user) => key.tag(8).str(user),
        Instruction::Label { key: k, value } => key.tag(9).str(k).str(value),
        Instruction::Cmd(args) => key.tag(10).strs(args),
        Instruction::Entrypoint(args) => key.tag(11).strs(args),
        Instruction::Expose(port) => key.tag(12).u64(u64::from(*port)),
        Instruction::Volume(path) => key.tag(13).str(path),
    };
}

/// A `COPY` source's bytes from the build context, read as host root.
fn context_file(ctx: &Filesystem, src: &str) -> KResult<FileBytes> {
    let root_creds = Credentials::host_root();
    let host_ns = UserNamespace::initial();
    let actor = Actor::new(&root_creds, &host_ns);
    ctx.file_bytes(&actor, &format!("/{}", src.trim_start_matches('/')))
}

/// Destination path for one `COPY` source: trailing-slash destinations get
/// the source's basename appended.
fn dest_for(dest: &str, src: &str) -> String {
    if dest.ends_with('/') {
        format!("{}{}", dest, src.rsplit('/').next().unwrap_or(src))
    } else {
        dest.to_string()
    }
}

/// Renders an instruction for the transcript, numbered as in `ch-image`.
pub(crate) fn display_instruction(n: usize, instruction: &Instruction) -> String {
    match instruction {
        Instruction::From { image, alias } => match alias {
            Some(a) => format!("{} FROM {} AS {}", n, image, a),
            None => format!("{} FROM {}", n, image),
        },
        Instruction::Run(cmd) => format!("{} RUN [ '/bin/sh', '-c', '{}' ]", n, cmd),
        Instruction::Copy {
            sources,
            dest,
            from,
        } => match from {
            Some(r) => format!("{} COPY --from={} {} {}", n, r, sources.join(" "), dest),
            None => format!("{} COPY {} {}", n, sources.join(" "), dest),
        },
        Instruction::Env { key, value } => format!("{} ENV {}={}", n, key, value),
        Instruction::Arg { name, .. } => format!("{} ARG {}", n, name),
        Instruction::Workdir(p) => format!("{} WORKDIR {}", n, p),
        Instruction::User(u) => format!("{} USER {}", n, u),
        Instruction::Label { key, value } => format!("{} LABEL {}={}", n, key, value),
        Instruction::Cmd(args) => format!("{} CMD {:?}", n, args),
        Instruction::Entrypoint(args) => format!("{} ENTRYPOINT {:?}", n, args),
        Instruction::Expose(p) => format!("{} EXPOSE {}", n, p),
        Instruction::Volume(v) => format!("{} VOLUME {}", n, v),
    }
}

/// Runs one stage against its upstream artifacts and returns the stage's
/// report, plus its artifact if it succeeded.
///
/// This is what every driver of a [`GraphRun`] calls per stage: the serial
/// and threaded drivers behind [`Builder::build`], and the build farm's
/// workers, which run the stages of many builds as work-stealing tasks.
/// `upstream` must hold an artifact for every dependency of `stage_index`
/// recorded in the graph ([`GraphRun::upstream`] builds it).
pub fn execute_stage(
    builder: &Builder,
    ir: &BuildIr,
    graph: &BuildGraph,
    stage_index: usize,
    options: &BuildOptions,
    context: Option<&Filesystem>,
    upstream: &HashMap<usize, StageArtifact>,
) -> (StageReport, Option<StageArtifact>) {
    let stage = &ir.stages[stage_index];
    let is_final = stage_index + 1 == ir.stage_count();
    let display_tag = if is_final {
        options.tag.clone()
    } else {
        match &stage.alias {
            Some(a) => format!("{} (stage {}: {})", options.tag, stage_index, a),
            None => format!("{} (stage {})", options.tag, stage_index),
        }
    };
    let start = std::time::Instant::now();
    let (mut report, artifact) = StageCtx::new(
        builder,
        options,
        context,
        stage,
        graph.node(stage_index),
        upstream,
        display_tag,
    )
    .run();
    report.elapsed = start.elapsed();
    (report, artifact)
}

/// Runs a planned graph to completion and folds it into the build's report
/// and final artifact. With `options.parallel` (the default) and more than
/// one stage, stages run on scoped threads; otherwise serially in level
/// order. Both drivers run the same stages and return the same report.
pub(crate) fn run_graph(
    builder: &Builder,
    ir: &BuildIr,
    graph: &BuildGraph,
    options: &BuildOptions,
    context: Option<&Filesystem>,
) -> (BuildReport, Option<StageArtifact>) {
    let exec = |stage: usize, upstream: &HashMap<usize, StageArtifact>| {
        execute_stage(builder, ir, graph, stage, options, context, upstream)
    };
    let mut run = GraphRun::new(graph);
    if options.parallel && graph.stage_count() > 1 {
        let shared = Mutex::new(run);
        std::thread::scope(|scope| {
            let mut roots = graph.roots();
            // The first root runs on this thread; only extra roots (and
            // later, extra released dependents) cost a spawn.
            let first = roots.remove(0);
            for root in roots {
                let (shared, exec) = (&shared, &exec);
                scope.spawn(move || stage_worker(scope, graph, shared, exec, root));
            }
            stage_worker(scope, graph, &shared, &exec, first);
        });
        run = shared.into_inner().unwrap_or_else(|p| p.into_inner());
    } else {
        for &stage in graph.levels().iter().flatten() {
            if run.is_released(stage) {
                let (report, artifact) = exec(stage, &run.upstream(graph, stage));
                run.complete(graph, stage, report, artifact);
            }
        }
    }
    run.finish(graph, &options.tag)
}

/// The threaded driver's worker: runs a stage, then *continues inline* with
/// one stage it released, spawning threads only for the extras, so a chain
/// of stages costs no extra thread and a diamond costs one. No lock is held
/// while a stage executes.
fn stage_worker<'scope, 'e, F>(
    scope: &'scope std::thread::Scope<'scope, 'e>,
    graph: &'e BuildGraph,
    run: &'e Mutex<GraphRun>,
    exec: &'e F,
    mut stage: usize,
) where
    F: Fn(usize, &HashMap<usize, StageArtifact>) -> (StageReport, Option<StageArtifact>) + Sync,
{
    loop {
        let upstream = lock_recover(run).upstream(graph, stage);
        let (report, artifact) = exec(stage, &upstream);
        let mut ready = lock_recover(run).complete(graph, stage, report, artifact);
        let Some(next) = ready.pop() else {
            return;
        };
        for d in ready {
            scope.spawn(move || stage_worker(scope, graph, run, exec, d));
        }
        stage = next;
    }
}

#[cfg(test)]
mod tests {
    //! The cache-key contract: a key changes with every input it binds and
    //! with nothing else, and no two different inputs share one.

    use super::*;
    use hpcc_kernel::{Gid, Uid};
    use hpcc_runtime::Invoker;

    /// Every input [`StageCtx::state_id_for`] reads. The stage under test
    /// has two upstream stages, and its instruction 1 is planned as a
    /// `COPY --from` of `source_stage`.
    #[derive(Clone)]
    struct Case {
        identity: &'static str,
        force: bool,
        arch: &'static str,
        parent: Option<Digest>,
        /// Bytes of the context file `app.c`; `None` leaves it out.
        app_c: Option<&'static [u8]>,
        base: StageBase,
        source_stage: usize,
        /// Final states of upstream stages 0 and 1.
        upstream: [Option<Digest>; 2],
        idx: usize,
        instruction: Instruction,
    }

    fn digest(label: &str) -> Digest {
        sha256(label.as_bytes())
    }

    fn case(instruction: Instruction) -> Case {
        Case {
            identity: "type3|Uid(1000)|Gid(1000)",
            force: true,
            arch: "x86_64",
            parent: Some(digest("parent")),
            app_c: Some(b"int main(){}"),
            base: StageBase::Image("centos:7".to_string()),
            source_stage: 0,
            upstream: [Some(digest("stage 0")), Some(digest("stage 1"))],
            idx: 1,
            instruction,
        }
    }

    fn key(case: &Case) -> Digest {
        let builder = Builder::ch_image(Invoker::user("alice", 1000, 1000));
        let mut options = BuildOptions::new("contract");
        options.force = case.force;
        options.arch = case.arch.to_string();
        let mut context = Filesystem::new_local();
        if let Some(bytes) = case.app_c {
            context
                .install_file("/app.c", bytes.to_vec(), Uid(0), Gid(0), Mode::FILE_644)
                .unwrap();
        }
        let artifact = |final_state| StageArtifact {
            fs: Filesystem::new_local(),
            config: Arc::default(),
            fakeroot_db: Arc::default(),
            base_reference: "centos:7".to_string(),
            final_state,
        };
        let upstream = HashMap::from([
            (0, artifact(case.upstream[0])),
            (1, artifact(case.upstream[1])),
        ]);
        let stage = IrStage {
            index: 2,
            alias: None,
            base: String::new(),
            instructions: Vec::new(),
            spans: Vec::new(),
        };
        let node = GraphNode {
            stage: 2,
            base: case.base.clone(),
            copy_from: vec![CopyFromEdge {
                instruction: 1,
                source_stage: case.source_stage,
            }],
            deps: vec![0, 1],
            dependents: Vec::new(),
        };
        let mut ctx = StageCtx::new(
            &builder,
            &options,
            Some(&context),
            &stage,
            &node,
            &upstream,
            String::new(),
        );
        ctx.builder_identity = case.identity.to_string();
        ctx.parent = case.parent;
        ctx.state_id_for(case.idx, &case.instruction)
    }

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn context_copy(sources: &[&str], dest: &str) -> Instruction {
        Instruction::Copy {
            sources: strings(sources),
            dest: dest.to_string(),
            from: None,
        }
    }

    fn copy_from(sources: &[&str], dest: &str, from: &str) -> Instruction {
        Instruction::Copy {
            sources: strings(sources),
            dest: dest.to_string(),
            from: Some(from.to_string()),
        }
    }

    /// One row per instruction kind: a base instruction, then variants that
    /// each change exactly one of its fields.
    fn variants() -> Vec<(Instruction, Vec<Instruction>)> {
        use Instruction::*;
        let env = |k: &str, v: &str| Env {
            key: k.to_string(),
            value: v.to_string(),
        };
        let label = |k: &str, v: &str| Label {
            key: k.to_string(),
            value: v.to_string(),
        };
        let arg = |name: &str, default: Option<&str>| Arg {
            name: name.to_string(),
            default: default.map(str::to_string),
        };
        vec![
            (
                From {
                    image: "centos:7".to_string(),
                    alias: None,
                },
                vec![From {
                    image: "debian:10".to_string(),
                    alias: None,
                }],
            ),
            (
                Run("yum install -y gcc".to_string()),
                vec![Run("yum install -y gcc ".to_string())],
            ),
            (
                context_copy(&["app.c"], "/src/app.c"),
                vec![
                    context_copy(&["app.c", "app.c"], "/src/app.c"),
                    context_copy(&["app.c"], "/src/"),
                    copy_from(&["app.c"], "/src/app.c", "0"),
                ],
            ),
            (
                copy_from(&["/opt/spack"], "/opt/spack", "toolchain"),
                vec![
                    copy_from(&["/opt/spack/bin"], "/opt/spack", "toolchain"),
                    copy_from(&["/opt/spack"], "/opt", "toolchain"),
                    context_copy(&["/opt/spack"], "/opt/spack"),
                ],
            ),
            (
                env("STACK", "atse"),
                vec![env("STACKS", "atse"), env("STACK", "atse2")],
            ),
            (
                arg("PKG", None),
                vec![
                    arg("PKGS", None),
                    arg("PKG", Some("")),
                    arg("PKG", Some("x")),
                ],
            ),
            (
                Workdir("/srv".to_string()),
                vec![Workdir("/srv/".to_string())],
            ),
            (User("alice".to_string()), vec![User("bob".to_string())]),
            (
                label("org", "lanl"),
                vec![label("org2", "lanl"), label("org", "lanl2")],
            ),
            (
                Cmd(strings(&["/usr/bin/app", "-v"])),
                vec![
                    Cmd(strings(&["/usr/bin/app", "-V"])),
                    Cmd(strings(&["/usr/bin/app"])),
                    Cmd(strings(&["/usr/bin/app", "-v", ""])),
                ],
            ),
            (
                Entrypoint(strings(&["/bin/sh", "-c"])),
                vec![
                    Entrypoint(strings(&["/bin/sh", "-e"])),
                    Entrypoint(Vec::new()),
                ],
            ),
            (Expose(8080), vec![Expose(8081)]),
            (
                Volume("/data".to_string()),
                vec![Volume("/scratch".to_string())],
            ),
        ]
    }

    /// One edit of one input.
    type Edit = fn(&mut Case);

    /// The key of `base` with one input edited.
    fn key_with(base: &Case, edit: impl FnOnce(&mut Case)) -> Digest {
        let mut case = base.clone();
        edit(&mut case);
        key(&case)
    }

    #[test]
    fn cache_key_changes_with_every_bound_input() {
        let rows = variants();
        let mut seen = HashMap::new();
        for (instruction, changed) in &rows {
            let base = case(instruction.clone());
            let k = key(&base);
            assert_eq!(k, key(&base), "{instruction:?}: deterministic");
            // Distinct kinds never share a key, even with equal payloads.
            assert!(seen.insert(k, instruction).is_none(), "{instruction:?}");
            for other in changed {
                let edited = key_with(&base, |c| c.instruction = other.clone());
                assert_ne!(edited, k, "{instruction:?} -> {other:?}");
            }
            let bound: [(&str, Edit); 5] = [
                ("parent", |c| c.parent = Some(digest("another parent"))),
                ("scratch parent", |c| c.parent = None),
                ("identity", |c| c.identity = "type3|Uid(1001)|Gid(1001)"),
                ("force", |c| c.force = false),
                ("arch", |c| c.arch = "aarch64"),
            ];
            for (input, edit) in bound {
                assert_ne!(key_with(&base, edit), k, "{instruction:?}: {input}");
            }
            // Context bytes bind only a context COPY, and upstream stages
            // only a COPY --from.
            let context_copy = matches!(instruction, Instruction::Copy { from: None, .. });
            let copy_from = matches!(instruction, Instruction::Copy { from: Some(_), .. });
            let edited = key_with(&base, |c| c.app_c = Some(b"int main(){return 1;}"));
            let missing = key_with(&base, |c| c.app_c = None);
            assert_eq!(edited != k, context_copy, "{instruction:?}: bytes");
            assert_eq!(missing != k, context_copy, "{instruction:?}: missing");
            assert_eq!(edited != missing, context_copy, "{instruction:?}");
            let upstream: [Edit; 3] = [
                |c| c.source_stage = 1,
                |c| c.upstream[0] = Some(digest("stage 0 rebuilt")),
                |c| c.upstream[0] = None,
            ];
            for edit in upstream {
                let edited = key_with(&base, edit);
                assert_eq!(edited != k, copy_from, "{instruction:?}: source stage");
            }
        }
        assert_eq!(seen.len(), rows.len());
    }

    #[test]
    fn cache_key_of_a_stage_based_from_binds_the_upstream_final_state() {
        let from = Instruction::From {
            image: "base".to_string(),
            alias: None,
        };
        // A stage's first FROM on an image has no parent...
        let on_image = Case {
            idx: 0,
            ..case(from)
        };
        let k = key(&on_image);
        assert_eq!(key_with(&on_image, |c| c.parent = None), k);
        // ...and on an earlier stage it chains from that stage's final
        // state, and nothing else upstream.
        let on_stage = Case {
            base: StageBase::Stage(0),
            ..on_image
        };
        let k = key(&on_stage);
        assert_eq!(key_with(&on_stage, |c| c.upstream[1] = None), k);
        let rebuilt = key_with(&on_stage, |c| {
            c.upstream[0] = Some(digest("stage 0 rebuilt"))
        });
        assert_ne!(rebuilt, k);
    }

    #[test]
    fn cache_key_ignores_naming_only_differences() {
        let named = |alias: Option<&str>| {
            key(&case(Instruction::From {
                image: "centos:7".to_string(),
                alias: alias.map(str::to_string),
            }))
        };
        assert_eq!(named(None), named(Some("toolchain")));
        assert_eq!(named(Some("toolchain")), named(Some("spack-env")));
        // `--from=<alias>` and `--from=<index>` name the same planned edge.
        let by_alias = key(&case(copy_from(&["/opt"], "/opt", "toolchain")));
        let by_index = key(&case(copy_from(&["/opt"], "/opt", "0")));
        assert_eq!(by_alias, by_index);
    }

    #[test]
    fn cache_key_values_with_separators_cannot_collide() {
        let run = || Instruction::Run("make".to_string());
        let from = |image: &str| Instruction::From {
            image: image.to_string(),
            alias: None,
        };
        // In each pair, joining the fields with a separator that also
        // occurs in a value gives the same text.
        let pairs = [
            (
                Case {
                    identity: "id|force=true|arch=x86_64",
                    force: false,
                    arch: "y",
                    ..case(run())
                },
                Case {
                    identity: "id",
                    force: true,
                    arch: "x86_64|force=false|arch=y",
                    ..case(run())
                },
            ),
            (
                Case {
                    arch: "x86_64|FROM a",
                    ..case(from("b"))
                },
                Case {
                    arch: "x86_64",
                    ..case(from("a|FROM b"))
                },
            ),
            (
                case(Instruction::Env {
                    key: "A=B".to_string(),
                    value: "C".to_string(),
                }),
                case(Instruction::Env {
                    key: "A".to_string(),
                    value: "B=C".to_string(),
                }),
            ),
            (
                case(Instruction::Label {
                    key: "a|b".to_string(),
                    value: "c".to_string(),
                }),
                case(Instruction::Label {
                    key: "a".to_string(),
                    value: "b|c".to_string(),
                }),
            ),
            (
                case(context_copy(&["a b"], "/d")),
                case(context_copy(&["a", "b"], "/d")),
            ),
            (
                case(Instruction::Cmd(strings(&["a", "b"]))),
                case(Instruction::Cmd(strings(&["a|b"]))),
            ),
        ];
        for (a, b) in &pairs {
            assert_ne!(key(a), key(b), "{:?} vs {:?}", a.instruction, b.instruction);
        }
    }
}
