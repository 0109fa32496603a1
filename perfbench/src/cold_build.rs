//! `cold_build`: a new build on a new node — the paper's workflow.
//!
//! One thread runs closed-loop pipelines: build → push → `Registry::pull` →
//! launch → verify. Every pipeline gets a fresh `Builder` (nothing memoized,
//! instruction cache off) and a fresh registry, and picks by seed between
//! Type III `ch-image --force` and Type II rootless Podman building the
//! unmodified Figure 2 or Figure 3 Dockerfile plus one `COPY` of a small
//! app payload. Every cold build layer works here while the instruction
//! cache, the farm and the wire sit idle.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcc_repro::core::{
    default_subuid_for, execute_stage, BaseEnvMemo, BuildGraph, BuildIr, BuildOptions, Builder,
    BuilderKind, PushOwnership, ShardedBuildCache, StageArtifact,
};
use hpcc_repro::image::{Digest, Image, Registry};
use hpcc_repro::kernel::{Credentials, Gid, Sysctl, Uid, UserNamespace};
use hpcc_repro::runtime::{Container, Invoker, StorageDriver, SubIdDb};
use hpcc_repro::vfs::{cow_detach_nodes, Actor, Filesystem, FsBackend, Mode};

use crate::gen::{ColdInputs, ColdPick, ColdSchedule, Privilege, COLD_PAYLOAD_DIR, COLD_SIZES};
use crate::trace::{self, Layer};
use crate::{calib, Checks, Config, Outcome};

const TAG: &str = "app";
const REFERENCE: &str = "hpc/app:1.0";
/// Speed exponent of the host-speed scaling (see [`calib::scale`]): build
/// pipelines run from the caches and slow almost as much as the probe does.
/// At 1.0 a round scaled on a shared core read 12% below one scaled on a
/// quiet core; at 0.9 the two agree within 7%.
const SPEED_EXPONENT: f64 = 0.9;

/// Inputs and reference results of one seed.
struct Setup {
    inputs: ColdInputs,
    invoker: Invoker,
    subuid: SubIdDb,
    contexts: Vec<Filesystem>,
    dockerfiles: HashMap<ColdPick, String>,
    /// Manifest digest of each distinct pick's first build.
    digests: HashMap<ColdPick, Digest>,
}

/// What one pipeline leaves to verify.
struct Built {
    digest: Digest,
    container: Container,
    instructions: usize,
    force_modified: usize,
    packed_bytes: usize,
    derivations: usize,
}

fn setup(seed: u64, checks: &mut Checks) -> Setup {
    let inputs = ColdInputs::generate(seed, COLD_SIZES);
    let contexts = inputs
        .payloads
        .iter()
        .map(|files| {
            let mut ctx = Filesystem::new_local();
            for f in files {
                ctx.install_file(
                    &format!("/{}", f.path),
                    f.bytes.clone(),
                    Uid(0),
                    Gid(0),
                    Mode::FILE_644,
                )
                .expect("context install into a fresh filesystem");
            }
            ctx
        })
        .collect();
    let dockerfiles = inputs
        .all_picks()
        .into_iter()
        .map(|p| (p, inputs.dockerfile(p)))
        .collect();
    let mut s = Setup {
        inputs,
        invoker: Invoker::user("alice", 1000, 1000),
        subuid: default_subuid_for("alice"),
        contexts,
        dockerfiles,
        digests: HashMap::new(),
    };
    // Build every distinct pick once: the reference digests, and a warm
    // allocator for the measured loop.
    for pick in s.inputs.all_picks() {
        match pipeline(&s, pick) {
            Ok(built) => {
                checks.require(payload_matches(&s, pick, &built.container).is_ok(), || {
                    format!("set-up build of {pick:?} lost payload bytes")
                });
                s.digests.insert(pick, built.digest);
            }
            Err(e) => checks.require(false, || format!("set-up build of {pick:?}: {e}")),
        }
    }
    s
}

fn options(pick: ColdPick) -> BuildOptions {
    let arch = crate::gen::COLD_DOCKERFILES[pick.dockerfile].1;
    let opts = BuildOptions::new(TAG).with_arch(arch);
    match pick.privilege {
        Privilege::TypeIII => opts.with_force(),
        Privilege::TypeII => opts,
    }
}

fn kind(s: &Setup, pick: ColdPick) -> BuilderKind {
    match pick.privilege {
        Privilege::TypeIII => BuilderKind::ChImage,
        Privilege::TypeII => BuilderKind::RootlessPodman {
            subuid: s.subuid.clone(),
            driver: StorageDriver::Vfs,
            backend: FsBackend::LocalDisk,
            sysctl: Sysctl::rhel76(),
        },
    }
}

fn launch(s: &Setup, pick: ColdPick, image: &Image) -> Result<Container, String> {
    match pick.privilege {
        Privilege::TypeIII => Container::launch_type3(image, &s.invoker),
        Privilege::TypeII => Container::launch_type2(
            image,
            &s.invoker,
            &s.subuid,
            StorageDriver::Vfs,
            FsBackend::LocalDisk,
            &Sysctl::rhel76(),
        ),
    }
    .map_err(|e| format!("launch: {e}"))
}

/// One pipeline, through the public calls a user makes when tracing is
/// off, or split at each layer boundary when it is on.
fn pipeline(s: &Setup, pick: ColdPick) -> Result<Built, String> {
    if trace::enabled() {
        return pipeline_layered(s, pick);
    }
    let text = &s.dockerfiles[&pick];
    let opts = options(pick);
    let mut builder = Builder::new(kind(s, pick), s.invoker.clone());
    let report = builder.build(text, &opts, Some(&s.contexts[pick.payload]));
    if !report.success {
        return Err(format!("build: {:?}", report.error_text()));
    }
    let mut registry = Registry::new("registry.example");
    let ownership = match pick.privilege {
        Privilege::TypeIII => PushOwnership::Flatten,
        Privilege::TypeII => PushOwnership::Preserve,
    };
    let digest = builder.push(TAG, REFERENCE, &mut registry, ownership)?;
    let image = registry.pull(REFERENCE).map_err(|e| format!("pull: {e}"))?;
    let container = launch(s, pick, &image)?;
    Ok(Built {
        digest,
        container,
        instructions: report.instructions_total,
        force_modified: report.instructions_modified,
        packed_bytes: image.total_size(),
        derivations: builder.base_env_memo().derivations(),
    })
}

/// The same work as [`pipeline`], one span per layer: parse → plan → base
/// env → `execute_stage` per stage + `store_artifact` → pack → push → pull
/// → launch. The base environment is derived by a FROM-only build on a
/// builder sharing a fresh memo; the real build then adopts it, so the
/// total work does not change.
fn pipeline_layered(s: &Setup, pick: ColdPick) -> Result<Built, String> {
    let text = &s.dockerfiles[&pick];
    let opts = options(pick);
    let ir = trace::span(Layer::Frontend, || {
        BuildIr::parse_with_args(text, &opts.build_args)
    })
    .map_err(|e| format!("parse: {e}"))?;
    let graph =
        trace::span(Layer::Plan, || BuildGraph::plan(&ir)).map_err(|e| format!("plan: {e}"))?;

    let memo = Arc::new(BaseEnvMemo::new());
    let cache = Arc::new(ShardedBuildCache::new());
    let base_ok = trace::span(Layer::BaseEnv, || {
        let mut probe = Builder::with_shared(
            kind(s, pick),
            s.invoker.clone(),
            Arc::clone(&cache),
            Arc::clone(&memo),
        );
        let from_only = format!("FROM {}\n", ir.stages[0].base);
        probe.build(&from_only, &opts, None).success
    });
    if !base_ok {
        return Err("base environment".to_string());
    }

    let mut builder = Builder::with_shared(kind(s, pick), s.invoker.clone(), cache, memo);
    let context = &s.contexts[pick.payload];
    let (instructions, force_modified) = trace::span(Layer::Execute, || {
        let mut artifacts: Vec<Option<StageArtifact>> = vec![None; graph.stage_count()];
        let (mut instructions, mut modified) = (0, 0);
        for level in graph.levels() {
            for &stage in level {
                let upstream: HashMap<usize, StageArtifact> = graph
                    .node(stage)
                    .deps
                    .iter()
                    .filter_map(|&d| artifacts[d].clone().map(|a| (d, a)))
                    .collect();
                let (report, artifact) = execute_stage(
                    &builder,
                    &ir,
                    &graph,
                    stage,
                    &opts,
                    Some(context),
                    &upstream,
                );
                instructions += report.instructions_total;
                modified += report.instructions_modified;
                let Some(artifact) = artifact else {
                    return Err(format!("stage {stage}: {:?}", report.error_text()));
                };
                artifacts[stage] = Some(artifact);
            }
        }
        let last = artifacts.pop().flatten().ok_or("no final stage")?;
        builder.store_artifact(TAG, &opts.arch, last);
        Ok((instructions, modified))
    })?;

    let built = builder.image(TAG).ok_or("no built image")?;
    let creds = s.invoker.host_creds().entered_own_namespace();
    let userns = match pick.privilege {
        Privilege::TypeIII => UserNamespace::type3(s.invoker.uid, s.invoker.gid),
        Privilege::TypeII => {
            let range = s.subuid.ranges_for(&s.invoker.name)[0];
            UserNamespace::type2(s.invoker.uid, s.invoker.gid, range.start, range.count)
        }
    };
    let actor = Actor::new(&creds, &userns);
    let mut config = built.config.clone();
    config.architecture = built.arch.clone();
    let image = trace::span(Layer::Pack, || match pick.privilege {
        Privilege::TypeIII => Image::from_fs_flattened(REFERENCE, &built.fs, &actor, config),
        Privilege::TypeII => Image::from_fs_preserved(REFERENCE, &built.fs, &actor, config),
    })
    .map_err(|e| format!("pack: {e}"))?;
    let mut registry = Registry::new("registry.example");
    let digest = trace::span(Layer::Push, || registry.push(&s.invoker.name, &image))
        .map_err(|e| format!("push: {e}"))?;
    let pulled =
        trace::span(Layer::Pull, || registry.pull(REFERENCE)).map_err(|e| format!("pull: {e}"))?;
    let container = trace::span(Layer::Launch, || launch(s, pick, &pulled))?;
    Ok(Built {
        digest,
        container,
        instructions,
        force_modified,
        packed_bytes: pulled.total_size(),
        derivations: builder.base_env_memo().derivations(),
    })
}

/// Every payload file is in the launched rootfs with the context's bytes.
fn payload_matches(s: &Setup, pick: ColdPick, container: &Container) -> Result<(), String> {
    let root = Credentials::host_root();
    let host = UserNamespace::initial();
    let actor = Actor::new(&root, &host);
    for f in &s.inputs.payloads[pick.payload] {
        let path = format!("{COLD_PAYLOAD_DIR}{}", f.name());
        match container.rootfs.file_bytes(&actor, &path) {
            Ok(bytes) if bytes.as_slice() == f.bytes.as_slice() => {}
            Ok(_) => return Err(format!("{path}: bytes differ from the context")),
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
    Ok(())
}

fn verify(s: &Setup, pick: ColdPick, built: &Built) -> Result<(), String> {
    if s.digests.get(&pick) != Some(&built.digest) {
        return Err(format!(
            "{pick:?}: manifest digest {} differs from the first build's",
            built.digest.to_oci_string()
        ));
    }
    payload_matches(s, pick, &built.container)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut setup_checks = Checks::default();
    let (s, setup_s) = crate::timed_setup(1, SPEED_EXPONENT, || {
        setup_checks = Checks::default();
        setup(cfg.seed, &mut setup_checks)
    });
    let mut checks = setup_checks;
    let mut schedule = ColdSchedule::new(cfg.seed, &s.inputs);
    if cfg.traced {
        trace::enable();
    }

    // Latency is taken per round — one pipeline of every distinct pick —
    // because single pipelines fall into one mode per privilege type and
    // Dockerfile, and a median between modes jumps from run to run. Each
    // round is scaled by a probe run right before it.
    let round_len = s.inputs.all_picks().len() as u64;
    let mut latencies = Vec::new();
    let mut round = Duration::ZERO;
    let mut probe = 0;
    let (mut instructions, mut modified, mut packed, mut derivations) = (0, 0, 0, 0);
    let cow_before = cow_detach_nodes();
    let mut busy = Duration::ZERO;
    let deadline = Instant::now() + cfg.duration();
    let mut unit = 0u64;
    while !unit.is_multiple_of(round_len) || unit == 0 || Instant::now() < deadline {
        if unit.is_multiple_of(round_len) {
            probe = calib::probe_ns();
        }
        unit += 1;
        let pick = schedule.next_pick();
        trace::set_unit(unit);
        let start = Instant::now();
        let result = trace::span(Layer::Pipeline, || pipeline(&s, pick));
        let took = start.elapsed();
        busy += took;
        round += took;
        if unit.is_multiple_of(round_len) {
            latencies.push(calib::scale(round.as_nanos() as u64, probe, SPEED_EXPONENT));
            round = Duration::ZERO;
        }
        checks.unit(result.and_then(|built| {
            instructions += built.instructions;
            modified += built.force_modified;
            packed += built.packed_bytes;
            derivations += built.derivations;
            verify(&s, pick, &built)
        }));
    }
    let builds = unit as f64;
    let cow = (cow_detach_nodes() - cow_before) as f64;

    let metrics = if cfg.traced {
        let t = trace::totals();
        let per_build = |layer: Layer| t[layer as usize].self_ns as f64 / 1e3 / builds;
        let allocs = |layer: Layer| t[layer as usize].self_allocs as f64 / builds;
        let mut m = crate::per_layer_defaults();
        m.insert("core.frontend.us", per_build(Layer::Frontend));
        m.insert("core.frontend.allocs", allocs(Layer::Frontend));
        m.insert("core.plan.us", per_build(Layer::Plan));
        m.insert("core.plan.allocs", allocs(Layer::Plan));
        m.insert("core.base_env.us", per_build(Layer::BaseEnv));
        m.insert("core.base_env.allocs", allocs(Layer::BaseEnv));
        m.insert("core.base_env.derivations", derivations as f64 / builds);
        m.insert("core.execute.us", per_build(Layer::Execute));
        m.insert("core.execute.allocs", allocs(Layer::Execute));
        m.insert("core.execute.instructions", instructions as f64 / builds);
        m.insert("core.execute.force_modified", modified as f64 / builds);
        m.insert("vfs.cow_detach_nodes", cow / builds);
        m.insert("image.pack.us", per_build(Layer::Pack));
        m.insert("image.pack.bytes", packed as f64 / builds);
        m.insert(
            "image.pack.mib_per_s",
            crate::ratio(
                packed as f64 / (1 << 20) as f64,
                t[Layer::Pack as usize].self_ns as f64 / 1e9,
            ),
        );
        m.insert("image.pack.allocs", allocs(Layer::Pack));
        m.insert("image.registry.push_us", per_build(Layer::Push));
        m.insert("image.registry.pull_us", per_build(Layer::Pull));
        m.insert("runtime.launch.us", per_build(Layer::Launch));
        m.insert("runtime.launch.allocs", allocs(Layer::Launch));
        m.insert("trace.layer_sum_ratio", crate::layer_sum_ratio(&t));
        m
    } else {
        let rounds: Vec<(u64, u64)> = latencies.iter().map(|&ns| (round_len, ns)).collect();
        crate::end_to_end(setup_s, crate::median_rate(&rounds), &mut latencies)
    };
    Outcome {
        checks,
        metrics,
        mean_unit_ns: busy.as_nanos() as f64 / builds,
    }
}
