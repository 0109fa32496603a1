//! `ci_rebuild`: a shared-facility CI stream through the build farm.
//!
//! Commits arrive in closed-loop waves: each wave submits every tenant's
//! commits through `BuildFarm::try_submit`, then calls `drain()` with one
//! worker per available core. The instruction cache is on and bounded, each
//! tenant reuses one tag, and tenants outnumber launch identities, so both
//! cross-tenant dedup and identity partitioning have work to do. Cache
//! lookup and adoption, CoW snapshot stores, the executor and farm
//! scheduling dominate; base-environment derivation, pack and the wire sit
//! idle.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use hpcc_repro::core::{BuildGraph, BuildIr, BuildOptions, Builder};
use hpcc_repro::farm::{BuildFarm, BuildRequest, FarmConfig};
use hpcc_repro::kernel::{Credentials, Gid, Uid, UserNamespace};
use hpcc_repro::runtime::Invoker;
use hpcc_repro::vfs::{cow_detach_nodes, Actor, Filesystem, InodeData, Mode};

use crate::gen::{CiSizes, CiStream, Commit, Rng, Wave, CI_BASE_UID, CI_SIZES};
use crate::trace::{self, Layer};
use crate::{calib, Checks, Config, Outcome};

const TAG: &str = "ci";
/// Speed exponent of the host-speed scaling (see [`calib::scale`]): waves
/// run on every core from the caches and slow as the probe does, so each
/// wave is scaled by a probe run on every core at once.
const SPEED_EXPONENT: f64 = 1.0;

/// Untimed waves in set-up, which bring the bounded cache to its steady
/// state (full and evicting).
const PRIME_WAVES: usize = 8;

/// One farm-built image in this many is compared against a fresh private
/// build of the same commit.
const FINGERPRINT_EVERY: usize = 16;

fn sizes(cfg: &Config) -> CiSizes {
    if cfg.tiny {
        CiSizes {
            tenants: 4,
            identities: 2,
            commits_per_tenant: 2,
            ..CI_SIZES
        }
    } else {
        CI_SIZES
    }
}

fn invoker(identity: usize) -> Invoker {
    let id = CI_BASE_UID + identity as u32;
    Invoker::user(&format!("ci{identity}"), id, id)
}

fn options(sizes: &CiSizes) -> BuildOptions {
    BuildOptions::new(TAG)
        .with_force()
        .with_cache()
        .with_cache_capacity(sizes.cache_capacity)
}

fn request(commit: &Commit, opts: &BuildOptions) -> BuildRequest {
    let mut context = Filesystem::new_local();
    context
        .install_file(
            &format!("/{}", commit.app.path),
            commit.app.bytes.clone(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .expect("context install into a fresh filesystem");
    BuildRequest::new(
        &format!("tenant{}", commit.tenant),
        &commit.dockerfile,
        opts.clone(),
    )
    .with_invoker(invoker(commit.identity))
    .with_context(context)
}

/// A content fingerprint of a filesystem: sorted path, owner, group, mode
/// and bytes (or link target, or device numbers) of every entry — never
/// inode numbers, which differ between equal trees.
fn fingerprint(fs: &Filesystem) -> u128 {
    use std::hash::{Hash, Hasher};
    let mut lo = std::collections::hash_map::DefaultHasher::new();
    let mut hi = std::collections::hash_map::DefaultHasher::new();
    1u8.hash(&mut hi);
    for (path, ino) in fs.walk() {
        let Ok(inode) = fs.inode(ino) else { continue };
        for h in [&mut lo, &mut hi] {
            path.hash(h);
            inode.uid.0.hash(h);
            inode.gid.0.hash(h);
            inode.mode.bits().hash(h);
            match &inode.data {
                InodeData::Regular { content } => content.as_slice().hash(h),
                InodeData::Directory { .. } => 0u8.hash(h),
                other => format!("{other:?}").hash(h),
            }
        }
    }
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

fn read_as_root(fs: &Filesystem, path: &str) -> Option<Vec<u8>> {
    let root = Credentials::host_root();
    let host = UserNamespace::initial();
    fs.file_bytes(&Actor::new(&root, &host), path)
        .ok()
        .map(|b| b.as_slice().to_vec())
}

/// The farm and the commit stream it builds.
struct Farm {
    farm: BuildFarm,
    stream: CiStream,
    opts: BuildOptions,
    tenants: usize,
}

/// What one wave did.
#[derive(Default)]
struct WaveStats {
    builds: u64,
    rejected: u64,
    queue_wait: Duration,
    build_wall: Duration,
    execute: Duration,
    instructions: u64,
    force_modified: u64,
}

impl Farm {
    fn new(seed: u64, sizes: CiSizes) -> Farm {
        Farm {
            farm: BuildFarm::new(FarmConfig::new(crate::load_threads())),
            stream: CiStream::new(seed, sizes),
            opts: options(&sizes),
            tenants: sizes.tenants,
        }
    }

    /// Generates, submits and drains one wave; returns the wave and its
    /// latency (first submit to the return of `drain`).
    fn wave(&mut self, checks: &mut Checks, stats: &mut WaveStats) -> (Wave, Duration) {
        let wave = self.stream.next_wave();
        let requests: Vec<BuildRequest> = wave
            .commits
            .iter()
            .map(|c| request(c, &self.opts))
            .collect();
        if trace::enabled() {
            // The farm parses and plans each commit inside `drain`, on its
            // workers; the same calls on this thread, before the wave,
            // give the front end's and planner's cost per build.
            for c in &wave.commits {
                let ir = trace::span(Layer::Frontend, || {
                    BuildIr::parse_with_args(&c.dockerfile, &self.opts.build_args)
                });
                if let Ok(ir) = ir {
                    let _ = trace::span(Layer::Plan, || BuildGraph::plan(&ir));
                }
            }
        }
        let cache = self.farm.cache();
        let misses_before = cache.misses();
        let start = Instant::now();
        let results = trace::span(Layer::Wave, || {
            for r in requests {
                if trace::span(Layer::FarmSubmit, || self.farm.try_submit(r)).is_err() {
                    stats.rejected += 1;
                }
            }
            trace::span(Layer::FarmDrain, || self.farm.drain())
        });
        let took = start.elapsed();
        let misses = cache.misses() - misses_before;

        let mut failed_builds = 0;
        for r in &results {
            stats.builds += 1;
            stats.queue_wait += r.queue_wait;
            stats.build_wall += r.elapsed;
            for stage in &r.report.stages {
                stats.execute += stage.elapsed;
                stats.instructions += stage.instructions_total as u64;
                stats.force_modified += stage.instructions_modified as u64;
            }
            if !r.report.success {
                failed_builds += 1;
                checks.unit(Err(format!(
                    "{} build failed: {:?}",
                    r.tenant,
                    r.report.error_text()
                )));
            } else {
                checks.unit(Ok(()));
            }
        }
        checks.require(results.len() == wave.commits.len(), || {
            format!(
                "{} of {} commits came back from drain",
                results.len(),
                wave.commits.len()
            )
        });
        if failed_builds == 0 {
            checks.require(misses == wave.predicted_misses, || {
                format!(
                    "wave had {misses} cache misses, the generator predicted {}",
                    wave.predicted_misses
                )
            });
        }
        (wave, took)
    }

    fn tenant_builder(&self, tenant: usize) -> Option<Arc<RwLock<Builder>>> {
        self.farm.tenant_builder(&format!("tenant{tenant}"))
    }

    /// Reads every tenant's app source back out of its tagged image: it
    /// must be the source of one of the tenant's commits in `wave`.
    fn check_app_sources(&self, wave: &Wave, checks: &mut Checks) {
        for tenant in 0..self.tenants {
            let found = self.tenant_builder(tenant).and_then(|b| {
                let b = b.read().ok()?;
                read_as_root(&b.image(TAG)?.fs, "/src/app.c")
            });
            let ok = found.is_some_and(|bytes| {
                wave.commits
                    .iter()
                    .any(|c| c.tenant == tenant && c.app.bytes == bytes)
            });
            checks.require(ok, || {
                format!("tenant{tenant}: image app source is not one of its commits")
            });
        }
    }

    /// Compares one tenant's farm-built image with a fresh private,
    /// cache-off, serial build of the same commit.
    fn check_fingerprint(&self, wave: &Wave, tenant: usize, checks: &mut Checks) {
        let farm_fs = self.tenant_builder(tenant).and_then(|b| {
            let b = b.read().ok()?;
            Some(b.image(TAG)?.fs.clone())
        });
        let Some(farm_fs) = farm_fs else {
            checks.require(false, || format!("tenant{tenant}: no image"));
            return;
        };
        let app = read_as_root(&farm_fs, "/src/app.c");
        let Some(commit) = wave
            .commits
            .iter()
            .find(|c| c.tenant == tenant && Some(&c.app.bytes) == app.as_ref())
        else {
            checks.require(false, || format!("tenant{tenant}: unknown app source"));
            return;
        };
        let mut private = Builder::ch_image(invoker(commit.identity));
        let request = request(commit, &self.opts);
        let opts = BuildOptions::new(TAG).with_force().with_serial_stages();
        let report = private.build(&commit.dockerfile, &opts, request.context.as_ref());
        let same = report.success
            && private
                .image(TAG)
                .is_some_and(|img| fingerprint(&img.fs) == fingerprint(&farm_fs));
        checks.require(same, || {
            format!("tenant{tenant}: farm image differs from a private build of the same commit")
        });
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let sizes = sizes(cfg);
    let mut setup_checks = Checks::default();
    let (mut farm, setup_s) = crate::timed_setup(crate::load_threads(), SPEED_EXPONENT, || {
        setup_checks = Checks::default();
        let mut farm = Farm::new(cfg.seed, sizes);
        for _ in 0..PRIME_WAVES {
            let (wave, _) = farm.wave(&mut setup_checks, &mut WaveStats::default());
            farm.check_app_sources(&wave, &mut setup_checks);
        }
        farm
    });
    // Set-up waves are checked but not counted as measured units.
    let mut checks = Checks {
        broken: setup_checks.broken + setup_checks.failed,
        messages: setup_checks.messages,
        ..Checks::default()
    };
    if cfg.traced {
        trace::enable();
    }

    let cache = farm.farm.cache();
    let memo = farm.farm.base_env_memo();
    let (hits0, misses0, deduped0, evictions0) = (
        cache.hits(),
        cache.misses(),
        cache.deduped(),
        cache.evictions(),
    );
    let derivations0 = memo.derivations();
    let cow_before = cow_detach_nodes();

    let mut sample = Rng::new(cfg.seed, "ci_rebuild/fingerprint");
    let mut stats = WaveStats::default();
    let mut latencies = Vec::new();
    let mut waves_built = Vec::new();
    let mut busy = Duration::ZERO;
    let deadline = Instant::now() + cfg.duration();
    let mut waves = 0u64;
    while waves == 0 || Instant::now() < deadline {
        waves += 1;
        trace::set_unit(waves);
        let probe = calib::probe_ns_on(crate::load_threads());
        let (wave, took) = farm.wave(&mut checks, &mut stats);
        busy += took;
        let took = calib::scale(took.as_nanos() as u64, probe, SPEED_EXPONENT);
        latencies.push(took);
        waves_built.push((wave.commits.len() as u64, took));
        farm.check_app_sources(&wave, &mut checks);
        if sample.below(FINGERPRINT_EVERY) == 0 {
            let tenant = sample.below(sizes.tenants);
            farm.check_fingerprint(&wave, tenant, &mut checks);
        }
    }
    let builds = stats.builds.max(1) as f64;

    let metrics = if cfg.traced {
        let t = trace::totals();
        let mut m = crate::per_layer_defaults();
        let hits = (cache.hits() - hits0) as f64;
        let misses = (cache.misses() - misses0) as f64;
        m.insert(
            "core.frontend.us",
            t[Layer::Frontend as usize].self_ns as f64 / 1e3 / builds,
        );
        m.insert(
            "core.frontend.allocs",
            t[Layer::Frontend as usize].self_allocs as f64 / builds,
        );
        m.insert(
            "core.plan.us",
            t[Layer::Plan as usize].self_ns as f64 / 1e3 / builds,
        );
        m.insert(
            "core.plan.allocs",
            t[Layer::Plan as usize].self_allocs as f64 / builds,
        );
        m.insert(
            "core.base_env.derivations",
            (memo.derivations() - derivations0) as f64 / builds,
        );
        m.insert(
            "core.execute.us",
            stats.execute.as_secs_f64() * 1e6 / builds,
        );
        m.insert(
            "core.execute.instructions",
            stats.instructions as f64 / builds,
        );
        m.insert(
            "core.execute.force_modified",
            stats.force_modified as f64 / builds,
        );
        m.insert("core.cache.hits", hits / builds);
        m.insert("core.cache.misses", misses / builds);
        m.insert(
            "core.cache.deduped",
            (cache.deduped() - deduped0) as f64 / builds,
        );
        m.insert(
            "core.cache.evictions",
            (cache.evictions() - evictions0) as f64 / builds,
        );
        m.insert("core.cache.hit_ratio", crate::ratio(hits, hits + misses));
        m.insert(
            "vfs.cow_detach_nodes",
            (cow_detach_nodes() - cow_before) as f64 / builds,
        );
        m.insert(
            "farm.submit_us",
            crate::ratio(
                t[Layer::FarmSubmit as usize].self_ns as f64 / 1e3,
                t[Layer::FarmSubmit as usize].spans as f64,
            ),
        );
        m.insert(
            "farm.queue_wait_ms",
            stats.queue_wait.as_secs_f64() * 1e3 / builds,
        );
        m.insert(
            "farm.build_ms",
            stats.build_wall.as_secs_f64() * 1e3 / builds,
        );
        m.insert("farm.rejected", stats.rejected as f64);
        m.insert("trace.layer_sum_ratio", crate::layer_sum_ratio(&t));
        m
    } else {
        crate::end_to_end(setup_s, crate::median_rate(&waves_built), &mut latencies)
    };
    Outcome {
        checks,
        metrics,
        mean_unit_ns: busy.as_nanos() as f64 / waves as f64,
    }
}
