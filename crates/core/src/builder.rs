//! Container image builders for the three privilege types.
//!
//! * [`BuilderKind::Docker`] — Type I baseline (privileged daemon build).
//! * [`BuilderKind::RootlessPodman`] — Type II: privileged user-namespace
//!   maps via `newuidmap`/`newgidmap`, no Dockerfile changes needed (paper §4).
//! * [`BuilderKind::ChImage`] — Type III: fully unprivileged, with optional
//!   `--force` automatic injection of `fakeroot(1)` (paper §5).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hpcc_distro::{base_image, catalog_for, Catalog};
use hpcc_fakeroot::LieDatabase;
use hpcc_image::{Digest, Image, ImageConfig, Registry};
use hpcc_kernel::sync::{lock_recover, wait_recover};
use hpcc_kernel::{Credentials, Sysctl, UserNamespace};
use hpcc_runtime::{Container, Invoker, PrivilegeType, StorageDriver, SubIdDb};
use hpcc_vfs::{Actor, Filesystem, FsBackend};

use crate::cache::ShardedBuildCache;
use crate::error::BuildError;
use crate::executor::run_graph;
use crate::graph::BuildGraph;
use crate::ir::BuildIr;

/// Which build tool (and therefore privilege model) to emulate.
#[derive(Debug, Clone)]
pub enum BuilderKind {
    /// Docker-style Type I build: requires host root.
    Docker,
    /// Rootless-Podman-style Type II build.
    RootlessPodman {
        /// `/etc/subuid` / `/etc/subgid` contents.
        subuid: SubIdDb,
        /// Storage driver.
        driver: StorageDriver,
        /// Backend for container storage.
        backend: FsBackend,
        /// Kernel configuration of the build node.
        sysctl: Sysctl,
    },
    /// Charliecloud-style Type III build (`ch-image`).
    ChImage,
}

/// Options for one build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Tag for the resulting image (e.g. `foo`).
    pub tag: String,
    /// Enable `--force` fakeroot injection (Type III only).
    pub force: bool,
    /// Enable the per-instruction build cache.
    pub use_cache: bool,
    /// Target CPU architecture.
    pub arch: String,
    /// Build independent stages of a multi-stage Dockerfile concurrently
    /// (default). Disable for a serial level-order baseline; both run the
    /// same stages and return the same report.
    pub parallel: bool,
    /// `--build-arg`-style overrides: values here override the defaults of
    /// declared `ARG`s during IR lowering, and the substituted text is what
    /// cache keys bind to.
    pub build_args: BTreeMap<String, String>,
    /// Total build-cache entry cap (across shards). When set, the builder's
    /// cache is capped before the build and least-recently-used entries are
    /// evicted — except entries still pinned by an in-flight stage. `None`
    /// (default) leaves the builder's current capacity unchanged.
    pub cache_capacity: Option<usize>,
}

impl BuildOptions {
    /// Options with a tag and defaults (no force, no cache, x86-64,
    /// parallel stage execution).
    pub fn new(tag: &str) -> Self {
        BuildOptions {
            tag: tag.to_string(),
            force: false,
            use_cache: false,
            arch: "x86_64".to_string(),
            parallel: true,
            build_args: BTreeMap::new(),
            cache_capacity: None,
        }
    }

    /// Enables `--force`.
    pub fn with_force(mut self) -> Self {
        self.force = true;
        self
    }

    /// Enables the build cache.
    pub fn with_cache(mut self) -> Self {
        self.use_cache = true;
        self
    }

    /// Sets the architecture.
    pub fn with_arch(mut self, arch: &str) -> Self {
        self.arch = arch.to_string();
        self
    }

    /// Disables parallel stage execution (serial level order).
    pub fn with_serial_stages(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Adds a `--build-arg NAME=value` override.
    pub fn with_build_arg(mut self, name: &str, value: &str) -> Self {
        self.build_args.insert(name.to_string(), value.to_string());
        self
    }

    /// Caps the build cache at `capacity` entries (LRU eviction).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }
}

/// A locally stored built image.
#[derive(Debug, Clone)]
pub struct BuiltImage {
    /// Tag.
    pub tag: String,
    /// Image filesystem as built.
    pub fs: Filesystem,
    /// Image configuration.
    pub config: ImageConfig,
    /// Fakeroot lie database accumulated during the build (Type III).
    pub fakeroot_db: LieDatabase,
    /// The base image reference used by `FROM`.
    pub base_reference: String,
    /// Architecture.
    pub arch: String,
    /// Privilege type used.
    pub privilege: PrivilegeType,
}

/// Report of one executed stage: the transcript reproduces the shape of the
/// paper's figures.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The stage's index in the Dockerfile.
    pub stage: usize,
    /// The stage's `AS` alias, if it has one.
    pub alias: Option<String>,
    /// Transcript lines.
    pub transcript: Vec<String>,
    /// Whether the stage succeeded.
    pub success: bool,
    /// The tag built: the build's tag for the final stage,
    /// `<tag> (stage i: alias)` for an intermediate one.
    pub tag: String,
    /// Instructions executed.
    pub instructions_total: usize,
    /// RUN instructions rewritten by `--force`.
    pub instructions_modified: usize,
    /// RUN instructions that *could* be rewritten.
    pub modifiable_runs: usize,
    /// Name of the matched force configuration, if any.
    pub force_config: Option<String>,
    /// Cache hits.
    pub cache_hits: usize,
    /// Cache misses.
    pub cache_misses: usize,
    /// The stage's own wall-clock execution time.
    pub elapsed: std::time::Duration,
    /// The error if the stage failed.
    pub error: Option<BuildError>,
}

impl StageReport {
    /// The transcript as one string.
    pub fn transcript_text(&self) -> String {
        self.transcript.join("\n")
    }

    /// The error rendered as text, if the stage failed.
    pub fn error_text(&self) -> Option<String> {
        self.error.as_ref().map(|e| e.to_string())
    }
}

/// Report of one build, however it was driven: the reports of the stages
/// that ran, the stages that were skipped, and counters summed over the
/// stages. A parse or plan failure is a report with no stages.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildReport {
    /// Reports of the stages that ran, in stage order.
    pub stages: Vec<StageReport>,
    /// One [`BuildError::DependencyFailed`] per stage that never ran, in
    /// stage order.
    pub skipped: Vec<BuildError>,
    /// The first error: the parse or plan error, or else the error of the
    /// lowest-index stage that failed.
    pub error: Option<BuildError>,
    /// Whether every stage succeeded.
    pub success: bool,
    /// The tag built.
    pub tag: String,
    /// Instructions executed.
    pub instructions_total: usize,
    /// RUN instructions rewritten by `--force`.
    pub instructions_modified: usize,
    /// RUN instructions that *could* be rewritten.
    pub modifiable_runs: usize,
    /// The first force configuration a stage matched, if any.
    pub force_config: Option<String>,
    /// Cache hits.
    pub cache_hits: usize,
    /// Cache misses.
    pub cache_misses: usize,
    /// The stages' execution times summed: total work, not makespan, since
    /// concurrent stages overlap.
    pub elapsed: std::time::Duration,
}

impl BuildReport {
    /// A report over the stages that ran and the stages that were skipped.
    pub(crate) fn from_stages(
        tag: &str,
        stages: Vec<StageReport>,
        skipped: Vec<BuildError>,
    ) -> Self {
        let sum = |count: fn(&StageReport) -> usize| stages.iter().map(count).sum();
        BuildReport {
            error: stages.iter().find_map(|s| s.error.clone()),
            success: skipped.is_empty() && stages.iter().all(|s| s.success),
            tag: tag.to_string(),
            instructions_total: sum(|s| s.instructions_total),
            instructions_modified: sum(|s| s.instructions_modified),
            modifiable_runs: sum(|s| s.modifiable_runs),
            force_config: stages.iter().find_map(|s| s.force_config.clone()),
            cache_hits: sum(|s| s.cache_hits),
            cache_misses: sum(|s| s.cache_misses),
            elapsed: stages.iter().map(|s| s.elapsed).sum(),
            stages,
            skipped,
        }
    }

    /// The report of a build that failed before any stage ran: a parse or
    /// plan error.
    pub fn failed(tag: &str, error: BuildError) -> Self {
        BuildReport {
            success: false,
            error: Some(error),
            ..BuildReport::from_stages(tag, Vec::new(), Vec::new())
        }
    }

    /// The transcript, rendered from the stage transcripts. A multi-stage
    /// build heads each stage that ran with `>>> stage i/n (alias)`; a
    /// parse or plan failure renders as its `error: …` line.
    pub fn transcript(&self) -> Vec<String> {
        if self.stages.is_empty() {
            return self.error.iter().map(|e| format!("error: {}", e)).collect();
        }
        // Every planned stage either ran or was skipped.
        let planned = self.stages.len() + self.skipped.len();
        let mut lines = Vec::new();
        for stage in &self.stages {
            if planned > 1 {
                let alias = stage
                    .alias
                    .as_deref()
                    .map(|a| format!(" ({})", a))
                    .unwrap_or_default();
                lines.push(format!(
                    ">>> stage {}/{}{}",
                    stage.stage + 1,
                    planned,
                    alias
                ));
            }
            lines.extend(stage.transcript.iter().cloned());
        }
        lines
    }

    /// The transcript as one string.
    pub fn transcript_text(&self) -> String {
        self.transcript().join("\n")
    }

    /// The error rendered as text, if the build failed.
    pub fn error_text(&self) -> Option<String> {
        self.error.as_ref().map(|e| e.to_string())
    }
}

/// Ownership policy when pushing a built image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOwnership {
    /// Flatten to root:root, clear setuid/setgid (Charliecloud default, §6.1).
    Flatten,
    /// Preserve the namespace view of ownership (Podman/Docker).
    Preserve,
    /// Reconstruct ownership from the fakeroot lie database (§6.2.2 item 2).
    FromFakerootDb,
}

/// A container image builder.
pub struct Builder {
    /// The build tool emulated.
    pub kind: BuilderKind,
    /// The invoking user.
    pub invoker: Invoker,
    /// The per-instruction build cache, shared across the concurrently
    /// executing stages of a build (and across builds by this builder).
    /// Sharded 16-way by digest prefix so wide stage graphs don't serialize
    /// their probes and stores on a single lock.
    pub(crate) cache: Arc<ShardedBuildCache>,
    store: HashMap<String, BuiltImage>,
    /// Launched base-image environments memoized per `(reference, arch)`,
    /// shareable across builders (see [`BaseEnvMemo`]).
    base_envs: Arc<BaseEnvMemo>,
}

/// Memoized result of launching a base image: the launched rootfs plus the
/// exact credentials/namespace the container runtime produced.
struct BaseEnvTemplate {
    fs: Filesystem,
    creds: Credentials,
    userns: UserNamespace,
    catalog: Arc<Catalog>,
    base_reference: String,
}

/// Memo key: `(builder launch identity, base reference, arch)`. The identity
/// component binds everything that shapes the launched environment —
/// privilege type, invoker, subuid ranges — so builders with different
/// privilege models sharing one memo can never adopt each other's
/// credentials.
type EnvKey = (String, String, String);

/// One memo slot: derivation state plus a condvar waiters block on while the
/// leader launches the base environment.
struct EnvSlot {
    state: Mutex<EnvSlotState>,
    cv: Condvar,
}

enum EnvSlotState {
    /// A leader is deriving; waiters block on the condvar.
    Pending,
    /// Derivation finished; every caller adopts this template.
    Ready(Arc<BaseEnvTemplate>),
    /// Derivation failed (or the leader panicked); waiters propagate the
    /// message. The slot was removed from the map, so a later call retries.
    Failed(String),
}

impl EnvSlot {
    fn new() -> Self {
        EnvSlot {
            state: Mutex::new(EnvSlotState::Pending),
            cv: Condvar::new(),
        }
    }
}

/// Restores a memo slot to a sane state if the deriving leader panics:
/// waiters are failed over instead of blocking forever on the condvar.
struct LeaderGuard<'a> {
    memo: &'a BaseEnvMemo,
    key: &'a EnvKey,
    slot: &'a Arc<EnvSlot>,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.memo.fail_slot(
                self.key,
                self.slot,
                "error: base environment derivation panicked".to_string(),
            );
        }
    }
}

/// Process-wide memo of launched base-image environments, keyed by
/// `(reference, arch)`.
///
/// Constructing a base tree, packaging it as an image, and launching a build
/// container is deterministic for a fixed builder kind, so cold
/// (instruction-cache-off) builds after the first adopt a CoW snapshot of the
/// launched rootfs instead of repeating the pack/unpack round trip — the
/// dominant cost of an uncached `FROM` (PERF.md §6). Historically this memo
/// lived per-[`Builder`], so concurrent tenants on a build farm re-derived
/// identical base environments; it is now a shared handle
/// ([`Builder::with_shared`]) with in-flight dedup: when N builders race on
/// the same key, one leads the derivation and the rest block until the
/// leader's template is ready, so the launch happens exactly once.
///
/// This is image-environment storage, not the instruction cache: `--no-cache`
/// semantics (fresh instruction execution) are unaffected. All locks recover
/// from poisoning, so a panicked build thread cannot wedge the memo for other
/// tenants.
#[derive(Default)]
pub struct BaseEnvMemo {
    slots: Mutex<HashMap<EnvKey, Arc<EnvSlot>>>,
    derivations: AtomicU64,
}

impl BaseEnvMemo {
    /// An empty memo.
    pub fn new() -> Self {
        BaseEnvMemo::default()
    }

    /// Number of base environments actually derived (launched) through this
    /// memo — concurrent requests for the same key count once.
    pub fn derivations(&self) -> usize {
        self.derivations.load(Ordering::Relaxed) as usize
    }

    /// Number of memoized (ready or in-flight) environments.
    pub fn len(&self) -> usize {
        lock_recover(&self.slots).len()
    }

    /// Whether the memo holds no environments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized environment. In-flight derivations complete on
    /// their existing slots (waiters still see the result); the next request
    /// for any key re-derives.
    pub fn clear(&self) {
        lock_recover(&self.slots).clear();
    }

    /// Returns the memoized template for `key`, deriving it via `derive` if
    /// absent. Exactly one concurrent caller runs `derive`; the others block
    /// until the leader finishes and then share the leader's template (or
    /// propagate its error).
    fn get_or_derive<F>(&self, key: &EnvKey, derive: F) -> Result<Arc<BaseEnvTemplate>, String>
    where
        F: FnOnce() -> Result<BaseEnvTemplate, String>,
    {
        let (slot, lead) = {
            let mut slots = lock_recover(&self.slots);
            match slots.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(EnvSlot::new());
                    slots.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if lead {
            // Derive outside the map lock so unrelated keys proceed, with a
            // drop guard so a panicking derivation fails waiters over
            // instead of stranding them on the condvar.
            let mut guard = LeaderGuard {
                memo: self,
                key,
                slot: &slot,
                armed: true,
            };
            let result = derive();
            guard.armed = false;
            drop(guard);
            return match result {
                Ok(template) => {
                    let template = Arc::new(template);
                    self.derivations.fetch_add(1, Ordering::Relaxed);
                    *lock_recover(&slot.state) = EnvSlotState::Ready(Arc::clone(&template));
                    slot.cv.notify_all();
                    Ok(template)
                }
                Err(message) => {
                    self.fail_slot(key, &slot, message.clone());
                    Err(message)
                }
            };
        }
        let mut state = lock_recover(&slot.state);
        while matches!(*state, EnvSlotState::Pending) {
            state = wait_recover(&slot.cv, state, &slot.state);
        }
        match &*state {
            EnvSlotState::Ready(template) => Ok(Arc::clone(template)),
            EnvSlotState::Failed(message) => Err(message.clone()),
            EnvSlotState::Pending => unreachable!("condvar loop exits only on a settled slot"),
        }
    }

    /// Marks a slot failed, removes it from the map (so later calls retry),
    /// and wakes every waiter.
    fn fail_slot(&self, key: &EnvKey, slot: &Arc<EnvSlot>, message: String) {
        lock_recover(&self.slots).remove(key);
        *lock_recover(&slot.state) = EnvSlotState::Failed(message);
        slot.cv.notify_all();
    }
}

impl std::fmt::Debug for BaseEnvMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseEnvMemo")
            .field("len", &self.len())
            .field("derivations", &self.derivations())
            .finish()
    }
}

/// The mutable environment a stage executes in.
pub(crate) struct BuildEnv {
    pub(crate) fs: Filesystem,
    pub(crate) creds: Credentials,
    pub(crate) userns: UserNamespace,
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) base_reference: String,
}

impl Builder {
    /// Creates a builder with its own private cache and base-env memo.
    pub fn new(kind: BuilderKind, invoker: Invoker) -> Self {
        Builder::with_shared(
            kind,
            invoker,
            Arc::new(ShardedBuildCache::new()),
            Arc::new(BaseEnvMemo::new()),
        )
    }

    /// Creates a builder over a *shared* instruction cache and base-env memo.
    ///
    /// This is the multi-tenant constructor: a build farm hands every
    /// tenant's builder the same two `Arc`s, so identical instruction
    /// prefixes dedup across tenants (same digest keys) and identical base
    /// environments are derived once process-wide instead of once per
    /// builder.
    pub fn with_shared(
        kind: BuilderKind,
        invoker: Invoker,
        cache: Arc<ShardedBuildCache>,
        base_envs: Arc<BaseEnvMemo>,
    ) -> Self {
        Builder {
            kind,
            invoker,
            cache,
            store: HashMap::new(),
            base_envs,
        }
    }

    /// The builder's instruction cache handle (shareable across builders).
    pub fn shared_cache(&self) -> Arc<ShardedBuildCache> {
        Arc::clone(&self.cache)
    }

    /// The builder's base-environment memo handle (shareable across
    /// builders).
    pub fn base_env_memo(&self) -> Arc<BaseEnvMemo> {
        Arc::clone(&self.base_envs)
    }

    /// Convenience: a `ch-image` (Type III) builder for an unprivileged user.
    pub fn ch_image(invoker: Invoker) -> Self {
        Builder::new(BuilderKind::ChImage, invoker)
    }

    /// Convenience: a rootless Podman (Type II) builder with sensible
    /// defaults (local storage, VFS driver as on RHEL 7, Figure 4 subuid map).
    pub fn rootless_podman(invoker: Invoker, subuid: SubIdDb) -> Self {
        Builder::new(
            BuilderKind::RootlessPodman {
                subuid,
                driver: StorageDriver::Vfs,
                backend: FsBackend::LocalDisk,
                sysctl: Sysctl::rhel76(),
            },
            invoker,
        )
    }

    /// Convenience: a Docker (Type I) builder; the invoker must be root.
    pub fn docker() -> Self {
        Builder::new(BuilderKind::Docker, Invoker::root())
    }

    /// The privilege type this builder operates at.
    pub fn privilege_type(&self) -> PrivilegeType {
        match self.kind {
            BuilderKind::Docker => PrivilegeType::TypeI,
            BuilderKind::RootlessPodman { .. } => PrivilegeType::TypeII,
            BuilderKind::ChImage => PrivilegeType::TypeIII,
        }
    }

    /// A previously built image by tag.
    pub fn image(&self, tag: &str) -> Option<&BuiltImage> {
        self.store.get(tag)
    }

    /// Tags of all locally stored images.
    pub fn tags(&self) -> Vec<String> {
        let mut t: Vec<String> = self.store.keys().cloned().collect();
        t.sort();
        t
    }

    /// Clears the per-instruction build cache and the memoized base-image
    /// environments.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.base_envs.clear();
    }

    pub(crate) fn setup_from(&self, reference: &str, arch: &str) -> Result<BuildEnv, String> {
        // Local tag takes precedence over remote base images (the LANL
        // three-stage pipeline chains FROM on locally built tags, §5.3.3).
        if let Some(built) = self.store.get(reference) {
            let catalog = catalog_for(&built.base_reference, arch)
                .ok_or_else(|| format!("no catalog for {}", built.base_reference))?;
            return Ok(BuildEnv {
                fs: built.fs.clone(),
                creds: self.container_creds(),
                userns: self.container_userns(),
                catalog,
                base_reference: built.base_reference.clone(),
            });
        }
        // Memoized launch: the second and later cold builds from the same
        // base adopt a CoW snapshot of the launched rootfs (a refcount bump)
        // instead of rebuilding the base tree and tar round-tripping it
        // through a fresh container. The memo is shared across builders, so
        // under a build farm the first tenant to reach a base leads the
        // derivation and concurrent tenants wait and adopt.
        let key = (
            self.launch_identity(),
            reference.to_string(),
            arch.to_string(),
        );
        let template = self
            .base_envs
            .get_or_derive(&key, || self.derive_base_env(reference, arch))?;
        Ok(BuildEnv {
            fs: template.fs.clone(),
            creds: template.creds.clone(),
            userns: template.userns.clone(),
            catalog: Arc::clone(&template.catalog),
            base_reference: template.base_reference.clone(),
        })
    }

    /// The launch-identity component of this builder's [`EnvKey`]s: privilege
    /// type plus everything about the invoker that shapes the launched
    /// credentials and user namespace. Two builders share memoized
    /// environments only when a container launched by either would be
    /// byte-identical.
    pub(crate) fn launch_identity(&self) -> String {
        match &self.kind {
            BuilderKind::Docker => "type1".to_string(),
            BuilderKind::RootlessPodman { subuid, .. } => {
                let range = subuid.ranges_for(&self.invoker.name).first().copied();
                format!(
                    "type2|{}|{:?}|{:?}|{:?}",
                    self.invoker.name,
                    self.invoker.uid,
                    self.invoker.gid,
                    range.map(|r| (r.start, r.count))
                )
            }
            BuilderKind::ChImage => {
                format!("type3|{:?}|{:?}", self.invoker.uid, self.invoker.gid)
            }
        }
    }

    /// Derives a base environment from scratch: build the canonical base
    /// tree, package it as an image, launch a build container under this
    /// builder's privilege type, and capture the result as a template.
    fn derive_base_env(&self, reference: &str, arch: &str) -> Result<BaseEnvTemplate, String> {
        let base = base_image(reference, arch)
            .ok_or_else(|| format!("error: no base image: {}", reference))?;
        // Package the canonical root-owned base tree as an image, then let
        // the runtime instantiate it under the right privilege type.
        let root_creds = Credentials::host_root();
        let host_ns = UserNamespace::initial();
        let actor = Actor::new(&root_creds, &host_ns);
        let cfg = ImageConfig {
            architecture: arch.to_string(),
            ..Default::default()
        };
        let image = Image::from_fs_preserved(reference, &base.fs, &actor, cfg)
            .map_err(|e| format!("error: cannot package base image: {}", e))?;
        let container = match &self.kind {
            BuilderKind::Docker => Container::launch_type1(&image, None),
            BuilderKind::RootlessPodman {
                subuid,
                driver,
                backend,
                sysctl,
            } => Container::launch_type2(&image, &self.invoker, subuid, *driver, *backend, sysctl),
            BuilderKind::ChImage => Container::launch_type3(&image, &self.invoker),
        }
        .map_err(|e| format!("error: cannot create build container: {}", e))?;
        Ok(BaseEnvTemplate {
            fs: container.rootfs,
            creds: container.creds,
            userns: container.userns,
            catalog: base.catalog,
            base_reference: reference.to_string(),
        })
    }

    /// Builds the environment for a `FROM` instruction served from the build
    /// cache: the cached filesystem is adopted as-is (copy-on-write), so the
    /// base-image tree is never reconstructed and no container is launched.
    pub(crate) fn env_for_cached_from(
        &self,
        reference: &str,
        arch: &str,
        cached_fs: &Filesystem,
    ) -> Result<BuildEnv, String> {
        let base_reference = match self.store.get(reference) {
            Some(built) => built.base_reference.clone(),
            None => reference.to_string(),
        };
        let catalog = catalog_for(&base_reference, arch)
            .ok_or_else(|| format!("error: no base image: {}", reference))?;
        Ok(BuildEnv {
            fs: cached_fs.clone(),
            creds: self.container_creds(),
            userns: self.container_userns(),
            catalog,
            base_reference,
        })
    }

    pub(crate) fn container_creds(&self) -> Credentials {
        match self.kind {
            BuilderKind::Docker => Credentials::host_root(),
            _ => self.invoker.host_creds().entered_own_namespace(),
        }
    }

    pub(crate) fn container_userns(&self) -> UserNamespace {
        match &self.kind {
            BuilderKind::Docker => UserNamespace::initial(),
            BuilderKind::RootlessPodman { subuid, .. } => {
                let range = subuid.ranges_for(&self.invoker.name).first().copied();
                match range {
                    Some(r) => {
                        UserNamespace::type2(self.invoker.uid, self.invoker.gid, r.start, r.count)
                    }
                    None => UserNamespace::type3(self.invoker.uid, self.invoker.gid),
                }
            }
            BuilderKind::ChImage => UserNamespace::type3(self.invoker.uid, self.invoker.gid),
        }
    }

    /// Builds a Dockerfile through the stage graph and returns the build's
    /// report. `context` is the build-context filesystem used by `COPY`
    /// instructions.
    ///
    /// Independent stages execute concurrently unless `options.parallel` is
    /// off; either way the same stages run and the report is the same. Only
    /// the *final* stage's image is stored, under `options.tag`, and only
    /// if every stage succeeded: intermediate stages stay out of the tag
    /// namespace. A parse or plan failure returns a report with no stages.
    pub fn build(
        &mut self,
        dockerfile_text: &str,
        options: &BuildOptions,
        context: Option<&Filesystem>,
    ) -> BuildReport {
        let (ir, graph) = match self.plan(dockerfile_text, options) {
            Ok(p) => p,
            Err(e) => return BuildReport::failed(&options.tag, e),
        };
        let (report, artifact) = run_graph(self, &ir, &graph, options, context);
        if let Some(artifact) = artifact {
            self.store_artifact(&options.tag, &options.arch, artifact);
        }
        report
    }

    /// The front of every build: caps the build cache at
    /// `options.cache_capacity` if that is set, then parses the Dockerfile
    /// with the `--build-arg` overrides and plans the stage DAG. Exposed so
    /// external schedulers (the build farm) can plan a build up front and
    /// drive its stages through a [`crate::executor::GraphRun`].
    pub fn plan(
        &self,
        text: &str,
        options: &BuildOptions,
    ) -> Result<(BuildIr, BuildGraph), BuildError> {
        if options.cache_capacity.is_some() {
            self.cache.set_capacity(options.cache_capacity);
        }
        let ir = BuildIr::parse_with_args(text, &options.build_args)?;
        let graph = BuildGraph::plan(&ir)?;
        Ok((ir, graph))
    }

    /// Stores a finished stage artifact as a locally tagged image. Exposed
    /// so external schedulers (the build farm) can finalize builds whose
    /// stages they executed themselves. The image owns its config and lie
    /// database: they are moved out of the artifact, or copied once if a
    /// cache entry still shares them.
    pub fn store_artifact(
        &mut self,
        tag: &str,
        arch: &str,
        artifact: crate::executor::StageArtifact,
    ) {
        self.store.insert(
            tag.to_string(),
            BuiltImage {
                tag: tag.to_string(),
                fs: artifact.fs,
                config: Arc::unwrap_or_clone(artifact.config),
                fakeroot_db: Arc::unwrap_or_clone(artifact.fakeroot_db),
                base_reference: artifact.base_reference,
                arch: arch.to_string(),
                privilege: self.privilege_type(),
            },
        );
    }

    /// Pushes a built image to a registry under `reference`, applying the
    /// chosen ownership policy (paper §6.1, §6.2.2).
    pub fn push(
        &mut self,
        tag: &str,
        reference: &str,
        registry: &mut Registry,
        ownership: PushOwnership,
    ) -> Result<Digest, String> {
        let built = self
            .store
            .get(tag)
            .ok_or_else(|| format!("no such image: {}", tag))?;
        let creds = self.container_creds();
        let userns = self.container_userns();
        let actor = Actor::new(&creds, &userns);
        let mut cfg = built.config.clone();
        cfg.architecture = built.arch.clone();
        let image = match ownership {
            PushOwnership::Flatten => Image::from_fs_flattened(reference, &built.fs, &actor, cfg),
            PushOwnership::Preserve => Image::from_fs_preserved(reference, &built.fs, &actor, cfg),
            PushOwnership::FromFakerootDb => Image::from_fs_with_ownership_db(
                reference,
                &built.fs,
                &actor,
                cfg,
                built.fakeroot_db.ownership_map(),
            ),
        }
        .map_err(|e| format!("push failed: {}", e))?;
        registry
            .push(&self.invoker.name, &image)
            .map_err(|e| format!("push failed: {}", e))
    }

    /// Pulls an image from a registry and stores it locally under `tag`,
    /// unpacking it per this builder's privilege type (a Type III pull
    /// changes ownership to the invoking user, paper §5.2).
    pub fn pull(
        &mut self,
        registry: &mut Registry,
        reference: &str,
        tag: &str,
    ) -> Result<(), String> {
        let image = registry.pull(reference).map_err(|e| e.to_string())?;
        let force_owner = match self.kind {
            BuilderKind::Docker => None,
            _ => Some((self.invoker.uid, self.invoker.gid)),
        };
        let fs = image.unpack(force_owner).map_err(|e| e.to_string())?;
        self.store.insert(
            tag.to_string(),
            BuiltImage {
                tag: tag.to_string(),
                fs,
                config: image.config.clone(),
                fakeroot_db: LieDatabase::new(),
                base_reference: reference.to_string(),
                arch: image.config.architecture.clone(),
                privilege: self.privilege_type(),
            },
        );
        Ok(())
    }
}

/// Figure-4 style default subuid database for one user.
pub fn default_subuid_for(user: &str) -> SubIdDb {
    let mut db = SubIdDb::new();
    db.add_range(user, 200_000, 65_536);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dockerfile::{
        centos7_dockerfile, centos7_fr_dockerfile, debian10_dockerfile, debian10_fr_dockerfile,
    };
    use hpcc_kernel::{Gid, Uid};
    use hpcc_vfs::Mode;

    fn alice() -> Invoker {
        Invoker::user("alice", 1000, 1000)
    }

    /// The build tool of a conformance row.
    #[derive(Debug, Clone, Copy)]
    enum Privilege {
        TypeI,
        TypeII,
        /// Rootless Podman for a user with no `/etc/subuid` range.
        TypeIINoSubuid,
        TypeIII,
    }

    #[derive(Debug, Clone, Copy)]
    enum Distro {
        Centos7,
        Debian10,
    }

    /// The Dockerfile of a conformance row: the paper's unmodified
    /// Dockerfile (Figures 2, 3), its manually modified form (Figures 8,
    /// 9), or the unmodified one built with `--force` (Figures 10, 11).
    #[derive(Debug, Clone, Copy)]
    enum Variant {
        Plain,
        Modified,
        Force,
    }

    #[derive(Debug, Clone, Copy)]
    enum Outcome {
        /// The build grows the image in `instructions` instructions, and
        /// `--force` rewrites `modified` RUN instructions.
        Success {
            instructions: usize,
            modified: usize,
        },
        /// The build fails at instruction `at` (1-based) on the named call.
        Fails { at: usize, call: &'static str },
    }

    /// One row of the paper's privilege outcomes (§4.1, §5, Figures 2-11).
    #[derive(Debug)]
    struct Row {
        privilege: Privilege,
        distro: Distro,
        variant: Variant,
        outcome: Outcome,
        /// The `--force` configuration the build reports.
        force_config: Option<&'static str>,
        /// Lines the first build's transcript contains.
        transcript: &'static [&'static str],
    }

    /// Builds the row twice with the cache on. A successful build rebuilds
    /// entirely from the cache; a failed one fails again at the same
    /// instruction, with every earlier instruction served from the cache.
    fn check_row(row: &Row) {
        let mut builder = match row.privilege {
            Privilege::TypeI => Builder::docker(),
            Privilege::TypeII => Builder::rootless_podman(alice(), default_subuid_for("alice")),
            Privilege::TypeIINoSubuid => Builder::rootless_podman(alice(), SubIdDb::new()),
            Privilege::TypeIII => Builder::ch_image(alice()),
        };
        let expected_type = match row.privilege {
            Privilege::TypeI => PrivilegeType::TypeI,
            Privilege::TypeII | Privilege::TypeIINoSubuid => PrivilegeType::TypeII,
            Privilege::TypeIII => PrivilegeType::TypeIII,
        };
        assert_eq!(builder.privilege_type(), expected_type, "{row:?}");
        let (dockerfile, arch) = match (row.distro, row.variant) {
            (Distro::Centos7, Variant::Modified) => (centos7_fr_dockerfile(), "x86_64"),
            (Distro::Centos7, _) => (centos7_dockerfile(), "x86_64"),
            (Distro::Debian10, Variant::Modified) => (debian10_fr_dockerfile(), "amd64"),
            (Distro::Debian10, _) => (debian10_dockerfile(), "amd64"),
        };
        let mut options = BuildOptions::new("foo").with_arch(arch).with_cache();
        if let Variant::Force = row.variant {
            options = options.with_force();
        }
        let first = builder.build(dockerfile, &options, None);
        let second = builder.build(dockerfile, &options, None);
        let text = first.transcript_text();
        for line in row.transcript {
            assert!(text.contains(line), "{row:?}: no {line:?} in\n{text}");
        }
        assert_eq!(first.force_config.as_deref(), row.force_config, "{row:?}");
        assert_eq!(second.force_config, first.force_config, "{row:?}");
        match row.outcome {
            Outcome::Success {
                instructions,
                modified,
            } => {
                for r in [&first, &second] {
                    assert!(r.success, "{row:?}: {}", r.transcript_text());
                    assert_eq!(r.instructions_total, instructions, "{row:?}");
                }
                let grown = format!("grown in {instructions} instructions: foo");
                assert!(text.contains(&grown), "{row:?}: {text}");
                assert_eq!(first.instructions_modified, modified, "{row:?}");
                assert_eq!(
                    (second.cache_hits, second.cache_misses),
                    (instructions, 0),
                    "{row:?}: {}",
                    second.transcript_text()
                );
                let owners = builder.image("foo").unwrap().fs.distinct_owner_uids();
                match row.privilege {
                    // Type I keeps real root ownership.
                    Privilege::TypeI => assert!(owners.contains(&Uid(0)), "{row:?}"),
                    // Type II ownership is multi-UID (subordinate IDs).
                    Privilege::TypeII => assert!(owners.len() > 1, "{row:?}"),
                    _ => {}
                }
            }
            Outcome::Fails { at, call } => {
                for r in [&first, &second] {
                    assert!(!r.success, "{row:?}");
                    assert_eq!(r.instructions_total, at, "{row:?}");
                    assert!(r.transcript_text().contains(call), "{row:?}");
                }
                assert_eq!(second.error_text(), first.error_text(), "{row:?}");
                assert_eq!(
                    (second.cache_hits, second.cache_misses),
                    (at - 1, 1),
                    "{row:?}: {}",
                    second.transcript_text()
                );
            }
        }
    }

    /// The conformance table: one test per row.
    macro_rules! conformance {
        ($($name:ident: $privilege:ident, $distro:ident, $variant:ident => $outcome:expr,
            force: $force:expr, transcript: $transcript:expr;)*) => {$(
            #[test]
            fn $name() {
                check_row(&Row {
                    privilege: Privilege::$privilege,
                    distro: Distro::$distro,
                    variant: Variant::$variant,
                    outcome: $outcome,
                    force_config: $force,
                    transcript: $transcript,
                });
            }
        )*};
    }

    const fn ok(instructions: usize) -> Outcome {
        Outcome::Success {
            instructions,
            modified: 0,
        }
    }

    conformance! {
        // Type I (§4.1): a privileged build succeeds as written.
        docker_type1_builds_but_requires_root: TypeI, Centos7, Plain => ok(3),
            force: None, transcript: &[];
        type1_centos7_modified: TypeI, Centos7, Modified => ok(5),
            force: None, transcript: &["Complete!"];
        type1_centos7_force: TypeI, Centos7, Force => ok(3), force: None, transcript: &[];
        type1_debian10_plain: TypeI, Debian10, Plain => ok(4), force: None, transcript: &[];
        type1_debian10_modified: TypeI, Debian10, Modified => ok(6),
            force: None, transcript: &[];
        type1_debian10_force: TypeI, Debian10, Force => ok(4), force: None, transcript: &[];

        // Type II (§4.1): "the examples detailed in Figures 2 and 3 will
        // both succeed as expected"; `--force` is a `ch-image` option.
        type2_centos7_plain: TypeII, Centos7, Plain => ok(3), force: None, transcript: &[];
        type2_centos7_modified: TypeII, Centos7, Modified => ok(5),
            force: None, transcript: &["Complete!"];
        type2_centos7_force: TypeII, Centos7, Force => ok(3), force: None, transcript: &[];
        type2_debian10_plain: TypeII, Debian10, Plain => ok(4), force: None, transcript: &[];
        type2_debian10_modified: TypeII, Debian10, Modified => ok(6),
            force: None, transcript: &[];
        type2_debian10_force: TypeII, Debian10, Force => ok(4), force: None, transcript: &[];
        // Without a subuid range the privileged helper refuses the map.
        podman_without_subuid_ranges_fails_to_create_container: TypeIINoSubuid, Centos7, Plain
            => Outcome::Fails { at: 1, call: "cannot create build container" },
            force: None, transcript: &[];

        // Type III (§5): the unmodified Dockerfiles fail (Figures 2, 3), the
        // manually modified ones succeed (Figures 8, 9), and so do the
        // unmodified ones under `--force` (Figures 10, 11).
        figure2_plain_type3_build_fails_on_chown: TypeIII, Centos7, Plain
            => Outcome::Fails { at: 3, call: "cpio: chown" },
            force: None, transcript: &[
                "1 FROM centos:7",
                "2 RUN [ '/bin/sh', '-c', 'echo hello' ]",
                "hello",
                "Error unpacking rpm package openssh-7.4p1-21.el7.x86_64",
                "error: build failed: RUN command exited with 1",
                // The hint the paper mentions was omitted from Figure 2.
                "--force may fix",
            ];
        figure3_plain_type3_debian_build_fails_on_privilege_drop: TypeIII, Debian10, Plain
            => Outcome::Fails {
                at: 3,
                call: "E: setgroups 65534 failed - setgroups (1: Operation not permitted)",
            },
            force: None, transcript: &[
                "E: setegid 65534 failed - setegid (22: Invalid argument)",
                "E: seteuid 100 failed - seteuid (22: Invalid argument)",
                "error: build failed: RUN command exited with 100",
            ];
        figure8_manually_modified_centos_dockerfile_succeeds: TypeIII, Centos7, Modified
            => ok(5), force: None, transcript: &["Complete!"];
        figure9_manually_modified_debian_dockerfile_succeeds: TypeIII, Debian10, Modified
            => ok(6), force: None, transcript: &[
                "Setting up pseudo (1.9.0+git20180920-1) ...",
                "W: chown to root:adm of file /var/log/apt/term.log failed",
                "Setting up openssh-client (1:7.9p1-10+deb10u2) ...",
            ];
        figure10_force_build_centos_unmodified_dockerfile: TypeIII, Centos7, Force
            => Outcome::Success { instructions: 3, modified: 1 },
            force: Some("rhel7"), transcript: &[
                "will use --force: rhel7: CentOS/RHEL 7",
                "workarounds: init step 1: checking: $ command -v fakeroot",
                "workarounds: init step 1: $ set -ex;",
                "+ yum install -y epel-release",
                "workarounds: RUN: new command: [ 'fakeroot', '/bin/sh', '-c', 'yum install -y openssh' ]",
                "--force: init OK & modified 1 RUN instructions",
            ];
        figure11_force_build_debian_unmodified_dockerfile: TypeIII, Debian10, Force
            => Outcome::Success { instructions: 4, modified: 2 },
            force: Some("debderiv"), transcript: &[
                "will use --force: debderiv: Debian (9, 10) or Ubuntu (16, 18, 20)",
                "workarounds: init step 1: checking: $ apt-config dump",
                "workarounds: init step 1: $ echo 'APT::Sandbox::User",
                "workarounds: init step 2: checking: $ command -v fakeroot",
                "workarounds: init step 2: $ apt-get update && apt-get install -y pseudo",
                "Setting up pseudo (1.9.0+git20180920-1) ...",
                "workarounds: RUN: new command: [ 'fakeroot', '/bin/sh', '-c', 'apt-get update' ]",
                "workarounds: RUN: new command: [ 'fakeroot', '/bin/sh', '-c', 'apt-get install -y openssh-client' ]",
                "--force: init OK & modified 2 RUN instructions",
            ];
    }

    #[test]
    fn build_cache_hits_on_rebuild() {
        let mut b = Builder::ch_image(alice());
        let opts = BuildOptions::new("foo").with_force().with_cache();
        let first = b.build(centos7_dockerfile(), &opts, None);
        assert!(first.success);
        assert_eq!(first.cache_hits, 0);
        let second = b.build(centos7_dockerfile(), &opts, None);
        assert!(second.success, "{}", second.transcript_text());
        assert_eq!(second.cache_hits, 3, "{}", second.transcript_text());
        assert!(second.transcript_text().contains("(cached)"));
        // Extending the Dockerfile reuses the prefix.
        let extended = format!("{}RUN echo extra\n", centos7_dockerfile());
        let third = b.build(&extended, &opts, None);
        assert!(third.success);
        assert_eq!(third.cache_hits, 3);
        assert!(third.transcript_text().contains("echo extra"));
    }

    #[test]
    fn global_arg_substitutes_into_from_parse_plan_execute() {
        // Parse: the global ARG's default lands in the FROM reference.
        let df = "ARG BASE=centos:7\nFROM ${BASE}\nRUN echo hi\n";
        let mut b = Builder::ch_image(alice());
        let (ir, graph) = b.plan(df, &BuildOptions::new("argsub")).expect("plan");
        // Plan: one stage, rooted on the concrete base image (not treated as
        // an alias or an unknown stage reference).
        assert_eq!(ir.global_args.len(), 1);
        assert_eq!(ir.stages[0].base, "centos:7");
        assert_eq!(graph.stage_count(), 1);
        // Execute: the build runs against the substituted base.
        let r = b.build(df, &BuildOptions::new("argsub"), None);
        assert!(r.success, "{}", r.transcript_text());
        assert!(r.transcript_text().contains("FROM centos:7"));
        assert_eq!(b.image("argsub").unwrap().base_reference, "centos:7");
        // An ARG-substituted FROM also chains the cache: rebuilding with a
        // different spelling of the same resolved reference hits.
        let opts = BuildOptions::new("argsub").with_cache();
        let first = b.build(df, &opts, None);
        assert!(first.success);
        let direct = b.build("FROM centos:7\nRUN echo hi\n", &opts, None);
        assert!(direct.success);
        assert_eq!(direct.cache_misses, 0, "{}", direct.transcript_text());
    }

    #[test]
    fn build_args_substitute_into_run_and_invalidate_cache_keys() {
        // The global ARG is redeclared inside the stage (Docker scoping).
        let df = "ARG PKG=openssh\nFROM centos:7\nARG PKG\nRUN yum install -y ${PKG}\n";
        let mut b = Builder::ch_image(alice());
        let opts = BuildOptions::new("pkg").with_force().with_cache();
        let first = b.build(df, &opts, None);
        assert!(first.success, "{}", first.transcript_text());
        assert!(first.transcript_text().contains("yum install -y openssh"));
        // Same Dockerfile, same args: full cache hit.
        let second = b.build(df, &opts, None);
        assert_eq!(second.cache_misses, 0, "{}", second.transcript_text());
        // Overriding the ARG changes the substituted text, so the RUN key
        // misses — the cache can never serve a stale package set.
        let overridden = b.build(df, &opts.clone().with_build_arg("PKG", "openmpi"), None);
        assert!(overridden.success, "{}", overridden.transcript_text());
        assert!(overridden
            .transcript_text()
            .contains("yum install -y openmpi"));
        assert!(
            overridden.cache_misses > 0,
            "{}",
            overridden.transcript_text()
        );
    }

    #[test]
    fn cold_builds_reuse_memoized_base_env_without_cache_semantics_change() {
        // Two cache-off builds: the second adopts the memoized base env and
        // must behave identically (fresh RUN execution, same transcript
        // shape, isolated image filesystems).
        let mut b = Builder::ch_image(alice());
        let r1 = b.build(
            centos7_dockerfile(),
            &BuildOptions::new("one").with_force(),
            None,
        );
        assert!(r1.success, "{}", r1.transcript_text());
        let r2 = b.build(
            centos7_dockerfile(),
            &BuildOptions::new("two").with_force(),
            None,
        );
        assert!(r2.success, "{}", r2.transcript_text());
        assert_eq!(r2.cache_hits, 0, "cache off: every instruction re-ran");
        // Mutating one image never leaks into the other (CoW adoption).
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        let img_two = b.image("two").unwrap().fs.clone();
        let mut img_one = b.image("one").unwrap().fs.clone();
        img_one
            .write_file(&actor, "/etc/marker", b"one".to_vec(), Mode::FILE_644)
            .unwrap();
        assert!(!img_two.exists(&actor, "/etc/marker"));
        // clear_cache also drops the memoized base envs.
        b.clear_cache();
        let r3 = b.build(
            centos7_dockerfile(),
            &BuildOptions::new("three").with_force(),
            None,
        );
        assert!(r3.success);
    }

    #[test]
    fn copy_uses_build_context() {
        let mut ctx = Filesystem::new_local();
        ctx.install_file(
            "/app.c",
            b"int main(){}".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        let mut b = Builder::ch_image(alice());
        let df = "FROM centos:7\nCOPY app.c /src/app.c\nRUN gcc -o /src/app /src/app.c\n";
        let r = b.build(df, &BuildOptions::new("app"), Some(&ctx));
        assert!(!r.success, "gcc is not installed in the base image");
        let df2 = "FROM centos:7\nRUN yum install -y gcc\nCOPY app.c /src/app.c\nRUN gcc -o /src/app /src/app.c\n";
        let r = b.build(df2, &BuildOptions::new("app"), Some(&ctx));
        assert!(r.success, "{}", r.transcript_text());
        let img = b.image("app").unwrap();
        let actor_creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let ns = UserNamespace::initial();
        let actor = Actor::new(&actor_creds, &ns);
        assert!(img.fs.exists(&actor, "/src/app.c"));
    }

    fn app_context(body: &[u8]) -> Filesystem {
        let mut ctx = Filesystem::new_local();
        ctx.install_file("/app.c", body.to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        ctx
    }

    #[test]
    fn context_copy_cache_key_binds_file_content() {
        let mut b = Builder::ch_image(alice());
        let df = "FROM centos:7\nCOPY app.c /app.c\n";
        let opts = BuildOptions::new("app").with_cache();
        let r = b.build(df, &opts, Some(&app_context(b"v1")));
        assert!(r.success, "{}", r.transcript_text());
        // Same Dockerfile text, edited context file: the COPY must miss and
        // the image must carry the new bytes.
        let r = b.build(df, &opts, Some(&app_context(b"v2")));
        assert!(r.success, "{}", r.transcript_text());
        assert_eq!(
            (r.cache_hits, r.cache_misses),
            (1, 1),
            "FROM hits, COPY misses"
        );
        let creds = Credentials::host_root();
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        let img = b.image("app").unwrap();
        assert_eq!(img.fs.read_file(&actor, "/app.c").unwrap(), b"v2");
    }

    #[test]
    fn copy_install_failure_fails_the_build_naming_source_and_errno() {
        let mut b = Builder::ch_image(alice());
        // `/etc/redhat-release` is a regular file in the CentOS 7 base.
        let df = "FROM centos:7\nCOPY app.c /etc/redhat-release/app.c\n";
        let r = b.build(df, &BuildOptions::new("bad"), Some(&app_context(b"v1")));
        assert!(!r.success, "{}", r.transcript_text());
        let expected = "error: COPY app.c: /etc/redhat-release/app.c: ENOTDIR (Not a directory)";
        match &r.error {
            Some(BuildError::Execution { message, .. }) => assert_eq!(message, expected),
            other => panic!("expected an execution error, got {other:?}"),
        }
        assert!(r.transcript().iter().any(|line| line == expected));
    }

    #[test]
    fn from_local_tag_chains_builds() {
        let mut b = Builder::ch_image(alice());
        let base = "FROM centos:7\nRUN yum install -y openmpi\n";
        assert!(b.build(base, &BuildOptions::new("stage1"), None).success);
        let app = "FROM stage1\nRUN yum install -y spack\nENV STACK=atse\n";
        let r = b.build(app, &BuildOptions::new("stage2"), None);
        assert!(r.success, "{}", r.transcript_text());
        let img = b.image("stage2").unwrap();
        assert_eq!(img.config.env.get("STACK").unwrap(), "atse");
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        assert!(img.fs.exists(&actor, "/usr/lib64/openmpi/bin/mpirun"));
        assert!(img.fs.exists(&actor, "/opt/spack/bin/spack"));
    }

    #[test]
    fn push_flatten_and_pull_roundtrip() {
        let mut registry = Registry::new("registry.lanl.example");
        let mut b = Builder::ch_image(alice());
        let r = b.build(
            centos7_dockerfile(),
            &BuildOptions::new("foo").with_force(),
            None,
        );
        assert!(r.success);
        let digest = b
            .push(
                "foo",
                "hpc/openssh:1.0",
                &mut registry,
                PushOwnership::Flatten,
            )
            .unwrap();
        assert!(digest.to_oci_string().starts_with("sha256:"));
        // Pull back as a different user.
        let mut b2 = Builder::ch_image(Invoker::user("bob", 1001, 1001));
        b2.pull(&mut registry, "hpc/openssh:1.0", "openssh")
            .unwrap();
        let img = b2.image("openssh").unwrap();
        // Every unpacked entry (not counting the filesystem root inode) is
        // owned by the pulling user.
        for (path, ino) in img.fs.walk() {
            assert_eq!(img.fs.inode(ino).unwrap().uid, Uid(1001), "{}", path);
        }
    }

    #[test]
    fn push_with_fakeroot_db_preserves_intended_ownership() {
        let mut registry = Registry::new("r");
        let mut b = Builder::ch_image(alice());
        let r = b.build(
            centos7_dockerfile(),
            &BuildOptions::new("foo").with_force(),
            None,
        );
        assert!(r.success);
        b.push(
            "foo",
            "hpc/openssh:ids",
            &mut registry,
            PushOwnership::FromFakerootDb,
        )
        .unwrap();
        let image = registry.pull("hpc/openssh:ids").unwrap();
        // The ssh-keysign helper's intended group (999) survives the push.
        let entries = hpcc_vfs::tar::list(&image.layers[0].tar).unwrap();
        let keysign = entries
            .iter()
            .find(|e| e.path == "usr/libexec/openssh/ssh-keysign")
            .unwrap();
        assert_eq!(keysign.gid, 999);
    }

    #[test]
    fn two_builders_sharing_a_memo_observe_one_derivation() {
        let memo = Arc::new(BaseEnvMemo::new());
        let cache = Arc::new(ShardedBuildCache::new());
        let mut a = Builder::with_shared(
            BuilderKind::ChImage,
            alice(),
            Arc::clone(&cache),
            Arc::clone(&memo),
        );
        let mut b = Builder::with_shared(
            BuilderKind::ChImage,
            alice(),
            Arc::clone(&cache),
            Arc::clone(&memo),
        );
        let opts = BuildOptions::new("foo").with_force();
        assert!(a.build(centos7_dockerfile(), &opts, None).success);
        assert_eq!(memo.derivations(), 1);
        // The second builder adopts the first's launched base environment —
        // no second derivation.
        assert!(b.build(centos7_dockerfile(), &opts, None).success);
        assert_eq!(memo.derivations(), 1);
        assert_eq!(memo.len(), 1);
        // A different base is a different key.
        let r = b.build(
            debian10_fr_dockerfile(),
            &BuildOptions::new("d10").with_arch("amd64"),
            None,
        );
        assert!(r.success, "{}", r.transcript_text());
        assert_eq!(memo.derivations(), 2);
    }

    #[test]
    fn builders_with_different_invokers_do_not_share_base_envs() {
        // The launched environment embeds the invoker's uid/gid (Type III),
        // so a shared memo must key on launch identity — tenant bob must
        // never adopt tenant alice's credentials.
        let memo = Arc::new(BaseEnvMemo::new());
        let cache = Arc::new(ShardedBuildCache::new());
        let mut a = Builder::with_shared(
            BuilderKind::ChImage,
            alice(),
            Arc::clone(&cache),
            Arc::clone(&memo),
        );
        let mut b = Builder::with_shared(
            BuilderKind::ChImage,
            Invoker::user("bob", 1001, 1001),
            Arc::clone(&cache),
            Arc::clone(&memo),
        );
        assert!(
            a.build(centos7_fr_dockerfile(), &BuildOptions::new("a"), None)
                .success
        );
        assert!(
            b.build(centos7_fr_dockerfile(), &BuildOptions::new("b"), None)
                .success
        );
        assert_eq!(memo.derivations(), 2, "distinct invokers, distinct envs");
    }

    #[test]
    fn concurrent_builders_dedup_one_base_env_derivation() {
        let memo = Arc::new(BaseEnvMemo::new());
        let cache = Arc::new(ShardedBuildCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let memo = Arc::clone(&memo);
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let mut b = Builder::with_shared(BuilderKind::ChImage, alice(), cache, memo);
                    let r = b.build(centos7_fr_dockerfile(), &BuildOptions::new("x"), None);
                    assert!(r.success, "{}", r.transcript_text());
                });
            }
        });
        assert_eq!(
            memo.derivations(),
            1,
            "one leader derived; three waiters adopted"
        );
    }

    #[test]
    fn failed_base_env_derivation_fails_over_and_retries() {
        let memo = Arc::new(BaseEnvMemo::new());
        let cache = Arc::new(ShardedBuildCache::new());
        let mut b = Builder::with_shared(
            BuilderKind::ChImage,
            alice(),
            Arc::clone(&cache),
            Arc::clone(&memo),
        );
        let r = b.build(
            "FROM alpine:3.14\nRUN echo hi\n",
            &BuildOptions::new("x"),
            None,
        );
        assert!(!r.success);
        // The failed slot was removed, not memoized: the memo is empty and a
        // later (valid) build is unaffected.
        assert_eq!(memo.len(), 0);
        assert!(
            b.build(centos7_fr_dockerfile(), &BuildOptions::new("y"), None)
                .success
        );
    }

    #[test]
    fn unknown_base_image_reports_error() {
        let mut b = Builder::ch_image(alice());
        let r = b.build(
            "FROM alpine:3.14\nRUN echo hi\n",
            &BuildOptions::new("x"),
            None,
        );
        assert!(!r.success);
        assert!(r.transcript_text().contains("no base image"));
    }
}
