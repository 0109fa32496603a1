//! Container image builders for the three privilege types.
//!
//! * [`BuilderKind::Docker`] — Type I baseline (privileged daemon build).
//! * [`BuilderKind::RootlessPodman`] — Type II: privileged user-namespace
//!   maps via `newuidmap`/`newgidmap`, no Dockerfile changes needed (paper §4).
//! * [`BuilderKind::ChImage`] — Type III: fully unprivileged, with optional
//!   `--force` automatic injection of `fakeroot(1)` (paper §5).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hpcc_distro::{base_image, catalog_for, os_release_reference, Catalog};
use hpcc_fakeroot::LieDatabase;
use hpcc_image::{Digest, Image, ImageConfig, Registry};
use hpcc_kernel::sync::lock_recover;
use hpcc_kernel::{Credentials, Errno, KResult, Sysctl, UserNamespace};
use hpcc_runtime::{
    container_identity, Container, Invoker, Launch, PrivilegeType, StorageDriver, SubIdDb,
};
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
    /// The build-cache chain digest of the image's last instruction, if it
    /// was built with the cache on. A `FROM` of this tag chains its cache
    /// keys from it, so they bind the tag's content, not its name. `None`
    /// for an image built with the cache off or pulled: a stage `FROM` such
    /// a tag runs uncached, and so does every stage that reads that stage.
    pub final_state: Option<Digest>,
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

/// A container image builder: one build tool (and so one privilege type)
/// run by one invoking user.
///
/// A builder owns its tag namespace (the images it built or pulled) and
/// shares two things with other builders: the instruction cache and the
/// [`BaseEnvMemo`] ([`Builder::with_shared`]). Its containers' credentials
/// and user namespace come from the runtime's [`container_identity`] for
/// its privilege type, for every purpose: launching a base image, entering
/// a local tag, a cached `FROM` or an earlier stage, keying caches, and
/// reading a built image to push it. A Type II builder whose invoker has no
/// subordinate range therefore fails each of these with `EPERM`.
///
/// Every `FROM` builds the environment its stage runs in through one
/// constructor into one type, whatever it names: a base image (launched
/// once per launch identity through the memo), a local tag, a tree from the
/// build cache, or an earlier stage.
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
    /// Launched base-image environments memoized per `(launch identity,
    /// reference, arch)`, shareable across builders (see [`BaseEnvMemo`]).
    base_envs: Arc<BaseEnvMemo>,
}

/// Memo key: `(builder launch identity, base reference, arch)`. The identity
/// component binds everything that shapes the launched environment —
/// privilege type, credentials, user namespace maps, and a Type II
/// builder's storage driver, backend and kernel — so builders sharing one
/// memo can never adopt each other's credentials or store.
type EnvKey = (String, String, String);

/// One memo cell: empty until the key's derivation succeeds or fails.
type EnvCell = OnceLock<Result<BuildEnv, String>>;

/// Process-wide memo of launched base-image environments, keyed by
/// `(launch identity, reference, arch)`.
///
/// Constructing a base tree and launching it as a build container (the
/// runtime applies the privilege type's ownership rule to the tree in
/// place; nothing is packed or unpacked, PERF.md §17) is deterministic for
/// a fixed launch identity, so cold (instruction-cache-off) builds after
/// the first adopt a CoW snapshot of the launched rootfs instead of
/// constructing and launching the tree again (PERF.md §6). A build farm
/// hands one memo to every tenant's builder ([`Builder::with_shared`]).
///
/// Each key has one [`OnceLock`], which gives the memo its contract:
///
/// * a key is derived once however many builders race on it: one runs the
///   derivation, the others block on the cell and then share its result;
/// * a failed derivation reaches the callers blocked on the cell, and the
///   cell leaves the map, so a later call retries;
/// * a derivation that panics leaves its cell empty, and the next caller
///   derives the key itself, so a panic wedges no caller.
///
/// The map lock is held only to find or insert a key's cell, never while a
/// derivation runs, so unrelated keys proceed. This is image-environment
/// storage, not the instruction cache: `--no-cache` semantics (fresh
/// instruction execution) are unaffected.
#[derive(Default)]
pub struct BaseEnvMemo {
    cells: Mutex<HashMap<EnvKey, Arc<EnvCell>>>,
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
        lock_recover(&self.cells).len()
    }

    /// Whether the memo holds no environments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The environment memoized for `key`, derived by `derive` if the key
    /// has none yet.
    fn get_or_derive(
        &self,
        key: EnvKey,
        derive: impl FnOnce() -> Result<BuildEnv, String>,
    ) -> Result<BuildEnv, String> {
        let cell = Arc::clone(lock_recover(&self.cells).entry(key).or_default());
        let env = cell.get_or_init(|| {
            let env = derive();
            if env.is_ok() {
                self.derivations.fetch_add(1, Ordering::Relaxed);
            }
            env
        });
        if env.is_err() {
            lock_recover(&self.cells).retain(|_, c| !Arc::ptr_eq(c, &cell));
        }
        env.clone()
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

/// The environment a stage executes in: the filesystem its `FROM` starts
/// from, the identity the stage's processes run with, and the package
/// catalog of the base image's distribution.
#[derive(Clone)]
pub(crate) struct BuildEnv {
    pub(crate) fs: Filesystem,
    pub(crate) creds: Credentials,
    pub(crate) userns: UserNamespace,
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) base_reference: String,
}

impl BuildEnv {
    /// The one constructor, whatever the `FROM` names: a base image (the
    /// launched container's rootfs and identity, through the memo), a local
    /// tag, a cached `FROM`, or an earlier stage (the tree and the
    /// builder's identity). `base_reference` names the base image the tree
    /// descends from, whose distribution supplies the catalog.
    pub(crate) fn new(
        fs: Filesystem,
        (creds, userns): (Credentials, UserNamespace),
        base_reference: &str,
        arch: &str,
    ) -> Result<BuildEnv, String> {
        let catalog = catalog_for(base_reference, arch)
            .ok_or_else(|| format!("error: no catalog for {}", base_reference))?;
        Ok(BuildEnv {
            fs,
            creds,
            userns,
            catalog,
            base_reference: base_reference.to_string(),
        })
    }
}

/// The transcript line of a build container the runtime refused to create.
pub(crate) fn launch_error(errno: Errno) -> String {
    format!("error: cannot create build container: {}", errno)
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

    /// The credentials and user namespace of this builder's containers:
    /// the runtime's [`container_identity`] for its privilege type.
    pub(crate) fn identity(&self) -> KResult<(Credentials, UserNamespace)> {
        let none = SubIdDb::new();
        let subuid = match &self.kind {
            BuilderKind::RootlessPodman { subuid, .. } => subuid,
            _ => &none,
        };
        container_identity(self.privilege_type(), &self.invoker, subuid)
    }

    /// The launch-identity component of cache and memo keys: the privilege
    /// type plus the identity [`Builder::identity`] gives this builder's
    /// containers (effective IDs and both ID maps), or its error, and for a
    /// Type II builder what else its launch reads: the storage driver, the
    /// backend of its store and the kernel's overlayfs-in-userns switch.
    /// Two builders share memoized environments and cached trees only when
    /// a container launched by either would be byte-identical.
    pub(crate) fn launch_identity(&self) -> String {
        let privilege = self.privilege_type();
        let (creds, ns) = match self.identity() {
            Ok(identity) => identity,
            Err(errno) => return format!("{}|{:?}", privilege, errno),
        };
        // Plain numbers, not `Debug`: a cache key is formatted once per
        // stage, and `Debug` of the maps costs several times as much.
        let mut id = String::with_capacity(96);
        let _ = write!(id, "{}|{}|{}", privilege, creds.euid.0, creds.egid.0);
        for (map, tag) in [(&ns.uid_map, 'u'), (&ns.gid_map, 'g')] {
            for e in map.entries() {
                let (inside, outside, count) = (e.inside_start, e.outside_start, e.count);
                let _ = write!(id, "|{tag}{inside}:{outside}:{count}");
            }
        }
        if let BuilderKind::RootlessPodman {
            driver,
            backend,
            sysctl,
            ..
        } = &self.kind
        {
            let overlay = u8::from(sysctl.unprivileged_overlayfs);
            let _ = write!(id, "|{}|{:?}|ovl{overlay}", driver.name(), backend);
        }
        id
    }

    /// The environment of a `FROM` naming a base image, launched through
    /// the memo: the second and later cold builds from the same base adopt
    /// a CoW snapshot of the launched rootfs (a refcount bump) instead of
    /// rebuilding the base tree and launching it again. The memo is shared
    /// across builders, so under a build farm
    /// the first tenant to reach a base derives it and concurrent tenants
    /// wait and adopt. `identity` is this builder's
    /// [`Builder::launch_identity`], which the stage has already formatted
    /// for its cache keys.
    pub(crate) fn base_env(
        &self,
        identity: &str,
        reference: &str,
        arch: &str,
    ) -> Result<BuildEnv, String> {
        let key = (
            identity.to_string(),
            reference.to_string(),
            arch.to_string(),
        );
        self.base_envs
            .get_or_derive(key, || self.derive_base_env(reference, arch))
    }

    /// Derives a base environment from scratch: build the canonical base
    /// tree and hand it to [`Container::launch`] under this builder's
    /// privilege type, which applies that type's ownership rule to the tree
    /// in place. The tree is never packed into a layer, hashed or unpacked.
    fn derive_base_env(&self, reference: &str, arch: &str) -> Result<BuildEnv, String> {
        let base = base_image(reference, arch)
            .ok_or_else(|| format!("error: no base image: {}", reference))?;
        let launch = match &self.kind {
            BuilderKind::Docker => Launch::TypeI,
            BuilderKind::RootlessPodman {
                subuid,
                driver,
                backend,
                sysctl,
            } => Launch::TypeII {
                invoker: &self.invoker,
                subuid,
                driver: *driver,
                backend: *backend,
                sysctl,
            },
            BuilderKind::ChImage => Launch::TypeIII {
                invoker: &self.invoker,
            },
        };
        let container = Container::launch(base.fs, arch, launch).map_err(launch_error)?;
        BuildEnv::new(
            container.rootfs,
            (container.creds, container.userns),
            reference,
            arch,
        )
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
    /// cache entry still shares them. The artifact's final state is kept
    /// too: a later `FROM <tag>` chains its cache keys from it.
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
                final_state: artifact.final_state,
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
        let (creds, userns) = self.identity().map_err(|e| format!("push failed: {}", e))?;
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
    /// changes ownership to the invoking user, paper §5.2). The image's base
    /// reference is the distribution its tree's `/etc/os-release` names, so
    /// a later `FROM <tag>` finds that distribution's package catalog; an
    /// image with no such file records the registry reference instead.
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
        let base_reference = os_release_reference(&fs).unwrap_or_else(|| reference.to_string());
        self.store.insert(
            tag.to_string(),
            BuiltImage {
                tag: tag.to_string(),
                fs,
                config: image.config.clone(),
                fakeroot_db: LieDatabase::new(),
                base_reference,
                arch: image.config.architecture.clone(),
                privilege: self.privilege_type(),
                final_state: None,
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
        let mut overrides = opts.clone();
        overrides
            .build_args
            .insert("PKG".to_string(), "openmpi".to_string());
        let overridden = b.build(df, &overrides, None);
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

    /// `FROM centos:7` plus one `yum install`.
    fn yum_image(package: &str) -> String {
        format!("FROM centos:7\nRUN yum install -y {package}\n")
    }

    /// Whether the image tagged `tag` holds `path`, read as host root.
    fn holds(b: &Builder, tag: &str, path: &str) -> bool {
        let (creds, ns) = (Credentials::host_root(), UserNamespace::initial());
        b.image(tag)
            .unwrap()
            .fs
            .exists(&Actor::new(&creds, &ns), path)
    }

    const APP_ON_BASE: &str = "FROM base\nENV STACK=atse\n";
    const MPIRUN: &str = "/usr/lib64/openmpi/bin/mpirun";

    #[test]
    fn from_a_rebuilt_local_tag_never_adopts_the_old_tree() {
        // Each app reads `base` in its first stage; the later stages read
        // that stage through `FROM` or `COPY --from`. Built with the cache
        // on, the tag records its final state and every stage reading it
        // misses (the copying stage's `FROM centos:7` still hits). Built
        // with it off, the tag has no state to chain from, so no stage that
        // reads it through `FROM`, directly or through an earlier stage,
        // runs cached, and the copying stage runs uncached from its
        // `COPY --from` on (its `FROM centos:7` still hits).
        let two_stages = "FROM base AS build\nENV STACK=atse\nFROM build\nENV X=1\n";
        let copy_from = "FROM base AS build\nENV STACK=atse\n\
                         FROM centos:7\nCOPY --from=build /usr/lib64 /opt/lib64\n";
        let copied = "/opt/lib64/openmpi/bin/mpirun";
        let cases = [
            (APP_ON_BASE, MPIRUN, true, (0, 2)),
            (APP_ON_BASE, MPIRUN, false, (0, 0)),
            (two_stages, MPIRUN, true, (0, 4)),
            (two_stages, MPIRUN, false, (0, 0)),
            (copy_from, copied, true, (1, 3)),
            (copy_from, copied, false, (1, 0)),
        ];
        for (dockerfile, path, base_cache, expected) in cases {
            let mut b = Builder::ch_image(alice());
            let mut base = BuildOptions::new("base");
            base.use_cache = base_cache;
            let app = BuildOptions::new("app").with_cache();
            assert!(b.build(&yum_image("gcc"), &base, None).success);
            let state = b.image("base").unwrap().final_state;
            assert_eq!(state.is_some(), base_cache);
            let r = b.build(dockerfile, &app, None);
            assert!(r.success, "{}", r.transcript_text());
            assert!(b.build(&yum_image("openmpi"), &base, None).success);
            let r = b.build(dockerfile, &app, None);
            assert!(r.success, "{}", r.transcript_text());
            let counts = (r.cache_hits, r.cache_misses);
            assert_eq!(counts, expected, "{dockerfile}{}", r.transcript_text());
            assert!(
                holds(&b, "app", path),
                "{dockerfile}{}",
                r.transcript_text()
            );
        }
    }

    #[test]
    fn a_stage_keeps_its_hits_before_a_stateless_copy_from() {
        // `build` reads a tag built with the cache off, so it leaves no
        // final state. `app` hits its `FROM` and `RUN` on the rebuild and
        // runs its `COPY --from=build` uncached; `last` goes `FROM app`,
        // which then has no state either, and runs uncached.
        let dockerfile = "FROM base AS build\nENV STACK=atse\n\
                          FROM centos:7 AS app\nRUN yum install -y spack\n\
                          COPY --from=build /usr/lib64 /opt/lib64\n\
                          FROM app\nENV X=1\n";
        let mut b = Builder::ch_image(alice());
        let mut base = BuildOptions::new("base");
        base.use_cache = false;
        assert!(b.build(&yum_image("openmpi"), &base, None).success);
        let opts = BuildOptions::new("last").with_cache();
        let first = b.build(dockerfile, &opts, None);
        assert!(first.success, "{}", first.transcript_text());
        let r = b.build(dockerfile, &opts, None);
        assert!(r.success, "{}", r.transcript_text());
        let per_stage: Vec<_> = r
            .stages
            .iter()
            .map(|s| (s.cache_hits, s.cache_misses))
            .collect();
        assert_eq!(
            per_stage,
            [(0, 0), (2, 0), (0, 0)],
            "{}",
            r.transcript_text()
        );
        let app = &r.stages[1].transcript;
        let run = "2 RUN [ '/bin/sh', '-c', 'yum install -y spack' ] (cached)";
        assert_eq!(app[..2], ["1 FROM centos:7 AS app (cached)", run]);
        assert_eq!(b.image("last").unwrap().final_state, None);
        assert!(holds(&b, "last", "/opt/lib64/openmpi/bin/mpirun"));
        assert!(holds(&b, "last", "/opt/spack/bin/spack"));
    }

    #[test]
    fn builders_sharing_a_cache_never_adopt_each_others_local_tags() {
        let cache = Arc::new(ShardedBuildCache::new());
        let memo = Arc::new(BaseEnvMemo::new());
        let tenant = || {
            let (cache, memo) = (Arc::clone(&cache), Arc::clone(&memo));
            Builder::with_shared(BuilderKind::ChImage, alice(), cache, memo)
        };
        let (mut a, mut b) = (tenant(), tenant());
        let opts = |tag: &str| BuildOptions::new(tag).with_cache();
        assert!(a.build(&yum_image("openmpi"), &opts("base"), None).success);
        assert!(a.build(APP_ON_BASE, &opts("app"), None).success);
        assert!(b.build(&yum_image("spack"), &opts("base"), None).success);
        let r = b.build(APP_ON_BASE, &opts("app"), None);
        assert!(r.success, "{}", r.transcript_text());
        assert!(holds(&b, "app", "/opt/spack/bin/spack"));
        assert!(!holds(&b, "app", MPIRUN));
    }

    #[test]
    fn identical_rebuild_of_a_local_tag_keeps_every_hit() {
        let mut b = Builder::ch_image(alice());
        let opts = |tag: &str| BuildOptions::new(tag).with_cache();
        let app = "FROM base\nRUN yum install -y spack\nENV STACK=atse\n";
        assert!(b.build(&yum_image("openmpi"), &opts("base"), None).success);
        assert!(b.build(app, &opts("app"), None).success);
        let base = b.build(&yum_image("openmpi"), &opts("base"), None);
        assert_eq!(base.cache_misses, 0, "{}", base.transcript_text());
        let r = b.build(app, &opts("app"), None);
        let counts = (r.cache_hits, r.cache_misses);
        assert_eq!(counts, (3, 0), "{}", r.transcript_text());
    }

    #[test]
    fn cached_and_uncached_from_run_the_same_stage() {
        let mut b = Builder::ch_image(alice());
        let opts = |tag: &str| BuildOptions::new(tag).with_force().with_cache();
        let base = b.build(&yum_image("openssh"), &opts("base"), None);
        assert!(base.success, "{}", base.transcript_text());
        assert!(holds(&b, "base", "/usr/bin/fakeroot"));
        // Different `app.c` bytes: the second build hits only `FROM`.
        let app = "FROM base\nCOPY app.c /src/app.c\nRUN yum install -y gcc\n";
        let uncached = b.build(app, &opts("app"), Some(&app_context(b"v1")));
        let cached = b.build(app, &opts("app"), Some(&app_context(b"v2")));
        assert_eq!((cached.cache_hits, cached.cache_misses), (1, 2));
        assert_eq!(cached.transcript()[0], "1 FROM base (cached)");
        let check = "workarounds: init step 1: checking: $ command -v fakeroot";
        assert!(uncached.transcript_text().contains(check));
        let plain = |r: &BuildReport| -> Vec<String> {
            let strip = |l: String| l.strip_suffix(" (cached)").map(str::to_string).unwrap_or(l);
            r.transcript().into_iter().map(strip).collect()
        };
        assert_eq!(plain(&cached), plain(&uncached));
        assert_eq!(cached.force_config, uncached.force_config);
        assert_eq!(cached.instructions_modified, uncached.instructions_modified);
        assert!(cached.success && uncached.success);
    }

    #[test]
    fn type2_without_a_subuid_range_is_refused_every_container_identity() {
        let mut podman = Builder::rootless_podman(alice(), SubIdDb::new());
        // FROM: the runtime refuses to launch the build container.
        let r = podman.build(centos7_dockerfile(), &BuildOptions::new("foo"), None);
        let refused = launch_error(Errno::EPERM);
        assert_eq!(r.error_text().as_deref(), Some(refused.as_str()));
        // push and push_to_oci of a pulled image read it as the builder's
        // containers would, which the runtime refuses too.
        let mut registry = Registry::new("registry.lanl.example");
        let mut ch = Builder::ch_image(alice());
        let opts = BuildOptions::new("foo").with_force();
        assert!(ch.build(centos7_dockerfile(), &opts, None).success);
        ch.push(
            "foo",
            "hpc/openssh:1.0",
            &mut registry,
            PushOwnership::Flatten,
        )
        .unwrap();
        podman
            .pull(&mut registry, "hpc/openssh:1.0", "openssh")
            .unwrap();
        let err = podman
            .push(
                "openssh",
                "hpc/openssh:2.0",
                &mut registry,
                PushOwnership::Preserve,
            )
            .unwrap_err();
        assert_eq!(err, format!("push failed: {}", Errno::EPERM));
        let mut oci = hpcc_oci::DistributionRegistry::new("registry.example.gov", &["alice"]);
        let layers = crate::ocipush::LayerMode::SingleFlattened;
        let err = crate::ocipush::push_to_oci(&podman, "openssh", &mut oci, "hpc/app", "1", layers)
            .unwrap_err();
        assert_eq!(err, hpcc_oci::ApiError::Denied);
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

    /// A rootless Podman builder for alice over `memo` (private when
    /// `None`), on local disk.
    fn podman(driver: StorageDriver, sysctl: Sysctl, memo: Option<&Arc<BaseEnvMemo>>) -> Builder {
        let kind = BuilderKind::RootlessPodman {
            subuid: default_subuid_for("alice"),
            driver,
            backend: FsBackend::LocalDisk,
            sysctl,
        };
        match memo {
            Some(memo) => {
                let cache = Arc::new(ShardedBuildCache::new());
                Builder::with_shared(kind, alice(), cache, Arc::clone(memo))
            }
            None => Builder::new(kind, alice()),
        }
    }

    const FROM_CENTOS: &str = "FROM centos:7\n";

    #[test]
    fn a_type2_builder_never_adopts_a_base_env_of_another_storage_driver() {
        let memo = Arc::new(BaseEnvMemo::new());
        let opts = BuildOptions::new("base");
        let mut vfs = podman(StorageDriver::Vfs, Sysctl::rhel76(), Some(&memo));
        assert!(vfs.build(FROM_CENTOS, &opts, None).success);
        let fuse = StorageDriver::FuseOverlayFs;
        let mut shared = podman(fuse, Sysctl::rhel76(), Some(&memo));
        let mut private = podman(fuse, Sysctl::rhel76(), None);
        for b in [&mut shared, &mut private] {
            let r = b.build(FROM_CENTOS, &opts, None);
            assert!(r.success, "{}", r.transcript_text());
        }
        let (creds, ns) = (Credentials::host_root(), UserNamespace::initial());
        let override_stat = |b: &Builder| {
            let fs = &b.image("base").unwrap().fs;
            let name = "user.containers.override_stat";
            fs.get_xattr(&Actor::new(&creds, &ns), "/bin/sh", name).ok()
        };
        assert!(override_stat(&private).is_some());
        assert_eq!(override_stat(&shared), override_stat(&private));
        assert_eq!(memo.derivations(), 2);
    }

    #[test]
    fn a_type2_builder_never_adopts_a_base_env_its_kernel_refuses() {
        let memo = Arc::new(BaseEnvMemo::new());
        let opts = BuildOptions::new("base");
        let overlay = StorageDriver::OverlayFs;
        let mut modern = podman(overlay, Sysctl::modern(), Some(&memo));
        assert!(modern.build(FROM_CENTOS, &opts, None).success);
        let refused = Some(launch_error(Errno::EPERM));
        for memo in [Some(&memo), None] {
            let r = podman(overlay, Sysctl::rhel76(), memo).build(FROM_CENTOS, &opts, None);
            assert_eq!(r.error_text(), refused, "{}", r.transcript_text());
        }
    }

    #[test]
    fn from_a_pulled_tag_builds_on_its_distribution_uncached() {
        let mut registry = Registry::new("registry.lanl.example");
        let mut alice_ch = Builder::ch_image(alice());
        let opts = BuildOptions::new("foo").with_force();
        assert!(alice_ch.build(centos7_dockerfile(), &opts, None).success);
        let flatten = PushOwnership::Flatten;
        let pushed = alice_ch.push("foo", "hpc/openssh:1.0", &mut registry, flatten);
        pushed.unwrap();
        let mut bob = Builder::ch_image(Invoker::user("bob", 1001, 1001));
        bob.pull(&mut registry, "hpc/openssh:1.0", "openssh")
            .unwrap();
        let app = "FROM openssh\nRUN yum install -y gcc\n";
        let r = bob.build(app, &BuildOptions::new("app").with_cache(), None);
        assert!(r.success, "{}", r.transcript_text());
        // A pulled tag has no recorded state: the stage runs uncached.
        assert_eq!((r.cache_hits, r.cache_misses), (0, 0));
        assert!(
            holds(&bob, "app", "/usr/bin/gcc"),
            "{}",
            r.transcript_text()
        );
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
    fn memo_derives_a_key_again_after_its_derivation_panicked() {
        let memo = BaseEnvMemo::new();
        let key = || {
            let id = Builder::ch_image(alice()).launch_identity();
            (id, "centos:7".to_string(), "x86_64".to_string())
        };
        let env = || {
            let root = (Credentials::host_root(), UserNamespace::initial());
            BuildEnv::new(Filesystem::new_local(), root, "centos:7", "x86_64")
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_derive(key(), || panic!("derivation panicked"))
        }));
        assert!(panicked.is_err());
        assert_eq!(memo.derivations(), 0);
        assert!(memo.get_or_derive(key(), env).is_ok());
        assert_eq!(memo.derivations(), 1);
        // Memoized now: a later call does not derive.
        assert!(memo.get_or_derive(key(), || unreachable!()).is_ok());
        assert_eq!(memo.derivations(), 1);
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
