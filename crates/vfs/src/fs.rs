//! The in-memory filesystem and its syscall-level operations.
//!
//! All metadata (ownership, modes, xattrs, device numbers) is stored with
//! **host** IDs; operations take an [`Actor`] whose user namespace determines
//! how IDs are translated and which privileged operations are permitted. This
//! is the substrate on which package installation either fails (`cpio: chown`,
//! Figure 2) or succeeds depending on the container privilege type.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use hpcc_kernel::sync::lock_recover;
use hpcc_kernel::{Capability, Errno, Gid, KResult, Uid, UsernsId};

use crate::actor::Actor;
use crate::bytes::FileBytes;
use crate::inode::{Ino, Inode, InodeData, Stat};
use crate::mode::{Access, FileType, Mode};
use crate::path::{clean_parent_split, PathComponents};
use crate::sharedfs::FsBackend;
use crate::table::InodeTable;

/// Maximum symlink traversals before `ELOOP`.
const MAX_SYMLINK_DEPTH: u32 = 40;

/// Deepest path (in components) the resolve cache will record. Shared with
/// the frozen resolver, which pre-warms to the same depth.
pub(crate) const RESOLVE_CACHE_MAX_DEPTH: usize = 24;
/// Entry cap per filesystem; the cache is dumped wholesale when full (an
/// epoch clear is cheaper than LRU bookkeeping at this size).
const RESOLVE_CACHE_MAX_ENTRIES: usize = 512;

/// One cached resolution: the final inode plus the chain of parent
/// directories whose EXECUTE permission the walk checked.
///
/// The entry stores *structure only*. Permission-relevant state (modes,
/// ownership, the acting credentials) is deliberately not captured: every
/// hit re-runs `check_access` over `parents`, so `chmod`/`chown` and actor
/// changes need no invalidation and can never be bypassed through the cache.
#[derive(Debug, Clone, Copy)]
struct ResolveEntry {
    /// Filesystem generation the entry was recorded at.
    generation: u64,
    /// The resolved inode.
    ino: Ino,
    /// Parent directory inodes traversed, in order ([0] is the root).
    parents: [Ino; RESOLVE_CACHE_MAX_DEPTH],
    /// Number of live slots in `parents`.
    parents_len: u8,
}

/// An in-memory POSIX-like filesystem.
///
/// Snapshots are cheap: the inode table is a persistent structural-sharing
/// trie ([`InodeTable`]), so `Filesystem::clone()` is O(1) and a mutation
/// after a clone path-copies only the O(depth) trie nodes leading to the
/// touched inode — never the whole table, and regular-file bytes stay shared
/// copy-on-write via [`FileBytes`] until the individual file is written.
/// This is what makes build-cache hits, per-instruction snapshot stores,
/// multi-stage `FROM`, and push layer diffs O(metadata of what changed)
/// instead of O(image size).
///
/// Repeated lookups are O(1): a per-filesystem resolve cache maps raw path
/// strings to inodes, stamped with a structural generation counter that any
/// namespace mutation bumps. Access checks are re-run on every hit, so
/// permission changes need no invalidation, and `clone()` starts the copy
/// with an empty cache.
#[derive(Debug)]
pub struct Filesystem {
    inodes: InodeTable,
    next_ino: Ino,
    root: Ino,
    clock: u64,
    /// Structural generation: bumped by any mutation that changes the
    /// name → inode mapping (create, remove, rename, link). Content writes
    /// and metadata changes do not bump it.
    generation: u64,
    /// Path → inode resolve cache (see [`ResolveEntry`]). Behind a `Mutex`
    /// because lookups take `&self` and snapshots are shared across build
    /// stages; the lock is uncontended in practice and held only for the
    /// map probe. It recovers from poisoning: a panic while it was held can
    /// only have interrupted a map probe or a single-entry insert, and
    /// entries are self-validating (generation stamp plus per-hit access
    /// checks), so one panicked reader must not wedge every later resolve.
    resolve_cache: Mutex<HashMap<String, ResolveEntry>>,
    /// Storage backend, which determines xattr/device support and shared
    /// semantics.
    pub backend: FsBackend,
    /// The user namespace that "owns" this filesystem (the mount's
    /// `s_user_ns`). Host filesystems are owned by the initial namespace.
    pub owner_userns: UsernsId,
    /// Mounted read-only.
    pub readonly: bool,
}

impl Clone for Filesystem {
    /// O(1): bumps the inode-table refcount. The resolve cache is *not*
    /// carried over — the clone starts cold and re-fills on use, which keeps
    /// per-instruction snapshot stores allocation-free.
    fn clone(&self) -> Self {
        Filesystem {
            inodes: self.inodes.clone(),
            next_ino: self.next_ino,
            root: self.root,
            clock: self.clock,
            generation: self.generation,
            resolve_cache: Mutex::new(HashMap::new()),
            backend: self.backend,
            owner_userns: self.owner_userns,
            readonly: self.readonly,
        }
    }
}

impl Filesystem {
    /// Creates an empty filesystem with a root directory owned by root:root.
    pub fn new(backend: FsBackend) -> Self {
        let mut inodes = InodeTable::new();
        inodes.insert(
            1,
            Inode {
                ino: 1,
                data: InodeData::empty_dir(),
                uid: Uid::ROOT,
                gid: Gid::ROOT,
                mode: Mode::new(0o755),
                nlink: 2,
                xattrs: BTreeMap::new(),
                mtime: 0,
            },
        );
        Filesystem {
            inodes,
            next_ino: 2,
            root: 1,
            clock: 1,
            generation: 0,
            resolve_cache: Mutex::new(HashMap::new()),
            backend,
            owner_userns: UsernsId::INIT,
            readonly: false,
        }
    }

    /// Creates a filesystem on local disk (the default backend).
    pub fn new_local() -> Self {
        Filesystem::new(FsBackend::LocalDisk)
    }

    /// Root inode number.
    pub fn root_ino(&self) -> Ino {
        self.root
    }

    /// Number of inodes.
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// Sum of regular-file sizes, in bytes.
    pub fn total_file_bytes(&self) -> u64 {
        let mut total = 0u64;
        self.inodes.for_each(|_, i| {
            if let InodeData::Regular { content } = &i.data {
                total += content.len() as u64;
            }
        });
        total
    }

    /// Borrow an inode.
    pub fn inode(&self, ino: Ino) -> KResult<&Inode> {
        self.inodes.get(ino).ok_or(Errno::ENOENT)
    }

    /// Mutably borrow an inode. Like every mutating path, this path-copies
    /// the O(depth) trie nodes shared with snapshots — never the whole table.
    ///
    /// Conservatively bumps the structural generation (external callers can
    /// replace `Inode::data` wholesale through this handle); internal
    /// content-only writes use the quiet variant instead.
    pub fn inode_mut(&mut self, ino: Ino) -> KResult<&mut Inode> {
        self.generation = self.generation.wrapping_add(1);
        self.inodes.get_mut(ino).ok_or(Errno::ENOENT)
    }

    /// Mutably borrow an inode *without* bumping the structural generation.
    /// For internal paths that change file content or metadata only — the
    /// name → inode mapping is untouched, so cached resolutions stay valid
    /// (access checks re-run on every cache hit regardless).
    pub(crate) fn inode_mut_quiet(&mut self, ino: Ino) -> KResult<&mut Inode> {
        self.inodes.get_mut(ino).ok_or(Errno::ENOENT)
    }

    /// Drops an inode from the table (after its last name is gone).
    pub(crate) fn remove_inode(&mut self, ino: Ino) {
        self.inodes.remove(ino);
    }

    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Links `child` under `parent` as `name` without bumping the structural
    /// generation for pure insertions: a *new* name cannot invalidate any
    /// cached resolution (negative results are never cached, and existing
    /// name → inode mappings are untouched). Replacing an existing mapping
    /// orphans its old inode, so that case does bump.
    pub(crate) fn link_entry(&mut self, parent: Ino, name: String, child: Ino) -> KResult<()> {
        let parent_inode = self.inode_mut_quiet(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if parent_inode.entries_mut().insert(name, child).is_some() {
            self.generation = self.generation.wrapping_add(1);
        }
        Ok(())
    }

    /// Allocates a fresh inode. Inode numbers are never reused, and an
    /// allocation alone changes no name → inode mapping, so this does not
    /// bump the structural generation (`link_entry` decides).
    pub(crate) fn alloc(&mut self, data: InodeData, uid: Uid, gid: Gid, mode: Mode) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        let mtime = self.tick();
        self.inodes.insert(
            ino,
            Inode {
                ino,
                data,
                uid,
                gid,
                mode,
                nlink: 1,
                xattrs: BTreeMap::new(),
                mtime,
            },
        );
        ino
    }

    // ----------------------------------------------------------------- paths

    /// Splits a path into normalized components (handles `//`, `.`, `..`).
    ///
    /// Allocates one `String` per component; the resolution hot paths use
    /// the borrowed [`PathComponents`] instead — this form remains for
    /// callers that need owned components.
    pub fn components(path: &str) -> Vec<String> {
        PathComponents::parse(path)
            .iter()
            .map(|c| c.to_string())
            .collect()
    }

    pub(crate) fn lookup_in_dir(&self, dir: Ino, name: &str) -> KResult<Ino> {
        let inode = self.inode(dir)?;
        match &inode.data {
            InodeData::Directory { entries } => entries.get(name).copied().ok_or(Errno::ENOENT),
            _ => Err(Errno::ENOTDIR),
        }
    }

    /// Probes the resolve cache for `path`. A hit re-runs the EXECUTE checks
    /// over the recorded parent chain with the *current* actor — permission
    /// failures surface exactly as the walk would surface them. Returns
    /// `Ok(None)` on a miss (stale generation, uncached path).
    fn resolve_cache_probe(&self, actor: &Actor, path: &str) -> KResult<Option<Ino>> {
        let entry = {
            let cache = lock_recover(&self.resolve_cache);
            match cache.get(path) {
                Some(e) if e.generation == self.generation => *e,
                _ => return Ok(None),
            }
        };
        for &dir in &entry.parents[..entry.parents_len as usize] {
            let dir_inode = match self.inodes.get(dir) {
                Some(i) => i,
                None => return Ok(None),
            };
            if !dir_inode.is_dir() {
                return Ok(None);
            }
            actor.check_access(dir_inode, Access::EXECUTE)?;
        }
        Ok(Some(entry.ino))
    }

    /// Records a symlink-free resolution under its raw path key.
    fn resolve_cache_store(&self, path: &str, ino: Ino, parents: &[Ino]) {
        if parents.len() > RESOLVE_CACHE_MAX_DEPTH {
            return;
        }
        let mut entry = ResolveEntry {
            generation: self.generation,
            ino,
            parents: [0; RESOLVE_CACHE_MAX_DEPTH],
            parents_len: parents.len() as u8,
        };
        entry.parents[..parents.len()].copy_from_slice(parents);
        let mut cache = lock_recover(&self.resolve_cache);
        if let Some(slot) = cache.get_mut(path) {
            *slot = entry;
            return;
        }
        if cache.len() >= RESOLVE_CACHE_MAX_ENTRIES {
            cache.clear();
        }
        cache.insert(path.to_string(), entry);
    }

    fn resolve_inner(
        &self,
        actor: &Actor,
        path: &str,
        follow_final: bool,
        depth: u32,
        use_cache: bool,
    ) -> KResult<Ino> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(Errno::ELOOP);
        }
        if use_cache {
            if let Some(ino) = self.resolve_cache_probe(actor, path)? {
                return Ok(ino);
            }
        }
        let comps = PathComponents::parse(path);
        let cache_key = if use_cache { Some(path) } else { None };
        self.walk_components(
            actor,
            comps.as_slice(),
            follow_final,
            depth,
            cache_key,
            use_cache,
        )
    }

    /// The resolution walk over borrowed components. `cache_key` is the raw
    /// path to record a symlink-free result under (`None` skips caching —
    /// used for parent walks of non-canonical paths). `use_cache: false`
    /// additionally keeps symlink re-resolution off the cache, so the whole
    /// walk never touches the resolve-cache `Mutex`.
    fn walk_components(
        &self,
        actor: &Actor,
        comps: &[&str],
        follow_final: bool,
        depth: u32,
        cache_key: Option<&str>,
        use_cache: bool,
    ) -> KResult<Ino> {
        let mut parents: [Ino; RESOLVE_CACHE_MAX_DEPTH] = [0; RESOLVE_CACHE_MAX_DEPTH];
        let mut cacheable = comps.len() <= RESOLVE_CACHE_MAX_DEPTH;
        let mut cur = self.root;
        for (i, &name) in comps.iter().enumerate() {
            let is_last = i + 1 == comps.len();
            let dir_inode = self.inode(cur)?;
            if !dir_inode.is_dir() {
                return Err(Errno::ENOTDIR);
            }
            actor.check_access(dir_inode, Access::EXECUTE)?;
            if cacheable {
                parents[i] = cur;
            }
            let child = self.lookup_in_dir(cur, name)?;
            let child_inode = self.inode(child)?;
            if child_inode.is_symlink() {
                if !is_last || follow_final {
                    let target = match &child_inode.data {
                        InodeData::Symlink { target } => target.as_str(),
                        _ => unreachable!(),
                    };
                    let resolved_path = if target.starts_with('/') {
                        let rest = comps[i + 1..].join("/");
                        if rest.is_empty() {
                            target.to_string()
                        } else {
                            format!("{}/{}", target, rest)
                        }
                    } else {
                        let parent = comps[..i].join("/");
                        let rest = comps[i + 1..].join("/");
                        let mut p = format!("/{}/{}", parent, target);
                        if !rest.is_empty() {
                            p = format!("{}/{}", p, rest);
                        }
                        p
                    };
                    return self.resolve_inner(
                        actor,
                        &resolved_path,
                        follow_final,
                        depth + 1,
                        use_cache,
                    );
                }
                // `lstat` of a final symlink: a valid result, but `resolve`
                // and `resolve_no_follow` would disagree on this path, so it
                // must not enter the shared cache.
                cacheable = false;
            }
            cur = child;
        }
        if cacheable && !comps.is_empty() {
            if let Some(key) = cache_key {
                self.resolve_cache_store(key, cur, &parents[..comps.len()]);
            }
        }
        Ok(cur)
    }

    /// Resolves a path, following symlinks (including a final symlink).
    pub fn resolve(&self, actor: &Actor, path: &str) -> KResult<Ino> {
        self.resolve_inner(actor, path, true, 0, true)
    }

    /// Resolves a path without following a final symlink (`lstat` semantics).
    pub fn resolve_no_follow(&self, actor: &Actor, path: &str) -> KResult<Ino> {
        self.resolve_inner(actor, path, false, 0, true)
    }

    /// Resolves a path, following symlinks, without ever touching the
    /// resolve-cache `Mutex` — neither probing nor storing, including across
    /// symlink re-resolution. This is the lock-free read path for serving an
    /// immutable filesystem to many concurrent readers (see
    /// [`crate::frozen::FrozenResolver`]), where a shared lock would
    /// serialize them and a per-reader cache would never amortize.
    pub fn resolve_uncached(&self, actor: &Actor, path: &str) -> KResult<Ino> {
        self.resolve_inner(actor, path, true, 0, false)
    }

    /// [`Filesystem::resolve_uncached`] with `lstat` semantics (no final
    /// symlink follow).
    pub fn resolve_uncached_no_follow(&self, actor: &Actor, path: &str) -> KResult<Ino> {
        self.resolve_inner(actor, path, false, 0, false)
    }

    /// Resolves the parent directory of `path`, returning `(parent_ino,
    /// final_name)`.
    pub fn resolve_parent(&self, actor: &Actor, path: &str) -> KResult<(Ino, String)> {
        // Clean absolute paths (the overwhelmingly common case) split by
        // slice, so the parent lookup hits the resolve cache without
        // building a parent path string.
        if let Some((parent_path, name)) = clean_parent_split(path) {
            let parent = self.resolve(actor, parent_path)?;
            if !self.inode(parent)?.is_dir() {
                return Err(Errno::ENOTDIR);
            }
            return Ok((parent, name.to_string()));
        }
        let comps = PathComponents::parse(path);
        let comps = comps.as_slice();
        let (&name, dir_comps) = comps.split_last().ok_or(Errno::EINVAL)?;
        let parent = self.walk_components(actor, dir_comps, true, 0, None, true)?;
        if !self.inode(parent)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok((parent, name.to_string()))
    }

    /// True if the path exists (for the given actor's view).
    pub fn exists(&self, actor: &Actor, path: &str) -> bool {
        self.resolve(actor, path).is_ok()
    }

    /// True if the path exists and is a directory.
    pub fn is_dir(&self, actor: &Actor, path: &str) -> bool {
        self.resolve(actor, path)
            .and_then(|i| self.inode(i))
            .map(|i| i.is_dir())
            .unwrap_or(false)
    }

    // ---------------------------------------------------- unchecked installs

    /// Installs a directory (and any missing ancestors) without permission
    /// checks. Used by base-image construction and archive extraction when
    /// acting as the image author.
    pub fn install_dir(&mut self, path: &str, uid: Uid, gid: Gid, mode: Mode) -> KResult<Ino> {
        let comps = PathComponents::parse(path);
        self.install_dir_comps(comps.as_slice(), uid, gid, mode)
    }

    /// [`Filesystem::install_dir`] over pre-split borrowed components; names
    /// are copied only when a directory is actually created.
    fn install_dir_comps(
        &mut self,
        comps: &[&str],
        uid: Uid,
        gid: Gid,
        mode: Mode,
    ) -> KResult<Ino> {
        let mut cur = self.root;
        for &name in comps {
            let existing = {
                let inode = self.inode(cur)?;
                if !inode.is_dir() {
                    return Err(Errno::ENOTDIR);
                }
                inode.entries().get(name).copied()
            };
            cur = match existing {
                Some(i) => i,
                None => {
                    let ino = self.alloc(InodeData::empty_dir(), uid, gid, mode);
                    self.link_entry(cur, name.to_string(), ino)?;
                    ino
                }
            };
        }
        Ok(cur)
    }

    /// Creates or replaces the entry `name` under the directory `parent`
    /// without permission checks.
    ///
    /// A **regular-file** install over an existing entry rewrites that inode
    /// in place (the historical `install_file` overwrite semantics — hard
    /// links observe the new content). Installing any **other** kind over an
    /// existing entry allocates a fresh inode and repoints the entry, so a
    /// hard-linked destination file is never converted into a symlink or
    /// device through one of its names.
    fn install_node(
        &mut self,
        parent: Ino,
        name: &str,
        data: InodeData,
        uid: Uid,
        gid: Gid,
        mode: Mode,
    ) -> KResult<Ino> {
        let parent_inode = self.inode(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        let existing = parent_inode.entries().get(name).copied();
        if let (Some(existing), InodeData::Regular { .. }) = (existing, &data) {
            let tick = self.tick();
            // In-place rewrite can change the entry's file type (e.g. a
            // symlink becomes a regular file), so this is a structural
            // mutation — `inode_mut` bumps the generation.
            let inode = self.inode_mut(existing)?;
            inode.data = data;
            inode.uid = uid;
            inode.gid = gid;
            inode.mode = mode;
            inode.mtime = tick;
            return Ok(existing);
        }
        let ino = self.alloc(data, uid, gid, mode);
        // `link_entry` bumps the generation when this replaces an entry.
        self.link_entry(parent, name.to_string(), ino)?;
        Ok(ino)
    }

    /// Installs a regular file without permission checks, creating parent
    /// directories as needed (parents get mode 0755 with the same owner).
    ///
    /// Accepts anything convertible to [`FileBytes`]; passing a `FileBytes`
    /// handle shares the bytes with the source instead of copying them.
    pub fn install_file(
        &mut self,
        path: &str,
        content: impl Into<FileBytes>,
        uid: Uid,
        gid: Gid,
        mode: Mode,
    ) -> KResult<Ino> {
        let comps = PathComponents::parse(path);
        let comps = comps.as_slice();
        let (&name, dir_comps) = comps.split_last().ok_or(Errno::EINVAL)?;
        let parent = self.install_dir_comps(dir_comps, uid, gid, Mode::new(0o755))?;
        self.install_node(
            parent,
            name,
            InodeData::file(content.into()),
            uid,
            gid,
            mode,
        )
    }

    /// Installs a symlink without permission checks.
    pub fn install_symlink(
        &mut self,
        path: &str,
        target: &str,
        uid: Uid,
        gid: Gid,
    ) -> KResult<Ino> {
        let comps = PathComponents::parse(path);
        let comps = comps.as_slice();
        let (&name, dir_comps) = comps.split_last().ok_or(Errno::EINVAL)?;
        let parent = self.install_dir_comps(dir_comps, uid, gid, Mode::new(0o755))?;
        let ino = self.alloc(
            InodeData::Symlink {
                target: target.to_string(),
            },
            uid,
            gid,
            Mode::new(0o777),
        );
        self.link_entry(parent, name.to_string(), ino)?;
        Ok(ino)
    }

    /// Installs a character device node without permission checks. Fails with
    /// `EPERM` on backends that do not support device nodes.
    pub fn install_char_device(
        &mut self,
        path: &str,
        major: u32,
        minor: u32,
        uid: Uid,
        gid: Gid,
        mode: Mode,
    ) -> KResult<Ino> {
        if !self.backend.supports_device_nodes() {
            return Err(Errno::EPERM);
        }
        let comps = PathComponents::parse(path);
        let comps = comps.as_slice();
        let (&name, dir_comps) = comps.split_last().ok_or(Errno::EINVAL)?;
        let parent = self.install_dir_comps(dir_comps, uid, gid, Mode::new(0o755))?;
        let ino = self.alloc(InodeData::CharDevice { major, minor }, uid, gid, mode);
        self.link_entry(parent, name.to_string(), ino)?;
        Ok(ino)
    }

    // -------------------------------------------------------- checked ops

    pub(crate) fn check_writable(&self) -> KResult<()> {
        if self.readonly {
            Err(Errno::EROFS)
        } else {
            Ok(())
        }
    }

    /// `mkdir(2)`: resolves the parent, then delegates to the inode-level
    /// [`Filesystem::mkdir_at`] (the FUSE-style op surface).
    pub fn mkdir(&mut self, actor: &Actor, path: &str, mode: Mode) -> KResult<Ino> {
        self.check_writable()?;
        let (parent, name) = self.resolve_parent(actor, path)?;
        self.mkdir_at(actor, parent, &name, mode)
    }

    /// `mkdir -p`: creates `path` — or, with `parents_only`, just its
    /// ancestors — level by level *with* permission checks, skipping
    /// components that already exist. One reused buffer and borrowed
    /// components; this is the hot preamble of every package payload write.
    pub fn mkdir_p(
        &mut self,
        actor: &Actor,
        path: &str,
        mode: Mode,
        parents_only: bool,
    ) -> KResult<()> {
        let comps = PathComponents::parse(path);
        let comps = comps.as_slice();
        let take = if parents_only {
            comps.len().saturating_sub(1)
        } else {
            comps.len()
        };
        let mut partial = String::with_capacity(path.len());
        for &comp in &comps[..take] {
            partial.push('/');
            partial.push_str(comp);
            if !self.exists(actor, &partial) {
                self.mkdir(actor, &partial, mode)?;
            }
        }
        Ok(())
    }

    /// Creates or truncates a regular file with the given content
    /// (open+write+close in one step).
    pub fn write_file(
        &mut self,
        actor: &Actor,
        path: &str,
        content: impl Into<FileBytes>,
        mode: Mode,
    ) -> KResult<Ino> {
        self.check_writable()?;
        let (parent, name) = self.resolve_parent(actor, path)?;
        let content = content.into();
        let existing = self.inode(parent)?.entries().get(&name).copied();
        match existing {
            Some(ino) => {
                let inode = self.inode(ino)?;
                if inode.is_dir() {
                    return Err(Errno::EISDIR);
                }
                actor.check_access(inode, Access::WRITE)?;
                let was_symlink = inode.is_symlink();
                let tick = self.tick();
                // A regular-file content rewrite leaves the name → inode
                // mapping untouched (quiet borrow, cached resolutions stay
                // valid); replacing a symlink changes resolution behaviour
                // and must bump the generation.
                let inode = if was_symlink {
                    self.inode_mut(ino)?
                } else {
                    self.inode_mut_quiet(ino)?
                };
                inode.data = InodeData::file(content);
                inode.mtime = tick;
                Ok(ino)
            }
            None => {
                let parent_inode = self.inode(parent)?;
                actor.check_access(parent_inode, Access::WRITE)?;
                let gid = if parent_inode.mode.is_setgid() {
                    parent_inode.gid
                } else {
                    actor.creds.egid
                };
                let ino = self.alloc(InodeData::file(content), actor.creds.euid, gid, mode);
                self.link_entry(parent, name, ino)?;
                Ok(ino)
            }
        }
    }

    /// Appends to an existing regular file (creating it if missing).
    pub fn append_file(
        &mut self,
        actor: &Actor,
        path: &str,
        content: &[u8],
        mode: Mode,
    ) -> KResult<Ino> {
        self.check_writable()?;
        match self.resolve(actor, path) {
            Ok(ino) => {
                let inode = self.inode(ino)?;
                actor.check_access(inode, Access::WRITE)?;
                let tick = self.tick();
                let inode = self.inode_mut_quiet(ino)?;
                if let InodeData::Regular { content: existing } = &mut inode.data {
                    existing.to_mut().extend_from_slice(content);
                    inode.mtime = tick;
                    Ok(ino)
                } else {
                    Err(Errno::EISDIR)
                }
            }
            Err(Errno::ENOENT) => self.write_file(actor, path, content.to_vec(), mode),
            Err(e) => Err(e),
        }
    }

    /// Reads a regular file's contents, borrowing them from the filesystem —
    /// no bytes are copied. Use [`Filesystem::file_bytes`] when an owned
    /// (still copy-on-write) handle is needed.
    pub fn read_file(&self, actor: &Actor, path: &str) -> KResult<&[u8]> {
        let ino = self.resolve(actor, path)?;
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::READ)?;
        match &inode.data {
            InodeData::Regular { content } => Ok(content.as_slice()),
            InodeData::Directory { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Reads a regular file as a cheap copy-on-write handle that shares the
    /// stored bytes (the snapshot-friendly way to move file content between
    /// filesystems). Delegates to the inode-level
    /// [`Filesystem::file_bytes_ino`].
    pub fn file_bytes(&self, actor: &Actor, path: &str) -> KResult<FileBytes> {
        let ino = self.resolve(actor, path)?;
        self.file_bytes_ino(actor, ino)
    }

    /// Reads a file as UTF-8 text.
    pub fn read_to_string(&self, actor: &Actor, path: &str) -> KResult<String> {
        let bytes = self.read_file(actor, path)?;
        std::str::from_utf8(bytes)
            .map(|s| s.to_string())
            .map_err(|_| Errno::EINVAL)
    }

    /// `unlink(2)`: resolves the parent, then delegates to the inode-level
    /// [`Filesystem::unlink_at`].
    pub fn unlink(&mut self, actor: &Actor, path: &str) -> KResult<()> {
        self.check_writable()?;
        let (parent, name) = self.resolve_parent(actor, path)?;
        self.unlink_at(actor, parent, &name)
    }

    /// `rmdir(2)`: resolves the parent, then delegates to the inode-level
    /// [`Filesystem::rmdir_at`].
    pub fn rmdir(&mut self, actor: &Actor, path: &str) -> KResult<()> {
        self.check_writable()?;
        let (parent, name) = self.resolve_parent(actor, path)?;
        self.rmdir_at(actor, parent, &name)
    }

    /// Recursively removes a path (like `rm -rf`), used by builders to clean
    /// work trees.
    pub fn remove_tree(&mut self, actor: &Actor, path: &str) -> KResult<()> {
        let ino = match self.resolve_no_follow(actor, path) {
            Ok(i) => i,
            Err(Errno::ENOENT) => return Ok(()),
            Err(e) => return Err(e),
        };
        if self.inode(ino)?.is_dir() {
            let children: Vec<String> = self.inode(ino)?.entries().keys().cloned().collect();
            for c in children {
                self.remove_tree(actor, &format!("{}/{}", path, c))?;
            }
            self.rmdir(actor, path)
        } else {
            self.unlink(actor, path)
        }
    }

    /// `symlink(2)`: resolves the parent, then delegates to the inode-level
    /// [`Filesystem::symlink_at`].
    pub fn symlink(&mut self, actor: &Actor, target: &str, linkpath: &str) -> KResult<Ino> {
        self.check_writable()?;
        let (parent, name) = self.resolve_parent(actor, linkpath)?;
        self.symlink_at(actor, parent, &name, target)
    }

    /// `rename(2)` within this filesystem: resolves both parents, then
    /// delegates to the inode-level [`Filesystem::rename_at`].
    pub fn rename(&mut self, actor: &Actor, from: &str, to: &str) -> KResult<()> {
        self.check_writable()?;
        let (from_parent, from_name) = self.resolve_parent(actor, from)?;
        let (to_parent, to_name) = self.resolve_parent(actor, to)?;
        self.rename_at(actor, from_parent, &from_name, to_parent, &to_name)
    }

    /// `chown(2)` / `fchownat(2)`.
    ///
    /// `new_uid`/`new_gid` are **in-namespace** IDs as passed by the caller;
    /// `None` leaves the corresponding ID unchanged. The privilege rules are
    /// the ones the paper's analysis rests on:
    ///
    /// * the target IDs must be mapped in the caller's namespace, else
    ///   `EINVAL` — this is what breaks `rpm`/`cpio` in a basic Type III
    ///   container (Figure 2);
    /// * changing the owner requires CAP_CHOWN effective over the inode;
    /// * the owner may change the group to any group they belong to;
    /// * on shared filesystems, files cannot be created/assigned to
    ///   subordinate UIDs by unprivileged clients (paper §4.2).
    pub fn chown(
        &mut self,
        actor: &Actor,
        path: &str,
        new_uid: Option<Uid>,
        new_gid: Option<Gid>,
    ) -> KResult<()> {
        self.check_writable()?;
        let ino = self.resolve(actor, path)?;
        self.chown_ino(actor, ino, new_uid, new_gid)
    }

    /// `lchown(2)`: like [`Filesystem::chown`] but does not follow a final
    /// symlink.
    pub fn lchown(
        &mut self,
        actor: &Actor,
        path: &str,
        new_uid: Option<Uid>,
        new_gid: Option<Gid>,
    ) -> KResult<()> {
        self.check_writable()?;
        let ino = self.resolve_no_follow(actor, path)?;
        self.chown_ino(actor, ino, new_uid, new_gid)
    }

    /// `chown`/`fchown` by inode — the ownership half of `setattr` in the
    /// inode-level op surface. `new_uid`/`new_gid` are in-namespace IDs; the
    /// privilege rules are documented on [`Filesystem::chown`], which (like
    /// [`Filesystem::lchown`]) resolves its path and delegates here.
    pub fn chown_ino(
        &mut self,
        actor: &Actor,
        ino: Ino,
        new_uid: Option<Uid>,
        new_gid: Option<Gid>,
    ) -> KResult<()> {
        // Translate in-namespace IDs to host IDs.
        let host_uid = match new_uid {
            None => None,
            Some(u) => Some(actor.userns.uid_to_host(u).ok_or(Errno::EINVAL)?),
        };
        let host_gid = match new_gid {
            None => None,
            Some(g) => Some(actor.userns.gid_to_host(g).ok_or(Errno::EINVAL)?),
        };
        let inode = self.inode(ino)?;
        let changing_owner = host_uid.map(|u| u != inode.uid).unwrap_or(false);
        let changing_group = host_gid.map(|g| g != inode.gid).unwrap_or(false);

        let privileged = actor.cap_over_inode(inode, Capability::CapChown);
        if !privileged {
            // Unprivileged rules: owner may change group to a group they
            // belong to; owner changes are not permitted.
            if changing_owner {
                return Err(Errno::EPERM);
            }
            if changing_group {
                let g = host_gid.expect("changing_group implies Some");
                if !(actor.owns(inode) && actor.creds.in_group(g)) {
                    return Err(Errno::EPERM);
                }
            }
            if !changing_group && !changing_owner && !actor.owns(inode) && host_uid.is_some() {
                // chown to the same owner by a non-owner still requires
                // privilege.
                return Err(Errno::EPERM);
            }
        }
        // Shared-filesystem limitation (paper §4.2): subordinate-UID file
        // ownership cannot be enforced server-side for unprivileged clients.
        if let Some(u) = host_uid {
            if changing_owner
                && !self.backend.supports_subordinate_uid_creation()
                && u != actor.creds.euid
                && !(actor.userns.is_initial() && actor.creds.euid.is_root())
            {
                return Err(Errno::EPERM);
            }
        }
        let tick = self.tick();
        // Ownership-only change: cached resolutions re-run access checks on
        // every hit, so no structural invalidation is needed.
        let inode = self.inode_mut_quiet(ino)?;
        if let Some(u) = host_uid {
            inode.uid = u;
        }
        if let Some(g) = host_gid {
            inode.gid = g;
        }
        // chown clears setuid/setgid on regular files (as the kernel does for
        // non-privileged callers; we apply it uniformly for safety).
        if inode.file_type() == FileType::Regular && !privileged {
            inode.mode = inode.mode.without_setid();
        }
        inode.mtime = tick;
        Ok(())
    }

    /// `chmod(2)`: resolves the path, then delegates to the inode-level
    /// [`Filesystem::chmod_ino`].
    pub fn chmod(&mut self, actor: &Actor, path: &str, mode: Mode) -> KResult<()> {
        self.check_writable()?;
        let ino = self.resolve(actor, path)?;
        self.chmod_ino(actor, ino, mode)
    }

    /// `mknod(2)`: creates a device node, FIFO, or socket. Device nodes
    /// require CAP_MKNOD effective over the parent directory's filesystem —
    /// never available in a fully unprivileged container, which is why Type
    /// III images cannot contain devices (paper §6.1).
    pub fn mknod(
        &mut self,
        actor: &Actor,
        path: &str,
        file_type: FileType,
        major: u32,
        minor: u32,
        mode: Mode,
    ) -> KResult<Ino> {
        self.check_writable()?;
        let (parent, name) = self.resolve_parent(actor, path)?;
        let parent_inode = self.inode(parent)?;
        actor.check_access(parent_inode, Access::WRITE)?;
        if parent_inode.entries().contains_key(&name) {
            return Err(Errno::EEXIST);
        }
        let data = match file_type {
            FileType::CharDevice => {
                if !actor.cap_over_inode(parent_inode, Capability::CapMknod)
                    || !actor.userns.is_initial()
                {
                    return Err(Errno::EPERM);
                }
                if !self.backend.supports_device_nodes() {
                    return Err(Errno::EPERM);
                }
                InodeData::CharDevice { major, minor }
            }
            FileType::BlockDevice => {
                if !actor.cap_over_inode(parent_inode, Capability::CapMknod)
                    || !actor.userns.is_initial()
                {
                    return Err(Errno::EPERM);
                }
                if !self.backend.supports_device_nodes() {
                    return Err(Errno::EPERM);
                }
                InodeData::BlockDevice { major, minor }
            }
            FileType::Fifo => InodeData::Fifo,
            FileType::Socket => InodeData::Socket,
            FileType::Regular => InodeData::file(Vec::new()),
            FileType::Directory | FileType::Symlink => return Err(Errno::EINVAL),
        };
        let ino = self.alloc(data, actor.creds.euid, actor.creds.egid, mode);
        self.link_entry(parent, name, ino)?;
        Ok(ino)
    }

    /// `stat(2)`: follows symlinks; IDs are reported both raw and as seen in
    /// the actor's namespace. Delegates to the inode-level
    /// [`Filesystem::stat_ino`].
    pub fn stat(&self, actor: &Actor, path: &str) -> KResult<Stat> {
        let ino = self.resolve(actor, path)?;
        self.stat_ino(actor, ino)
    }

    /// `lstat(2)`.
    pub fn lstat(&self, actor: &Actor, path: &str) -> KResult<Stat> {
        let ino = self.resolve_no_follow(actor, path)?;
        self.stat_ino(actor, ino)
    }

    /// `readdir(3)`: sorted entry names. Delegates to the inode-level
    /// [`Filesystem::readdir_ino`].
    pub fn readdir(&self, actor: &Actor, path: &str) -> KResult<Vec<String>> {
        let ino = self.resolve(actor, path)?;
        Ok(self
            .readdir_ino(actor, ino)?
            .into_iter()
            .map(|(name, _)| name)
            .collect())
    }

    // ------------------------------------------------------------- xattrs

    /// `setxattr(2)`. `user.*` attributes require the backend to support
    /// them; rootless Podman's ID mapping depends on this (paper §6.1).
    /// Delegates to the inode-level [`Filesystem::set_xattr_ino`].
    pub fn set_xattr(
        &mut self,
        actor: &Actor,
        path: &str,
        name: &str,
        value: &[u8],
    ) -> KResult<()> {
        // Writability and backend support are diagnosed before resolution,
        // as the seed did (EROFS/EOPNOTSUPP win over ENOENT).
        self.check_writable()?;
        if name.starts_with("user.") && !self.backend.supports_user_xattrs() {
            return Err(Errno::EOPNOTSUPP);
        }
        let ino = self.resolve(actor, path)?;
        self.set_xattr_ino(actor, ino, name, value)
    }

    /// `getxattr(2)`. Delegates to the inode-level
    /// [`Filesystem::get_xattr_ino`].
    // hpcc-lint: allow(test_only_api) — §4.1.1: fuse-overlayfs records ownership in `user.containers.override_stat`; runtime's Type II storage and container tests read it back
    pub fn get_xattr(&self, actor: &Actor, path: &str, name: &str) -> KResult<Vec<u8>> {
        if name.starts_with("user.") && !self.backend.supports_user_xattrs() {
            return Err(Errno::EOPNOTSUPP);
        }
        let ino = self.resolve(actor, path)?;
        self.get_xattr_ino(actor, ino, name)
    }

    // ------------------------------------------------------------ traversal

    /// Walks the whole tree, returning `(absolute_path, ino)` pairs sorted by
    /// path, excluding the root itself.
    pub fn walk(&self) -> Vec<(String, Ino)> {
        let mut out = Vec::new();
        self.walk_from(self.root, "", &mut out);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn walk_from(&self, dir: Ino, prefix: &str, out: &mut Vec<(String, Ino)>) {
        let inode = match self.inodes.get(dir) {
            Some(i) => i,
            None => return,
        };
        if let InodeData::Directory { entries } = &inode.data {
            for (name, &child) in entries {
                let path = format!("{}/{}", prefix, name);
                out.push((path.clone(), child));
                if self.inodes.get(child).map(|c| c.is_dir()).unwrap_or(false) {
                    self.walk_from(child, &path, out);
                }
            }
        }
    }

    /// Copies the subtree rooted at `src_path` in `src` into `dst_path` in
    /// this filesystem, preserving ownership, modes, and xattrs. Performed
    /// without permission checks (used by runtimes and storage drivers acting
    /// as the storage owner). Returns the number of inodes copied.
    ///
    /// The recursion carries destination *parent inodes* instead of path
    /// strings, so each copied inode costs O(1) installs — not a fresh
    /// root-to-leaf walk over a freshly formatted path.
    pub fn copy_tree_from(
        &mut self,
        src: &Filesystem,
        src_path: &str,
        dst_path: &str,
    ) -> KResult<usize> {
        let root_creds = hpcc_kernel::Credentials::host_root();
        let host_ns = hpcc_kernel::UserNamespace::initial();
        let actor = Actor::new(&root_creds, &host_ns);
        let src_ino = src.resolve(&actor, src_path)?;
        let src_inode = src.inode(src_ino)?;
        let (uid, gid) = (src_inode.uid, src_inode.gid);
        let parent_mode = if src_inode.is_dir() {
            src_inode.mode
        } else {
            Mode::new(0o755)
        };
        let comps = PathComponents::parse(dst_path);
        let comps = comps.as_slice();
        let mut count = 0;
        match comps.split_last() {
            None => {
                // Copying *into* the destination root merges the source
                // directory's children under `/`.
                let inode = src.inode(src_ino)?.clone();
                let InodeData::Directory { entries } = &inode.data else {
                    return Err(Errno::EINVAL);
                };
                count += 1;
                let root = self.root;
                self.inode_mut_quiet(root)?.xattrs = inode.xattrs.clone();
                for (name, &child) in entries {
                    self.copy_inode_recursive(src, child, root, name, &mut count)?;
                }
            }
            Some((&name, dir_comps)) => {
                let parent = self.install_dir_comps(dir_comps, uid, gid, parent_mode)?;
                self.copy_inode_recursive(src, src_ino, parent, name, &mut count)?;
            }
        }
        Ok(count)
    }

    fn copy_inode_recursive(
        &mut self,
        src: &Filesystem,
        src_ino: Ino,
        dst_parent: Ino,
        name: &str,
        count: &mut usize,
    ) -> KResult<()> {
        let inode = src.inode(src_ino)?.clone();
        *count += 1;
        match &inode.data {
            InodeData::Directory { entries } => {
                let parent_inode = self.inode(dst_parent)?;
                if !parent_inode.is_dir() {
                    return Err(Errno::ENOTDIR);
                }
                // An existing directory is reused as-is (ownership kept);
                // only its xattrs are refreshed from the source.
                let ino = match parent_inode.entries().get(name).copied() {
                    Some(i) => i,
                    None => {
                        let ino =
                            self.alloc(InodeData::empty_dir(), inode.uid, inode.gid, inode.mode);
                        self.link_entry(dst_parent, name.to_string(), ino)?;
                        ino
                    }
                };
                self.inode_mut_quiet(ino)?.xattrs = inode.xattrs.clone();
                for (child_name, &child) in entries {
                    self.copy_inode_recursive(src, child, ino, child_name, count)?;
                }
            }
            InodeData::Regular { content } => {
                // Shares the bytes with the source tree (copy-on-write).
                let ino = self.install_node(
                    dst_parent,
                    name,
                    InodeData::Regular {
                        content: content.clone(),
                    },
                    inode.uid,
                    inode.gid,
                    inode.mode,
                )?;
                self.inode_mut_quiet(ino)?.xattrs = inode.xattrs.clone();
            }
            InodeData::Symlink { target } => {
                self.install_node(
                    dst_parent,
                    name,
                    InodeData::Symlink {
                        target: target.clone(),
                    },
                    inode.uid,
                    inode.gid,
                    Mode::new(0o777),
                )?;
            }
            InodeData::CharDevice { major, minor } => {
                // Device nodes may be unsupported on the destination backend;
                // propagate the error so callers can decide.
                if !self.backend.supports_device_nodes() {
                    return Err(Errno::EPERM);
                }
                self.install_node(
                    dst_parent,
                    name,
                    InodeData::CharDevice {
                        major: *major,
                        minor: *minor,
                    },
                    inode.uid,
                    inode.gid,
                    inode.mode,
                )?;
            }
            InodeData::BlockDevice { .. } | InodeData::Fifo | InodeData::Socket => {
                // Rare in images; recreate as empty regular files to keep the
                // tree shape (documented simplification).
                self.install_node(
                    dst_parent,
                    name,
                    InodeData::file(Vec::new()),
                    inode.uid,
                    inode.gid,
                    inode.mode,
                )?;
            }
        }
        Ok(())
    }

    /// Flattens ownership of every inode to `new_uid:new_gid` and clears
    /// setuid/setgid bits — what Charliecloud does on push "to avoid leaking
    /// site IDs" (paper §6.1).
    pub fn flatten_ownership(&mut self, new_uid: Uid, new_gid: Gid) {
        self.inodes.for_each_mut(|inode| {
            inode.uid = new_uid;
            inode.gid = new_gid;
            inode.mode = inode.mode.without_setid();
        });
    }

    /// Applies `f` to every inode except the root directory's, in one pass
    /// over the inode table (order unspecified; a hard-linked inode is
    /// visited once). For whole-tree metadata rewrites, such as the
    /// ownership rule a container runtime applies to an image tree, that
    /// need no path: unlike [`Filesystem::walk`], it formats none.
    pub fn for_each_entry_mut(&mut self, mut f: impl FnMut(&mut Inode)) {
        let root = self.root;
        self.inodes.for_each_mut(|inode| {
            if inode.ino != root {
                f(inode);
            }
        });
    }

    /// Returns the distinct host UIDs owning files in this filesystem.
    pub fn distinct_owner_uids(&self) -> Vec<Uid> {
        let mut v: Vec<Uid> = Vec::new();
        self.inodes.for_each(|_, i| v.push(i.uid));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Formats an `ls -lh`-style line for a path, using a resolver that maps
    /// a numeric ID (as viewed in the actor's namespace) to a name.
    pub fn ls_line(
        &self,
        actor: &Actor,
        path: &str,
        user_name: impl Fn(Uid) -> String,
        group_name: impl Fn(Gid) -> String,
    ) -> KResult<String> {
        Ok(self
            .lstat(actor, path)?
            .ls_line(path, user_name, group_name))
    }
}

#[cfg(test)]
impl Filesystem {
    /// `link(2)`: hard link.
    fn link(&mut self, actor: &Actor, existing: &str, new: &str) -> KResult<()> {
        self.check_writable()?;
        let src = self.resolve(actor, existing)?;
        if self.inode(src)?.is_dir() {
            return Err(Errno::EPERM);
        }
        let (parent, name) = self.resolve_parent(actor, new)?;
        let parent_inode = self.inode(parent)?;
        actor.check_access(parent_inode, Access::WRITE)?;
        if parent_inode.entries().contains_key(&name) {
            return Err(Errno::EEXIST);
        }
        self.link_entry(parent, name, src)?;
        self.inode_mut_quiet(src)?.nlink += 1;
        Ok(())
    }
}

impl Default for Filesystem {
    fn default() -> Self {
        Filesystem::new_local()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Credentials, UserNamespace};

    fn root_actor() -> (Credentials, UserNamespace) {
        (Credentials::host_root(), UserNamespace::initial())
    }

    fn alice() -> (Credentials, UserNamespace) {
        (
            Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]),
            UserNamespace::initial(),
        )
    }

    #[test]
    fn mkdir_and_write_read_roundtrip() {
        let mut fs = Filesystem::new_local();
        let (creds, ns) = root_actor();
        let actor = Actor::new(&creds, &ns);
        fs.mkdir(&actor, "/etc", Mode::DIR_755).unwrap();
        fs.write_file(&actor, "/etc/hostname", b"astra".to_vec(), Mode::FILE_644)
            .unwrap();
        assert_eq!(fs.read_to_string(&actor, "/etc/hostname").unwrap(), "astra");
        assert_eq!(fs.readdir(&actor, "/etc").unwrap(), vec!["hostname"]);
    }

    #[test]
    fn nested_install_creates_parents() {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/usr/share/doc/README",
            b"hi".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        let (creds, ns) = root_actor();
        let actor = Actor::new(&creds, &ns);
        assert!(fs.is_dir(&actor, "/usr/share/doc"));
        assert_eq!(
            fs.read_file(&actor, "/usr/share/doc/README").unwrap(),
            b"hi"
        );
    }

    #[test]
    fn unprivileged_cannot_write_root_owned_dirs() {
        let mut fs = Filesystem::new_local();
        fs.install_dir("/etc", Uid(0), Gid(0), Mode::DIR_755)
            .unwrap();
        let (creds, ns) = alice();
        let actor = Actor::new(&creds, &ns);
        assert_eq!(
            fs.write_file(&actor, "/etc/shadow", b"x".to_vec(), Mode::FILE_644)
                .unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn chown_requires_privilege_and_mapped_target() {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/data/file",
            b"x".to_vec(),
            Uid(1000),
            Gid(1000),
            Mode::FILE_644,
        )
        .unwrap();
        // Unprivileged host user cannot chown to another user.
        let (creds, ns) = alice();
        let actor = Actor::new(&creds, &ns);
        assert_eq!(
            fs.chown(&actor, "/data/file", Some(Uid(0)), None)
                .unwrap_err(),
            Errno::EPERM
        );
        // Container root in a Type III namespace: target UID 74 unmapped -> EINVAL.
        let c_creds = creds.entered_own_namespace();
        let t3 = UserNamespace::type3(Uid(1000), Gid(1000));
        let actor3 = Actor::new(&c_creds, &t3);
        assert_eq!(
            fs.chown(&actor3, "/data/file", Some(Uid(74)), None)
                .unwrap_err(),
            Errno::EINVAL
        );
        // Type II namespace: UID 74 maps to 200073 -> succeeds.
        let t2 = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        let actor2 = Actor::new(&c_creds, &t2);
        fs.chown(&actor2, "/data/file", Some(Uid(74)), Some(Gid(74)))
            .unwrap();
        let st = fs.stat(&actor2, "/data/file").unwrap();
        assert_eq!(st.uid_host, Uid(200_073));
        assert_eq!(st.uid_view, Uid(74));
    }

    #[test]
    fn chown_group_by_owner_to_member_group() {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/home/alice/f",
            b"x".to_vec(),
            Uid(1000),
            Gid(1000),
            Mode::FILE_644,
        )
        .unwrap();
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000), Gid(50)]);
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        // To a group alice belongs to: OK.
        fs.chown(&actor, "/home/alice/f", None, Some(Gid(50)))
            .unwrap();
        // To a group she does not belong to: EPERM.
        assert_eq!(
            fs.chown(&actor, "/home/alice/f", None, Some(Gid(999)))
                .unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn chown_on_shared_fs_to_subordinate_uid_fails() {
        // Paper §4.2: Podman's mappers cannot work when storage is NFS.
        let mut fs = Filesystem::new(FsBackend::default_nfs());
        fs.install_file(
            "/storage/file",
            b"x".to_vec(),
            Uid(1000),
            Gid(1000),
            Mode::FILE_644,
        )
        .unwrap();
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let c_creds = creds.entered_own_namespace();
        let t2 = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        let actor = Actor::new(&c_creds, &t2);
        assert_eq!(
            fs.chown(&actor, "/storage/file", Some(Uid(74)), None)
                .unwrap_err(),
            Errno::EPERM
        );
        // On local disk the same operation succeeds.
        let mut local = Filesystem::new_local();
        local
            .install_file(
                "/storage/file",
                b"x".to_vec(),
                Uid(1000),
                Gid(1000),
                Mode::FILE_644,
            )
            .unwrap();
        local
            .chown(&actor, "/storage/file", Some(Uid(74)), None)
            .unwrap();
    }

    #[test]
    fn mknod_device_requires_host_privilege() {
        let mut fs = Filesystem::new_local();
        fs.install_dir("/dev", Uid(0), Gid(0), Mode::new(0o777))
            .unwrap();
        // Container root (Type III): EPERM.
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let c = creds.entered_own_namespace();
        let t3 = UserNamespace::type3(Uid(1000), Gid(1000));
        let actor = Actor::new(&c, &t3);
        assert_eq!(
            fs.mknod(
                &actor,
                "/dev/null2",
                FileType::CharDevice,
                1,
                3,
                Mode::new(0o666)
            )
            .unwrap_err(),
            Errno::EPERM
        );
        // Host root: OK.
        let (r, ns) = root_actor();
        let ra = Actor::new(&r, &ns);
        fs.mknod(
            &ra,
            "/dev/null2",
            FileType::CharDevice,
            1,
            3,
            Mode::new(0o666),
        )
        .unwrap();
        assert_eq!(fs.stat(&ra, "/dev/null2").unwrap().rdev, Some((1, 3)));
        // FIFOs do not need privilege.
        fs.mknod(
            &actor,
            "/dev/myfifo",
            FileType::Fifo,
            0,
            0,
            Mode::new(0o644),
        )
        .unwrap();
    }

    #[test]
    fn symlink_resolution_and_loops() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_file(
            "/etc/real.conf",
            b"cfg".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        fs.symlink(&actor, "/etc/real.conf", "/etc/link.conf")
            .unwrap();
        assert_eq!(fs.read_file(&actor, "/etc/link.conf").unwrap(), b"cfg");
        // Relative symlink.
        fs.symlink(&actor, "real.conf", "/etc/rel.conf").unwrap();
        assert_eq!(fs.read_file(&actor, "/etc/rel.conf").unwrap(), b"cfg");
        // Loop.
        fs.symlink(&actor, "/a", "/b").unwrap();
        fs.symlink(&actor, "/b", "/a").unwrap();
        assert_eq!(fs.resolve(&actor, "/a").unwrap_err(), Errno::ELOOP);
        // lstat does not follow.
        assert_eq!(
            fs.lstat(&actor, "/etc/link.conf").unwrap().file_type,
            FileType::Symlink
        );
    }

    #[test]
    fn unlink_rmdir_and_remove_tree() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_file(
            "/var/log/apt/term.log",
            b"".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        assert_eq!(fs.rmdir(&actor, "/var/log").unwrap_err(), Errno::ENOTEMPTY);
        fs.unlink(&actor, "/var/log/apt/term.log").unwrap();
        fs.rmdir(&actor, "/var/log/apt").unwrap();
        assert!(!fs.exists(&actor, "/var/log/apt"));
        fs.install_file("/tmp/a/b/c", b"x".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        fs.remove_tree(&actor, "/tmp/a").unwrap();
        assert!(!fs.exists(&actor, "/tmp/a"));
    }

    #[test]
    fn hard_links_share_inode() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.write_file(&actor, "/f1", b"data".to_vec(), Mode::FILE_644)
            .unwrap();
        fs.link(&actor, "/f1", "/f2").unwrap();
        assert_eq!(
            fs.stat(&actor, "/f1").unwrap().ino,
            fs.stat(&actor, "/f2").unwrap().ino
        );
        assert_eq!(fs.stat(&actor, "/f2").unwrap().nlink, 2);
        fs.unlink(&actor, "/f1").unwrap();
        assert_eq!(fs.read_file(&actor, "/f2").unwrap(), b"data");
    }

    #[test]
    fn xattrs_depend_on_backend() {
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        let mut local = Filesystem::new_local();
        local
            .install_file("/f", b"".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        local
            .set_xattr(&actor, "/f", "user.containers.override_stat", b"0:0:0755")
            .unwrap();
        assert_eq!(
            local
                .get_xattr(&actor, "/f", "user.containers.override_stat")
                .unwrap(),
            b"0:0:0755"
        );
        let mut nfs = Filesystem::new(FsBackend::default_nfs());
        nfs.install_file("/f", b"".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        assert_eq!(
            nfs.set_xattr(&actor, "/f", "user.containers.override_stat", b"x")
                .unwrap_err(),
            Errno::EOPNOTSUPP
        );
    }

    #[test]
    fn walk_and_copy_tree() {
        let mut src = Filesystem::new_local();
        src.install_file(
            "/opt/app/bin/run",
            b"#!/bin/sh".to_vec(),
            Uid(0),
            Gid(0),
            Mode::EXEC_755,
        )
        .unwrap();
        src.install_symlink("/opt/app/current", "bin/run", Uid(0), Gid(0))
            .unwrap();
        let mut dst = Filesystem::new_local();
        let copied = dst.copy_tree_from(&src, "/opt", "/srv/opt").unwrap();
        assert!(copied >= 4);
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        assert_eq!(
            dst.read_file(&actor, "/srv/opt/app/bin/run").unwrap(),
            b"#!/bin/sh"
        );
        let paths: Vec<String> = dst.walk().into_iter().map(|(p, _)| p).collect();
        assert!(paths.contains(&"/srv/opt/app/bin/run".to_string()));
    }

    #[test]
    fn copy_tree_symlink_over_hard_linked_file_keeps_other_links_intact() {
        // dst has /bin/bash hard-linked to /bin/sh; src replaces /bin/sh
        // with a symlink. The copy must repoint the /bin/sh entry to a fresh
        // inode — never rewrite the shared inode, which would convert
        // /bin/bash into a symlink through its sibling name.
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        let mut dst = Filesystem::new_local();
        dst.install_file("/bin/bash", b"elf".to_vec(), Uid(0), Gid(0), Mode::EXEC_755)
            .unwrap();
        dst.link(&actor, "/bin/bash", "/bin/sh").unwrap();
        let mut src = Filesystem::new_local();
        src.install_dir("/bin", Uid(0), Gid(0), Mode::DIR_755)
            .unwrap();
        src.install_symlink("/bin/sh", "dash", Uid(0), Gid(0))
            .unwrap();
        dst.copy_tree_from(&src, "/bin", "/bin").unwrap();
        assert_eq!(
            dst.lstat(&actor, "/bin/sh").unwrap().file_type,
            FileType::Symlink
        );
        assert_eq!(
            dst.lstat(&actor, "/bin/bash").unwrap().file_type,
            FileType::Regular
        );
        assert_eq!(dst.read_file(&actor, "/bin/bash").unwrap(), b"elf");
    }

    #[test]
    fn flatten_ownership_clears_setid_and_owners() {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/usr/bin/sudo",
            b"elf".to_vec(),
            Uid(0),
            Gid(0),
            Mode::new(0o4755),
        )
        .unwrap();
        fs.install_file(
            "/var/empty/sshd",
            b"".to_vec(),
            Uid(74),
            Gid(74),
            Mode::FILE_644,
        )
        .unwrap();
        assert!(fs.distinct_owner_uids().len() > 1);
        fs.flatten_ownership(Uid(0), Gid(0));
        assert_eq!(fs.distinct_owner_uids(), vec![Uid(0)]);
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        assert!(!fs.stat(&actor, "/usr/bin/sudo").unwrap().mode.is_setuid());
    }

    #[test]
    fn readonly_fs_rejects_mutation() {
        let mut fs = Filesystem::new_local();
        fs.install_file("/f", b"x".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        fs.readonly = true;
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        assert_eq!(
            fs.write_file(&actor, "/g", b"y".to_vec(), Mode::FILE_644)
                .unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(fs.unlink(&actor, "/f").unwrap_err(), Errno::EROFS);
        assert_eq!(fs.read_file(&actor, "/f").unwrap(), b"x");
    }

    #[test]
    fn ls_line_matches_figure7_shape() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_char_device("/work/test.dev", 1, 1, Uid(0), Gid(0), Mode::new(0o640))
            .unwrap();
        let line = fs
            .ls_line(
                &actor,
                "/work/test.dev",
                |u| {
                    if u.is_root() {
                        "root".into()
                    } else {
                        u.to_string()
                    }
                },
                |g| {
                    if g.is_root() {
                        "root".into()
                    } else {
                        g.to_string()
                    }
                },
            )
            .unwrap();
        assert_eq!(line, "crw-r----- 1 root root 1, 1 test.dev");
    }

    #[test]
    fn rename_moves_entries() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.write_file(&actor, "/a.txt", b"1".to_vec(), Mode::FILE_644)
            .unwrap();
        fs.mkdir(&actor, "/dir", Mode::DIR_755).unwrap();
        fs.rename(&actor, "/a.txt", "/dir/b.txt").unwrap();
        assert!(!fs.exists(&actor, "/a.txt"));
        assert_eq!(fs.read_file(&actor, "/dir/b.txt").unwrap(), b"1");
    }

    #[test]
    fn components_normalization() {
        assert_eq!(
            Filesystem::components("/a//b/./c/../d"),
            vec!["a", "b", "d"]
        );
        assert!(Filesystem::components("/").is_empty());
    }

    #[test]
    fn cloned_filesystem_shares_file_bytes_until_written() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_file(
            "/etc/conf",
            b"original".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        let snapshot = fs.clone();
        // The clone shares the stored bytes (no copy happened).
        let a = fs.file_bytes(&actor, "/etc/conf").unwrap();
        let b = snapshot.file_bytes(&actor, "/etc/conf").unwrap();
        assert!(a.shares_buffer_with(&b));
    }

    #[test]
    fn mutation_in_clone_does_not_leak_into_snapshot() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_file(
            "/etc/conf",
            b"original".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        fs.install_file("/data/big", vec![7u8; 4096], Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        let snapshot = fs.clone();
        // Overwrite, append, create, delete, chmod in the live tree.
        fs.write_file(&actor, "/etc/conf", b"changed".to_vec(), Mode::FILE_644)
            .unwrap();
        fs.append_file(&actor, "/data/big", b"tail", Mode::FILE_644)
            .unwrap();
        fs.write_file(&actor, "/etc/new", b"n".to_vec(), Mode::FILE_644)
            .unwrap();
        fs.unlink(&actor, "/data/big").unwrap();
        fs.chmod(&actor, "/etc/conf", Mode::new(0o600)).unwrap();
        // The snapshot still sees the world as it was at clone time.
        assert_eq!(
            snapshot.read_file(&actor, "/etc/conf").unwrap(),
            b"original"
        );
        assert_eq!(
            snapshot.stat(&actor, "/etc/conf").unwrap().mode,
            Mode::FILE_644
        );
        assert_eq!(snapshot.read_file(&actor, "/data/big").unwrap().len(), 4096);
        assert!(!snapshot.exists(&actor, "/etc/new"));
        // Untouched files still share bytes; written files have diverged.
        let live = fs.file_bytes(&actor, "/etc/conf").unwrap();
        let snap = snapshot.file_bytes(&actor, "/etc/conf").unwrap();
        assert!(!live.shares_buffer_with(&snap));
    }

    #[test]
    fn mutation_in_snapshot_does_not_leak_into_original() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_file("/f", b"one".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        let mut snapshot = fs.clone();
        snapshot
            .write_file(&actor, "/f", b"two".to_vec(), Mode::FILE_644)
            .unwrap();
        snapshot.remove_tree(&actor, "/f").unwrap();
        assert_eq!(fs.read_file(&actor, "/f").unwrap(), b"one");
    }

    #[test]
    fn resolve_cache_survives_poisoning() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_file("/etc/conf", b"x".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        // Warm the cache, then poison the mutex the way a panicking reader
        // would: panic while holding the guard.
        let ino = fs.resolve(&actor, "/etc/conf").unwrap();
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = fs.resolve_cache.lock().unwrap();
            panic!("reader dies while holding the resolve-cache lock");
        }));
        assert!(poison.is_err());
        assert!(fs.resolve_cache.is_poisoned());
        // Resolution still works — both the cached hit and a fresh store.
        assert_eq!(fs.resolve(&actor, "/etc/conf").unwrap(), ino);
        assert_eq!(
            fs.resolve(&actor, "/etc").unwrap(),
            fs.resolve(&actor, "/etc").unwrap()
        );
        // And the recovery cleared the poison flag rather than paying the
        // recovery branch on every later lock.
        assert!(!fs.resolve_cache.is_poisoned());
    }

    #[test]
    fn resolve_uncached_matches_cached_resolution() {
        let mut fs = Filesystem::new_local();
        let (r, ns) = root_actor();
        let actor = Actor::new(&r, &ns);
        fs.install_file(
            "/usr/bin/tool",
            b"elf".to_vec(),
            Uid(0),
            Gid(0),
            Mode::EXEC_755,
        )
        .unwrap();
        fs.symlink(&actor, "/usr/bin/tool", "/usr/bin/alias")
            .unwrap();
        fs.symlink(&actor, "bin", "/usr/sbin").unwrap();
        for path in [
            "/",
            "/usr",
            "/usr/bin/tool",
            "/usr/bin/alias",
            "/usr/sbin/tool",
            "/missing",
        ] {
            assert_eq!(
                fs.resolve_uncached(&actor, path),
                fs.resolve(&actor, path),
                "follow diverged on {path}"
            );
            assert_eq!(
                fs.resolve_uncached_no_follow(&actor, path),
                fs.resolve_no_follow(&actor, path),
                "no-follow diverged on {path}"
            );
        }
        // The uncached walk leaves no trace in the cache.
        let fresh = fs.clone();
        fresh.resolve_uncached(&actor, "/usr/bin/tool").unwrap();
        assert_eq!(lock_recover(&fresh.resolve_cache).len(), 0);
    }
}
