//! Concurrent multi-reader serving: one shared immutable image, many cheap
//! per-client reader sessions, no global lock on the read path.
//!
//! A [`Session`](crate::Session) is single-owner: every op takes `&mut self`
//! and its handle table is a plain `HashMap`, so N clients serving one image
//! either serialize behind one session or pay a full CoW snapshot each
//! (`Container::mount_readonly` used to do the latter). This module is the
//! paper's end state instead — an unprivileged image on shared storage read
//! by many jobs at once:
//!
//! * [`SharedImage`] holds **one** `Arc`-shared frozen filesystem (the
//!   structural-sharing inode table and every file's copy-on-write
//!   [`FileBytes`](hpcc_vfs::FileBytes) buffer exist once, however many
//!   clients mount it) plus a pre-warmed lock-free
//!   [`FrozenResolver`] index over every path.
//! * [`SharedImage::reader`] hands out a [`ReaderSession`] per client:
//!   an `Arc` bump, the client's credentials derived once, and an empty
//!   handle table. Every op takes `&self`, so one `ReaderSession` may even
//!   be driven from several threads.
//!
//! The hot read path acquires no global `Mutex` anywhere: path resolution
//! probes the frozen index (immutable `HashMap`, re-running per-client
//! EXECUTE checks on each hit), inode and byte access are lock-free reads of
//! the persistent trie, and the handle table is sharded `RwLock`s keyed by
//! handle id with a wrapping-safe atomic allocator — concurrent opens and
//! reads touch different shards and proceed in parallel. Mutating ops
//! return `EROFS` unconditionally.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use hpcc_kernel::sync::{read_recover, write_recover};
use hpcc_kernel::{Credentials, UserNamespace};
use hpcc_vfs::{Actor, Filesystem, FrozenResolver, Ino, Mode, OverlayFs, Setattr};

use crate::errno::{Errno, OpResult};
use crate::memfs::{derive_credentials, wire};
use crate::op::{Attr, DirEntry, Entry, FsCreds, OpenFlags, Opened, ReadReply, StatfsReply};

/// Handle-table shard count. Handle ids are allocated sequentially, so
/// consecutive opens land on different shards and concurrent clients rarely
/// contend even on the same `ReaderSession`.
const HANDLE_SHARDS: usize = 8;

/// One immutable image served to any number of concurrent readers.
///
/// Construction freezes the filesystem (marks it read-only and pre-warms the
/// lock-free path index); cloning is an `Arc` bump. See the module docs for
/// the concurrency story.
#[derive(Debug, Clone)]
pub struct SharedImage {
    inner: Arc<ImageInner>,
}

#[derive(Debug)]
struct ImageInner {
    fs: Filesystem,
    userns: UserNamespace,
    resolver: FrozenResolver,
}

impl SharedImage {
    /// Freezes `fs` for concurrent serving in `userns`: marks it read-only,
    /// warms the frozen resolver over every path, and wraps the lot in one
    /// `Arc`. O(tree size) once; every reader afterwards is O(1).
    pub fn new(mut fs: Filesystem, userns: UserNamespace) -> Self {
        fs.readonly = true;
        let resolver = FrozenResolver::warm(&fs);
        SharedImage {
            inner: Arc::new(ImageInner {
                fs,
                userns,
                resolver,
            }),
        }
    }

    /// Freezes an overlay's merged view: the squash is a CoW materialization
    /// (tree metadata only — file bytes stay shared with the layers), taken
    /// **once** for all future readers rather than per client.
    pub fn from_overlay(overlay: &OverlayFs, userns: UserNamespace) -> Self {
        SharedImage::new(overlay.squash(), userns)
    }

    /// The served filesystem.
    pub fn filesystem(&self) -> &Filesystem {
        &self.inner.fs
    }

    /// The mount's user namespace.
    pub fn userns(&self) -> &UserNamespace {
        &self.inner.userns
    }

    /// The root inode.
    pub fn root_ino(&self) -> Ino {
        self.inner.fs.root_ino()
    }

    /// Number of paths in the frozen resolve index.
    pub fn indexed_paths(&self) -> usize {
        self.inner.resolver.len()
    }

    /// True if both handles serve the *same* image (one `Arc`, not a copy).
    pub fn ptr_eq(&self, other: &SharedImage) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Opens a per-client reader session: an `Arc` bump plus a one-time
    /// credential derivation — no filesystem copy of any kind. The session's
    /// every op re-checks permissions as `cred`.
    pub fn reader(&self, cred: FsCreds) -> ReaderSession {
        let creds = derive_credentials(&self.inner.userns, &cred);
        ReaderSession {
            image: self.clone(),
            cred,
            creds,
            handles: HandleTable::new(),
            ops_dispatched: AtomicU64::new(0),
        }
    }
}

/// State of one open read handle.
#[derive(Debug)]
enum ReadHandle {
    /// A regular-file handle (always `O_RDONLY` here). The sequential-read
    /// position is atomic so `read` can advance it under the shard's *read*
    /// lock.
    File {
        /// The file's inode.
        ino: Ino,
        /// Sequential-read position.
        offset: AtomicU64,
    },
    /// A directory handle with its entry snapshot (the readdir cursor).
    Dir {
        /// Entries snapshotted at `opendir`.
        entries: Vec<DirEntry>,
    },
}

/// The sharded concurrent handle table: `HANDLE_SHARDS` independent
/// `RwLock<HashMap>`s keyed by `fh % HANDLE_SHARDS`, with a wrapping-safe
/// atomic id allocator that skips 0 and any id still open.
#[derive(Debug)]
struct HandleTable {
    shards: [RwLock<HashMap<u64, ReadHandle>>; HANDLE_SHARDS],
    next_fh: AtomicU64,
}

impl HandleTable {
    fn new() -> Self {
        HandleTable {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            next_fh: AtomicU64::new(1),
        }
    }

    fn shard(&self, fh: u64) -> &RwLock<HashMap<u64, ReadHandle>> {
        // hpcc-lint: allow(panic) — index is `fh % HANDLE_SHARDS`, always in bounds
        &self.shards[(fh % HANDLE_SHARDS as u64) as usize]
    }

    fn read_shard(&self, fh: u64) -> RwLockReadGuard<'_, HashMap<u64, ReadHandle>> {
        read_recover(self.shard(fh))
    }

    fn write_shard(&self, fh: u64) -> RwLockWriteGuard<'_, HashMap<u64, ReadHandle>> {
        write_recover(self.shard(fh))
    }

    /// Allocates an id and inserts the handle. Wraparound-safe and
    /// reuse-free: 0 is never handed out, and an id still held by an open
    /// handle is skipped rather than aliased.
    fn insert(&self, handle: ReadHandle) -> u64 {
        let mut handle = Some(handle);
        loop {
            let fh = self.next_fh.fetch_add(1, Ordering::Relaxed);
            if fh == 0 {
                continue;
            }
            let mut shard = self.write_shard(fh);
            if let std::collections::hash_map::Entry::Vacant(slot) = shard.entry(fh) {
                if let Some(h) = handle.take() {
                    slot.insert(h);
                    return fh;
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| read_recover(s).len()).sum()
    }

    fn clear(&self) {
        for shard in &self.shards {
            write_recover(shard).clear();
        }
    }
}

/// One client's view of a [`SharedImage`]: fixed credentials, a private
/// sharded handle table, and read-only ops that all take `&self` — the
/// session is `Sync` and may itself be shared across threads.
///
/// The op set mirrors [`Session`](crate::Session) minus credentials
/// parameters (a reader authenticates once, like a mount) and minus
/// mutation: every write-side op returns `EROFS`.
#[derive(Debug)]
pub struct ReaderSession {
    image: SharedImage,
    cred: FsCreds,
    /// Kernel credentials derived from `cred` once at session creation —
    /// per-op derivation would clone the groups vector on the hot path.
    creds: Credentials,
    handles: HandleTable,
    ops_dispatched: AtomicU64,
}

impl ReaderSession {
    /// The image this session reads.
    pub fn image(&self) -> &SharedImage {
        &self.image
    }

    /// The wire credentials this session authenticated with.
    pub fn cred(&self) -> &FsCreds {
        &self.cred
    }

    /// The root inode.
    pub fn root_ino(&self) -> Ino {
        self.image.root_ino()
    }

    /// Number of currently open handles (files + directories).
    pub fn open_handles(&self) -> usize {
        self.handles.len()
    }

    /// Total operations dispatched through this session.
    pub fn ops_dispatched(&self) -> u64 {
        self.ops_dispatched.load(Ordering::Relaxed)
    }

    fn count(&self) {
        self.ops_dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every open handle, as a FUSE daemon does when its client
    /// disconnects without releasing. Used by
    /// [`Dispatch::disconnect`](crate::Dispatch::disconnect).
    pub fn release_all(&self) {
        self.handles.clear();
    }

    fn actor(&self) -> Actor<'_> {
        Actor::new(&self.creds, self.image.userns())
    }

    fn fs(&self) -> &Filesystem {
        self.image.filesystem()
    }

    // ------------------------------------------------------------ resolution

    /// Resolves an absolute path via the frozen index (O(1) for every
    /// symlink-free path in the image, no lock), falling back to an uncached
    /// walk for symlinks and unindexed paths. `follow_final` selects
    /// stat/lstat semantics.
    pub fn resolve_path(&self, path: &str, follow_final: bool) -> OpResult<Entry> {
        self.count();
        let actor = self.actor();
        let resolver = &self.image.inner.resolver;
        let ino = if follow_final {
            resolver.resolve(self.fs(), &actor, path)
        } else {
            resolver.resolve_no_follow(self.fs(), &actor, path)
        }
        .map_err(wire)?;
        Ok(Entry {
            ino,
            attr: Attr::from(self.fs().stat_ino(&actor, ino).map_err(wire)?),
        })
    }

    // ------------------------------------------------------------- typed ops

    /// `lookup`: one component under a parent directory.
    pub fn lookup(&self, parent: Ino, name: &str) -> OpResult<Entry> {
        self.count();
        let actor = self.actor();
        let ino = self.fs().lookup_at(&actor, parent, name).map_err(wire)?;
        Ok(Entry {
            ino,
            attr: Attr::from(self.fs().stat_ino(&actor, ino).map_err(wire)?),
        })
    }

    /// `getattr`.
    pub fn getattr(&self, ino: Ino) -> OpResult<Attr> {
        self.count();
        let actor = self.actor();
        Ok(Attr::from(self.fs().stat_ino(&actor, ino).map_err(wire)?))
    }

    /// `readlink`.
    pub fn readlink(&self, ino: Ino) -> OpResult<String> {
        self.count();
        let actor = self.actor();
        self.fs().readlink_ino(&actor, ino).map_err(wire)
    }

    /// `open`: read-only opens check access once (per POSIX) and allocate a
    /// handle; any writable or truncating flag is `EROFS`.
    pub fn open(&self, ino: Ino, flags: OpenFlags) -> OpResult<Opened> {
        self.count();
        if flags.writable() || flags.truncates() {
            return Err(Errno::EROFS);
        }
        let actor = self.actor();
        let inode = self.fs().inode(ino).map_err(wire)?;
        if inode.is_dir() {
            return Err(Errno::EISDIR);
        }
        if !inode.is_file() {
            return Err(Errno::EINVAL);
        }
        self.fs()
            .check_access_ino(&actor, ino, hpcc_vfs::Access::READ)
            .map_err(wire)?;
        let fh = self.handles.insert(ReadHandle::File {
            ino,
            offset: AtomicU64::new(0),
        });
        Ok(Opened { fh, flags })
    }

    /// `read` at an explicit offset. Zero-copy — the reply windows the
    /// file's shared bytes — and lock-free on the image side; only the
    /// handle's shard is read-locked. Advances the sequential position.
    pub fn read(&self, fh: u64, offset: u64, size: u32) -> OpResult<ReadReply> {
        self.count();
        let shard = self.handles.read_shard(fh);
        let (ino, pos) = match shard.get(&fh) {
            Some(ReadHandle::File { ino, offset }) => (*ino, offset),
            Some(ReadHandle::Dir { .. }) => return Err(Errno::EISDIR),
            None => return Err(Errno::EBADF),
        };
        let actor = self.actor();
        let bytes = self.fs().file_bytes_ino(&actor, ino).map_err(wire)?;
        let reply = ReadReply::new(bytes, offset, size);
        pos.store(offset + reply.len() as u64, Ordering::Relaxed);
        Ok(reply)
    }

    /// Sequential `read`: continues from the handle's current position.
    /// Two threads streaming through the *same* handle race on the cursor
    /// exactly as two processes sharing a file description do.
    pub fn read_next(&self, fh: u64, size: u32) -> OpResult<ReadReply> {
        let offset = {
            let shard = self.handles.read_shard(fh);
            match shard.get(&fh) {
                Some(ReadHandle::File { offset, .. }) => offset.load(Ordering::Relaxed),
                Some(ReadHandle::Dir { .. }) => return Err(Errno::EISDIR),
                None => return Err(Errno::EBADF),
            }
        };
        self.read(fh, offset, size)
    }

    /// `release`: closes a file handle.
    pub fn release(&self, fh: u64) -> OpResult<()> {
        self.count();
        let mut shard = self.handles.write_shard(fh);
        match shard.get(&fh) {
            Some(ReadHandle::File { .. }) => {
                shard.remove(&fh);
                Ok(())
            }
            Some(ReadHandle::Dir { .. }) | None => Err(Errno::EBADF),
        }
    }

    /// `opendir`: snapshots the directory's entries into a cursor handle.
    pub fn opendir(&self, ino: Ino) -> OpResult<Opened> {
        self.count();
        let actor = self.actor();
        let fs = self.fs();
        let entries = fs
            .readdir_ino(&actor, ino)
            .map_err(wire)?
            .into_iter()
            .map(|(name, child)| {
                let file_type = fs
                    .inode(child)
                    .map(|i| i.file_type())
                    .unwrap_or(hpcc_vfs::FileType::Regular);
                DirEntry {
                    name,
                    ino: child,
                    file_type,
                }
            })
            .collect();
        let fh = self.handles.insert(ReadHandle::Dir { entries });
        Ok(Opened {
            fh,
            flags: OpenFlags::RDONLY,
        })
    }

    /// `readdir`: up to `max` entries starting at cursor `offset`. An empty
    /// reply means end of stream.
    pub fn readdir(&self, fh: u64, offset: usize, max: usize) -> OpResult<Vec<DirEntry>> {
        self.count();
        let shard = self.handles.read_shard(fh);
        match shard.get(&fh) {
            Some(ReadHandle::Dir { entries }) => {
                let start = offset.min(entries.len());
                let end = start.saturating_add(max).min(entries.len());
                Ok(entries.get(start..end).unwrap_or(&[]).to_vec())
            }
            Some(ReadHandle::File { .. }) => Err(Errno::ENOTDIR),
            None => Err(Errno::EBADF),
        }
    }

    /// `releasedir`: closes a directory handle.
    pub fn releasedir(&self, fh: u64) -> OpResult<()> {
        self.count();
        let mut shard = self.handles.write_shard(fh);
        match shard.get(&fh) {
            Some(ReadHandle::Dir { .. }) => {
                shard.remove(&fh);
                Ok(())
            }
            Some(ReadHandle::File { .. }) | None => Err(Errno::EBADF),
        }
    }

    /// `statfs`. Always reports read-only.
    pub fn statfs(&self) -> OpResult<StatfsReply> {
        self.count();
        let fs = self.fs();
        Ok(StatfsReply {
            inodes: fs.inode_count() as u64,
            bytes: fs.total_file_bytes(),
            readonly: true,
        })
    }

    /// `getxattr`.
    pub fn getxattr(&self, ino: Ino, name: &str) -> OpResult<Vec<u8>> {
        self.count();
        let actor = self.actor();
        self.fs().get_xattr_ino(&actor, ino, name).map_err(wire)
    }

    /// `listxattr`.
    pub fn listxattr(&self, ino: Ino) -> OpResult<Vec<String>> {
        self.count();
        let actor = self.actor();
        self.fs().list_xattrs_ino(&actor, ino).map_err(wire)
    }

    // ---------------------------------------------------------- mutation: no

    /// `setattr` on a shared image: `EROFS`.
    pub fn setattr(&self, _ino: Ino, _changes: &Setattr) -> OpResult<Attr> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `write` on a shared image: `EROFS`.
    pub fn write(&self, _fh: u64, _offset: u64, _data: &[u8]) -> OpResult<u32> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `create` on a shared image: `EROFS`.
    pub fn create(&self, _parent: Ino, _name: &str, _mode: Mode) -> OpResult<Entry> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `mkdir` on a shared image: `EROFS`.
    pub fn mkdir(&self, _parent: Ino, _name: &str, _mode: Mode) -> OpResult<Entry> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `unlink` on a shared image: `EROFS`.
    pub fn unlink(&self, _parent: Ino, _name: &str) -> OpResult<()> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `rmdir` on a shared image: `EROFS`.
    pub fn rmdir(&self, _parent: Ino, _name: &str) -> OpResult<()> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `rename` on a shared image: `EROFS`.
    pub fn rename(
        &self,
        _parent: Ino,
        _name: &str,
        _new_parent: Ino,
        _new_name: &str,
    ) -> OpResult<()> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `symlink` on a shared image: `EROFS`.
    pub fn symlink(&self, _parent: Ino, _name: &str, _target: &str) -> OpResult<Entry> {
        self.count();
        Err(Errno::EROFS)
    }

    /// `setxattr` on a shared image: `EROFS`.
    pub fn setxattr(&self, _ino: Ino, _name: &str, _value: &[u8]) -> OpResult<()> {
        self.count();
        Err(Errno::EROFS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Gid, Uid};

    /// The whole stack must be shareable across threads by construction.
    #[test]
    fn shared_types_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<SharedImage>();
        check::<ReaderSession>();
    }

    fn image() -> SharedImage {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/etc/hostname",
            b"astra".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        fs.install_file(
            "/etc/secret",
            b"k".to_vec(),
            Uid(0),
            Gid(0),
            Mode::new(0o600),
        )
        .unwrap();
        fs.install_symlink("/etc/alias", "hostname", Uid(0), Gid(0))
            .unwrap();
        SharedImage::new(fs, UserNamespace::initial())
    }

    #[test]
    fn readers_share_one_image_zero_copy() {
        let img = image();
        let r1 = img.reader(FsCreds::root());
        let r2 = img.reader(FsCreds::root());
        assert!(r1.image().ptr_eq(r2.image()));
        let e1 = r1.resolve_path("/etc/hostname", true).unwrap();
        let e2 = r2.resolve_path("/etc/hostname", true).unwrap();
        assert_eq!(e1.ino, e2.ino);
        let o1 = r1.open(e1.ino, OpenFlags::RDONLY).unwrap();
        let o2 = r2.open(e2.ino, OpenFlags::RDONLY).unwrap();
        let d1 = r1.read(o1.fh, 0, 64).unwrap();
        let d2 = r2.read(o2.fh, 0, 64).unwrap();
        assert_eq!(d1.as_slice(), b"astra");
        // Both replies window the *same* buffer: nothing was snapshotted or
        // copied per client.
        assert!(d1.bytes().shares_buffer_with(d2.bytes()));
        let direct = img
            .filesystem()
            .file_bytes_ino(&Actor::new(&Credentials::host_root(), img.userns()), e1.ino)
            .unwrap();
        assert!(d1.bytes().shares_buffer_with(&direct));
        r1.release(o1.fh).unwrap();
        r2.release(o2.fh).unwrap();
        assert_eq!(r1.open_handles() + r2.open_handles(), 0);
    }

    #[test]
    fn per_client_credentials_are_enforced() {
        let img = image();
        let alice = img.reader(FsCreds::new(Uid(1000), Gid(1000), vec![Gid(1000)]));
        let root = img.reader(FsCreds::root());
        let secret = root.resolve_path("/etc/secret", true).unwrap();
        assert_eq!(
            alice.open(secret.ino, OpenFlags::RDONLY).unwrap_err(),
            Errno::EACCES
        );
        let o = root.open(secret.ino, OpenFlags::RDONLY).unwrap();
        assert_eq!(root.read(o.fh, 0, 8).unwrap().as_slice(), b"k");
        root.release(o.fh).unwrap();
    }

    #[test]
    fn every_mutation_is_erofs() {
        let img = image();
        let r = img.reader(FsCreds::root());
        let etc = r.resolve_path("/etc", true).unwrap();
        let host = r.resolve_path("/etc/hostname", true).unwrap();
        assert_eq!(r.open(host.ino, OpenFlags::RDWR).unwrap_err(), Errno::EROFS);
        assert_eq!(
            r.open(host.ino, OpenFlags::RDONLY | OpenFlags::TRUNC)
                .unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.mkdir(etc.ino, "x", Mode::DIR_755).unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.create(etc.ino, "x", Mode::FILE_644).unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(r.unlink(etc.ino, "hostname").unwrap_err(), Errno::EROFS);
        assert_eq!(r.rmdir(etc.ino, "x").unwrap_err(), Errno::EROFS);
        assert_eq!(
            r.rename(etc.ino, "hostname", etc.ino, "h2").unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.symlink(etc.ino, "l", "hostname").unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(r.write(1, 0, b"x").unwrap_err(), Errno::EROFS);
        assert_eq!(
            r.setxattr(host.ino, "user.x", b"v").unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.setattr(host.ino, &Setattr::default()).unwrap_err(),
            Errno::EROFS
        );
        assert!(r.statfs().unwrap().readonly);
    }

    #[test]
    fn symlinks_resolve_through_the_fallback_path() {
        let img = image();
        let r = img.reader(FsCreds::root());
        let direct = r.resolve_path("/etc/hostname", true).unwrap();
        let via_link = r.resolve_path("/etc/alias", true).unwrap();
        assert_eq!(direct.ino, via_link.ino);
        let no_follow = r.resolve_path("/etc/alias", false).unwrap();
        assert_eq!(no_follow.attr.file_type, hpcc_vfs::FileType::Symlink);
        assert_eq!(r.readlink(no_follow.ino).unwrap(), "hostname");
    }

    #[test]
    fn shared_handle_table_survives_wraparound_without_aliasing() {
        let img = image();
        let r = img.reader(FsCreds::root());
        let host = r.resolve_path("/etc/hostname", true).unwrap();
        r.handles.next_fh.store(u64::MAX, Ordering::Relaxed);
        let pinned = r.open(host.ino, OpenFlags::RDONLY).unwrap().fh;
        assert_eq!(pinned, u64::MAX);
        for _ in 0..4 {
            let fh = r.open(host.ino, OpenFlags::RDONLY).unwrap().fh;
            assert_ne!(fh, 0);
            assert_ne!(fh, pinned);
            r.release(fh).unwrap();
        }
        // Counter forced back over the still-open id: it is skipped.
        r.handles.next_fh.store(u64::MAX, Ordering::Relaxed);
        let next = r.open(host.ino, OpenFlags::RDONLY).unwrap().fh;
        assert_ne!(next, pinned);
        assert_eq!(r.read(pinned, 0, 5).unwrap().as_slice(), b"astra");
        r.release(next).unwrap();
        r.release(pinned).unwrap();
        assert_eq!(r.open_handles(), 0);
    }

    #[test]
    fn readdir_cursor_pages_through_a_shared_reader() {
        let img = image();
        let r = img.reader(FsCreds::root());
        let etc = r.resolve_path("/etc", true).unwrap();
        let dh = r.opendir(etc.ino).unwrap();
        let page1 = r.readdir(dh.fh, 0, 2).unwrap();
        let page2 = r.readdir(dh.fh, 2, 10).unwrap();
        let mut names: Vec<String> = page1.into_iter().chain(page2).map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, ["alias", "hostname", "secret"]);
        // Wrong release flavor does not drop the handle.
        assert_eq!(r.release(dh.fh).unwrap_err(), Errno::EBADF);
        assert_eq!(r.open_handles(), 1);
        r.releasedir(dh.fh).unwrap();
        assert_eq!(r.open_handles(), 0);
    }
}
