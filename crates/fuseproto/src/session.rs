//! The session: one open-handle table and the typed ops, over any backend.
//!
//! A [`Session`] serves one [`FsOps`] backend — a writable [`MemFs`] mount or
//! a frozen shared image read by one principal (`SharedImage::reader`) —
//! and keeps the protocol state a FUSE daemon keeps per mount: the
//! file-handle table (flags and a sequential-read offset per handle) and
//! readdir cursors (a stable snapshot of a directory's entries per
//! `opendir`). Every op takes `&self` plus the request's credentials, so one
//! session may be driven from several threads at once. Clients either call
//! the typed methods directly or route [`crate::Request`] values through the
//! [`Dispatch`](crate::Dispatch) trait — both paths execute identically.
//!
//! The handle table is sharded: `HANDLE_SHARDS` `RwLock`ed maps keyed by
//! handle id, with a wrapping-safe atomic allocator, so concurrent opens and
//! reads touch different shards. Lock rule: an op may hold a shard while it
//! enters the backend, never the other way round — `read` and `write` look
//! their handle up once and keep the shard read-locked across the backend
//! call, while `open`, `create` and `opendir` leave the backend before they
//! insert their handle.
//!
//! Reads are O(1) and zero-copy end to end: `open` checks access once (per
//! POSIX), and each `read` windows the file's shared
//! [`FileBytes`](hpcc_vfs::FileBytes) handle via [`ReadReply`] — no bytes are
//! copied between the filesystem and a caller of the typed API
//! ([`wire`](crate::wire) documents what a wire read copies).
//!
//! [`MemFs`]: crate::MemFs

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

use hpcc_kernel::sync::{read_recover, write_recover};
use hpcc_kernel::{Errno, KResult};
use hpcc_vfs::{Access, Actor, FileType, Filesystem, Ino, Mode, Setattr};

use crate::op::{
    Attr, DirEntry, Entry, FsCreds, OpenFlags, Opened, ReadReply, StatfsReply, Written,
};
use crate::ops::FsOps;
use crate::wire::FUSE_ROOT_ID;

/// Handle-table shard count. Handle ids are allocated sequentially, so
/// consecutive opens land on different shards and concurrent clients rarely
/// contend even on the same session.
const HANDLE_SHARDS: usize = 8;

/// State of one open handle.
#[derive(Debug)]
enum Handle {
    /// A regular-file handle.
    File {
        /// The file's inode.
        ino: Ino,
        /// Flags the handle was opened with.
        flags: OpenFlags,
        /// Sequential-read position: advanced by each `read` and `write`,
        /// so a client streaming a file never tracks offsets itself. Atomic
        /// so it advances under the shard's *read* lock.
        offset: AtomicU64,
    },
    /// A directory handle with its entry snapshot (the readdir cursor):
    /// stable even if the directory mutates mid-listing, like a real
    /// `getdents` stream.
    Dir {
        /// Entries snapshotted at `opendir`.
        entries: Vec<DirEntry>,
    },
}

/// The inode and cursor of an open file handle whose flags `permits`.
/// A directory handle is `EISDIR`; a missing or unpermitted one `EBADF`.
fn file_handle(
    handle: Option<&Handle>,
    permits: fn(OpenFlags) -> bool,
) -> KResult<(Ino, &AtomicU64)> {
    match handle {
        Some(Handle::File { ino, flags, offset }) if permits(*flags) => Ok((*ino, offset)),
        Some(Handle::Dir { .. }) => Err(Errno::EISDIR),
        _ => Err(Errno::EBADF),
    }
}

/// The sharded concurrent handle table: `HANDLE_SHARDS` independent
/// `RwLock<HashMap>`s keyed by `fh % HANDLE_SHARDS`, with a wrapping-safe
/// atomic id allocator that skips 0 and any id still open.
#[derive(Debug)]
struct HandleTable {
    shards: [RwLock<HashMap<u64, Handle>>; HANDLE_SHARDS],
    next_fh: AtomicU64,
}

impl HandleTable {
    fn new() -> Self {
        HandleTable {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            next_fh: AtomicU64::new(1),
        }
    }

    fn shard(&self, fh: u64) -> &RwLock<HashMap<u64, Handle>> {
        // hpcc-lint: allow(panic) — index is `fh % HANDLE_SHARDS`, always in bounds
        &self.shards[(fh % HANDLE_SHARDS as u64) as usize]
    }

    fn read_shard(&self, fh: u64) -> RwLockReadGuard<'_, HashMap<u64, Handle>> {
        read_recover(self.shard(fh))
    }

    /// Allocates an id and inserts the handle. Wraparound-safe and
    /// reuse-free: 0 (which clients may treat as "no handle") is never
    /// handed out, and an id still held by an open handle is skipped rather
    /// than aliased.
    fn insert(&self, handle: Handle) -> u64 {
        let mut handle = Some(handle);
        loop {
            let fh = self.next_fh.fetch_add(1, Ordering::Relaxed);
            if fh == 0 {
                continue;
            }
            let mut shard = write_recover(self.shard(fh));
            if let std::collections::hash_map::Entry::Vacant(slot) = shard.entry(fh) {
                if let Some(h) = handle.take() {
                    slot.insert(h);
                    return fh;
                }
            }
        }
    }

    /// Removes `fh` if `kind` accepts its handle; otherwise (a missing
    /// handle, or the wrong release flavor) `EBADF`, leaving it open.
    fn remove(&self, fh: u64, kind: fn(&Handle) -> bool) -> KResult<()> {
        let mut shard = write_recover(self.shard(fh));
        match shard.get(&fh) {
            Some(h) if kind(h) => {
                shard.remove(&fh);
                Ok(())
            }
            _ => Err(Errno::EBADF),
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

/// A protocol session over a backend.
///
/// Generic over the backend so a mount can own its filesystem
/// (`Session<MemFs>`), the shell can borrow one
/// (`Session<MemFs<&mut Filesystem>>`), and a job can read a frozen shared
/// image (`Session<FrozenImage>`, from [`SharedImage::reader`]). The
/// session is `Sync` whenever its backend is.
///
/// [`SharedImage::reader`]: crate::SharedImage::reader
#[derive(Debug)]
pub struct Session<B> {
    backend: B,
    handles: HandleTable,
}

/// The entry for `ino`: the inode and its attributes as `actor` sees them.
fn stat_entry(fs: &Filesystem, actor: &Actor<'_>, ino: Ino) -> KResult<Entry> {
    Ok(Entry {
        ino,
        attr: Attr::from(fs.stat_ino(actor, ino)?),
    })
}

impl<B: FsOps> Session<B> {
    /// Starts a session over a backend.
    pub fn new(backend: B) -> Self {
        Session {
            backend,
            handles: HandleTable::new(),
        }
    }

    /// The backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The root inode: [`FUSE_ROOT_ID`], where every
    /// [`hpcc_vfs::Filesystem`] roots.
    pub fn root_ino(&self) -> Ino {
        FUSE_ROOT_ID
    }

    /// Number of currently open handles (files + directories). Zero after
    /// every handle is released — the leak check the property suite pins.
    pub fn open_handles(&self) -> usize {
        self.handles.len()
    }

    /// Drops every open handle, as a FUSE daemon does when its client
    /// disconnects without releasing. Used by
    /// [`Dispatch::disconnect`](crate::Dispatch::disconnect).
    pub fn release_all(&self) {
        self.handles.clear();
    }

    /// Resolves an absolute path to an entry, following intermediate
    /// symlinks (and the final one when `follow_final`, selecting stat vs
    /// lstat semantics). A convenience for clients holding path strings;
    /// the protocol itself never sees a multi-component path.
    pub fn resolve_path(&self, cred: &FsCreds, path: &str, follow_final: bool) -> KResult<Entry> {
        self.backend.admit(cred)?;
        self.backend.read(cred, |fs, actor| {
            let ino = self.backend.resolve(fs, actor, path, follow_final)?;
            stat_entry(fs, actor, ino)
        })
    }

    // ------------------------------------------------------------- typed ops

    /// `lookup`: one component under a parent directory.
    pub fn lookup(&self, cred: &FsCreds, parent: Ino, name: &str) -> KResult<Entry> {
        self.backend.admit(cred)?;
        self.backend.read(cred, |fs, actor| {
            stat_entry(fs, actor, fs.lookup_at(actor, parent, name)?)
        })
    }

    /// `getattr`.
    pub fn getattr(&self, cred: &FsCreds, ino: Ino) -> KResult<Attr> {
        self.backend.admit(cred)?;
        self.backend
            .read(cred, |fs, actor| Ok(stat_entry(fs, actor, ino)?.attr))
    }

    /// `setattr`: applies a metadata change (mode / ownership / size),
    /// returning the new attributes.
    pub fn setattr(&self, cred: &FsCreds, ino: Ino, changes: &Setattr) -> KResult<Attr> {
        self.backend.admit(cred)?;
        self.backend.write(cred, |fs, actor| {
            fs.setattr_ino(actor, ino, changes)?;
            Ok(stat_entry(fs, actor, ino)?.attr)
        })
    }

    /// `readlink`.
    pub fn readlink(&self, cred: &FsCreds, ino: Ino) -> KResult<String> {
        self.backend.admit(cred)?;
        self.backend
            .read(cred, |fs, actor| fs.readlink_ino(actor, ino))
    }

    /// `open`: checks access once, here (per POSIX), applies `O_TRUNC` to a
    /// writable open, then allocates a file handle. Directories are opened
    /// with `opendir` (`EISDIR`); other non-regular files are `EINVAL`.
    pub fn open(&self, cred: &FsCreds, ino: Ino, flags: OpenFlags) -> KResult<Opened> {
        self.backend.admit(cred)?;
        let check = |fs: &Filesystem, actor: &Actor<'_>| -> KResult<()> {
            let inode = fs.inode(ino)?;
            if inode.is_dir() {
                return Err(Errno::EISDIR);
            }
            if !inode.is_file() {
                return Err(Errno::EINVAL);
            }
            if flags.readable() {
                fs.check_access_ino(actor, ino, Access::READ)?;
            }
            if flags.writable() {
                fs.check_access_ino(actor, ino, Access::WRITE)?;
            }
            Ok(())
        };
        if flags.writable() || flags.truncates() {
            self.backend.write(cred, |fs, actor| {
                check(fs, actor)?;
                if flags.writable() && flags.truncates() {
                    fs.truncate_ino(actor, ino, 0)?;
                }
                Ok(())
            })?;
        } else {
            self.backend.read(cred, check)?;
        }
        let fh = self.handles.insert(Handle::File {
            ino,
            flags,
            offset: AtomicU64::new(0),
        });
        Ok(Opened { fh, flags })
    }

    /// `create`: creates an empty file and opens it in one op, like
    /// `FUSE_CREATE`.
    pub fn create(
        &self,
        cred: &FsCreds,
        parent: Ino,
        name: &str,
        mode: Mode,
        flags: OpenFlags,
    ) -> KResult<(Entry, Opened)> {
        self.backend.admit(cred)?;
        let entry = self.backend.write(cred, |fs, actor| {
            let ino = fs.create_at(actor, parent, name, mode)?;
            stat_entry(fs, actor, ino)
        })?;
        let fh = self.handles.insert(Handle::File {
            ino: entry.ino,
            flags,
            offset: AtomicU64::new(0),
        });
        Ok((entry, Opened { fh, flags }))
    }

    /// `read` at an explicit offset. Zero-copy: the reply windows the
    /// file's shared bytes. Advances the handle's sequential position to
    /// `offset + len`.
    pub fn read(&self, cred: &FsCreds, fh: u64, offset: u64, size: u32) -> KResult<ReadReply> {
        self.backend.admit(cred)?;
        let shard = self.handles.read_shard(fh);
        let (ino, pos) = file_handle(shard.get(&fh), OpenFlags::readable)?;
        let bytes = self
            .backend
            .read(cred, |fs, actor| fs.file_bytes_ino(actor, ino))?;
        let reply = ReadReply::new(bytes, offset, size);
        pos.store(offset + reply.len() as u64, Ordering::Relaxed);
        Ok(reply)
    }

    /// Sequential `read`: continues from the handle's current position.
    /// Two threads streaming through the *same* handle race on the cursor
    /// exactly as two processes sharing a file description do.
    // hpcc-lint: allow(test_only_api) — harness: crates/fuseproto/tests/concurrent_stress.rs streams through shared handles with it
    pub fn read_next(&self, cred: &FsCreds, fh: u64, size: u32) -> KResult<ReadReply> {
        let offset = {
            let shard = self.handles.read_shard(fh);
            let (_, pos) = file_handle(shard.get(&fh), |_| true)?;
            pos.load(Ordering::Relaxed)
        };
        self.read(cred, fh, offset, size)
    }

    /// `write` at an explicit offset (`pwrite` semantics) through an open
    /// handle. A handle not opened for writing is `EBADF`, as for
    /// `write(2)`.
    pub fn write(&self, cred: &FsCreds, fh: u64, offset: u64, data: &[u8]) -> KResult<Written> {
        self.backend.admit(cred)?;
        let shard = self.handles.read_shard(fh);
        let (ino, pos) = file_handle(shard.get(&fh), OpenFlags::writable)?;
        let size = self
            .backend
            .write(cred, |fs, actor| fs.write_at_ino(actor, ino, offset, data))?;
        pos.store(offset + size as u64, Ordering::Relaxed);
        Ok(Written { size })
    }

    /// `release`: closes a file handle.
    pub fn release(&self, cred: &FsCreds, fh: u64) -> KResult<()> {
        self.backend.admit(cred)?;
        self.handles
            .remove(fh, |h| matches!(h, Handle::File { .. }))
    }

    /// `opendir`: snapshots the directory's entries into a cursor handle.
    pub fn opendir(&self, cred: &FsCreds, ino: Ino) -> KResult<Opened> {
        self.backend.admit(cred)?;
        let entries = self.backend.read(cred, |fs, actor| {
            let entries = fs.readdir_ino(actor, ino)?;
            Ok::<_, Errno>(
                entries
                    .into_iter()
                    .map(|(name, child)| DirEntry {
                        name,
                        ino: child,
                        file_type: fs
                            .inode(child)
                            .map(|i| i.file_type())
                            .unwrap_or(FileType::Regular),
                    })
                    .collect(),
            )
        })?;
        let fh = self.handles.insert(Handle::Dir { entries });
        Ok(Opened {
            fh,
            flags: OpenFlags::RDONLY,
        })
    }

    /// `readdir`: up to `max` entries starting at cursor `offset`. An empty
    /// reply means end of stream.
    pub fn readdir(
        &self,
        cred: &FsCreds,
        fh: u64,
        offset: usize,
        max: usize,
    ) -> KResult<Vec<DirEntry>> {
        self.backend.admit(cred)?;
        match self.handles.read_shard(fh).get(&fh) {
            Some(Handle::Dir { entries }) => {
                let start = offset.min(entries.len());
                let end = start.saturating_add(max).min(entries.len());
                Ok(entries.get(start..end).unwrap_or(&[]).to_vec())
            }
            Some(Handle::File { .. }) => Err(Errno::ENOTDIR),
            None => Err(Errno::EBADF),
        }
    }

    /// `releasedir`: closes a directory handle.
    pub fn releasedir(&self, cred: &FsCreds, fh: u64) -> KResult<()> {
        self.backend.admit(cred)?;
        self.handles.remove(fh, |h| matches!(h, Handle::Dir { .. }))
    }

    /// `mkdir`.
    pub fn mkdir(&self, cred: &FsCreds, parent: Ino, name: &str, mode: Mode) -> KResult<Entry> {
        self.backend.admit(cred)?;
        self.backend.write(cred, |fs, actor| {
            let ino = fs.mkdir_at(actor, parent, name, mode)?;
            stat_entry(fs, actor, ino)
        })
    }

    /// `unlink`: removes a non-directory entry.
    pub fn unlink(&self, cred: &FsCreds, parent: Ino, name: &str) -> KResult<()> {
        self.backend.admit(cred)?;
        self.backend
            .write(cred, |fs, actor| fs.unlink_at(actor, parent, name))
    }

    /// `rmdir`: removes an empty directory.
    pub fn rmdir(&self, cred: &FsCreds, parent: Ino, name: &str) -> KResult<()> {
        self.backend.admit(cred)?;
        self.backend
            .write(cred, |fs, actor| fs.rmdir_at(actor, parent, name))
    }

    /// `rename`, possibly across directories.
    pub fn rename(
        &self,
        cred: &FsCreds,
        parent: Ino,
        name: &str,
        new_parent: Ino,
        new_name: &str,
    ) -> KResult<()> {
        self.backend.admit(cred)?;
        self.backend.write(cred, |fs, actor| {
            fs.rename_at(actor, parent, name, new_parent, new_name)
        })
    }

    /// `symlink`.
    pub fn symlink(&self, cred: &FsCreds, parent: Ino, name: &str, target: &str) -> KResult<Entry> {
        self.backend.admit(cred)?;
        self.backend.write(cred, |fs, actor| {
            let ino = fs.symlink_at(actor, parent, name, target)?;
            stat_entry(fs, actor, ino)
        })
    }

    /// `statfs`. A frozen image reports read-only.
    pub fn statfs(&self, cred: &FsCreds) -> KResult<StatfsReply> {
        self.backend.admit(cred)?;
        Ok(self.backend.read(cred, |fs, _| StatfsReply {
            inodes: fs.inode_count() as u64,
            bytes: fs.total_file_bytes(),
            readonly: fs.readonly,
        }))
    }

    /// `getxattr`.
    pub fn getxattr(&self, cred: &FsCreds, ino: Ino, name: &str) -> KResult<Vec<u8>> {
        self.backend.admit(cred)?;
        self.backend
            .read(cred, |fs, actor| fs.get_xattr_ino(actor, ino, name))
    }

    /// `setxattr`.
    pub fn setxattr(&self, cred: &FsCreds, ino: Ino, name: &str, value: &[u8]) -> KResult<()> {
        self.backend.admit(cred)?;
        self.backend
            .write(cred, |fs, actor| fs.set_xattr_ino(actor, ino, name, value))
    }

    /// `listxattr`.
    pub fn listxattr(&self, cred: &FsCreds, ino: Ino) -> KResult<Vec<String>> {
        self.backend.admit(cred)?;
        self.backend
            .read(cred, |fs, actor| fs.list_xattrs_ino(actor, ino))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dispatch::Dispatch;
    use crate::memfs::MemFs;
    use crate::op::{Operation, Reply, Request};
    use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};

    fn tree() -> Filesystem {
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
            hpcc_vfs::Mode::new(0o600),
        )
        .unwrap();
        fs.install_symlink("/etc/alias", "hostname", Uid(0), Gid(0))
            .unwrap();
        fs
    }

    fn session() -> Session<MemFs> {
        Session::new(MemFs::new(tree(), UserNamespace::initial()))
    }

    #[test]
    fn lookup_open_read_release_round_trip() {
        let fs = tree();
        let s = Session::new(MemFs::new(fs.clone(), UserNamespace::initial()));
        let root = FsCreds::root();
        let etc = s.lookup(&root, s.root_ino(), "etc").unwrap();
        let host = s.lookup(&root, etc.ino, "hostname").unwrap();
        assert_eq!(host.attr.size, 5);
        let opened = s.open(&root, host.ino, OpenFlags::RDONLY).unwrap();
        let data = s.read(&root, opened.fh, 0, 64).unwrap();
        assert_eq!(data.as_slice(), b"astra");
        // Zero copy: the reply shares the served tree's buffer.
        let host_root = Credentials::host_root();
        let ns = UserNamespace::initial();
        let direct = fs
            .file_bytes_ino(&Actor::new(&host_root, &ns), host.ino)
            .unwrap();
        assert!(data.bytes().shares_buffer_with(&direct));
        assert_eq!(s.open_handles(), 1);
        s.release(&root, opened.fh).unwrap();
        assert_eq!(s.open_handles(), 0);
        assert_eq!(s.release(&root, opened.fh).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn sequential_reads_advance_the_handle_offset() {
        let s = session();
        let root = FsCreds::root();
        let host = s.resolve_path(&root, "/etc/hostname", true).unwrap();
        let fh = s.open(&root, host.ino, OpenFlags::RDONLY).unwrap().fh;
        assert_eq!(s.read_next(&root, fh, 2).unwrap().as_slice(), b"as");
        assert_eq!(s.read_next(&root, fh, 2).unwrap().as_slice(), b"tr");
        assert_eq!(s.read_next(&root, fh, 2).unwrap().as_slice(), b"a");
        assert!(s.read_next(&root, fh, 2).unwrap().is_empty());
    }

    #[test]
    fn permissions_checked_at_open_with_request_credentials() {
        let s = session();
        let alice = FsCreds::new(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let secret = s
            .resolve_path(&FsCreds::root(), "/etc/secret", true)
            .unwrap();
        assert_eq!(
            s.open(&alice, secret.ino, OpenFlags::RDONLY).unwrap_err(),
            Errno::EACCES
        );
        // Root (namespace-root in the initial namespace) may open it.
        assert!(s
            .open(&FsCreds::root(), secret.ino, OpenFlags::RDONLY)
            .is_ok());
    }

    #[test]
    fn resolve_path_follows_symlinks_through_ops() {
        let s = session();
        let root = FsCreds::root();
        let direct = s.resolve_path(&root, "/etc/hostname", true).unwrap();
        let via_link = s.resolve_path(&root, "/etc/alias", true).unwrap();
        assert_eq!(direct.ino, via_link.ino);
        let no_follow = s.resolve_path(&root, "/etc/alias", false).unwrap();
        assert_eq!(no_follow.attr.file_type, FileType::Symlink);
        assert_eq!(s.readlink(&root, no_follow.ino).unwrap(), "hostname");
        assert_eq!(s.resolve_path(&root, "/", true).unwrap().ino, s.root_ino());
    }

    /// Pages `/etc` through a cursor on either flavor: two pages cover
    /// every entry, and the wrong release flavor leaves the handle open.
    pub(crate) fn page_etc<B: FsOps>(s: &Session<B>, root: &FsCreds, between: impl FnOnce(Ino)) {
        let etc = s.resolve_path(root, "/etc", true).unwrap();
        let dh = s.opendir(root, etc.ino).unwrap();
        let page1 = s.readdir(root, dh.fh, 0, 2).unwrap();
        assert_eq!(page1.len(), 2);
        between(etc.ino);
        let page2 = s.readdir(root, dh.fh, 2, 10).unwrap();
        let mut names: Vec<String> = page1.into_iter().chain(page2).map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, ["alias", "hostname", "secret"]);
        // Wrong release flavor does not drop the handle.
        assert_eq!(s.release(root, dh.fh).unwrap_err(), Errno::EBADF);
        assert_eq!(s.open_handles(), 1);
        s.releasedir(root, dh.fh).unwrap();
        assert_eq!(s.open_handles(), 0);
    }

    #[test]
    fn readdir_cursor_pages_and_survives_mutation() {
        let root = FsCreds::root();
        // Mutating the directory does not disturb the open cursor.
        let s = session();
        page_etc(&s, &root, |etc| s.unlink(&root, etc, "secret").unwrap());
    }

    #[test]
    fn readdir_with_unbounded_max_and_nonzero_offset() {
        let s = session();
        let root = FsCreds::root();
        let etc = s.resolve_path(&root, "/etc", true).unwrap();
        let dh = s.opendir(&root, etc.ino).unwrap();
        // "everything after the first entry" with max = usize::MAX must not
        // overflow.
        let rest = s.readdir(&root, dh.fh, 1, usize::MAX).unwrap();
        assert_eq!(rest.len(), 2);
        // Past-the-end cursor is an empty page, not an error.
        assert!(s.readdir(&root, dh.fh, 64, usize::MAX).unwrap().is_empty());
        s.releasedir(&root, dh.fh).unwrap();
    }

    #[test]
    fn write_through_handle_then_read_back() {
        let s = session();
        let root = FsCreds::root();
        let etc = s.resolve_path(&root, "/etc", true).unwrap();
        let (entry, opened) = s
            .create(&root, etc.ino, "new.conf", Mode::FILE_644, OpenFlags::RDWR)
            .unwrap();
        assert_eq!(s.write(&root, opened.fh, 0, b"abc").unwrap().size, 3);
        assert_eq!(s.write(&root, opened.fh, 3, b"def").unwrap().size, 3);
        let back = s.read(&root, opened.fh, 0, 16).unwrap();
        assert_eq!(back.as_slice(), b"abcdef");
        s.release(&root, opened.fh).unwrap();
        // O_TRUNC on reopen.
        let t = s
            .open(&root, entry.ino, OpenFlags::WRONLY | OpenFlags::TRUNC)
            .unwrap();
        s.release(&root, t.fh).unwrap();
        assert_eq!(s.getattr(&root, entry.ino).unwrap().size, 0);
    }

    #[test]
    fn wrong_handle_kinds_are_ebadf_family() {
        let s = session();
        let root = FsCreds::root();
        let etc = s.resolve_path(&root, "/etc", true).unwrap();
        let host = s.resolve_path(&root, "/etc/hostname", true).unwrap();
        let dh = s.opendir(&root, etc.ino).unwrap();
        let fhh = s.open(&root, host.ino, OpenFlags::RDONLY).unwrap();
        assert_eq!(s.read(&root, dh.fh, 0, 1).unwrap_err(), Errno::EISDIR);
        assert_eq!(s.readdir(&root, fhh.fh, 0, 1).unwrap_err(), Errno::ENOTDIR);
        assert_eq!(s.release(&root, dh.fh).unwrap_err(), Errno::EBADF);
        assert_eq!(s.releasedir(&root, fhh.fh).unwrap_err(), Errno::EBADF);
        // The failed cross-releases did not leak or drop the handles.
        assert_eq!(s.open_handles(), 2);
        s.releasedir(&root, dh.fh).unwrap();
        s.release(&root, fhh.fh).unwrap();
        // A write through a read-only handle is EBADF.
        let ro = s.open(&root, host.ino, OpenFlags::RDONLY).unwrap();
        assert_eq!(s.write(&root, ro.fh, 0, b"x").unwrap_err(), Errno::EBADF);
        s.release(&root, ro.fh).unwrap();
    }

    #[test]
    fn queue_dispatch_matches_typed_calls() {
        let mut s = session();
        let root = FsCreds::root();
        let replies = s.handle_all([
            Request::new(
                root.clone(),
                Operation::Lookup {
                    parent: s.root_ino(),
                    name: "etc".into(),
                },
            ),
            Request::new(root.clone(), Operation::Statfs),
            Request::new(
                root.clone(),
                Operation::Lookup {
                    parent: s.root_ino(),
                    name: "missing".into(),
                },
            ),
        ]);
        assert!(matches!(replies[0], Reply::Entry(_)));
        assert!(matches!(replies[1], Reply::Statfs(_)));
        assert_eq!(replies[2].err(), Some(Errno::ENOENT));
        // Full open/read/release through the queue.
        let etc = match &replies[0] {
            Reply::Entry(e) => e.ino,
            _ => unreachable!(),
        };
        let host = s.lookup(&root, etc, "hostname").unwrap();
        let opened = match s.handle(Request::new(
            root.clone(),
            Operation::Open {
                ino: host.ino,
                flags: OpenFlags::RDONLY,
            },
        )) {
            Reply::Opened(o) => o,
            other => panic!("{:?}", other),
        };
        match s.handle(Request::new(
            root.clone(),
            Operation::Read {
                fh: opened.fh,
                offset: 0,
                size: 32,
            },
        )) {
            Reply::Data(d) => assert_eq!(d.as_slice(), b"astra"),
            other => panic!("{:?}", other),
        }
        assert_eq!(
            s.handle(Request::new(root, Operation::Release { fh: opened.fh })),
            Reply::Unit
        );
        assert_eq!(s.open_handles(), 0);
    }

    /// Drives the one handle table past `u64::MAX` through either flavor.
    pub(crate) fn wrap_fh_counter<B: FsOps>(s: &Session<B>, root: &FsCreds) {
        let host = s.resolve_path(root, "/etc/hostname", true).unwrap();
        // A long-lived handle opened near the end of the id space…
        s.handles.next_fh.store(u64::MAX, Ordering::Relaxed);
        let pinned = s.open(root, host.ino, OpenFlags::RDONLY).unwrap().fh;
        assert_eq!(pinned, u64::MAX);
        // …must survive the counter wrapping: later opens skip 0 and every
        // still-open id, and open/release cycles never hand out a live id.
        let mut seen = vec![pinned];
        for _ in 0..4 {
            let fh = s.open(root, host.ino, OpenFlags::RDONLY).unwrap().fh;
            assert_ne!(fh, 0, "fh 0 must never be handed out");
            assert_ne!(fh, pinned);
            assert!(!seen.contains(&fh), "live fh {fh} aliased");
            seen.push(fh);
            // Read through the pinned handle still works (it was not stolen).
            assert_eq!(s.read(root, pinned, 0, 5).unwrap().as_slice(), b"astra");
            s.release(root, fh).unwrap();
        }
        // Forcing the counter back over a live id skips it.
        s.handles.next_fh.store(u64::MAX, Ordering::Relaxed);
        let next = s.open(root, host.ino, OpenFlags::RDONLY).unwrap().fh;
        assert_ne!(next, pinned);
        assert_eq!(s.read(root, pinned, 0, 5).unwrap().as_slice(), b"astra");
        s.release(root, next).unwrap();
        s.release(root, pinned).unwrap();
        assert_eq!(s.open_handles(), 0);
    }

    #[test]
    fn fh_allocation_survives_wraparound_without_aliasing() {
        wrap_fh_counter(&session(), &FsCreds::root());
    }
}
