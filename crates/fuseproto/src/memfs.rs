//! Backend: the in-memory CoW filesystem.
//!
//! [`MemFs`] serves an [`hpcc_vfs::Filesystem`] through the typed op
//! protocol. It is generic over how it holds the filesystem — by value
//! (`MemFs<Filesystem>`, what `Container::mount` uses with an O(1) CoW
//! snapshot) or by mutable borrow (`MemFs<&mut Filesystem>`, what the shell
//! uses to route builtins through ops without giving up ownership).
//! Read-only mounts are served by [`crate::SharedImage`] instead.
//!
//! `Container::mount` is implemented in the `hpcc-runtime` crate.

use std::borrow::{Borrow, BorrowMut};

use hpcc_kernel::{Credentials, UserNamespace};
use hpcc_vfs::{Actor, FileBytes, Filesystem, Ino, Mode, Setattr};

use crate::errno::OpResult;
use crate::op::{Attr, DirEntry, Entry, FsCreds, OpenFlags, StatfsReply};
use crate::ops::FsOps;
use crate::Errno;

/// The in-memory copy-on-write filesystem served through the protocol.
///
/// Holds the filesystem plus the user namespace the mount belongs to; each
/// request synthesizes kernel credentials from its [`FsCreds`]: a requester
/// whose UID maps to root in that namespace gets full in-namespace
/// capabilities (the kernel's rule for namespace-root processes), everyone
/// else is unprivileged. This reproduces exactly the privilege a process
/// would have making the same syscalls inside the container.
#[derive(Debug)]
pub struct MemFs<F = Filesystem> {
    fs: F,
    userns: UserNamespace,
}

impl<F: Borrow<Filesystem>> MemFs<F> {
    /// Creates a backend over `fs` (owned or `&mut`-borrowed), serving it in
    /// `userns`.
    pub fn new(fs: F, userns: UserNamespace) -> Self {
        MemFs { fs, userns }
    }

    /// The served filesystem.
    pub fn filesystem(&self) -> &Filesystem {
        self.fs.borrow()
    }

    /// The mount's user namespace.
    pub fn userns(&self) -> &UserNamespace {
        &self.userns
    }

    /// Kernel credentials for a request: namespace-root requesters hold full
    /// in-namespace capabilities, everyone else none.
    fn credentials(&self, cred: &FsCreds) -> Credentials {
        derive_credentials(&self.userns, cred)
    }
}

/// Synthesizes kernel credentials for a request in `userns`: a requester
/// whose UID maps to root in that namespace gets full in-namespace
/// capabilities (the kernel's rule for namespace-root processes), everyone
/// else is unprivileged. Shared between [`MemFs`] (per request) and
/// `SharedImage` readers (derived once per client).
pub(crate) fn derive_credentials(userns: &UserNamespace, cred: &FsCreds) -> Credentials {
    let base = Credentials::unprivileged_user(cred.uid, cred.gid, cred.groups.clone());
    if userns.uid_to_ns(cred.uid).is_some_and(|u| u.is_root()) {
        base.entered_own_namespace()
    } else {
        base
    }
}

impl MemFs<Filesystem> {
    /// Consumes the backend, returning the filesystem.
    pub fn into_inner(self) -> Filesystem {
        self.fs
    }
}

/// Maps a kernel error into the wire errno.
pub(crate) fn wire(e: hpcc_kernel::Errno) -> Errno {
    Errno::from(e)
}

impl<F: Borrow<Filesystem> + BorrowMut<Filesystem>> FsOps for MemFs<F> {
    fn root_ino(&self) -> Ino {
        self.filesystem().root_ino()
    }

    fn lookup(&self, cred: &FsCreds, parent: Ino, name: &str) -> OpResult<Entry> {
        let creds = self.credentials(cred);
        let actor = Actor::new(&creds, &self.userns);
        let fs = self.filesystem();
        let ino = fs.lookup_at(&actor, parent, name).map_err(wire)?;
        let attr = Attr::from(fs.stat_ino(&actor, ino).map_err(wire)?);
        Ok(Entry { ino, attr })
    }

    fn getattr(&self, cred: &FsCreds, ino: Ino) -> OpResult<Attr> {
        let creds = self.credentials(cred);
        let actor = Actor::new(&creds, &self.userns);
        Ok(Attr::from(
            self.filesystem().stat_ino(&actor, ino).map_err(wire)?,
        ))
    }

    fn setattr(&mut self, cred: &FsCreds, ino: Ino, changes: &Setattr) -> OpResult<Attr> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        let fs: &mut Filesystem = fs.borrow_mut();
        fs.setattr_ino(&actor, ino, changes).map_err(wire)?;
        Ok(Attr::from(fs.stat_ino(&actor, ino).map_err(wire)?))
    }

    fn readlink(&self, cred: &FsCreds, ino: Ino) -> OpResult<String> {
        let creds = self.credentials(cred);
        let actor = Actor::new(&creds, &self.userns);
        self.filesystem().readlink_ino(&actor, ino).map_err(wire)
    }

    fn open(&mut self, cred: &FsCreds, ino: Ino, flags: OpenFlags) -> OpResult<()> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        let fs: &mut Filesystem = fs.borrow_mut();
        let inode = fs.inode(ino).map_err(wire)?;
        if inode.is_dir() {
            // Directories are opened with `opendir`.
            return Err(Errno::EISDIR);
        }
        if !inode.is_file() {
            return Err(Errno::EINVAL);
        }
        if flags.readable() {
            fs.check_access_ino(&actor, ino, hpcc_vfs::Access::READ)
                .map_err(wire)?;
        }
        if flags.writable() {
            fs.check_access_ino(&actor, ino, hpcc_vfs::Access::WRITE)
                .map_err(wire)?;
            if flags.truncates() {
                fs.truncate_ino(&actor, ino, 0).map_err(wire)?;
            }
        }
        Ok(())
    }

    fn read(&self, cred: &FsCreds, ino: Ino) -> OpResult<FileBytes> {
        let creds = self.credentials(cred);
        let actor = Actor::new(&creds, &self.userns);
        self.filesystem().file_bytes_ino(&actor, ino).map_err(wire)
    }

    fn write(&mut self, cred: &FsCreds, ino: Ino, offset: u64, data: &[u8]) -> OpResult<u32> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        fs.borrow_mut()
            .write_at_ino(&actor, ino, offset, data)
            .map_err(wire)
    }

    fn create(&mut self, cred: &FsCreds, parent: Ino, name: &str, mode: Mode) -> OpResult<Entry> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        let fs: &mut Filesystem = fs.borrow_mut();
        let ino = fs.create_at(&actor, parent, name, mode).map_err(wire)?;
        let attr = Attr::from(fs.stat_ino(&actor, ino).map_err(wire)?);
        Ok(Entry { ino, attr })
    }

    fn mkdir(&mut self, cred: &FsCreds, parent: Ino, name: &str, mode: Mode) -> OpResult<Entry> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        let fs: &mut Filesystem = fs.borrow_mut();
        let ino = fs.mkdir_at(&actor, parent, name, mode).map_err(wire)?;
        let attr = Attr::from(fs.stat_ino(&actor, ino).map_err(wire)?);
        Ok(Entry { ino, attr })
    }

    fn unlink(&mut self, cred: &FsCreds, parent: Ino, name: &str) -> OpResult<()> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        fs.borrow_mut()
            .unlink_at(&actor, parent, name)
            .map_err(wire)
    }

    fn rmdir(&mut self, cred: &FsCreds, parent: Ino, name: &str) -> OpResult<()> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        fs.borrow_mut().rmdir_at(&actor, parent, name).map_err(wire)
    }

    fn rename(
        &mut self,
        cred: &FsCreds,
        parent: Ino,
        name: &str,
        new_parent: Ino,
        new_name: &str,
    ) -> OpResult<()> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        fs.borrow_mut()
            .rename_at(&actor, parent, name, new_parent, new_name)
            .map_err(wire)
    }

    fn symlink(
        &mut self,
        cred: &FsCreds,
        parent: Ino,
        name: &str,
        target: &str,
    ) -> OpResult<Entry> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        let fs: &mut Filesystem = fs.borrow_mut();
        let ino = fs.symlink_at(&actor, parent, name, target).map_err(wire)?;
        let attr = Attr::from(fs.stat_ino(&actor, ino).map_err(wire)?);
        Ok(Entry { ino, attr })
    }

    fn readdir(&self, cred: &FsCreds, ino: Ino) -> OpResult<Vec<DirEntry>> {
        let creds = self.credentials(cred);
        let actor = Actor::new(&creds, &self.userns);
        let fs = self.filesystem();
        let entries = fs.readdir_ino(&actor, ino).map_err(wire)?;
        Ok(entries
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
            .collect())
    }

    fn statfs(&self, _cred: &FsCreds) -> OpResult<StatfsReply> {
        let fs = self.filesystem();
        Ok(StatfsReply {
            inodes: fs.inode_count() as u64,
            bytes: fs.total_file_bytes(),
            readonly: fs.readonly,
        })
    }

    fn getxattr(&self, cred: &FsCreds, ino: Ino, name: &str) -> OpResult<Vec<u8>> {
        let creds = self.credentials(cred);
        let actor = Actor::new(&creds, &self.userns);
        self.filesystem()
            .get_xattr_ino(&actor, ino, name)
            .map_err(wire)
    }

    fn setxattr(&mut self, cred: &FsCreds, ino: Ino, name: &str, value: &[u8]) -> OpResult<()> {
        let creds = self.credentials(cred);
        let MemFs { fs, userns } = self;
        let actor = Actor::new(&creds, userns);
        fs.borrow_mut()
            .set_xattr_ino(&actor, ino, name, value)
            .map_err(wire)
    }

    fn listxattr(&self, cred: &FsCreds, ino: Ino) -> OpResult<Vec<String>> {
        let creds = self.credentials(cred);
        let actor = Actor::new(&creds, &self.userns);
        self.filesystem().list_xattrs_ino(&actor, ino).map_err(wire)
    }
}
