//! Backend: the in-memory CoW filesystem, writable.
//!
//! [`MemFs`] serves an [`hpcc_vfs::Filesystem`] read-write through a
//! [`Session`](crate::Session). It is generic over how it holds the
//! filesystem — by value (`MemFs<Filesystem>`, what `Container::mount` uses
//! with an O(1) CoW snapshot) or by mutable borrow
//! (`MemFs<&mut Filesystem>`, what the shell uses to route builtins through
//! ops without giving up ownership). Read-only mounts are served from a
//! [`SharedImage`](crate::SharedImage) instead.
//!
//! Every session op takes `&self`, so the filesystem sits behind one
//! `Mutex`; a mount served to one client takes it uncontended.
//!
//! `Container::mount` is implemented in the `hpcc-runtime` crate.

use std::borrow::BorrowMut;
use std::sync::Mutex;

use hpcc_kernel::sync::lock_recover;
use hpcc_kernel::{Credentials, UserNamespace};
use hpcc_vfs::{Actor, FileType, Filesystem, Ino, PathComponents};

use crate::errno::OpResult;
use crate::op::FsCreds;
use crate::ops::FsOps;
use crate::Errno;

/// Maximum symlink traversals in a lookup walk before `ELOOP`.
const MAX_SYMLINK_DEPTH: u32 = 40;

/// The in-memory copy-on-write filesystem served read-write.
///
/// Holds the filesystem plus the user namespace the mount belongs to; each
/// request synthesizes kernel credentials from its [`FsCreds`]: a requester
/// whose UID maps to root in that namespace gets full in-namespace
/// capabilities (the kernel's rule for namespace-root processes), everyone
/// else is unprivileged. This reproduces exactly the privilege a process
/// would have making the same syscalls inside the container.
#[derive(Debug)]
pub struct MemFs<F = Filesystem> {
    fs: Mutex<F>,
    userns: UserNamespace,
}

impl<F: BorrowMut<Filesystem>> MemFs<F> {
    /// Creates a backend over `fs` (owned or `&mut`-borrowed), serving it in
    /// `userns`.
    pub fn new(fs: F, userns: UserNamespace) -> Self {
        MemFs {
            fs: Mutex::new(fs),
            userns,
        }
    }
}

/// Synthesizes kernel credentials for a request in `userns`: a requester
/// whose UID maps to root in that namespace gets full in-namespace
/// capabilities (the kernel's rule for namespace-root processes), everyone
/// else is unprivileged. [`MemFs`] derives them per request that reaches
/// the filesystem; a `SharedImage` reader once, when it is opened.
pub(crate) fn derive_credentials(userns: &UserNamespace, cred: &FsCreds) -> Credentials {
    let base = Credentials::unprivileged_user(cred.uid, cred.gid, cred.groups.clone());
    if userns.uid_to_ns(cred.uid).is_some_and(|u| u.is_root()) {
        base.entered_own_namespace()
    } else {
        base
    }
}

/// Maps a kernel error into the wire errno.
pub(crate) fn wire(e: hpcc_kernel::Errno) -> Errno {
    Errno::from(e)
}

impl<F: BorrowMut<Filesystem>> FsOps for MemFs<F> {
    /// A writable mount serves any requester, with that requester's
    /// privilege.
    fn admit(&self, _cred: &FsCreds) -> OpResult<()> {
        Ok(())
    }

    fn read<R>(&self, cred: &FsCreds, op: impl FnOnce(&Filesystem, &Actor<'_>) -> R) -> R {
        let creds = derive_credentials(&self.userns, cred);
        let fs = lock_recover(&self.fs);
        op((*fs).borrow(), &Actor::new(&creds, &self.userns))
    }

    fn write<R>(
        &self,
        cred: &FsCreds,
        op: impl FnOnce(&mut Filesystem, &Actor<'_>) -> OpResult<R>,
    ) -> OpResult<R> {
        let creds = derive_credentials(&self.userns, cred);
        let mut fs = lock_recover(&self.fs);
        op((*fs).borrow_mut(), &Actor::new(&creds, &self.userns))
    }

    /// Chains `lookup`s from the root, exactly as a FUSE client's kernel
    /// would drive the protocol.
    fn resolve(
        &self,
        fs: &Filesystem,
        actor: &Actor<'_>,
        path: &str,
        follow_final: bool,
    ) -> OpResult<Ino> {
        walk(fs, actor, path, follow_final, 0)
    }
}

/// The lookup walk: one `lookup` per component from the root, following
/// each intermediate symlink (and the final one when `follow_final`) by
/// re-walking its target with the rest of the path appended.
fn walk(
    fs: &Filesystem,
    actor: &Actor<'_>,
    path: &str,
    follow_final: bool,
    depth: u32,
) -> OpResult<Ino> {
    if depth > MAX_SYMLINK_DEPTH {
        return Err(Errno::ELOOP);
    }
    let comps = PathComponents::parse(path);
    let comps = comps.as_slice();
    let mut cur = fs.root_ino();
    for (i, &name) in comps.iter().enumerate() {
        let is_last = i + 1 == comps.len();
        let ino = fs.lookup_at(actor, cur, name).map_err(wire)?;
        let is_symlink = fs.inode(ino).map_err(wire)?.file_type() == FileType::Symlink;
        if is_symlink && (!is_last || follow_final) {
            let target = fs.readlink_ino(actor, ino).map_err(wire)?;
            let rest = comps.get(i + 1..).unwrap_or(&[]).join("/");
            let resolved = if target.starts_with('/') {
                if rest.is_empty() {
                    target
                } else {
                    format!("{}/{}", target, rest)
                }
            } else {
                let parent = comps.get(..i).unwrap_or(&[]).join("/");
                let mut p = format!("/{}/{}", parent, target);
                if !rest.is_empty() {
                    p = format!("{}/{}", p, rest);
                }
                p
            };
            return walk(fs, actor, &resolved, follow_final, depth + 1);
        }
        cur = ino;
    }
    Ok(cur)
}
