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
//! `Mutex`; a mount served to one client takes it uncontended. Paths
//! resolve through the VFS's own walk ([`Filesystem::resolve`] and its
//! resolve cache), so a mount follows symlinks and answers `ELOOP`
//! exactly as the filesystem does.
//!
//! `Container::mount` is implemented in the `hpcc-runtime` crate.

use std::borrow::BorrowMut;
use std::sync::Mutex;

use hpcc_kernel::sync::lock_recover;
use hpcc_kernel::{Credentials, KResult, UserNamespace};
use hpcc_vfs::{Actor, Filesystem, Ino};

use crate::op::FsCreds;
use crate::ops::FsOps;

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

impl<F: BorrowMut<Filesystem>> FsOps for MemFs<F> {
    /// A writable mount serves any requester, with that requester's
    /// privilege.
    fn admit(&self, _cred: &FsCreds) -> KResult<()> {
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
        op: impl FnOnce(&mut Filesystem, &Actor<'_>) -> KResult<R>,
    ) -> KResult<R> {
        let creds = derive_credentials(&self.userns, cred);
        let mut fs = lock_recover(&self.fs);
        op((*fs).borrow_mut(), &Actor::new(&creds, &self.userns))
    }

    /// The VFS's own walk, through the filesystem's resolve cache.
    fn resolve(
        &self,
        fs: &Filesystem,
        actor: &Actor<'_>,
        path: &str,
        follow_final: bool,
    ) -> KResult<Ino> {
        if follow_final {
            fs.resolve(actor, path)
        } else {
            fs.resolve_no_follow(actor, path)
        }
    }
}
