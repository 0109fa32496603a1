//! The backend trait: what differs between the filesystems a session serves.
//!
//! Every op's VFS logic (lookup, open's access rules, readdir, the xattr
//! reads, …) lives once, in [`Session`](crate::Session). A backend answers
//! only the four questions on which a writable mount and a frozen shared
//! image differ:
//!
//! * **admit** — may this request's credentials use the session at all?
//! * **read** — run a closure over the filesystem, as the request's
//!   principal;
//! * **write** — the same for mutation (`EROFS` on a frozen image);
//! * **resolve** — turn an absolute path into an inode.
//!
//! [`MemFs`](crate::MemFs) admits anyone and derives each request's kernel
//! credentials from its [`FsCreds`], reads and writes under one `Mutex`, and
//! resolves through the VFS's own cached walk
//! ([`Filesystem::resolve`]). [`FrozenImage`](crate::FrozenImage)
//! admits only the principal it was opened for, reads lock-free with
//! credentials derived once, refuses writes, and resolves through the
//! image's pre-warmed index.

use hpcc_kernel::KResult;
use hpcc_vfs::{Actor, Filesystem, Ino};

use crate::op::FsCreds;

/// What a filesystem backend must provide to be served by a
/// [`Session`](crate::Session).
pub trait FsOps {
    /// Admits a request's credentials, or refuses them (`EACCES`). Called
    /// first by every op, including those that only touch the handle table.
    fn admit(&self, cred: &FsCreds) -> KResult<()>;

    /// Runs `op` over the filesystem for reading, as the principal of
    /// `cred` (which [`FsOps::admit`] has admitted).
    fn read<R>(&self, cred: &FsCreds, op: impl FnOnce(&Filesystem, &Actor<'_>) -> R) -> R;

    /// Runs `op` over the filesystem for writing, as the principal of
    /// `cred`, or refuses (`EROFS`) without running it.
    fn write<R>(
        &self,
        cred: &FsCreds,
        op: impl FnOnce(&mut Filesystem, &Actor<'_>) -> KResult<R>,
    ) -> KResult<R>;

    /// Resolves an absolute path inside a [`FsOps::read`], following
    /// intermediate symlinks (and the final one when `follow_final`).
    fn resolve(
        &self,
        fs: &Filesystem,
        actor: &Actor<'_>,
        path: &str,
        follow_final: bool,
    ) -> KResult<Ino>;
}
