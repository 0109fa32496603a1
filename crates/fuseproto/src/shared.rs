//! Concurrent multi-reader serving: one shared immutable image, many cheap
//! per-client reader sessions, no global lock on the read path.
//!
//! This module is the paper's end state — an unprivileged image on shared
//! storage read by many jobs at once:
//!
//! * [`SharedImage`] holds **one** `Arc`-shared frozen filesystem (the
//!   structural-sharing inode table and every file's copy-on-write
//!   [`FileBytes`](hpcc_vfs::FileBytes) buffer exist once, however many
//!   clients mount it) plus a pre-warmed lock-free
//!   [`FrozenResolver`] index over every path.
//! * [`SharedImage::reader`] hands out a [`Session`] per client over a
//!   [`FrozenImage`] backend: an `Arc` bump, the client's credentials
//!   derived once, and an empty handle table. Every op takes `&self`, so one
//!   reader may even be driven from several threads.
//!
//! The hot read path acquires no global `Mutex` anywhere: path resolution
//! probes the frozen index (immutable `HashMap`, re-running per-client
//! EXECUTE checks on each hit), inode and byte access are lock-free reads of
//! the persistent trie, and the session's handle table is sharded. A reader
//! authenticates once, like a mount: a request carrying other credentials is
//! refused with `EACCES` on every opcode, and every mutation is `EROFS`.

use std::sync::Arc;

use hpcc_kernel::{Credentials, Errno, KResult, UserNamespace};
use hpcc_vfs::{Actor, Filesystem, FrozenResolver, Ino};

use crate::memfs::derive_credentials;
use crate::op::FsCreds;
use crate::ops::FsOps;
use crate::session::Session;

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

    /// The served filesystem.
    pub fn filesystem(&self) -> &Filesystem {
        &self.inner.fs
    }

    /// The mount's user namespace.
    pub fn userns(&self) -> &UserNamespace {
        &self.inner.userns
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
    /// credential derivation — no filesystem copy of any kind. The session
    /// serves `cred` only, and re-checks permissions as `cred` on every op.
    pub fn reader(&self, cred: FsCreds) -> Session<FrozenImage> {
        let creds = derive_credentials(&self.inner.userns, &cred);
        Session::new(FrozenImage {
            image: self.clone(),
            cred,
            creds,
        })
    }
}

/// The backend of a [`SharedImage::reader`] session: one principal's view
/// of the frozen image.
#[derive(Debug)]
pub struct FrozenImage {
    image: SharedImage,
    cred: FsCreds,
    /// Kernel credentials derived from `cred` once, when the reader opened —
    /// per-op derivation would clone the groups vector on the hot path.
    creds: Credentials,
}

impl FrozenImage {
    /// The image this reader reads.
    pub fn image(&self) -> &SharedImage {
        &self.image
    }

    /// The wire credentials this reader authenticated with.
    pub fn cred(&self) -> &FsCreds {
        &self.cred
    }
}

impl FsOps for FrozenImage {
    /// Only the principal the reader was opened for.
    fn admit(&self, cred: &FsCreds) -> KResult<()> {
        if *cred == self.cred {
            Ok(())
        } else {
            Err(Errno::EACCES)
        }
    }

    fn read<R>(&self, _cred: &FsCreds, op: impl FnOnce(&Filesystem, &Actor<'_>) -> R) -> R {
        op(
            &self.image.inner.fs,
            &Actor::new(&self.creds, &self.image.inner.userns),
        )
    }

    fn write<R>(
        &self,
        _cred: &FsCreds,
        _op: impl FnOnce(&mut Filesystem, &Actor<'_>) -> KResult<R>,
    ) -> KResult<R> {
        Err(Errno::EROFS)
    }

    /// Probes the frozen index (O(1) for every symlink-free path in the
    /// image, no lock), falling back to an uncached walk for symlinks and
    /// unindexed paths.
    fn resolve(
        &self,
        fs: &Filesystem,
        actor: &Actor<'_>,
        path: &str,
        follow_final: bool,
    ) -> KResult<Ino> {
        let resolver = &self.image.inner.resolver;
        if follow_final {
            resolver.resolve(fs, actor, path)
        } else {
            resolver.resolve_no_follow(fs, actor, path)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpenFlags;
    use crate::session::tests::{page_etc, wrap_fh_counter};
    use hpcc_kernel::{Gid, Uid};
    use hpcc_vfs::{Mode, Setattr};

    /// The whole stack must be shareable across threads by construction.
    #[test]
    fn shared_types_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<SharedImage>();
        check::<Session<FrozenImage>>();
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
    fn shared_handle_table_survives_wraparound_without_aliasing() {
        let root = FsCreds::root();
        wrap_fh_counter(&image().reader(root.clone()), &root);
    }

    #[test]
    fn readdir_cursor_pages_through_a_shared_reader() {
        let root = FsCreds::root();
        page_etc(&image().reader(root.clone()), &root, |_| {});
    }

    #[test]
    fn readers_share_one_image_zero_copy() {
        let img = image();
        let root = FsCreds::root();
        let r1 = img.reader(root.clone());
        let r2 = img.reader(root.clone());
        assert!(r1.backend().image().ptr_eq(r2.backend().image()));
        let e1 = r1.resolve_path(&root, "/etc/hostname", true).unwrap();
        let e2 = r2.resolve_path(&root, "/etc/hostname", true).unwrap();
        assert_eq!(e1.ino, e2.ino);
        let o1 = r1.open(&root, e1.ino, OpenFlags::RDONLY).unwrap();
        let o2 = r2.open(&root, e2.ino, OpenFlags::RDONLY).unwrap();
        let d1 = r1.read(&root, o1.fh, 0, 64).unwrap();
        let d2 = r2.read(&root, o2.fh, 0, 64).unwrap();
        assert_eq!(d1.as_slice(), b"astra");
        // Both replies window the *same* buffer: nothing was snapshotted or
        // copied per client.
        assert!(d1.bytes().shares_buffer_with(d2.bytes()));
        let direct = img
            .filesystem()
            .file_bytes_ino(&Actor::new(&Credentials::host_root(), img.userns()), e1.ino)
            .unwrap();
        assert!(d1.bytes().shares_buffer_with(&direct));
        r1.release(&root, o1.fh).unwrap();
        r2.release(&root, o2.fh).unwrap();
        assert_eq!(r1.open_handles() + r2.open_handles(), 0);
    }

    #[test]
    fn per_client_credentials_are_enforced() {
        let img = image();
        let alice_cred = FsCreds::new(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let root_cred = FsCreds::root();
        let alice = img.reader(alice_cred.clone());
        let root = img.reader(root_cred.clone());
        let secret = root.resolve_path(&root_cred, "/etc/secret", true).unwrap();
        assert_eq!(
            alice
                .open(&alice_cred, secret.ino, OpenFlags::RDONLY)
                .unwrap_err(),
            Errno::EACCES
        );
        let o = root
            .open(&root_cred, secret.ino, OpenFlags::RDONLY)
            .unwrap();
        assert_eq!(root.read(&root_cred, o.fh, 0, 8).unwrap().as_slice(), b"k");
        root.release(&root_cred, o.fh).unwrap();
    }

    #[test]
    fn every_mutation_is_erofs() {
        let img = image();
        let root = FsCreds::root();
        let r = img.reader(root.clone());
        let etc = r.resolve_path(&root, "/etc", true).unwrap();
        let host = r.resolve_path(&root, "/etc/hostname", true).unwrap();
        assert_eq!(
            r.open(&root, host.ino, OpenFlags::RDWR).unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.open(&root, host.ino, OpenFlags::RDONLY | OpenFlags::TRUNC)
                .unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.mkdir(&root, etc.ino, "x", Mode::DIR_755).unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.create(&root, etc.ino, "x", Mode::FILE_644, OpenFlags::WRONLY)
                .unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.unlink(&root, etc.ino, "hostname").unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(r.rmdir(&root, etc.ino, "x").unwrap_err(), Errno::EROFS);
        assert_eq!(
            r.rename(&root, etc.ino, "hostname", etc.ino, "h2")
                .unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.symlink(&root, etc.ino, "l", "hostname").unwrap_err(),
            Errno::EROFS
        );
        // No reader handle is ever writable, so a write names no writable
        // handle: `EBADF`, as `write(2)` answers for an fd not opened for
        // writing.
        assert_eq!(r.write(&root, 1, 0, b"x").unwrap_err(), Errno::EBADF);
        let ro = r.open(&root, host.ino, OpenFlags::RDONLY).unwrap();
        assert_eq!(r.write(&root, ro.fh, 0, b"x").unwrap_err(), Errno::EBADF);
        r.release(&root, ro.fh).unwrap();
        assert_eq!(
            r.setxattr(&root, host.ino, "user.x", b"v").unwrap_err(),
            Errno::EROFS
        );
        assert_eq!(
            r.setattr(&root, host.ino, &Setattr::default()).unwrap_err(),
            Errno::EROFS
        );
        assert!(r.statfs(&root).unwrap().readonly);
    }

    #[test]
    fn symlinks_resolve_through_the_fallback_path() {
        let img = image();
        let root = FsCreds::root();
        let r = img.reader(root.clone());
        let direct = r.resolve_path(&root, "/etc/hostname", true).unwrap();
        let via_link = r.resolve_path(&root, "/etc/alias", true).unwrap();
        assert_eq!(direct.ino, via_link.ino);
        let no_follow = r.resolve_path(&root, "/etc/alias", false).unwrap();
        assert_eq!(no_follow.attr.file_type, hpcc_vfs::FileType::Symlink);
        assert_eq!(r.readlink(&root, no_follow.ino).unwrap(), "hostname");
    }
}
