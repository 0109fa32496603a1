//! `hpcc-fuseproto`: a FUSE-style operation protocol over the simulated VFS.
//!
//! The build pipeline's [`hpcc_vfs::Filesystem`] was historically reachable
//! only through path-string methods that each thread a borrowed kernel
//! `Actor` by hand — an API a mount, a remote shell, or a network backend
//! cannot speak. This crate defines the **operation-level protocol** those
//! consumers need, shaped like a FUSE session:
//!
//! * typed requests and replies ([`op`]) addressing files by **inode** and
//!   **open handle**, carrying per-request credentials ([`FsCreds`]:
//!   uid/gid/groups, as a FUSE request header does) instead of a borrowed
//!   `Actor`;
//! * errno-coded failures: the simulated kernel's own [`Errno`], whose
//!   Linux numbers travel negated on the wire, as in `fuse_out_header`;
//! * one [`Session`] holding the open-handle table (flags, sequential
//!   offsets, readdir cursors) and every op's VFS logic, and the one
//!   [`Dispatch`] impl that routes requests to it, so anything that pumps
//!   requests — a queue, a wire server — is written once;
//! * a backend trait ([`FsOps`]) saying only what differs between the
//!   filesystems a session serves: [`MemFs`], the in-memory CoW filesystem
//!   served read-write to any requester, and [`FrozenImage`], one
//!   principal's read-only view of a [`SharedImage`] frozen for many
//!   concurrent readers;
//! * the **wire layer**: [`wire`] encodes requests and replies as
//!   FUSE-kernel-ABI-shaped byte frames (opcodes, unique ids, negated
//!   errnos), [`transport`] moves those frames over an in-memory channel,
//!   any `Read + Write` pair, or a Unix socketpair, and [`server`] pumps any
//!   transport into any dispatcher ([`Server`]) with a matching [`Client`]
//!   for the far end;
//! * the **fault layer**: [`fault`] wraps any transport in a deterministic,
//!   seed-replayable fault schedule (drops, corruption, reordering, hard
//!   disconnects), [`retry`] gives the client a per-call deadline with
//!   backoff and idempotent retransmission, and the server's reply cache
//!   plus overload shedding ([`ServeConfig`]) keep at-least-once delivery
//!   exactly-once execution — the chaos suite in `tests/chaos_serve.rs`
//!   holds those invariants over thousands of randomized schedules.
//!
//! Reads are zero-copy end to end: `read` replies window the file's shared
//! copy-on-write [`hpcc_vfs::FileBytes`] handle, so serving a built image
//! never duplicates its content (a wire read copies the windowed bytes
//! once into the reply frame and once through the transport; see
//! [`wire`]). `hpcc-runtime`'s `Container::mount`
//! and `Container::mount_readonly` return a `Session` serving the
//! container's root filesystem read-write or from its shared frozen image,
//! `Container::serve`/`serve_readonly` wrap one in a wire [`Server`], and
//! `examples/fuse_mount.rs` / `examples/fuse_serve.rs` drive builds through
//! the typed and wire surfaces respectively.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod checksum;
pub mod dispatch;
pub mod fault;
pub mod memfs;
pub mod op;
pub mod ops;
pub mod retry;
pub mod server;
pub mod session;
pub mod shared;
pub mod transport;
pub mod wire;

pub use dispatch::Dispatch;
pub use fault::{Fault, FaultCounters, FaultPlan, FaultTransport};
pub use memfs::MemFs;
pub use op::{
    Attr, DirEntry, Entry, FsCreds, OpenFlags, Opened, Operation, ReadReply, Reply, ReplyKind,
    Request, StatfsReply, Written,
};
pub use ops::FsOps;
pub use retry::RetryPolicy;
pub use server::{Client, ClientError, ServeConfig, ServeSummary, Server, ServerEvent, Shutdown};
pub use session::Session;
pub use shared::{FrozenImage, SharedImage};
pub use transport::{ChannelTransport, RecvOutcome, StreamTransport, Transport, TransportError};
pub use wire::{Incoming, WireError, FUSE_ROOT_ID};

#[cfg(unix)]
pub use transport::unix_pair;

// Re-exported so protocol clients can build `Setattr` requests and match
// reply errnos without depending on hpcc-vfs or hpcc-kernel directly.
pub use hpcc_kernel::Errno;
pub use hpcc_vfs::Setattr;

// The property-based suite runs against the offline `proptest` drop-in in
// crates/proptest-shim (a path dev-dependency): `cargo test --features
// proptest` executes it everywhere, and CI runs that as a matrix leg.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use hpcc_kernel::{Credentials, Gid, KResult, Uid, UserNamespace};
    use hpcc_vfs::{Actor, Filesystem, Mode};
    use proptest::prelude::*;

    /// The fixed path pool random ops draw from (same shape as the VFS
    /// resolve-cache suite): parents and children so mkdir/rmdir/rename hit
    /// both empty and populated directories.
    const POOL: [&str; 10] = [
        "/a", "/a/b", "/a/b/f1", "/a/b/f2", "/c", "/c/d", "/c/d/f3", "/f4", "/a/link", "/c/d/e",
    ];

    /// Splits a pool path into (parent path, final name).
    fn split(path: &str) -> (&str, &str) {
        let idx = path.rfind('/').unwrap();
        (if idx == 0 { "/" } else { &path[..idx] }, &path[idx + 1..])
    }

    /// Applies one logical operation through the session (resolving parents
    /// via lookup ops) and the *same* operation through direct path-based
    /// `Filesystem` calls, returning both outcomes as errno codes.
    fn apply(
        session: &mut Session<MemFs>,
        direct: &mut Filesystem,
        actor: &Actor,
        cred: &FsCreds,
        op: u8,
        p1: &str,
        p2: &str,
    ) -> (Option<i32>, Option<i32>) {
        let (parent1, name1) = split(p1);
        let (parent2, name2) = split(p2);
        // Resolve a parent directory the way `resolve_parent` does: a
        // non-directory parent is ENOTDIR at resolution time.
        let sess_parent = |s: &Session<MemFs>, parent: &str| -> KResult<hpcc_vfs::Ino> {
            let e = s.resolve_path(cred, parent, true)?;
            if e.attr.file_type != hpcc_vfs::FileType::Directory {
                return Err(Errno::ENOTDIR);
            }
            Ok(e.ino)
        };
        match op % 6 {
            0 => {
                // Whole-file write: open-or-create + write through a handle
                // (always released) vs direct `write_file`.
                let s_res: KResult<()> = (|| {
                    let parent = sess_parent(session, parent1)?;
                    let fh = match session.lookup(cred, parent, name1) {
                        Ok(e) => {
                            session
                                .open(cred, e.ino, OpenFlags::WRONLY | OpenFlags::TRUNC)?
                                .fh
                        }
                        Err(Errno::ENOENT) => {
                            session
                                .create(cred, parent, name1, Mode::FILE_644, OpenFlags::WRONLY)?
                                .1
                                .fh
                        }
                        Err(e) => return Err(e),
                    };
                    let r = session.write(cred, fh, 0, b"x").map(|_| ());
                    session
                        .release(cred, fh)
                        .expect("release the handle just opened");
                    r
                })();
                let d_res = direct
                    .write_file(actor, p1, b"x".to_vec(), Mode::FILE_644)
                    .map(|_| ());
                (s_res.err().map(|e| e.code()), d_res.err().map(|e| e.code()))
            }
            1 => {
                let s_res = sess_parent(session, parent1)
                    .and_then(|p| session.mkdir(cred, p, name1, Mode::DIR_755).map(|_| ()));
                let d_res = direct.mkdir(actor, p1, Mode::DIR_755).map(|_| ());
                (s_res.err().map(|e| e.code()), d_res.err().map(|e| e.code()))
            }
            2 => {
                let s_res =
                    sess_parent(session, parent1).and_then(|p| session.unlink(cred, p, name1));
                let d_res = direct.unlink(actor, p1);
                (s_res.err().map(|e| e.code()), d_res.err().map(|e| e.code()))
            }
            3 => {
                let s_res =
                    sess_parent(session, parent1).and_then(|p| session.rmdir(cred, p, name1));
                let d_res = direct.rmdir(actor, p1);
                (s_res.err().map(|e| e.code()), d_res.err().map(|e| e.code()))
            }
            4 => {
                let s_res = sess_parent(session, parent1).and_then(|p| {
                    let np = sess_parent(session, parent2)?;
                    session.rename(cred, p, name1, np, name2)
                });
                let d_res = direct.rename(actor, p1, p2);
                (s_res.err().map(|e| e.code()), d_res.err().map(|e| e.code()))
            }
            _ => {
                let mode = Mode::new(if op.is_multiple_of(2) { 0o700 } else { 0o755 });
                let s_res = session.resolve_path(cred, p1, true).and_then(|e| {
                    session
                        .setattr(
                            cred,
                            e.ino,
                            &Setattr {
                                mode: Some(mode),
                                ..Setattr::none()
                            },
                        )
                        .map(|_| ())
                });
                let d_res = direct.chmod(actor, p1, mode);
                (s_res.err().map(|e| e.code()), d_res.err().map(|e| e.code()))
            }
        }
    }

    proptest! {
        /// Random op sequences through a `Session` stay in lockstep with the
        /// same logical operations made directly against a `Filesystem`:
        /// every pool path shows the same existence / type / mode / content,
        /// and every handle opened along the way was released (no leaks).
        #[test]
        fn session_matches_direct_filesystem(
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..40)) {
            let ns = UserNamespace::initial();
            let root_creds = Credentials::host_root();
            let actor = Actor::new(&root_creds, &ns);
            let cred = FsCreds::root();
            let mut direct = Filesystem::new_local();
            let mut session = Session::new(MemFs::new(Filesystem::new_local(), ns.clone()));
            for (op, i, j) in ops {
                let p1 = POOL[i as usize % POOL.len()];
                let p2 = POOL[j as usize % POOL.len()];
                let (s_err, d_err) = apply(&mut session, &mut direct, &actor, &cred, op, p1, p2);
                prop_assert_eq!(s_err, d_err, "op {} on {} / {} diverged", op % 6, p1, p2);
            }
            prop_assert_eq!(session.open_handles(), 0, "handle leak");
            // Same visible state on every pool path.
            for p in POOL {
                let via_ops = session.resolve_path(&cred, p, false).ok();
                let direct_st = direct.lstat(&actor, p).ok();
                match (via_ops, direct_st) {
                    (None, None) => {}
                    (Some(e), Some(st)) => {
                        prop_assert_eq!(e.attr.file_type, st.file_type, "type of {}", p);
                        prop_assert_eq!(e.attr.mode, st.mode, "mode of {}", p);
                        prop_assert_eq!(e.attr.size, st.size, "size of {}", p);
                    }
                    (a, b) => prop_assert!(false, "{} diverged: ops={:?} direct={:?}", p, a.is_some(), b.is_some()),
                }
            }
        }

        /// Open/release pairs never leak, whatever interleaving happens in
        /// between, and a released handle is dead (`EBADF`).
        #[test]
        fn release_always_returns_handles(paths in proptest::collection::vec(0usize..3, 1..24)) {
            const FILES: [&str; 3] = ["/x", "/y", "/z"];
            let ns = UserNamespace::initial();
            let mut fs = Filesystem::new_local();
            for f in FILES {
                fs.install_file(f, b"data".to_vec(), Uid(0), Gid(0), Mode::FILE_644).unwrap();
            }
            let cred = FsCreds::root();
            let session = Session::new(MemFs::new(fs, ns));
            let mut open: Vec<u64> = Vec::new();
            for p in paths {
                let entry = session.resolve_path(&cred, FILES[p], true).unwrap();
                let fh = session.open(&cred, entry.ino, OpenFlags::RDONLY).unwrap().fh;
                prop_assert!(!session.read(&cred, fh, 0, 4).unwrap().is_empty());
                open.push(fh);
                // Occasionally release the oldest handle early.
                if open.len() > 2 {
                    let fh = open.remove(0);
                    prop_assert!(session.release(&cred, fh).is_ok());
                    prop_assert_eq!(session.release(&cred, fh).unwrap_err(), Errno::EBADF);
                }
            }
            prop_assert_eq!(session.open_handles(), open.len());
            for fh in open {
                prop_assert!(session.release(&cred, fh).is_ok());
            }
            prop_assert_eq!(session.open_handles(), 0);
        }
    }
}
