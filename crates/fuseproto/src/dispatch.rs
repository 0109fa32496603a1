//! The dispatch surface: the one contract a [`Server`](crate::Server) pumps
//! requests into.
//!
//! [`Session<B>`] implements it once, for every backend: each [`Request`]
//! is routed to its typed `&self` op with the request's credentials, so a
//! writable mount and a reader of a shared frozen image answer through the
//! same match. What differs between them — `EACCES` for credentials a
//! reader was not opened for, `EROFS` for mutations — is the backend's
//! ([`FsOps`]). `&mut D` forwards, so a server can borrow any dispatcher.

use hpcc_vfs::Ino;

use crate::errno::OpResult;
use crate::op::{Operation, Reply, Request};
use crate::ops::FsOps;
use crate::session::Session;

/// A request dispatcher: anything a [`Server`](crate::Server) can serve.
///
/// `handle` takes `&mut self` so a dispatcher may keep per-connection state
/// without locks; a [`Session`] needs only `&self`.
pub trait Dispatch {
    /// Dispatches one request, encoding the result as a [`Reply`].
    fn handle(&mut self, req: Request) -> Reply;

    /// The root inode resolution starts from (`FUSE_ROOT_ID` on the wire).
    fn root_ino(&self) -> Ino;

    /// Number of currently open handles (files + directories).
    fn open_handles(&self) -> usize;

    /// The client is gone: drop every open handle, as a FUSE daemon does on
    /// unmount. Called by the server on transport close and shutdown.
    fn disconnect(&mut self);

    /// Dispatches a queue of requests in order, one reply per request.
    fn handle_all(&mut self, reqs: impl IntoIterator<Item = Request>) -> Vec<Reply>
    where
        Self: Sized,
    {
        reqs.into_iter().map(|r| self.handle(r)).collect()
    }
}

fn reply(r: OpResult<Reply>) -> Reply {
    r.unwrap_or_else(Reply::Err)
}

impl<B: FsOps> Dispatch for Session<B> {
    fn handle(&mut self, req: Request) -> Reply {
        let cred = &req.cred;
        match req.op {
            Operation::Lookup { parent, name } => {
                reply(self.lookup(cred, parent, &name).map(Reply::Entry))
            }
            Operation::Getattr { ino } => reply(self.getattr(cred, ino).map(Reply::Attr)),
            Operation::Setattr { ino, changes } => {
                reply(self.setattr(cred, ino, &changes).map(Reply::Attr))
            }
            Operation::Readlink { ino } => reply(self.readlink(cred, ino).map(Reply::Link)),
            Operation::Open { ino, flags } => reply(self.open(cred, ino, flags).map(Reply::Opened)),
            Operation::Create {
                parent,
                name,
                mode,
                flags,
            } => reply(
                self.create(cred, parent, &name, mode, flags)
                    .map(|(_, opened)| Reply::Opened(opened)),
            ),
            Operation::Read { fh, offset, size } => {
                reply(self.read(cred, fh, offset, size).map(Reply::Data))
            }
            Operation::Write { fh, offset, data } => {
                reply(self.write(cred, fh, offset, &data).map(Reply::Written))
            }
            Operation::Release { fh } => reply(self.release(cred, fh).map(|()| Reply::Unit)),
            Operation::Opendir { ino } => reply(self.opendir(cred, ino).map(Reply::Opened)),
            Operation::Readdir { fh, offset, max } => {
                reply(self.readdir(cred, fh, offset, max).map(Reply::Dir))
            }
            Operation::Releasedir { fh } => reply(self.releasedir(cred, fh).map(|()| Reply::Unit)),
            Operation::Mkdir { parent, name, mode } => {
                reply(self.mkdir(cred, parent, &name, mode).map(Reply::Entry))
            }
            Operation::Unlink { parent, name } => {
                reply(self.unlink(cred, parent, &name).map(|()| Reply::Unit))
            }
            Operation::Rmdir { parent, name } => {
                reply(self.rmdir(cred, parent, &name).map(|()| Reply::Unit))
            }
            Operation::Rename {
                parent,
                name,
                new_parent,
                new_name,
            } => reply(
                self.rename(cred, parent, &name, new_parent, &new_name)
                    .map(|()| Reply::Unit),
            ),
            Operation::Symlink {
                parent,
                name,
                target,
            } => reply(self.symlink(cred, parent, &name, &target).map(Reply::Entry)),
            Operation::Statfs => reply(self.statfs(cred).map(Reply::Statfs)),
            Operation::Getxattr { ino, name } => {
                reply(self.getxattr(cred, ino, &name).map(Reply::Xattr))
            }
            Operation::Setxattr { ino, name, value } => reply(
                self.setxattr(cred, ino, &name, &value)
                    .map(|()| Reply::Unit),
            ),
            Operation::Listxattr { ino } => reply(self.listxattr(cred, ino).map(Reply::Names)),
        }
    }

    fn root_ino(&self) -> Ino {
        Session::root_ino(self)
    }

    fn open_handles(&self) -> usize {
        Session::open_handles(self)
    }

    fn disconnect(&mut self) {
        self.release_all();
    }
}

/// Forwarding impl: a server may borrow its dispatcher instead of owning it.
impl<D: Dispatch> Dispatch for &mut D {
    fn handle(&mut self, req: Request) -> Reply {
        (**self).handle(req)
    }

    fn root_ino(&self) -> Ino {
        (**self).root_ino()
    }

    fn open_handles(&self) -> usize {
        (**self).open_handles()
    }

    fn disconnect(&mut self) {
        (**self).disconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errno::Errno;
    use crate::memfs::MemFs;
    use crate::op::{FsCreds, OpenFlags};
    use crate::shared::SharedImage;
    use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
    use hpcc_vfs::{Actor, Filesystem, Mode, Setattr};

    fn fs() -> Filesystem {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/etc/hostname",
            b"astra".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        fs
    }

    fn alice() -> FsCreds {
        FsCreds::new(Uid(1000), Gid(1000), vec![Gid(1000)])
    }

    /// A small deterministic PRNG (xorshift64*), as in
    /// `tests/concurrent_stress.rs`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
            pool[(self.next() % pool.len() as u64) as usize]
        }
    }

    /// The shape of `tests/concurrent_stress.rs`'s image, smaller: nested
    /// dirs, files of varying size, absolute and relative symlinks, a
    /// root-only subtree, and an xattr.
    fn stress_tree() -> Filesystem {
        let mut fs = Filesystem::new_local();
        for d in 0..4 {
            for f in 0..4 {
                let content = vec![(d * 16 + f) as u8; 64 + d * 256 + f * 17];
                fs.install_file(
                    &format!("/data/dir{d}/file{f}"),
                    content,
                    Uid(0),
                    Gid(0),
                    Mode::FILE_644,
                )
                .unwrap();
            }
        }
        fs.install_file(
            "/etc/hostname",
            b"astra".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        fs.install_file(
            "/secret/key",
            b"k".to_vec(),
            Uid(0),
            Gid(0),
            Mode::new(0o600),
        )
        .unwrap();
        fs.install_dir("/secret", Uid(0), Gid(0), Mode::new(0o700))
            .unwrap();
        fs.install_symlink("/data/latest", "/data/dir3", Uid(0), Gid(0))
            .unwrap();
        fs.install_symlink("/etc/alias", "hostname", Uid(0), Gid(0))
            .unwrap();
        let creds = Credentials::host_root();
        let ns = UserNamespace::initial();
        fs.set_xattr(
            &Actor::new(&creds, &ns),
            "/etc/hostname",
            "user.origin",
            b"build",
        )
        .unwrap();
        fs
    }

    const PATHS: &[&str] = &[
        "/",
        "/data",
        "/data/dir0",
        "/data/dir0/file0",
        "/data/dir2/file3",
        "/data/dir3/file3",
        "/data/latest",
        "/data/latest/file2",
        "/etc",
        "/etc/hostname",
        "/etc/alias",
        "/etc/hostname/x",
        "/secret",
        "/secret/key",
        "/missing",
        "/data/dir1/missing",
    ];

    const NAMES: &[&str] = &["dir0", "file1", "latest", "hostname", "key", "missing"];

    /// The read ops the script issues, through the typed API.
    fn typed<B: FsOps>(s: &Session<B>, cred: &FsCreds, op: Operation) -> Reply {
        reply(match op {
            Operation::Lookup { parent, name } => s.lookup(cred, parent, &name).map(Reply::Entry),
            Operation::Getattr { ino } => s.getattr(cred, ino).map(Reply::Attr),
            Operation::Readlink { ino } => s.readlink(cred, ino).map(Reply::Link),
            Operation::Open { ino, flags } => s.open(cred, ino, flags).map(Reply::Opened),
            Operation::Read { fh, offset, size } => s.read(cred, fh, offset, size).map(Reply::Data),
            Operation::Release { fh } => s.release(cred, fh).map(|()| Reply::Unit),
            Operation::Opendir { ino } => s.opendir(cred, ino).map(Reply::Opened),
            Operation::Readdir { fh, offset, max } => {
                s.readdir(cred, fh, offset, max).map(Reply::Dir)
            }
            Operation::Releasedir { fh } => s.releasedir(cred, fh).map(|()| Reply::Unit),
            Operation::Statfs => s.statfs(cred).map(Reply::Statfs),
            Operation::Getxattr { ino, name } => s.getxattr(cred, ino, &name).map(Reply::Xattr),
            Operation::Listxattr { ino } => s.listxattr(cred, ino).map(Reply::Names),
            other => panic!("not a read op: {other:?}"),
        })
    }

    /// Runs a seeded read-only script — a lookup of `/etc` and a statfs,
    /// then `tests/concurrent_stress.rs`'s op mix plus lookups, statfs and
    /// the xattr reads — through the typed API when `typed_api`, else
    /// through `Dispatch::handle`, and returns every reply in order. Paths
    /// resolve through `resolve_path` either way; sequential reads use
    /// `read_next` on the typed API and a client-tracked offset on the
    /// dispatch one. Every handle is released before returning.
    fn run_script<B: FsOps>(
        s: &mut Session<B>,
        cred: &FsCreds,
        seed: u64,
        typed_api: bool,
    ) -> Vec<Reply> {
        let mut rng = Rng(seed);
        let mut trace = Vec::new();
        let call = |s: &mut Session<B>, trace: &mut Vec<Reply>, op: Operation| {
            let r = if typed_api {
                typed(s, cred, op)
            } else {
                s.handle(Request::new(cred.clone(), op))
            };
            trace.push(r.clone());
            r
        };
        let resolve = |s: &Session<B>, trace: &mut Vec<Reply>, path: &str, follow: bool| {
            let r = s.resolve_path(cred, path, follow);
            trace.push(reply(r.map(Reply::Entry)));
            r.ok().map(|e| e.ino)
        };
        // Open files with their client-tracked sequential offset, and open
        // directory cursors.
        let mut files: Vec<(u64, u64)> = Vec::new();
        let mut dirs: Vec<u64> = Vec::new();
        let etc = Operation::Lookup {
            parent: s.root_ino(),
            name: "etc".into(),
        };
        call(s, &mut trace, etc);
        call(s, &mut trace, Operation::Statfs);
        for _ in 0..600 {
            match rng.next() % 12 {
                0 | 1 => {
                    let follow = rng.next().is_multiple_of(2);
                    resolve(s, &mut trace, rng.pick(PATHS), follow);
                }
                2..=4 => {
                    let Some(ino) = resolve(s, &mut trace, rng.pick(PATHS), true) else {
                        continue;
                    };
                    let open = Operation::Open {
                        ino,
                        flags: OpenFlags::RDONLY,
                    };
                    let Reply::Opened(o) = call(s, &mut trace, open) else {
                        continue;
                    };
                    let offset = rng.next() % 128;
                    let size = (rng.next() % 4096) as u32;
                    let read = Operation::Read {
                        fh: o.fh,
                        offset,
                        size,
                    };
                    let len = match call(s, &mut trace, read) {
                        Reply::Data(d) => d.len() as u64,
                        _ => 0,
                    };
                    files.push((o.fh, offset + len));
                }
                5 => {
                    let Some(ino) = resolve(s, &mut trace, rng.pick(PATHS), true) else {
                        continue;
                    };
                    if let Reply::Opened(o) = call(s, &mut trace, Operation::Opendir { ino }) {
                        let page = Operation::Readdir {
                            fh: o.fh,
                            offset: 0,
                            max: usize::MAX,
                        };
                        call(s, &mut trace, page);
                        dirs.push(o.fh);
                    }
                }
                6 => {
                    let Some(ino) = resolve(s, &mut trace, rng.pick(PATHS), false) else {
                        continue;
                    };
                    call(s, &mut trace, Operation::Getattr { ino });
                    call(s, &mut trace, Operation::Readlink { ino });
                }
                7 => {
                    let Some((fh, offset)) = files.last_mut() else {
                        continue;
                    };
                    let r = if typed_api {
                        reply(s.read_next(cred, *fh, 64).map(Reply::Data))
                    } else {
                        s.handle(Request::new(
                            cred.clone(),
                            Operation::Read {
                                fh: *fh,
                                offset: *offset,
                                size: 64,
                            },
                        ))
                    };
                    if let Reply::Data(d) = &r {
                        *offset += d.len() as u64;
                    }
                    trace.push(r);
                }
                8 => {
                    if !files.is_empty() {
                        let idx = (rng.next() % files.len() as u64) as usize;
                        let (fh, _) = files.swap_remove(idx);
                        call(s, &mut trace, Operation::Release { fh });
                    }
                }
                9 => {
                    let Some(parent) = resolve(s, &mut trace, rng.pick(PATHS), true) else {
                        continue;
                    };
                    let name = rng.pick(NAMES).to_string();
                    call(s, &mut trace, Operation::Lookup { parent, name });
                }
                10 => {
                    call(s, &mut trace, Operation::Statfs);
                }
                _ => {
                    let Some(ino) = resolve(s, &mut trace, rng.pick(PATHS), true) else {
                        continue;
                    };
                    let name = "user.origin".to_string();
                    call(s, &mut trace, Operation::Getxattr { ino, name });
                    call(s, &mut trace, Operation::Listxattr { ino });
                }
            }
        }
        for (fh, _) in files {
            call(s, &mut trace, Operation::Release { fh });
        }
        for fh in dirs {
            call(s, &mut trace, Operation::Releasedir { fh });
        }
        assert_eq!(s.open_handles(), 0, "the script leaked a handle");
        trace
    }

    /// Checks every `Statfs` reply's read-only flag, then clears it: the one
    /// field in which the two flavors may differ.
    fn without_readonly(trace: Vec<Reply>, readonly: bool) -> Vec<Reply> {
        trace
            .into_iter()
            .map(|r| match r {
                Reply::Statfs(mut st) => {
                    assert_eq!(st.readonly, readonly);
                    st.readonly = false;
                    Reply::Statfs(st)
                }
                other => other,
            })
            .collect()
    }

    /// One seeded read-only script gives the same replies through a
    /// writable `MemFs` session and a reader of the same tree frozen into a
    /// `SharedImage`, typed and dispatched, as root and unprivileged. This
    /// also holds the reader's frozen-index resolve to the writer's lookup
    /// walk.
    #[test]
    fn one_script_runs_through_both_dispatchers() {
        let image = SharedImage::new(stress_tree(), UserNamespace::initial());
        for cred in [FsCreds::root(), alice()] {
            for seed in [0xC0FFEE, 0x5EED] {
                let mut traces = Vec::new();
                for typed_api in [true, false] {
                    let mut writer =
                        Session::new(MemFs::new(stress_tree(), UserNamespace::initial()));
                    let mut reader = image.reader(cred.clone());
                    let w = run_script(&mut writer, &cred, seed, typed_api);
                    let r = run_script(&mut reader, &cred, seed, typed_api);
                    assert!(matches!(w[0], Reply::Entry(_)));
                    assert!(w
                        .iter()
                        .any(|r| matches!(r, Reply::Data(d) if !d.is_empty())));
                    assert!(w.iter().any(|r| r.err() == Some(Errno::ENOENT)));
                    if cred != FsCreds::root() {
                        assert!(w.iter().any(|r| r.err() == Some(Errno::EACCES)));
                    }
                    assert_eq!(w.len(), r.len());
                    let (w, r) = (without_readonly(w, false), without_readonly(r, true));
                    for (i, (a, b)) in w.iter().zip(&r).enumerate() {
                        assert_eq!(a, b, "reply {i} differs (seed {seed:#x}, {cred:?})");
                    }
                    traces.push(w);
                }
                assert_eq!(traces[0], traces[1], "typed and dispatched replies differ");
            }
        }
    }

    /// Names every `Operation` variant; no wildcard, so a new variant
    /// fails to compile until the credential test below covers it.
    fn op_name(op: &Operation) -> &'static str {
        match op {
            Operation::Lookup { .. } => "lookup",
            Operation::Getattr { .. } => "getattr",
            Operation::Setattr { .. } => "setattr",
            Operation::Readlink { .. } => "readlink",
            Operation::Open { .. } => "open",
            Operation::Create { .. } => "create",
            Operation::Read { .. } => "read",
            Operation::Write { .. } => "write",
            Operation::Release { .. } => "release",
            Operation::Opendir { .. } => "opendir",
            Operation::Readdir { .. } => "readdir",
            Operation::Releasedir { .. } => "releasedir",
            Operation::Mkdir { .. } => "mkdir",
            Operation::Unlink { .. } => "unlink",
            Operation::Rmdir { .. } => "rmdir",
            Operation::Rename { .. } => "rename",
            Operation::Symlink { .. } => "symlink",
            Operation::Statfs => "statfs",
            Operation::Getxattr { .. } => "getxattr",
            Operation::Setxattr { .. } => "setxattr",
            Operation::Listxattr { .. } => "listxattr",
        }
    }

    /// A reader serves only the principal it was opened for: every opcode
    /// from anyone else is `EACCES`, typed and dispatched, and executes
    /// nothing — the handles the owner holds survive a foreign `Release`,
    /// `Releasedir` and `Read`, and no foreign open allocates one.
    #[test]
    fn reader_dispatch_rejects_foreign_credentials() {
        let img = SharedImage::new(fs(), UserNamespace::initial());
        let root = FsCreds::root();
        let mut reader = img.reader(root.clone());
        let etc = reader.resolve_path(&root, "/etc", true).unwrap().ino;
        let host = reader
            .resolve_path(&root, "/etc/hostname", true)
            .unwrap()
            .ino;
        let fh = reader.open(&root, host, OpenFlags::RDONLY).unwrap().fh;
        let dh = reader.opendir(&root, etc).unwrap().fh;
        let ops = [
            Operation::Lookup {
                parent: etc,
                name: "hostname".into(),
            },
            Operation::Getattr { ino: host },
            Operation::Setattr {
                ino: host,
                changes: Setattr {
                    mode: Some(Mode::new(0o600)),
                    ..Setattr::none()
                },
            },
            Operation::Readlink { ino: host },
            Operation::Open {
                ino: host,
                flags: OpenFlags::RDONLY,
            },
            Operation::Create {
                parent: etc,
                name: "new".into(),
                mode: Mode::FILE_644,
                flags: OpenFlags::WRONLY,
            },
            Operation::Read {
                fh,
                offset: 0,
                size: 2,
            },
            Operation::Write {
                fh,
                offset: 0,
                data: b"x".to_vec(),
            },
            Operation::Release { fh },
            Operation::Opendir { ino: etc },
            Operation::Readdir {
                fh: dh,
                offset: 0,
                max: 8,
            },
            Operation::Releasedir { fh: dh },
            Operation::Mkdir {
                parent: etc,
                name: "d".into(),
                mode: Mode::DIR_755,
            },
            Operation::Unlink {
                parent: etc,
                name: "hostname".into(),
            },
            Operation::Rmdir {
                parent: 1,
                name: "etc".into(),
            },
            Operation::Rename {
                parent: etc,
                name: "hostname".into(),
                new_parent: etc,
                new_name: "h2".into(),
            },
            Operation::Symlink {
                parent: etc,
                name: "l".into(),
                target: "hostname".into(),
            },
            Operation::Statfs,
            Operation::Getxattr {
                ino: host,
                name: "user.x".into(),
            },
            Operation::Setxattr {
                ino: host,
                name: "user.x".into(),
                value: b"v".to_vec(),
            },
            Operation::Listxattr { ino: host },
        ];
        let mut names: Vec<&str> = ops.iter().map(op_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21, "every opcode once");

        let a = alice();
        for op in ops {
            let name = op_name(&op);
            let dispatched = reader.handle(Request::new(a.clone(), op.clone()));
            assert_eq!(dispatched.err(), Some(Errno::EACCES), "dispatched {name}");
            let typed_err = match op {
                Operation::Lookup { parent, name } => reader.lookup(&a, parent, &name).err(),
                Operation::Getattr { ino } => reader.getattr(&a, ino).err(),
                Operation::Setattr { ino, changes } => reader.setattr(&a, ino, &changes).err(),
                Operation::Readlink { ino } => reader.readlink(&a, ino).err(),
                Operation::Open { ino, flags } => reader.open(&a, ino, flags).err(),
                Operation::Create {
                    parent,
                    name,
                    mode,
                    flags,
                } => reader.create(&a, parent, &name, mode, flags).err(),
                Operation::Read { fh, offset, size } => reader.read(&a, fh, offset, size).err(),
                Operation::Write { fh, offset, data } => reader.write(&a, fh, offset, &data).err(),
                Operation::Release { fh } => reader.release(&a, fh).err(),
                Operation::Opendir { ino } => reader.opendir(&a, ino).err(),
                Operation::Readdir { fh, offset, max } => reader.readdir(&a, fh, offset, max).err(),
                Operation::Releasedir { fh } => reader.releasedir(&a, fh).err(),
                Operation::Mkdir { parent, name, mode } => {
                    reader.mkdir(&a, parent, &name, mode).err()
                }
                Operation::Unlink { parent, name } => reader.unlink(&a, parent, &name).err(),
                Operation::Rmdir { parent, name } => reader.rmdir(&a, parent, &name).err(),
                Operation::Rename {
                    parent,
                    name,
                    new_parent,
                    new_name,
                } => reader
                    .rename(&a, parent, &name, new_parent, &new_name)
                    .err(),
                Operation::Symlink {
                    parent,
                    name,
                    target,
                } => reader.symlink(&a, parent, &name, &target).err(),
                Operation::Statfs => reader.statfs(&a).err(),
                Operation::Getxattr { ino, name } => reader.getxattr(&a, ino, &name).err(),
                Operation::Setxattr { ino, name, value } => {
                    reader.setxattr(&a, ino, &name, &value).err()
                }
                Operation::Listxattr { ino } => reader.listxattr(&a, ino).err(),
            };
            assert_eq!(typed_err, Some(Errno::EACCES), "typed {name}");
        }

        // Nothing executed: both handles are still open, the file cursor
        // never moved, and the session's own credentials still work.
        assert_eq!(reader.open_handles(), 2);
        assert_eq!(
            reader.read_next(&root, fh, 64).unwrap().as_slice(),
            b"astra"
        );
        let r = reader.handle(Request::new(
            root.clone(),
            Operation::Getattr {
                ino: Dispatch::root_ino(&reader),
            },
        ));
        assert!(r.is_ok());
        reader.release(&root, fh).unwrap();
        reader.releasedir(&root, dh).unwrap();
        assert_eq!(reader.open_handles(), 0);
    }

    #[test]
    fn disconnect_releases_every_handle_on_both_flavors() {
        let root = FsCreds::root();
        let mut session = Session::new(MemFs::new(fs(), UserNamespace::initial()));
        let host = session.resolve_path(&root, "/etc/hostname", true).unwrap();
        session.open(&root, host.ino, OpenFlags::RDONLY).unwrap();
        let etc = session.resolve_path(&root, "/etc", true).unwrap();
        session.opendir(&root, etc.ino).unwrap();
        assert_eq!(Dispatch::open_handles(&session), 2);
        session.disconnect();
        assert_eq!(Dispatch::open_handles(&session), 0);

        let mut reader = SharedImage::new(fs(), UserNamespace::initial()).reader(root.clone());
        let host = reader.resolve_path(&root, "/etc/hostname", true).unwrap();
        reader.open(&root, host.ino, OpenFlags::RDONLY).unwrap();
        let etc = reader.resolve_path(&root, "/etc", true).unwrap();
        reader.opendir(&root, etc.ino).unwrap();
        assert_eq!(Dispatch::open_handles(&reader), 2);
        reader.disconnect();
        assert_eq!(Dispatch::open_handles(&reader), 0);
    }
}
