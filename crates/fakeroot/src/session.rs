//! A `fakeroot(1)` session: system-call interposition over the simulated VFS.
//!
//! The session intercepts privileged and privileged-adjacent calls and "lies"
//! about their results, remembering the lies so later calls are consistent
//! (paper §5.1, Figure 7). Non-privileged calls (e.g. `stat(2)`) really are
//! made, then adjusted.
//!
//! Forwarded calls speak the VFS's inode-level op surface (resolve once,
//! then `stat_ino`/`setattr_ino`/`unlink_at` — the same protocol a FUSE
//! backend serves) rather than re-resolving per path-string method.

use hpcc_kernel::{Errno, Gid, KResult, Uid};
use hpcc_vfs::{Actor, FileType, Filesystem, Mode, Setattr, Stat};

use crate::db::LieDatabase;
use crate::flavor::{Flavor, InterceptOp};

/// Counts of what the wrapper did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Calls intercepted and faked.
    pub intercepted: u64,
    /// Calls passed through to the real VFS.
    pub passed_through: u64,
    /// Calls that failed even after wrapping.
    pub failed: u64,
}

/// An active wrapper session.
#[derive(Debug, Clone)]
pub struct FakerootSession {
    /// Which implementation this session emulates.
    pub flavor: Flavor,
    /// Lies told so far.
    pub db: LieDatabase,
    stats: SessionStats,
}

impl FakerootSession {
    /// Starts a fresh session.
    pub fn new(flavor: Flavor) -> Self {
        FakerootSession {
            flavor,
            db: LieDatabase::new(),
            stats: SessionStats::default(),
        }
    }

    /// Resumes a session from a previously saved database (`fakeroot -i`).
    pub fn with_db(flavor: Flavor, db: LieDatabase) -> Self {
        FakerootSession {
            flavor,
            db,
            stats: SessionStats::default(),
        }
    }

    /// Session statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Checks that this wrapper can interpose on an executable with the given
    /// properties. LD_PRELOAD wrappers cannot wrap statically linked
    /// executables; ptrace wrappers are architecture-limited (paper §5.1).
    pub fn can_wrap(&self, statically_linked: bool, arch: &str) -> KResult<()> {
        if statically_linked && !self.flavor.supports_static_binaries() {
            return Err(Errno::ENOSYS);
        }
        if !self.flavor.supports_architecture(arch) {
            return Err(Errno::ENOSYS);
        }
        Ok(())
    }

    fn canonical(path: &str) -> String {
        // Runs per intercepted syscall during a wrapped package install.
        hpcc_vfs::path::canonical(path)
    }

    /// Wrapped `chown(2)`. If intercepted, the call "succeeds" without
    /// touching real ownership; otherwise it is passed through (and will
    /// usually fail for unprivileged callers).
    pub fn chown(
        &mut self,
        fs: &mut Filesystem,
        actor: &Actor,
        path: &str,
        uid: Option<Uid>,
        gid: Option<Gid>,
    ) -> KResult<()> {
        self.change_owner(fs, actor, path, uid, gid, InterceptOp::Chown)
    }

    /// Wrapped `lchown(2)` (ownership of the symlink itself). Coverage of
    /// this call differs between implementations.
    pub fn lchown(
        &mut self,
        fs: &mut Filesystem,
        actor: &Actor,
        path: &str,
        uid: Option<Uid>,
        gid: Option<Gid>,
    ) -> KResult<()> {
        self.change_owner(fs, actor, path, uid, gid, InterceptOp::Lchown)
    }

    /// `chown` and `lchown`: `op` picks whether the final symlink is
    /// followed and which coverage bit decides interception. One resolve
    /// per call either way.
    fn change_owner(
        &mut self,
        fs: &mut Filesystem,
        actor: &Actor,
        path: &str,
        uid: Option<Uid>,
        gid: Option<Gid>,
        op: InterceptOp,
    ) -> KResult<()> {
        let resolved = if op == InterceptOp::Lchown {
            fs.resolve_no_follow(actor, path)
        } else {
            fs.resolve(actor, path)
        };
        if self.flavor.intercepts(op) {
            // The file must exist; fakeroot does not fake ENOENT away.
            resolved?;
            let key = Self::canonical(path);
            // Inside the wrapper everything appears root-owned by default, so
            // an unspecified UID/GID stays at the previously-lied value or 0.
            let cur = self.db.get(&key);
            let new_uid = uid.map_or_else(|| cur.map_or(0, |r| r.uid), |u| u.0);
            let new_gid = gid.map_or_else(|| cur.map_or(0, |r| r.gid), |g| g.0);
            self.db.record_chown(&key, new_uid, new_gid);
            self.stats.intercepted += 1;
            Ok(())
        } else {
            self.stats.passed_through += 1;
            let r = resolved.and_then(|ino| {
                fs.setattr_ino(
                    actor,
                    ino,
                    &Setattr {
                        uid,
                        gid,
                        ..Setattr::default()
                    },
                )
            });
            if r.is_err() {
                self.stats.failed += 1;
            }
            r
        }
    }

    /// Wrapped `chmod(2)`: really applies what it can (the caller owns the
    /// file) and records the requested mode — including setuid/setgid bits
    /// that the real filesystem may refuse — in the lie database.
    pub fn chmod(
        &mut self,
        fs: &mut Filesystem,
        actor: &Actor,
        path: &str,
        mode: Mode,
    ) -> KResult<()> {
        if self.flavor.intercepts(InterceptOp::Chmod) {
            // One resolution; existence is still required even if the real
            // chmod is refused.
            let ino = fs.resolve(actor, path)?;
            let _ = fs.chmod_ino(actor, ino, Mode::new(mode.bits() & 0o777));
            self.db.record_chmod(&Self::canonical(path), mode);
            self.stats.intercepted += 1;
            Ok(())
        } else {
            self.stats.passed_through += 1;
            let r = fs
                .resolve(actor, path)
                .and_then(|ino| fs.chmod_ino(actor, ino, mode));
            if r.is_err() {
                self.stats.failed += 1;
            }
            r
        }
    }

    /// Wrapped `mknod(2)`. Device nodes are faked as empty regular files with
    /// a lie recording the device type — exactly what Figure 7 shows
    /// (`test.dev` looks like a character device inside the wrapper and a
    /// regular file outside).
    #[allow(clippy::too_many_arguments)]
    pub fn mknod(
        &mut self,
        fs: &mut Filesystem,
        actor: &Actor,
        path: &str,
        file_type: FileType,
        major: u32,
        minor: u32,
        mode: Mode,
    ) -> KResult<()> {
        if file_type.is_device() && self.flavor.intercepts(InterceptOp::Mknod) {
            fs.write_file(actor, path, Vec::new(), Mode::new(mode.bits() & 0o777))?;
            let key = Self::canonical(path);
            self.db.record_mknod(&key, file_type, major, minor);
            self.db.record_chown(&key, 0, 0);
            // Preserve the requested mode in the lie as well.
            self.db.record_chmod(&key, mode);
            self.stats.intercepted += 1;
            Ok(())
        } else {
            self.stats.passed_through += 1;
            let r = fs
                .mknod(actor, path, file_type, major, minor, mode)
                .map(|_| ());
            if r.is_err() {
                self.stats.failed += 1;
            }
            r
        }
    }

    /// Wrapped `setxattr(2)` for security attributes (capabilities). Only
    /// implementations covering xattrs can fake it.
    pub fn set_security_xattr(
        &mut self,
        fs: &mut Filesystem,
        actor: &Actor,
        path: &str,
        _name: &str,
        _value: &[u8],
    ) -> KResult<()> {
        if self.flavor.intercepts(InterceptOp::Xattr) {
            fs.stat(actor, path)?;
            self.stats.intercepted += 1;
            Ok(())
        } else {
            self.stats.passed_through += 1;
            self.stats.failed += 1;
            Err(Errno::EPERM)
        }
    }

    /// Wrapped `stat(2)`: the real call (resolve + `stat_ino`) adjusted by
    /// recorded lies.
    pub fn stat(&self, fs: &Filesystem, actor: &Actor, path: &str) -> KResult<Stat> {
        Ok(self.lie_about(path, fs.stat(actor, path)?))
    }

    /// Applies the lies recorded for `path` to a real stat.
    fn lie_about(&self, path: &str, mut st: Stat) -> Stat {
        if let Some(lie) = self.db.get(&Self::canonical(path)) {
            st.uid_view = Uid(lie.uid);
            st.gid_view = Gid(lie.gid);
            if let Some(m) = lie.mode {
                st.mode = m;
            }
            if let Some(ft) = lie.file_type {
                st.file_type = ft;
            }
            if lie.rdev.is_some() {
                st.rdev = lie.rdev;
            }
        } else {
            // Inside fakeroot everything appears root-owned by default.
            st.uid_view = Uid::ROOT;
            st.gid_view = Gid::ROOT;
        }
        st
    }

    /// Wrapped `unlink(2)`: forwards (as a parent-directory entry op) and
    /// forgets lies about the path.
    pub fn unlink(&mut self, fs: &mut Filesystem, actor: &Actor, path: &str) -> KResult<()> {
        let (parent, name) = fs.resolve_parent(actor, path)?;
        fs.unlink_at(actor, parent, &name)?;
        self.db.forget(&Self::canonical(path));
        Ok(())
    }

    /// `ls -lh` as seen *inside* the wrapper (Figure 7, lines 5–7): the
    /// real `lstat(2)` adjusted by recorded lies, so a symlink lists as
    /// itself, as with real fakeroot.
    pub fn ls_line(
        &self,
        fs: &Filesystem,
        actor: &Actor,
        path: &str,
        user_name: impl Fn(Uid) -> String,
        group_name: impl Fn(Gid) -> String,
    ) -> KResult<String> {
        let st = self.lie_about(path, fs.lstat(actor, path)?);
        Ok(st.ls_line(path, user_name, group_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Credentials, UserNamespace};

    fn setup() -> (Filesystem, Credentials, UserNamespace) {
        let mut fs = Filesystem::new_local();
        fs.install_dir("/work", Uid(1000), Gid(1000), Mode::new(0o755))
            .unwrap();
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let ns = UserNamespace::initial();
        (fs, creds, ns)
    }

    fn names(u: Uid) -> String {
        match u.0 {
            0 => "root".to_string(),
            1000 => "alice".to_string(),
            65534 => "nobody".to_string(),
            other => other.to_string(),
        }
    }

    fn gnames(g: Gid) -> String {
        match g.0 {
            0 => "root".to_string(),
            1000 => "alice".to_string(),
            65534 => "nogroup".to_string(),
            other => other.to_string(),
        }
    }

    #[test]
    fn figure7_chown_and_mknod_inside_vs_outside() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        let mut session = FakerootSession::new(Flavor::Fakeroot);

        // + touch test.file
        fs.write_file(&actor, "/work/test.file", Vec::new(), Mode::new(0o640))
            .unwrap();
        // + chown nobody test.file
        session
            .chown(&mut fs, &actor, "/work/test.file", Some(Uid(65534)), None)
            .unwrap();
        // + mknod test.dev c 1 1
        session
            .mknod(
                &mut fs,
                &actor,
                "/work/test.dev",
                FileType::CharDevice,
                1,
                1,
                Mode::new(0o640),
            )
            .unwrap();

        // + ls -lh (inside the fakeroot context)
        let dev_line = session
            .ls_line(&fs, &actor, "/work/test.dev", names, gnames)
            .unwrap();
        assert_eq!(dev_line, "crw-r----- 1 root root 1, 1 test.dev");
        let file_line = session
            .ls_line(&fs, &actor, "/work/test.file", names, gnames)
            .unwrap();
        assert_eq!(file_line, "-rw-r----- 1 nobody root 0 test.file");

        // $ ls -lh (outside, unwrapped): "exposes the lies".
        let outside_dev = fs.ls_line(&actor, "/work/test.dev", names, gnames).unwrap();
        assert!(outside_dev.starts_with("-rw-r-----"));
        assert!(outside_dev.contains("alice alice"));
        let outside_file = fs
            .ls_line(&actor, "/work/test.file", names, gnames)
            .unwrap();
        assert!(outside_file.contains("alice alice"));
    }

    #[test]
    fn chown_lies_are_consistent_across_stat() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        let mut s = FakerootSession::new(Flavor::Pseudo);
        fs.write_file(&actor, "/work/f", b"x".to_vec(), Mode::FILE_644)
            .unwrap();
        s.chown(&mut fs, &actor, "/work/f", Some(Uid(74)), Some(Gid(74)))
            .unwrap();
        let st = s.stat(&fs, &actor, "/work/f").unwrap();
        assert_eq!(st.uid_view, Uid(74));
        assert_eq!(st.gid_view, Gid(74));
        // The real filesystem is untouched.
        assert_eq!(fs.stat(&actor, "/work/f").unwrap().uid_host, Uid(1000));
    }

    #[test]
    fn chown_of_missing_file_still_fails() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        let mut s = FakerootSession::new(Flavor::Fakeroot);
        assert_eq!(
            s.chown(&mut fs, &actor, "/work/missing", Some(Uid(0)), None)
                .unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn lchown_coverage_differs_by_flavor() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        fs.write_file(&actor, "/work/target", b"x".to_vec(), Mode::FILE_644)
            .unwrap();
        fs.symlink(&actor, "target", "/work/link").unwrap();
        // pseudo intercepts lchown.
        let mut pseudo = FakerootSession::new(Flavor::Pseudo);
        pseudo
            .lchown(&mut fs, &actor, "/work/link", Some(Uid(0)), Some(Gid(0)))
            .unwrap();
        // plain fakeroot does not: the call passes through and fails (EPERM).
        let mut fr = FakerootSession::new(Flavor::Fakeroot);
        assert_eq!(
            fr.lchown(&mut fs, &actor, "/work/link", Some(Uid(0)), Some(Gid(0)))
                .unwrap_err(),
            Errno::EPERM
        );
        assert_eq!(fr.stats().failed, 1);
    }

    #[test]
    fn chmod_setuid_is_recorded_not_applied() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        let mut s = FakerootSession::new(Flavor::Fakeroot);
        fs.write_file(&actor, "/work/su", b"elf".to_vec(), Mode::new(0o755))
            .unwrap();
        s.chmod(&mut fs, &actor, "/work/su", Mode::new(0o4755))
            .unwrap();
        assert!(s.stat(&fs, &actor, "/work/su").unwrap().mode.is_setuid());
        assert!(!fs.stat(&actor, "/work/su").unwrap().mode.is_setuid());
    }

    #[test]
    fn static_binary_limitation() {
        let preload = FakerootSession::new(Flavor::Fakeroot);
        assert_eq!(preload.can_wrap(true, "x86_64").unwrap_err(), Errno::ENOSYS);
        assert!(preload.can_wrap(false, "aarch64").is_ok());
        let ptrace = FakerootSession::new(Flavor::FakerootNg);
        assert!(ptrace.can_wrap(true, "x86_64").is_ok());
        assert_eq!(
            ptrace.can_wrap(false, "aarch64").unwrap_err(),
            Errno::ENOSYS
        );
    }

    #[test]
    fn security_xattr_only_with_xattr_coverage() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        fs.write_file(&actor, "/work/ping", b"elf".to_vec(), Mode::new(0o755))
            .unwrap();
        let mut pseudo = FakerootSession::new(Flavor::Pseudo);
        pseudo
            .set_security_xattr(
                &mut fs,
                &actor,
                "/work/ping",
                "security.capability",
                b"cap_net_raw+p",
            )
            .unwrap();
        let mut fr = FakerootSession::new(Flavor::Fakeroot);
        assert!(fr
            .set_security_xattr(&mut fs, &actor, "/work/ping", "security.capability", b"x")
            .is_err());
    }

    #[test]
    fn save_and_resume_session() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        let mut s = FakerootSession::new(Flavor::Fakeroot);
        fs.write_file(&actor, "/work/f", b"x".to_vec(), Mode::FILE_644)
            .unwrap();
        s.chown(&mut fs, &actor, "/work/f", Some(Uid(74)), Some(Gid(74)))
            .unwrap();
        let saved = s.db.save();
        let resumed =
            FakerootSession::with_db(Flavor::Fakeroot, LieDatabase::load(&saved).unwrap());
        assert_eq!(
            resumed.stat(&fs, &actor, "/work/f").unwrap().uid_view,
            Uid(74)
        );
    }

    #[test]
    fn unlink_forgets_lies() {
        let (mut fs, creds, ns) = setup();
        let actor = Actor::new(&creds, &ns);
        let mut s = FakerootSession::new(Flavor::Pseudo);
        fs.write_file(&actor, "/work/f", b"x".to_vec(), Mode::FILE_644)
            .unwrap();
        s.chown(&mut fs, &actor, "/work/f", Some(Uid(74)), None)
            .unwrap();
        s.unlink(&mut fs, &actor, "/work/f").unwrap();
        assert!(s.db.is_empty());
    }
}
