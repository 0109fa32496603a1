//! Inode-level operations: the FUSE-style protocol surface of the VFS.
//!
//! Every operation here addresses files the way a mount protocol does — by
//! **inode number** (plus a name for directory-entry operations) — instead of
//! by path string. The historical path-based API in [`crate::fs`] now
//! resolves the path once and delegates to these methods, so a path call and
//! a protocol call execute the same checks and the same mutation; the
//! `hpcc-fuseproto` crate's `MemFs` backend speaks this surface directly.
//!
//! Permission semantics are identical to the path API: every operation takes
//! an [`Actor`] and evaluates the same DAC/capability rules. Directory-entry
//! operations (`lookup_at`, `mkdir_at`, `unlink_at`, …) take the *parent*
//! inode and a single component name, exactly like the corresponding FUSE
//! requests.

use hpcc_kernel::{Capability, Errno, Gid, KResult, Uid};

use crate::actor::Actor;
use crate::bytes::FileBytes;
use crate::fs::Filesystem;
use crate::inode::{Ino, InodeData, Stat};
use crate::mode::{Access, Mode};

/// Largest regular file the simulated filesystem will grow to (1 GiB):
/// writes and truncates ending past this return `EFBIG`, like a process
/// hitting RLIMIT_FSIZE — and a malformed huge-offset protocol request can
/// never drive a huge zero-fill allocation.
pub const MAX_FILE_SIZE: u64 = 1 << 30;

/// A `setattr`-style metadata change request: every field is optional, and
/// only the present fields are applied (in the order mode, ownership, size).
///
/// `uid`/`gid` are **in-namespace** IDs, translated and permission-checked
/// exactly like [`Filesystem::chown`]; `size` truncates or zero-extends a
/// regular file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Setattr {
    /// New permission bits (`chmod` rules).
    pub mode: Option<Mode>,
    /// New owner, as an in-namespace ID (`chown` rules).
    pub uid: Option<Uid>,
    /// New group, as an in-namespace ID (`chown` rules).
    pub gid: Option<Gid>,
    /// New size for a regular file (`truncate` semantics: shrink or
    /// zero-extend).
    pub size: Option<u64>,
}

impl Setattr {
    /// A request that changes nothing.
    pub fn none() -> Self {
        Setattr::default()
    }
}

impl Filesystem {
    // ------------------------------------------------------------- lookups

    /// Looks up `name` under the directory `parent` (the FUSE `lookup`
    /// operation). Requires EXECUTE on the parent; returns `ENOTDIR` if
    /// `parent` is not a directory and `ENOENT` if the name is absent. The
    /// final inode may be of any type (a symlink is returned as itself, as
    /// in FUSE — the client decides whether to follow it via
    /// [`Filesystem::readlink_ino`]).
    pub fn lookup_at(&self, actor: &Actor, parent: Ino, name: &str) -> KResult<Ino> {
        let dir = self.inode(parent)?;
        if !dir.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(dir, Access::EXECUTE)?;
        self.lookup_in_dir(parent, name)
    }

    /// Checks a DAC access request against an inode — what a backend runs at
    /// `open` time (POSIX checks permissions when the handle is created, not
    /// on every read through it).
    pub fn check_access_ino(&self, actor: &Actor, ino: Ino, access: Access) -> KResult<()> {
        actor.check_access(self.inode(ino)?, access)
    }

    /// `stat` by inode: the attributes as seen from the actor's namespace.
    pub fn stat_ino(&self, actor: &Actor, ino: Ino) -> KResult<Stat> {
        let inode = self.inode(ino)?;
        Ok(Stat {
            ino,
            file_type: inode.file_type(),
            mode: inode.mode,
            uid_host: inode.uid,
            gid_host: inode.gid,
            uid_view: actor.userns.display_uid(inode.uid),
            gid_view: actor.userns.display_gid(inode.gid),
            size: inode.size(),
            nlink: inode.nlink,
            rdev: inode.rdev(),
            mtime: inode.mtime,
        })
    }

    /// `readdir` by inode: sorted `(name, child_ino)` pairs. Requires READ on
    /// the directory.
    pub fn readdir_ino(&self, actor: &Actor, ino: Ino) -> KResult<Vec<(String, Ino)>> {
        let inode = self.inode(ino)?;
        if !inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(inode, Access::READ)?;
        Ok(inode
            .entries()
            .iter()
            .map(|(name, &child)| (name.clone(), child))
            .collect())
    }

    /// Reads a regular file's bytes by inode as a copy-on-write handle
    /// (an `Arc` bump — no bytes are copied). Requires READ.
    pub fn file_bytes_ino(&self, actor: &Actor, ino: Ino) -> KResult<FileBytes> {
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::READ)?;
        match &inode.data {
            InodeData::Regular { content } => Ok(content.clone()),
            InodeData::Directory { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// `readlink` by inode. Returns `EINVAL` for non-symlinks, as the
    /// syscall does.
    pub fn readlink_ino(&self, actor: &Actor, ino: Ino) -> KResult<String> {
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::READ)?;
        match &inode.data {
            InodeData::Symlink { target } => Ok(target.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    // ------------------------------------------------------------ mutation

    /// Writes `data` into a regular file at `offset`, zero-extending the
    /// file if the offset is past the end (`pwrite` semantics). Returns the
    /// number of bytes written. Requires WRITE on the inode; the content
    /// mutation is copy-on-write, so snapshots sharing the bytes are
    /// untouched.
    pub fn write_at_ino(
        &mut self,
        actor: &Actor,
        ino: Ino,
        offset: u64,
        data: &[u8],
    ) -> KResult<u32> {
        self.check_writable()?;
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::WRITE)?;
        if inode.is_dir() {
            return Err(Errno::EISDIR);
        }
        if !inode.is_file() {
            return Err(Errno::EINVAL);
        }
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&e| e <= MAX_FILE_SIZE)
            .ok_or(Errno::EFBIG)?;
        let tick = self.tick();
        let inode = self.inode_mut_quiet(ino)?;
        let InodeData::Regular { content } = &mut inode.data else {
            return Err(Errno::EINVAL);
        };
        let (offset, end) = (offset as usize, end as usize);
        let bytes = content.to_mut();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[offset..end].copy_from_slice(data);
        inode.mtime = tick;
        Ok(data.len() as u32)
    }

    /// Creates an empty regular file `name` under `parent` (the FUSE
    /// `create` operation). Requires WRITE on the parent; fails with
    /// `EEXIST` if the name is taken. Group ownership follows the parent's
    /// setgid bit, as in [`Filesystem::write_file`].
    pub fn create_at(
        &mut self,
        actor: &Actor,
        parent: Ino,
        name: &str,
        mode: Mode,
    ) -> KResult<Ino> {
        self.check_writable()?;
        let parent_inode = self.inode(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(parent_inode, Access::WRITE)?;
        if parent_inode.entries().contains_key(name) {
            return Err(Errno::EEXIST);
        }
        let gid = if parent_inode.mode.is_setgid() {
            parent_inode.gid
        } else {
            actor.creds.egid
        };
        let ino = self.alloc(InodeData::file(Vec::new()), actor.creds.euid, gid, mode);
        self.link_entry(parent, name.to_string(), ino)?;
        Ok(ino)
    }

    /// `mkdir` under a parent inode. Same rules as [`Filesystem::mkdir`]
    /// (which now delegates here after resolving the parent path).
    pub fn mkdir_at(&mut self, actor: &Actor, parent: Ino, name: &str, mode: Mode) -> KResult<Ino> {
        self.check_writable()?;
        let parent_inode = self.inode(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(parent_inode, Access::WRITE)?;
        if parent_inode.entries().contains_key(name) {
            return Err(Errno::EEXIST);
        }
        let gid = if parent_inode.mode.is_setgid() {
            parent_inode.gid
        } else {
            actor.creds.egid
        };
        let ino = self.alloc(InodeData::empty_dir(), actor.creds.euid, gid, mode);
        self.link_entry(parent, name.to_string(), ino)?;
        Ok(ino)
    }

    /// `unlink` of `name` under a parent inode. Same rules as
    /// [`Filesystem::unlink`].
    pub fn unlink_at(&mut self, actor: &Actor, parent: Ino, name: &str) -> KResult<()> {
        self.check_writable()?;
        let parent_inode = self.inode(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(parent_inode, Access::WRITE)?;
        let target = parent_inode
            .entries()
            .get(name)
            .copied()
            .ok_or(Errno::ENOENT)?;
        if self.inode(target)?.is_dir() {
            return Err(Errno::EISDIR);
        }
        self.inode_mut(parent)?.entries_mut().remove(name);
        let inode = self.inode_mut(target)?;
        inode.nlink = inode.nlink.saturating_sub(1);
        if inode.nlink == 0 {
            self.remove_inode(target);
        }
        Ok(())
    }

    /// `rmdir` of `name` under a parent inode. Same rules as
    /// [`Filesystem::rmdir`].
    pub fn rmdir_at(&mut self, actor: &Actor, parent: Ino, name: &str) -> KResult<()> {
        self.check_writable()?;
        let parent_inode = self.inode(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(parent_inode, Access::WRITE)?;
        let target = parent_inode
            .entries()
            .get(name)
            .copied()
            .ok_or(Errno::ENOENT)?;
        let t = self.inode(target)?;
        if !t.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if !t.entries().is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        self.inode_mut(parent)?.entries_mut().remove(name);
        self.remove_inode(target);
        Ok(())
    }

    /// `rename` between two parent inodes (same filesystem — a cross-device
    /// rename is the caller's `EXDEV` to detect). Same rules as
    /// [`Filesystem::rename`].
    pub fn rename_at(
        &mut self,
        actor: &Actor,
        parent: Ino,
        name: &str,
        new_parent: Ino,
        new_name: &str,
    ) -> KResult<()> {
        self.check_writable()?;
        let parent_inode = self.inode(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(parent_inode, Access::WRITE)?;
        let ino = self
            .inode(parent)?
            .entries()
            .get(name)
            .copied()
            .ok_or(Errno::ENOENT)?;
        let new_parent_inode = self.inode(new_parent)?;
        if !new_parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(new_parent_inode, Access::WRITE)?;
        self.inode_mut(parent)?.entries_mut().remove(name);
        self.inode_mut(new_parent)?
            .entries_mut()
            .insert(new_name.to_string(), ino);
        Ok(())
    }

    /// `symlink` creation under a parent inode. Same rules as
    /// [`Filesystem::symlink`].
    pub fn symlink_at(
        &mut self,
        actor: &Actor,
        parent: Ino,
        name: &str,
        target: &str,
    ) -> KResult<Ino> {
        self.check_writable()?;
        let parent_inode = self.inode(parent)?;
        if !parent_inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        actor.check_access(parent_inode, Access::WRITE)?;
        if parent_inode.entries().contains_key(name) {
            return Err(Errno::EEXIST);
        }
        let ino = self.alloc(
            InodeData::Symlink {
                target: target.to_string(),
            },
            actor.creds.euid,
            actor.creds.egid,
            Mode::new(0o777),
        );
        self.link_entry(parent, name.to_string(), ino)?;
        Ok(ino)
    }

    /// `chmod` by inode — the mode half of `setattr`. Same rules as
    /// [`Filesystem::chmod`] (which now delegates here).
    pub fn chmod_ino(&mut self, actor: &Actor, ino: Ino, mode: Mode) -> KResult<()> {
        self.check_writable()?;
        let inode = self.inode(ino)?;
        if !actor.may_change_metadata(inode) {
            return Err(Errno::EPERM);
        }
        // Setting setgid requires membership of the file's group (or
        // privilege); otherwise the bit is silently cleared.
        let mut mode = mode;
        if mode.is_setgid()
            && !actor.creds.in_group(inode.gid)
            && !actor.cap_over_inode(inode, Capability::CapFowner)
        {
            mode = Mode::new(mode.bits() & !Mode::SETGID);
        }
        let tick = self.tick();
        // Mode-only change: cached resolutions re-run access checks on every
        // hit, so no structural invalidation is needed.
        let inode = self.inode_mut_quiet(ino)?;
        inode.mode = mode;
        inode.mtime = tick;
        Ok(())
    }

    /// `truncate`/`ftruncate` by inode: shrinks or zero-extends a regular
    /// file (to at most [`MAX_FILE_SIZE`], else `EFBIG`). Requires WRITE.
    pub fn truncate_ino(&mut self, actor: &Actor, ino: Ino, size: u64) -> KResult<()> {
        if size > MAX_FILE_SIZE {
            return Err(Errno::EFBIG);
        }
        self.check_writable()?;
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::WRITE)?;
        if inode.is_dir() {
            return Err(Errno::EISDIR);
        }
        if !inode.is_file() {
            return Err(Errno::EINVAL);
        }
        let tick = self.tick();
        let inode = self.inode_mut_quiet(ino)?;
        let InodeData::Regular { content } = &mut inode.data else {
            return Err(Errno::EINVAL);
        };
        content.to_mut().resize(size as usize, 0);
        inode.mtime = tick;
        Ok(())
    }

    /// Applies a [`Setattr`] request: mode (`chmod` rules), then ownership
    /// (`chown` rules, in-namespace IDs), then size (`truncate`). Stops at
    /// the first failing piece, leaving earlier pieces applied — exactly as
    /// a sequence of the individual syscalls would.
    pub fn setattr_ino(&mut self, actor: &Actor, ino: Ino, changes: &Setattr) -> KResult<()> {
        if let Some(mode) = changes.mode {
            self.chmod_ino(actor, ino, mode)?;
        }
        if changes.uid.is_some() || changes.gid.is_some() {
            self.check_writable()?;
            self.chown_ino(actor, ino, changes.uid, changes.gid)?;
        }
        if let Some(size) = changes.size {
            self.truncate_ino(actor, ino, size)?;
        }
        Ok(())
    }

    // -------------------------------------------------------------- xattrs

    /// `setxattr` by inode. Same backend and `trusted.*` rules as
    /// [`Filesystem::set_xattr`] (which now delegates here).
    pub fn set_xattr_ino(
        &mut self,
        actor: &Actor,
        ino: Ino,
        name: &str,
        value: &[u8],
    ) -> KResult<()> {
        self.check_writable()?;
        if name.starts_with("user.") && !self.backend.supports_user_xattrs() {
            return Err(Errno::EOPNOTSUPP);
        }
        if name.starts_with("trusted.") {
            // trusted.* requires CAP_SYS_ADMIN in the initial namespace.
            if !(actor.creds.has_cap(Capability::CapSysAdmin) && actor.userns.is_initial()) {
                return Err(Errno::EPERM);
            }
        }
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::WRITE)?;
        let inode = self.inode_mut_quiet(ino)?;
        inode.xattrs.insert(name.to_string(), value.to_vec());
        Ok(())
    }

    /// `getxattr` by inode.
    pub fn get_xattr_ino(&self, actor: &Actor, ino: Ino, name: &str) -> KResult<Vec<u8>> {
        if name.starts_with("user.") && !self.backend.supports_user_xattrs() {
            return Err(Errno::EOPNOTSUPP);
        }
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::READ)?;
        inode.xattrs.get(name).cloned().ok_or(Errno::ENODATA)
    }

    /// `listxattr` by inode.
    pub fn list_xattrs_ino(&self, actor: &Actor, ino: Ino) -> KResult<Vec<String>> {
        let inode = self.inode(ino)?;
        actor.check_access(inode, Access::READ)?;
        Ok(inode.xattrs.keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Credentials, UserNamespace};

    fn root_fs() -> (Filesystem, Credentials, UserNamespace) {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/etc/hostname",
            b"astra".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        (fs, Credentials::host_root(), UserNamespace::initial())
    }

    #[test]
    fn lookup_then_stat_matches_path_stat() {
        let (fs, creds, ns) = root_fs();
        let actor = Actor::new(&creds, &ns);
        let etc = fs.lookup_at(&actor, fs.root_ino(), "etc").unwrap();
        let host = fs.lookup_at(&actor, etc, "hostname").unwrap();
        assert_eq!(
            fs.stat_ino(&actor, host).unwrap(),
            fs.stat(&actor, "/etc/hostname").unwrap()
        );
        assert_eq!(
            fs.lookup_at(&actor, etc, "nope").unwrap_err(),
            Errno::ENOENT
        );
        assert_eq!(fs.lookup_at(&actor, host, "x").unwrap_err(), Errno::ENOTDIR);
    }

    #[test]
    fn write_at_extends_and_overwrites() {
        let (mut fs, creds, ns) = root_fs();
        let actor = Actor::new(&creds, &ns);
        let ino = fs.resolve(&actor, "/etc/hostname").unwrap();
        assert_eq!(fs.write_at_ino(&actor, ino, 5, b"!!").unwrap(), 2);
        assert_eq!(fs.read_file(&actor, "/etc/hostname").unwrap(), b"astra!!");
        assert_eq!(fs.write_at_ino(&actor, ino, 0, b"ASTRA").unwrap(), 5);
        assert_eq!(fs.read_file(&actor, "/etc/hostname").unwrap(), b"ASTRA!!");
        // Past-the-end offsets zero-fill.
        assert_eq!(fs.write_at_ino(&actor, ino, 9, b"x").unwrap(), 1);
        assert_eq!(
            fs.read_file(&actor, "/etc/hostname").unwrap(),
            b"ASTRA!!\0\0x"
        );
    }

    #[test]
    fn huge_offsets_are_efbig_not_allocation_bombs() {
        let (mut fs, creds, ns) = root_fs();
        let actor = Actor::new(&creds, &ns);
        let ino = fs.resolve(&actor, "/etc/hostname").unwrap();
        // Overflowing and merely enormous offsets both fail cleanly.
        assert_eq!(
            fs.write_at_ino(&actor, ino, u64::MAX, b"x").unwrap_err(),
            Errno::EFBIG
        );
        assert_eq!(
            fs.write_at_ino(&actor, ino, MAX_FILE_SIZE, b"x")
                .unwrap_err(),
            Errno::EFBIG
        );
        assert_eq!(
            fs.truncate_ino(&actor, ino, MAX_FILE_SIZE + 1).unwrap_err(),
            Errno::EFBIG
        );
        // The file is untouched.
        assert_eq!(fs.read_file(&actor, "/etc/hostname").unwrap(), b"astra");
    }

    #[test]
    fn write_at_respects_snapshots() {
        let (mut fs, creds, ns) = root_fs();
        let actor = Actor::new(&creds, &ns);
        let snap = fs.clone();
        let ino = fs.resolve(&actor, "/etc/hostname").unwrap();
        fs.write_at_ino(&actor, ino, 0, b"MUTATED").unwrap();
        assert_eq!(snap.read_file(&actor, "/etc/hostname").unwrap(), b"astra");
    }

    #[test]
    fn setattr_combines_chmod_chown_truncate() {
        let (mut fs, creds, ns) = root_fs();
        let actor = Actor::new(&creds, &ns);
        let ino = fs.resolve(&actor, "/etc/hostname").unwrap();
        fs.setattr_ino(
            &actor,
            ino,
            &Setattr {
                mode: Some(Mode::new(0o600)),
                uid: Some(Uid(1000)),
                gid: Some(Gid(1000)),
                size: Some(2),
            },
        )
        .unwrap();
        let st = fs.stat_ino(&actor, ino).unwrap();
        assert_eq!(st.mode, Mode::new(0o600));
        assert_eq!(st.uid_host, Uid(1000));
        assert_eq!(st.size, 2);
    }

    #[test]
    fn entry_ops_mirror_path_ops() {
        let (mut fs, creds, ns) = root_fs();
        let actor = Actor::new(&creds, &ns);
        let root = fs.root_ino();
        let work = fs.mkdir_at(&actor, root, "work", Mode::DIR_755).unwrap();
        let f = fs.create_at(&actor, work, "f", Mode::FILE_644).unwrap();
        fs.write_at_ino(&actor, f, 0, b"hello").unwrap();
        assert_eq!(fs.read_file(&actor, "/work/f").unwrap(), b"hello");
        fs.symlink_at(&actor, work, "lnk", "f").unwrap();
        assert_eq!(fs.read_file(&actor, "/work/lnk").unwrap(), b"hello");
        fs.rename_at(&actor, work, "f", root, "g").unwrap();
        assert_eq!(fs.read_file(&actor, "/g").unwrap(), b"hello");
        fs.unlink_at(&actor, work, "lnk").unwrap();
        fs.unlink_at(&actor, root, "g").unwrap();
        assert_eq!(fs.rmdir_at(&actor, root, "work"), Ok(()));
        assert!(!fs.exists(&actor, "/work"));
    }

    #[test]
    fn unprivileged_rules_hold_at_ino_level() {
        let (mut fs, _, ns) = root_fs();
        let alice = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let actor = Actor::new(&alice, &ns);
        let root_creds = Credentials::host_root();
        let root_actor = Actor::new(&root_creds, &ns);
        let etc = fs.resolve(&root_actor, "/etc").unwrap();
        // /etc is root-owned 0755: alice cannot create or remove entries.
        assert_eq!(
            fs.create_at(&actor, etc, "shadow", Mode::FILE_644)
                .unwrap_err(),
            Errno::EACCES
        );
        assert_eq!(
            fs.unlink_at(&actor, etc, "hostname").unwrap_err(),
            Errno::EACCES
        );
        // Nor chmod a root-owned file.
        let host = fs.resolve(&root_actor, "/etc/hostname").unwrap();
        assert_eq!(
            fs.chmod_ino(&actor, host, Mode::new(0o777)).unwrap_err(),
            Errno::EPERM
        );
    }
}
