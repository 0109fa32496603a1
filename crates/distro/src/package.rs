//! Package model shared by the RPM/YUM-like and DEB/APT-like managers.
//!
//! The essential property the paper depends on (§2.3): distribution packages
//! assume privileged access — their payloads carry multiple UIDs/GIDs,
//! setuid/setgid bits, and occasionally capabilities or device nodes, and
//! their maintainer scripts call `chown(2)` and friends. Installing them in a
//! fully unprivileged container therefore fails unless a wrapper fakes those
//! calls.

use hpcc_kernel::{Errno, Gid, Uid};
use hpcc_vfs::{Actor, FileType, Filesystem, Mode};

use hpcc_fakeroot::FakerootSession;

use crate::passwd::UserDb;

/// One file/directory/link/device delivered by a package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadEntry {
    /// Absolute in-image path.
    pub path: String,
    /// What to create.
    pub kind: PayloadKind,
    /// Recorded owner UID (in-container numbering, e.g. 0 = root, 74 = sshd).
    pub uid: u32,
    /// Recorded owner GID.
    pub gid: u32,
}

/// Payload entry kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadKind {
    /// Regular file.
    File {
        /// File contents (synthetic).
        content: Vec<u8>,
        /// Mode bits including setuid/setgid.
        mode: u16,
        /// Whether the binary is statically linked (LD_PRELOAD wrappers
        /// cannot interpose on it).
        statically_linked: bool,
    },
    /// Directory.
    Dir {
        /// Mode bits.
        mode: u16,
    },
    /// Symbolic link.
    Symlink {
        /// Target.
        target: String,
    },
    /// Character device node.
    CharDevice {
        /// Major number.
        major: u32,
        /// Minor number.
        minor: u32,
        /// Mode bits.
        mode: u16,
    },
}

impl PayloadEntry {
    /// A root-owned regular file.
    pub fn file(path: &str, size: usize, mode: u16) -> Self {
        PayloadEntry {
            path: path.to_string(),
            kind: PayloadKind::File {
                content: vec![0x7f; size],
                mode,
                statically_linked: false,
            },
            uid: 0,
            gid: 0,
        }
    }

    /// A regular file with explicit ownership.
    pub fn file_owned(path: &str, size: usize, mode: u16, uid: u32, gid: u32) -> Self {
        let mut e = Self::file(path, size, mode);
        e.uid = uid;
        e.gid = gid;
        e
    }

    /// A root-owned directory.
    pub fn dir(path: &str, mode: u16) -> Self {
        PayloadEntry {
            path: path.to_string(),
            kind: PayloadKind::Dir { mode },
            uid: 0,
            gid: 0,
        }
    }

    /// A directory with explicit ownership.
    pub fn dir_owned(path: &str, mode: u16, uid: u32, gid: u32) -> Self {
        let mut e = Self::dir(path, mode);
        e.uid = uid;
        e.gid = gid;
        e
    }

    /// A root-owned symlink.
    pub fn symlink(path: &str, target: &str) -> Self {
        PayloadEntry {
            path: path.to_string(),
            kind: PayloadKind::Symlink {
                target: target.to_string(),
            },
            uid: 0,
            gid: 0,
        }
    }
}

/// Maintainer-script operations run after payload extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scriptlet {
    /// `useradd`: add a system user to `/etc/passwd`.
    AddUser {
        /// Login name.
        name: String,
        /// UID.
        uid: u32,
        /// Primary GID.
        gid: u32,
        /// Home directory.
        home: String,
    },
    /// `groupadd`: add a group to `/etc/group`.
    AddGroup {
        /// Group name.
        name: String,
        /// GID.
        gid: u32,
    },
    /// Explicit `chown(1)` in a maintainer script.
    Chown {
        /// Path to change.
        path: String,
        /// Target UID.
        uid: u32,
        /// Target GID.
        gid: u32,
    },
    /// `setcap`: set a file capability (security xattr).
    SetCapability {
        /// Path to the executable.
        path: String,
        /// Capability text, e.g. `cap_net_raw+ep`.
        capability: String,
    },
}

/// A package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Package {
    /// Package name.
    pub name: String,
    /// Version-release string, e.g. `7.4p1-21.el7`.
    pub version: String,
    /// Architecture, `"noarch"` if architecture-independent.
    pub arch: String,
    /// Names of packages that must be installed first.
    pub depends: Vec<String>,
    /// Files delivered.
    pub payload: Vec<PayloadEntry>,
    /// Maintainer scripts.
    pub scriptlets: Vec<Scriptlet>,
}

impl Package {
    /// Creates an empty package.
    pub fn new(name: &str, version: &str, arch: &str) -> Self {
        Package {
            name: name.to_string(),
            version: version.to_string(),
            arch: arch.to_string(),
            depends: Vec::new(),
            payload: Vec::new(),
            scriptlets: Vec::new(),
        }
    }

    /// Adds a dependency.
    pub fn with_dep(mut self, dep: &str) -> Self {
        self.depends.push(dep.to_string());
        self
    }

    /// Adds a payload entry.
    pub fn with_entry(mut self, entry: PayloadEntry) -> Self {
        self.payload.push(entry);
        self
    }

    /// Adds a scriptlet.
    pub fn with_scriptlet(mut self, s: Scriptlet) -> Self {
        self.scriptlets.push(s);
        self
    }

    /// Full NEVRA-ish label used in transcripts,
    /// e.g. `openssh-7.4p1-21.el7.x86_64`.
    pub fn nevra(&self) -> String {
        format!("{}-{}.{}", self.name, self.version, self.arch)
    }

    /// Debian-style label, e.g. `openssh-client (1:7.9p1-10+deb10u2)`.
    pub fn deb_label(&self) -> String {
        format!("{} ({})", self.name, self.version)
    }

    /// True if installing this package requires privileged operations
    /// (multi-UID ownership, devices, setuid bits, or capabilities).
    // hpcc-lint: allow(test_only_api) — Figure 2: openssh's multi-owner payload is what a basic Type III build cannot install; the catalog tests check it for CentOS 7 and Debian 10
    pub fn needs_privilege(&self) -> bool {
        self.payload.iter().any(|e| {
            e.uid != 0
                || e.gid != 0
                || matches!(e.kind, PayloadKind::CharDevice { .. })
                || matches!(e.kind, PayloadKind::File { mode, .. } if mode & 0o6000 != 0)
        }) || self.scriptlets.iter().any(|s| {
            matches!(
                s,
                Scriptlet::Chown { uid, gid, .. } if *uid != 0 || *gid != 0
            ) || matches!(s, Scriptlet::SetCapability { .. })
        })
    }
}

/// A package repository (e.g. CentOS base, EPEL, Debian buster main).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repository {
    /// Repository id, as used in `.repo` files / sources.list.
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// Packages available.
    pub packages: Vec<Package>,
}

impl Repository {
    /// Creates a repository.
    pub fn new(id: &str, name: &str) -> Self {
        Repository {
            id: id.to_string(),
            name: name.to_string(),
            packages: Vec::new(),
        }
    }

    /// Adds a package.
    pub fn with_package(mut self, p: Package) -> Self {
        self.packages.push(p);
        self
    }

    /// Finds a package by name.
    pub fn find(&self, name: &str) -> Option<&Package> {
        self.packages.iter().find(|p| p.name == name)
    }
}

/// All repositories known for a distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    /// Repositories in priority order.
    pub repos: Vec<Repository>,
}

impl Catalog {
    /// Creates a catalog.
    pub fn new(repos: Vec<Repository>) -> Self {
        Catalog { repos }
    }

    /// Finds a package by name within the repositories whose ids appear in
    /// `enabled`.
    pub fn find(&self, name: &str, enabled: &[String]) -> Option<(&Repository, &Package)> {
        for repo in &self.repos {
            if !enabled.iter().any(|e| e == &repo.id) {
                continue;
            }
            if let Some(p) = repo.find(name) {
                return Some((repo, p));
            }
        }
        None
    }

    /// Finds a package in any repository regardless of enablement (used for
    /// diagnostics).
    #[cfg(test)]
    pub fn find_anywhere(&self, name: &str) -> Option<&Package> {
        self.repos.iter().find_map(|r| r.find(name))
    }

    /// Resolves `names` plus transitive dependencies into install order
    /// (dependencies first). Returns `Err(name)` for the first unresolvable
    /// package.
    pub fn resolve(&self, names: &[&str], enabled: &[String]) -> Result<Vec<&Package>, String> {
        let mut order: Vec<&Package> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        fn visit<'a>(
            catalog: &'a Catalog,
            name: &str,
            enabled: &[String],
            seen: &mut Vec<String>,
            order: &mut Vec<&'a Package>,
        ) -> Result<(), String> {
            if seen.iter().any(|s| s == name) {
                return Ok(());
            }
            seen.push(name.to_string());
            let (_, pkg) = catalog
                .find(name, enabled)
                .ok_or_else(|| name.to_string())?;
            for dep in &pkg.depends {
                visit(catalog, dep, enabled, seen, order)?;
            }
            order.push(pkg);
            Ok(())
        }
        for name in names {
            visit(self, name, enabled, &mut seen, &mut order)?;
        }
        Ok(order)
    }
}

/// Which operation failed during an installation, with enough detail to
/// format either the RPM (`cpio: chown`) or dpkg error text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallFailure {
    /// `chown(2)` of a payload file failed.
    Chown {
        /// Path being changed.
        path: String,
        /// Errno returned.
        errno: Errno,
    },
    /// `mknod(2)` of a device node failed.
    Mknod {
        /// Path being created.
        path: String,
        /// Errno returned.
        errno: Errno,
    },
    /// Setting a file capability failed.
    Capability {
        /// Path of the executable.
        path: String,
        /// Errno returned.
        errno: Errno,
    },
    /// Writing payload content failed (e.g. read-only filesystem).
    Write {
        /// Path being written.
        path: String,
        /// Errno returned.
        errno: Errno,
    },
}

/// Extracts one package's payload and runs its scriptlets against the image
/// filesystem, optionally through a `fakeroot(1)` wrapper.
///
/// Returns the first [`InstallFailure`] encountered, which the calling
/// package manager formats into its own error text (Figure 2 vs Figure 9).
pub fn install_package(
    fs: &mut Filesystem,
    actor: &Actor,
    mut wrapper: Option<&mut FakerootSession>,
    pkg: &Package,
    container_arch: &str,
) -> Result<(), InstallFailure> {
    // Payload extraction.
    for entry in &pkg.payload {
        match &entry.kind {
            PayloadKind::Dir { mode } => {
                // mkdir -p semantics; permission failures surface as write errors.
                if !fs.exists(actor, &entry.path) {
                    fs.mkdir_p(actor, &entry.path, Mode::new(*mode), false)
                        .map_err(|e| InstallFailure::Write {
                            path: entry.path.clone(),
                            errno: e,
                        })?;
                }
            }
            PayloadKind::File {
                content,
                mode,
                statically_linked,
            } => {
                // Ensure parent directories exist.
                fs.mkdir_p(actor, &entry.path, Mode::new(0o755), true)
                    .map_err(|e| InstallFailure::Write {
                        path: entry.path.clone(),
                        errno: e,
                    })?;
                fs.write_file(actor, &entry.path, content.clone(), Mode::new(mode & 0o777))
                    .map_err(|e| InstallFailure::Write {
                        path: entry.path.clone(),
                        errno: e,
                    })?;
                // setuid/setgid bits are applied via chmod (possibly faked).
                if mode & 0o6000 != 0 {
                    match wrapper.as_deref_mut() {
                        Some(w) => {
                            // A wrapper that cannot interpose on this binary
                            // (static + LD_PRELOAD) silently degrades; mode
                            // lies are still recorded by chmod interception.
                            let _ = w.can_wrap(*statically_linked, container_arch);
                            w.chmod(fs, actor, &entry.path, Mode::new(*mode))
                                .map_err(|e| InstallFailure::Write {
                                    path: entry.path.clone(),
                                    errno: e,
                                })?;
                        }
                        None => {
                            // Plain chmod by the owner: the kernel clears
                            // setgid for non-members; setuid-to-self is kept.
                            let _ = fs.chmod(actor, &entry.path, Mode::new(*mode));
                        }
                    }
                }
            }
            PayloadKind::Symlink { target } => {
                let _ = fs.mkdir_p(actor, &entry.path, Mode::new(0o755), true);
                if fs.exists(actor, &entry.path) {
                    let _ = fs.unlink(actor, &entry.path);
                }
                fs.symlink(actor, target, &entry.path)
                    .map_err(|e| InstallFailure::Write {
                        path: entry.path.clone(),
                        errno: e,
                    })?;
            }
            PayloadKind::CharDevice { major, minor, mode } => {
                let r = match wrapper.as_deref_mut() {
                    Some(w) => w.mknod(
                        fs,
                        actor,
                        &entry.path,
                        FileType::CharDevice,
                        *major,
                        *minor,
                        Mode::new(*mode),
                    ),
                    None => fs
                        .mknod(
                            actor,
                            &entry.path,
                            FileType::CharDevice,
                            *major,
                            *minor,
                            Mode::new(*mode),
                        )
                        .map(|_| ()),
                };
                r.map_err(|e| InstallFailure::Mknod {
                    path: entry.path.clone(),
                    errno: e,
                })?;
            }
        }
        // Ownership, exactly as rpm/dpkg do for every entry.
        let (uid, gid) = (Uid(entry.uid), Gid(entry.gid));
        let chown_result = match wrapper.as_deref_mut() {
            Some(w) => {
                if matches!(entry.kind, PayloadKind::Symlink { .. }) {
                    w.lchown(fs, actor, &entry.path, Some(uid), Some(gid))
                } else {
                    w.chown(fs, actor, &entry.path, Some(uid), Some(gid))
                }
            }
            None => {
                if matches!(entry.kind, PayloadKind::Symlink { .. }) {
                    fs.lchown(actor, &entry.path, Some(uid), Some(gid))
                } else {
                    fs.chown(actor, &entry.path, Some(uid), Some(gid))
                }
            }
        };
        chown_result.map_err(|e| InstallFailure::Chown {
            path: entry.path.clone(),
            errno: e,
        })?;
    }

    // Maintainer scripts.
    for script in &pkg.scriptlets {
        match script {
            Scriptlet::AddUser {
                name,
                uid,
                gid,
                home,
            } => {
                let mut db = UserDb::load_from(fs, actor);
                if db.user_by_name(name).is_none() {
                    db.add_user(name, *uid, *gid, home, "/sbin/nologin");
                    let rendered = db.render_passwd();
                    fs.write_file(actor, "/etc/passwd", rendered.into_bytes(), Mode::FILE_644)
                        .map_err(|e| InstallFailure::Write {
                            path: "/etc/passwd".to_string(),
                            errno: e,
                        })?;
                }
            }
            Scriptlet::AddGroup { name, gid } => {
                let mut db = UserDb::load_from(fs, actor);
                if db.name_for_gid(Gid(*gid)).is_none() {
                    db.add_group(name, *gid, &[]);
                    let rendered = db.render_group();
                    fs.write_file(actor, "/etc/group", rendered.into_bytes(), Mode::FILE_644)
                        .map_err(|e| InstallFailure::Write {
                            path: "/etc/group".to_string(),
                            errno: e,
                        })?;
                }
            }
            Scriptlet::Chown { path, uid, gid } => {
                let r = match wrapper.as_deref_mut() {
                    Some(w) => w.chown(fs, actor, path, Some(Uid(*uid)), Some(Gid(*gid))),
                    None => fs.chown(actor, path, Some(Uid(*uid)), Some(Gid(*gid))),
                };
                r.map_err(|e| InstallFailure::Chown {
                    path: path.clone(),
                    errno: e,
                })?;
            }
            Scriptlet::SetCapability { path, capability } => {
                let r = match wrapper.as_deref_mut() {
                    Some(w) => w.set_security_xattr(
                        fs,
                        actor,
                        path,
                        "security.capability",
                        capability.as_bytes(),
                    ),
                    None => {
                        // Without a wrapper, setting file capabilities needs
                        // CAP_SETFCAP in a namespace with a privileged
                        // (multi-ID) map — available under Type I/II, not in
                        // a plain Type III container.
                        if actor.userns.is_privileged_setup()
                            && actor.creds.has_cap(hpcc_kernel::Capability::CapSetfcap)
                        {
                            fs.set_xattr(actor, path, "security.capability", capability.as_bytes())
                        } else {
                            Err(Errno::EPERM)
                        }
                    }
                };
                r.map_err(|e| InstallFailure::Capability {
                    path: path.clone(),
                    errno: e,
                })?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_fakeroot::Flavor;
    use hpcc_kernel::{Credentials, UserNamespace};

    fn simple_pkg() -> Package {
        Package::new("hello", "1.0-1", "x86_64")
            .with_entry(PayloadEntry::dir("/usr/bin", 0o755))
            .with_entry(PayloadEntry::file("/usr/bin/hello", 64, 0o755))
    }

    fn privileged_pkg() -> Package {
        Package::new("openssh", "7.4p1-21.el7", "x86_64")
            .with_entry(PayloadEntry::file_owned(
                "/usr/libexec/openssh/ssh-keysign",
                128,
                0o2555,
                0,
                999,
            ))
            .with_scriptlet(Scriptlet::AddGroup {
                name: "ssh_keys".into(),
                gid: 999,
            })
            .with_scriptlet(Scriptlet::AddUser {
                name: "sshd".into(),
                uid: 74,
                gid: 74,
                home: "/var/empty/sshd".into(),
            })
    }

    fn image_and_user() -> (Filesystem, Credentials) {
        let mut fs = Filesystem::new_local();
        // The image tree is owned by the build user (Type III unpack).
        crate::passwd::base_system_users().store_into(&mut fs);
        for (_, ino) in fs.walk() {
            let inode = fs.inode_mut(ino).unwrap();
            inode.uid = Uid(1000);
            inode.gid = Gid(1000);
        }
        fs.inode_mut(fs.root_ino()).unwrap().uid = Uid(1000);
        fs.inode_mut(fs.root_ino()).unwrap().gid = Gid(1000);
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        (fs, creds)
    }

    #[test]
    fn root_only_package_installs_without_wrapper_in_type3() {
        let (mut fs, creds) = image_and_user();
        let ns = UserNamespace::type3(Uid(1000), Gid(1000));
        let c = creds.entered_own_namespace();
        let actor = Actor::new(&c, &ns);
        install_package(&mut fs, &actor, None, &simple_pkg(), "x86_64").unwrap();
        assert!(fs.exists(&actor, "/usr/bin/hello"));
    }

    #[test]
    fn multiuid_package_fails_in_plain_type3_with_chown() {
        let (mut fs, creds) = image_and_user();
        let ns = UserNamespace::type3(Uid(1000), Gid(1000));
        let c = creds.entered_own_namespace();
        let actor = Actor::new(&c, &ns);
        let err = install_package(&mut fs, &actor, None, &privileged_pkg(), "x86_64").unwrap_err();
        match err {
            InstallFailure::Chown { errno, .. } => assert_eq!(errno, Errno::EINVAL),
            other => panic!("unexpected failure: {:?}", other),
        }
    }

    #[test]
    fn multiuid_package_succeeds_under_fakeroot_in_type3() {
        let (mut fs, creds) = image_and_user();
        let ns = UserNamespace::type3(Uid(1000), Gid(1000));
        let c = creds.entered_own_namespace();
        let actor = Actor::new(&c, &ns);
        let mut w = FakerootSession::new(Flavor::Fakeroot);
        install_package(&mut fs, &actor, Some(&mut w), &privileged_pkg(), "x86_64").unwrap();
        // The lie database remembers the intended ownership.
        assert!(!w.db.is_empty());
        let st = w
            .stat(&fs, &actor, "/usr/libexec/openssh/ssh-keysign")
            .unwrap();
        assert_eq!(st.gid_view, Gid(999));
    }

    #[test]
    fn multiuid_package_succeeds_in_type2_without_wrapper() {
        let (mut fs, creds) = image_and_user();
        let ns = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        let c = creds.entered_own_namespace();
        let actor = Actor::new(&c, &ns);
        install_package(&mut fs, &actor, None, &privileged_pkg(), "x86_64").unwrap();
        let st = fs.stat(&actor, "/usr/libexec/openssh/ssh-keysign").unwrap();
        // Real host-side ownership is the subordinate GID; in-container view is 999.
        assert_eq!(st.gid_view, Gid(999));
        assert_eq!(st.gid_host, Gid(200_000 + 998));
    }

    #[test]
    fn capability_scriptlet_needs_xattr_coverage() {
        let pkg = Package::new("openssh-client", "1:7.9p1-10+deb10u2", "amd64")
            .with_entry(PayloadEntry::file("/usr/bin/ssh", 128, 0o755))
            .with_scriptlet(Scriptlet::SetCapability {
                path: "/usr/bin/ssh".into(),
                capability: "cap_net_bind_service+ep".into(),
            });
        let (mut fs, creds) = image_and_user();
        let ns = UserNamespace::type3(Uid(1000), Gid(1000));
        let c = creds.entered_own_namespace();
        let actor = Actor::new(&c, &ns);
        // Debian's fakeroot lacks xattr interception -> fails.
        let mut fr = FakerootSession::new(Flavor::Fakeroot);
        let err = install_package(&mut fs, &actor, Some(&mut fr), &pkg, "x86_64").unwrap_err();
        assert!(matches!(err, InstallFailure::Capability { .. }));
        // pseudo covers it -> succeeds.
        let mut ps = FakerootSession::new(Flavor::Pseudo);
        install_package(&mut fs, &actor, Some(&mut ps), &pkg, "x86_64").unwrap();
    }

    #[test]
    fn adduser_scriptlet_extends_passwd() {
        let (mut fs, creds) = image_and_user();
        let ns = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        let c = creds.entered_own_namespace();
        let actor = Actor::new(&c, &ns);
        install_package(&mut fs, &actor, None, &privileged_pkg(), "x86_64").unwrap();
        let db = UserDb::load_from(&fs, &actor);
        assert_eq!(db.user_by_name("sshd").unwrap().uid, 74);
        assert_eq!(db.name_for_gid(Gid(999)).unwrap(), "ssh_keys");
    }

    #[test]
    fn resolve_orders_dependencies_first() {
        let repo = Repository::new("base", "Base")
            .with_package(Package::new("a", "1", "noarch").with_dep("b"))
            .with_package(Package::new("b", "1", "noarch").with_dep("c"))
            .with_package(Package::new("c", "1", "noarch"));
        let cat = Catalog::new(vec![repo]);
        let order = cat.resolve(&["a"], &["base".to_string()]).unwrap();
        let names: Vec<&str> = order.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["c", "b", "a"]);
    }

    #[test]
    fn resolve_respects_repo_enablement() {
        let base = Repository::new("base", "Base").with_package(Package::new("x", "1", "noarch"));
        let epel = Repository::new("epel", "EPEL")
            .with_package(Package::new("fakeroot", "1.25", "noarch"));
        let cat = Catalog::new(vec![base, epel]);
        assert!(cat.find("fakeroot", &["base".to_string()]).is_none());
        assert!(cat
            .find("fakeroot", &["base".to_string(), "epel".to_string()])
            .is_some());
        assert_eq!(
            cat.resolve(&["fakeroot"], &["base".to_string()])
                .unwrap_err(),
            "fakeroot"
        );
    }

    #[test]
    fn needs_privilege_detection() {
        assert!(!simple_pkg().needs_privilege());
        assert!(privileged_pkg().needs_privilege());
        let caps = Package::new("p", "1", "noarch").with_scriptlet(Scriptlet::SetCapability {
            path: "/bin/p".into(),
            capability: "cap_net_raw+ep".into(),
        });
        assert!(caps.needs_privilege());
    }

    #[test]
    fn nevra_and_deb_labels() {
        let p = privileged_pkg();
        assert_eq!(p.nevra(), "openssh-7.4p1-21.el7.x86_64");
        let d = Package::new("openssh-client", "1:7.9p1-10+deb10u2", "amd64");
        assert_eq!(d.deb_label(), "openssh-client (1:7.9p1-10+deb10u2)");
    }
}
