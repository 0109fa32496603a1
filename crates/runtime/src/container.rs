//! Container instances for the three privilege types.
//!
//! A [`Container`] owns a writable root filesystem, the user namespace it
//! executes in, and the credentials of its processes. The launches mirror
//! the paper's taxonomy: Type I (privileged, Docker-style), Type II
//! (rootless Podman with privileged helpers), and Type III (Charliecloud,
//! fully unprivileged). Which credentials and namespace each type gets is
//! decided once, by [`container_identity`], and how each type owns its root
//! filesystem once, by [`Container::launch`], which takes the rootfs as a
//! tree: an image launch unpacks the image and hands over the tree.

use std::sync::OnceLock;

use hpcc_fuseproto::{FrozenImage, FsCreds, MemFs, Server, Session, SharedImage, Transport};
use hpcc_kernel::{Credentials, Errno, Gid, KResult, Sysctl, Uid, UserNamespace};
use hpcc_vfs::{Actor, Filesystem, FsBackend, Mode};

use hpcc_image::Image;

use crate::privilege::PrivilegeType;
use crate::storage::{prepare_rootfs, IdPersistence, StorageCost, StorageDriver};
use crate::subid::SubIdDb;

/// A running (or buildable) container.
#[derive(Debug, Clone)]
pub struct Container {
    /// Privilege type used to create it.
    pub privilege: PrivilegeType,
    /// The container's root filesystem.
    pub rootfs: Filesystem,
    /// The user namespace its processes run in.
    pub userns: UserNamespace,
    /// Credentials of the container's initial process (host IDs).
    pub creds: Credentials,
    /// CPU architecture of the image.
    pub arch: String,
    /// Storage accounting from rootfs preparation.
    pub storage_cost: StorageCost,
    /// The frozen image served to read-only mounts, built lazily on the
    /// first [`Container::mount_readonly`] and shared by every later one
    /// (cloning the container shares it too — it is immutable).
    shared: OnceLock<SharedImage>,
}

/// Parameters describing the invoking host user.
#[derive(Debug, Clone)]
pub struct Invoker {
    /// Login name (for `/etc/subuid` lookups).
    pub name: String,
    /// Host UID.
    pub uid: Uid,
    /// Host GID.
    pub gid: Gid,
    /// Supplementary groups.
    pub groups: Vec<Gid>,
}

impl Invoker {
    /// A typical unprivileged HPC user.
    pub fn user(name: &str, uid: u32, gid: u32) -> Self {
        Invoker {
            name: name.to_string(),
            uid: Uid(uid),
            gid: Gid(gid),
            groups: vec![Gid(gid)],
        }
    }

    /// Host-root invoker (for Type I).
    pub fn root() -> Self {
        Invoker {
            name: "root".to_string(),
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            groups: vec![Gid::ROOT],
        }
    }

    /// Credentials on the host.
    pub fn host_creds(&self) -> Credentials {
        if self.uid.is_root() {
            Credentials::host_root()
        } else {
            Credentials::unprivileged_user(self.uid, self.gid, self.groups.clone())
        }
    }
}

fn add_pseudo_filesystems(fs: &mut Filesystem) {
    // /proc and /sys are kernel-owned mounts: owned by *host* root, which in
    // an unprivileged namespace displays as `nobody` (paper §4.1.1).
    fs.install_dir("/proc", Uid::ROOT, Gid::ROOT, Mode::new(0o555))
        .ok();
    fs.install_dir("/sys", Uid::ROOT, Gid::ROOT, Mode::new(0o555))
        .ok();
    fs.install_file(
        "/proc/cpuinfo",
        b"processor\t: 0\n".to_vec(),
        Uid::ROOT,
        Gid::ROOT,
        Mode::new(0o444),
    )
    .ok();
}

/// The credentials and user namespace a container of type `privilege` gives
/// its processes: the one place the paper's taxonomy (§2.2) becomes an
/// identity. Every launch below asks it, and so does every builder.
///
/// * Type I: host root in the initial namespace, whoever invoked it — root
///   inside the container is root on the host.
/// * Type II: the invoker, holding every capability in a namespace that maps
///   container root to the invoker and container IDs from 1 up to the
///   invoker's first range in `subuid`. With no range the privileged helper
///   refuses the map: `EPERM`.
/// * Type III: the invoker, holding every capability in a namespace that
///   maps one ID, container root, to the invoker. `subuid` is not read.
pub fn container_identity(
    privilege: PrivilegeType,
    invoker: &Invoker,
    subuid: &SubIdDb,
) -> KResult<(Credentials, UserNamespace)> {
    let userns = match privilege {
        PrivilegeType::TypeI => return Ok((Credentials::host_root(), UserNamespace::initial())),
        PrivilegeType::TypeII => {
            let range = subuid
                .ranges_for(&invoker.name)
                .first()
                .ok_or(Errno::EPERM)?;
            UserNamespace::type2(invoker.uid, invoker.gid, range.start, range.count)
        }
        PrivilegeType::TypeIII => UserNamespace::type3(invoker.uid, invoker.gid),
    };
    Ok((invoker.host_creds().entered_own_namespace(), userns))
}

/// How a launch lays out a container's root filesystem: the privilege type,
/// the invoking user, and for a Podman launch its storage.
#[derive(Debug, Clone, Copy)]
pub enum Launch<'a> {
    /// Type I: privileged setup, IDs shared with the host. The tree keeps
    /// the owners it records; root inside the container **is** root on the
    /// host.
    TypeI,
    /// Type II, rootless-Podman-style: needs a subordinate range in
    /// `/etc/subuid`/`/etc/subgid`. The storage driver checks its backend
    /// and kernel and persists the container IDs the tree records (as
    /// `user.containers.override_stat` xattrs under fuse-overlayfs, §6.1);
    /// then every entry is re-owned by the host ID its container ID maps to,
    /// which is why shared filesystems are unsupported for container
    /// storage (§4.2).
    TypeII {
        /// The invoking user.
        invoker: &'a Invoker,
        /// `/etc/subuid` / `/etc/subgid` contents.
        subuid: &'a SubIdDb,
        /// Storage driver.
        driver: StorageDriver,
        /// Backend of the container store.
        backend: FsBackend,
        /// Kernel configuration of the node.
        sysctl: &'a Sysctl,
    },
    /// Type III, Charliecloud-style, fully unprivileged: every entry
    /// becomes owned by the invoking user (§5.2), and only one UID/GID is
    /// mapped.
    TypeIII {
        /// The invoking user.
        invoker: &'a Invoker,
    },
    /// "Unprivileged Podman" (§4.1.1, Figure 5): no subordinate ranges,
    /// single-ID map, `--ignore_chown_errors`. Functionally close to Type
    /// III but keeps Podman's storage stack.
    PodmanUnprivileged {
        /// The invoking user.
        invoker: &'a Invoker,
        /// Storage driver.
        driver: StorageDriver,
        /// Backend of the container store.
        backend: FsBackend,
        /// Kernel configuration of the node.
        sysctl: &'a Sysctl,
    },
}

impl Container {
    /// The one constructor behind every launch: the processes get
    /// [`container_identity`]'s answer for the launch's privilege type, and
    /// `tree` (an image unpacked with its recorded ownership, or any tree)
    /// becomes the rootfs under that type's ownership rule, applied in one
    /// in-place pass over its inode table; then the rootfs gains the
    /// kernel's pseudo filesystems. The root directory keeps its owner.
    pub fn launch(mut tree: Filesystem, arch: &str, launch: Launch<'_>) -> KResult<Container> {
        let no_ranges = SubIdDb::new();
        let host_root;
        let (privilege, invoker, subuid) = match launch {
            Launch::TypeI => {
                host_root = Invoker::root();
                (PrivilegeType::TypeI, &host_root, &no_ranges)
            }
            Launch::TypeII {
                invoker, subuid, ..
            } => (PrivilegeType::TypeII, invoker, subuid),
            Launch::TypeIII { invoker } | Launch::PodmanUnprivileged { invoker, .. } => {
                (PrivilegeType::TypeIII, invoker, &no_ranges)
            }
        };
        let (creds, userns) = container_identity(privilege, invoker, subuid)?;
        let storage_cost = match launch {
            Launch::TypeI => StorageCost::default(),
            Launch::TypeII {
                driver,
                backend,
                sysctl,
                ..
            } => {
                let persistence = match driver {
                    StorageDriver::FuseOverlayFs => IdPersistence::UserXattrs,
                    _ => IdPersistence::SubordinateIds,
                };
                let uid = invoker.uid.0;
                let cost = prepare_rootfs(&mut tree, driver, backend, sysctl, uid, persistence)?;
                // Re-map recorded container IDs to subordinate host IDs (what
                // really happens when the rootless engine extracts layers
                // inside the userns).
                tree.for_each_entry_mut(|inode| {
                    inode.uid = userns
                        .uid_to_host(inode.uid)
                        .unwrap_or(userns.owner_host_uid);
                    inode.gid = userns
                        .gid_to_host(inode.gid)
                        .unwrap_or(userns.owner_host_gid);
                });
                cost
            }
            Launch::TypeIII { .. } => {
                tree.for_each_entry_mut(|inode| {
                    inode.uid = invoker.uid;
                    inode.gid = invoker.gid;
                });
                StorageCost::default()
            }
            Launch::PodmanUnprivileged {
                driver,
                backend,
                sysctl,
                ..
            } => {
                let single = IdPersistence::SingleUser;
                prepare_rootfs(&mut tree, driver, backend, sysctl, invoker.uid.0, single)?
            }
        };
        add_pseudo_filesystems(&mut tree);
        Ok(Container {
            privilege,
            rootfs: tree,
            userns,
            creds,
            arch: arch.to_string(),
            storage_cost,
            shared: OnceLock::new(),
        })
    }

    /// Launches `image`: unpacks it with its recorded ownership, then
    /// [`Container::launch`].
    fn launch_image(image: &Image, launch: Launch<'_>) -> KResult<Container> {
        Container::launch(image.unpack(None)?, &image.config.architecture, launch)
    }

    /// Type I: [`Launch::TypeI`] of `image`, refused (`ENOSYS`) when
    /// `arch_check` names a host architecture the image cannot execute on.
    // hpcc-lint: allow(test_only_api) — §2.2: tests/base_image_launch.rs launches each base image as a Type I image beside its tree
    pub fn launch_type1(image: &Image, arch_check: Option<&str>) -> KResult<Container> {
        if let Some(host_arch) = arch_check {
            check_arch(image, host_arch)?;
        }
        Container::launch_image(image, Launch::TypeI)
    }

    /// Type II: [`Launch::TypeII`] of `image`.
    pub fn launch_type2(
        image: &Image,
        invoker: &Invoker,
        subuid: &SubIdDb,
        driver: StorageDriver,
        backend: FsBackend,
        sysctl: &Sysctl,
    ) -> KResult<Container> {
        let launch = Launch::TypeII {
            invoker,
            subuid,
            driver,
            backend,
            sysctl,
        };
        Container::launch_image(image, launch)
    }

    /// Type III: [`Launch::TypeIII`] of `image`.
    pub fn launch_type3(image: &Image, invoker: &Invoker) -> KResult<Container> {
        Container::launch_image(image, Launch::TypeIII { invoker })
    }

    /// Unprivileged Podman: [`Launch::PodmanUnprivileged`] of `image`.
    // hpcc-lint: allow(test_only_api) — §4.1.1, Figure 5: tests/paper_figures.rs launches unprivileged Podman
    pub fn launch_podman_unprivileged(
        image: &Image,
        invoker: &Invoker,
        driver: StorageDriver,
        backend: FsBackend,
        sysctl: &Sysctl,
    ) -> KResult<Container> {
        let launch = Launch::PodmanUnprivileged {
            invoker,
            driver,
            backend,
            sysctl,
        };
        Container::launch_image(image, launch)
    }

    /// An [`Actor`] for operations performed by the container's root process.
    pub fn actor(&self) -> Actor<'_> {
        Actor::new(&self.creds, &self.userns)
    }

    /// Serves the container's root filesystem through the FUSE-style
    /// operation protocol: returns a [`Session`] over a copy-on-write
    /// snapshot of the rootfs (an O(1) clone — file bytes stay shared), in
    /// the container's user namespace. This is what a real `ch-mount` /
    /// FUSE daemon would export; `lookup`/`open`/`read`/`readdir` replies
    /// are zero-copy against the image content.
    ///
    /// The session serves a *snapshot*: writes through it land in the
    /// mount's own CoW copy, never in `self.rootfs` (exactly like serving a
    /// built image to a runtime).
    pub fn mount(&self) -> Session<MemFs> {
        Session::new(MemFs::new(self.rootfs.clone(), self.userns.clone()))
    }

    /// The container's rootfs frozen for concurrent read-only serving:
    /// built on first use (one O(1) CoW snapshot plus a resolver warm-up)
    /// and shared by **every** read-only mount afterwards — N clients hold
    /// one `Arc`-shared inode table and byte store, not N snapshots.
    ///
    /// The freeze captures the rootfs as of this first call; like any
    /// served image, later writes to `self.rootfs` are not reflected.
    pub fn shared_image(&self) -> &SharedImage {
        self.shared
            .get_or_init(|| SharedImage::new(self.rootfs.clone(), self.userns.clone()))
    }

    /// Like [`Container::mount`], but read-only: the same [`Session`] type
    /// over a [`FrozenImage`] backend, so every mutating operation fails
    /// with `EROFS`. The mount for sharing one built image between many
    /// consumers — all sessions read the *same* [`SharedImage`] (lock-free
    /// resolve, no filesystem lock), so handing one out per client thread is
    /// O(1). The session serves the container's root process only (any
    /// other credentials are `EACCES`); use [`Container::shared_image`] and
    /// [`SharedImage::reader`] directly to serve other credentials.
    pub fn mount_readonly(&self) -> Session<FrozenImage> {
        self.shared_image().reader(self.fs_creds())
    }

    /// Per-request credentials for the container's root process — what its
    /// syscalls would carry into a mount served by [`Container::mount`].
    pub fn fs_creds(&self) -> FsCreds {
        FsCreds::from_credentials(&self.creds)
    }

    /// Serves the container's rootfs over the wire protocol: a [`Server`]
    /// pumping `transport` into a fresh read-write [`Container::mount`]
    /// session. The far end drives it with a
    /// [`Client`](hpcc_fuseproto::Client) on the transport's peer — the
    /// daemon half of a `ch-mount`, minus the kernel.
    pub fn serve<T: Transport>(&self, transport: T) -> Server<Session<MemFs>, T> {
        Server::new(self.mount(), transport)
    }

    /// Like [`Container::serve`] but read-only over the shared frozen image:
    /// each call hands out one [`Container::mount_readonly`] session, so
    /// many servers on many transports share a single image in memory. The
    /// same [`Server`] loop and the same [`Session`] dispatch serve both
    /// flavors; only the backend differs.
    pub fn serve_readonly<T: Transport>(&self, transport: T) -> Server<Session<FrozenImage>, T> {
        Server::new(self.mount_readonly(), transport)
    }

    /// The UID that `/proc` appears to be owned by inside the container —
    /// `nobody` for unprivileged namespaces (paper §4.1.1).
    // hpcc-lint: allow(test_only_api) — §4.1.1, Figure 5: tests/paper_figures.rs checks that `/proc` appears owned by nobody
    pub fn proc_owner_view(&self) -> Uid {
        let st = self.rootfs.lstat(&self.actor(), "/proc");
        match st {
            Ok(s) => s.uid_view,
            Err(_) => Uid::NOBODY,
        }
    }
}

/// Checks that an image's architecture can execute on a host architecture
/// (paper §4.2: existing x86_64 containers would not execute on Astra's
/// aarch64 nodes).
pub fn check_arch(image: &Image, host_arch: &str) -> KResult<()> {
    let img_arch = &image.config.architecture;
    if img_arch.is_empty() || img_arch == host_arch {
        Ok(())
    } else {
        Err(Errno::ENOSYS) // exec format error stand-in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_image::ImageConfig;

    fn sample_image(arch: &str) -> Image {
        let mut fs = Filesystem::new_local();
        fs.install_file("/bin/sh", b"elf".to_vec(), Uid(0), Gid(0), Mode::EXEC_755)
            .unwrap();
        fs.install_file(
            "/var/empty/sshd/.keep",
            b"".to_vec(),
            Uid(74),
            Gid(74),
            Mode::FILE_644,
        )
        .unwrap();
        let creds = Credentials::host_root();
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        let cfg = ImageConfig {
            architecture: arch.to_string(),
            ..Default::default()
        };
        Image::from_fs_preserved("base:1", &fs, &actor, cfg).unwrap()
    }

    fn alice() -> Invoker {
        Invoker::user("alice", 1000, 1000)
    }

    fn subdb() -> SubIdDb {
        let mut db = SubIdDb::new();
        db.add_range("alice", 200_000, 65_536);
        db
    }

    #[test]
    fn type1_root_is_host_root() {
        let c = Container::launch_type1(&sample_image("x86_64"), None).unwrap();
        assert!(c.creds.appears_root_in(&c.userns));
        assert_eq!(c.privilege, PrivilegeType::TypeI);
        // IDs are shared with the host: the sshd file keeps UID 74.
        let st = c.rootfs.stat(&c.actor(), "/var/empty/sshd/.keep").unwrap();
        assert_eq!(st.uid_host, Uid(74));
    }

    #[test]
    fn type2_maps_container_ids_to_subordinate_hosts() {
        let c = Container::launch_type2(
            &sample_image("x86_64"),
            &alice(),
            &subdb(),
            StorageDriver::Vfs,
            FsBackend::LocalDisk,
            &Sysctl::rhel76(),
        )
        .unwrap();
        assert!(c.creds.appears_root_in(&c.userns));
        assert_ne!(c.privilege, PrivilegeType::TypeI);
        let st = c.rootfs.stat(&c.actor(), "/var/empty/sshd/.keep").unwrap();
        assert_eq!(st.uid_view, Uid(74));
        assert_eq!(st.uid_host, Uid(200_073));
        // Container root files are owned by alice on the host.
        let sh = c.rootfs.stat(&c.actor(), "/bin/sh").unwrap();
        assert_eq!(sh.uid_host, Uid(1000));
        assert_eq!(sh.uid_view, Uid(0));
    }

    #[test]
    fn type2_requires_subuid_ranges() {
        let err = Container::launch_type2(
            &sample_image("x86_64"),
            &alice(),
            &SubIdDb::new(),
            StorageDriver::Vfs,
            FsBackend::LocalDisk,
            &Sysctl::rhel76(),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
        let identity = container_identity(PrivilegeType::TypeII, &alice(), &SubIdDb::new());
        assert_eq!(identity.unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn every_launch_gets_the_identity_of_its_type() {
        let image = sample_image("x86_64");
        let (driver, backend, sysctl) = (StorageDriver::Vfs, FsBackend::Tmpfs, Sysctl::modern());
        let launches = [
            Container::launch_type1(&image, None),
            Container::launch_type2(&image, &alice(), &subdb(), driver, backend, &sysctl),
            Container::launch_type3(&image, &alice()),
            Container::launch_podman_unprivileged(&image, &alice(), driver, backend, &sysctl),
        ];
        for c in launches.map(Result::unwrap) {
            let (creds, userns) = container_identity(c.privilege, &alice(), &subdb()).unwrap();
            assert_eq!(c.creds, creds, "{}", c.privilege);
            assert_eq!(c.userns.uid_map, userns.uid_map, "{}", c.privilege);
            assert_eq!(c.userns.gid_map, userns.gid_map, "{}", c.privilege);
        }
    }

    #[test]
    fn type2_on_nfs_storage_fails() {
        let err = Container::launch_type2(
            &sample_image("x86_64"),
            &alice(),
            &subdb(),
            StorageDriver::Vfs,
            FsBackend::default_nfs(),
            &Sysctl::rhel76(),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
    }

    #[test]
    fn type3_flattens_to_invoker_and_appears_root() {
        let c = Container::launch_type3(&sample_image("x86_64"), &alice()).unwrap();
        assert!(c.creds.appears_root_in(&c.userns));
        assert_ne!(c.privilege, PrivilegeType::TypeI);
        let st = c.rootfs.stat(&c.actor(), "/var/empty/sshd/.keep").unwrap();
        assert_eq!(st.uid_host, Uid(1000));
        // Inside the namespace it displays as root (the single mapped ID).
        assert_eq!(st.uid_view, Uid(0));
    }

    #[test]
    fn proc_appears_owned_by_nobody_in_unprivileged_modes() {
        let t3 = Container::launch_type3(&sample_image("x86_64"), &alice()).unwrap();
        assert_eq!(t3.proc_owner_view(), Uid::NOBODY);
        let pu = Container::launch_podman_unprivileged(
            &sample_image("x86_64"),
            &alice(),
            StorageDriver::Vfs,
            FsBackend::Tmpfs,
            &Sysctl::modern(),
        )
        .unwrap();
        assert_eq!(pu.proc_owner_view(), Uid::NOBODY);
        // Type II maps host root? No — host root is not in the map either, so
        // /proc also shows nobody; Type I shows root.
        let t1 = Container::launch_type1(&sample_image("x86_64"), None).unwrap();
        assert_eq!(t1.proc_owner_view(), Uid::ROOT);
    }

    #[test]
    fn arch_mismatch_refuses_to_run() {
        let x86_image = sample_image("x86_64");
        assert_eq!(
            check_arch(&x86_image, "aarch64").unwrap_err(),
            Errno::ENOSYS
        );
        assert!(check_arch(&x86_image, "x86_64").is_ok());
        assert_eq!(
            Container::launch_type1(&x86_image, Some("aarch64")).unwrap_err(),
            Errno::ENOSYS
        );
    }

    #[test]
    fn mount_serves_image_through_ops_zero_copy() {
        use hpcc_fuseproto::OpenFlags;
        let c = Container::launch_type3(&sample_image("x86_64"), &alice()).unwrap();
        let session = c.mount();
        let cred = c.fs_creds();
        let bin = session.lookup(&cred, session.root_ino(), "bin").unwrap();
        let sh = session.lookup(&cred, bin.ino, "sh").unwrap();
        // Ownership through the mount is the in-namespace view: root.
        assert_eq!(sh.attr.uid, Uid(0));
        let opened = session.open(&cred, sh.ino, OpenFlags::RDONLY).unwrap();
        let data = session.read(&cred, opened.fh, 0, 64).unwrap();
        assert_eq!(data.as_slice(), b"elf");
        // Zero-copy: the reply shares the rootfs's buffer.
        let direct = c.rootfs.file_bytes(&c.actor(), "/bin/sh").unwrap();
        assert!(data.bytes().shares_buffer_with(&direct));
        session.release(&cred, opened.fh).unwrap();
        assert_eq!(session.open_handles(), 0);
        // Writes land in the mount's CoW snapshot, not the container rootfs.
        let newdir = session
            .mkdir(&cred, bin.ino, "newdir", Mode::DIR_755)
            .unwrap();
        assert!(newdir.attr.ino > 0);
        assert!(!c.rootfs.exists(&c.actor(), "/bin/newdir"));
    }

    #[test]
    fn readonly_mount_refuses_mutation() {
        let c = Container::launch_type3(&sample_image("x86_64"), &alice()).unwrap();
        let session = c.mount_readonly();
        let cred = c.fs_creds();
        assert!(session.statfs(&cred).unwrap().readonly);
        let bin = session.lookup(&cred, session.root_ino(), "bin").unwrap();
        let err = session
            .mkdir(&cred, bin.ino, "x", Mode::DIR_755)
            .unwrap_err();
        assert_eq!(err.code(), Errno::EROFS.code());
        // Reads still flow.
        let dh = session.opendir(&cred, bin.ino).unwrap();
        session.releasedir(&cred, dh.fh).unwrap();
    }

    #[test]
    fn readonly_mounts_share_one_image() {
        use hpcc_fuseproto::OpenFlags;
        let c = Container::launch_type3(&sample_image("x86_64"), &alice()).unwrap();
        let r1 = c.mount_readonly();
        let r2 = c.mount_readonly();
        let cred = c.fs_creds();
        // Both sessions serve the same frozen image — no per-client
        // snapshot was taken.
        assert!(r1.backend().image().ptr_eq(r2.backend().image()));
        assert!(c.shared_image().ptr_eq(r1.backend().image()));
        let sh1 = r1.resolve_path(&cred, "/bin/sh", true).unwrap();
        let sh2 = r2.resolve_path(&cred, "/bin/sh", true).unwrap();
        let o1 = r1.open(&cred, sh1.ino, OpenFlags::RDONLY).unwrap();
        let o2 = r2.open(&cred, sh2.ino, OpenFlags::RDONLY).unwrap();
        let d1 = r1.read(&cred, o1.fh, 0, 64).unwrap();
        let d2 = r2.read(&cred, o2.fh, 0, 64).unwrap();
        assert_eq!(d1.as_slice(), b"elf");
        // Zero-copy across clients *and* against the container rootfs.
        assert!(d1.bytes().shares_buffer_with(d2.bytes()));
        let direct = c.rootfs.file_bytes(&c.actor(), "/bin/sh").unwrap();
        assert!(d1.bytes().shares_buffer_with(&direct));
        r1.release(&cred, o1.fh).unwrap();
        r2.release(&cred, o2.fh).unwrap();
        assert_eq!(r1.open_handles() + r2.open_handles(), 0);
    }

    #[test]
    fn type2_with_fuse_overlayfs_records_xattrs() {
        let c = Container::launch_type2(
            &sample_image("x86_64"),
            &alice(),
            &subdb(),
            StorageDriver::FuseOverlayFs,
            FsBackend::LocalDisk,
            &Sysctl::modern(),
        )
        .unwrap();
        let v = c
            .rootfs
            .get_xattr(&c.actor(), "/bin/sh", "user.containers.override_stat")
            .unwrap();
        assert!(!v.is_empty());
    }
}
