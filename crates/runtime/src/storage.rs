//! Container storage drivers (paper §4.1): VFS (full copy), overlayfs
//! (kernel, needs privilege or a modern kernel), and fuse-overlayfs
//! (unprivileged, used by rootless Podman on RHEL 8).
//!
//! Rootless Podman records container ID mappings in *user extended
//! attributes*, which clashes with default-configured Lustre, GPFS and NFS
//! (§6.1) — that interaction is modelled here.

use hpcc_kernel::{Errno, KResult, Sysctl, Uid};
use hpcc_vfs::{tar, Filesystem, FsBackend};

use hpcc_image::Image;

/// Storage drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageDriver {
    /// Full copy per container/layer: works everywhere, "much slower and has
    /// significant storage overhead" (§4.1), the only choice on RHEL 7.
    Vfs,
    /// Kernel overlayfs: fast, but mounting inside a user namespace requires
    /// a modern kernel.
    OverlayFs,
    /// FUSE-backed overlay: unprivileged mounts, needs user xattrs for ID
    /// mapping metadata.
    FuseOverlayFs,
}

impl StorageDriver {
    /// All drivers.
    pub const ALL: [StorageDriver; 3] = [
        StorageDriver::Vfs,
        StorageDriver::OverlayFs,
        StorageDriver::FuseOverlayFs,
    ];

    /// Name as used by container engines.
    pub fn name(self) -> &'static str {
        match self {
            StorageDriver::Vfs => "vfs",
            StorageDriver::OverlayFs => "overlay",
            StorageDriver::FuseOverlayFs => "fuse-overlayfs",
        }
    }

    /// Relative space overhead versus sharing lower layers (1.0 = full copy
    /// of every layer per container).
    pub fn space_overhead_factor(self) -> f64 {
        match self {
            StorageDriver::Vfs => 1.0,
            StorageDriver::OverlayFs => 0.05,
            StorageDriver::FuseOverlayFs => 0.08,
        }
    }

    /// Whether the driver is usable for an *unprivileged* user on the given
    /// kernel and storage backend.
    pub fn available_unprivileged(self, sysctl: &Sysctl, backend: &FsBackend) -> KResult<()> {
        match self {
            StorageDriver::Vfs => Ok(()),
            StorageDriver::OverlayFs => {
                if sysctl.unprivileged_overlayfs {
                    Ok(())
                } else {
                    Err(Errno::EPERM)
                }
            }
            StorageDriver::FuseOverlayFs => {
                if !backend.supports_user_xattrs() {
                    // The overlay metadata (whiteouts, ID mappings) needs
                    // user xattrs.
                    Err(Errno::EOPNOTSUPP)
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Accounting of a rootfs preparation, used by the storage-driver benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageCost {
    /// Inodes materialized in the container store.
    pub inodes_copied: usize,
    /// Bytes of file content copied.
    pub bytes_copied: u64,
    /// Simulated relative cost units (copies are weighted by driver).
    pub cost_units: u64,
}

/// How container-internal IDs are persisted in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdPersistence {
    /// Files are really owned by subordinate host IDs (VFS driver with a
    /// privileged map on local storage).
    SubordinateIds,
    /// IDs are recorded in `user.containers.override_stat` xattrs
    /// (fuse-overlayfs).
    UserXattrs,
    /// Everything owned by the invoking user; in-container IDs are not
    /// persisted (Type III / `--ignore_chown_errors`).
    SingleUser,
}

/// Prepares a writable container root filesystem from an image using the
/// given driver, on the given backend, for the invoking (unprivileged) user.
///
/// Returns the rootfs plus a cost record. Fails where the real stack fails:
/// fuse-overlayfs on xattr-less shared filesystems, subordinate-ID creation
/// on shared filesystems, overlayfs-in-userns on old kernels.
pub fn prepare_rootfs(
    image: &Image,
    driver: StorageDriver,
    backend: FsBackend,
    sysctl: &Sysctl,
    invoker_uid: u32,
    id_persistence: IdPersistence,
) -> KResult<(Filesystem, StorageCost)> {
    driver.available_unprivileged(sysctl, &backend)?;
    if id_persistence == IdPersistence::SubordinateIds
        && !backend.supports_subordinate_uid_creation()
    {
        return Err(Errno::EPERM);
    }
    if id_persistence == IdPersistence::UserXattrs && !backend.supports_user_xattrs() {
        return Err(Errno::EOPNOTSUPP);
    }
    let mut fs = Filesystem::new(backend);
    let mut cost = StorageCost::default();
    for layer in &image.layers {
        for entry in tar::entries(&layer.tar) {
            let entry = entry?;
            cost.inodes_copied += 1;
            cost.bytes_copied += entry.content.len() as u64;
        }
        let force_owner = match id_persistence {
            IdPersistence::SingleUser => Some((Uid(invoker_uid), hpcc_kernel::Gid(invoker_uid))),
            _ => None,
        };
        tar::unpack(
            &mut fs,
            &layer.tar,
            "/",
            &tar::UnpackOptions {
                force_owner,
                skip_devices: true,
            },
        )?;
    }
    // ID persistence via xattrs: one xattr per inode.
    if id_persistence == IdPersistence::UserXattrs {
        let paths: Vec<String> = fs.walk().into_iter().map(|(p, _)| p).collect();
        let creds = hpcc_kernel::Credentials::host_root();
        let ns = hpcc_kernel::UserNamespace::initial();
        let actor = hpcc_vfs::Actor::new(&creds, &ns);
        for p in paths {
            let st = fs.lstat(&actor, &p)?;
            if st.file_type == hpcc_vfs::FileType::Symlink {
                continue;
            }
            let value = format!("{}:{}:{:o}", st.uid_host, st.gid_host, st.mode.bits());
            fs.set_xattr(
                &actor,
                &p,
                "user.containers.override_stat",
                value.as_bytes(),
            )?;
        }
    }
    cost.cost_units = (cost.bytes_copied as f64 * driver.space_overhead_factor()) as u64
        + cost.inodes_copied as u64;
    Ok((fs, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_image::ImageConfig;
    use hpcc_kernel::{Credentials, Gid, UserNamespace};
    use hpcc_vfs::{Actor, Mode};

    fn sample_image() -> Image {
        let mut fs = Filesystem::new_local();
        fs.install_file("/bin/sh", b"elf".to_vec(), Uid(0), Gid(0), Mode::EXEC_755)
            .unwrap();
        fs.install_file(
            "/etc/passwd",
            b"root:x:0:0::/root:/bin/sh\n".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        let creds = Credentials::host_root();
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        Image::from_fs_preserved("base:1", &fs, &actor, ImageConfig::default()).unwrap()
    }

    #[test]
    fn vfs_driver_works_everywhere() {
        let img = sample_image();
        for backend in [
            FsBackend::LocalDisk,
            FsBackend::default_nfs(),
            FsBackend::default_lustre(),
        ] {
            let r = prepare_rootfs(
                &img,
                StorageDriver::Vfs,
                backend,
                &Sysctl::rhel76(),
                1000,
                IdPersistence::SingleUser,
            );
            assert!(r.is_ok(), "{:?}", backend);
        }
    }

    #[test]
    fn fuse_overlayfs_fails_on_default_nfs_and_lustre() {
        let img = sample_image();
        for backend in [FsBackend::default_nfs(), FsBackend::default_lustre()] {
            let err = prepare_rootfs(
                &img,
                StorageDriver::FuseOverlayFs,
                backend,
                &Sysctl::modern(),
                1000,
                IdPersistence::UserXattrs,
            )
            .unwrap_err();
            assert_eq!(err, Errno::EOPNOTSUPP);
        }
        // Works on local disk / tmpfs.
        assert!(prepare_rootfs(
            &img,
            StorageDriver::FuseOverlayFs,
            FsBackend::Tmpfs,
            &Sysctl::modern(),
            1000,
            IdPersistence::UserXattrs,
        )
        .is_ok());
    }

    #[test]
    fn subordinate_ids_fail_on_shared_filesystems() {
        let img = sample_image();
        let err = prepare_rootfs(
            &img,
            StorageDriver::Vfs,
            FsBackend::default_nfs(),
            &Sysctl::rhel76(),
            1000,
            IdPersistence::SubordinateIds,
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
    }

    #[test]
    fn overlayfs_in_userns_needs_modern_kernel() {
        let img = sample_image();
        assert_eq!(
            prepare_rootfs(
                &img,
                StorageDriver::OverlayFs,
                FsBackend::LocalDisk,
                &Sysctl::rhel76(),
                1000,
                IdPersistence::SingleUser,
            )
            .unwrap_err(),
            Errno::EPERM
        );
        assert!(prepare_rootfs(
            &img,
            StorageDriver::OverlayFs,
            FsBackend::LocalDisk,
            &Sysctl::modern(),
            1000,
            IdPersistence::SingleUser,
        )
        .is_ok());
    }

    #[test]
    fn storage_cost_accounting_is_pinned() {
        let img = sample_image();
        let cost = |driver| {
            prepare_rootfs(
                &img,
                driver,
                FsBackend::LocalDisk,
                &Sysctl::modern(),
                1000,
                IdPersistence::SingleUser,
            )
            .unwrap()
            .1
        };
        // Two directories and two files holding 3 + 26 bytes; the units are
        // the driver-weighted bytes plus one per inode.
        let pinned = |cost_units| StorageCost {
            inodes_copied: 4,
            bytes_copied: 29,
            cost_units,
        };
        assert_eq!(cost(StorageDriver::Vfs), pinned(33));
        assert_eq!(cost(StorageDriver::OverlayFs), pinned(5));
        assert_eq!(cost(StorageDriver::FuseOverlayFs), pinned(6));
    }

    #[test]
    fn vfs_costs_more_than_overlay() {
        let img = sample_image();
        let (_, vfs_cost) = prepare_rootfs(
            &img,
            StorageDriver::Vfs,
            FsBackend::LocalDisk,
            &Sysctl::modern(),
            1000,
            IdPersistence::SingleUser,
        )
        .unwrap();
        let (_, ovl_cost) = prepare_rootfs(
            &img,
            StorageDriver::OverlayFs,
            FsBackend::LocalDisk,
            &Sysctl::modern(),
            1000,
            IdPersistence::SingleUser,
        )
        .unwrap();
        assert!(vfs_cost.cost_units > ovl_cost.cost_units);
    }

    #[test]
    fn single_user_persistence_flattens_ownership() {
        let img = sample_image();
        let (fs, _) = prepare_rootfs(
            &img,
            StorageDriver::Vfs,
            FsBackend::LocalDisk,
            &Sysctl::modern(),
            1000,
            IdPersistence::SingleUser,
        )
        .unwrap();
        assert!(fs
            .distinct_owner_uids()
            .iter()
            .all(|u| u.0 == 1000 || u.0 == 0));
    }

    #[test]
    fn xattr_persistence_records_override_stat() {
        let img = sample_image();
        let (fs, _) = prepare_rootfs(
            &img,
            StorageDriver::FuseOverlayFs,
            FsBackend::LocalDisk,
            &Sysctl::modern(),
            1000,
            IdPersistence::UserXattrs,
        )
        .unwrap();
        let creds = Credentials::host_root();
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);
        let v = fs
            .get_xattr(&actor, "/etc/passwd", "user.containers.override_stat")
            .unwrap();
        assert!(String::from_utf8(v).unwrap().starts_with("0:0:"));
    }

    #[test]
    fn driver_names() {
        assert_eq!(StorageDriver::Vfs.name(), "vfs");
        assert_eq!(StorageDriver::FuseOverlayFs.name(), "fuse-overlayfs");
    }
}
