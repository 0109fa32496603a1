//! Container storage drivers (paper §4.1): VFS (full copy), overlayfs
//! (kernel, needs privilege or a modern kernel), and fuse-overlayfs
//! (unprivileged, used by rootless Podman on RHEL 8).
//!
//! Rootless Podman records container ID mappings in *user extended
//! attributes*, which clashes with default-configured Lustre, GPFS and NFS
//! (§6.1) — that interaction is modelled here.

use hpcc_kernel::{Errno, Gid, KResult, Sysctl, Uid};
use hpcc_vfs::{Filesystem, FsBackend};

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

/// Prepares a writable container root filesystem from an image tree using
/// the given driver, on the given backend, for the invoking (unprivileged)
/// user: the tree becomes the container store, on `backend`, with the
/// container IDs it records persisted as `id_persistence` says.
///
/// Returns the cost record. Fails where the real stack fails, before
/// touching the tree: fuse-overlayfs on xattr-less shared filesystems,
/// subordinate-ID creation on shared filesystems, overlayfs-in-userns on
/// old kernels.
pub fn prepare_rootfs(
    rootfs: &mut Filesystem,
    driver: StorageDriver,
    backend: FsBackend,
    sysctl: &Sysctl,
    invoker_uid: u32,
    id_persistence: IdPersistence,
) -> KResult<StorageCost> {
    driver.available_unprivileged(sysctl, &backend)?;
    if id_persistence == IdPersistence::SubordinateIds
        && !backend.supports_subordinate_uid_creation()
    {
        return Err(Errno::EPERM);
    }
    if id_persistence == IdPersistence::UserXattrs && !backend.supports_user_xattrs() {
        return Err(Errno::EOPNOTSUPP);
    }
    rootfs.backend = backend;
    match id_persistence {
        IdPersistence::SubordinateIds => {}
        // One xattr per inode recording its container IDs and mode.
        IdPersistence::UserXattrs => rootfs.for_each_entry_mut(|inode| {
            if !inode.is_symlink() {
                let name = "user.containers.override_stat".to_string();
                let value = format!("{}:{}:{:o}", inode.uid, inode.gid, inode.mode.bits());
                inode.xattrs.insert(name, value.into_bytes());
            }
        }),
        IdPersistence::SingleUser => rootfs.for_each_entry_mut(|inode| {
            inode.uid = Uid(invoker_uid);
            inode.gid = Gid(invoker_uid);
        }),
    }
    // Every inode but `/` is materialized in the store.
    let inodes_copied = rootfs.inode_count() - 1;
    let bytes_copied = rootfs.total_file_bytes();
    Ok(StorageCost {
        inodes_copied,
        bytes_copied,
        cost_units: (bytes_copied as f64 * driver.space_overhead_factor()) as u64
            + inodes_copied as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Credentials, UserNamespace};
    use hpcc_vfs::{Actor, Mode};

    fn sample_tree() -> Filesystem {
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
        fs
    }

    #[test]
    fn vfs_driver_works_everywhere() {
        for backend in [
            FsBackend::LocalDisk,
            FsBackend::default_nfs(),
            FsBackend::default_lustre(),
        ] {
            let r = prepare_rootfs(
                &mut sample_tree(),
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
        for backend in [FsBackend::default_nfs(), FsBackend::default_lustre()] {
            let err = prepare_rootfs(
                &mut sample_tree(),
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
            &mut sample_tree(),
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
        let err = prepare_rootfs(
            &mut sample_tree(),
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
        assert_eq!(
            prepare_rootfs(
                &mut sample_tree(),
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
            &mut sample_tree(),
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
        let cost = |driver| {
            prepare_rootfs(
                &mut sample_tree(),
                driver,
                FsBackend::LocalDisk,
                &Sysctl::modern(),
                1000,
                IdPersistence::SingleUser,
            )
            .unwrap()
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
        let vfs_cost = prepare_rootfs(
            &mut sample_tree(),
            StorageDriver::Vfs,
            FsBackend::LocalDisk,
            &Sysctl::modern(),
            1000,
            IdPersistence::SingleUser,
        )
        .unwrap();
        let ovl_cost = prepare_rootfs(
            &mut sample_tree(),
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
        let mut fs = sample_tree();
        prepare_rootfs(
            &mut fs,
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
        let mut fs = sample_tree();
        prepare_rootfs(
            &mut fs,
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
