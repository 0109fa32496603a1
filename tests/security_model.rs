//! Integration tests for the security-model corner cases the paper discusses:
//! the setgroups(2) trap, CVE-2018-7169, subordinate-range misconfiguration,
//! shared-filesystem clashes, and namespace-availability gates.

use hpcc_repro::kernel::creds::sys_setgroups;
use hpcc_repro::kernel::{
    Capability, CapabilitySet, Credentials, Errno, Gid, IdMapEntry, Kernel, Sysctl, Uid,
};
use hpcc_repro::runtime::{newgidmap, newuidmap, HelperConfig, StorageDriver, SubIdDb};
use hpcc_repro::vfs::{Access, Actor, Filesystem, FsBackend, Mode};

#[test]
fn setgroups_trap_dropping_a_group_gains_access() {
    // Paper §2.1.4: /bin/reboot root:managers rwx---r-x. A manager who can
    // call setgroups(2) and drop `managers` flips from the group triplet
    // (---) to the other triplet (r-x).
    let mut fs = Filesystem::new_local();
    fs.install_file(
        "/bin/reboot",
        b"elf".to_vec(),
        Uid(0),
        Gid(500),
        Mode::new(0o705),
    )
    .unwrap();
    let host = hpcc_repro::kernel::UserNamespace::initial();
    let manager = Credentials::unprivileged_user(Uid(10), Gid(100), vec![Gid(100), Gid(500)]);
    let actor = Actor::new(&manager, &host);
    let reboot = fs.resolve(&actor, "/bin/reboot").unwrap();
    assert_eq!(
        actor
            .check_access(fs.inode(reboot).unwrap(), Access::EXECUTE)
            .unwrap_err(),
        Errno::EACCES
    );
    // Without privilege the manager cannot drop the group on the host...
    let mut creds = manager.clone();
    assert_eq!(
        sys_setgroups(&mut creds, &host, &[Gid(100)]).unwrap_err(),
        Errno::EPERM
    );
    // ...but a process that *can* (e.g. via a buggy privileged helper) gains
    // execute permission.
    let mut dropped = manager.clone();
    dropped.supplementary = vec![Gid(100)];
    let actor = Actor::new(&dropped, &host);
    assert!(actor
        .check_access(fs.inode(reboot).unwrap(), Access::EXECUTE)
        .is_ok());
}

#[test]
fn cve_2018_7169_vulnerable_newgidmap_leaves_setgroups_enabled() {
    let mut subgid = SubIdDb::new();
    subgid.add_range("manager", 200_000, 65_536);
    for vulnerable in [false, true] {
        let mut kernel = Kernel::boot(Sysctl::modern());
        let pid = kernel.spawn_user_process(Uid(10), Gid(100), vec![Gid(100), Gid(500)], "attack");
        let creds = kernel.process(pid).unwrap().creds.clone();
        let ns = kernel.unshare_userns(pid).unwrap();
        newgidmap(
            &mut kernel,
            ns,
            "manager",
            &creds,
            vec![IdMapEntry::new(0, 100, 1)],
            &subgid,
            &HelperConfig {
                installed: true,
                cve_2018_7169: vulnerable,
            },
        )
        .unwrap();
        // Inside the namespace the process has CAP_SETGID; whether
        // setgroups(2) works depends on the helper having denied it.
        let container_creds = kernel.process(pid).unwrap().creds.clone();
        let mut c = container_creds;
        c.caps = CapabilitySet::full();
        let ns_ref = kernel.userns(ns).unwrap();
        let result = sys_setgroups(&mut c, ns_ref, &[Gid(0)]);
        if vulnerable {
            assert!(result.is_ok(), "vulnerable helper allows dropping groups");
            assert_eq!(c.supplementary, vec![Gid(100)], "managers group dropped");
        } else {
            assert_eq!(result.unwrap_err(), Errno::EPERM);
        }
    }
}

#[test]
fn misconfigured_subuid_ranges_are_detected() {
    // Paper §2.1.2: if host UID 1001 mapped into Alice's container, Alice
    // would gain access to Bob's files. The helper refuses such maps and the
    // validator flags overlapping ranges.
    let mut subuid = SubIdDb::new();
    subuid.add_range("alice", 200_000, 65_536);
    let mut kernel = Kernel::boot(Sysctl::modern());
    let pid = kernel.spawn_user_process(Uid(1000), Gid(1000), vec![Gid(1000)], "podman");
    let creds = kernel.process(pid).unwrap().creds.clone();
    let ns = kernel.unshare_userns(pid).unwrap();
    // Attempt to map Bob's UID 1001 as container UID 65537.
    let err = newuidmap(
        &mut kernel,
        ns,
        "alice",
        &creds,
        vec![
            IdMapEntry::new(0, 1000, 1),
            IdMapEntry::new(65_537, 1001, 1),
        ],
        &subuid,
        &HelperConfig::default(),
    )
    .unwrap_err();
    assert_eq!(err, Errno::EPERM);

    let mut overlapping = SubIdDb::new();
    overlapping.add_range("alice", 200_000, 65_536);
    overlapping.add_range("bob", 230_000, 65_536);
    assert!(overlapping.validate(100_000).is_err());
}

#[test]
fn kernel_gates_user_namespace_creation() {
    // RHEL < 7.6: user.max_user_namespaces = 0 (paper §3.1).
    let mut kernel = Kernel::boot(Sysctl::rhel_pre_76());
    let pid = kernel.spawn_user_process(Uid(1000), Gid(1000), vec![], "ch-run");
    assert_eq!(kernel.unshare_userns(pid).unwrap_err(), Errno::ENOSPC);
    // Pre-3.8 kernels: no user namespaces at all, only Type I possible.
    let mut kernel = Kernel::boot(Sysctl::pre_userns());
    let pid = kernel.spawn_user_process(Uid(1000), Gid(1000), vec![], "docker");
    assert_eq!(kernel.unshare_userns(pid).unwrap_err(), Errno::EINVAL);
}

#[test]
fn rootless_podman_storage_on_shared_filesystems_fails() {
    use hpcc_repro::runtime::{prepare_rootfs, IdPersistence};

    let mut fs = Filesystem::new_local();
    fs.install_file("/bin/sh", b"elf".to_vec(), Uid(0), Gid(0), Mode::EXEC_755)
        .unwrap();

    // xattr-based ID mapping fails on default NFS and Lustre (§6.1), works on
    // local disk and tmpfs (§4.2).
    for (backend, ok) in [
        (FsBackend::default_nfs(), false),
        (FsBackend::default_lustre(), false),
        (FsBackend::Tmpfs, true),
        (FsBackend::LocalDisk, true),
    ] {
        let r = prepare_rootfs(
            &mut fs.clone(),
            StorageDriver::FuseOverlayFs,
            backend,
            &Sysctl::modern(),
            1000,
            IdPersistence::UserXattrs,
        );
        assert_eq!(r.is_ok(), ok, "{:?}", backend);
    }
    // NFSv4.2 with RFC 8276 xattrs (Linux ≥ 5.9) lifts the xattr limitation
    // (§6.2.1), though subordinate-UID creation still needs local storage.
    let nfs_42 = FsBackend::Nfs {
        version: 4,
        xattr_support: true,
    };
    assert!(prepare_rootfs(
        &mut fs.clone(),
        StorageDriver::FuseOverlayFs,
        nfs_42,
        &Sysctl::modern(),
        1000,
        IdPersistence::UserXattrs,
    )
    .is_ok());
    assert!(prepare_rootfs(
        &mut fs.clone(),
        StorageDriver::Vfs,
        nfs_42,
        &Sysctl::modern(),
        1000,
        IdPersistence::SubordinateIds,
    )
    .is_err());
}

#[test]
fn containerized_root_has_no_host_privilege() {
    // The core claim of Type III: full capabilities inside the namespace
    // grant nothing over host-owned resources.
    let alice = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
    let ns = hpcc_repro::kernel::UserNamespace::type3(Uid(1000), Gid(1000));
    let container_root = alice.entered_own_namespace();
    assert!(container_root.caps.has(Capability::CapChown));
    assert!(container_root.appears_root_in(&ns));

    let mut host_fs = Filesystem::new_local();
    host_fs
        .install_file(
            "/etc/shadow",
            b"root:!::".to_vec(),
            Uid(0),
            Gid(0),
            Mode::new(0o000),
        )
        .unwrap();
    let actor = Actor::new(&container_root, &ns);
    assert_eq!(
        host_fs.read_file(&actor, "/etc/shadow").unwrap_err(),
        Errno::EACCES
    );
    assert_eq!(
        host_fs
            .chown(&actor, "/etc/shadow", Some(Uid(0)), None)
            .unwrap_err(),
        Errno::EPERM
    );
}
