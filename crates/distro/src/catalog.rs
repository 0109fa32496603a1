//! Synthetic package catalogs for the two model distributions.
//!
//! The packages mirror the ones exercised in the paper: `openssh` (chosen
//! "because it's problematic across distributions and common in HPC user
//! containers", Figure 2), `epel-release`, `fakeroot`, `pseudo`,
//! `openssh-client`, plus the HPC stack used by the Astra / LANL pipeline
//! scenarios (OpenMPI, Spack environment, application).

use std::sync::{Arc, OnceLock};

use crate::package::{Catalog, Package, PayloadEntry, Repository, Scriptlet};

/// GID used for the `ssh_keys` group created by openssh's scriptlets.
pub const SSH_KEYS_GID: u32 = 999;
/// UID of the `sshd` privilege-separation user.
pub const SSHD_UID: u32 = 74;
/// UID of Debian's `_apt` sandbox user (paper Figure 3: `seteuid 100`).
pub const APT_UID: u32 = 100;

fn openssh_rpm(arch: &str) -> Package {
    Package::new("openssh", "7.4p1-21.el7", arch)
        .with_dep("openssh-libs")
        .with_entry(PayloadEntry::dir("/etc/ssh", 0o755))
        .with_entry(PayloadEntry::file("/etc/ssh/moduli", 256, 0o644))
        .with_entry(PayloadEntry::file("/usr/bin/ssh-keygen", 512, 0o755))
        .with_entry(PayloadEntry::dir_owned("/var/empty/sshd", 0o711, 0, 0))
        // The setgid ssh-keysign helper owned root:ssh_keys is what makes the
        // cpio chown fail in a basic Type III build.
        .with_entry(PayloadEntry::file_owned(
            "/usr/libexec/openssh/ssh-keysign",
            384,
            0o2555,
            0,
            SSH_KEYS_GID,
        ))
        .with_scriptlet(Scriptlet::AddGroup {
            name: "ssh_keys".into(),
            gid: SSH_KEYS_GID,
        })
        .with_scriptlet(Scriptlet::AddUser {
            name: "sshd".into(),
            uid: SSHD_UID,
            gid: SSHD_UID,
            home: "/var/empty/sshd".into(),
        })
}

fn openssh_libs(arch: &str) -> Package {
    Package::new("openssh-libs", "7.4p1-21.el7", arch).with_entry(PayloadEntry::file(
        "/usr/lib64/libssh.so.7",
        1024,
        0o755,
    ))
}

fn epel_release() -> Package {
    Package::new("epel-release", "7-11", "noarch")
        .with_entry(PayloadEntry::file("/etc/yum.repos.d/epel.repo", 96, 0o644))
        .with_entry(PayloadEntry::file(
            "/etc/pki/rpm-gpg/RPM-GPG-KEY-EPEL-7",
            64,
            0o644,
        ))
}

fn fakeroot_rpm(arch: &str) -> Package {
    Package::new("fakeroot", "1.25.3-1.el7", arch)
        .with_dep("fakeroot-libs")
        .with_entry(PayloadEntry::file("/usr/bin/fakeroot", 256, 0o755))
        .with_entry(PayloadEntry::file("/usr/bin/faked", 256, 0o755))
}

fn fakeroot_libs(arch: &str) -> Package {
    Package::new("fakeroot-libs", "1.25.3-1.el7", arch).with_entry(PayloadEntry::file(
        "/usr/lib64/libfakeroot.so",
        512,
        0o755,
    ))
}

fn hpc_stack(arch: &str) -> Vec<Package> {
    vec![
        Package::new("gcc", "4.8.5-44.el7", arch)
            .with_entry(PayloadEntry::file("/usr/bin/gcc", 4096, 0o755))
            .with_entry(PayloadEntry::file("/usr/bin/g++", 4096, 0o755)),
        Package::new("openmpi", "4.0.5-3.el7", arch)
            .with_dep("gcc")
            .with_entry(PayloadEntry::file(
                "/usr/lib64/openmpi/bin/mpicc",
                2048,
                0o755,
            ))
            .with_entry(PayloadEntry::file(
                "/usr/lib64/openmpi/bin/mpirun",
                2048,
                0o755,
            ))
            .with_entry(PayloadEntry::file(
                "/usr/lib64/openmpi/lib/libmpi.so",
                8192,
                0o755,
            )),
        Package::new("spack", "0.16.1-1.el7", "noarch")
            .with_dep("gcc")
            .with_entry(PayloadEntry::file("/opt/spack/bin/spack", 1024, 0o755)),
        Package::new("atse-env", "1.2.5-1.el7", arch)
            .with_dep("openmpi")
            .with_dep("spack")
            .with_entry(PayloadEntry::file("/opt/atse/modules/atse.lua", 256, 0o644))
            .with_entry(PayloadEntry::file("/opt/atse/bin/atse-config", 512, 0o755)),
        Package::new("glibc-static", "2.17-317.el7", arch).with_entry(
            // A statically linked tool: LD_PRELOAD wrappers cannot interpose
            // on it (paper §5.1 / Table 1 discussion).
            PayloadEntry {
                path: "/usr/bin/busybox-static".into(),
                kind: crate::package::PayloadKind::File {
                    content: vec![0x7f; 512],
                    mode: 0o4755,
                    statically_linked: true,
                },
                uid: 0,
                gid: 0,
            },
        ),
    ]
}

/// The CentOS 7 catalog: `base` repo (always enabled) and `epel` (defined
/// only after `epel-release` is installed).
pub fn centos7_catalog(arch: &str) -> Catalog {
    let mut base = Repository::new("base", "CentOS-7 - Base")
        .with_package(openssh_rpm(arch))
        .with_package(openssh_libs(arch))
        .with_package(epel_release());
    for p in hpc_stack(arch) {
        base.packages.push(p);
    }
    let epel = Repository::new("epel", "Extra Packages for Enterprise Linux 7")
        .with_package(fakeroot_rpm(arch))
        .with_package(fakeroot_libs(arch))
        .with_package(
            Package::new("pseudo", "1.9.0-1.el7", arch).with_entry(PayloadEntry::file(
                "/usr/bin/pseudo",
                512,
                0o755,
            )),
        );
    Catalog::new(vec![base, epel])
}

fn openssh_client_deb(arch: &str) -> Package {
    Package::new("openssh-client", "1:7.9p1-10+deb10u2", arch)
        .with_dep("libxext6")
        .with_dep("xauth")
        .with_entry(PayloadEntry::file("/usr/bin/ssh", 768, 0o755))
        .with_entry(PayloadEntry::file("/usr/bin/scp", 512, 0o755))
        // ssh-agent is installed setgid _ssh (GID 104 created by the
        // maintainer script) — the multi-GID ownership that needs faking.
        .with_entry(PayloadEntry::file_owned(
            "/usr/bin/ssh-agent",
            512,
            0o2755,
            0,
            104,
        ))
        .with_scriptlet(Scriptlet::AddGroup {
            name: "_ssh".into(),
            gid: 104,
        })
        // And a capability set on ssh itself: this is the operation Debian
        // buster's fakeroot cannot fake but pseudo can (paper §5.1, §5.2).
        .with_scriptlet(Scriptlet::SetCapability {
            path: "/usr/bin/ssh".into(),
            capability: "cap_net_bind_service+ep".into(),
        })
}

/// The Debian 10 ("buster") catalog: a single `buster` repository.
pub fn debian10_catalog(arch: &str) -> Catalog {
    let buster = Repository::new("buster", "Debian 10 (buster) main")
        .with_package(openssh_client_deb(arch))
        .with_package(
            Package::new("libxext6", "2:1.3.3-1+b2", arch).with_entry(PayloadEntry::file(
                "/usr/lib/libXext.so.6",
                1024,
                0o644,
            )),
        )
        .with_package(
            Package::new("xauth", "1:1.0.10-1", arch).with_entry(PayloadEntry::file(
                "/usr/bin/xauth",
                256,
                0o755,
            )),
        )
        .with_package(
            Package::new("pseudo", "1.9.0+git20180920-1", arch)
                .with_entry(PayloadEntry::file("/usr/bin/pseudo", 512, 0o755))
                .with_entry(PayloadEntry::file("/usr/bin/fakeroot", 128, 0o755))
                .with_entry(PayloadEntry::file(
                    "/usr/lib/pseudo/libpseudo.so",
                    512,
                    0o755,
                )),
        )
        .with_package(
            // Debian's own fakeroot: installable, but cannot install packages
            // whose maintainer scripts need xattr faking.
            Package::new("fakeroot", "1.23-1", arch)
                .with_entry(PayloadEntry::file("/usr/bin/fakeroot", 128, 0o755))
                .with_entry(PayloadEntry::file("/usr/lib/libfakeroot-0.so", 256, 0o755)),
        )
        .with_package(
            Package::new("openmpi-bin", "3.1.3-11", arch).with_entry(PayloadEntry::file(
                "/usr/bin/mpirun.openmpi",
                2048,
                0o755,
            )),
        );
    Catalog::new(vec![buster])
}

/// Architectures whose catalogs [`catalog_for`] memoizes. `--arch` is a
/// tenant-chosen string, so any other value gets a freshly built catalog
/// and the memo never grows past this table.
const MEMO_ARCHES: [&str; 5] = ["x86_64", "amd64", "aarch64", "arm64", "ppc64le"];

/// The memo: one slot per (distribution family, memoized arch).
static CATALOGS: [[OnceLock<Arc<Catalog>>; MEMO_ARCHES.len()]; 2] =
    [const { [const { OnceLock::new() }; MEMO_ARCHES.len()] }; 2];

/// Returns the catalog for an image reference (e.g. `centos:7`,
/// `debian:buster`).
///
/// A catalog is immutable reference data (which repositories are enabled
/// lives in the image's files), so every caller shares one catalog per
/// (distribution family, arch): the first lookup builds it with
/// [`centos7_catalog`] or [`debian10_catalog`], later lookups are an atomic
/// load and a reference-count bump.
pub fn catalog_for(reference: &str, arch: &str) -> Option<Arc<Catalog>> {
    let name = reference.split(':').next().unwrap_or(reference);
    let (family, build): (usize, fn(&str) -> Catalog) = match name {
        "centos" | "rhel" | "rockylinux" | "almalinux" => (0, centos7_catalog),
        "debian" | "ubuntu" => (1, debian10_catalog),
        _ => return None,
    };
    Some(match MEMO_ARCHES.iter().position(|a| *a == arch) {
        Some(slot) => Arc::clone(CATALOGS[family][slot].get_or_init(|| Arc::new(build(arch)))),
        None => Arc::new(build(arch)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centos_catalog_has_expected_packages() {
        let cat = centos7_catalog("x86_64");
        let enabled = vec!["base".to_string()];
        assert!(cat.find("openssh", &enabled).is_some());
        assert!(cat.find("epel-release", &enabled).is_some());
        // fakeroot lives in EPEL only.
        assert!(cat.find("fakeroot", &enabled).is_none());
        assert!(cat
            .find("fakeroot", &["base".to_string(), "epel".to_string()])
            .is_some());
    }

    #[test]
    fn openssh_needs_privilege_on_both_distros() {
        let c = centos7_catalog("x86_64");
        assert!(c.find_anywhere("openssh").unwrap().needs_privilege());
        let d = debian10_catalog("amd64");
        assert!(d.find_anywhere("openssh-client").unwrap().needs_privilege());
    }

    #[test]
    fn openssh_resolution_includes_libs() {
        let cat = centos7_catalog("x86_64");
        let order = cat.resolve(&["openssh"], &["base".to_string()]).unwrap();
        let names: Vec<&str> = order.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["openssh-libs", "openssh"]);
    }

    #[test]
    fn debian_openssh_client_pulls_x_deps() {
        let cat = debian10_catalog("amd64");
        let order = cat
            .resolve(&["openssh-client"], &["buster".to_string()])
            .unwrap();
        let names: Vec<&str> = order.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"libxext6"));
        assert!(names.contains(&"xauth"));
        assert_eq!(*names.last().unwrap(), "openssh-client");
    }

    #[test]
    fn catalog_for_recognizes_references() {
        assert!(catalog_for("centos:7", "x86_64").is_some());
        assert!(catalog_for("debian:buster", "amd64").is_some());
        assert!(catalog_for("alpine:3.12", "x86_64").is_none());
    }

    #[test]
    fn catalog_for_shares_one_catalog_per_family_and_arch() {
        for arch in MEMO_ARCHES {
            let centos = catalog_for("centos:7", arch).unwrap();
            // Every CentOS-family reference maps to the same memo slot.
            assert!(Arc::ptr_eq(&centos, &catalog_for("rhel:7", arch).unwrap()));
            assert!(Arc::ptr_eq(&centos, &catalog_for("centos", arch).unwrap()));
            assert_eq!(*centos, centos7_catalog(arch));
            let debian = catalog_for("debian:buster", arch).unwrap();
            assert!(Arc::ptr_eq(
                &debian,
                &catalog_for("ubuntu:20.04", arch).unwrap()
            ));
            assert_eq!(*debian, debian10_catalog(arch));
            assert!(!Arc::ptr_eq(&centos, &debian));
        }
        assert!(!Arc::ptr_eq(
            &catalog_for("centos:7", "x86_64").unwrap(),
            &catalog_for("centos:7", "aarch64").unwrap()
        ));
    }

    #[test]
    fn catalog_memo_stays_bounded_under_tenant_chosen_arches() {
        for i in 0..1000 {
            let arch = format!("tenant-arch-{}", i);
            let first = catalog_for("debian:buster", &arch).unwrap();
            let second = catalog_for("debian:buster", &arch).unwrap();
            // Built fresh on every call with the requested arch: an arch
            // outside the fixed table never takes a memo slot.
            assert!(!Arc::ptr_eq(&first, &second));
            assert_eq!(*first, debian10_catalog(&arch));
        }
    }

    #[test]
    fn arch_is_propagated() {
        let cat = centos7_catalog("aarch64");
        let p = cat.find_anywhere("openmpi").unwrap();
        assert_eq!(p.arch, "aarch64");
        assert_eq!(p.nevra(), "openmpi-4.0.5-3.el7.aarch64");
    }

    #[test]
    fn static_binary_marker_present() {
        let cat = centos7_catalog("x86_64");
        let p = cat.find_anywhere("glibc-static").unwrap();
        match &p.payload[0].kind {
            crate::package::PayloadKind::File {
                statically_linked, ..
            } => assert!(*statically_linked),
            _ => panic!("expected file"),
        }
    }
}
