//! Construction of the base images (`centos:7`, `debian:buster`) that the
//! paper's Dockerfiles start `FROM`.
//!
//! The images are built with canonical root-owned content; how they end up
//! owned inside a build (flattened to the build user for Type III, subordinate
//! IDs for Type II) is decided by the runtime that unpacks them.

use std::sync::Arc;

use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
use hpcc_vfs::{Actor, Filesystem, Mode};

use crate::catalog::{catalog_for, APT_UID};
use crate::package::Catalog;
use crate::passwd::{base_system_users, UserDb};

/// A base image: filesystem tree plus the package catalog its package manager
/// sees.
#[derive(Debug, Clone)]
pub struct BaseImage {
    /// Image reference, e.g. `centos:7`.
    pub reference: String,
    /// The image filesystem.
    pub fs: Filesystem,
    /// Package catalog for the distribution (shared; see
    /// [`catalog_for`]).
    pub catalog: Arc<Catalog>,
    /// CPU architecture the image was built for.
    pub arch: String,
}

fn common_tree(fs: &mut Filesystem, users: &UserDb) {
    let r = Uid::ROOT;
    let g = Gid::ROOT;
    for d in [
        "/bin",
        "/sbin",
        "/usr/bin",
        "/usr/sbin",
        "/usr/lib",
        "/usr/lib64",
        "/usr/share",
        "/etc",
        "/var/lib",
        "/var/log",
        "/var/cache",
        "/root",
        "/home",
        "/opt",
        "/srv",
        "/proc",
        "/sys",
        "/dev",
    ] {
        fs.install_dir(d, r, g, Mode::new(0o755)).unwrap();
    }
    fs.install_dir("/tmp", r, g, Mode::new(0o1777)).unwrap();
    fs.install_dir("/var/tmp", r, g, Mode::new(0o1777)).unwrap();
    fs.install_file("/bin/sh", b"#!ELF shell".to_vec(), r, g, Mode::EXEC_755)
        .unwrap();
    fs.install_file("/bin/echo", b"#!ELF echo".to_vec(), r, g, Mode::EXEC_755)
        .unwrap();
    fs.install_file("/bin/grep", b"#!ELF grep".to_vec(), r, g, Mode::EXEC_755)
        .unwrap();
    fs.install_symlink("/bin/bash", "sh", r, g).unwrap();
    users.store_into(fs);
}

/// Builds the `centos:7` base image for the given architecture.
pub fn centos7(arch: &str) -> BaseImage {
    let mut fs = Filesystem::new_local();
    let users = base_system_users();
    common_tree(&mut fs, &users);
    let r = Uid::ROOT;
    let g = Gid::ROOT;
    fs.install_file(
        "/etc/redhat-release",
        b"CentOS Linux release 7.9.2009 (Core)\n".to_vec(),
        r,
        g,
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_file(
        "/etc/os-release",
        b"NAME=\"CentOS Linux\"\nVERSION=\"7 (Core)\"\nID=\"centos\"\nVERSION_ID=\"7\"\n".to_vec(),
        r,
        g,
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_file(
        "/etc/yum.conf",
        b"[main]\ncachedir=/var/cache/yum\nkeepcache=0\n".to_vec(),
        r,
        g,
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_file(
        "/etc/yum.repos.d/CentOS-Base.repo",
        b"[base]\nname=CentOS-7 - Base\nenabled=1\n".to_vec(),
        r,
        g,
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_file("/usr/bin/yum", b"#!ELF yum".to_vec(), r, g, Mode::EXEC_755)
        .unwrap();
    fs.install_file(
        "/usr/bin/yum-config-manager",
        b"#!ELF yum-config-manager".to_vec(),
        r,
        g,
        Mode::EXEC_755,
    )
    .unwrap();
    fs.install_file("/usr/bin/rpm", b"#!ELF rpm".to_vec(), r, g, Mode::EXEC_755)
        .unwrap();
    fs.install_dir("/var/lib/rpm", r, g, Mode::new(0o755))
        .unwrap();
    fs.install_file("/var/lib/rpm/installed", Vec::new(), r, g, Mode::FILE_644)
        .unwrap();
    BaseImage {
        reference: "centos:7".to_string(),
        fs,
        catalog: catalog_for("centos:7", arch).expect("centos catalog"),
        arch: arch.to_string(),
    }
}

/// Builds the `debian:buster` base image for the given architecture.
///
/// Crucially, the image ships **no package indexes** (`/var/lib/apt/lists` is
/// empty), so nothing can be installed before `apt-get update` (paper §5.2,
/// §5.3.2), and it contains the `_apt` user that APT drops privileges to.
pub fn debian10(arch: &str) -> BaseImage {
    let mut fs = Filesystem::new_local();
    let mut users = base_system_users();
    users.add_user("_apt", APT_UID, 65534, "/nonexistent", "/usr/sbin/nologin");
    common_tree(&mut fs, &users);
    let r = Uid::ROOT;
    let g = Gid::ROOT;
    fs.install_file(
        "/etc/os-release",
        b"PRETTY_NAME=\"Debian GNU/Linux 10 (buster)\"\nNAME=\"Debian GNU/Linux\"\nVERSION_ID=\"10\"\nVERSION=\"10 (buster)\"\nVERSION_CODENAME=buster\nID=debian\n"
            .to_vec(),
        r,
        g,
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_file(
        "/etc/debian_version",
        b"10.8\n".to_vec(),
        r,
        g,
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_file(
        "/etc/apt/sources.list",
        b"deb http://deb.debian.org/debian buster main\n".to_vec(),
        r,
        g,
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_dir("/etc/apt/apt.conf.d", r, g, Mode::new(0o755))
        .unwrap();
    fs.install_dir("/var/lib/apt/lists", r, g, Mode::new(0o755))
        .unwrap();
    fs.install_dir("/var/lib/dpkg", r, g, Mode::new(0o755))
        .unwrap();
    fs.install_file("/var/lib/dpkg/status", Vec::new(), r, g, Mode::FILE_644)
        .unwrap();
    fs.install_dir("/var/log/apt", r, g, Mode::new(0o755))
        .unwrap();
    fs.install_file(
        "/usr/bin/apt-get",
        b"#!ELF apt-get".to_vec(),
        r,
        g,
        Mode::EXEC_755,
    )
    .unwrap();
    fs.install_file(
        "/usr/bin/apt-config",
        b"#!ELF apt-config".to_vec(),
        r,
        g,
        Mode::EXEC_755,
    )
    .unwrap();
    fs.install_file(
        "/usr/bin/dpkg",
        b"#!ELF dpkg".to_vec(),
        r,
        g,
        Mode::EXEC_755,
    )
    .unwrap();
    BaseImage {
        reference: "debian:buster".to_string(),
        fs,
        catalog: catalog_for("debian:buster", arch).expect("debian catalog"),
        arch: arch.to_string(),
    }
}

/// Returns the base image for an image reference, or `None` if unknown.
pub fn base_image(reference: &str, arch: &str) -> Option<BaseImage> {
    match reference {
        "centos:7" | "centos:7.9" | "rhel:7" => Some(centos7(arch)),
        "debian:buster" | "debian:10" | "ubuntu:18.04" | "ubuntu:20.04" => Some(debian10(arch)),
        _ => None,
    }
}

/// The base-image reference of the distribution installed in `fs`, read
/// from its `/etc/os-release` as `ID:VERSION_ID` (`centos:7`,
/// `debian:10`): what an image that was pulled rather than built here
/// descends from. `None` when the file is missing or lacks either field.
pub fn os_release_reference(fs: &Filesystem) -> Option<String> {
    let (creds, ns) = (Credentials::host_root(), UserNamespace::initial());
    let text = fs
        .read_to_string(&Actor::new(&creds, &ns), "/etc/os-release")
        .ok()?;
    let field = |key: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
            .map(|value| value.trim_matches('"'))
    };
    Some(format!("{}:{}", field("ID")?, field("VERSION_ID")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_actor() -> (Credentials, UserNamespace) {
        (Credentials::host_root(), UserNamespace::initial())
    }

    #[test]
    fn centos_has_redhat_release_matching_rhel7_regex() {
        let img = centos7("x86_64");
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let text = img
            .fs
            .read_to_string(&actor, "/etc/redhat-release")
            .unwrap();
        // ch-image's rhel7 config matches the regex "release 7\." (paper §5.3.1).
        assert!(text.contains("release 7."));
    }

    #[test]
    fn debian_os_release_contains_buster() {
        let img = debian10("amd64");
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let text = img.fs.read_to_string(&actor, "/etc/os-release").unwrap();
        assert!(text.contains("buster"));
    }

    #[test]
    fn debian_ships_no_package_indexes() {
        let img = debian10("amd64");
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        assert!(img
            .fs
            .readdir(&actor, "/var/lib/apt/lists")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn debian_has_apt_sandbox_user() {
        let img = debian10("amd64");
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let db = UserDb::load_from(&img.fs, &actor);
        assert_eq!(db.user_by_name("_apt").unwrap().uid, APT_UID);
    }

    #[test]
    fn both_images_are_entirely_root_owned() {
        for img in [centos7("x86_64"), debian10("amd64")] {
            assert_eq!(img.fs.distinct_owner_uids(), vec![Uid(0)]);
        }
    }

    #[test]
    fn os_release_names_each_base_image() {
        assert_eq!(
            os_release_reference(&centos7("x86_64").fs).unwrap(),
            "centos:7"
        );
        assert_eq!(
            os_release_reference(&debian10("amd64").fs).unwrap(),
            "debian:10"
        );
        assert_eq!(os_release_reference(&Filesystem::new_local()), None);
    }

    #[test]
    fn base_image_lookup() {
        assert!(base_image("centos:7", "x86_64").is_some());
        assert!(base_image("debian:buster", "aarch64").is_some());
        assert!(base_image("alpine:3", "x86_64").is_none());
    }

    #[test]
    fn centos_repo_file_enables_base_only() {
        let img = centos7("x86_64");
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let repo = img
            .fs
            .read_to_string(&actor, "/etc/yum.repos.d/CentOS-Base.repo")
            .unwrap();
        assert!(repo.contains("[base]"));
        assert!(repo.contains("enabled=1"));
        assert!(!img.fs.exists(&actor, "/etc/yum.repos.d/epel.repo"));
    }
}
