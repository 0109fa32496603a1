//! `hpcc-distro`: synthetic Linux distributions for container builds.
//!
//! Provides the base images (`centos:7`, `debian:buster`), their package
//! catalogs, `/etc/passwd`-style user databases, and the YUM- and APT-like
//! package managers whose privilege assumptions drive the paper's analysis
//! (§2.3): payloads with multiple UIDs/GIDs, setuid bits and capabilities,
//! and APT's `_apt` sandbox privilege drop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apt;
pub mod baseimage;
pub mod catalog;
pub mod package;
pub mod passwd;
pub mod yum;

pub use apt::{apt_config_dump, apt_install, apt_update, sandbox_user};
pub use baseimage::{base_image, centos7, debian10, BaseImage};
pub use catalog::{
    catalog_for, centos7_catalog, debian10_catalog, APT_UID, SSHD_UID, SSH_KEYS_GID,
};
pub use package::{
    install_package, Catalog, InstallFailure, Package, PayloadEntry, PayloadKind, Repository,
    Scriptlet,
};
pub use passwd::{base_system_users, GroupEntry, PasswdEntry, UserDb};
pub use yum::{enabled_repos, is_installed, yum_config_manager, yum_install, PmOutput};
