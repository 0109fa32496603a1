//! Kernel tunables governing namespace creation.
//!
//! The paper notes (§2.1, §4.1) that namespace creation is governed by sysctl
//! settings, and that the user-namespace mapping definitions cannot exceed
//! `/proc/sys/user/max_user_namespaces`. RHEL 7.6 was the first RHEL release
//! to fully support user namespaces (October 2018), and earlier RHEL 7
//! releases shipped with `user.max_user_namespaces = 0`.

/// Kernel configuration relevant to low-privilege containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sysctl {
    /// `/proc/sys/user/max_user_namespaces`: maximum number of user
    /// namespaces. Zero disables creation entirely.
    pub max_user_namespaces: u32,
    /// Debian/Ubuntu-style `kernel.unprivileged_userns_clone`: whether an
    /// unprivileged process may create a user namespace at all.
    pub unprivileged_userns_clone: bool,
    /// Kernel version as `(major, minor)`; user namespaces require 3.8+
    /// (paper §3.1), NFS xattr support requires 5.9+ (paper §6.2.1).
    pub kernel_version: (u32, u32),
    /// Whether the overlayfs filesystem may be mounted inside an unprivileged
    /// user namespace (true on modern kernels / RHEL 8).
    pub unprivileged_overlayfs: bool,
    /// Whether cgroup v2 delegation is available for unprivileged users
    /// (needed by crun for unprivileged cgroup control, paper §4.1).
    pub cgroups_v2: bool,
}

impl Sysctl {
    /// A modern kernel (5.x, RHEL 8-era): everything enabled.
    pub fn modern() -> Self {
        Sysctl {
            max_user_namespaces: 128 * 1024,
            unprivileged_userns_clone: true,
            kernel_version: (5, 14),
            unprivileged_overlayfs: true,
            cgroups_v2: true,
        }
    }

    /// RHEL 7.6-era kernel (3.10 with user namespaces back-ported and enabled,
    /// paper §3.1): user namespaces work, overlayfs in userns does not.
    pub fn rhel76() -> Self {
        Sysctl {
            max_user_namespaces: 64 * 1024,
            unprivileged_userns_clone: true,
            kernel_version: (3, 10),
            unprivileged_overlayfs: false,
            cgroups_v2: false,
        }
    }

    /// RHEL 7.5-and-earlier-era kernel: user namespace creation disabled.
    // hpcc-lint: allow(test_only_api) — §3.1: RHEL ≤ 7.5 kernels disable user namespaces; tests/security_model.rs checks that Type III fails there
    pub fn rhel_pre_76() -> Self {
        Sysctl {
            max_user_namespaces: 0,
            unprivileged_userns_clone: true,
            kernel_version: (3, 10),
            unprivileged_overlayfs: false,
            cgroups_v2: false,
        }
    }

    /// Pre-3.8 kernel: no user namespaces at all (Docker's initial target,
    /// paper §3.1 — Linux 2.6.24).
    // hpcc-lint: allow(test_only_api) — §3.1: kernels before 3.8 have no user namespaces; tests/security_model.rs checks that only Type I builds there
    pub fn pre_userns() -> Self {
        Sysctl {
            max_user_namespaces: 0,
            unprivileged_userns_clone: false,
            kernel_version: (2, 6),
            unprivileged_overlayfs: false,
            cgroups_v2: false,
        }
    }

    /// True if the kernel has user-namespace support compiled in (≥ 3.8).
    pub fn has_user_namespaces(&self) -> bool {
        self.kernel_version >= (3, 8)
    }

    /// True if the kernel supports xattrs over NFSv4 (≥ 5.9, RFC 8276;
    /// paper §6.2.1).
    pub fn has_nfs_xattrs(&self) -> bool {
        self.kernel_version >= (5, 9)
    }
}

impl Default for Sysctl {
    fn default() -> Self {
        Sysctl::modern()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modern_kernel_supports_everything() {
        let s = Sysctl::modern();
        assert!(s.has_user_namespaces());
        assert!(s.has_nfs_xattrs());
        assert!(s.unprivileged_overlayfs);
        assert!(s.max_user_namespaces > 0);
    }

    #[test]
    fn rhel76_supports_userns_but_not_nfs_xattrs() {
        let s = Sysctl::rhel76();
        assert!(s.has_user_namespaces());
        assert!(!s.has_nfs_xattrs());
        assert!(s.max_user_namespaces > 0);
    }

    #[test]
    fn pre_76_rhel_disables_userns_by_count() {
        let s = Sysctl::rhel_pre_76();
        assert!(s.has_user_namespaces());
        assert_eq!(s.max_user_namespaces, 0);
    }

    #[test]
    fn ancient_kernel_has_no_userns() {
        let s = Sysctl::pre_userns();
        assert!(!s.has_user_namespaces());
    }

    #[test]
    fn default_is_modern() {
        assert_eq!(Sysctl::default(), Sysctl::modern());
    }
}
