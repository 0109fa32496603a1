//! The non-user namespace types and the `unshare(2)`/`clone(2)` rules that
//! govern their creation (paper §2.1, footnote about "about a half dozen other
//! types of namespace").
//!
//! The paper's focused discussion covers only the user and mount namespaces,
//! but the mechanism it relies on is general: creating a *user* namespace
//! first is what grants an otherwise-unprivileged process the capabilities
//! (within that namespace) required to create every other namespace type.
//! This module models that rule precisely, because it is the reason a Type III
//! container can get a private mount namespace without any host privilege.

use std::collections::BTreeMap;

use crate::caps::{Capability, CapabilitySet};
use crate::errno::{Errno, KResult};
use crate::userns::UsernsId;

/// The Linux namespace types (`namespaces(7)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NamespaceKind {
    /// Mount namespace (`CLONE_NEWNS`) — the filesystem tree; the namespace
    /// containers care about most (paper §2.1).
    Mount,
    /// UTS namespace (`CLONE_NEWUTS`) — hostname and domain name.
    Uts,
    /// IPC namespace (`CLONE_NEWIPC`) — System V IPC and POSIX message queues.
    Ipc,
    /// PID namespace (`CLONE_NEWPID`) — process ID number space.
    Pid,
    /// Network namespace (`CLONE_NEWNET`) — interfaces, routing, ports.
    Net,
    /// User namespace (`CLONE_NEWUSER`) — UID/GID spaces; the only one an
    /// unprivileged process may create on its own.
    User,
    /// Cgroup namespace (`CLONE_NEWCGROUP`) — cgroup root directory view.
    Cgroup,
    /// Time namespace (`CLONE_NEWTIME`) — boot/monotonic clock offsets.
    Time,
}

impl NamespaceKind {
    /// All namespace kinds, in `/proc/<pid>/ns` listing order.
    pub const ALL: [NamespaceKind; 8] = [
        NamespaceKind::Mount,
        NamespaceKind::Uts,
        NamespaceKind::Ipc,
        NamespaceKind::Pid,
        NamespaceKind::Net,
        NamespaceKind::User,
        NamespaceKind::Cgroup,
        NamespaceKind::Time,
    ];

    /// The `/proc/<pid>/ns/<name>` entry name.
    pub fn proc_name(self) -> &'static str {
        match self {
            NamespaceKind::Mount => "mnt",
            NamespaceKind::Uts => "uts",
            NamespaceKind::Ipc => "ipc",
            NamespaceKind::Pid => "pid",
            NamespaceKind::Net => "net",
            NamespaceKind::User => "user",
            NamespaceKind::Cgroup => "cgroup",
            NamespaceKind::Time => "time",
        }
    }

    /// Whether creating this kind of namespace requires `CAP_SYS_ADMIN` in the
    /// *owning user namespace*. Only the user namespace itself is exempt —
    /// that exemption is the entire foundation of Type III containers.
    pub fn requires_sys_admin(self) -> bool {
        !matches!(self, NamespaceKind::User)
    }

    /// The minimum kernel version `(major, minor)` providing this namespace
    /// type.
    pub fn min_kernel(self) -> (u32, u32) {
        match self {
            NamespaceKind::Mount => (2, 4),
            NamespaceKind::Uts => (2, 6),
            NamespaceKind::Ipc => (2, 6),
            NamespaceKind::Pid => (2, 6),
            NamespaceKind::Net => (2, 6),
            NamespaceKind::User => (3, 8),
            NamespaceKind::Cgroup => (4, 6),
            NamespaceKind::Time => (5, 6),
        }
    }
}

impl std::fmt::Display for NamespaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.proc_name())
    }
}

/// A single (non-user) namespace instance. Instances are cheap identity
/// records: the behaviour that matters for the paper lives in the mount
/// namespace (modelled by the VFS crate) and the user namespace
/// ([`crate::userns::UserNamespace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsInstance {
    /// Which kind of namespace this is.
    pub kind: NamespaceKind,
    /// Instance number; 0 is the initial namespace of that kind.
    pub serial: u64,
    /// The user namespace that owns this namespace (determines which
    /// capabilities govern operations inside it).
    pub owner_userns: UsernsId,
}

impl NsInstance {
    /// The initial namespace of a kind, owned by the initial user namespace.
    pub fn initial(kind: NamespaceKind) -> Self {
        NsInstance {
            kind,
            serial: 0,
            owner_userns: UsernsId::INIT,
        }
    }

    /// True for the initial (boot-time) namespace of this kind.
    pub fn is_initial(&self) -> bool {
        self.serial == 0
    }
}

/// The set of namespaces a process belongs to — the kernel's `nsproxy` plus
/// the user namespace reference kept on the credentials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsProxy {
    members: BTreeMap<NamespaceKind, NsInstance>,
}

impl NsProxy {
    /// The host set: the initial namespace of every kind.
    pub fn host() -> Self {
        let mut members = BTreeMap::new();
        for kind in NamespaceKind::ALL {
            members.insert(kind, NsInstance::initial(kind));
        }
        NsProxy { members }
    }

    /// The namespace of a given kind this process belongs to.
    pub fn get(&self, kind: NamespaceKind) -> NsInstance {
        self.members[&kind]
    }

    /// Replaces membership for one kind (used by unshare / setns).
    pub fn set(&mut self, instance: NsInstance) {
        self.members.insert(instance.kind, instance);
    }
}

impl Default for NsProxy {
    fn default() -> Self {
        NsProxy::host()
    }
}

/// Allocates namespace instances with unique serial numbers; one per kernel.
#[derive(Debug, Clone, Default)]
pub struct NsAllocator {
    next_serial: u64,
}

impl NsAllocator {
    /// Creates an allocator whose first allocation is serial 1 (serial 0 is
    /// the initial namespace).
    pub fn new() -> Self {
        NsAllocator { next_serial: 1 }
    }

    /// Allocates a fresh namespace instance of `kind` owned by `owner`.
    pub fn allocate(&mut self, kind: NamespaceKind, owner: UsernsId) -> NsInstance {
        let serial = self.next_serial;
        self.next_serial += 1;
        NsInstance {
            kind,
            serial,
            owner_userns: owner,
        }
    }
}

/// The outcome of an `unshare(2)` request for a set of namespace kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnshareOutcome {
    /// Kinds successfully unshared, in request order.
    pub created: Vec<NsInstance>,
}

/// Performs `unshare(2)` of the requested (non-user) namespace kinds.
///
/// The permission rule (`namespaces(7)`): each kind other than the user
/// namespace requires `CAP_SYS_ADMIN` *in the user namespace that will own the
/// new namespace*. A process that has just created (or entered) its own user
/// namespace holds full capabilities there, so the combination
/// `CLONE_NEWUSER | CLONE_NEWNS` works for a completely unprivileged user —
/// this is the Type III foundation. Without a user namespace, the caller's
/// capabilities in the initial namespace are what count (the Type I case).
// hpcc-lint: allow(test_only_api) — §2.1 and §3: the Type III foundation, an unprivileged unshare of a mount namespace works only inside a user namespace; tests/extensions.rs checks it
pub fn unshare(
    proxy: &mut NsProxy,
    alloc: &mut NsAllocator,
    kinds: &[NamespaceKind],
    caps_in_owner_userns: &CapabilitySet,
    owner_userns: UsernsId,
    kernel_version: (u32, u32),
) -> KResult<UnshareOutcome> {
    // Validate everything before mutating anything: unshare(2) is atomic.
    for kind in kinds {
        if kernel_version < kind.min_kernel() {
            return Err(Errno::EINVAL);
        }
        if *kind == NamespaceKind::User {
            // User namespace creation is handled by Kernel::unshare_userns;
            // requesting it here is a usage error in the model.
            return Err(Errno::EINVAL);
        }
        if kind.requires_sys_admin() && !caps_in_owner_userns.has(Capability::CapSysAdmin) {
            return Err(Errno::EPERM);
        }
    }
    let mut created = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let instance = alloc.allocate(*kind, owner_userns);
        proxy.set(instance);
        created.push(instance);
    }
    Ok(UnshareOutcome { created })
}

/// The namespace kinds a typical container runtime unshares for a build
/// container. Network and time stay shared with the host: builds need the
/// host's network to reach package repositories and registries.
// hpcc-lint: allow(test_only_api) — harness: tests/extensions.rs unshares these kinds in its Type III namespace-stack test
pub fn build_container_kinds() -> Vec<NamespaceKind> {
    vec![
        NamespaceKind::Mount,
        NamespaceKind::Uts,
        NamespaceKind::Ipc,
        NamespaceKind::Pid,
    ]
}

#[cfg(test)]
impl NsProxy {
    /// The kinds for which this process is *not* in the initial namespace —
    /// i.e. how "containerized" the process is.
    fn non_initial(&self) -> Vec<NamespaceKind> {
        self.members
            .values()
            .filter(|ns| !ns.is_initial())
            .map(|ns| ns.kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_caps() -> CapabilitySet {
        CapabilitySet::full()
    }

    #[test]
    fn host_proxy_is_all_initial() {
        let proxy = NsProxy::host();
        assert!(proxy.non_initial().is_empty());
        for kind in NamespaceKind::ALL {
            assert!(proxy.get(kind).is_initial());
            assert_eq!(proxy.get(kind).owner_userns, UsernsId::INIT);
        }
    }

    #[test]
    fn unprivileged_process_cannot_unshare_mount_ns_alone() {
        // Without a user namespace, CAP_SYS_ADMIN in the initial namespace is
        // required — the unprivileged HPC user does not have it.
        let mut proxy = NsProxy::host();
        let mut alloc = NsAllocator::new();
        let err = unshare(
            &mut proxy,
            &mut alloc,
            &[NamespaceKind::Mount],
            &CapabilitySet::empty(),
            UsernsId::INIT,
            (5, 14),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
        assert!(proxy.non_initial().is_empty());
    }

    #[test]
    fn userns_first_then_mount_ns_works_unprivileged() {
        // After creating a user namespace the process holds full caps *in that
        // namespace*, which is what unshare checks for the namespaces it will
        // own — the Type III mechanism.
        let mut proxy = NsProxy::host();
        let mut alloc = NsAllocator::new();
        let child_userns = UsernsId(1);
        let out = unshare(
            &mut proxy,
            &mut alloc,
            &build_container_kinds(),
            &full_caps(),
            child_userns,
            (5, 14),
        )
        .unwrap();
        assert_eq!(out.created.len(), 4);
        assert_eq!(proxy.get(NamespaceKind::Mount).owner_userns, child_userns);
        assert!(!proxy.get(NamespaceKind::Mount).is_initial());
        // Network stays shared with the host.
        assert!(proxy.get(NamespaceKind::Net).is_initial());
    }

    #[test]
    fn unshare_is_atomic_on_failure() {
        let mut proxy = NsProxy::host();
        let mut alloc = NsAllocator::new();
        // Time namespaces need kernel 5.6; on a 3.10 kernel the whole request
        // fails and nothing is created.
        let err = unshare(
            &mut proxy,
            &mut alloc,
            &[NamespaceKind::Mount, NamespaceKind::Time],
            &full_caps(),
            UsernsId(1),
            (3, 10),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EINVAL);
        assert!(proxy.non_initial().is_empty());
    }

    #[test]
    fn user_kind_is_rejected_here() {
        let mut proxy = NsProxy::host();
        let mut alloc = NsAllocator::new();
        let err = unshare(
            &mut proxy,
            &mut alloc,
            &[NamespaceKind::User],
            &full_caps(),
            UsernsId::INIT,
            (5, 14),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EINVAL);
    }

    #[test]
    fn serials_increase_monotonically() {
        let mut alloc = NsAllocator::new();
        let a = alloc.allocate(NamespaceKind::Mount, UsernsId(1));
        let b = alloc.allocate(NamespaceKind::Pid, UsernsId(1));
        assert!(b.serial > a.serial);
    }
}
