//! User namespaces (paper §2.1).
//!
//! The model is the paper's simplified two-level host/container division: the
//! initial namespace (the host) plus child namespaces created by container
//! runtimes. Each namespace carries a UID map and a GID map; host IDs are used
//! for access control and in-namespace IDs are aliases.

use crate::caps::{Capability, CapabilitySet};
use crate::creds::Credentials;
use crate::errno::{Errno, KResult};
use crate::idmap::{IdMap, IdMapEntry};
use crate::ids::{Gid, Uid};

/// Identifier of a user namespace within a [`crate::process::Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UsernsId(pub u64);

impl UsernsId {
    /// The initial (host) user namespace.
    pub const INIT: UsernsId = UsernsId(0);
}

/// Whether `setgroups(2)` is permitted in a namespace
/// (`/proc/<pid>/setgroups`, paper §2.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetgroupsPolicy {
    /// `allow`: processes with CAP_SETGID in the namespace may call
    /// `setgroups(2)` on mapped groups.
    Allow,
    /// `deny`: `setgroups(2)` always fails. Required before an unprivileged
    /// process may write `gid_map`.
    Deny,
}

/// How the namespace's maps were established — the distinction at the heart of
/// the paper's Type II / Type III split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOrigin {
    /// Not yet written.
    Unwritten,
    /// Written by a process holding CAP_SETUID / CAP_SETGID in the parent
    /// namespace (e.g. the `newuidmap(1)` / `newgidmap(1)` helpers).
    Privileged,
    /// Written by the unprivileged creator itself: single-ID maps only.
    Unprivileged,
}

/// A user namespace.
#[derive(Debug, Clone)]
pub struct UserNamespace {
    /// Namespace identity.
    pub id: UsernsId,
    /// Parent namespace; `None` only for the initial namespace.
    pub parent: Option<UsernsId>,
    /// Nesting level; 0 for the initial namespace.
    pub level: u32,
    /// Host (parent-side) effective UID of the creator; the creator holds all
    /// capabilities within the namespace.
    pub owner_host_uid: Uid,
    /// Host (parent-side) effective GID of the creator.
    pub owner_host_gid: Gid,
    /// UID map (empty until written).
    pub uid_map: IdMap,
    /// GID map (empty until written).
    pub gid_map: IdMap,
    /// `setgroups(2)` policy.
    pub setgroups: SetgroupsPolicy,
    /// How the UID map was written.
    pub uid_map_origin: MapOrigin,
    /// How the GID map was written.
    pub gid_map_origin: MapOrigin,
}

impl UserNamespace {
    /// The initial namespace: identity maps, setgroups allowed.
    pub fn initial() -> Self {
        UserNamespace {
            id: UsernsId::INIT,
            parent: None,
            level: 0,
            owner_host_uid: Uid::ROOT,
            owner_host_gid: Gid::ROOT,
            uid_map: IdMap::identity(),
            gid_map: IdMap::identity(),
            setgroups: SetgroupsPolicy::Allow,
            uid_map_origin: MapOrigin::Privileged,
            gid_map_origin: MapOrigin::Privileged,
        }
    }

    /// True for the initial (host) namespace.
    pub fn is_initial(&self) -> bool {
        self.parent.is_none()
    }

    /// True if this namespace was configured by privileged helpers — the
    /// paper's Type II setup.
    pub fn is_privileged_setup(&self) -> bool {
        self.uid_map_origin == MapOrigin::Privileged || self.gid_map_origin == MapOrigin::Privileged
    }

    /// Maps an in-namespace UID to a host UID.
    pub fn uid_to_host(&self, inside: Uid) -> Option<Uid> {
        self.uid_map.to_host(inside.0).map(Uid)
    }

    /// Maps a host UID to an in-namespace UID.
    pub fn uid_to_ns(&self, host: Uid) -> Option<Uid> {
        self.uid_map.to_namespace(host.0).map(Uid)
    }

    /// Maps an in-namespace GID to a host GID.
    pub fn gid_to_host(&self, inside: Gid) -> Option<Gid> {
        self.gid_map.to_host(inside.0).map(Gid)
    }

    /// Maps a host GID to an in-namespace GID.
    pub fn gid_to_ns(&self, host: Gid) -> Option<Gid> {
        self.gid_map.to_namespace(host.0).map(Gid)
    }

    /// Host UID as displayed inside the namespace (`nobody` for unmapped),
    /// e.g. `ls(1)` output and `/proc` ownership in Podman unprivileged mode
    /// (paper §4.1.1).
    pub fn display_uid(&self, host: Uid) -> Uid {
        Uid(self.uid_map.to_namespace_or_overflow(host.0))
    }

    /// Host GID as displayed inside the namespace (`nogroup` for unmapped).
    pub fn display_gid(&self, host: Gid) -> Gid {
        Gid(self.gid_map.to_namespace_or_overflow(host.0))
    }

    /// The capabilities a process holds *with respect to this namespace*:
    /// full if the process's credentials say so and it is either in this
    /// namespace or is a privileged process of an ancestor namespace.
    // hpcc-lint: allow(test_only_api) — §2.1: capabilities are relative to a user namespace, so container root is not host root; checked by this module's `caps_are_namespace_relative`
    pub fn caps_of(&self, creds: &Credentials, process_ns: UsernsId) -> CapabilitySet {
        if process_ns == self.id {
            creds.caps
        } else if process_ns == UsernsId::INIT && !self.is_initial() {
            // A host process privileged in the initial namespace is privileged
            // over every descendant namespace.
            creds.caps
        } else {
            CapabilitySet::empty()
        }
    }
}

impl UserNamespace {
    /// Convenience constructor: a fully unprivileged (Type III) namespace for
    /// the given host user — single-ID maps, setgroups denied. This is the
    /// namespace Charliecloud's `ch-run`/`ch-image` use (paper §5).
    pub fn type3(owner_uid: Uid, owner_gid: Gid) -> Self {
        UserNamespace {
            id: UsernsId(1),
            parent: Some(UsernsId::INIT),
            level: 1,
            owner_host_uid: owner_uid,
            owner_host_gid: owner_gid,
            uid_map: IdMap::single(0, owner_uid.0),
            gid_map: IdMap::single(0, owner_gid.0),
            setgroups: SetgroupsPolicy::Deny,
            uid_map_origin: MapOrigin::Unprivileged,
            gid_map_origin: MapOrigin::Unprivileged,
        }
    }

    /// Convenience constructor: a privileged-map (Type II) namespace, as set
    /// up by the `newuidmap(1)`/`newgidmap(1)` helpers for rootless Podman
    /// (paper §4, Figure 4): invoker mapped to root, plus a subordinate range.
    pub fn type2(owner_uid: Uid, owner_gid: Gid, sub_start: u32, sub_count: u32) -> Self {
        UserNamespace {
            id: UsernsId(1),
            parent: Some(UsernsId::INIT),
            level: 1,
            owner_host_uid: owner_uid,
            owner_host_gid: owner_gid,
            uid_map: IdMap::privileged_build(owner_uid.0, sub_start, sub_count),
            gid_map: IdMap::privileged_build(owner_gid.0, sub_start, sub_count),
            setgroups: SetgroupsPolicy::Allow,
            uid_map_origin: MapOrigin::Privileged,
            gid_map_origin: MapOrigin::Privileged,
        }
    }
}

/// Writes the UID map of a child namespace, enforcing the kernel's rules
/// (`user_namespaces(7)`; paper §2.1.2 / §2.1.3).
///
/// * A map may be written only once.
/// * A writer holding CAP_SETUID in the *parent* namespace may install an
///   arbitrary (valid) map — this is what `newuidmap(1)` does.
/// * Otherwise the map must be a single line of count 1 whose outside ID is
///   the writer's effective host UID.
pub fn write_uid_map(
    ns: &mut UserNamespace,
    entries: Vec<IdMapEntry>,
    writer: &Credentials,
    writer_caps_in_parent: &CapabilitySet,
) -> KResult<()> {
    if ns.uid_map.is_written() {
        return Err(Errno::EPERM);
    }
    let map = IdMap::from_entries(entries)?;
    if writer_caps_in_parent.has(Capability::CapSetuid) {
        ns.uid_map = map;
        ns.uid_map_origin = MapOrigin::Privileged;
        return Ok(());
    }
    // Unprivileged path: single entry, count 1, outside == writer's euid.
    let e = map.entries();
    if e.len() != 1 || e[0].count != 1 || e[0].outside_start != writer.euid.0 {
        return Err(Errno::EPERM);
    }
    ns.uid_map = map;
    ns.uid_map_origin = MapOrigin::Unprivileged;
    Ok(())
}

/// Writes the GID map of a child namespace (same rules as
/// [`write_uid_map`], plus: an unprivileged writer must first have denied
/// `setgroups(2)` — paper §2.1.4).
pub fn write_gid_map(
    ns: &mut UserNamespace,
    entries: Vec<IdMapEntry>,
    writer: &Credentials,
    writer_caps_in_parent: &CapabilitySet,
) -> KResult<()> {
    if ns.gid_map.is_written() {
        return Err(Errno::EPERM);
    }
    let map = IdMap::from_entries(entries)?;
    if writer_caps_in_parent.has(Capability::CapSetgid) {
        ns.gid_map = map;
        ns.gid_map_origin = MapOrigin::Privileged;
        return Ok(());
    }
    if ns.setgroups != SetgroupsPolicy::Deny {
        return Err(Errno::EPERM);
    }
    let e = map.entries();
    if e.len() != 1 || e[0].count != 1 || e[0].outside_start != writer.egid.0 {
        return Err(Errno::EPERM);
    }
    ns.gid_map = map;
    ns.gid_map_origin = MapOrigin::Unprivileged;
    Ok(())
}

/// Sets the namespace's `setgroups` file to `deny`. Must happen before the
/// GID map is written; afterwards the kernel rejects the change.
pub fn deny_setgroups(ns: &mut UserNamespace) -> KResult<()> {
    if ns.gid_map.is_written() {
        return Err(Errno::EPERM);
    }
    ns.setgroups = SetgroupsPolicy::Deny;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::creds::Credentials;
    use crate::ids::OVERFLOW_ID;

    fn alice() -> Credentials {
        Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000), Gid(2000)])
    }

    fn child_ns(owner: &Credentials) -> UserNamespace {
        UserNamespace {
            id: UsernsId(1),
            parent: Some(UsernsId::INIT),
            level: 1,
            owner_host_uid: owner.euid,
            owner_host_gid: owner.egid,
            uid_map: IdMap::empty(),
            gid_map: IdMap::empty(),
            setgroups: SetgroupsPolicy::Allow,
            uid_map_origin: MapOrigin::Unwritten,
            gid_map_origin: MapOrigin::Unwritten,
        }
    }

    #[test]
    fn initial_namespace_is_identity() {
        let ns = UserNamespace::initial();
        assert!(ns.is_initial());
        assert_eq!(ns.uid_to_host(Uid(1000)), Some(Uid(1000)));
        assert_eq!(ns.display_uid(Uid(55)), Uid(55));
        assert!(ns.uid_map.is_written() && ns.gid_map.is_written());
    }

    #[test]
    fn unprivileged_writer_limited_to_own_euid_single_entry() {
        let alice = alice();
        let mut ns = child_ns(&alice);
        let no_caps = CapabilitySet::empty();
        // Mapping someone else's UID is refused.
        let err = write_uid_map(&mut ns, vec![IdMapEntry::new(0, 1001, 1)], &alice, &no_caps)
            .unwrap_err();
        assert_eq!(err, Errno::EPERM);
        // Mapping a range is refused.
        let err = write_uid_map(
            &mut ns,
            vec![IdMapEntry::new(0, 1000, 10)],
            &alice,
            &no_caps,
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
        // Mapping own euid to in-namespace root works (paper §2.1.3).
        write_uid_map(&mut ns, vec![IdMapEntry::new(0, 1000, 1)], &alice, &no_caps).unwrap();
        assert_eq!(ns.uid_to_host(Uid(0)), Some(Uid(1000)));
        assert_eq!(ns.uid_map_origin, MapOrigin::Unprivileged);
    }

    #[test]
    fn unprivileged_gid_map_requires_setgroups_deny() {
        let alice = alice();
        let mut ns = child_ns(&alice);
        let no_caps = CapabilitySet::empty();
        let err = write_gid_map(&mut ns, vec![IdMapEntry::new(0, 1000, 1)], &alice, &no_caps)
            .unwrap_err();
        assert_eq!(err, Errno::EPERM);
        deny_setgroups(&mut ns).unwrap();
        write_gid_map(&mut ns, vec![IdMapEntry::new(0, 1000, 1)], &alice, &no_caps).unwrap();
        assert_eq!(ns.gid_to_host(Gid(0)), Some(Gid(1000)));
    }

    #[test]
    fn privileged_helper_installs_range_map() {
        let alice = alice();
        let mut ns = child_ns(&alice);
        let helper_caps = CapabilitySet::of(&[Capability::CapSetuid, Capability::CapSetgid]);
        write_uid_map(
            &mut ns,
            vec![
                IdMapEntry::new(0, 1000, 1),
                IdMapEntry::new(1, 200_000, 65_536),
            ],
            &alice,
            &helper_caps,
        )
        .unwrap();
        write_gid_map(
            &mut ns,
            vec![
                IdMapEntry::new(0, 1000, 1),
                IdMapEntry::new(1, 200_000, 65_536),
            ],
            &alice,
            &helper_caps,
        )
        .unwrap();
        assert!(ns.is_privileged_setup());
        assert_eq!(ns.uid_to_host(Uid(74)), Some(Uid(200_073)));
        assert!(ns.uid_map.is_written() && ns.gid_map.is_written());
    }

    #[test]
    fn maps_may_be_written_only_once() {
        let alice = alice();
        let mut ns = child_ns(&alice);
        let no_caps = CapabilitySet::empty();
        write_uid_map(&mut ns, vec![IdMapEntry::new(0, 1000, 1)], &alice, &no_caps).unwrap();
        let err = write_uid_map(&mut ns, vec![IdMapEntry::new(0, 1000, 1)], &alice, &no_caps)
            .unwrap_err();
        assert_eq!(err, Errno::EPERM);
    }

    #[test]
    fn setgroups_cannot_be_denied_after_gid_map() {
        let alice = alice();
        let mut ns = child_ns(&alice);
        let helper_caps = CapabilitySet::of(&[Capability::CapSetgid]);
        write_gid_map(
            &mut ns,
            vec![IdMapEntry::new(0, 1000, 1)],
            &alice,
            &helper_caps,
        )
        .unwrap();
        assert_eq!(deny_setgroups(&mut ns).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn unmapped_ids_display_as_nobody() {
        let alice = alice();
        let mut ns = child_ns(&alice);
        let no_caps = CapabilitySet::empty();
        write_uid_map(&mut ns, vec![IdMapEntry::new(0, 1000, 1)], &alice, &no_caps).unwrap();
        // Bob's files (host UID 1001) appear as nobody inside.
        assert_eq!(ns.display_uid(Uid(1001)), Uid::NOBODY);
        // Unmapped groups appear as nogroup even when accessible (paper
        // §2.1.1 case 3).
        assert_eq!(ns.display_gid(Gid(2000)), Gid(OVERFLOW_ID));
    }

    #[test]
    fn caps_are_namespace_relative() {
        let alice = alice();
        let mut ns = child_ns(&alice);
        let no_caps = CapabilitySet::empty();
        write_uid_map(&mut ns, vec![IdMapEntry::new(0, 1000, 1)], &alice, &no_caps).unwrap();
        // A containerized process with full caps in the child namespace has no
        // caps with respect to the initial namespace.
        let mut container_creds = alice.clone();
        container_creds.caps = CapabilitySet::full();
        let init = UserNamespace::initial();
        assert!(init.caps_of(&container_creds, ns.id).is_empty());
        assert!(ns.caps_of(&container_creds, ns.id).is_full());
        // A host-root process is privileged over the child namespace.
        let host_root = Credentials::host_root();
        assert!(ns.caps_of(&host_root, UsernsId::INIT).is_full());
    }
}
