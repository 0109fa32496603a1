//! Process credentials and the credential-changing system calls.
//!
//! Credentials store **host** IDs — exactly as the real kernel stores
//! `kuid_t`/`kgid_t` — because host IDs are what access control uses (paper
//! §2.1.1). System calls accept *in-namespace* IDs and translate them through
//! the calling process's user namespace, returning `EINVAL` for IDs with no
//! mapping; this is precisely what produces the `setegid 65534 failed`
//! transcript of Figure 3.

use crate::caps::{Capability, CapabilitySet};
use crate::errno::{Errno, KResult};
use crate::ids::{Gid, Uid};
use crate::userns::{SetgroupsPolicy, UserNamespace};

/// The credential set of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// Real user ID (host value).
    pub ruid: Uid,
    /// Effective user ID (host value).
    pub euid: Uid,
    /// Saved set-user ID (host value).
    pub suid: Uid,
    /// Real group ID (host value).
    pub rgid: Gid,
    /// Effective group ID (host value).
    pub egid: Gid,
    /// Saved set-group ID (host value).
    pub sgid: Gid,
    /// Supplementary groups (host values).
    pub supplementary: Vec<Gid>,
    /// Capabilities, interpreted relative to the user namespace the process
    /// belongs to.
    pub caps: CapabilitySet,
}

impl Credentials {
    /// Host root: UID 0, GID 0, all capabilities.
    pub fn host_root() -> Self {
        Credentials {
            ruid: Uid::ROOT,
            euid: Uid::ROOT,
            suid: Uid::ROOT,
            rgid: Gid::ROOT,
            egid: Gid::ROOT,
            sgid: Gid::ROOT,
            supplementary: vec![Gid::ROOT],
            caps: CapabilitySet::full(),
        }
    }

    /// An ordinary unprivileged user, as on every HPC login node.
    pub fn unprivileged_user(uid: Uid, gid: Gid, supplementary: Vec<Gid>) -> Self {
        Credentials {
            ruid: uid,
            euid: uid,
            suid: uid,
            rgid: gid,
            egid: gid,
            sgid: gid,
            supplementary,
            caps: CapabilitySet::empty(),
        }
    }

    /// The credentials a process has after `execve(2)` transfers control into
    /// a freshly created user namespace it owns: same host IDs, but all
    /// capabilities *within that namespace* (paper §2.1.1, footnote 5).
    pub fn entered_own_namespace(&self) -> Self {
        let mut c = self.clone();
        c.caps = CapabilitySet::full();
        c
    }

    /// True if the process holds the capability (relative to its own
    /// namespace).
    pub fn has_cap(&self, cap: Capability) -> bool {
        self.caps.has(cap)
    }

    /// True if the process is a member of `gid` (by effective or
    /// supplementary group).
    pub fn in_group(&self, gid: Gid) -> bool {
        self.egid == gid || self.supplementary.contains(&gid)
    }

    /// The effective UID as seen *inside* the given namespace, using the
    /// overflow UID for unmapped values.
    pub fn euid_in(&self, ns: &UserNamespace) -> Uid {
        ns.display_uid(self.euid)
    }

    /// True if the process *appears* to be root inside the namespace —
    /// regardless of whether it actually holds host privilege.
    // hpcc-lint: allow(test_only_api) — §2.1: a containerized process appears to be root without host privilege; the creds and runtime container tests check it for Types I–III
    pub fn appears_root_in(&self, ns: &UserNamespace) -> bool {
        self.euid_in(ns).is_root()
    }
}

/// `setgroups(2)`: replaces the supplementary group list.
///
/// In a user namespace this requires (a) the namespace's `setgroups` file to
/// be `allow`, (b) CAP_SETGID in the namespace, and (c) every GID to be
/// mapped. In an unprivileged (Type III) namespace the policy is `deny`, so
/// the call fails with `EPERM` — the first error in Figure 3.
pub fn sys_setgroups(creds: &mut Credentials, ns: &UserNamespace, ns_gids: &[Gid]) -> KResult<()> {
    if ns.setgroups == SetgroupsPolicy::Deny {
        return Err(Errno::EPERM);
    }
    if !creds.has_cap(Capability::CapSetgid) {
        return Err(Errno::EPERM);
    }
    let mut host_gids = Vec::with_capacity(ns_gids.len());
    for g in ns_gids {
        match ns.gid_to_host(*g) {
            Some(h) => host_gids.push(h),
            None => return Err(Errno::EINVAL),
        }
    }
    creds.supplementary = host_gids;
    Ok(())
}

/// `setresuid(2)` (also used to model `seteuid(2)` / `setuid(2)`).
///
/// IDs are in-namespace values; `None` means "leave unchanged" (-1 in the C
/// API). Unmapped IDs yield `EINVAL` (Figure 3: `seteuid 100 failed -
/// seteuid (22: Invalid argument)`), insufficient privilege yields `EPERM`.
pub fn sys_setresuid(
    creds: &mut Credentials,
    ns: &UserNamespace,
    ruid: Option<Uid>,
    euid: Option<Uid>,
    suid: Option<Uid>,
) -> KResult<()> {
    let translate = |id: Option<Uid>| -> KResult<Option<Uid>> {
        match id {
            None => Ok(None),
            Some(v) => ns.uid_to_host(v).map(Some).ok_or(Errno::EINVAL),
        }
    };
    let new_r = translate(ruid)?;
    let new_e = translate(euid)?;
    let new_s = translate(suid)?;

    let privileged = creds.has_cap(Capability::CapSetuid);
    let allowed = |target: &Option<Uid>| -> bool {
        match target {
            None => true,
            Some(t) => privileged || *t == creds.ruid || *t == creds.euid || *t == creds.suid,
        }
    };
    if !(allowed(&new_r) && allowed(&new_e) && allowed(&new_s)) {
        return Err(Errno::EPERM);
    }
    if let Some(r) = new_r {
        creds.ruid = r;
    }
    if let Some(e) = new_e {
        creds.euid = e;
    }
    if let Some(s) = new_s {
        creds.suid = s;
    }
    // Changing away from euid 0 drops capabilities unless the process keeps
    // them explicitly; we model the common case.
    if !creds.euid.is_root() && !privileged {
        creds.caps.clear();
    }
    Ok(())
}

/// `seteuid(2)` in terms of [`sys_setresuid`].
pub fn sys_seteuid(creds: &mut Credentials, ns: &UserNamespace, euid: Uid) -> KResult<()> {
    sys_setresuid(creds, ns, None, Some(euid), None)
}

/// `setresgid(2)` (also used to model `setegid(2)` / `setgid(2)`).
pub fn sys_setresgid(
    creds: &mut Credentials,
    ns: &UserNamespace,
    rgid: Option<Gid>,
    egid: Option<Gid>,
    sgid: Option<Gid>,
) -> KResult<()> {
    let translate = |id: Option<Gid>| -> KResult<Option<Gid>> {
        match id {
            None => Ok(None),
            Some(v) => ns.gid_to_host(v).map(Some).ok_or(Errno::EINVAL),
        }
    };
    let new_r = translate(rgid)?;
    let new_e = translate(egid)?;
    let new_s = translate(sgid)?;

    let privileged = creds.has_cap(Capability::CapSetgid);
    let allowed = |target: &Option<Gid>| -> bool {
        match target {
            None => true,
            Some(t) => privileged || *t == creds.rgid || *t == creds.egid || *t == creds.sgid,
        }
    };
    if !(allowed(&new_r) && allowed(&new_e) && allowed(&new_s)) {
        return Err(Errno::EPERM);
    }
    if let Some(r) = new_r {
        creds.rgid = r;
    }
    if let Some(e) = new_e {
        creds.egid = e;
    }
    if let Some(s) = new_s {
        creds.sgid = s;
    }
    Ok(())
}

/// `setegid(2)` in terms of [`sys_setresgid`].
pub fn sys_setegid(creds: &mut Credentials, ns: &UserNamespace, egid: Gid) -> KResult<()> {
    sys_setresgid(creds, ns, None, Some(egid), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idmap::IdMapEntry;
    use crate::userns::{deny_setgroups, write_gid_map, write_uid_map, MapOrigin, UsernsId};

    fn alice() -> Credentials {
        Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
    }

    fn unprivileged_ns(owner: &Credentials) -> UserNamespace {
        // Type III setup: single-ID maps written by the owner itself.
        let mut ns = UserNamespace {
            id: UsernsId(1),
            parent: Some(UsernsId::INIT),
            level: 1,
            owner_host_uid: owner.euid,
            owner_host_gid: owner.egid,
            uid_map: crate::idmap::IdMap::empty(),
            gid_map: crate::idmap::IdMap::empty(),
            setgroups: SetgroupsPolicy::Allow,
            uid_map_origin: MapOrigin::Unwritten,
            gid_map_origin: MapOrigin::Unwritten,
        };
        let none = CapabilitySet::empty();
        write_uid_map(
            &mut ns,
            vec![IdMapEntry::new(0, owner.euid.0, 1)],
            owner,
            &none,
        )
        .unwrap();
        deny_setgroups(&mut ns).unwrap();
        write_gid_map(
            &mut ns,
            vec![IdMapEntry::new(0, owner.egid.0, 1)],
            owner,
            &none,
        )
        .unwrap();
        ns
    }

    fn privileged_ns(owner: &Credentials) -> UserNamespace {
        // Type II setup: helper-installed 65536-wide maps.
        let mut ns = UserNamespace {
            id: UsernsId(2),
            parent: Some(UsernsId::INIT),
            level: 1,
            owner_host_uid: owner.euid,
            owner_host_gid: owner.egid,
            uid_map: crate::idmap::IdMap::empty(),
            gid_map: crate::idmap::IdMap::empty(),
            setgroups: SetgroupsPolicy::Allow,
            uid_map_origin: MapOrigin::Unwritten,
            gid_map_origin: MapOrigin::Unwritten,
        };
        let helper = CapabilitySet::of(&[Capability::CapSetuid, Capability::CapSetgid]);
        write_uid_map(
            &mut ns,
            vec![
                IdMapEntry::new(0, owner.euid.0, 1),
                IdMapEntry::new(1, 200_000, 65_536),
            ],
            owner,
            &helper,
        )
        .unwrap();
        write_gid_map(
            &mut ns,
            vec![
                IdMapEntry::new(0, owner.egid.0, 1),
                IdMapEntry::new(1, 200_000, 65_536),
            ],
            owner,
            &helper,
        )
        .unwrap();
        ns
    }

    #[test]
    fn containerized_process_appears_root_but_is_not() {
        let alice = alice();
        let ns = unprivileged_ns(&alice);
        let creds = alice.entered_own_namespace();
        assert!(creds.appears_root_in(&ns));
        assert_eq!(creds.euid, Uid(1000), "host identity unchanged");
    }

    #[test]
    fn figure3_apt_sandbox_failures_in_type_iii() {
        // apt-get tries: setgroups([65534]); setresgid(65534); setresuid(100).
        let alice = alice();
        let ns = unprivileged_ns(&alice);
        let mut creds = alice.entered_own_namespace();

        // setgroups: EPERM (setgroups denied in unprivileged namespaces).
        let e = sys_setgroups(&mut creds, &ns, &[Gid(65_534)]).unwrap_err();
        assert_eq!(e, Errno::EPERM);
        assert_eq!(e.transcript(), "(1: Operation not permitted)");

        // setegid 65534: EINVAL (GID not mapped).
        let e = sys_setegid(&mut creds, &ns, Gid(65_534)).unwrap_err();
        assert_eq!(e, Errno::EINVAL);
        assert_eq!(e.transcript(), "(22: Invalid argument)");

        // seteuid 100: EINVAL (UID not mapped).
        let e = sys_seteuid(&mut creds, &ns, Uid(100)).unwrap_err();
        assert_eq!(e, Errno::EINVAL);
    }

    #[test]
    fn figure3_calls_succeed_in_type_ii() {
        let alice = alice();
        let ns = privileged_ns(&alice);
        let mut creds = alice.entered_own_namespace();
        sys_setgroups(&mut creds, &ns, &[Gid(65_534)]).unwrap();
        sys_setegid(&mut creds, &ns, Gid(65_534)).unwrap();
        sys_seteuid(&mut creds, &ns, Uid(100)).unwrap();
        // The process's host identity is now the subordinate UID for 100.
        assert_eq!(creds.euid, Uid(200_099));
        assert_eq!(creds.supplementary, vec![Gid(200_000 + 65_533)]);
    }

    #[test]
    fn setuid_to_unmapped_id_is_einval_even_with_caps() {
        let alice = alice();
        let ns = unprivileged_ns(&alice);
        let mut creds = alice.entered_own_namespace();
        assert_eq!(
            sys_setresuid(
                &mut creds,
                &ns,
                Some(Uid(65_537)),
                Some(Uid(65_537)),
                Some(Uid(65_537))
            )
            .unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn unprivileged_process_cannot_change_to_other_users() {
        // Without any namespace games, an unprivileged host process cannot
        // seteuid to another user.
        let mut creds = alice();
        let host = UserNamespace::initial();
        assert_eq!(
            sys_seteuid(&mut creds, &host, Uid(0)).unwrap_err(),
            Errno::EPERM
        );
        assert_eq!(
            sys_setgroups(&mut creds, &host, &[Gid(0)]).unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn host_root_can_do_everything() {
        let mut creds = Credentials::host_root();
        let host = UserNamespace::initial();
        sys_setgroups(&mut creds, &host, &[Gid(4), Gid(39)]).unwrap();
        sys_setresuid(
            &mut creds,
            &host,
            Some(Uid(100)),
            Some(Uid(100)),
            Some(Uid(100)),
        )
        .unwrap();
        assert_eq!(creds.euid, Uid(100));
    }

    #[test]
    fn dropping_euid_from_root_clears_caps() {
        // A real setuid transition from root to a user drops capabilities.
        let mut creds = Credentials::host_root();
        creds.caps = CapabilitySet::empty(); // pretend caps already dropped
        let host = UserNamespace::initial();
        // euid root -> can still switch to saved/real ids without caps
        sys_seteuid(&mut creds, &host, Uid(0)).unwrap();
        assert!(creds.caps.is_empty());
    }

    #[test]
    fn in_group_counts_effective_and_supplementary_groups() {
        let creds = Credentials::unprivileged_user(Uid(1), Gid(5), vec![Gid(5), Gid(7)]);
        assert!(creds.in_group(Gid(5)));
        assert!(creds.in_group(Gid(7)));
        assert!(!creds.in_group(Gid(8)));
    }

    #[test]
    fn type_ii_setgroups_requires_mapped_groups() {
        let alice = alice();
        let ns = privileged_ns(&alice);
        let mut creds = alice.entered_own_namespace();
        // GID 70000 is outside the 0..=65536 in-namespace range -> EINVAL.
        assert_eq!(
            sys_setgroups(&mut creds, &ns, &[Gid(70_000)]).unwrap_err(),
            Errno::EINVAL
        );
    }
}
