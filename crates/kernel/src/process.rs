//! The kernel object: namespace registry, process table, and namespace
//! creation (`unshare(2)` / `clone(2)` with `CLONE_NEWUSER`).

use std::collections::HashMap;

use crate::caps::{Capability, CapabilitySet};
use crate::creds::Credentials;
use crate::errno::{Errno, KResult};
use crate::idmap::IdMapEntry;
use crate::ids::{Gid, Uid};
use crate::sysctl::Sysctl;
use crate::userns::{
    deny_setgroups, write_gid_map, write_uid_map, MapOrigin, SetgroupsPolicy, UserNamespace,
    UsernsId,
};

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// A process: credentials plus the user namespace it lives in.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process ID.
    pub pid: Pid,
    /// Parent process ID (PID 1 is its own parent in this model).
    pub ppid: Pid,
    /// Credentials (host IDs).
    pub creds: Credentials,
    /// User namespace membership.
    pub userns: UsernsId,
    /// File-mode creation mask.
    pub umask: u16,
    /// Short descriptive name (the command), used in transcripts.
    pub comm: String,
}

/// The simulated kernel: sysctl state, user namespaces, and processes.
///
/// A `Kernel` instance corresponds to one node (one kernel) in the HPC
/// cluster substrate.
#[derive(Debug, Clone)]
pub struct Kernel {
    sysctl: Sysctl,
    namespaces: HashMap<UsernsId, UserNamespace>,
    processes: HashMap<Pid, Process>,
    next_ns: u64,
    next_pid: u32,
    user_namespaces_created: u32,
}

impl Kernel {
    /// Boots a kernel with the given sysctl configuration. PID 1 runs as host
    /// root in the initial namespace.
    // hpcc-lint: allow(test_only_api) — §3.1: tests/security_model.rs boots modern, RHEL ≤ 7.5 and pre-3.8 kernels
    pub fn boot(sysctl: Sysctl) -> Self {
        let mut namespaces = HashMap::new();
        namespaces.insert(UsernsId::INIT, UserNamespace::initial());
        let mut processes = HashMap::new();
        processes.insert(
            Pid(1),
            Process {
                pid: Pid(1),
                ppid: Pid(1),
                creds: Credentials::host_root(),
                userns: UsernsId::INIT,
                umask: 0o022,
                comm: "init".to_string(),
            },
        );
        Kernel {
            sysctl,
            namespaces,
            processes,
            next_ns: 1,
            next_pid: 2,
            user_namespaces_created: 0,
        }
    }

    /// The kernel's sysctl configuration.
    pub fn sysctl(&self) -> &Sysctl {
        &self.sysctl
    }

    /// Looks up a namespace.
    pub fn userns(&self, id: UsernsId) -> Option<&UserNamespace> {
        self.namespaces.get(&id)
    }

    /// Looks up a process.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.processes.get(&pid)
    }

    /// Spawns a login session process for an ordinary user.
    // hpcc-lint: allow(test_only_api) — harness: tests/security_model.rs starts its §2.1.2 helper and §3.1 kernel scenarios from a user process
    pub fn spawn_user_process(
        &mut self,
        uid: Uid,
        gid: Gid,
        supplementary: Vec<Gid>,
        comm: &str,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.processes.insert(
            pid,
            Process {
                pid,
                ppid: Pid(1),
                creds: Credentials::unprivileged_user(uid, gid, supplementary),
                userns: UsernsId::INIT,
                umask: 0o022,
                comm: comm.to_string(),
            },
        );
        pid
    }

    /// `unshare(CLONE_NEWUSER)`: creates a new user namespace and moves the
    /// process into it. The process gains all capabilities *within* the new
    /// namespace but its maps are unwritten.
    // hpcc-lint: allow(test_only_api) — §3.1: tests/security_model.rs checks ENOSPC on RHEL ≤ 7.5 and EINVAL before 3.8
    pub fn unshare_userns(&mut self, pid: Pid) -> KResult<UsernsId> {
        let proc = self.processes.get(&pid).ok_or(Errno::ESRCH)?.clone();
        if !self.sysctl.has_user_namespaces() {
            return Err(Errno::EINVAL);
        }
        if !self.sysctl.unprivileged_userns_clone && !proc.creds.has_cap(Capability::CapSysAdmin) {
            return Err(Errno::EPERM);
        }
        if self.user_namespaces_created >= self.sysctl.max_user_namespaces {
            // The kernel reports ENOSPC when user.max_user_namespaces is
            // exceeded (and when it is zero).
            return Err(Errno::ENOSPC);
        }
        let parent_ns = proc.userns;
        let id = UsernsId(self.next_ns);
        self.next_ns += 1;
        self.user_namespaces_created += 1;
        let level = self
            .namespaces
            .get(&parent_ns)
            .map(|n| n.level + 1)
            .unwrap_or(1);
        self.namespaces.insert(
            id,
            UserNamespace {
                id,
                parent: Some(parent_ns),
                level,
                owner_host_uid: proc.creds.euid,
                owner_host_gid: proc.creds.egid,
                uid_map: crate::idmap::IdMap::empty(),
                gid_map: crate::idmap::IdMap::empty(),
                setgroups: SetgroupsPolicy::Allow,
                uid_map_origin: MapOrigin::Unwritten,
                gid_map_origin: MapOrigin::Unwritten,
            },
        );
        let p = self.processes.get_mut(&pid).expect("checked above");
        p.userns = id;
        p.creds = p.creds.entered_own_namespace();
        Ok(id)
    }

    /// Writes the new namespace's UID map on behalf of `writer_pid`. The
    /// writer's capabilities *in the parent namespace* decide whether range
    /// maps are allowed (this is how the `newuidmap(1)` helper is modelled:
    /// it runs in the parent namespace with CAP_SETUID).
    pub fn set_uid_map(
        &mut self,
        ns_id: UsernsId,
        entries: Vec<IdMapEntry>,
        writer_creds: &Credentials,
        writer_caps_in_parent: &CapabilitySet,
    ) -> KResult<()> {
        let ns = self.namespaces.get_mut(&ns_id).ok_or(Errno::EINVAL)?;
        write_uid_map(ns, entries, writer_creds, writer_caps_in_parent)
    }

    /// Writes the new namespace's GID map (see [`Kernel::set_uid_map`]).
    pub fn set_gid_map(
        &mut self,
        ns_id: UsernsId,
        entries: Vec<IdMapEntry>,
        writer_creds: &Credentials,
        writer_caps_in_parent: &CapabilitySet,
    ) -> KResult<()> {
        let ns = self.namespaces.get_mut(&ns_id).ok_or(Errno::EINVAL)?;
        write_gid_map(ns, entries, writer_creds, writer_caps_in_parent)
    }

    /// Writes `deny` to the namespace's `setgroups` file.
    pub fn deny_setgroups(&mut self, ns_id: UsernsId) -> KResult<()> {
        let ns = self.namespaces.get_mut(&ns_id).ok_or(Errno::EINVAL)?;
        deny_setgroups(ns)
    }

    /// Renders `/proc/<pid>/uid_map` for a process.
    // hpcc-lint: allow(test_only_api) — Figure 4: the `/proc/<pid>/uid_map` a Type II helper writes, read by the Figure 4 tests here and in runtime's subid module
    pub fn proc_uid_map(&self, pid: Pid) -> KResult<String> {
        let p = self.processes.get(&pid).ok_or(Errno::ESRCH)?;
        let ns = self.namespaces.get(&p.userns).ok_or(Errno::ESRCH)?;
        Ok(ns.uid_map.render_procfs())
    }
}

#[cfg(test)]
impl Kernel {
    /// Sets up a fully unprivileged (Type III) namespace for a process —
    /// its own UID/GID mapped to in-namespace root, nothing else.
    fn setup_type3_namespace(&mut self, pid: Pid) -> KResult<UsernsId> {
        let creds = self.processes.get(&pid).ok_or(Errno::ESRCH)?.creds.clone();
        // The creator is unprivileged on the host.
        let host_caps = CapabilitySet::empty();
        let ns_id = self.unshare_userns(pid)?;
        self.set_uid_map(
            ns_id,
            vec![IdMapEntry::new(0, creds.euid.0, 1)],
            &creds,
            &host_caps,
        )?;
        self.deny_setgroups(ns_id)?;
        self.set_gid_map(
            ns_id,
            vec![IdMapEntry::new(0, creds.egid.0, 1)],
            &creds,
            &host_caps,
        )?;
        Ok(ns_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_with_alice() -> (Kernel, Pid) {
        let mut k = Kernel::boot(Sysctl::modern());
        let pid = k.spawn_user_process(Uid(1000), Gid(1000), vec![Gid(1000)], "bash");
        (k, pid)
    }

    #[test]
    fn boot_creates_init() {
        let k = Kernel::boot(Sysctl::modern());
        let init = k.process(Pid(1)).unwrap();
        assert!(init.creds.euid.is_root());
        assert_eq!(init.userns, UsernsId::INIT);
    }

    #[test]
    fn unshare_gives_full_caps_in_new_ns_only() {
        let (mut k, pid) = kernel_with_alice();
        let ns_id = k.unshare_userns(pid).unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.userns, ns_id);
        assert!(p.creds.caps.is_full());
        // But host identity unchanged.
        assert_eq!(p.creds.euid, Uid(1000));
    }

    #[test]
    fn type3_setup_produces_single_id_maps() {
        let (mut k, pid) = kernel_with_alice();
        let ns_id = k.setup_type3_namespace(pid).unwrap();
        let ns = k.userns(ns_id).unwrap();
        assert_eq!(ns.uid_map.mapped_count(), 1);
        assert_eq!(ns.gid_map.mapped_count(), 1);
        assert_eq!(ns.setgroups, SetgroupsPolicy::Deny);
        assert!(!ns.is_privileged_setup());
        assert_eq!(ns.uid_to_host(Uid(0)), Some(Uid(1000)));
    }

    #[test]
    fn userns_disabled_by_sysctl_count() {
        let mut k = Kernel::boot(Sysctl::rhel_pre_76());
        let pid = k.spawn_user_process(Uid(1000), Gid(1000), vec![], "bash");
        assert_eq!(k.unshare_userns(pid).unwrap_err(), Errno::ENOSPC);
    }

    #[test]
    fn userns_unavailable_on_ancient_kernel() {
        let mut k = Kernel::boot(Sysctl::pre_userns());
        let pid = k.spawn_user_process(Uid(1000), Gid(1000), vec![], "bash");
        assert_eq!(k.unshare_userns(pid).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn max_user_namespaces_enforced() {
        let mut sysctl = Sysctl::modern();
        sysctl.max_user_namespaces = 2;
        let mut k = Kernel::boot(sysctl);
        let a = k.spawn_user_process(Uid(1000), Gid(1000), vec![], "a");
        let b = k.spawn_user_process(Uid(1001), Gid(1001), vec![], "b");
        let c = k.spawn_user_process(Uid(1002), Gid(1002), vec![], "c");
        k.unshare_userns(a).unwrap();
        k.unshare_userns(b).unwrap();
        assert_eq!(k.unshare_userns(c).unwrap_err(), Errno::ENOSPC);
    }

    #[test]
    fn proc_uid_map_matches_figure4_format() {
        let (mut k, pid) = kernel_with_alice();
        let ns_id = k.unshare_userns(pid).unwrap();
        let creds = k.process(pid).unwrap().creds.clone();
        let helper = CapabilitySet::of(&[Capability::CapSetuid]);
        k.set_uid_map(
            ns_id,
            vec![
                IdMapEntry::new(0, 1234, 1),
                IdMapEntry::new(1, 200_000, 65_536),
            ],
            &creds,
            &helper,
        )
        .unwrap();
        let text = k.proc_uid_map(pid).unwrap();
        let mut lines = text.lines();
        let l0: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        assert_eq!(l0, vec!["0", "1234", "1"]);
        let l1: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        assert_eq!(l1, vec!["1", "200000", "65536"]);
    }

    #[test]
    fn nested_namespace_levels_increase() {
        let (mut k, pid) = kernel_with_alice();
        let first = k.unshare_userns(pid).unwrap();
        assert_eq!(k.userns(first).unwrap().level, 1);
        let second = k.unshare_userns(pid).unwrap();
        assert_eq!(k.userns(second).unwrap().level, 2);
        assert_eq!(k.userns(second).unwrap().parent, Some(first));
    }
}
