//! `hpcc-kernel`: a simulated Linux kernel substrate for the SC 2021 paper
//! *Minimizing Privilege for Building HPC Containers*.
//!
//! This crate models exactly the kernel facilities the paper reasons about:
//!
//! * numeric UIDs/GIDs and the overflow ("nobody") IDs ([`ids`]);
//! * capabilities ([`caps`]);
//! * process credentials and the credential-changing system calls
//!   (`setuid`, `setresgid`, `setgroups`, …) with user-namespace ID
//!   translation ([`creds`]);
//! * UID/GID maps and the four mapping cases of paper §2.1.1 ([`idmap`]);
//! * user namespaces, including the rules distinguishing privileged (Type II)
//!   from unprivileged (Type III) map setup ([`userns`]);
//! * sysctl knobs that gate namespace availability ([`sysctl`]);
//! * a per-node kernel object holding namespaces and processes ([`process`]);
//! * the non-user namespace types and their `unshare(2)` permission rules
//!   ([`nsproxy`]);
//! * the prospective kernel ID-map mechanisms of paper §6.2.4 ([`idpolicy`]).
//!
//! It also holds the workspace's poison-recovering lock helpers ([`sync`]),
//! since every crate that locks shared state depends on this one.
//!
//! Nothing in this crate touches the real host kernel; it is a faithful,
//! deterministic model used by the VFS, container runtimes, and build tools
//! in the sibling crates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod caps;
pub mod creds;
pub mod errno;
pub mod idmap;
pub mod idpolicy;
pub mod ids;
pub mod nsproxy;
pub mod process;
pub mod sync;
pub mod sysctl;
pub mod userns;

pub use caps::{Capability, CapabilitySet};
pub use creds::Credentials;
pub use errno::{Errno, KResult};
pub use idmap::{IdMap, IdMapCase, IdMapEntry};
pub use idpolicy::{KernelOwnershipDb, MapPolicy, UniqueRangeAllocator};
pub use ids::{Gid, Owner, Uid, OVERFLOW_ID};
pub use nsproxy::{NamespaceKind, NsAllocator, NsInstance, NsProxy};
pub use process::{Kernel, Pid, Process};
pub use sysctl::Sysctl;
pub use userns::{MapOrigin, SetgroupsPolicy, UserNamespace, UsernsId};

// The property-based suite runs against the offline `proptest` drop-in in
// crates/proptest-shim (a path dev-dependency, so no registry is needed):
// `cargo test --features proptest` executes it everywhere, and CI runs that
// as a matrix leg. Swap the path dependency for crates.io `proptest = "1"`
// to regain shrinking; test sources need no changes.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Round-trip property: any in-namespace ID that maps to a host ID
        /// must map back to the same in-namespace ID (the map is one-to-one,
        /// paper §2.1.1: "there is no squashing").
        #[test]
        fn idmap_roundtrip(invoker in 1u32..100_000, sub_start in 100_000u32..1_000_000,
                           count in 1u32..200_000, probe in 0u32..300_000) {
            let map = IdMap::privileged_build(invoker, sub_start, count);
            if let Some(host) = map.to_host(probe) {
                prop_assert_eq!(map.to_namespace(host), Some(probe));
            }
            if let Some(inside) = map.to_namespace(probe) {
                prop_assert_eq!(map.to_host(inside), Some(probe));
            }
        }

        /// The procfs rendering of a valid map always parses back to the same
        /// map.
        #[test]
        fn procfs_roundtrip(invoker in 1u32..100_000, sub_start in 200_000u32..1_000_000,
                            count in 1u32..100_000) {
            let map = IdMap::privileged_build(invoker, sub_start, count);
            let parsed = IdMap::parse_procfs(&map.render_procfs()).unwrap();
            prop_assert_eq!(parsed, map);
        }

        /// An unprivileged single-ID map gives a process exactly the same
        /// access as on the host: every in-namespace ID other than the mapped
        /// one is invalid (paper §2.1.3).
        #[test]
        fn single_map_is_single(host_uid in 1u32..u32::MAX, probe in 1u32..u32::MAX) {
            let map = IdMap::single(0, host_uid);
            prop_assert_eq!(map.to_host(0), Some(host_uid));
            if probe != 0 {
                prop_assert_eq!(map.to_host(probe), None);
            }
        }

        /// Credentials of an unprivileged user never gain capabilities from
        /// failed credential syscalls.
        #[test]
        fn failed_syscalls_do_not_escalate(uid in 1u32..65_000, target in 0u32..65_000) {
            let mut creds = Credentials::unprivileged_user(Uid(uid), Gid(uid), vec![Gid(uid)]);
            let host = UserNamespace::initial();
            let before = creds.clone();
            if uid != target {
                let _ = creds::sys_seteuid(&mut creds, &host, Uid(target));
                let _ = creds::sys_setegid(&mut creds, &host, Gid(target));
                let _ = creds::sys_setgroups(&mut creds, &host, &[Gid(target)]);
                prop_assert!(creds.caps.is_empty());
                prop_assert_eq!(creds.euid, before.euid);
            }
        }

        /// The §6.2.4 unique-range allocator never hands overlapping host
        /// ranges to different users, and regrants are stable per user —
        /// the invariants sysadmins must enforce by hand with `/etc/subuid`.
        #[test]
        fn unique_range_allocator_disjoint(users in proptest::collection::vec(1u32..50_000, 1..40),
                                            count in 1u32..65_536) {
            let mut alloc = idpolicy::UniqueRangeAllocator::new(200_000, 65_536);
            let mut first_grant = std::collections::HashMap::new();
            for u in &users {
                let grant = alloc.grant(Uid(*u), count).unwrap();
                let entry = first_grant.entry(*u).or_insert(grant.outside_start);
                prop_assert_eq!(*entry, grant.outside_start);
            }
            prop_assert!(alloc.verify_disjoint(200_000));
        }

        /// The root+unique-range policy always produces a map with the same
        /// shape as the Figure 1 privileged map: in-namespace 0 is the invoker
        /// and 1..=count is backed by the unique range, one-to-one.
        #[test]
        fn policy_map_shape(uid in 1u32..60_000, count in 1u32..65_536, probe in 1u32..65_536) {
            let creds = Credentials::unprivileged_user(Uid(uid), Gid(uid), vec![Gid(uid)]);
            let mut alloc = idpolicy::UniqueRangeAllocator::new(200_000, 65_536);
            let map = idpolicy::policy_uid_map(
                idpolicy::MapPolicy::RootPlusUniqueRange { count }, &creds, &mut alloc).unwrap();
            prop_assert_eq!(map.to_host(0), Some(uid));
            if probe <= count {
                let host = map.to_host(probe).unwrap();
                prop_assert_eq!(map.to_namespace(host), Some(probe));
                prop_assert!(host >= 200_000);
            }
        }
    }
}
