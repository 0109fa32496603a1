//! Prospective kernel ID-map mechanisms (paper §6.2.4).
//!
//! The paper recommends three kernel-side extensions that would let fully
//! unprivileged (Type III) builds keep the ergonomics of privileged (Type II)
//! maps without helper binaries or `/etc/subuid` configuration:
//!
//! 1. **Mappable supplementary groups** — today an unprivileged user namespace
//!    may map only the invoker's UID and GID; supplementary groups stay
//!    unmapped and display as `nogroup` (§2.1.3).
//! 2. **General map policies** — e.g. "host UID maps to container root and
//!    guaranteed-unique host UIDs map to all other container UIDs", removing
//!    the sysadmin-maintained subordinate-ID files that are the main
//!    configuration hazard of Type II (§2.1.2).
//! 3. **A kernel-managed fake ID database** — the kernel records the *claimed*
//!    ownership of files while storing them as the invoking user, i.e. exactly
//!    what `fakeroot(1)` does in user space, but as kernel state.
//!
//! None of these exist in Linux today; this module implements them as a
//! design-space model so the repository can show what each would buy
//! (`examples/future_privileges.rs` prints the comparison).

use std::collections::BTreeMap;

use crate::creds::Credentials;
use crate::errno::{Errno, KResult};
use crate::idmap::{IdMap, IdMapEntry};
use crate::ids::{Owner, Uid};

/// A proposed map-construction policy (paper §6.2.4, item "general policies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapPolicy {
    /// Today's unprivileged rule: the invoker's ID maps to one chosen
    /// in-namespace ID (normally 0) and nothing else is mapped.
    SingleId,
    /// The paper's example policy: the invoker maps to in-namespace root and
    /// a kernel-allocated, guaranteed-unique host range backs in-namespace IDs
    /// `1..=count`. No `/etc/subuid`, no privileged helper.
    RootPlusUniqueRange {
        /// How many additional in-namespace IDs to back (65536 covers every
        /// distribution's system users and groups, §2.1.2).
        count: u32,
    },
    /// Supplementary groups of the invoker become mappable one-to-one
    /// (identity-mapped), removing the `nogroup`/`chgrp` limitations of
    /// §2.1.3 while still granting no access the invoker did not already have.
    SupplementaryIdentity,
}

impl MapPolicy {
    /// Short policy name for transcripts and tables.
    pub fn name(self) -> &'static str {
        match self {
            MapPolicy::SingleId => "single-id",
            MapPolicy::RootPlusUniqueRange { .. } => "root+unique-range",
            MapPolicy::SupplementaryIdentity => "supplementary-identity",
        }
    }
}

/// Kernel-side allocator of guaranteed-unique host ID ranges.
///
/// This replaces `/etc/subuid` + `newuidmap(1)`: the kernel hands out
/// non-overlapping ranges above a floor, and remembers per-user grants so a
/// user who builds twice gets the same range (stable image ownership).
#[derive(Debug, Clone)]
pub struct UniqueRangeAllocator {
    range_size: u32,
    grants: BTreeMap<u32, IdMapEntry>,
    next_start: u32,
}

impl UniqueRangeAllocator {
    /// Creates an allocator handing out `range_size`-wide ranges starting at
    /// `floor` (e.g. 200 000, matching Figure 1's convention).
    pub fn new(floor: u32, range_size: u32) -> Self {
        UniqueRangeAllocator {
            range_size,
            grants: BTreeMap::new(),
            next_start: floor,
        }
    }

    /// Range size handed to each user.
    pub fn range_size(&self) -> u32 {
        self.range_size
    }

    /// Allocates (or returns the existing) unique host range for a user.
    /// Fails with `ENOSPC` when the 32-bit ID space is exhausted.
    pub fn grant(&mut self, invoker: Uid, count: u32) -> KResult<IdMapEntry> {
        if count == 0 || count > self.range_size {
            return Err(Errno::EINVAL);
        }
        if let Some(existing) = self.grants.get(&invoker.0) {
            return Ok(IdMapEntry::new(1, existing.outside_start, count));
        }
        let start = self.next_start;
        let end = start.checked_add(self.range_size).ok_or(Errno::ENOSPC)?;
        self.next_start = end;
        let grant = IdMapEntry::new(1, start, self.range_size);
        self.grants.insert(invoker.0, grant);
        Ok(IdMapEntry::new(1, start, count))
    }
}

/// Builds the UID map a namespace would receive under a policy, entirely
/// without privileged helpers.
pub fn policy_uid_map(
    policy: MapPolicy,
    invoker: &Credentials,
    alloc: &mut UniqueRangeAllocator,
) -> KResult<IdMap> {
    match policy {
        MapPolicy::SingleId | MapPolicy::SupplementaryIdentity => {
            Ok(IdMap::single(0, invoker.euid.0))
        }
        MapPolicy::RootPlusUniqueRange { count } => {
            let range = alloc.grant(invoker.euid, count)?;
            IdMap::from_entries(vec![IdMapEntry::new(0, invoker.euid.0, 1), range])
        }
    }
}

/// Builds the GID map a namespace would receive under a policy.
///
/// Under [`MapPolicy::SupplementaryIdentity`] the invoker's supplementary
/// groups are identity-mapped in addition to the primary group, which is what
/// makes `chgrp(1)` to those groups work inside the namespace (§2.1.3) without
/// granting any new access: the host IDs are the user's own groups.
pub fn policy_gid_map(
    policy: MapPolicy,
    invoker: &Credentials,
    alloc: &mut UniqueRangeAllocator,
) -> KResult<IdMap> {
    match policy {
        MapPolicy::SingleId => Ok(IdMap::single(0, invoker.egid.0)),
        MapPolicy::RootPlusUniqueRange { count } => {
            let range = alloc.grant(Uid(invoker.egid.0), count)?;
            IdMap::from_entries(vec![IdMapEntry::new(0, invoker.egid.0, 1), range])
        }
        MapPolicy::SupplementaryIdentity => {
            let mut entries = vec![IdMapEntry::new(0, invoker.egid.0, 1)];
            for g in &invoker.supplementary {
                if *g == invoker.egid {
                    continue;
                }
                // Identity map: in-namespace ID == host ID, so nothing is
                // renumbered and nothing new becomes reachable.
                entries.push(IdMapEntry::new(g.0, g.0, 1));
            }
            // Entries must be disjoint on both sides; duplicates removed above.
            IdMap::from_entries(entries)
        }
    }
}

/// The kernel-managed fake ownership database of §6.2.4 item 3: files are
/// stored on disk as the invoking user, and the kernel tracks the ownership
/// the containerized process *claimed* via `chown(2)`/`chgrp(2)`, returning it
/// from `stat(2)` inside the namespace and from export interfaces.
///
/// This is `fakeroot(1)` semantics with the database held in kernel state
/// rather than an `LD_PRELOAD` library, so statically linked binaries and
/// direct system calls are covered too.
#[derive(Debug, Clone, Default)]
pub struct KernelOwnershipDb {
    claims: BTreeMap<u64, Owner>,
    claim_calls: u64,
}

impl KernelOwnershipDb {
    /// Empty database.
    pub fn new() -> Self {
        KernelOwnershipDb::default()
    }

    /// Records the ownership claimed for an inode by in-namespace root.
    /// Always succeeds for the namespace owner — the real file stays owned by
    /// the invoking user.
    pub fn claim(&mut self, ino: u64, owner: Owner) {
        self.claim_calls += 1;
        self.claims.insert(ino, owner);
    }

    /// Ownership to report inside the namespace: the claim if one exists,
    /// otherwise the fallback (the invoking user displayed as root, matching
    /// the single-ID map).
    pub fn effective(&self, ino: u64, fallback: Owner) -> Owner {
        self.claims.get(&ino).copied().unwrap_or(fallback)
    }

    /// Number of inodes with claims.
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// True when no claims are recorded.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// Total `chown`-style claim calls handled.
    pub fn claim_calls(&self) -> u64 {
        self.claim_calls
    }

    /// Drops the claim for an inode (file deleted).
    pub fn forget(&mut self, ino: u64) {
        self.claims.remove(&ino);
    }

    /// Exports all claims — the interface an image builder would use to write
    /// correct ownership into layer tarballs (§6.2.2 item 2) without reading
    /// the filesystem's (flattened) IDs.
    // hpcc-lint: allow(test_only_api) — §6.2.4 item 3: claims survive export from the kernel database, checked by this module's tests
    pub fn export(&self) -> Vec<(u64, Owner)> {
        self.claims.iter().map(|(ino, o)| (*ino, *o)).collect()
    }
}

/// Compares what each §6.2.4 policy requires from the site, for the summary
/// table printed by `repro_figures -- table-policies`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRequirements {
    /// Policy under comparison.
    pub policy_name: &'static str,
    /// Needs a setuid/setcap helper binary.
    pub helper_binary: bool,
    /// Needs `/etc/subuid` + `/etc/subgid` administration.
    pub subid_files: bool,
    /// Needs new kernel functionality (not in Linux as of the paper).
    pub kernel_change: bool,
    /// Supports multiple in-container IDs (what package installs want).
    pub multi_id: bool,
}

/// Requirements rows for: today's Type II helpers, today's Type III single-ID
/// maps, and the three proposed policies.
pub fn policy_requirements() -> Vec<PolicyRequirements> {
    vec![
        PolicyRequirements {
            policy_name: "type2-newuidmap",
            helper_binary: true,
            subid_files: true,
            kernel_change: false,
            multi_id: true,
        },
        PolicyRequirements {
            policy_name: "type3-single-id",
            helper_binary: false,
            subid_files: false,
            kernel_change: false,
            multi_id: false,
        },
        PolicyRequirements {
            policy_name: "root+unique-range",
            helper_binary: false,
            subid_files: false,
            kernel_change: true,
            multi_id: true,
        },
        PolicyRequirements {
            policy_name: "supplementary-identity",
            helper_binary: false,
            subid_files: false,
            kernel_change: true,
            multi_id: false,
        },
        PolicyRequirements {
            policy_name: "kernel-ownership-db",
            helper_binary: false,
            subid_files: false,
            kernel_change: true,
            multi_id: true,
        },
    ]
}

#[cfg(test)]
impl UniqueRangeAllocator {
    /// Verifies the invariant the sysadmin must maintain by hand with
    /// `/etc/subuid` (§2.1.2): no two users' ranges overlap, and no range
    /// dips below `floor` into host system/user IDs.
    pub(crate) fn verify_disjoint(&self, floor: u32) -> bool {
        let mut prev_end = floor;
        // `grants` iterates by invoker UID, not range start; sort by start.
        let mut ranges: Vec<&IdMapEntry> = self.grants.values().collect();
        ranges.sort_by_key(|e| e.outside_start);
        for e in ranges {
            if e.outside_start < prev_end {
                return false;
            }
            prev_end = e.outside_start + e.count;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ids::Gid;

    fn alice() -> Credentials {
        Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000), Gid(2000), Gid(3000)])
    }

    #[test]
    fn unique_ranges_do_not_overlap() {
        let mut alloc = UniqueRangeAllocator::new(200_000, 65_536);
        let a = alloc.grant(Uid(1000), 65_536).unwrap();
        let b = alloc.grant(Uid(1001), 65_536).unwrap();
        assert_ne!(a.outside_start, b.outside_start);
        assert!(alloc.verify_disjoint(200_000));
    }

    #[test]
    fn regrant_is_stable_for_same_user() {
        let mut alloc = UniqueRangeAllocator::new(200_000, 65_536);
        let first = alloc.grant(Uid(1000), 65_536).unwrap();
        let again = alloc.grant(Uid(1000), 4_096).unwrap();
        assert_eq!(first.outside_start, again.outside_start);
    }

    #[test]
    fn grant_rejects_zero_and_oversized_counts() {
        let mut alloc = UniqueRangeAllocator::new(200_000, 65_536);
        assert_eq!(alloc.grant(Uid(1000), 0).unwrap_err(), Errno::EINVAL);
        assert_eq!(alloc.grant(Uid(1000), 100_000).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn allocator_reports_exhaustion() {
        // A floor near the top of the 32-bit space exhausts after one grant.
        let mut alloc = UniqueRangeAllocator::new(u32::MAX - 70_000, 65_536);
        alloc.grant(Uid(1000), 65_536).unwrap();
        assert_eq!(alloc.grant(Uid(1001), 65_536).unwrap_err(), Errno::ENOSPC);
    }

    #[test]
    fn root_plus_unique_range_looks_like_figure1_without_helpers() {
        let mut alloc = UniqueRangeAllocator::new(200_000, 65_536);
        let map = policy_uid_map(
            MapPolicy::RootPlusUniqueRange { count: 65_536 },
            &alice(),
            &mut alloc,
        )
        .unwrap();
        // Same shape as the Figure 1 / Figure 4 privileged map.
        assert_eq!(map.to_host(0), Some(1000));
        assert_eq!(map.to_host(1), Some(200_000));
        assert_eq!(map.to_host(65_536), Some(265_535));
    }

    #[test]
    fn supplementary_identity_maps_only_the_users_own_groups() {
        let mut alloc = UniqueRangeAllocator::new(200_000, 65_536);
        let map = policy_gid_map(MapPolicy::SupplementaryIdentity, &alice(), &mut alloc).unwrap();
        // Primary group appears as root; supplementary groups identity-map.
        assert_eq!(map.to_host(0), Some(1000));
        assert_eq!(map.to_host(2000), Some(2000));
        assert_eq!(map.to_host(3000), Some(3000));
        // A group the user is not in stays unmapped.
        assert_eq!(map.to_host(4000), None);
    }

    #[test]
    fn single_id_policy_matches_todays_type3() {
        let mut alloc = UniqueRangeAllocator::new(200_000, 65_536);
        let map = policy_uid_map(MapPolicy::SingleId, &alice(), &mut alloc).unwrap();
        assert_eq!(map.mapped_count(), 1);
        assert_eq!(map.to_host(0), Some(1000));
    }

    #[test]
    fn kernel_ownership_db_reports_claims_and_survives_export() {
        let mut db = KernelOwnershipDb::new();
        assert!(db.is_empty());
        db.claim(42, Owner::new(0, 999)); // root:ssh_keys, as the openssh RPM wants
        db.claim(43, Owner::new(100, 65_534));
        assert_eq!(db.effective(42, Owner::ROOT), Owner::new(0, 999));
        assert_eq!(
            db.effective(99, Owner::new(1000, 1000)),
            Owner::new(1000, 1000)
        );
        assert_eq!(db.len(), 2);
        assert_eq!(db.claim_calls(), 2);
        let exported = db.export();
        assert_eq!(exported.len(), 2);
        db.forget(42);
        assert_eq!(db.effective(42, Owner::ROOT), Owner::ROOT);
    }

    #[test]
    fn requirements_table_shows_no_proposal_needs_helpers_or_subid_files() {
        let rows = policy_requirements();
        assert_eq!(rows.len(), 5);
        for row in rows.iter().filter(|r| r.kernel_change) {
            assert!(
                !row.helper_binary,
                "{} should not need helpers",
                row.policy_name
            );
            assert!(
                !row.subid_files,
                "{} should not need subid files",
                row.policy_name
            );
        }
        // Today's Type II is the only one needing both.
        let type2 = &rows[0];
        assert!(type2.helper_binary && type2.subid_files);
    }
}
