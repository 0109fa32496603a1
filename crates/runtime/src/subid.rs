//! Subordinate ID ranges (`/etc/subuid`, `/etc/subgid`) and the privileged
//! helper programs `newuidmap(1)` / `newgidmap(1)` (paper §2.1.2, §4.1,
//! Figures 1 and 4).
//!
//! The helpers are the security boundary of the Type II approach: they run
//! with CAP_SETUID / CAP_SETGID and must ensure unprivileged users can set up
//! only safe maps. The module also models CVE-2018-7169, where `newgidmap`
//! failed to disable `setgroups(2)` (paper §2.1.4).

use std::collections::BTreeMap;

use hpcc_kernel::{
    Capability, CapabilitySet, Credentials, Errno, IdMapEntry, KResult, Kernel, UsernsId,
};

/// One line of `/etc/subuid` or `/etc/subgid`: `user:start:count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubIdRange {
    /// First subordinate ID.
    pub start: u32,
    /// Number of IDs.
    pub count: u32,
}

impl SubIdRange {
    /// True if `[start, start+count)` lies entirely within this range.
    pub fn covers(&self, start: u32, count: u32) -> bool {
        start >= self.start
            && (start as u64 + count as u64) <= (self.start as u64 + self.count as u64)
    }
}

/// Parsed subordinate-ID database for one file (`subuid` or `subgid`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubIdDb {
    ranges: BTreeMap<String, Vec<SubIdRange>>,
}

impl SubIdDb {
    /// Empty database (no users configured — the Figure 5 situation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a range for a user (what `useradd`/`usermod --add-subuids` do,
    /// paper §4.1).
    pub fn add_range(&mut self, user: &str, start: u32, count: u32) {
        self.ranges
            .entry(user.to_string())
            .or_default()
            .push(SubIdRange { start, count });
    }

    /// Ranges configured for a user.
    pub fn ranges_for(&self, user: &str) -> &[SubIdRange] {
        self.ranges.get(user).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Renders the file, e.g. (Figure 1 / Figure 4):
    ///
    /// ```text
    /// alice:200000:65536
    /// bob:300000:65536
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (user, ranges) in &self.ranges {
            for r in ranges {
                out.push_str(&format!("{}:{}:{}\n", user, r.start, r.count));
            }
        }
        out
    }

    /// Parses the file format.
    pub fn parse(text: &str) -> KResult<Self> {
        let mut db = SubIdDb::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split(':').collect();
            if f.len() != 3 {
                return Err(Errno::EINVAL);
            }
            let start: u32 = f[1].trim().parse().map_err(|_| Errno::EINVAL)?;
            let count: u32 = f[2].trim().parse().map_err(|_| Errno::EINVAL)?;
            db.add_range(f[0].trim(), start, count);
        }
        Ok(db)
    }

    /// Checks whether the configured ranges overlap between users or with the
    /// ordinary host UID space below `min_sub_id` — the sysadmin
    /// configuration errors the paper warns about (§2.1.2).
    pub fn validate(&self, min_sub_id: u32) -> Result<(), String> {
        let mut all: Vec<(&str, SubIdRange)> = Vec::new();
        for (user, ranges) in &self.ranges {
            for r in ranges {
                if r.start < min_sub_id {
                    return Err(format!(
                        "range {}:{}:{} overlaps ordinary host IDs (< {})",
                        user, r.start, r.count, min_sub_id
                    ));
                }
                for (other_user, other) in &all {
                    let overlap =
                        r.start < other.start + other.count && other.start < r.start + r.count;
                    if overlap {
                        return Err(format!(
                            "ranges for {} and {} overlap: {}..{} vs {}..{}",
                            user,
                            other_user,
                            r.start,
                            r.start + r.count,
                            other.start,
                            other.start + other.count
                        ));
                    }
                }
                all.push((user, *r));
            }
        }
        Ok(())
    }
}

/// Configuration of the privileged helper binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelperConfig {
    /// Whether the helpers are installed at all (with CAP_SETUID /
    /// CAP_SETGID file capabilities, paper §4.1).
    pub installed: bool,
    /// If true, `newgidmap` has the CVE-2018-7169 bug: it fails to deny
    /// `setgroups(2)` when acting on behalf of unprivileged users.
    pub cve_2018_7169: bool,
}

impl Default for HelperConfig {
    fn default() -> Self {
        HelperConfig {
            installed: true,
            cve_2018_7169: false,
        }
    }
}

/// `newuidmap(1)`: writes a privileged UID map for a namespace on behalf of
/// `invoking_user`, enforcing `/etc/subuid`.
// hpcc-lint: allow(test_only_api) — §2.1.2: the setuid helper behind Type II maps; tests/security_model.rs checks that it refuses ranges outside `/etc/subuid`
pub fn newuidmap(
    kernel: &mut Kernel,
    ns: UsernsId,
    invoking_user: &str,
    invoking_creds: &Credentials,
    entries: Vec<IdMapEntry>,
    subuid: &SubIdDb,
    config: &HelperConfig,
) -> KResult<()> {
    if !config.installed {
        return Err(Errno::ENOENT);
    }
    // Validate: every entry's outside range must be either the invoking
    // user's own UID (count 1) or fall within one of their subordinate
    // ranges. This is the security boundary (paper §2.1.2).
    for e in &entries {
        let own = e.count == 1 && e.outside_start == invoking_creds.euid.0;
        let sub = subuid
            .ranges_for(invoking_user)
            .iter()
            .any(|r| r.covers(e.outside_start, e.count));
        if !(own || sub) {
            return Err(Errno::EPERM);
        }
    }
    let helper_caps = CapabilitySet::of(&[Capability::CapSetuid]);
    kernel.set_uid_map(ns, entries, invoking_creds, &helper_caps)
}

/// `newgidmap(1)`: like [`newuidmap`] for GIDs. A correct implementation
/// denies `setgroups(2)` before installing the map; the CVE-2018-7169 variant
/// does not.
// hpcc-lint: allow(test_only_api) — §2.1.2: the setuid helper behind Type II maps; tests/security_model.rs reproduces CVE-2018-7169 through it
pub fn newgidmap(
    kernel: &mut Kernel,
    ns: UsernsId,
    invoking_user: &str,
    invoking_creds: &Credentials,
    entries: Vec<IdMapEntry>,
    subgid: &SubIdDb,
    config: &HelperConfig,
) -> KResult<()> {
    if !config.installed {
        return Err(Errno::ENOENT);
    }
    for e in &entries {
        let own = e.count == 1 && e.outside_start == invoking_creds.egid.0;
        let sub = subgid
            .ranges_for(invoking_user)
            .iter()
            .any(|r| r.covers(e.outside_start, e.count));
        if !(own || sub) {
            return Err(Errno::EPERM);
        }
    }
    if !config.cve_2018_7169 {
        kernel.deny_setgroups(ns)?;
    }
    let helper_caps = CapabilitySet::of(&[Capability::CapSetgid]);
    kernel.set_gid_map(ns, entries, invoking_creds, &helper_caps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Gid, SetgroupsPolicy, Sysctl, Uid};

    fn figure1_db() -> SubIdDb {
        let mut db = SubIdDb::new();
        db.add_range("alice", 200_000, 65_536);
        db.add_range("bob", 300_000, 65_536);
        db
    }

    #[test]
    fn render_parse_roundtrip_matches_figure1() {
        let db = figure1_db();
        let text = db.render();
        assert!(text.contains("alice:200000:65536"));
        assert!(text.contains("bob:300000:65536"));
        assert_eq!(SubIdDb::parse(&text).unwrap(), db);
    }

    #[test]
    fn validate_detects_overlap_with_bob() {
        // Paper §2.1.2: if host UID 1001 (bob) were mapped into Alice's
        // container, Alice would gain access to Bob's files. Overlapping
        // subordinate ranges are the configuration error that enables this.
        let mut db = SubIdDb::new();
        db.add_range("alice", 200_000, 65_536);
        db.add_range("bob", 200_000 + 65_535, 65_536);
        assert!(db.validate(100_000).is_err());
        assert!(figure1_db().validate(100_000).is_ok());
        // Ranges reaching into ordinary host UIDs are also rejected.
        let mut low = SubIdDb::new();
        low.add_range("alice", 500, 65_536);
        assert!(low.validate(100_000).is_err());
    }

    #[test]
    fn newuidmap_installs_figure4_map() {
        let mut kernel = Kernel::boot(Sysctl::modern());
        let pid = kernel.spawn_user_process(Uid(1234), Gid(1234), vec![Gid(1234)], "podman");
        let creds = kernel.process(pid).unwrap().creds.clone();
        let ns = kernel.unshare_userns(pid).unwrap();
        let mut db = SubIdDb::new();
        db.add_range("alice", 200_000, 65_536);
        newuidmap(
            &mut kernel,
            ns,
            "alice",
            &creds,
            vec![
                IdMapEntry::new(0, 1234, 1),
                IdMapEntry::new(1, 200_000, 65_536),
            ],
            &db,
            &HelperConfig::default(),
        )
        .unwrap();
        let text = kernel.proc_uid_map(pid).unwrap();
        let rows: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows[0], vec!["0", "1234", "1"]);
        assert_eq!(rows[1], vec!["1", "200000", "65536"]);
    }

    #[test]
    fn newuidmap_rejects_ranges_outside_subuid() {
        let mut kernel = Kernel::boot(Sysctl::modern());
        let pid = kernel.spawn_user_process(Uid(1000), Gid(1000), vec![Gid(1000)], "podman");
        let creds = kernel.process(pid).unwrap().creds.clone();
        let ns = kernel.unshare_userns(pid).unwrap();
        let db = figure1_db();
        // Alice tries to map Bob's range (300000+): refused.
        let err = newuidmap(
            &mut kernel,
            ns,
            "alice",
            &creds,
            vec![
                IdMapEntry::new(0, 1000, 1),
                IdMapEntry::new(1, 300_000, 65_536),
            ],
            &db,
            &HelperConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
        // Mapping another real user's UID directly is also refused.
        let err = newuidmap(
            &mut kernel,
            ns,
            "alice",
            &creds,
            vec![IdMapEntry::new(0, 1001, 1)],
            &db,
            &HelperConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
    }

    #[test]
    fn user_without_ranges_cannot_get_privileged_map() {
        // Figure 5: empty /etc/subuid -> only the single-ID unprivileged map
        // is possible.
        let mut kernel = Kernel::boot(Sysctl::modern());
        let pid = kernel.spawn_user_process(Uid(1234), Gid(1234), vec![], "podman");
        let creds = kernel.process(pid).unwrap().creds.clone();
        let ns = kernel.unshare_userns(pid).unwrap();
        let db = SubIdDb::new();
        let err = newuidmap(
            &mut kernel,
            ns,
            "alice",
            &creds,
            vec![
                IdMapEntry::new(0, 1234, 1),
                IdMapEntry::new(1, 200_000, 65_536),
            ],
            &db,
            &HelperConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, Errno::EPERM);
        // The own-UID single entry alone is fine.
        newuidmap(
            &mut kernel,
            ns,
            "alice",
            &creds,
            vec![IdMapEntry::new(0, 1234, 1)],
            &db,
            &HelperConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn fixed_newgidmap_denies_setgroups_but_cve_version_does_not() {
        let db = figure1_db();
        for vulnerable in [false, true] {
            let mut kernel = Kernel::boot(Sysctl::modern());
            let pid = kernel.spawn_user_process(Uid(1000), Gid(1000), vec![Gid(1000)], "podman");
            let creds = kernel.process(pid).unwrap().creds.clone();
            let ns = kernel.unshare_userns(pid).unwrap();
            newgidmap(
                &mut kernel,
                ns,
                "alice",
                &creds,
                vec![
                    IdMapEntry::new(0, 1000, 1),
                    IdMapEntry::new(1, 200_000, 65_536),
                ],
                &db,
                &HelperConfig {
                    installed: true,
                    cve_2018_7169: vulnerable,
                },
            )
            .unwrap();
            let policy = kernel.userns(ns).unwrap().setgroups;
            if vulnerable {
                assert_eq!(policy, SetgroupsPolicy::Allow, "CVE-2018-7169 behaviour");
            } else {
                assert_eq!(policy, SetgroupsPolicy::Deny);
            }
        }
    }

    #[test]
    fn missing_helpers_report_enoent() {
        let mut kernel = Kernel::boot(Sysctl::modern());
        let pid = kernel.spawn_user_process(Uid(1000), Gid(1000), vec![], "podman");
        let creds = kernel.process(pid).unwrap().creds.clone();
        let ns = kernel.unshare_userns(pid).unwrap();
        let err = newuidmap(
            &mut kernel,
            ns,
            "alice",
            &creds,
            vec![IdMapEntry::new(0, 1000, 1)],
            &figure1_db(),
            &HelperConfig {
                installed: false,
                cve_2018_7169: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, Errno::ENOENT);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(SubIdDb::parse("alice:abc:10").is_err());
        assert!(SubIdDb::parse("alice:10").is_err());
        assert!(SubIdDb::parse("# comment only\n")
            .unwrap()
            .ranges
            .is_empty());
    }
}
