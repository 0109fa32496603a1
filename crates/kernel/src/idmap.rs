//! UID/GID maps for user namespaces (paper §2.1.1, Figures 1, 4, 5).
//!
//! A map is a set of one-to-one range correspondences between IDs *inside* a
//! user namespace and IDs *outside* it (on the host, in our two-level model).
//! Host IDs are what the kernel uses for access control; namespace IDs are
//! aliases (paper §2.1.1).

use crate::errno::{Errno, KResult};

/// One line of `/proc/<pid>/uid_map` or `gid_map`:
/// `inside_start  outside_start  count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdMapEntry {
    /// First ID inside the namespace.
    pub inside_start: u32,
    /// First ID outside the namespace (host ID in the two-level model).
    pub outside_start: u32,
    /// Number of consecutive IDs mapped.
    pub count: u32,
}

impl IdMapEntry {
    /// Creates a new entry; `count` must be non-zero.
    pub fn new(inside_start: u32, outside_start: u32, count: u32) -> Self {
        IdMapEntry {
            inside_start,
            outside_start,
            count,
        }
    }

    /// True if `inside` falls within this entry's inside range.
    pub fn contains_inside(&self, inside: u32) -> bool {
        inside >= self.inside_start && (inside - self.inside_start) < self.count
    }

    /// True if `outside` falls within this entry's outside range.
    pub fn contains_outside(&self, outside: u32) -> bool {
        outside >= self.outside_start && (outside - self.outside_start) < self.count
    }

    fn inside_end(&self) -> u64 {
        self.inside_start as u64 + self.count as u64
    }

    fn outside_end(&self) -> u64 {
        self.outside_start as u64 + self.count as u64
    }
}

/// A full UID or GID map: an ordered list of non-overlapping entries.
///
/// Linux limits maps to 340 lines; we keep the (older, simpler) limit of five
/// lines per map configurable via [`IdMap::MAX_ENTRIES`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IdMap {
    entries: Vec<IdMapEntry>,
}

impl IdMap {
    /// Maximum number of lines accepted when writing a map (Linux ≥ 4.15
    /// accepts 340).
    pub const MAX_ENTRIES: usize = 340;

    /// An empty (unwritten) map. Until a map is written, no IDs are valid in
    /// the namespace and every translation yields the overflow ID.
    pub fn empty() -> Self {
        IdMap {
            entries: Vec::new(),
        }
    }

    /// The identity map used by the initial namespace: `0 0 4294967295`.
    pub fn identity() -> Self {
        IdMap {
            entries: vec![IdMapEntry::new(0, 0, u32::MAX)],
        }
    }

    /// A single-ID map, the only kind an unprivileged process may establish
    /// (paper §2.1.3): `inside  outside  1`.
    pub fn single(inside: u32, outside: u32) -> Self {
        IdMap {
            entries: vec![IdMapEntry::new(inside, outside, 1)],
        }
    }

    /// A typical privileged container-build map (paper Figure 1 / Figure 4):
    /// the invoking host user mapped to in-namespace root, followed by a
    /// subordinate range mapped to in-namespace IDs `1..=count`.
    pub fn privileged_build(invoker_host_id: u32, sub_start: u32, sub_count: u32) -> Self {
        IdMap {
            entries: vec![
                IdMapEntry::new(0, invoker_host_id, 1),
                IdMapEntry::new(1, sub_start, sub_count),
            ],
        }
    }

    /// Builds a map from entries, validating them as the kernel would on a
    /// `uid_map` write: non-empty, bounded, non-overlapping on both sides, no
    /// arithmetic overflow past 2^32.
    pub fn from_entries(entries: Vec<IdMapEntry>) -> KResult<Self> {
        if entries.is_empty() || entries.len() > Self::MAX_ENTRIES {
            return Err(Errno::EINVAL);
        }
        for e in &entries {
            if e.count == 0 {
                return Err(Errno::EINVAL);
            }
            if e.inside_end() > u32::MAX as u64 + 1 || e.outside_end() > u32::MAX as u64 + 1 {
                return Err(Errno::EINVAL);
            }
        }
        // Check for overlaps on either side.
        for (i, a) in entries.iter().enumerate() {
            for b in entries.iter().skip(i + 1) {
                let inside_overlap = a.inside_start < b.inside_end() as u32
                    && b.inside_start < a.inside_end() as u32;
                let outside_overlap = a.outside_start < b.outside_end() as u32
                    && b.outside_start < a.outside_end() as u32;
                if inside_overlap || outside_overlap {
                    return Err(Errno::EINVAL);
                }
            }
        }
        Ok(IdMap { entries })
    }

    /// The raw entries.
    pub fn entries(&self) -> &[IdMapEntry] {
        &self.entries
    }

    /// True if the map has been written.
    pub fn is_written(&self) -> bool {
        !self.entries.is_empty()
    }

    /// Total number of IDs mapped.
    // hpcc-lint: allow(test_only_api) — Figure 5: tests/paper_figures.rs checks that unprivileged Podman maps exactly one ID
    pub fn mapped_count(&self) -> u64 {
        self.entries.iter().map(|e| e.count as u64).sum()
    }

    /// Translates an in-namespace ID to a host ID. `None` if unmapped
    /// (paper §2.1.1 case 4 as seen from inside).
    pub fn to_host(&self, inside: u32) -> Option<u32> {
        for e in &self.entries {
            if e.contains_inside(inside) {
                return Some(e.outside_start + (inside - e.inside_start));
            }
        }
        None
    }

    /// Translates a host ID to an in-namespace ID. `None` if unmapped
    /// (paper §2.1.1 case 3: valid but not referable inside; displayed as
    /// `nobody`/`nogroup`).
    pub fn to_namespace(&self, outside: u32) -> Option<u32> {
        for e in &self.entries {
            if e.contains_outside(outside) {
                return Some(e.inside_start + (outside - e.outside_start));
            }
        }
        None
    }

    /// Translation used when *displaying* a host ID inside the namespace:
    /// unmapped IDs become the overflow ID 65534 (`nobody`).
    pub fn to_namespace_or_overflow(&self, outside: u32) -> u32 {
        self.to_namespace(outside)
            .unwrap_or(crate::ids::OVERFLOW_ID)
    }

    /// Renders the map in `/proc/<pid>/uid_map` format, e.g. (Figure 1):
    ///
    /// ```text
    /// 0    1000      1
    /// 1  200000  65536
    /// ```
    pub fn render_procfs(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{:>10} {:>10} {:>10}\n",
                e.inside_start, e.outside_start, e.count
            ));
        }
        out
    }

    /// Parses `/proc/<pid>/uid_map`-style text.
    // hpcc-lint: allow(test_only_api) — Figure 4: tests/paper_figures.rs round-trips the rendered `/proc/<pid>/uid_map`
    pub fn parse_procfs(text: &str) -> KResult<Self> {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 3 {
                return Err(Errno::EINVAL);
            }
            let inside = fields[0].parse::<u32>().map_err(|_| Errno::EINVAL)?;
            let outside = fields[1].parse::<u32>().map_err(|_| Errno::EINVAL)?;
            let count = fields[2].parse::<u32>().map_err(|_| Errno::EINVAL)?;
            entries.push(IdMapEntry::new(inside, outside, count));
        }
        IdMap::from_entries(entries)
    }
}

/// Classification of a (host ID, namespace) pair per the paper's four cases
/// (§2.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdMapCase {
    /// In use on the host and mapped: namespace ID is an alias of the host ID.
    InUseMapped,
    /// Not in use on the host but mapped: identical to case 1 except no host
    /// user/group name exists for it.
    UnusedMapped,
    /// In use on the host but unmapped: valid inside the namespace but cannot
    /// be referred to; displayed as `nobody`/`nogroup`.
    InUseUnmapped,
    /// Not in use on the host and unmapped: unavailable inside the namespace.
    UnusedUnmapped,
}

/// Classifies a host ID with respect to a map and a predicate describing
/// whether the host ID is "in use" (has a passwd/group entry or owns files).
// hpcc-lint: allow(test_only_api) — §2.1.1: the four cases of a host ID with respect to a map, checked case by case in this module's tests
pub fn classify_host_id(map: &IdMap, host_id: u32, in_use_on_host: bool) -> IdMapCase {
    match (in_use_on_host, map.to_namespace(host_id).is_some()) {
        (true, true) => IdMapCase::InUseMapped,
        (false, true) => IdMapCase::UnusedMapped,
        (true, false) => IdMapCase::InUseUnmapped,
        (false, false) => IdMapCase::UnusedUnmapped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_map() -> IdMap {
        // Figure 1: alice (host UID 1000) runs a privileged-map container:
        //   0    1000      1
        //   1  200000  65536
        IdMap::privileged_build(1000, 200_000, 65_536)
    }

    #[test]
    fn identity_maps_everything() {
        let m = IdMap::identity();
        assert_eq!(m.to_host(0), Some(0));
        assert_eq!(m.to_host(1000), Some(1000));
        assert_eq!(m.to_namespace(4_000_000), Some(4_000_000));
    }

    #[test]
    fn figure1_root_aliases_invoker() {
        let m = figure1_map();
        assert_eq!(m.to_host(0), Some(1000));
        assert_eq!(m.to_namespace(1000), Some(0));
    }

    #[test]
    fn figure1_subordinate_range() {
        let m = figure1_map();
        // Container UID 1 is host UID 200000.
        assert_eq!(m.to_host(1), Some(200_000));
        // Container UID 65536 is host UID 265535 (last mapped).
        assert_eq!(m.to_host(65_536), Some(265_535));
        // Container UID 65537 is unmapped.
        assert_eq!(m.to_host(65_537), None);
        // Bob's range (300000+) is not mapped into Alice's container.
        assert_eq!(m.to_namespace(300_000), None);
    }

    #[test]
    fn figure1_procfs_rendering_roundtrips() {
        let m = figure1_map();
        let text = m.render_procfs();
        assert!(text.contains("1000"));
        assert!(text.contains("200000"));
        assert!(text.contains("65536"));
        let parsed = IdMap::parse_procfs(&text).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn figure4_podman_map() {
        // Figure 4: `podman unshare cat /proc/self/uid_map`
        //   0 1234 1
        //   1 200000 65536
        let m = IdMap::privileged_build(1234, 200_000, 65_536);
        assert_eq!(m.to_host(0), Some(1234));
        assert_eq!(m.to_host(25), Some(200_024));
        assert_eq!(m.mapped_count(), 65_537);
    }

    #[test]
    fn figure5_unprivileged_single_map() {
        // Figure 5: `0 1234 1` — one UID only.
        let m = IdMap::single(0, 1234);
        assert_eq!(m.to_host(0), Some(1234));
        assert_eq!(m.to_host(1), None);
        assert_eq!(m.to_namespace(1234), Some(0));
        assert_eq!(m.to_namespace_or_overflow(0), crate::ids::OVERFLOW_ID);
        assert_eq!(m.mapped_count(), 1);
    }

    #[test]
    fn unwritten_map_translates_nothing() {
        let m = IdMap::empty();
        assert!(!m.is_written());
        assert_eq!(m.to_host(0), None);
        assert_eq!(m.to_namespace(0), None);
    }

    #[test]
    fn overlapping_entries_rejected() {
        // Inside ranges overlap.
        let err = IdMap::from_entries(vec![
            IdMapEntry::new(0, 1000, 10),
            IdMapEntry::new(5, 200_000, 10),
        ])
        .unwrap_err();
        assert_eq!(err, Errno::EINVAL);
        // Outside ranges overlap.
        let err = IdMap::from_entries(vec![
            IdMapEntry::new(0, 1000, 10),
            IdMapEntry::new(100, 1005, 10),
        ])
        .unwrap_err();
        assert_eq!(err, Errno::EINVAL);
    }

    #[test]
    fn zero_count_rejected() {
        let err = IdMap::from_entries(vec![IdMapEntry::new(0, 1000, 0)]).unwrap_err();
        assert_eq!(err, Errno::EINVAL);
    }

    #[test]
    fn empty_entry_list_rejected() {
        assert_eq!(IdMap::from_entries(vec![]).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn range_overflow_rejected() {
        let err = IdMap::from_entries(vec![IdMapEntry::new(u32::MAX - 1, 0, 10)]).unwrap_err();
        assert_eq!(err, Errno::EINVAL);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(IdMap::parse_procfs("0 1000").is_err());
        assert!(IdMap::parse_procfs("a b c").is_err());
    }

    #[test]
    fn four_cases_of_section_211() {
        let m = figure1_map();
        // Host UID 1000 (alice, in use) is mapped -> case 1.
        assert_eq!(classify_host_id(&m, 1000, true), IdMapCase::InUseMapped);
        // Host UID 200005 (unused) is mapped -> case 2.
        assert_eq!(
            classify_host_id(&m, 200_005, false),
            IdMapCase::UnusedMapped
        );
        // Host UID 1001 (bob, in use) is not mapped -> case 3.
        assert_eq!(classify_host_id(&m, 1001, true), IdMapCase::InUseUnmapped);
        // Host UID 4000000 (unused) not mapped -> case 4.
        assert_eq!(
            classify_host_id(&m, 4_000_000, false),
            IdMapCase::UnusedUnmapped
        );
    }
}
