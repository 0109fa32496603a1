//! Borrowed, allocation-free path components.
//!
//! The seed split every path into a `Vec<String>` — one heap string per
//! component on *every* `resolve`, `mkdir`, and `write_file` — which made
//! per-syscall heap churn the dominant cost of the uncached build (PERF.md
//! §6). [`PathComponents`] normalizes a path (`//`, `.`, `..`) into `&str`
//! slices of the input, stored in a fixed inline array for the common case
//! (≤ [`INLINE_COMPONENTS`] components); only pathological depths spill to a
//! single `Vec` of slices, and no component is ever copied.

/// Components stored inline before spilling to the heap. Real image paths
/// are shallow (`/usr/lib64/openmpi/bin/mpirun` is 5 deep); 8 covers
/// everything the distro trees and package payloads contain.
pub const INLINE_COMPONENTS: usize = 8;

/// Normalized path components borrowing from the input string.
///
/// `..` pops, `.` and empty components disappear — byte-for-byte the same
/// normalization as the old `Filesystem::components`, pinned by a property
/// test (`path_components_match_legacy_split`).
#[derive(Debug)]
pub struct PathComponents<'a> {
    inline: [&'a str; INLINE_COMPONENTS],
    /// Spill storage, used only when the normalized path is deeper than
    /// [`INLINE_COMPONENTS`]; holds *all* components in that case.
    spill: Vec<&'a str>,
    len: usize,
}

impl<'a> PathComponents<'a> {
    /// Parses and normalizes `path` without copying any component.
    pub fn parse(path: &'a str) -> Self {
        let mut out = PathComponents {
            inline: [""; INLINE_COMPONENTS],
            spill: Vec::new(),
            len: 0,
        };
        for part in path.split('/') {
            match part {
                "" | "." => {}
                ".." => out.pop(),
                p => out.push(p),
            }
        }
        out
    }

    fn push(&mut self, part: &'a str) {
        if self.spill.is_empty() {
            if self.len < INLINE_COMPONENTS {
                self.inline[self.len] = part;
                self.len += 1;
                return;
            }
            // First spill: move the inline components over.
            self.spill.reserve(INLINE_COMPONENTS * 2);
            self.spill.extend_from_slice(&self.inline);
        }
        self.spill.push(part);
        self.len += 1;
    }

    fn pop(&mut self) {
        if self.len == 0 {
            return;
        }
        self.len -= 1;
        self.spill.truncate(self.len);
    }

    /// The normalized components as a slice of borrowed strings.
    pub fn as_slice(&self) -> &[&'a str] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the root path (no components).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The final component, if any.
    pub fn last(&self) -> Option<&'a str> {
        self.as_slice().last().copied()
    }

    /// Iterates the components.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, &'a str>> {
        self.as_slice().iter().copied()
    }
}

/// Renders the normalized absolute form of `path` (`"/"` for the root) into
/// one preallocated buffer — no per-component strings. The fakeroot lie
/// database keys its state on canonical paths.
pub fn canonical(path: &str) -> String {
    let comps = PathComponents::parse(path);
    if comps.is_empty() {
        return "/".to_string();
    }
    let mut out = String::with_capacity(path.len() + 1);
    for comp in comps.iter() {
        out.push('/');
        out.push_str(comp);
    }
    out
}

/// Splits a *clean* absolute path into `(parent, final_name)` as borrowed
/// slices, or `None` if the path needs normalization (empty, relative, `.`
/// / `..` components, doubled or trailing slashes). Clean paths are the
/// overwhelmingly common case in builds, and splitting them by slice lets
/// `resolve_parent` consult the resolve cache without allocating a parent
/// path string.
pub fn clean_parent_split(path: &str) -> Option<(&str, &str)> {
    let rest = path.strip_prefix('/')?;
    if rest.is_empty() {
        return None;
    }
    for comp in rest.split('/') {
        if comp.is_empty() || comp == "." || comp == ".." {
            return None;
        }
    }
    match rest.rfind('/') {
        // `/name`: the parent is the root.
        None => Some(("/", rest)),
        Some(i) => Some((&path[..i + 1], &rest[i + 1..])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(path: &str) -> Vec<&str> {
        // Leak-free borrow gymnastics aren't needed in tests: just collect.
        let pc = PathComponents::parse(path);
        pc.as_slice().to_vec()
    }

    #[test]
    fn normalizes_like_legacy_components() {
        assert_eq!(comps("/a//b/./c/../d"), vec!["a", "b", "d"]);
        assert!(comps("/").is_empty());
        assert!(comps("").is_empty());
        assert!(comps("/../..").is_empty());
        assert_eq!(comps("a/b/"), vec!["a", "b"]);
        assert_eq!(comps("/a/../../b"), vec!["b"]);
    }

    #[test]
    fn spills_past_inline_capacity_and_pops_back() {
        let deep = "/a/b/c/d/e/f/g/h/i/j/k";
        let pc = PathComponents::parse(deep);
        assert_eq!(pc.len(), 11);
        assert_eq!(pc.as_slice()[10], "k");
        // `..` popping across the spill boundary.
        let popped = "/a/b/c/d/e/f/g/h/i/j/../../../..";
        assert_eq!(
            PathComponents::parse(popped).as_slice(),
            ["a", "b", "c", "d", "e", "f"]
        );
    }

    #[test]
    fn components_borrow_from_input() {
        let path = String::from("/usr/lib64/openmpi");
        let pc = PathComponents::parse(&path);
        // Pointer identity: the component slices live inside `path`.
        let lib = pc.as_slice()[1];
        assert_eq!(lib.as_ptr(), path[5..].as_ptr());
    }

    #[test]
    fn clean_split_covers_clean_paths_only() {
        assert_eq!(
            clean_parent_split("/etc/hostname"),
            Some(("/etc", "hostname"))
        );
        assert_eq!(clean_parent_split("/etc"), Some(("/", "etc")));
        assert_eq!(
            clean_parent_split("/usr/share/doc/README"),
            Some(("/usr/share/doc", "README"))
        );
        assert_eq!(clean_parent_split("/"), None);
        assert_eq!(clean_parent_split(""), None);
        assert_eq!(clean_parent_split("relative/path"), None);
        assert_eq!(clean_parent_split("/a//b"), None);
        assert_eq!(clean_parent_split("/a/./b"), None);
        assert_eq!(clean_parent_split("/a/../b"), None);
        assert_eq!(clean_parent_split("/a/b/"), None);
    }
}
