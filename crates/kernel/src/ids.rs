//! User and group identifiers.
//!
//! The simulated kernel is concerned only with numeric IDs in the range
//! `0..=u32::MAX`, exactly like Linux (paper §2.1.1, footnote 4). Translation
//! to user and group *names* is a user-space operation performed by the
//! distribution layer (`/etc/passwd`, `/etc/group`).

use std::fmt;

/// The "overflow" UID/GID, reported for IDs that have no mapping in the
/// current user namespace. Shown by `ls(1)` as `nobody` / `nogroup`.
pub const OVERFLOW_ID: u32 = 65_534;

/// Numeric user ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub u32);

/// Numeric group ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gid(pub u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);
    /// The overflow UID (`nobody`).
    pub const NOBODY: Uid = Uid(OVERFLOW_ID);

    /// Returns true for UID 0.
    pub fn is_root(self) -> bool {
        self.0 == 0
    }

    /// Raw numeric value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl Gid {
    /// The root group.
    pub const ROOT: Gid = Gid(0);

    /// Returns true for GID 0.
    pub fn is_root(self) -> bool {
        self.0 == 0
    }

    /// Raw numeric value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Uid {
    fn from(v: u32) -> Self {
        Uid(v)
    }
}

impl From<u32> for Gid {
    fn from(v: u32) -> Self {
        Gid(v)
    }
}

/// An owner pair, as stored on every inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Owner {
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
}

impl Owner {
    /// `root:root`.
    pub const ROOT: Owner = Owner {
        uid: Uid::ROOT,
        gid: Gid::ROOT,
    };

    /// Construct from raw numeric IDs.
    pub fn new(uid: u32, gid: u32) -> Self {
        Owner {
            uid: Uid(uid),
            gid: Gid(gid),
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.uid, self.gid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_zero() {
        assert!(Uid::ROOT.is_root());
        assert!(Gid::ROOT.is_root());
        assert!(!Uid(1000).is_root());
    }

    #[test]
    fn overflow_ids() {
        assert_eq!(Uid::NOBODY.raw(), 65_534);
    }

    #[test]
    fn display_is_numeric() {
        assert_eq!(Uid(1000).to_string(), "1000");
        assert_eq!(Gid(0).to_string(), "0");
        assert_eq!(Owner::new(1000, 1000).to_string(), "1000:1000");
    }

    #[test]
    fn conversions() {
        let u: Uid = 42u32.into();
        let g: Gid = 7u32.into();
        assert_eq!(u, Uid(42));
        assert_eq!(g, Gid(7));
    }

    #[test]
    fn owner_root_constant() {
        assert_eq!(Owner::ROOT, Owner::new(0, 0));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Uid(5) < Uid(10));
        assert!(Gid(100) > Gid(0));
    }
}
