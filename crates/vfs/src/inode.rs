//! Inodes: the on-"disk" objects of the simulated filesystem.

use std::collections::BTreeMap;

use hpcc_kernel::{Gid, Uid};

use crate::bytes::FileBytes;
use crate::mode::{FileType, Mode};
use crate::path::PathComponents;

/// Inode number.
pub type Ino = u64;

/// Type-specific inode payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InodeData {
    /// Regular file contents.
    Regular {
        /// File bytes, shared copy-on-write between filesystem snapshots.
        content: FileBytes,
    },
    /// Directory entries, kept sorted for deterministic iteration.
    Directory {
        /// name -> child inode.
        entries: BTreeMap<String, Ino>,
    },
    /// Symbolic link.
    Symlink {
        /// Link target (may be relative or absolute).
        target: String,
    },
    /// Character device node.
    CharDevice {
        /// Major number.
        major: u32,
        /// Minor number.
        minor: u32,
    },
    /// Block device node.
    BlockDevice {
        /// Major number.
        major: u32,
        /// Minor number.
        minor: u32,
    },
    /// Named pipe.
    Fifo,
    /// UNIX-domain socket.
    Socket,
}

impl InodeData {
    /// Empty directory payload.
    pub fn empty_dir() -> Self {
        InodeData::Directory {
            entries: BTreeMap::new(),
        }
    }

    /// Regular-file payload from bytes.
    pub fn file(content: impl Into<FileBytes>) -> Self {
        InodeData::Regular {
            content: content.into(),
        }
    }

    /// The file type of this payload.
    pub fn file_type(&self) -> FileType {
        match self {
            InodeData::Regular { .. } => FileType::Regular,
            InodeData::Directory { .. } => FileType::Directory,
            InodeData::Symlink { .. } => FileType::Symlink,
            InodeData::CharDevice { .. } => FileType::CharDevice,
            InodeData::BlockDevice { .. } => FileType::BlockDevice,
            InodeData::Fifo => FileType::Fifo,
            InodeData::Socket => FileType::Socket,
        }
    }
}

/// An inode: payload plus metadata. Ownership is stored as **host** IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// Payload.
    pub data: InodeData,
    /// Owning user (host ID).
    pub uid: Uid,
    /// Owning group (host ID).
    pub gid: Gid,
    /// Permission bits.
    pub mode: Mode,
    /// Hard-link count.
    pub nlink: u32,
    /// Extended attributes (`user.*`, `security.*`, …).
    pub xattrs: BTreeMap<String, Vec<u8>>,
    /// Logical modification time (monotonic counter, not wall clock).
    pub mtime: u64,
}

impl Inode {
    /// File type.
    pub fn file_type(&self) -> FileType {
        self.data.file_type()
    }

    /// Apparent size in bytes (0 for non-regular files, entry count for
    /// directories).
    pub fn size(&self) -> u64 {
        match &self.data {
            InodeData::Regular { content } => content.len() as u64,
            InodeData::Directory { entries } => entries.len() as u64,
            InodeData::Symlink { target } => target.len() as u64,
            _ => 0,
        }
    }

    /// True for directories.
    pub fn is_dir(&self) -> bool {
        matches!(self.data, InodeData::Directory { .. })
    }

    /// True for regular files.
    pub fn is_file(&self) -> bool {
        matches!(self.data, InodeData::Regular { .. })
    }

    /// True for symlinks.
    pub fn is_symlink(&self) -> bool {
        matches!(self.data, InodeData::Symlink { .. })
    }

    /// Device numbers for device nodes.
    pub fn rdev(&self) -> Option<(u32, u32)> {
        match self.data {
            InodeData::CharDevice { major, minor } | InodeData::BlockDevice { major, minor } => {
                Some((major, minor))
            }
            _ => None,
        }
    }

    /// Directory entries (panics if not a directory — internal use).
    pub(crate) fn entries(&self) -> &BTreeMap<String, Ino> {
        match &self.data {
            InodeData::Directory { entries } => entries,
            _ => panic!("not a directory"),
        }
    }

    /// Mutable directory entries (panics if not a directory — internal use).
    pub(crate) fn entries_mut(&mut self) -> &mut BTreeMap<String, Ino> {
        match &mut self.data {
            InodeData::Directory { entries } => entries,
            _ => panic!("not a directory"),
        }
    }
}

/// A `stat(2)` result, carrying both the raw host IDs and the IDs as viewed
/// from the calling process's user namespace (which is what `ls(1)` inside a
/// container displays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// File type.
    pub file_type: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Owner (host ID).
    pub uid_host: Uid,
    /// Group (host ID).
    pub gid_host: Gid,
    /// Owner as visible in the caller's namespace (65534 if unmapped).
    pub uid_view: Uid,
    /// Group as visible in the caller's namespace (65534 if unmapped).
    pub gid_view: Gid,
    /// Size in bytes.
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// Device numbers for device nodes.
    pub rdev: Option<(u32, u32)>,
    /// Logical mtime.
    pub mtime: u64,
}

impl Stat {
    /// One `ls -l` line for this stat, named by the last component of
    /// `path`, as in Figure 7.
    pub fn ls_line(
        &self,
        path: &str,
        user_name: impl Fn(Uid) -> String,
        group_name: impl Fn(Gid) -> String,
    ) -> String {
        let name = PathComponents::parse(path).last().unwrap_or("/");
        let size_field = match self.rdev {
            Some((maj, min)) => format!("{}, {}", maj, min),
            None => format!("{}", self.size),
        };
        format!(
            "{}{} {} {} {} {} {}",
            self.file_type.ls_char(),
            self.mode.render(),
            self.nlink,
            user_name(self.uid_view),
            group_name(self.gid_view),
            size_field,
            name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(data: InodeData) -> Inode {
        Inode {
            ino: 7,
            data,
            uid: Uid(0),
            gid: Gid(0),
            mode: Mode::new(0o644),
            nlink: 1,
            xattrs: BTreeMap::new(),
            mtime: 0,
        }
    }

    #[test]
    fn file_types_match_payload() {
        assert_eq!(
            mk(InodeData::file(b"x".to_vec())).file_type(),
            FileType::Regular
        );
        assert_eq!(mk(InodeData::empty_dir()).file_type(), FileType::Directory);
        assert_eq!(
            mk(InodeData::Symlink {
                target: "/etc".into()
            })
            .file_type(),
            FileType::Symlink
        );
        assert_eq!(
            mk(InodeData::CharDevice { major: 1, minor: 3 }).file_type(),
            FileType::CharDevice
        );
    }

    #[test]
    fn sizes() {
        assert_eq!(mk(InodeData::file(b"hello".to_vec())).size(), 5);
        assert_eq!(mk(InodeData::empty_dir()).size(), 0);
        assert_eq!(
            mk(InodeData::Symlink {
                target: "abc".into()
            })
            .size(),
            3
        );
    }

    #[test]
    fn rdev_only_for_devices() {
        assert_eq!(
            mk(InodeData::CharDevice { major: 1, minor: 1 }).rdev(),
            Some((1, 1))
        );
        assert_eq!(mk(InodeData::file(vec![])).rdev(), None);
    }

    #[test]
    fn predicates() {
        assert!(mk(InodeData::empty_dir()).is_dir());
        assert!(mk(InodeData::file(vec![])).is_file());
        assert!(mk(InodeData::Symlink { target: "x".into() }).is_symlink());
    }
}
