//! Typed operation requests and replies.
//!
//! Every request names its target by **inode number** (plus one component
//! name for directory-entry operations) or by **file handle**, and carries
//! the requesting credentials — the shape of a FUSE `fuse_in_header` +
//! opcode body. Replies are typed values; failures are wire-format
//! [`Errno`](crate::Errno) codes.

use hpcc_kernel::{Credentials, Gid, Uid};
use hpcc_vfs::{FileBytes, FileType, Ino, Mode, Setattr, Stat};

/// Per-request credentials: what a FUSE server learns about the caller from
/// the request header (`uid`, `gid`, supplementary groups) — **not** a
/// borrowed kernel `Actor`. IDs are host values, like everywhere else in the
/// simulated kernel; the backend decides what privilege they confer relative
/// to the filesystem's user namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsCreds {
    /// Requesting user (host ID).
    pub uid: Uid,
    /// Requesting primary group (host ID).
    pub gid: Gid,
    /// Supplementary groups (host IDs).
    pub groups: Vec<Gid>,
}

impl FsCreds {
    /// Creates request credentials.
    pub fn new(uid: Uid, gid: Gid, groups: Vec<Gid>) -> Self {
        FsCreds { uid, gid, groups }
    }

    /// Host root.
    pub fn root() -> Self {
        FsCreds::new(Uid::ROOT, Gid::ROOT, vec![Gid::ROOT])
    }

    /// The credentials of an existing process, as a request header would
    /// carry them (effective IDs plus supplementary groups; capability bits
    /// do not travel — the backend re-derives privilege from its namespace).
    pub fn from_credentials(creds: &Credentials) -> Self {
        FsCreds {
            uid: creds.euid,
            gid: creds.egid,
            groups: creds.supplementary.clone(),
        }
    }
}

/// Open flags, modelled on `open(2)`'s access mode plus `O_TRUNC`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags(u32);

impl OpenFlags {
    /// Read-only access.
    pub const RDONLY: OpenFlags = OpenFlags(0);
    /// Write-only access.
    pub const WRONLY: OpenFlags = OpenFlags(1);
    /// Read-write access.
    pub const RDWR: OpenFlags = OpenFlags(2);
    /// Truncate to zero length at open.
    pub const TRUNC: OpenFlags = OpenFlags(0o1000);

    /// The raw bits (Linux `O_*` encoding for the modelled subset).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Reconstructs flags from raw bits.
    pub fn from_bits(bits: u32) -> OpenFlags {
        OpenFlags(bits)
    }

    /// True if the handle may read.
    pub fn readable(self) -> bool {
        self.0 & 0o3 != 1
    }

    /// True if the handle may write.
    pub fn writable(self) -> bool {
        matches!(self.0 & 0o3, 1 | 2)
    }

    /// True if the open truncates.
    pub fn truncates(self) -> bool {
        self.0 & Self::TRUNC.0 != 0
    }
}

impl std::ops::BitOr for OpenFlags {
    type Output = OpenFlags;

    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | rhs.0)
    }
}

/// File attributes as a reply carries them: one `uid`/`gid` pair — the IDs
/// as seen from the requester's namespace, which is what `ls(1)` through a
/// mount displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// Inode number.
    pub ino: Ino,
    /// File type.
    pub file_type: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Owner, as visible in the requester's namespace.
    pub uid: Uid,
    /// Group, as visible in the requester's namespace.
    pub gid: Gid,
    /// Size in bytes.
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// Device numbers for device nodes.
    pub rdev: Option<(u32, u32)>,
    /// Logical mtime.
    pub mtime: u64,
}

impl From<Stat> for Attr {
    fn from(st: Stat) -> Attr {
        Attr {
            ino: st.ino,
            file_type: st.file_type,
            mode: st.mode,
            uid: st.uid_view,
            gid: st.gid_view,
            size: st.size,
            nlink: st.nlink,
            rdev: st.rdev,
            mtime: st.mtime,
        }
    }
}

/// A `lookup`/`create`/`mkdir`/`symlink` reply: the entry's inode and
/// attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The resolved inode.
    pub ino: Ino,
    /// Its attributes.
    pub attr: Attr,
}

/// An `open`/`opendir` reply: the session-allocated file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opened {
    /// File handle, valid until `release`/`releasedir`.
    pub fh: u64,
    /// The flags the handle was opened with.
    pub flags: OpenFlags,
}

/// A `read` reply: a zero-copy view into the file's copy-on-write bytes.
///
/// The reply holds the file's [`FileBytes`] handle (an `Arc` bump — the
/// bytes are shared with the filesystem, never copied) plus the requested
/// window. [`ReadReply::as_slice`] borrows the window. Two replies are equal
/// when they show the same bytes, whatever buffer backs them.
#[derive(Debug, Clone)]
pub struct ReadReply {
    bytes: FileBytes,
    offset: usize,
    len: usize,
}

impl ReadReply {
    /// Builds a reply windowing `bytes` at `offset` for up to `size` bytes
    /// (clamped to the end of file, like `read(2)`).
    pub fn new(bytes: FileBytes, offset: u64, size: u32) -> ReadReply {
        let offset = (offset as usize).min(bytes.len());
        let len = (size as usize).min(bytes.len() - offset);
        ReadReply { bytes, offset, len }
    }

    /// The bytes read.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes.as_slice()[self.offset..self.offset + self.len]
    }

    /// Number of bytes read (0 at end of file).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window is empty (offset at or past end of file).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer backing this reply. A session's reply holds the file's
    /// whole content, so tests can check the read was zero-copy
    /// ([`FileBytes::shares_buffer_with`]). A reply decoded from the wire
    /// holds either the whole reply frame it arrived in (a large payload,
    /// read in place) or a copy of just the payload (see
    /// [`decode_reply`](crate::wire::decode_reply)).
    pub fn bytes(&self) -> &FileBytes {
        &self.bytes
    }
}

impl PartialEq for ReadReply {
    fn eq(&self, other: &ReadReply) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ReadReply {}

/// A `write` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Written {
    /// Bytes written.
    pub size: u32,
}

/// One `readdir` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (single component).
    pub name: String,
    /// The entry's inode.
    pub ino: Ino,
    /// The entry's file type (as `getdents64` reports it).
    pub file_type: FileType,
}

/// A `statfs` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatfsReply {
    /// Inodes in the filesystem.
    pub inodes: u64,
    /// Total regular-file bytes.
    pub bytes: u64,
    /// True if the filesystem is mounted read-only.
    pub readonly: bool,
}

/// A typed operation request body. Together with the credentials in
/// [`Request`], this is the unit a [`Session`](crate::Session) dispatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Look up `name` under the directory `parent`.
    Lookup {
        /// Parent directory inode.
        parent: Ino,
        /// Entry name (one component).
        name: String,
    },
    /// Attributes of an inode.
    Getattr {
        /// Target inode.
        ino: Ino,
    },
    /// Change attributes (mode / ownership / size) of an inode.
    Setattr {
        /// Target inode.
        ino: Ino,
        /// The changes to apply.
        changes: Setattr,
    },
    /// Read a symlink's target.
    Readlink {
        /// Symlink inode.
        ino: Ino,
    },
    /// Open a regular file, allocating a file handle.
    Open {
        /// File inode.
        ino: Ino,
        /// Access mode and `O_TRUNC`.
        flags: OpenFlags,
    },
    /// Create (and open) an empty regular file.
    Create {
        /// Parent directory inode.
        parent: Ino,
        /// New entry name.
        name: String,
        /// Permission bits for the new file.
        mode: Mode,
        /// Flags for the returned handle.
        flags: OpenFlags,
    },
    /// Read from an open file handle.
    Read {
        /// Handle from `Open`/`Create`.
        fh: u64,
        /// Byte offset.
        offset: u64,
        /// Maximum bytes to return.
        size: u32,
    },
    /// Write to an open file handle.
    Write {
        /// Handle from `Open`/`Create`.
        fh: u64,
        /// Byte offset.
        offset: u64,
        /// The bytes to write.
        data: Vec<u8>,
    },
    /// Close a file handle.
    Release {
        /// Handle to drop.
        fh: u64,
    },
    /// Open a directory for reading, snapshotting its entries into a cursor.
    Opendir {
        /// Directory inode.
        ino: Ino,
    },
    /// Read entries from a directory handle, starting at `offset`.
    Readdir {
        /// Handle from `Opendir`.
        fh: u64,
        /// Entry cursor (index of the first entry to return).
        offset: usize,
        /// Maximum entries to return.
        max: usize,
    },
    /// Close a directory handle.
    Releasedir {
        /// Handle to drop.
        fh: u64,
    },
    /// Create a directory.
    Mkdir {
        /// Parent directory inode.
        parent: Ino,
        /// New entry name.
        name: String,
        /// Permission bits.
        mode: Mode,
    },
    /// Remove a non-directory entry.
    Unlink {
        /// Parent directory inode.
        parent: Ino,
        /// Entry name.
        name: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Parent directory inode.
        parent: Ino,
        /// Entry name.
        name: String,
    },
    /// Rename an entry, possibly across directories.
    Rename {
        /// Source parent inode.
        parent: Ino,
        /// Source entry name.
        name: String,
        /// Destination parent inode.
        new_parent: Ino,
        /// Destination entry name.
        new_name: String,
    },
    /// Create a symlink.
    Symlink {
        /// Parent directory inode.
        parent: Ino,
        /// New entry name.
        name: String,
        /// Link target.
        target: String,
    },
    /// Filesystem statistics.
    Statfs,
    /// Read an extended attribute.
    Getxattr {
        /// Target inode.
        ino: Ino,
        /// Attribute name.
        name: String,
    },
    /// Set an extended attribute.
    Setxattr {
        /// Target inode.
        ino: Ino,
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: Vec<u8>,
    },
    /// List extended attribute names.
    Listxattr {
        /// Target inode.
        ino: Ino,
    },
}

/// The reply shape an operation produces on success.
///
/// FUSE replies are not self-describing on the wire (a `fuse_out_header`
/// carries only length, error, and the request's unique id), so a client must
/// remember what shape it expects for each in-flight unique id.
/// [`Operation::reply_kind`] is that mapping; the wire codec
/// ([`crate::wire::decode_reply`]) takes it as the decode schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// [`Reply::Entry`].
    Entry,
    /// [`Reply::Attr`].
    Attr,
    /// [`Reply::Opened`].
    Opened,
    /// [`Reply::Data`].
    Data,
    /// [`Reply::Written`].
    Written,
    /// [`Reply::Dir`].
    Dir,
    /// [`Reply::Link`].
    Link,
    /// [`Reply::Statfs`].
    Statfs,
    /// [`Reply::Xattr`].
    Xattr,
    /// [`Reply::Names`].
    Names,
    /// [`Reply::Unit`].
    Unit,
}

impl Operation {
    /// The reply shape this operation produces on success.
    ///
    /// `Create` maps to [`ReplyKind::Opened`]: dispatch replies with the
    /// handle half of the create, like `Session::dispatch` always has.
    pub fn reply_kind(&self) -> ReplyKind {
        match self {
            Operation::Lookup { .. } | Operation::Mkdir { .. } | Operation::Symlink { .. } => {
                ReplyKind::Entry
            }
            Operation::Getattr { .. } | Operation::Setattr { .. } => ReplyKind::Attr,
            Operation::Open { .. } | Operation::Create { .. } | Operation::Opendir { .. } => {
                ReplyKind::Opened
            }
            Operation::Read { .. } => ReplyKind::Data,
            Operation::Write { .. } => ReplyKind::Written,
            Operation::Readdir { .. } => ReplyKind::Dir,
            Operation::Readlink { .. } => ReplyKind::Link,
            Operation::Statfs => ReplyKind::Statfs,
            Operation::Getxattr { .. } => ReplyKind::Xattr,
            Operation::Listxattr { .. } => ReplyKind::Names,
            Operation::Release { .. }
            | Operation::Releasedir { .. }
            | Operation::Unlink { .. }
            | Operation::Rmdir { .. }
            | Operation::Rename { .. }
            | Operation::Setxattr { .. } => ReplyKind::Unit,
        }
    }

    /// Whether re-executing this operation could change server-side state —
    /// the retransmission-safety split a retry policy needs. Pure reads
    /// (lookup, getattr, read/readdir at explicit offsets, statfs, xattr
    /// reads) are idempotent and retransmit freely; everything that writes
    /// the filesystem *or* the session's handle table (open/release included:
    /// re-executing an `Open` would allocate a second handle) counts as
    /// mutating and relies on the server's reply cache to be resent safely.
    pub fn mutates(&self) -> bool {
        match self {
            Operation::Lookup { .. }
            | Operation::Getattr { .. }
            | Operation::Readlink { .. }
            | Operation::Read { .. }
            | Operation::Readdir { .. }
            | Operation::Statfs
            | Operation::Getxattr { .. }
            | Operation::Listxattr { .. } => false,
            Operation::Setattr { .. }
            | Operation::Symlink { .. }
            | Operation::Mkdir { .. }
            | Operation::Unlink { .. }
            | Operation::Rmdir { .. }
            | Operation::Rename { .. }
            | Operation::Open { .. }
            | Operation::Create { .. }
            | Operation::Write { .. }
            | Operation::Release { .. }
            | Operation::Opendir { .. }
            | Operation::Releasedir { .. }
            | Operation::Setxattr { .. } => true,
        }
    }
}

/// A complete request: credentials plus operation — what a queue of incoming
/// FUSE messages decodes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requesting credentials.
    pub cred: FsCreds,
    /// The operation body.
    pub op: Operation,
}

impl Request {
    /// Builds a request.
    pub fn new(cred: FsCreds, op: Operation) -> Request {
        Request { cred, op }
    }
}

/// A typed reply, one variant per reply shape; `Err` carries the errno
/// (negated in the wire frame's error field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `lookup`/`create`(entry half)/`mkdir`/`symlink` result.
    Entry(Entry),
    /// `getattr`/`setattr` result.
    Attr(Attr),
    /// `open`/`opendir`/`create`(handle half) result.
    Opened(Opened),
    /// `read` result (zero-copy window).
    Data(ReadReply),
    /// `write` result.
    Written(Written),
    /// `readdir` result.
    Dir(Vec<DirEntry>),
    /// `readlink` result.
    Link(String),
    /// `statfs` result.
    Statfs(StatfsReply),
    /// `getxattr` result.
    Xattr(Vec<u8>),
    /// `listxattr` result.
    Names(Vec<String>),
    /// Success with no payload (`release`, `unlink`, `rename`, …).
    Unit,
    /// Failure, as an errno.
    Err(crate::Errno),
}

impl Reply {
    /// The errno if this reply is a failure.
    pub fn err(&self) -> Option<crate::Errno> {
        match self {
            Reply::Err(e) => Some(*e),
            _ => None,
        }
    }

    /// True for non-error replies.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Reply::Err(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flags_semantics() {
        assert!(OpenFlags::RDONLY.readable() && !OpenFlags::RDONLY.writable());
        assert!(!OpenFlags::WRONLY.readable() && OpenFlags::WRONLY.writable());
        assert!(OpenFlags::RDWR.readable() && OpenFlags::RDWR.writable());
        let wt = OpenFlags::WRONLY | OpenFlags::TRUNC;
        assert!(wt.writable() && wt.truncates() && !wt.readable());
        assert_eq!(OpenFlags::from_bits(wt.bits()), wt);
    }

    #[test]
    fn read_reply_windows_and_shares() {
        let bytes = FileBytes::from(b"0123456789".to_vec());
        let r = ReadReply::new(bytes.clone(), 2, 4);
        assert_eq!(r.as_slice(), b"2345");
        assert!(r.bytes().shares_buffer_with(&bytes), "no copy");
        // Clamped at EOF.
        let tail = ReadReply::new(bytes.clone(), 8, 100);
        assert_eq!(tail.as_slice(), b"89");
        let past = ReadReply::new(bytes, 64, 4);
        assert!(past.is_empty());
        // Equality compares the bytes shown, not the backing buffer.
        assert_eq!(r, ReadReply::new(FileBytes::from(b"2345".to_vec()), 0, 4));
        assert_ne!(r, ReadReply::new(FileBytes::from(b"2346".to_vec()), 0, 4));
    }
}
