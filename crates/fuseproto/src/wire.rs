//! The byte protocol: FUSE-kernel-ABI-shaped frames for requests and replies.
//!
//! Every message is one length-prefixed frame, little-endian throughout
//! (the FUSE character device is native-endian; this codec pins LE so two
//! ends of a socket always agree).
//!
//! A **request** frame is a `fuse_in_header`-shaped fixed header followed by
//! an opcode-specific body:
//!
//! ```text
//! len:u32 | opcode:u32 | unique:u64 | nodeid:u64 | uid:u32 | gid:u32 |
//! ngroups:u32 | groups:u32×n | body…
//! ```
//!
//! `opcode` uses the real kernel numbers (`FUSE_LOOKUP` = 1, `FUSE_READ` =
//! 15, …), `unique` is the client's request id echoed in the reply, `nodeid`
//! is the target inode (or parent, for directory-entry ops; 0 for
//! handle-addressed ops, which carry the handle in the body), and the
//! uid/gid/groups triple is the request's [`FsCreds`] — supplementary groups
//! travel inline, unlike real FUSE which makes the daemon read
//! `/proc/<pid>/task/<tid>/status`.
//!
//! A **reply** frame is a `fuse_out_header` followed by a payload:
//!
//! ```text
//! len:u32 | error:i32 | unique:u64 | payload…
//! ```
//!
//! `error` is 0 on success or the **negated** POSIX errno (`-2` = `ENOENT`),
//! exactly as a FUSE daemon writes it; error replies carry no payload. Any
//! other value, including a code the kernel's [`Errno`] does not model, is a
//! [`WireError::BadErrno`].
//! Success payloads are *not* self-describing — the client supplies the
//! [`ReplyKind`] it expects for the request's unique id
//! ([`Operation::reply_kind`]) as the decode schema, as a real FUSE client
//! does.
//!
//! Every frame — request and reply alike — ends with a [`WIRE_TRAILER`]-byte
//! integrity checksum over the rest of the frame. Real FUSE trusts the
//! kernel's byte pipe; a network transport cannot, and without the trailer a
//! single flipped bit in a name field would decode as a *different valid
//! request* and corrupt the filesystem silently. With it, corruption is a
//! typed [`WireError::BadChecksum`] the server answers `EINVAL` and the
//! client's retry policy resends through. The trailer sits at the end so
//! every header offset (including the peekable unique id at bytes 8..16)
//! is unchanged from the header layouts above. The checksum itself lives in
//! the crate's `checksum` module: a four-lane multiply chain for a frame
//! under 256 bytes, and for a longer one (a read reply, a write request)
//! eight lanes of 64-byte stripes, on AVX2 where the CPU has it.
//!
//! Decoding is strict: the header length must equal the frame length (so
//! every truncated frame is rejected — see the property suite), the checksum
//! trailer must verify, string fields must be UTF-8, and bodies must consume
//! the frame exactly.
//!
//! A read payload is copied twice between the file and the client: once
//! into the reply frame, straight from the [`ReadReply`]'s window of the
//! file's shared [`FileBytes`], and once through the transport. The server
//! keeps the frame it sent as its reply-cache entry without copying it
//! again, and the client reads a large payload where it landed:
//! [`decode_reply`] hands the receive buffer itself to the decoded
//! [`ReadReply`] and copies only a payload too small for its buffer.

use hpcc_kernel::{Errno, Gid, Uid};
use hpcc_vfs::{FileBytes, FileType, Mode, Setattr};

use crate::checksum::frame_checksum;
use crate::op::{
    Attr, DirEntry, Entry, FsCreds, OpenFlags, Opened, Operation, ReadReply, Reply, ReplyKind,
    Request, StatfsReply, Written,
};

/// The root inode every client may address without a lookup —
/// `FUSE_ROOT_ID`, and the inode [`hpcc_vfs::Filesystem`] roots at.
pub const FUSE_ROOT_ID: u64 = 1;

/// Size of the reply header.
pub const REPLY_HEADER: usize = 16;

/// Where a `Data` reply's payload starts in its frame: after the reply
/// header and the payload's length field.
const DATA_AT: usize = REPLY_HEADER + 4;

/// Largest request frame a server accepts: FUSE's customary 1 MiB
/// `max_write` plus header room. Anything larger is answered with a typed
/// error, not a panic (see [`Server`](crate::Server)).
pub const MAX_REQUEST_FRAME: usize = (1 << 20) + 4096;

/// Frame-size sanity cap for stream transports: a length prefix above this
/// is treated as corruption rather than honored with an allocation. Large
/// reads should be windowed in chunks, as every real FUSE client does.
pub const MAX_WIRE_FRAME: usize = 64 << 20;

/// Size of the integrity trailer closing every frame: a little-endian u32
/// checksum of all preceding bytes (length field included). The frame's
/// `len` field counts the trailer.
pub const WIRE_TRAILER: usize = 4;

// Opcode numbers from the Linux FUSE ABI (include/uapi/linux/fuse.h).
const FUSE_LOOKUP: u32 = 1;
const FUSE_GETATTR: u32 = 3;
const FUSE_SETATTR: u32 = 4;
const FUSE_READLINK: u32 = 5;
const FUSE_SYMLINK: u32 = 6;
const FUSE_MKDIR: u32 = 9;
const FUSE_UNLINK: u32 = 10;
const FUSE_RMDIR: u32 = 11;
const FUSE_RENAME: u32 = 12;
const FUSE_OPEN: u32 = 14;
const FUSE_READ: u32 = 15;
const FUSE_WRITE: u32 = 16;
const FUSE_STATFS: u32 = 17;
const FUSE_RELEASE: u32 = 18;
const FUSE_SETXATTR: u32 = 21;
const FUSE_GETXATTR: u32 = 22;
const FUSE_LISTXATTR: u32 = 23;
const FUSE_OPENDIR: u32 = 27;
const FUSE_READDIR: u32 = 28;
const FUSE_RELEASEDIR: u32 = 29;
const FUSE_CREATE: u32 = 35;
const FUSE_DESTROY: u32 = 38;

// Setattr valid-mask bits (body carries all fields; the mask says which
// apply — the shape of fuse_setattr_in.valid).
const SETATTR_MODE: u32 = 1;
const SETATTR_UID: u32 = 1 << 1;
const SETATTR_GID: u32 = 1 << 2;
const SETATTR_SIZE: u32 = 1 << 3;

/// A malformed or unrepresentable frame. Every decoder failure is typed;
/// nothing in this module panics on wire input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before its structure did.
    Truncated,
    /// The header's length field disagrees with the received frame length —
    /// what a truncated (or padded) frame decodes to.
    LengthMismatch {
        /// Length the header claims.
        header: u32,
        /// Bytes actually received.
        actual: usize,
    },
    /// A frame larger than the receiver accepts.
    Oversized {
        /// Length the frame claims or has.
        len: u64,
        /// The receiver's cap.
        max: u64,
    },
    /// An opcode this protocol does not define.
    BadOpcode(u32),
    /// An enum tag (file type, boolean) outside its domain.
    BadTag {
        /// Which field carried the tag.
        field: &'static str,
        /// The offending value.
        value: u32,
    },
    /// A string field that is not UTF-8.
    BadUtf8,
    /// Bytes left over after the body — the frame is self-inconsistent.
    TrailingBytes {
        /// How many bytes were not consumed.
        extra: usize,
    },
    /// A reply error field that is neither zero nor a negated errno the
    /// kernel models (a positive value, `i32::MIN`, or an unknown code).
    BadErrno(i32),
    /// The frame's checksum trailer does not match its contents — bytes
    /// were corrupted in flight.
    BadChecksum {
        /// The checksum the frame's bytes compute to.
        expected: u32,
        /// The checksum the trailer carried.
        got: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::LengthMismatch { header, actual } => {
                write!(f, "header says {header} bytes, frame has {actual}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::BadTag { field, value } => write!(f, "bad {field} tag {value}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after body")
            }
            WireError::BadErrno(e) => write!(f, "reply error field {e} is not a negated errno"),
            WireError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "checksum {got:#010x} does not match contents ({expected:#010x})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded incoming frame: a filesystem request, or the session-ending
/// `FUSE_DESTROY`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Incoming {
    /// A filesystem request to dispatch.
    Request {
        /// The client's request id, echoed in the reply.
        unique: u64,
        /// The decoded request.
        req: Request,
    },
    /// Clean shutdown: the client is unmounting.
    Destroy {
        /// The client's request id.
        unique: u64,
    },
}

// --------------------------------------------------------------- primitives

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn wire_len(len: usize) -> u32 {
    // hpcc-lint: allow(panic) — frames are capped at MAX_WIRE_FRAME, far below u32::MAX
    u32::try_from(len).expect("field too long for a u32 wire length")
}

/// Copies up to `N` leading bytes of `b` into a fixed array, zero-filling
/// the rest — the infallible little-endian decode step (callers size `b`
/// with `chunks_exact`/`take`, and a short slice still cannot panic here).
pub(crate) fn le_array<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (o, v) in out.iter_mut().zip(b) {
        *o = *v;
    }
    out
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, wire_len(b.len()));
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Seals a finished frame: patches the leading length field to the final
/// size (trailer included), then appends the checksum trailer.
fn seal(buf: &mut Vec<u8>) {
    let len = wire_len(buf.len() + WIRE_TRAILER);
    if let Some(head) = buf.get_mut(0..4) {
        head.copy_from_slice(&len.to_le_bytes());
    }
    let sum = frame_checksum(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Validates a frame's envelope — length field and checksum trailer —
/// returning the body (everything before the trailer) for the field
/// decoders. Runs before any field parsing, so a corrupted frame is always
/// [`WireError::BadChecksum`] (or a length error), never a misparse.
fn check_frame(frame: &[u8]) -> Result<&[u8], WireError> {
    if frame.len() < 4 + WIRE_TRAILER {
        return Err(WireError::Truncated);
    }
    let header_len = u32::from_le_bytes(le_array(frame));
    if header_len as usize != frame.len() {
        return Err(WireError::LengthMismatch {
            header: header_len,
            actual: frame.len(),
        });
    }
    let (body, trailer) = frame.split_at(frame.len() - WIRE_TRAILER);
    let got = u32::from_le_bytes(le_array(trailer));
    let expected = frame_checksum(body);
    if got != expected {
        return Err(WireError::BadChecksum { expected, got });
    }
    Ok(body)
}

/// Strict little-endian reader over one frame.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(le_array(self.take(2)?)))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(le_array(self.take(4)?)))
    }

    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(le_array(self.take(4)?)))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(le_array(self.take(8)?)))
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, WireError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- requests

/// The opcode and header nodeid for an operation.
fn opcode_and_nodeid(op: &Operation) -> (u32, u64) {
    match op {
        Operation::Lookup { parent, .. } => (FUSE_LOOKUP, *parent),
        Operation::Getattr { ino } => (FUSE_GETATTR, *ino),
        Operation::Setattr { ino, .. } => (FUSE_SETATTR, *ino),
        Operation::Readlink { ino } => (FUSE_READLINK, *ino),
        Operation::Symlink { parent, .. } => (FUSE_SYMLINK, *parent),
        Operation::Mkdir { parent, .. } => (FUSE_MKDIR, *parent),
        Operation::Unlink { parent, .. } => (FUSE_UNLINK, *parent),
        Operation::Rmdir { parent, .. } => (FUSE_RMDIR, *parent),
        Operation::Rename { parent, .. } => (FUSE_RENAME, *parent),
        Operation::Open { ino, .. } => (FUSE_OPEN, *ino),
        Operation::Read { .. } => (FUSE_READ, 0),
        Operation::Write { .. } => (FUSE_WRITE, 0),
        Operation::Statfs => (FUSE_STATFS, 0),
        Operation::Release { .. } => (FUSE_RELEASE, 0),
        Operation::Setxattr { ino, .. } => (FUSE_SETXATTR, *ino),
        Operation::Getxattr { ino, .. } => (FUSE_GETXATTR, *ino),
        Operation::Listxattr { ino } => (FUSE_LISTXATTR, *ino),
        Operation::Opendir { ino } => (FUSE_OPENDIR, *ino),
        Operation::Readdir { .. } => (FUSE_READDIR, 0),
        Operation::Releasedir { .. } => (FUSE_RELEASEDIR, 0),
        Operation::Create { parent, .. } => (FUSE_CREATE, *parent),
    }
}

/// Encodes a request into `buf` (cleared first; reuse it across calls).
pub fn encode_request(buf: &mut Vec<u8>, unique: u64, req: &Request) {
    buf.clear();
    let (opcode, nodeid) = opcode_and_nodeid(&req.op);
    put_u32(buf, 0); // length, sealed below
    put_u32(buf, opcode);
    put_u64(buf, unique);
    put_u64(buf, nodeid);
    put_u32(buf, req.cred.uid.0);
    put_u32(buf, req.cred.gid.0);
    put_u32(buf, wire_len(req.cred.groups.len()));
    for g in &req.cred.groups {
        put_u32(buf, g.0);
    }
    match &req.op {
        Operation::Lookup { name, .. }
        | Operation::Unlink { name, .. }
        | Operation::Rmdir { name, .. }
        | Operation::Getxattr { name, .. } => put_str(buf, name),
        Operation::Getattr { .. }
        | Operation::Readlink { .. }
        | Operation::Opendir { .. }
        | Operation::Listxattr { .. }
        | Operation::Statfs => {}
        Operation::Setattr { changes, .. } => {
            let mut mask = 0u32;
            if changes.mode.is_some() {
                mask |= SETATTR_MODE;
            }
            if changes.uid.is_some() {
                mask |= SETATTR_UID;
            }
            if changes.gid.is_some() {
                mask |= SETATTR_GID;
            }
            if changes.size.is_some() {
                mask |= SETATTR_SIZE;
            }
            put_u32(buf, mask);
            put_u32(buf, changes.mode.map_or(0, |m| m.bits() as u32));
            put_u32(buf, changes.uid.map_or(0, |u| u.0));
            put_u32(buf, changes.gid.map_or(0, |g| g.0));
            put_u64(buf, changes.size.unwrap_or(0));
        }
        Operation::Open { flags, .. } => put_u32(buf, flags.bits()),
        Operation::Create {
            name, mode, flags, ..
        } => {
            put_u32(buf, mode.bits() as u32);
            put_u32(buf, flags.bits());
            put_str(buf, name);
        }
        Operation::Read { fh, offset, size } => {
            put_u64(buf, *fh);
            put_u64(buf, *offset);
            put_u32(buf, *size);
        }
        Operation::Write { fh, offset, data } => {
            put_u64(buf, *fh);
            put_u64(buf, *offset);
            put_bytes(buf, data);
        }
        Operation::Release { fh } | Operation::Releasedir { fh } => put_u64(buf, *fh),
        Operation::Readdir { fh, offset, max } => {
            put_u64(buf, *fh);
            put_u64(buf, *offset as u64);
            put_u64(buf, *max as u64);
        }
        Operation::Mkdir { name, mode, .. } => {
            put_u32(buf, mode.bits() as u32);
            put_str(buf, name);
        }
        Operation::Rename {
            name,
            new_parent,
            new_name,
            ..
        } => {
            put_u64(buf, *new_parent);
            put_str(buf, name);
            put_str(buf, new_name);
        }
        Operation::Symlink { name, target, .. } => {
            put_str(buf, name);
            put_str(buf, target);
        }
        Operation::Setxattr { name, value, .. } => {
            put_str(buf, name);
            put_bytes(buf, value);
        }
    }
    seal(buf);
}

/// Encodes the session-ending `FUSE_DESTROY` frame.
pub fn encode_destroy(buf: &mut Vec<u8>, unique: u64) {
    buf.clear();
    put_u32(buf, 0);
    put_u32(buf, FUSE_DESTROY);
    put_u64(buf, unique);
    put_u64(buf, 0); // nodeid
    put_u32(buf, 0); // uid
    put_u32(buf, 0); // gid
    put_u32(buf, 0); // no groups
    seal(buf);
}

/// The request id at bytes 8..16, if the frame is long enough to have one —
/// the server's best effort at addressing an error reply for a frame that
/// failed to decode.
pub fn peek_unique(frame: &[u8]) -> Option<u64> {
    frame.get(8..16).map(|b| u64::from_le_bytes(le_array(b)))
}

/// Whether the frame's opcode field (bytes 4..8) says `FUSE_DESTROY` — the
/// overload-shedding server's peek: a session teardown is never shed, so a
/// drowning server still drains politely.
pub(crate) fn peek_is_destroy(frame: &[u8]) -> bool {
    frame
        .get(4..8)
        .map(|b| u32::from_le_bytes(le_array(b)) == FUSE_DESTROY)
        .unwrap_or(false)
}

/// Decodes one request frame. Strict: the header length must equal the
/// frame length, strings must be UTF-8, and the body must consume the frame
/// exactly.
pub fn decode_request(frame: &[u8]) -> Result<Incoming, WireError> {
    let body = check_frame(frame)?;
    let mut r = Reader::new(body);
    let _ = r.u32()?; // length field, validated by check_frame
    let opcode = r.u32()?;
    let unique = r.u64()?;
    let nodeid = r.u64()?;
    let uid = Uid(r.u32()?);
    let gid = Gid(r.u32()?);
    let ngroups = r.u32()? as usize;
    if ngroups > r.remaining() / 4 {
        return Err(WireError::Truncated);
    }
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        groups.push(Gid(r.u32()?));
    }
    let cred = FsCreds::new(uid, gid, groups);
    let op = match opcode {
        FUSE_LOOKUP => Operation::Lookup {
            parent: nodeid,
            name: r.string()?,
        },
        FUSE_GETATTR => Operation::Getattr { ino: nodeid },
        FUSE_SETATTR => {
            let mask = r.u32()?;
            let mode = r.u32()?;
            let uid = r.u32()?;
            let gid = r.u32()?;
            let size = r.u64()?;
            let mut changes = Setattr::none();
            if mask & SETATTR_MODE != 0 {
                changes.mode = Some(Mode::new(mode as u16));
            }
            if mask & SETATTR_UID != 0 {
                changes.uid = Some(Uid(uid));
            }
            if mask & SETATTR_GID != 0 {
                changes.gid = Some(Gid(gid));
            }
            if mask & SETATTR_SIZE != 0 {
                changes.size = Some(size);
            }
            Operation::Setattr {
                ino: nodeid,
                changes,
            }
        }
        FUSE_READLINK => Operation::Readlink { ino: nodeid },
        FUSE_SYMLINK => Operation::Symlink {
            parent: nodeid,
            name: r.string()?,
            target: r.string()?,
        },
        FUSE_MKDIR => {
            let mode = Mode::new(r.u32()? as u16);
            Operation::Mkdir {
                parent: nodeid,
                name: r.string()?,
                mode,
            }
        }
        FUSE_UNLINK => Operation::Unlink {
            parent: nodeid,
            name: r.string()?,
        },
        FUSE_RMDIR => Operation::Rmdir {
            parent: nodeid,
            name: r.string()?,
        },
        FUSE_RENAME => {
            let new_parent = r.u64()?;
            Operation::Rename {
                parent: nodeid,
                name: r.string()?,
                new_parent,
                new_name: r.string()?,
            }
        }
        FUSE_OPEN => Operation::Open {
            ino: nodeid,
            flags: OpenFlags::from_bits(r.u32()?),
        },
        FUSE_READ => Operation::Read {
            fh: r.u64()?,
            offset: r.u64()?,
            size: r.u32()?,
        },
        FUSE_WRITE => Operation::Write {
            fh: r.u64()?,
            offset: r.u64()?,
            data: r.bytes()?.to_vec(),
        },
        FUSE_STATFS => Operation::Statfs,
        FUSE_RELEASE => Operation::Release { fh: r.u64()? },
        FUSE_SETXATTR => Operation::Setxattr {
            ino: nodeid,
            name: r.string()?,
            value: r.bytes()?.to_vec(),
        },
        FUSE_GETXATTR => Operation::Getxattr {
            ino: nodeid,
            name: r.string()?,
        },
        FUSE_LISTXATTR => Operation::Listxattr { ino: nodeid },
        FUSE_OPENDIR => Operation::Opendir { ino: nodeid },
        FUSE_READDIR => Operation::Readdir {
            fh: r.u64()?,
            offset: r.u64()? as usize,
            max: r.u64()? as usize,
        },
        FUSE_RELEASEDIR => Operation::Releasedir { fh: r.u64()? },
        FUSE_CREATE => {
            let mode = Mode::new(r.u32()? as u16);
            let flags = OpenFlags::from_bits(r.u32()?);
            Operation::Create {
                parent: nodeid,
                name: r.string()?,
                mode,
                flags,
            }
        }
        FUSE_DESTROY => {
            r.finish()?;
            return Ok(Incoming::Destroy { unique });
        }
        other => return Err(WireError::BadOpcode(other)),
    };
    r.finish()?;
    Ok(Incoming::Request {
        unique,
        req: Request::new(cred, op),
    })
}

// ------------------------------------------------------------------ replies

fn file_type_tag(ft: FileType) -> u8 {
    match ft {
        FileType::Regular => 0,
        FileType::Directory => 1,
        FileType::Symlink => 2,
        FileType::CharDevice => 3,
        FileType::BlockDevice => 4,
        FileType::Fifo => 5,
        FileType::Socket => 6,
    }
}

fn file_type_from_tag(tag: u8) -> Result<FileType, WireError> {
    Ok(match tag {
        0 => FileType::Regular,
        1 => FileType::Directory,
        2 => FileType::Symlink,
        3 => FileType::CharDevice,
        4 => FileType::BlockDevice,
        5 => FileType::Fifo,
        6 => FileType::Socket,
        other => {
            return Err(WireError::BadTag {
                field: "file_type",
                value: other as u32,
            })
        }
    })
}

/// Fixed 48-byte attribute encoding (the `fuse_attr` analogue).
fn put_attr(buf: &mut Vec<u8>, attr: &Attr) {
    put_u64(buf, attr.ino);
    put_u64(buf, attr.size);
    put_u64(buf, attr.mtime);
    put_u32(buf, attr.nlink);
    put_u32(buf, attr.uid.0);
    put_u32(buf, attr.gid.0);
    put_u16(buf, attr.mode.bits());
    buf.push(file_type_tag(attr.file_type));
    buf.push(attr.rdev.is_some() as u8);
    let (major, minor) = attr.rdev.unwrap_or((0, 0));
    put_u32(buf, major);
    put_u32(buf, minor);
}

fn read_attr(r: &mut Reader<'_>) -> Result<Attr, WireError> {
    let ino = r.u64()?;
    let size = r.u64()?;
    let mtime = r.u64()?;
    let nlink = r.u32()?;
    let uid = Uid(r.u32()?);
    let gid = Gid(r.u32()?);
    let mode = Mode::new(r.u16()?);
    let file_type = file_type_from_tag(r.u8()?)?;
    let has_rdev = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(WireError::BadTag {
                field: "has_rdev",
                value: other as u32,
            })
        }
    };
    let major = r.u32()?;
    let minor = r.u32()?;
    Ok(Attr {
        ino,
        file_type,
        mode,
        uid,
        gid,
        size,
        nlink,
        rdev: has_rdev.then_some((major, minor)),
        mtime,
    })
}

/// Encodes a reply into `buf` (cleared first; reuse it across calls).
///
/// Error replies encode as a bare header with the negated errno; success
/// replies append the payload for their variant.
pub fn encode_reply(buf: &mut Vec<u8>, unique: u64, reply: &Reply) {
    buf.clear();
    if let Reply::Data(d) = reply {
        // Size the buffer for the whole frame at once: one allocation at
        // most, and no doubled capacity left in a reply-cache entry.
        buf.reserve(DATA_AT + d.len() + WIRE_TRAILER);
    }
    put_u32(buf, 0); // length, sealed below
    match reply {
        Reply::Err(e) => put_i32(buf, -e.code()),
        _ => put_i32(buf, 0),
    }
    put_u64(buf, unique);
    match reply {
        Reply::Err(_) | Reply::Unit => {}
        Reply::Entry(e) => {
            put_u64(buf, e.ino);
            put_attr(buf, &e.attr);
        }
        Reply::Attr(a) => put_attr(buf, a),
        Reply::Opened(o) => {
            put_u64(buf, o.fh);
            put_u32(buf, o.flags.bits());
        }
        Reply::Data(d) => put_bytes(buf, d.as_slice()),
        Reply::Written(w) => put_u32(buf, w.size),
        Reply::Dir(entries) => {
            put_u32(buf, wire_len(entries.len()));
            for e in entries {
                put_u64(buf, e.ino);
                buf.push(file_type_tag(e.file_type));
                put_str(buf, &e.name);
            }
        }
        Reply::Link(target) => put_str(buf, target),
        Reply::Statfs(st) => {
            put_u64(buf, st.inodes);
            put_u64(buf, st.bytes);
            buf.push(st.readonly as u8);
        }
        Reply::Xattr(v) => put_bytes(buf, v),
        Reply::Names(names) => {
            put_u32(buf, wire_len(names.len()));
            for n in names {
                put_str(buf, n);
            }
        }
    }
    seal(buf);
}

/// Decodes the reply frame in `buf` against the expected success shape,
/// returning the echoed unique id and the reply.
///
/// A `Data` reply's payload is read where it landed when its frame fills at
/// least half of `buf`'s capacity: the [`ReadReply`] takes `buf` and
/// windows the payload inside the frame, and `buf` is left empty with the
/// same capacity for the next receive. A smaller payload is copied out and
/// `buf` keeps the frame. Either way a reply holds at most twice its
/// frame's bytes. Every other reply leaves `buf` as it was.
pub fn decode_reply(buf: &mut Vec<u8>, kind: ReplyKind) -> Result<(u64, Reply), WireError> {
    let body = check_frame(buf)?;
    let mut r = Reader::new(body);
    let _ = r.u32()?; // length field, validated by check_frame
    let error = r.i32()?;
    let unique = r.u64()?;
    if error != 0 {
        let errno = error
            .checked_neg()
            .and_then(Errno::from_code)
            .ok_or(WireError::BadErrno(error))?;
        r.finish()?;
        return Ok((unique, Reply::Err(errno)));
    }
    let reply = match kind {
        ReplyKind::Unit => Reply::Unit,
        ReplyKind::Entry => {
            let ino = r.u64()?;
            Reply::Entry(Entry {
                ino,
                attr: read_attr(&mut r)?,
            })
        }
        ReplyKind::Attr => Reply::Attr(read_attr(&mut r)?),
        ReplyKind::Opened => Reply::Opened(Opened {
            fh: r.u64()?,
            flags: OpenFlags::from_bits(r.u32()?),
        }),
        ReplyKind::Data => {
            let data = r.bytes()?;
            r.finish()?;
            let size = wire_len(data.len());
            let cap = buf.capacity();
            let read = if cap - buf.len() <= buf.len() {
                let frame = std::mem::replace(buf, Vec::with_capacity(cap));
                ReadReply::new(FileBytes::from(frame), DATA_AT as u64, size)
            } else {
                ReadReply::new(FileBytes::from(data.to_vec()), 0, size)
            };
            return Ok((unique, Reply::Data(read)));
        }
        ReplyKind::Written => Reply::Written(Written { size: r.u32()? }),
        ReplyKind::Dir => {
            let count = r.u32()? as usize;
            // 9 bytes of fixed fields per entry, minimum.
            if count > r.remaining() / 9 {
                return Err(WireError::Truncated);
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let ino = r.u64()?;
                let file_type = file_type_from_tag(r.u8()?)?;
                let name = r.string()?;
                entries.push(DirEntry {
                    name,
                    ino,
                    file_type,
                });
            }
            Reply::Dir(entries)
        }
        ReplyKind::Link => Reply::Link(r.string()?),
        ReplyKind::Statfs => {
            let inodes = r.u64()?;
            let bytes = r.u64()?;
            let readonly = match r.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(WireError::BadTag {
                        field: "readonly",
                        value: other as u32,
                    })
                }
            };
            Reply::Statfs(StatfsReply {
                inodes,
                bytes,
                readonly,
            })
        }
        ReplyKind::Xattr => Reply::Xattr(r.bytes()?.to_vec()),
        ReplyKind::Names => {
            let count = r.u32()? as usize;
            // 4 bytes of length prefix per name, minimum.
            if count > r.remaining() / 4 {
                return Err(WireError::Truncated);
            }
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                names.push(r.string()?);
            }
            Reply::Names(names)
        }
    };
    r.finish()?;
    Ok((unique, reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cred() -> FsCreds {
        FsCreds::new(Uid(1000), Gid(1000), vec![Gid(1000), Gid(44)])
    }

    fn attr() -> Attr {
        Attr {
            ino: 42,
            file_type: FileType::Regular,
            mode: Mode::FILE_644,
            uid: Uid(1000),
            gid: Gid(1000),
            size: 4096,
            nlink: 2,
            rdev: None,
            mtime: 7,
        }
    }

    fn round_trip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        encode_request(&mut buf, 99, req);
        match decode_request(&buf).unwrap() {
            Incoming::Request { unique, req } => {
                assert_eq!(unique, 99);
                req
            }
            other => panic!("{other:?}"),
        }
    }

    fn round_trip_reply(reply: &Reply, kind: ReplyKind) -> Reply {
        let mut buf = Vec::new();
        encode_reply(&mut buf, 7, reply);
        let (unique, decoded) = decode_reply(&mut buf, kind).unwrap();
        assert_eq!(unique, 7);
        decoded
    }

    #[test]
    fn every_operation_round_trips() {
        let ops = [
            Operation::Lookup {
                parent: 1,
                name: "etc".into(),
            },
            Operation::Getattr { ino: 3 },
            Operation::Setattr {
                ino: 3,
                changes: Setattr {
                    mode: Some(Mode::new(0o640)),
                    uid: Some(Uid(7)),
                    size: Some(10),
                    ..Setattr::none()
                },
            },
            Operation::Setattr {
                ino: 3,
                changes: Setattr {
                    gid: Some(Gid(8)),
                    ..Setattr::none()
                },
            },
            Operation::Readlink { ino: 4 },
            Operation::Open {
                ino: 3,
                flags: OpenFlags::WRONLY | OpenFlags::TRUNC,
            },
            Operation::Create {
                parent: 1,
                name: "new.conf".into(),
                mode: Mode::FILE_644,
                flags: OpenFlags::RDWR,
            },
            Operation::Read {
                fh: 9,
                offset: 1024,
                size: 4096,
            },
            Operation::Write {
                fh: 9,
                offset: 0,
                data: b"hello".to_vec(),
            },
            Operation::Release { fh: 9 },
            Operation::Opendir { ino: 1 },
            Operation::Readdir {
                fh: 2,
                offset: 5,
                max: 100,
            },
            Operation::Releasedir { fh: 2 },
            Operation::Mkdir {
                parent: 1,
                name: "d".into(),
                mode: Mode::DIR_755,
            },
            Operation::Unlink {
                parent: 1,
                name: "f".into(),
            },
            Operation::Rmdir {
                parent: 1,
                name: "d".into(),
            },
            Operation::Rename {
                parent: 1,
                name: "a".into(),
                new_parent: 5,
                new_name: "b".into(),
            },
            Operation::Symlink {
                parent: 1,
                name: "l".into(),
                target: "/etc/hostname".into(),
            },
            Operation::Statfs,
            Operation::Getxattr {
                ino: 3,
                name: "user.k".into(),
            },
            Operation::Setxattr {
                ino: 3,
                name: "user.k".into(),
                value: vec![0, 159, 146, 150],
            },
            Operation::Listxattr { ino: 3 },
        ];
        for op in ops {
            let req = Request::new(cred(), op);
            assert_eq!(round_trip_request(&req), req);
        }
    }

    #[test]
    fn every_reply_variant_round_trips() {
        let replies = [
            (
                Reply::Entry(Entry {
                    ino: 42,
                    attr: attr(),
                }),
                ReplyKind::Entry,
            ),
            (Reply::Attr(attr()), ReplyKind::Attr),
            (
                Reply::Attr(Attr {
                    file_type: FileType::BlockDevice,
                    rdev: Some((8, 1)),
                    ..attr()
                }),
                ReplyKind::Attr,
            ),
            (
                Reply::Opened(Opened {
                    fh: 77,
                    flags: OpenFlags::RDONLY,
                }),
                ReplyKind::Opened,
            ),
            (
                Reply::Data(ReadReply::new(FileBytes::from(b"astra".to_vec()), 0, 5)),
                ReplyKind::Data,
            ),
            (Reply::Written(Written { size: 5 }), ReplyKind::Written),
            (
                Reply::Dir(vec![
                    DirEntry {
                        name: "etc".into(),
                        ino: 2,
                        file_type: FileType::Directory,
                    },
                    DirEntry {
                        name: "hostname".into(),
                        ino: 3,
                        file_type: FileType::Regular,
                    },
                ]),
                ReplyKind::Dir,
            ),
            (Reply::Link("/etc/hostname".into()), ReplyKind::Link),
            (
                Reply::Statfs(StatfsReply {
                    inodes: 100,
                    bytes: 4096,
                    readonly: true,
                }),
                ReplyKind::Statfs,
            ),
            (Reply::Xattr(vec![1, 2, 3]), ReplyKind::Xattr),
            (
                Reply::Names(vec!["user.a".into(), "user.b".into()]),
                ReplyKind::Names,
            ),
            (Reply::Unit, ReplyKind::Unit),
        ];
        for (reply, kind) in replies {
            assert_eq!(round_trip_reply(&reply, kind), reply);
        }
    }

    /// Every errno the kernel models survives the negated-errno encoding,
    /// whatever reply kind the request expected.
    #[test]
    fn every_errno_round_trips() {
        for code in [
            1, 2, 3, 5, 9, 11, 13, 17, 18, 19, 20, 21, 22, 23, 27, 28, 30, 31, 32, 36, 38, 39, 40,
            61, 87, 95, 122,
        ] {
            let e = Errno::from_code(code).expect("a modelled code");
            for kind in [ReplyKind::Entry, ReplyKind::Data, ReplyKind::Unit] {
                assert_eq!(round_trip_reply(&Reply::Err(e), kind), Reply::Err(e));
            }
        }
    }

    #[test]
    fn destroy_round_trips() {
        let mut buf = Vec::new();
        encode_destroy(&mut buf, 13);
        assert_eq!(
            decode_request(&buf).unwrap(),
            Incoming::Destroy { unique: 13 }
        );
    }

    #[test]
    fn every_strict_prefix_of_a_frame_is_rejected() {
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            1,
            &Request::new(
                cred(),
                Operation::Lookup {
                    parent: 1,
                    name: "etc".into(),
                },
            ),
        );
        for cut in 0..buf.len() {
            assert!(
                decode_request(&buf[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut reply = Vec::new();
        encode_reply(&mut reply, 1, &Reply::Attr(attr()));
        for cut in 0..reply.len() {
            assert!(decode_reply(&mut reply[..cut].to_vec(), ReplyKind::Attr).is_err());
        }
    }

    /// Strips the checksum trailer, lets `f` tamper with the raw frame, and
    /// reseals it — building frames that are deliberately malformed yet
    /// checksum-valid, so decode reaches the field the test targets.
    fn tamper(buf: &mut Vec<u8>, f: impl FnOnce(&mut Vec<u8>)) {
        buf.truncate(buf.len() - WIRE_TRAILER);
        f(buf);
        seal(buf);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        // Unknown opcode.
        let mut buf = Vec::new();
        encode_destroy(&mut buf, 1);
        tamper(&mut buf, |b| b[4..8].copy_from_slice(&999u32.to_le_bytes()));
        assert_eq!(decode_request(&buf), Err(WireError::BadOpcode(999)));

        // Trailing garbage (length field and checksum resealed to match).
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &Request::new(cred(), Operation::Statfs));
        tamper(&mut buf, |b| b.push(0xFF));
        assert_eq!(
            decode_request(&buf),
            Err(WireError::TrailingBytes { extra: 1 })
        );

        // Non-UTF-8 name.
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            1,
            &Request::new(
                cred(),
                Operation::Lookup {
                    parent: 1,
                    name: "abc".into(),
                },
            ),
        );
        tamper(&mut buf, |b| {
            let n = b.len();
            b[n - 1] = 0xFF;
        });
        assert_eq!(decode_request(&buf), Err(WireError::BadUtf8));

        // A groups count pointing past the frame must not allocate or panic.
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &Request::new(cred(), Operation::Statfs));
        tamper(&mut buf, |b| {
            b[32..36].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert_eq!(decode_request(&buf), Err(WireError::Truncated));

        // A reply error field that does not negate a modelled errno: a
        // positive value, an unmodelled code, and one whose negation
        // overflows.
        for error in [2, -4096, i32::MIN] {
            let mut buf = Vec::new();
            encode_reply(&mut buf, 1, &Reply::Err(Errno::ENOENT));
            tamper(&mut buf, |b| b[4..8].copy_from_slice(&error.to_le_bytes()));
            assert_eq!(
                decode_reply(&mut buf, ReplyKind::Unit),
                Err(WireError::BadErrno(error)),
                "error field {error}"
            );
        }
    }

    /// Any un-resealed mutation is caught by the trailer before field
    /// parsing — the property the fault injector's bit flips rely on: a
    /// corrupted name can never decode as a different valid request.
    #[test]
    fn corrupted_frames_fail_the_checksum() {
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            9,
            &Request::new(
                cred(),
                Operation::Lookup {
                    parent: 1,
                    name: "etc".into(),
                },
            ),
        );

        // Flip one bit in every position past the length field (length-field
        // flips surface as LengthMismatch instead, checked below): always a
        // typed checksum failure, never a successful decode.
        for byte in 4..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            assert!(
                matches!(decode_request(&bad), Err(WireError::BadChecksum { .. })),
                "byte {byte}: {:?}",
                decode_request(&bad)
            );
        }

        // A length-field flip is a length error (framing, not content).
        let mut bad = buf.clone();
        bad[0] ^= 0x01;
        assert!(matches!(
            decode_request(&bad),
            Err(WireError::LengthMismatch { .. })
        ));

        // Replies carry the same trailer.
        let mut reply = Vec::new();
        encode_reply(&mut reply, 9, &Reply::Written(Written { size: 3 }));
        reply[10] ^= 0x80;
        assert!(matches!(
            decode_reply(&mut reply, ReplyKind::Written),
            Err(WireError::BadChecksum { .. })
        ));

        // Truncation to less than a whole envelope is Truncated, not a panic.
        assert_eq!(decode_request(&buf[..5]), Err(WireError::Truncated));
    }

    #[test]
    fn unique_is_peekable_from_malformed_frames() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 0xDEAD, &Request::new(cred(), Operation::Statfs));
        buf.truncate(20); // malformed: short, but the header survived
        assert_eq!(peek_unique(&buf), Some(0xDEAD));
        assert_eq!(peek_unique(&buf[..10]), None);
    }
}

// The property suite runs against the offline proptest shim; see lib.rs.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds an arbitrary credential set from raw parts.
    fn creds(uid: u32, gid: u32, groups: Vec<u32>) -> FsCreds {
        FsCreds::new(Uid(uid), Gid(gid), groups.into_iter().map(Gid).collect())
    }

    /// Deterministically derives one of the 22 operations from a selector
    /// and a bag of random field values.
    #[allow(clippy::too_many_arguments)]
    fn build_op(
        sel: u8,
        ino: u64,
        fh: u64,
        name: String,
        target: String,
        num: u32,
        data: Vec<u8>,
    ) -> Operation {
        let mode = Mode::new((num & 0o7777) as u16);
        let flags = OpenFlags::from_bits(num % 4);
        match sel % 22 {
            0 => Operation::Lookup { parent: ino, name },
            1 => Operation::Getattr { ino },
            2 => {
                let mut changes = Setattr::none();
                if num & 1 != 0 {
                    changes.mode = Some(mode);
                }
                if num & 2 != 0 {
                    changes.uid = Some(Uid(num));
                }
                if num & 4 != 0 {
                    changes.gid = Some(Gid(num.wrapping_add(1)));
                }
                if num & 8 != 0 {
                    changes.size = Some(fh);
                }
                Operation::Setattr { ino, changes }
            }
            3 => Operation::Readlink { ino },
            4 => Operation::Open { ino, flags },
            5 => Operation::Create {
                parent: ino,
                name,
                mode,
                flags,
            },
            6 => Operation::Read {
                fh,
                offset: ino,
                size: num,
            },
            7 => Operation::Write {
                fh,
                offset: ino,
                data,
            },
            8 => Operation::Release { fh },
            9 => Operation::Opendir { ino },
            10 => Operation::Readdir {
                fh,
                offset: ino as usize,
                max: num as usize,
            },
            11 => Operation::Releasedir { fh },
            12 => Operation::Mkdir {
                parent: ino,
                name,
                mode,
            },
            13 => Operation::Unlink { parent: ino, name },
            14 => Operation::Rmdir { parent: ino, name },
            15 => Operation::Rename {
                parent: ino,
                name,
                new_parent: fh,
                new_name: target,
            },
            16 => Operation::Symlink {
                parent: ino,
                name,
                target,
            },
            17 => Operation::Statfs,
            18 => Operation::Getxattr { ino, name },
            19 => Operation::Setxattr {
                ino,
                name,
                value: data,
            },
            20 => Operation::Listxattr { ino },
            _ => Operation::Lookup { parent: ino, name },
        }
    }

    /// Deterministically derives one reply (success or error) from a
    /// selector and random fields, plus the kind it decodes under.
    fn build_reply(sel: u8, ino: u64, num: u32, name: String, data: Vec<u8>) -> (Reply, ReplyKind) {
        let attr = Attr {
            ino,
            file_type: match num % 7 {
                0 => FileType::Regular,
                1 => FileType::Directory,
                2 => FileType::Symlink,
                3 => FileType::CharDevice,
                4 => FileType::BlockDevice,
                5 => FileType::Fifo,
                _ => FileType::Socket,
            },
            mode: Mode::new((num & 0o7777) as u16),
            uid: Uid(num),
            gid: Gid(num.wrapping_mul(3)),
            size: ino.wrapping_mul(7),
            nlink: num.wrapping_add(1),
            rdev: num.is_multiple_of(3).then_some((num, num.wrapping_add(9))),
            mtime: ino,
        };
        match sel % 11 {
            0 => (Reply::Entry(Entry { ino, attr }), ReplyKind::Entry),
            1 => (Reply::Attr(attr), ReplyKind::Attr),
            2 => (
                Reply::Opened(Opened {
                    fh: ino,
                    flags: OpenFlags::from_bits(num % 4),
                }),
                ReplyKind::Opened,
            ),
            3 => {
                let size = data.len() as u32;
                (
                    Reply::Data(ReadReply::new(FileBytes::from(data), 0, size)),
                    ReplyKind::Data,
                )
            }
            4 => (Reply::Written(Written { size: num }), ReplyKind::Written),
            5 => (
                Reply::Dir(vec![DirEntry {
                    name,
                    ino,
                    file_type: attr.file_type,
                }]),
                ReplyKind::Dir,
            ),
            6 => (Reply::Link(name), ReplyKind::Link),
            7 => (
                Reply::Statfs(StatfsReply {
                    inodes: ino,
                    bytes: ino.wrapping_mul(11),
                    readonly: num.is_multiple_of(2),
                }),
                ReplyKind::Statfs,
            ),
            8 => (Reply::Xattr(data), ReplyKind::Xattr),
            9 => (Reply::Names(vec![name]), ReplyKind::Names),
            _ => (Reply::Unit, ReplyKind::Unit),
        }
    }

    proptest! {
        /// Random requests round-trip bit-identically through the codec,
        /// and every strict prefix of the frame is rejected.
        #[test]
        fn request_round_trip_and_truncation(
            sel in any::<u8>(),
            uid in any::<u32>(),
            gid in any::<u32>(),
            groups in proptest::collection::vec(any::<u32>(), 0..5),
            ino in any::<u64>(),
            fh in any::<u64>(),
            name in "[a-zA-Z0-9._-]{0,12}",
            target in "[a-z/]{0,16}",
            num in any::<u32>(),
            data in proptest::collection::vec(any::<u8>(), 0..48),
            cut in any::<u16>(),
        ) {
            let req = Request::new(
                creds(uid, gid, groups),
                build_op(sel, ino, fh, name, target, num, data),
            );
            let mut buf = Vec::new();
            encode_request(&mut buf, ino ^ fh, &req);
            match decode_request(&buf) {
                Ok(Incoming::Request { unique, req: back }) => {
                    prop_assert_eq!(unique, ino ^ fh);
                    prop_assert_eq!(back, req);
                }
                other => prop_assert!(false, "decode failed: {:?}", other),
            }
            let cut = cut as usize % buf.len();
            prop_assert!(decode_request(&buf[..cut]).is_err(), "prefix {} decoded", cut);
        }

        /// Random replies round-trip bit-identically, and every strict
        /// prefix is rejected.
        #[test]
        fn reply_round_trip_and_truncation(
            sel in any::<u8>(),
            ino in any::<u64>(),
            num in any::<u32>(),
            name in "[a-zA-Z0-9._-]{0,12}",
            data in proptest::collection::vec(any::<u8>(), 0..48),
            unique in any::<u64>(),
            cut in any::<u16>(),
        ) {
            let (reply, kind) = build_reply(sel, ino, num, name, data);
            let mut buf = Vec::new();
            encode_reply(&mut buf, unique, &reply);
            let frame = buf.clone();
            let (back_unique, back) = decode_reply(&mut buf, kind).unwrap();
            prop_assert_eq!(back_unique, unique);
            prop_assert_eq!(back, reply);
            let cut = cut as usize % frame.len();
            prop_assert!(decode_reply(&mut frame[..cut].to_vec(), kind).is_err());
        }

        /// Every errno the kernel models survives the negated-errno
        /// encoding under any expected reply kind.
        #[test]
        fn errno_replies_round_trip(
            idx in 0usize..27,
            ksel in any::<u8>(),
            unique in any::<u64>(),
        ) {
            const CODES: [i32; 27] = [
                1, 2, 3, 5, 9, 11, 13, 17, 18, 19, 20, 21, 22, 23, 27, 28,
                30, 31, 32, 36, 38, 39, 40, 61, 87, 95, 122,
            ];
            let kinds = [
                ReplyKind::Entry, ReplyKind::Attr, ReplyKind::Opened,
                ReplyKind::Data, ReplyKind::Written, ReplyKind::Dir,
                ReplyKind::Link, ReplyKind::Statfs, ReplyKind::Xattr,
                ReplyKind::Names, ReplyKind::Unit,
            ];
            let e = Errno::from_code(CODES[idx]).expect("a modelled code");
            let kind = kinds[ksel as usize % kinds.len()];
            let mut buf = Vec::new();
            encode_reply(&mut buf, unique, &Reply::Err(e));
            prop_assert_eq!(
                buf.len(),
                REPLY_HEADER + WIRE_TRAILER,
                "error replies carry no payload beyond the checksum trailer"
            );
            let (u, back) = decode_reply(&mut buf, kind).unwrap();
            prop_assert_eq!(u, unique);
            prop_assert_eq!(back, Reply::Err(e));
        }
    }
}
