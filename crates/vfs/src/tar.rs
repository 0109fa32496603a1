//! A ustar-format tar archiver for image trees.
//!
//! The paper notes that images are often stored in tar archives and that,
//! with privileged ID maps, correct IDs require the archive to be created
//! within the container or from an ID source other than the filesystem
//! (§2.1.2). Charliecloud's push path changes ownership to `root:root` and
//! clears setuid/setgid bits (§6.1); §6.2.2 suggests exporting ownership from
//! the fakeroot database instead. All three policies are implemented here.

use std::collections::BTreeMap;

use hpcc_kernel::{Errno, Gid, KResult, Uid};

use crate::actor::Actor;
use crate::fs::Filesystem;
use crate::inode::InodeData;
use crate::mode::{FileType, Mode};

const BLOCK: usize = 512;

/// How ownership is recorded when packing an archive.
#[derive(Debug, Clone, Default)]
pub enum OwnershipPolicy {
    /// Record the filesystem's host-side IDs verbatim (what a naive
    /// outside-the-container `tar(1)` does; paper §2.1.2 warns these are the
    /// "mostly-arbitrary host side of the map").
    #[default]
    Filesystem,
    /// Record the IDs as seen through a user namespace map (archive created
    /// "within the container").
    NamespaceView,
    /// Flatten everything to `root:root` and clear setuid/setgid — the
    /// Charliecloud push behaviour (paper §6.1).
    FlattenRoot,
    /// Use an external ownership database (path -> (uid, gid)), e.g. the
    /// fakeroot lie database (paper §6.2.2 item 2). Paths not present fall
    /// back to `root:root`.
    External(BTreeMap<String, (u32, u32)>),
}

/// Options controlling archive creation.
#[derive(Debug, Clone, Default)]
pub struct PackOptions {
    /// Ownership policy.
    pub ownership: OwnershipPolicy,
    /// Skip device nodes (Type III images cannot contain them anyway).
    pub skip_devices: bool,
    /// Clear setuid/setgid bits regardless of policy.
    pub clear_setid: bool,
}

/// A single entry parsed from (or destined for) a tar archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TarEntry {
    /// Path, relative, without a leading slash.
    pub path: String,
    /// Entry type.
    pub file_type: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Recorded owner UID.
    pub uid: u32,
    /// Recorded owner GID.
    pub gid: u32,
    /// File contents (empty for non-regular entries).
    pub content: Vec<u8>,
    /// Symlink target.
    pub link_target: String,
    /// Device numbers.
    pub dev: Option<(u32, u32)>,
}

/// Writes `value` as zero-padded octal digits with a trailing NUL — the old
/// `format!("{:0width$o}")` allocated a `String` per field, eight fields per
/// entry, on the layer-packing hot path.
fn octal_field(buf: &mut [u8], value: u64) {
    let n = buf.len() - 1;
    buf[n] = 0;
    let mut v = value;
    for slot in buf[..n].iter_mut().rev() {
        *slot = b'0' + (v & 7) as u8;
        v >>= 3;
    }
}

/// Parses an octal header field in place (no intermediate `String`).
fn parse_octal(field: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut seen_digit = false;
    for &b in field {
        match b {
            0 => break,
            b' ' if !seen_digit => {}
            b'0'..=b'7' => {
                seen_digit = true;
                out = (out << 3) | (b - b'0') as u64;
            }
            _ => break,
        }
    }
    out
}

fn type_flag(ft: FileType) -> u8 {
    match ft {
        FileType::Regular => b'0',
        FileType::Symlink => b'2',
        FileType::CharDevice => b'3',
        FileType::BlockDevice => b'4',
        FileType::Directory => b'5',
        FileType::Fifo => b'6',
        FileType::Socket => b'0',
    }
}

fn flag_type(flag: u8) -> FileType {
    match flag {
        b'2' => FileType::Symlink,
        b'3' => FileType::CharDevice,
        b'4' => FileType::BlockDevice,
        b'5' => FileType::Directory,
        b'6' => FileType::Fifo,
        _ => FileType::Regular,
    }
}

/// Header-only view of one entry being serialized; content is streamed
/// separately so packing never copies file bytes.
struct HeaderFields<'a> {
    path: &'a str,
    file_type: FileType,
    mode: Mode,
    uid: u32,
    gid: u32,
    size: u64,
    link_target: &'a str,
    dev: Option<(u32, u32)>,
}

fn io_err(_: std::io::Error) -> Errno {
    Errno::EIO
}

fn write_header<W: std::io::Write>(f: &HeaderFields<'_>, out: &mut W) -> KResult<()> {
    let mut hdr = [0u8; BLOCK];
    // Name written in place — no `String` is built per entry.
    let is_dir = f.file_type == FileType::Directory;
    let name_len = f.path.len() + usize::from(is_dir);
    if name_len > 100 {
        return Err(Errno::ENAMETOOLONG);
    }
    hdr[..f.path.len()].copy_from_slice(f.path.as_bytes());
    if is_dir {
        hdr[f.path.len()] = b'/';
    }
    octal_field(&mut hdr[100..108], f.mode.bits() as u64);
    octal_field(&mut hdr[108..116], f.uid as u64);
    octal_field(&mut hdr[116..124], f.gid as u64);
    let size = if f.file_type == FileType::Regular {
        f.size
    } else {
        0
    };
    octal_field(&mut hdr[124..136], size);
    octal_field(&mut hdr[136..148], 0); // mtime
    hdr[156] = type_flag(f.file_type);
    if f.file_type == FileType::Symlink {
        let t = f.link_target.as_bytes();
        if t.len() > 100 {
            return Err(Errno::ENAMETOOLONG);
        }
        hdr[157..157 + t.len()].copy_from_slice(t);
    }
    hdr[257..262].copy_from_slice(b"ustar");
    hdr[263..265].copy_from_slice(b"00");
    if let Some((maj, min)) = f.dev {
        octal_field(&mut hdr[329..337], maj as u64);
        octal_field(&mut hdr[337..345], min as u64);
    }
    // Checksum: spaces during computation.
    for b in &mut hdr[148..156] {
        *b = b' ';
    }
    let sum: u64 = hdr.iter().map(|&b| b as u64).sum();
    // Rendered as six octal digits, NUL, space (max possible sum fits).
    let mut v = sum;
    for slot in hdr[148..154].iter_mut().rev() {
        *slot = b'0' + (v & 7) as u8;
        v >>= 3;
    }
    hdr[154] = 0;
    hdr[155] = b' ';
    out.write_all(&hdr).map_err(io_err)
}

/// Packs the subtree rooted at `root_path` into `out` as a ustar stream.
///
/// Bytes are produced incrementally — header, content, padding per entry —
/// so a digesting writer (e.g. `hpcc_image::Sha256Writer` behind a tee)
/// hashes the layer while it is serialized, and file contents are written
/// straight from the filesystem's copy-on-write buffers without cloning.
pub fn pack_into<W: std::io::Write>(
    fs: &Filesystem,
    actor: &Actor,
    root_path: &str,
    options: &PackOptions,
    out: &mut W,
) -> KResult<()> {
    const ZEROES: [u8; BLOCK] = [0u8; BLOCK];
    let prefix = {
        let comps = crate::path::PathComponents::parse(root_path);
        format!("/{}", comps.as_slice().join("/"))
    };
    for (path, ino) in fs.walk() {
        if !(path.starts_with(&prefix) || prefix == "/") {
            continue;
        }
        let inode = fs.inode(ino)?;
        let rel = path
            .strip_prefix(&prefix)
            .unwrap_or(&path)
            .trim_start_matches('/');
        if rel.is_empty() {
            continue;
        }
        let ft = inode.file_type();
        if ft.is_device() && options.skip_devices {
            continue;
        }
        let (uid, gid) = match &options.ownership {
            OwnershipPolicy::Filesystem => (inode.uid.0, inode.gid.0),
            OwnershipPolicy::NamespaceView => (
                actor.userns.display_uid(inode.uid).0,
                actor.userns.display_gid(inode.gid).0,
            ),
            OwnershipPolicy::FlattenRoot => (0, 0),
            OwnershipPolicy::External(db) => db.get(rel).copied().unwrap_or((0, 0)),
        };
        let mut mode = inode.mode;
        if options.clear_setid || matches!(options.ownership, OwnershipPolicy::FlattenRoot) {
            mode = mode.without_setid();
        }
        let content: &[u8] = match &inode.data {
            InodeData::Regular { content } => content.as_slice(),
            _ => &[],
        };
        let fields = HeaderFields {
            path: rel,
            file_type: ft,
            mode,
            uid,
            gid,
            size: content.len() as u64,
            link_target: match &inode.data {
                InodeData::Symlink { target } => target.as_str(),
                _ => "",
            },
            dev: inode.rdev(),
        };
        write_header(&fields, out)?;
        if ft == FileType::Regular && !content.is_empty() {
            out.write_all(content).map_err(io_err)?;
            let pad = (BLOCK - content.len() % BLOCK) % BLOCK;
            out.write_all(&ZEROES[..pad]).map_err(io_err)?;
        }
    }
    // Two zero blocks terminate the archive.
    out.write_all(&ZEROES).map_err(io_err)?;
    out.write_all(&ZEROES).map_err(io_err)?;
    Ok(())
}

/// Packs the subtree rooted at `root_path` into a ustar archive in memory.
#[cfg(test)]
pub fn pack(
    fs: &Filesystem,
    actor: &Actor,
    root_path: &str,
    options: &PackOptions,
) -> KResult<Vec<u8>> {
    let mut out = Vec::new();
    pack_into(fs, actor, root_path, options, &mut out)?;
    Ok(out)
}

/// One entry *borrowed* from an archive buffer: header fields plus a content
/// slice. Nothing is copied — [`entries`] parses a whole archive without
/// materializing any entry body, which is what lets [`unpack`] move bytes
/// from the wire straight into [`crate::bytes::FileBytes`] handles with a
/// single copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TarEntryRef<'a> {
    /// Path, relative, without a leading slash or trailing `/`.
    pub path: &'a str,
    /// Entry type.
    pub file_type: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Recorded owner UID.
    pub uid: u32,
    /// Recorded owner GID.
    pub gid: u32,
    /// File contents, borrowed from the archive (empty for non-regular
    /// entries).
    pub content: &'a [u8],
    /// Symlink target.
    pub link_target: &'a str,
    /// Device numbers.
    pub dev: Option<(u32, u32)>,
}

impl TarEntryRef<'_> {
    /// Copies the borrowed entry into an owned [`TarEntry`].
    pub fn to_owned_entry(&self) -> TarEntry {
        TarEntry {
            path: self.path.to_string(),
            file_type: self.file_type,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            content: self.content.to_vec(),
            link_target: self.link_target.to_string(),
            dev: self.dev,
        }
    }
}

/// Streaming archive parser: yields borrowed entries in order.
#[derive(Debug, Clone)]
pub struct TarIter<'a> {
    archive: &'a [u8],
    off: usize,
    done: bool,
}

fn header_str(field: &[u8]) -> KResult<&str> {
    let end = field.iter().position(|&b| b == 0).unwrap_or(field.len());
    std::str::from_utf8(&field[..end]).map_err(|_| Errno::EINVAL)
}

impl<'a> Iterator for TarIter<'a> {
    type Item = KResult<TarEntryRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.off + BLOCK > self.archive.len() {
            return None;
        }
        let hdr = &self.archive[self.off..self.off + BLOCK];
        if hdr.iter().all(|&b| b == 0) {
            self.done = true;
            return None;
        }
        let name = match header_str(&hdr[..100]) {
            Ok(n) => n,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        let link_target = match header_str(&hdr[157..257]) {
            Ok(t) => t,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        let mode = Mode::new(parse_octal(&hdr[100..108]) as u16);
        let uid = parse_octal(&hdr[108..116]) as u32;
        let gid = parse_octal(&hdr[116..124]) as u32;
        let size = parse_octal(&hdr[124..136]) as usize;
        let ft = flag_type(hdr[156]);
        let maj = parse_octal(&hdr[329..337]) as u32;
        let min = parse_octal(&hdr[337..345]) as u32;
        self.off += BLOCK;
        let content: &[u8] = if ft == FileType::Regular && size > 0 {
            if self.off + size > self.archive.len() {
                self.done = true;
                return Some(Err(Errno::EINVAL));
            }
            &self.archive[self.off..self.off + size]
        } else {
            &[]
        };
        if ft == FileType::Regular {
            self.off += size + (BLOCK - size % BLOCK) % BLOCK;
        }
        Some(Ok(TarEntryRef {
            path: name.trim_end_matches('/'),
            file_type: ft,
            mode,
            uid,
            gid,
            content,
            link_target,
            dev: if ft.is_device() {
                Some((maj, min))
            } else {
                None
            },
        }))
    }
}

/// Parses an archive lazily into borrowed entries (no content copies).
pub fn entries(archive: &[u8]) -> TarIter<'_> {
    TarIter {
        archive,
        off: 0,
        done: false,
    }
}

/// Parses a ustar archive into owned entries. Prefer [`entries`] on hot
/// paths — this form copies every entry body.
pub fn list(archive: &[u8]) -> KResult<Vec<TarEntry>> {
    entries(archive)
        .map(|e| e.map(|r| r.to_owned_entry()))
        .collect()
}

/// Options controlling unpack behaviour.
#[derive(Debug, Clone, Default)]
pub struct UnpackOptions {
    /// Change all ownership to this `uid:gid` regardless of what the archive
    /// records (what a Type III puller does: "change ownership to themselves
    /// anyway, like tar(1)", paper §5.2).
    pub force_owner: Option<(Uid, Gid)>,
    /// Skip device nodes instead of failing.
    pub skip_devices: bool,
}

/// Unpacks an archive into `fs` under `dest`, installing entries without DAC
/// permission checks (the caller owns the destination tree).
pub fn unpack(
    fs: &mut Filesystem,
    archive: &[u8],
    dest: &str,
    options: &UnpackOptions,
) -> KResult<usize> {
    let mut installed = 0;
    let mut path = String::with_capacity(dest.len() + 64);
    for entry in entries(archive) {
        let e = entry?;
        let (uid, gid) = match options.force_owner {
            Some((u, g)) => (u, g),
            None => (Uid(e.uid), Gid(e.gid)),
        };
        // One reused scratch string instead of a fresh allocation per entry.
        path.clear();
        path.push_str(dest);
        path.push('/');
        path.push_str(e.path);
        match e.file_type {
            FileType::Directory => {
                fs.install_dir(&path, uid, gid, e.mode)?;
            }
            FileType::Regular => {
                // The single unavoidable copy: archive bytes into the
                // filesystem's own `FileBytes` buffer.
                fs.install_file(&path, e.content, uid, gid, e.mode)?;
            }
            FileType::Symlink => {
                fs.install_symlink(&path, e.link_target, uid, gid)?;
            }
            FileType::CharDevice | FileType::BlockDevice => {
                if options.skip_devices {
                    continue;
                }
                let (maj, min) = e.dev.unwrap_or((0, 0));
                fs.install_char_device(&path, maj, min, uid, gid, e.mode)?;
            }
            FileType::Fifo | FileType::Socket => {
                fs.install_file(&path, Vec::new(), uid, gid, e.mode)?;
            }
        }
        installed += 1;
    }
    Ok(installed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Credentials, UserNamespace};

    fn sample_fs() -> Filesystem {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/image/bin/sh",
            b"#!elf".to_vec(),
            Uid(0),
            Gid(0),
            Mode::EXEC_755,
        )
        .unwrap();
        fs.install_file(
            "/image/usr/bin/passwd",
            b"elf".to_vec(),
            Uid(0),
            Gid(0),
            Mode::new(0o4755),
        )
        .unwrap();
        fs.install_file(
            "/image/var/empty/sshd/.keep",
            b"".to_vec(),
            Uid(74),
            Gid(74),
            Mode::FILE_644,
        )
        .unwrap();
        fs.install_symlink("/image/bin/bash", "sh", Uid(0), Gid(0))
            .unwrap();
        fs
    }

    fn root_actor_parts() -> (Credentials, UserNamespace) {
        (Credentials::host_root(), UserNamespace::initial())
    }

    #[test]
    fn pack_list_roundtrip_preserves_metadata() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        assert_eq!(archive.len() % BLOCK, 0);
        let entries = list(&archive).unwrap();
        let passwd = entries.iter().find(|e| e.path == "usr/bin/passwd").unwrap();
        assert!(passwd.mode.is_setuid());
        assert_eq!(passwd.content, b"elf");
        let sshd = entries
            .iter()
            .find(|e| e.path == "var/empty/sshd/.keep")
            .unwrap();
        assert_eq!((sshd.uid, sshd.gid), (74, 74));
        let link = entries.iter().find(|e| e.path == "bin/bash").unwrap();
        assert_eq!(link.file_type, FileType::Symlink);
        assert_eq!(link.link_target, "sh");
    }

    #[test]
    fn flatten_policy_strips_ids_and_setid() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(
            &fs,
            &actor,
            "/image",
            &PackOptions {
                ownership: OwnershipPolicy::FlattenRoot,
                ..Default::default()
            },
        )
        .unwrap();
        for e in list(&archive).unwrap() {
            assert_eq!((e.uid, e.gid), (0, 0));
            assert!(!e.mode.is_setuid(), "{} still setuid", e.path);
        }
    }

    #[test]
    fn namespace_view_policy_uses_container_ids() {
        // Files owned by subordinate host UID 200073 should be recorded as
        // container UID 74 when packing "from inside" a Type II namespace.
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/image/f",
            b"x".to_vec(),
            Uid(200_073),
            Gid(200_073),
            Mode::FILE_644,
        )
        .unwrap();
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let ns = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        let actor = Actor::new(&creds, &ns);
        let archive = pack(
            &fs,
            &actor,
            "/image",
            &PackOptions {
                ownership: OwnershipPolicy::NamespaceView,
                ..Default::default()
            },
        )
        .unwrap();
        let entries = list(&archive).unwrap();
        assert_eq!((entries[0].uid, entries[0].gid), (74, 74));
    }

    #[test]
    fn external_policy_reads_database() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let mut db = BTreeMap::new();
        db.insert("bin/sh".to_string(), (0u32, 0u32));
        db.insert("var/empty/sshd/.keep".to_string(), (74u32, 74u32));
        let archive = pack(
            &fs,
            &actor,
            "/image",
            &PackOptions {
                ownership: OwnershipPolicy::External(db),
                ..Default::default()
            },
        )
        .unwrap();
        let entries = list(&archive).unwrap();
        let sshd = entries
            .iter()
            .find(|e| e.path == "var/empty/sshd/.keep")
            .unwrap();
        assert_eq!((sshd.uid, sshd.gid), (74, 74));
    }

    #[test]
    fn unpack_with_forced_owner_changes_everything() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        let mut dst = Filesystem::new_local();
        let count = unpack(
            &mut dst,
            &archive,
            "/home/alice/img",
            &UnpackOptions {
                force_owner: Some((Uid(1000), Gid(1000))),
                skip_devices: true,
            },
        )
        .unwrap();
        assert!(count >= 4);
        for (path, ino) in dst.walk() {
            if path.starts_with("/home/alice/img/") {
                assert_eq!(dst.inode(ino).unwrap().uid, Uid(1000), "{}", path);
            }
        }
        assert_eq!(
            dst.read_file(&actor, "/home/alice/img/bin/sh").unwrap(),
            b"#!elf"
        );
    }

    #[test]
    fn unpack_preserves_recorded_owners_by_default() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        let mut dst = Filesystem::new_local();
        unpack(&mut dst, &archive, "/img", &UnpackOptions::default()).unwrap();
        let st = dst.stat(&actor, "/img/var/empty/sshd/.keep").unwrap();
        assert_eq!(st.uid_host, Uid(74));
    }

    #[test]
    fn archive_is_block_aligned_and_terminated() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        assert_eq!(archive.len() % BLOCK, 0);
        assert!(archive[archive.len() - BLOCK..].iter().all(|&b| b == 0));
        // ustar magic present in first header.
        assert_eq!(&archive[257..262], b"ustar");
    }

    #[test]
    fn empty_tree_produces_only_terminator() {
        let fs = Filesystem::new_local();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/", &PackOptions::default()).unwrap();
        assert_eq!(archive.len(), BLOCK * 2);
        assert!(list(&archive).unwrap().is_empty());
    }
}
