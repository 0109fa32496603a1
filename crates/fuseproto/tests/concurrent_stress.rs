//! Concurrency-correctness stress suite for [`SharedImage`] serving, and
//! for one writable session shared by several threads.
//!
//! The load-bearing property: N threads hammering one shared image with
//! randomized read-only op sequences observe **bit-identical** results to a
//! serial replay of the same sequences — concurrency must be unobservable.
//! Each client folds every op result (inode numbers, errno codes, bytes,
//! directory listings) into a running digest; the digests are compared
//! across runs, and every client must end with zero leaked handles.
//!
//! Run in release for real contention: the CI `cargo test --release` leg
//! executes this file with optimizations.

use hpcc_fuseproto::{Errno, FrozenImage, FsCreds, MemFs, OpenFlags, Session, SharedImage};
use hpcc_kernel::{Gid, Uid, UserNamespace};
use hpcc_vfs::{Filesystem, Mode};

const THREADS: usize = 8;
const OPS_PER_CLIENT: usize = 4000;

/// A small deterministic PRNG (xorshift64*) — no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[(self.next() % pool.len() as u64) as usize]
    }
}

/// An image with enough shape to exercise every read path: nested dirs,
/// files of varying size, symlinks (absolute and relative), a
/// permission-restricted subtree, and xattrs.
fn build_image() -> SharedImage {
    let mut fs = Filesystem::new_local();
    for d in 0..8 {
        for f in 0..8 {
            let path = format!("/data/dir{d}/file{f}");
            let content = vec![(d * 16 + f) as u8; 64 + d * 256 + f * 17];
            fs.install_file(&path, content, Uid(0), Gid(0), Mode::FILE_644)
                .unwrap();
        }
    }
    fs.install_file(
        "/etc/hostname",
        b"astra".to_vec(),
        Uid(0),
        Gid(0),
        Mode::FILE_644,
    )
    .unwrap();
    fs.install_file(
        "/secret/key",
        b"k".to_vec(),
        Uid(0),
        Gid(0),
        Mode::new(0o600),
    )
    .unwrap();
    // Tighten /secret itself so unprivileged walks fail at the parent.
    fs.install_dir("/secret", Uid(0), Gid(0), Mode::new(0o700))
        .unwrap();
    fs.install_symlink("/data/latest", "/data/dir7", Uid(0), Gid(0))
        .unwrap();
    fs.install_symlink("/etc/alias", "hostname", Uid(0), Gid(0))
        .unwrap();
    SharedImage::new(fs, UserNamespace::initial())
}

const PATHS: &[&str] = &[
    "/",
    "/data",
    "/data/dir0",
    "/data/dir0/file0",
    "/data/dir3/file5",
    "/data/dir7/file7",
    "/data/latest",
    "/data/latest/file2",
    "/etc",
    "/etc/hostname",
    "/etc/alias",
    "/secret",
    "/secret/key",
    "/missing",
    "/data/dir1/missing",
];

fn mix(digest: &mut u64, value: u64) {
    *digest = digest
        .rotate_left(5)
        .wrapping_mul(0x100000001B3)
        .wrapping_add(value ^ 0x9E3779B97F4A7C15);
}

fn mix_err(digest: &mut u64, e: Errno) {
    mix(digest, 0xE000 + e.code() as u64);
}

fn mix_bytes(digest: &mut u64, bytes: &[u8]) {
    mix(digest, bytes.len() as u64);
    let sum: u64 = bytes.iter().map(|&b| b as u64).sum();
    mix(digest, sum);
}

/// Runs one client's deterministic op sequence against `reader`, returning
/// the result digest. Opens are tracked and always released before
/// returning, so a correct implementation ends with zero handles.
fn run_client(reader: &Session<FrozenImage>, seed: u64) -> u64 {
    let cred = reader.backend().cred();
    let mut rng = Rng::new(seed);
    let mut digest = 0u64;
    let mut open_files: Vec<u64> = Vec::new();
    let mut open_dirs: Vec<u64> = Vec::new();
    for _ in 0..OPS_PER_CLIENT {
        match rng.next() % 10 {
            // Path resolution (stat and lstat flavors).
            0 | 1 => {
                let path = rng.pick(PATHS);
                let follow = rng.next().is_multiple_of(2);
                match reader.resolve_path(cred, path, follow) {
                    Ok(e) => {
                        mix(&mut digest, e.ino);
                        mix(&mut digest, e.attr.size);
                        mix(&mut digest, e.attr.mode.bits() as u64);
                    }
                    Err(e) => mix_err(&mut digest, e),
                }
            }
            // Full lookup → open → read → release cycle.
            2..=4 => {
                let path = rng.pick(PATHS);
                match reader.resolve_path(cred, path, true) {
                    Ok(entry) => match reader.open(cred, entry.ino, OpenFlags::RDONLY) {
                        Ok(o) => {
                            let offset = rng.next() % 128;
                            let size = (rng.next() % 4096) as u32;
                            match reader.read(cred, o.fh, offset, size) {
                                Ok(data) => mix_bytes(&mut digest, data.as_slice()),
                                Err(e) => mix_err(&mut digest, e),
                            }
                            open_files.push(o.fh);
                        }
                        Err(e) => mix_err(&mut digest, e),
                    },
                    Err(e) => mix_err(&mut digest, e),
                }
            }
            // Directory listing through a cursor.
            5 => {
                let path = rng.pick(PATHS);
                match reader.resolve_path(cred, path, true) {
                    Ok(entry) => match reader.opendir(cred, entry.ino) {
                        Ok(o) => {
                            match reader.readdir(cred, o.fh, 0, usize::MAX) {
                                Ok(entries) => {
                                    mix(&mut digest, entries.len() as u64);
                                    for e in entries {
                                        mix_bytes(&mut digest, e.name.as_bytes());
                                        mix(&mut digest, e.ino);
                                    }
                                }
                                Err(e) => mix_err(&mut digest, e),
                            }
                            open_dirs.push(o.fh);
                        }
                        Err(e) => mix_err(&mut digest, e),
                    },
                    Err(e) => mix_err(&mut digest, e),
                }
            }
            // Attributes and links.
            6 => {
                let path = rng.pick(PATHS);
                match reader.resolve_path(cred, path, false) {
                    Ok(entry) => {
                        match reader.getattr(cred, entry.ino) {
                            Ok(a) => mix(&mut digest, a.ino ^ a.size),
                            Err(e) => mix_err(&mut digest, e),
                        }
                        match reader.readlink(cred, entry.ino) {
                            Ok(t) => mix_bytes(&mut digest, t.as_bytes()),
                            Err(e) => mix_err(&mut digest, e),
                        }
                    }
                    Err(e) => mix_err(&mut digest, e),
                }
            }
            // Sequential reads interleave with positioned reads.
            7 => {
                if let Some(&fh) = open_files.last() {
                    match reader.read_next(cred, fh, 64) {
                        Ok(data) => mix_bytes(&mut digest, data.as_slice()),
                        Err(e) => mix_err(&mut digest, e),
                    }
                }
            }
            // Early release of a random open handle.
            8 => {
                if !open_files.is_empty() {
                    let idx = (rng.next() % open_files.len() as u64) as usize;
                    let fh = open_files.swap_remove(idx);
                    mix(&mut digest, reader.release(cred, fh).is_ok() as u64);
                }
            }
            // Mutation attempts must uniformly fail EROFS.
            _ => {
                let root = reader.root_ino();
                mix_err(
                    &mut digest,
                    reader.mkdir(cred, root, "x", Mode::DIR_755).unwrap_err(),
                );
                mix_err(&mut digest, reader.unlink(cred, root, "etc").unwrap_err());
                mix_err(
                    &mut digest,
                    reader
                        .create(cred, root, "y", Mode::FILE_644, OpenFlags::WRONLY)
                        .unwrap_err(),
                );
            }
        }
    }
    for fh in open_files {
        reader.release(cred, fh).unwrap();
    }
    for fh in open_dirs {
        reader.releasedir(cred, fh).unwrap();
    }
    digest
}

fn client_creds(i: usize) -> FsCreds {
    if i.is_multiple_of(2) {
        FsCreds::root()
    } else {
        // Unprivileged: exercises the denied /secret subtree.
        FsCreds::new(Uid(1000 + i as u32), Gid(1000), vec![Gid(1000)])
    }
}

/// N concurrent clients vs. the same sequences replayed serially: digests
/// must be bit-identical, and no client may leak a handle.
#[test]
fn concurrent_run_is_bit_identical_to_serial_replay() {
    let image = build_image();

    // Serial ground truth: same seeds, same credentials, one at a time.
    let serial: Vec<u64> = (0..THREADS)
        .map(|i| {
            let reader = image.reader(client_creds(i));
            let digest = run_client(&reader, 0xC0FFEE + i as u64);
            assert_eq!(reader.open_handles(), 0, "serial client {i} leaked");
            digest
        })
        .collect();

    // Concurrent run.
    let concurrent: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let reader = image.reader(client_creds(i));
                s.spawn(move || {
                    let digest = run_client(&reader, 0xC0FFEE + i as u64);
                    let leaked = reader.open_handles();
                    (digest, leaked)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                let (digest, leaked) = h.join().unwrap();
                assert_eq!(leaked, 0, "concurrent client {i} leaked handles");
                digest
            })
            .collect()
    });

    assert_eq!(
        serial, concurrent,
        "concurrent execution diverged from serial replay"
    );
}

/// One reader session driven from many threads at once (`&self` ops): the
/// sharded handle table must keep every thread's handles isolated.
#[test]
fn one_session_shared_across_threads_keeps_handles_isolated() {
    let image = build_image();
    let cred = FsCreds::root();
    let reader = image.reader(cred.clone());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reader = &reader;
            let cred = &cred;
            s.spawn(move || {
                let mut rng = Rng::new(0xDEAD + t as u64);
                for _ in 0..1000 {
                    let d = rng.next() % 8;
                    let f = rng.next() % 8;
                    let path = format!("/data/dir{d}/file{f}");
                    let entry = reader.resolve_path(cred, &path, true).unwrap();
                    let o = reader.open(cred, entry.ino, OpenFlags::RDONLY).unwrap();
                    let data = reader.read(cred, o.fh, 0, u32::MAX).unwrap();
                    // Contents must be exactly this file's — a crossed
                    // handle would return another thread's bytes.
                    let expected_len = 64 + (d as usize) * 256 + (f as usize) * 17;
                    assert_eq!(data.len(), expected_len, "{path}");
                    assert!(data.as_slice().iter().all(|&b| b == (d * 16 + f) as u8));
                    reader.release(cred, o.fh).unwrap();
                }
            });
        }
    });
    assert_eq!(reader.open_handles(), 0);
}

/// One writable session driven from many threads at once: every op takes
/// the filesystem's mutex while holding at most its handle's shard, so
/// interleaved creates, writes, reads and unlinks neither deadlock nor
/// cross handles, and each thread reads back exactly what it wrote.
#[test]
fn one_writer_session_shared_across_threads_keeps_files_isolated() {
    let mut fs = Filesystem::new_local();
    fs.install_dir("/work", Uid(0), Gid(0), Mode::DIR_755)
        .unwrap();
    let session = Session::new(MemFs::new(fs, UserNamespace::initial()));
    let cred = FsCreds::root();
    let work = session.resolve_path(&cred, "/work", true).unwrap().ino;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (session, cred) = (&session, &cred);
            s.spawn(move || {
                let mut rng = Rng::new(0xBEEF + t as u64);
                for i in 0..250 {
                    let name = format!("t{t}");
                    let fill = (t * 31 + i) as u8;
                    let data = vec![fill; 1 + (rng.next() % 2048) as usize];
                    let (entry, o) = session
                        .create(cred, work, &name, Mode::FILE_644, OpenFlags::RDWR)
                        .unwrap();
                    assert_eq!(
                        session.write(cred, o.fh, 0, &data).unwrap().size as usize,
                        data.len()
                    );
                    let back = session.read(cred, o.fh, 0, u32::MAX).unwrap();
                    assert_eq!(back.as_slice(), &data[..], "{name} round {i}");
                    assert_eq!(
                        session.getattr(cred, entry.ino).unwrap().size,
                        data.len() as u64
                    );
                    session.release(cred, o.fh).unwrap();
                    session.unlink(cred, work, &name).unwrap();
                }
            });
        }
    });
    assert_eq!(session.open_handles(), 0);
    let dh = session.opendir(&cred, work).unwrap();
    assert!(session
        .readdir(&cred, dh.fh, 0, usize::MAX)
        .unwrap()
        .is_empty());
    session.releasedir(&cred, dh.fh).unwrap();
}
