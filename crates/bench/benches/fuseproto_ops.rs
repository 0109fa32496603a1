//! Op-dispatch overhead of the FUSE-style protocol (ISSUE 5).
//!
//! The acceptance bar: a hot `read` through a `Session` (file-handle lookup
//! → backend read → zero-copy `FileBytes` window) must cost **≤ 2×** a
//! direct `Filesystem::read_file` of the same path (whose resolve-cache hit
//! is already ~100 ns, PERF.md §6). `fuseproto/op_dispatch_read` is gated
//! in `BENCH_baseline.json`; the direct figure and the full
//! lookup→open→read→release cycle are recorded for PERF.md §7.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcc_fuseproto::{Dispatch, FsCreds, MemFs, OpenFlags, Operation, Reply, Request, Session};
use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
use hpcc_vfs::{Actor, Filesystem, Mode};

const PATH: &str = "/usr/lib/sysimage/rpm/db/Packages/index/data";

fn bench_fs() -> Filesystem {
    let mut fs = Filesystem::new_local();
    fs.install_file(PATH, vec![7u8; 4096], Uid(0), Gid(0), Mode::FILE_644)
        .unwrap();
    fs
}

fn bench_op_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuseproto");

    // Reference: the direct path-string read (resolve-cache hot).
    let fs = bench_fs();
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);
    group.bench_function("direct_read_file", |b| {
        b.iter(|| fs.read_file(&actor, black_box(PATH)).unwrap().len())
    });

    // Hot protocol read: handle already open, one typed op per iteration.
    let mut session = Session::new(MemFs::new(bench_fs(), UserNamespace::initial()));
    let cred = FsCreds::root();
    let entry = session.resolve_path(&cred, PATH, true).unwrap();
    let fh = session
        .open(&cred, entry.ino, OpenFlags::RDONLY)
        .unwrap()
        .fh;
    group.bench_function("op_dispatch_read", |b| {
        b.iter(|| session.read(&cred, black_box(fh), 0, 4096).unwrap().len())
    });

    // The same read arriving as a queued request (enum encode/decode
    // included) — the shape a network backend or FUSE channel delivers.
    group.bench_function("op_dispatch_read_queued", |b| {
        b.iter(|| {
            match session.handle(Request::new(
                cred.clone(),
                Operation::Read {
                    fh,
                    offset: 0,
                    size: 4096,
                },
            )) {
                Reply::Data(d) => d.len(),
                other => panic!("{:?}", other),
            }
        })
    });

    // Cold full cycle: path walk via lookup ops, open, read, release.
    group.bench_function("lookup_open_read_release", |b| {
        b.iter(|| {
            let entry = session.resolve_path(&cred, PATH, true).unwrap();
            let opened = session.open(&cred, entry.ino, OpenFlags::RDONLY).unwrap();
            let len = session.read(&cred, opened.fh, 0, 4096).unwrap().len();
            session.release(&cred, opened.fh).unwrap();
            len
        })
    });

    group.finish();
}

criterion_group!(benches, bench_op_dispatch);
criterion_main!(benches);
