//! Pins the heap allocations one served request costs, per opcode, on
//! both session flavors: the read-write `Container::mount()` and the
//! shared read-only `Container::mount_readonly()`.
//!
//! A reader derives its kernel credentials once, when it is opened; a
//! writer derives them per request, and only for requests that reach the
//! filesystem. Handle-only requests (`Readdir`, `Release`) never derive
//! them; `Readdir` allocates only the page it copies out of its cursor. A
//! reader that re-derived credentials per request, or a writer that
//! derived them on a handle-only request, would exceed these ceilings.
//!
//! The counting allocator counts only the measuring thread's allocations,
//! as in `tests/cache_hit_allocations.rs`, and only inside each
//! `Dispatch::handle` call: building the request and dropping the reply
//! are not counted.
//!
//! A second case pins what a read costs over the wire: a lockstep
//! `Client`/`Server` round trip over a `ChannelTransport`, the client's
//! `send_request` + `recv_reply` counted apart from the server's
//! `serve_one`. It also checks which reads the client takes in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpcc_repro::fuseproto::{
    ChannelTransport, Client, Dispatch, FsCreds, OpenFlags, Operation, ReadReply, Reply, Request,
    Server, ServerEvent, FUSE_ROOT_ID,
};
use hpcc_repro::image::{Image, ImageConfig};
use hpcc_repro::kernel::{Credentials, Gid, Uid, UserNamespace};
use hpcc_repro::runtime::{Container, Invoker};
use hpcc_repro::vfs::{Actor, Filesystem, Mode};

/// Counts every allocation (and reallocation) made through the global
/// allocator by a thread that set [`COUNTING`].
struct CountingAlloc;

thread_local! {
    /// Set by the measuring thread. Const-initialized and without a
    /// destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// The measuring thread's own count, so the tests of this file, which
    /// run on parallel threads, never count each other's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Entries of the listed directory `/etc`.
const ETC_ENTRIES: usize = 3;

/// Per-request allocation ceilings: each flavor's measured counts, pinned
/// as maxima. `Readdir` copies the page: one vector plus one name per
/// entry.
struct Ceilings {
    lookup: u64,
    getattr: u64,
    open: u64,
    read: u64,
    readdir: u64,
    release: u64,
}

/// The writer derives credentials on every request that reaches the
/// filesystem, and on no other: for a namespace-root requester that is two
/// allocations (the group list, then the copy that gains the namespace's
/// capabilities).
const WRITER: Ceilings = Ceilings {
    lookup: 2,
    getattr: 2,
    open: 2,
    read: 2,
    readdir: 1 + ETC_ENTRIES as u64,
    release: 0,
};

/// The reader derived its credentials when it was opened.
const READER: Ceilings = Ceilings {
    lookup: 0,
    getattr: 0,
    open: 0,
    read: 0,
    readdir: 1 + ETC_ENTRIES as u64,
    release: 0,
};

fn container() -> Container {
    let mut fs = Filesystem::new_local();
    for (path, content) in [
        ("/etc/hostname", &b"astra"[..]),
        ("/etc/motd", b"welcome"),
        ("/etc/issue", b"CentOS Linux 7"),
        ("/opt/app/data", &[7u8; 8192]),
        ("/opt/app/wide", &[9u8; WIDE_READ as usize]),
    ] {
        fs.install_file(path, content.to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
    }
    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let image = Image::from_fs_preserved(
        "alloc:latest",
        &fs,
        &Actor::new(&creds, &ns),
        ImageConfig {
            architecture: "x86_64".to_string(),
            ..Default::default()
        },
    )
    .unwrap();
    Container::launch_type3(&image, &Invoker::user("alice", 1000, 1000)).unwrap()
}

/// Allocations `f` makes, and its result (dropped outside the count).
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let allocations = ALLOCS.with(Cell::get) - before;
    COUNTING.with(|c| c.set(false));
    (allocations, out)
}

/// Allocations made by one `Dispatch::handle` call, and its reply.
fn handle_counted<D: Dispatch>(d: &mut D, req: Request) -> (u64, Reply) {
    counted(|| d.handle(req))
}

/// The most allocations any single call of each opcode made, over `rounds`
/// lookup → getattr → open → read → opendir → readdir → releasedir →
/// release rounds. Opendir and releasedir are not measured.
fn worst_per_op<D: Dispatch>(d: &mut D, cred: &FsCreds, rounds: usize) -> Ceilings {
    let mut worst = Ceilings {
        lookup: 0,
        getattr: 0,
        open: 0,
        read: 0,
        readdir: 0,
        release: 0,
    };
    let req = |op| Request::new(cred.clone(), op);
    let root = d.root_ino();
    for _ in 0..rounds {
        let (n, reply) = handle_counted(
            d,
            req(Operation::Lookup {
                parent: root,
                name: "etc".into(),
            }),
        );
        worst.lookup = worst.lookup.max(n);
        let etc = match reply {
            Reply::Entry(e) => e.ino,
            other => panic!("lookup /etc: {other:?}"),
        };
        let host = match d.handle(req(Operation::Lookup {
            parent: etc,
            name: "hostname".into(),
        })) {
            Reply::Entry(e) => e.ino,
            other => panic!("lookup /etc/hostname: {other:?}"),
        };

        let (n, reply) = handle_counted(d, req(Operation::Getattr { ino: host }));
        worst.getattr = worst.getattr.max(n);
        assert!(matches!(reply, Reply::Attr(a) if a.size == 5), "{reply:?}");

        let (n, reply) = handle_counted(
            d,
            req(Operation::Open {
                ino: host,
                flags: OpenFlags::RDONLY,
            }),
        );
        worst.open = worst.open.max(n);
        let fh = match reply {
            Reply::Opened(o) => o.fh,
            other => panic!("open: {other:?}"),
        };

        let (n, reply) = handle_counted(
            d,
            req(Operation::Read {
                fh,
                offset: 0,
                size: 4096,
            }),
        );
        worst.read = worst.read.max(n);
        assert!(
            matches!(&reply, Reply::Data(b) if b.as_slice() == b"astra"),
            "{reply:?}"
        );

        let dh = match d.handle(req(Operation::Opendir { ino: etc })) {
            Reply::Opened(o) => o.fh,
            other => panic!("opendir: {other:?}"),
        };
        let (n, reply) = handle_counted(
            d,
            req(Operation::Readdir {
                fh: dh,
                offset: 0,
                max: 64,
            }),
        );
        worst.readdir = worst.readdir.max(n);
        assert!(
            matches!(&reply, Reply::Dir(e) if e.len() == ETC_ENTRIES),
            "{reply:?}"
        );
        assert!(d.handle(req(Operation::Releasedir { fh: dh })).is_ok());

        let (n, reply) = handle_counted(d, req(Operation::Release { fh }));
        worst.release = worst.release.max(n);
        assert!(reply.is_ok(), "{reply:?}");
    }
    assert_eq!(d.open_handles(), 0);
    worst
}

fn assert_within(flavor: &str, got: &Ceilings, ceiling: &Ceilings) {
    for (op, got, max) in [
        ("lookup", got.lookup, ceiling.lookup),
        ("getattr", got.getattr, ceiling.getattr),
        ("open", got.open, ceiling.open),
        ("read", got.read, ceiling.read),
        ("readdir", got.readdir, ceiling.readdir),
        ("release", got.release, ceiling.release),
    ] {
        assert!(
            got <= max,
            "{flavor} {op}: {got} allocations per request (ceiling {max})"
        );
    }
}

/// Rounds run before measuring, so every handle-table bucket the measured
/// rounds touch has been allocated once already.
const WARMUP_ROUNDS: usize = 32;

#[test]
fn served_requests_stay_within_their_allocation_ceilings() {
    let c = container();
    let cred = c.fs_creds();
    assert!(!cred.groups.is_empty(), "credential derivation must copy");

    let mut writer = c.mount();
    worst_per_op(&mut writer, &cred, WARMUP_ROUNDS);
    let got = worst_per_op(&mut writer, &cred, 64);
    assert_within("writer", &got, &WRITER);

    let mut reader = c.mount_readonly();
    worst_per_op(&mut reader, &cred, WARMUP_ROUNDS);
    let got = worst_per_op(&mut reader, &cred, 64);
    assert_within("reader", &got, &READER);
}

/// The large and the small served read, in bytes.
const WIDE_READ: u32 = 32 << 10;
const NARROW_READ: u32 = 1 << 10;

/// A reply frame's bytes around a read payload: the 16-byte reply header,
/// the payload's 4-byte length and the 4-byte checksum trailer.
const DATA_FRAME_OVERHEAD: usize = 24;

/// Allocations per wire read, client side (`send_request` + `recv_reply`)
/// and server side (`serve_one`), pinned from the counts measured before
/// the client read payloads in place. The client's two are the reply's
/// `FileBytes` plus either the copied payload or the empty buffer that
/// replaces the one the reply took; a server's are the decoded request's
/// group list plus what its dispatch derives (see [`WRITER`]).
#[derive(Default)]
struct WireCeilings {
    client: u64,
    server: u64,
}

const WIRE_WRITER: WireCeilings = WireCeilings {
    client: 2,
    server: 3,
};

const WIRE_READER: WireCeilings = WireCeilings {
    client: 2,
    server: 1,
};

/// Rounds of `WIDE_READ`, `NARROW_READ`, getattr before measuring, so every
/// buffer the channel and the reply cache rotate has grown to the largest
/// frame it carries. Three replies a round make both of the channel's
/// alternating reply buffers carry both read sizes, so the small read
/// lands in a large buffer.
const WIRE_WARMUP_ROUNDS: usize = 48;

/// Serves `server` to a lockstep client and returns the most allocations
/// any measured read made on each side, after asserting that every large
/// read reply was read in place (it windows its whole frame) and every
/// small one was copied out.
fn worst_wire_read<D: Dispatch>(
    mut server: Server<D, ChannelTransport>,
    client_end: ChannelTransport,
    cred: &FsCreds,
) -> [WireCeilings; 2] {
    let mut client = Client::new(client_end);
    let mut call = |server: &mut Server<D, ChannelTransport>, op| {
        let req = Request::new(cred.clone(), op);
        let (sent, pending) = counted(|| client.send_request(&req).unwrap());
        let (served, event) = counted(|| server.serve_one().unwrap());
        assert_eq!(event, ServerEvent::Served);
        let (received, reply) = counted(|| client.recv_reply(pending).unwrap());
        (sent + received, served, reply)
    };
    let mut ino = FUSE_ROOT_ID;
    for name in ["opt", "app", "wide"] {
        let op = Operation::Lookup {
            parent: ino,
            name: name.into(),
        };
        ino = match call(&mut server, op).2 {
            Reply::Entry(e) => e.ino,
            other => panic!("lookup {name}: {other:?}"),
        };
    }
    let op = Operation::Open {
        ino,
        flags: OpenFlags::RDONLY,
    };
    let fh = match call(&mut server, op).2 {
        Reply::Opened(o) => o.fh,
        other => panic!("open: {other:?}"),
    };
    let read = |size| Operation::Read {
        fh,
        offset: 0,
        size,
    };
    let data = |reply: Reply, size: u32| -> ReadReply {
        match reply {
            Reply::Data(d) if d.len() == size as usize => d,
            other => panic!("read {size}: {other:?}"),
        }
    };
    let mut worst: [WireCeilings; 2] = Default::default();
    for round in 0..WIRE_WARMUP_ROUNDS + 64 {
        let measured = round >= WIRE_WARMUP_ROUNDS;
        for (i, size) in [WIDE_READ, NARROW_READ].into_iter().enumerate() {
            let (client_allocs, server_allocs, reply) = call(&mut server, read(size));
            let d = data(reply, size);
            if measured {
                worst[i].client = worst[i].client.max(client_allocs);
                worst[i].server = worst[i].server.max(server_allocs);
                let windowed = d.bytes().len() == d.len() + DATA_FRAME_OVERHEAD;
                assert_eq!(
                    windowed,
                    size == WIDE_READ,
                    "{size}-byte read: windowed {windowed}, backing {} bytes",
                    d.bytes().len()
                );
            }
        }
        assert!(call(&mut server, Operation::Getattr { ino }).2.is_ok());
    }
    assert!(call(&mut server, Operation::Release { fh }).2.is_ok());
    worst
}

#[test]
fn wire_reads_stay_within_their_allocation_ceilings() {
    let c = container();
    let cred = c.fs_creds();
    for (flavor, ceiling, worst) in [
        ("writer", &WIRE_WRITER, {
            let (server_end, client_end) = ChannelTransport::pair();
            worst_wire_read(c.serve(server_end), client_end, &cred)
        }),
        ("reader", &WIRE_READER, {
            let (server_end, client_end) = ChannelTransport::pair();
            worst_wire_read(c.serve_readonly(server_end), client_end, &cred)
        }),
    ] {
        for (size, got) in [WIDE_READ, NARROW_READ].iter().zip(&worst) {
            assert!(
                got.client <= ceiling.client && got.server <= ceiling.server,
                "{flavor} {size}-byte read: client {} (ceiling {}), server {} (ceiling {})",
                got.client,
                ceiling.client,
                got.server,
                ceiling.server
            );
        }
    }
}
