//! Wire-server loop overhead (ISSUE 8): the same operations dispatched
//! directly through the [`Dispatch`] trait and as full wire round trips —
//! request encoded to a FUSE-shaped frame, pushed through the in-memory
//! transport, decoded and dispatched by the `Server`, reply framed back and
//! decoded by the `Client` — on the same session in the same process.
//!
//! The gated pair: `wire/roundtrip_lookup_batch` vs
//! `wire/direct_lookup_batch`, both running
//! [`hpcc_bench::WIRE_OPS_PER_BATCH`] lookups of the same path component
//! per iteration. `bench_gate --relative` divides the two means and
//! requires the wire loop to cost at most 3× direct dispatch — the round
//! trip adds two codecs, two channel hops, and unique-id matching on top
//! of identical filesystem work, and lookup is the op a wire client issues
//! per path component, so this is the walk-rate bound. The client and
//! server run on one thread in lockstep (`send_request` → `serve_one` →
//! `recv_reply`), the overhead-maximizing layout: nothing pipelines, every
//! frame pays its full cost on the measured path. Getattr (the cheapest
//! op, so the purest view of fixed overhead) is recorded alongside for
//! PERF.md §10.
//!
//! The read pair: `wire/roundtrip_read32k_batch` vs
//! `wire/direct_read32k_batch`, the same 32 KiB reads as round trips and as
//! direct calls, where a read's wire cost is its payload copies (into the
//! frame, through the transport) and two checksums over the frame.
//! `bench_gate --relative` bounds their ratio too (PERF.md §16). The 4 KiB
//! read pair is recorded alongside.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcc_bench::WIRE_OPS_PER_BATCH;
use hpcc_fuseproto::{
    ChannelTransport, Client, Dispatch, FsCreds, MemFs, OpenFlags, Operation, RecvOutcome, Reply,
    Request, RetryPolicy, Server, ServerEvent, Session, Transport, TransportError,
};
use hpcc_kernel::{Gid, Uid, UserNamespace};
use hpcc_vfs::{Filesystem, Ino, Mode};

const PATH: &str = "/usr/lib/sysimage/rpm/db/Packages/index/data";
/// A 32 KiB file beside the 4 KiB one: a read the size of `serve_image`'s.
const WIDE_PATH: &str = "/usr/lib/sysimage/rpm/db/Packages/index/wide";

fn bench_session() -> Session<MemFs> {
    let mut fs = Filesystem::new_local();
    fs.install_file(PATH, vec![7u8; 4096], Uid(0), Gid(0), Mode::FILE_644)
        .unwrap();
    fs.install_file(
        WIDE_PATH,
        vec![9u8; 32 << 10],
        Uid(0),
        Gid(0),
        Mode::FILE_644,
    )
    .unwrap();
    Session::new(MemFs::new(fs, UserNamespace::initial()))
}

/// Opens `ino` through `call` and returns a read of its first `size` bytes
/// on that handle.
fn read_request(
    mut call: impl FnMut(&Request) -> Reply,
    cred: &FsCreds,
    ino: Ino,
    size: u32,
) -> Request {
    let open = Request::new(
        cred.clone(),
        Operation::Open {
            ino,
            flags: OpenFlags::RDONLY,
        },
    );
    let fh = match call(&open) {
        Reply::Opened(o) => o.fh,
        other => panic!("{other:?}"),
    };
    Request::new(
        cred.clone(),
        Operation::Read {
            fh,
            offset: 0,
            size,
        },
    )
}

/// Runs [`WIRE_OPS_PER_BATCH`] copies of `read` through `call`, checking
/// each reply's length.
fn read_batch(mut call: impl FnMut(&Request) -> Reply, read: &Request, size: usize) -> usize {
    let mut last = 0;
    for _ in 0..WIRE_OPS_PER_BATCH {
        match call(black_box(read)) {
            Reply::Data(d) if d.len() == size => last = d.len(),
            other => panic!("{other:?}"),
        }
    }
    last
}

/// A client transport that pumps its server inline on every send — the same
/// lockstep layout as the `roundtrip` closure below, but packaged as a
/// [`Transport`] so the policy-driven [`Client::call_with`] (which owns both
/// halves of its round trip) measures on identical single-thread terms.
struct Lockstep {
    server: Server<Session<MemFs>, ChannelTransport>,
    client_end: ChannelTransport,
}

impl Transport for Lockstep {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.client_end.send(frame)?;
        assert_eq!(self.server.serve_one()?, ServerEvent::Served);
        Ok(())
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        self.client_end.recv(buf)
    }

    fn recv_timeout(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: Duration,
    ) -> Result<RecvOutcome, TransportError> {
        self.client_end.recv_timeout(buf, timeout)
    }
}

fn bench_wire_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let cred = FsCreds::root();

    // Shared setup: resolve the target file and its parent directory before
    // the session moves into the server.
    let session = bench_session();
    let ino = session.resolve_path(&cred, PATH, true).unwrap().ino;
    let wide = session.resolve_path(&cred, WIDE_PATH, true).unwrap().ino;
    let parent = session
        .resolve_path(&cred, "/usr/lib/sysimage/rpm/db/Packages/index", true)
        .unwrap()
        .ino;

    // Direct reference: the same getattr batch through Dispatch::handle,
    // no wire in sight.
    let mut direct = bench_session();
    let getattr = Request::new(cred.clone(), Operation::Getattr { ino });
    group.bench_function("direct_getattr_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match direct.handle(black_box(getattr.clone())) {
                    Reply::Attr(a) => last = a.size,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // Direct reference for the gated pair: the same lookup batch through
    // Dispatch::handle. Lookup is the gated op (rather than getattr)
    // because it exercises the codec's string path on both the request and
    // the entry reply — the representative per-component cost of a path
    // walk arriving over the wire.
    let lookup = Request::new(
        cred.clone(),
        Operation::Lookup {
            parent,
            name: "data".into(),
        },
    );
    group.bench_function("direct_lookup_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match direct.handle(black_box(lookup.clone())) {
                    Reply::Entry(e) => last = e.ino,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // Direct references for the reads: the same 4 KiB and 32 KiB reads
    // through Dispatch::handle.
    let direct_read4k = read_request(|r| direct.handle(r.clone()), &cred, ino, 4096);
    let direct_read32k = read_request(|r| direct.handle(r.clone()), &cred, wide, 32 << 10);
    group.bench_function("direct_read4k_batch", |b| {
        b.iter(|| read_batch(|r| direct.handle(r.clone()), &direct_read4k, 4096))
    });
    group.bench_function("direct_read32k_batch", |b| {
        b.iter(|| read_batch(|r| direct.handle(r.clone()), &direct_read32k, 32 << 10))
    });

    // The wire loop, client and server in lockstep on this thread.
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = Server::new(session, server_end);
    let mut client = Client::new(client_end);
    let mut roundtrip = |req: &Request| {
        let pending = client.send_request(req).expect("send");
        assert_eq!(server.serve_one().expect("serve"), ServerEvent::Served);
        client.recv_reply(pending).expect("recv")
    };

    group.bench_function("roundtrip_getattr_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match roundtrip(black_box(&getattr)) {
                    Reply::Attr(a) => last = a.size,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // The gated wire side: the same lookup as full round trips.
    group.bench_function("roundtrip_lookup_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match roundtrip(black_box(&lookup)) {
                    Reply::Entry(e) => last = e.ino,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    // The reads as round trips; the 32 KiB batch is the gated wire side of
    // the read pair.
    let read4k = read_request(&mut roundtrip, &cred, ino, 4096);
    let read32k = read_request(&mut roundtrip, &cred, wide, 32 << 10);
    group.bench_function("roundtrip_read4k_batch", |b| {
        b.iter(|| read_batch(&mut roundtrip, &read4k, 4096))
    });
    group.bench_function("roundtrip_read32k_batch", |b| {
        b.iter(|| read_batch(&mut roundtrip, &read32k, 32 << 10))
    });

    // The retry-policy fast path (ISSUE 9 gate): the same lookups driven
    // through `call_with` with the default policy over a fault-free
    // lockstep transport. Every reply arrives on the first `recv_timeout`,
    // so the policy machinery must stay off the measured path — no clock
    // read, no deadline arithmetic, no jitter RNG. `bench_gate --relative`
    // pins this at ≤1.2× `roundtrip_lookup_batch` (the bare round trip in
    // the identical lockstep layout above).
    let policy_session = bench_session();
    let policy_parent = policy_session
        .resolve_path(&cred, "/usr/lib/sysimage/rpm/db/Packages/index", true)
        .unwrap()
        .ino;
    let (server_end, client_end) = ChannelTransport::pair();
    let mut policy_client = Client::new(Lockstep {
        server: Server::new(policy_session, server_end),
        client_end,
    });
    let policy_lookup = Request::new(
        cred.clone(),
        Operation::Lookup {
            parent: policy_parent,
            name: "data".into(),
        },
    );
    let policy = RetryPolicy::default();
    group.bench_function("policy_lookup_batch", |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..WIRE_OPS_PER_BATCH {
                match policy_client
                    .call_with(black_box(&policy_lookup), &policy)
                    .expect("policy call")
                {
                    Reply::Entry(e) => last = e.ino,
                    other => panic!("{other:?}"),
                }
            }
            last
        })
    });

    group.finish();
}

criterion_group!(benches, bench_wire_loop);
criterion_main!(benches);
