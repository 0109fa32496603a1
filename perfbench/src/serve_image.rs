//! `serve_image`: jobs reading one built image over the wire protocol.
//!
//! Set-up builds, pushes, pulls and launches a Type III image holding a
//! large seeded payload tree. Two closed-loop connections then run, each on
//! its own thread, each client pumping its server inline over a
//! `ChannelTransport` so scheduler wake-ups stay out of the numbers:
//!
//! * `ro` serves the frozen image through `Container::serve_readonly` and
//!   runs file loads with Zipf popularity — a lookup per path component,
//!   open, read to EOF in 32 KiB requests, release — plus occasional
//!   getattr, readdir and expected-`ENOENT` lookups;
//! * `rw` serves `Container::serve` and runs file stores into a scratch
//!   directory — create, write, release, lookup + getattr — plus rename and
//!   unlink churn and read-backs.
//!
//! Only `fuseproto` and the VFS read/resolve paths work here. The two
//! connections use the same layers differently, so a read-path gain that
//! costs writes shows. A traced run wraps the dispatcher and both transport
//! ends in timing wrappers and runs the connections one after the other on
//! one thread, so allocation counts attribute cleanly.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hpcc_repro::core::{BuildOptions, Builder, PushOwnership};
use hpcc_repro::fuseproto::{
    ChannelTransport, Client, Dispatch, Errno, OpenFlags, Operation, Reply, Request, Server,
    ServerEvent, Transport, TransportError, FUSE_ROOT_ID,
};
use hpcc_repro::fuseproto::{FsCreds, ReadReply};
use hpcc_repro::image::Registry;
use hpcc_repro::kernel::{Gid, Uid};
use hpcc_repro::runtime::{Container, Invoker};
use hpcc_repro::vfs::{Filesystem, Ino, Mode};

use crate::gen::{Rng, ServeSizes, ServeTree, SERVE_ROOT, SERVE_SIZES};
use crate::trace::{self, Layer};
use crate::{calib, Checks, Config, Outcome};

const TAG: &str = "data";
const REFERENCE: &str = "hpc/data:1.0";
const SCRATCH: &str = "scratch";
/// Random bytes stores take their content from.
const STORE_POOL: usize = 1 << 20;
/// Requests per throughput batch; `ops_per_s` is the median batch's rate.
const BATCH: u64 = 4096;
/// Speed exponent of the host-speed scaling (see [`calib::scale`]): file
/// loads and stores copy a tree larger than the last-level cache, so they
/// wait on memory and slow less than the probe does.
const SPEED_EXPONENT: f64 = 0.5;

fn sizes(cfg: &Config) -> ServeSizes {
    if cfg.tiny {
        ServeSizes {
            groups: 2,
            dirs_per_group: 2,
            files_per_dir: 8,
            ..SERVE_SIZES
        }
    } else {
        SERVE_SIZES
    }
}

/// The launched image and the inputs it was built from.
struct Served {
    tree: ServeTree,
    container: Container,
}

fn setup(seed: u64, sizes: ServeSizes, checks: &mut Checks) -> Option<Served> {
    let tree = ServeTree::generate(seed, sizes);
    let mut context = Filesystem::new_local();
    for f in &tree.files {
        context
            .install_file(
                &format!("/{}", f.path),
                f.bytes.clone(),
                Uid(0),
                Gid(0),
                Mode::FILE_644,
            )
            .expect("context install into a fresh filesystem");
    }
    let invoker = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(invoker.clone());
    let report = builder.build(
        &tree.dockerfile(),
        &BuildOptions::new(TAG).with_force(),
        Some(&context),
    );
    drop(context);
    if !report.success {
        checks.require(false, || format!("image build: {:?}", report.error_text()));
        return None;
    }
    let mut registry = Registry::new("registry.example");
    let pushed = builder.push(TAG, REFERENCE, &mut registry, PushOwnership::Flatten);
    drop(builder);
    let container = pushed
        .and_then(|_| registry.pull(REFERENCE).map_err(|e| e.to_string()))
        .and_then(|image| Container::launch_type3(&image, &invoker).map_err(|e| e.to_string()));
    match container {
        Ok(container) => {
            // Freeze the read-only image now, as part of set-up.
            container.shared_image();
            Some(Served { tree, container })
        }
        Err(e) => {
            checks.require(false, || format!("push/pull/launch: {e}"));
            None
        }
    }
}

// ---------------------------------------------------------- timing wrappers

/// A `Transport` that records a span per call and counts bytes moved.
struct TimedTransport<T>(T);

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        trace::count_bytes(frame.len());
        trace::span(Layer::Transport, || self.0.send(frame))
    }

    fn recv(&mut self, buf: &mut Vec<u8>) -> Result<bool, TransportError> {
        let got = trace::span(Layer::Transport, || self.0.recv(buf));
        trace::count_bytes(buf.len());
        got
    }

    fn backlog(&self) -> Option<usize> {
        self.0.backlog()
    }
}

/// A `Dispatch` that records a span per request, named by operation.
struct TimedDispatch<D>(D);

impl<D: Dispatch> Dispatch for TimedDispatch<D> {
    fn handle(&mut self, req: Request) -> Reply {
        let layer = match req.op {
            Operation::Lookup { .. } => Layer::DispatchLookup,
            Operation::Getattr { .. } => Layer::DispatchGetattr,
            Operation::Open { .. } => Layer::DispatchOpen,
            Operation::Read { .. } => Layer::DispatchRead,
            Operation::Readdir { .. } => Layer::DispatchReaddir,
            Operation::Create { .. } => Layer::DispatchCreate,
            Operation::Write { .. } => Layer::DispatchWrite,
            Operation::Unlink { .. } => Layer::DispatchUnlink,
            _ => Layer::DispatchOther,
        };
        trace::span(layer, || self.0.handle(req))
    }

    fn root_ino(&self) -> Ino {
        self.0.root_ino()
    }

    fn open_handles(&self) -> usize {
        self.0.open_handles()
    }

    fn disconnect(&mut self) {
        self.0.disconnect()
    }
}

// ------------------------------------------------------------- connection

/// One lockstep connection: a client and the server it pumps inline.
struct Conn<D, T, C> {
    server: Server<D, T>,
    client: Client<C>,
    cred: FsCreds,
    requests: u64,
}

impl<D: Dispatch, T: Transport, C: Transport> Conn<D, T, C> {
    /// One request/reply round trip.
    fn call(&mut self, op: impl FnOnce() -> Operation) -> Result<Reply, String> {
        self.requests += 1;
        let cred = &self.cred;
        let client = &mut self.client;
        let pending = trace::span(Layer::Client, || {
            client.send_request(&Request::new(cred.clone(), op()))
        })
        .map_err(|e| e.to_string())?;
        match trace::span(Layer::Server, || self.server.serve_one()) {
            Ok(ServerEvent::Served) => {}
            other => return Err(format!("server: {other:?}")),
        }
        trace::span(Layer::Client, || client.recv_reply(pending)).map_err(|e| e.to_string())
    }

    fn lookup(&mut self, parent: Ino, name: &str) -> Result<Ino, String> {
        match self.call(|| Operation::Lookup {
            parent,
            name: name.to_string(),
        })? {
            Reply::Entry(e) => Ok(e.ino),
            other => Err(format!("lookup {name}: {other:?}")),
        }
    }

    fn open(&mut self, ino: Ino, flags: OpenFlags) -> Result<u64, String> {
        match self.call(|| Operation::Open { ino, flags })? {
            Reply::Opened(o) => Ok(o.fh),
            other => Err(format!("open: {other:?}")),
        }
    }

    /// Reads an open file to EOF in `chunk`-byte requests.
    fn read_all(&mut self, fh: u64, chunk: u32, out: &mut Vec<ReadReply>) -> Result<(), String> {
        let mut offset = 0u64;
        loop {
            match self.call(|| Operation::Read {
                fh,
                offset,
                size: chunk,
            })? {
                Reply::Data(d) => {
                    let n = d.len();
                    offset += n as u64;
                    out.push(d);
                    if n < chunk as usize {
                        return Ok(());
                    }
                }
                other => return Err(format!("read: {other:?}")),
            }
        }
    }

    fn release(&mut self, fh: u64) -> Result<(), String> {
        match self.call(|| Operation::Release { fh })? {
            Reply::Unit => Ok(()),
            other => Err(format!("release: {other:?}")),
        }
    }

    /// Opens, reads to EOF and releases `ino`.
    fn load(&mut self, ino: Ino, chunk: u32, out: &mut Vec<ReadReply>) -> Result<(), String> {
        let fh = self.open(ino, OpenFlags::RDONLY)?;
        self.read_all(fh, chunk, out)?;
        self.release(fh)
    }

    /// Drops the client, lets the server see the disconnect, and records
    /// what the server still holds.
    fn finish(self, report: &mut ConnReport) -> Result<(), String> {
        let Conn {
            mut server, client, ..
        } = self;
        drop(client);
        match server.serve_one() {
            Ok(ServerEvent::Closed) => {}
            other => return Err(format!("disconnect: {other:?}")),
        }
        report.open_handles_end = server.dispatcher().open_handles();
        report.counters = [server.replayed(), server.shed(), server.protocol_errors()];
        Ok(())
    }
}

fn same_bytes(replies: &[ReadReply], expected: &[u8]) -> bool {
    let mut at = 0;
    for r in replies {
        let chunk = r.as_slice();
        if expected.get(at..at + chunk.len()) != Some(chunk) {
            return false;
        }
        at += chunk.len();
    }
    at == expected.len()
}

/// What one connection's loop measured.
#[derive(Default)]
struct ConnReport {
    requests: u64,
    elapsed: Duration,
    latencies: Vec<u64>,
    /// `(requests, ns)` of consecutive batches of about [`BATCH`] requests,
    /// `ns` scaled to the reference host.
    batches: Vec<(u64, u64)>,
    /// Probe time measured right before the current batch.
    probe: u64,
    open_handles_end: usize,
    counters: [u64; 3],
}

impl ConnReport {
    /// Starts the first batch: probes the host speed, then starts the clock.
    fn start(&mut self, requests: u64) -> (u64, Instant) {
        self.probe = calib::probe_ns();
        (requests, Instant::now())
    }

    /// Closes the current batch once it holds [`BATCH`] requests, and
    /// starts the next one.
    fn batch(&mut self, requests: u64, batch: &mut (u64, Instant)) {
        if requests - batch.0 >= BATCH {
            let ns = batch.1.elapsed().as_nanos() as u64;
            self.batches.push((
                requests - batch.0,
                calib::scale(ns, self.probe, SPEED_EXPONENT),
            ));
            *batch = self.start(requests);
        }
    }

    /// Records one operation's latency, scaled to the reference host.
    fn latency(&mut self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.latencies
            .push(calib::scale(ns, self.probe, SPEED_EXPONENT));
    }
}

/// The `ro` loop: Zipf file loads plus occasional metadata requests.
fn run_ro<D: Dispatch, T: Transport, C: Transport>(
    mut conn: Conn<D, T, C>,
    tree: &ServeTree,
    sizes: ServeSizes,
    seed: u64,
    duration: Duration,
    checks: &mut Checks,
) -> Result<ConnReport, String> {
    let mut rng = Rng::new(seed, "serve_image/ro");
    // The directories metadata requests go to, resolved once.
    let dirs = trace::span(Layer::Op, || -> Result<_, String> {
        let data = conn.lookup(FUSE_ROOT_ID, SERVE_ROOT)?;
        let mut dirs = Vec::new();
        for d in &tree.dirs {
            let (g, dd) = d.split_once('/').expect("g<G>/d<D>");
            let gi = conn.lookup(data, g)?;
            dirs.push(conn.lookup(gi, dd)?);
        }
        Ok(dirs)
    })?;
    let requests_before = conn.requests;
    let mut report = ConnReport::default();
    let mut replies = Vec::new();
    let start = Instant::now();
    let deadline = start + duration;
    let mut batch = report.start(conn.requests);
    let mut n = 0u64;
    while n == 0 || Instant::now() < deadline {
        report.batch(conn.requests, &mut batch);
        n += 1;
        trace::set_unit(n);
        let action = rng.below(100);
        if action < 90 {
            let f = tree.popular_file(&mut rng);
            let file = &tree.files[f];
            replies.clear();
            let t0 = Instant::now();
            let outcome = trace::span(Layer::Op, || -> Result<(), String> {
                let mut ino = FUSE_ROOT_ID;
                for comp in std::iter::once(SERVE_ROOT).chain(file.path.split('/')) {
                    ino = conn.lookup(ino, comp)?;
                }
                conn.load(ino, sizes.read_chunk, &mut replies)
            });
            report.latency(t0);
            checks.unit(outcome.and_then(|()| {
                if same_bytes(&replies, &file.bytes) {
                    Ok(())
                } else {
                    Err(format!(
                        "ro load of {}: bytes differ from the payload",
                        file.path
                    ))
                }
            }));
        } else if action < 94 {
            let dir = dirs[rng.below(dirs.len())];
            let outcome = trace::span(Layer::Op, || conn.call(|| Operation::Getattr { ino: dir }));
            checks.unit(match outcome {
                Ok(Reply::Attr(a)) if a.ino == dir => Ok(()),
                other => Err(format!("ro getattr: {other:?}")),
            });
        } else if action < 97 {
            let dir = dirs[rng.below(dirs.len())];
            let outcome = trace::span(Layer::Op, || -> Result<usize, String> {
                let fh = match conn.call(|| Operation::Opendir { ino: dir })? {
                    Reply::Opened(o) => o.fh,
                    other => return Err(format!("opendir: {other:?}")),
                };
                let entries = match conn.call(|| Operation::Readdir {
                    fh,
                    offset: 0,
                    max: 1024,
                })? {
                    Reply::Dir(entries) => entries.len(),
                    other => return Err(format!("readdir: {other:?}")),
                };
                match conn.call(|| Operation::Releasedir { fh })? {
                    Reply::Unit => Ok(entries),
                    other => Err(format!("releasedir: {other:?}")),
                }
            });
            checks.unit(outcome.and_then(|entries| {
                if entries == sizes.files_per_dir {
                    Ok(())
                } else {
                    Err(format!("ro readdir: {entries} entries"))
                }
            }));
        } else {
            let dir = dirs[rng.below(dirs.len())];
            let name = format!("missing-{}", rng.below(1 << 20));
            let outcome = trace::span(Layer::Op, || {
                conn.call(|| Operation::Lookup { parent: dir, name })
            });
            checks.unit(match outcome {
                Ok(Reply::Err(e)) if e == Errno::ENOENT => Ok(()),
                other => Err(format!("ro lookup of a missing name: {other:?}")),
            });
        }
    }
    report.elapsed = start.elapsed();
    report.requests = conn.requests - requests_before;
    conn.finish(&mut report)?;
    Ok(report)
}

/// The `rw` loop: file stores into a scratch directory, with rename and
/// unlink churn and read-backs of what was written.
fn run_rw<D: Dispatch, T: Transport, C: Transport>(
    mut conn: Conn<D, T, C>,
    sizes: ServeSizes,
    seed: u64,
    duration: Duration,
    checks: &mut Checks,
) -> Result<ConnReport, String> {
    let mut rng = Rng::new(seed, "serve_image/rw");
    let pool = Rng::new(seed, "serve_image/rw-pool").bytes(STORE_POOL);
    let scratch = trace::span(Layer::Op, || {
        let tmp = conn.lookup(FUSE_ROOT_ID, "tmp")?;
        match conn.call(|| Operation::Mkdir {
            parent: tmp,
            name: SCRATCH.to_string(),
            mode: Mode::DIR_755,
        })? {
            Reply::Entry(e) => Ok(e.ino),
            other => Err(format!("mkdir scratch: {other:?}")),
        }
    })?;
    let requests_before = conn.requests;
    let mut report = ConnReport::default();
    // Live stored files: name and the pool range they hold.
    let mut live: VecDeque<(String, std::ops::Range<usize>)> = VecDeque::new();
    let mut replies = Vec::new();
    let mut names = 0u64;
    let start = Instant::now();
    let deadline = start + duration;
    let mut batch = report.start(conn.requests);
    let mut n = 0u64;
    while n == 0 || Instant::now() < deadline {
        report.batch(conn.requests, &mut batch);
        n += 1;
        trace::set_unit(n);
        let action = rng.below(100);
        if action < 80 || live.is_empty() {
            let len = rng.log_uniform(sizes.min_store, sizes.max_store);
            let at = rng.below(STORE_POOL - len + 1);
            let range = at..at + len;
            names += 1;
            let name = format!("s{names}");
            let data = &pool[range.clone()];
            let t0 = Instant::now();
            let outcome = trace::span(Layer::Op, || -> Result<(), String> {
                let fh = match conn.call(|| Operation::Create {
                    parent: scratch,
                    name: name.clone(),
                    mode: Mode::FILE_644,
                    flags: OpenFlags::RDWR,
                })? {
                    Reply::Opened(o) => o.fh,
                    other => return Err(format!("create: {other:?}")),
                };
                for (i, chunk) in data.chunks(sizes.read_chunk as usize).enumerate() {
                    let offset = (i * sizes.read_chunk as usize) as u64;
                    match conn.call(|| Operation::Write {
                        fh,
                        offset,
                        data: chunk.to_vec(),
                    })? {
                        Reply::Written(w) if w.size as usize == chunk.len() => {}
                        other => return Err(format!("write: {other:?}")),
                    }
                }
                conn.release(fh)?;
                let ino = conn.lookup(scratch, &name)?;
                match conn.call(|| Operation::Getattr { ino })? {
                    Reply::Attr(a) if a.size == len as u64 => Ok(()),
                    other => Err(format!("getattr after store: {other:?}")),
                }
            });
            report.latency(t0);
            checks.unit(outcome);
            live.push_back((name, range));
            if live.len() > sizes.live_stores {
                let (oldest, _) = live.pop_front().expect("over the live cap");
                let outcome = trace::span(Layer::Op, || {
                    conn.call(|| Operation::Unlink {
                        parent: scratch,
                        name: oldest,
                    })
                });
                checks.unit(match outcome {
                    Ok(Reply::Unit) => Ok(()),
                    other => Err(format!("unlink: {other:?}")),
                });
            }
        } else if action < 90 {
            let i = rng.below(live.len());
            names += 1;
            let new_name = format!("r{names}");
            let old = live[i].0.clone();
            let to = new_name.clone();
            let outcome = trace::span(Layer::Op, || {
                conn.call(|| Operation::Rename {
                    parent: scratch,
                    name: old,
                    new_parent: scratch,
                    new_name: to,
                })
            });
            checks.unit(match outcome {
                Ok(Reply::Unit) => Ok(()),
                other => Err(format!("rename: {other:?}")),
            });
            live[i].0 = new_name;
        } else {
            let (name, range) = live[rng.below(live.len())].clone();
            replies.clear();
            let outcome = trace::span(Layer::Op, || {
                let ino = conn.lookup(scratch, &name)?;
                conn.load(ino, sizes.read_chunk, &mut replies)
            });
            checks.unit(outcome.and_then(|()| {
                if same_bytes(&replies, &pool[range]) {
                    Ok(())
                } else {
                    Err(format!(
                        "rw read-back of {name}: bytes differ from what was written"
                    ))
                }
            }));
        }
    }
    report.elapsed = start.elapsed();
    report.requests = conn.requests - requests_before;
    conn.finish(&mut report)?;
    Ok(report)
}

/// Runs both connections: concurrently on two threads when the machine
/// has two cores, otherwise one after the other on this thread.
fn run_untraced(
    served: &Served,
    sizes: ServeSizes,
    seed: u64,
    duration: Duration,
) -> [(Result<ConnReport, String>, Checks); 2] {
    let ro = || {
        let (server_end, client_end) = ChannelTransport::pair();
        let conn = Conn {
            server: served.container.serve_readonly(server_end),
            client: Client::new(client_end),
            cred: served.container.fs_creds(),
            requests: 0,
        };
        let mut checks = Checks::default();
        let r = run_ro(conn, &served.tree, sizes, seed, duration, &mut checks);
        (r, checks)
    };
    let rw = || {
        let (server_end, client_end) = ChannelTransport::pair();
        let conn = Conn {
            server: served.container.serve(server_end),
            client: Client::new(client_end),
            cred: served.container.fs_creds(),
            requests: 0,
        };
        let mut checks = Checks::default();
        let r = run_rw(conn, sizes, seed, duration, &mut checks);
        (r, checks)
    };
    if crate::load_threads() >= 2 {
        std::thread::scope(|s| {
            let ro = s.spawn(ro);
            let rw = s.spawn(rw);
            [
                ro.join().expect("ro connection thread"),
                rw.join().expect("rw connection thread"),
            ]
        })
    } else {
        [ro(), rw()]
    }
}

/// Runs both connections one after the other on this thread, each for
/// half the run, with the dispatcher and both transport ends wrapped.
fn run_traced(
    served: &Served,
    sizes: ServeSizes,
    seed: u64,
    duration: Duration,
) -> [(Result<ConnReport, String>, Checks); 2] {
    let half = duration / 2;
    let (server_end, client_end) = ChannelTransport::pair();
    let conn = Conn {
        server: Server::new(
            TimedDispatch(served.container.mount_readonly()),
            TimedTransport(server_end),
        ),
        client: Client::new(TimedTransport(client_end)),
        cred: served.container.fs_creds(),
        requests: 0,
    };
    let mut ro_checks = Checks::default();
    let ro = run_ro(conn, &served.tree, sizes, seed, half, &mut ro_checks);
    let (server_end, client_end) = ChannelTransport::pair();
    let conn = Conn {
        server: Server::new(
            TimedDispatch(served.container.mount()),
            TimedTransport(server_end),
        ),
        client: Client::new(TimedTransport(client_end)),
        cred: served.container.fs_creds(),
        requests: 0,
    };
    let mut rw_checks = Checks::default();
    let rw = run_rw(conn, sizes, seed, half, &mut rw_checks);
    [(ro, ro_checks), (rw, rw_checks)]
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let sizes = sizes(cfg);
    let mut setup_checks = Checks::default();
    let (served, setup_s) = crate::timed_setup(1, SPEED_EXPONENT, || {
        setup_checks = Checks::default();
        setup(cfg.seed, sizes, &mut setup_checks)
    });
    let mut checks = setup_checks;
    let Some(served) = served else {
        return Outcome {
            checks,
            metrics: Default::default(),
            mean_unit_ns: 0.0,
        };
    };
    if cfg.traced {
        trace::enable();
    }
    let conns = if cfg.traced {
        run_traced(&served, sizes, cfg.seed, cfg.duration())
    } else {
        run_untraced(&served, sizes, cfg.seed, cfg.duration())
    };

    let mut reports = Vec::new();
    for (result, c) in conns {
        checks.attempted += c.attempted;
        checks.failed += c.failed;
        checks.broken += c.broken;
        checks.messages.extend(c.messages);
        match result {
            Ok(r) => reports.push(r),
            Err(e) => checks.require(false, || format!("connection: {e}")),
        }
    }
    let requests: u64 = reports.iter().map(|r| r.requests).sum();
    let handles: usize = reports.iter().map(|r| r.open_handles_end).sum();
    let counters = reports.iter().fold([0u64; 3], |acc, r| {
        [
            acc[0] + r.counters[0],
            acc[1] + r.counters[1],
            acc[2] + r.counters[2],
        ]
    });
    checks.require(handles == 0, || {
        format!("{handles} handles still open after disconnect")
    });
    checks.require(counters == [0, 0, 0], || {
        format!("replayed/shed/protocol errors: {counters:?}")
    });
    let thread_time: Duration = reports.iter().map(|r| r.elapsed).sum();

    let metrics = if cfg.traced {
        let t = trace::totals();
        let reqs = requests.max(1) as f64;
        let per_req = |layer: Layer| t[layer as usize].self_ns as f64 / reqs;
        let allocs = |layer: Layer| t[layer as usize].self_allocs as f64 / reqs;
        let per_span = |layer: Layer| {
            crate::ratio(
                t[layer as usize].self_ns as f64,
                t[layer as usize].spans as f64,
            )
        };
        let dispatch = [
            Layer::DispatchLookup,
            Layer::DispatchGetattr,
            Layer::DispatchOpen,
            Layer::DispatchRead,
            Layer::DispatchReaddir,
            Layer::DispatchCreate,
            Layer::DispatchWrite,
            Layer::DispatchUnlink,
            Layer::DispatchOther,
        ];
        let mut m = crate::per_layer_defaults();
        m.insert("fuseproto.client.ns_per_op", per_req(Layer::Client));
        m.insert("fuseproto.client.allocs_per_op", allocs(Layer::Client));
        m.insert("fuseproto.transport.ns_per_op", per_req(Layer::Transport));
        m.insert(
            "fuseproto.transport.bytes_per_op",
            trace::bytes() as f64 / reqs,
        );
        m.insert("fuseproto.server.ns_per_op", per_req(Layer::Server));
        m.insert("fuseproto.server.allocs_per_op", allocs(Layer::Server));
        m.insert("fuseproto.server.replayed", counters[0] as f64);
        m.insert("fuseproto.server.shed", counters[1] as f64);
        m.insert("fuseproto.server.protocol_errors", counters[2] as f64);
        m.insert(
            "fuseproto.dispatch.lookup_ns",
            per_span(Layer::DispatchLookup),
        );
        m.insert(
            "fuseproto.dispatch.getattr_ns",
            per_span(Layer::DispatchGetattr),
        );
        m.insert("fuseproto.dispatch.open_ns", per_span(Layer::DispatchOpen));
        m.insert("fuseproto.dispatch.read_ns", per_span(Layer::DispatchRead));
        m.insert(
            "fuseproto.dispatch.readdir_ns",
            per_span(Layer::DispatchReaddir),
        );
        m.insert(
            "fuseproto.dispatch.create_ns",
            per_span(Layer::DispatchCreate),
        );
        m.insert(
            "fuseproto.dispatch.write_ns",
            per_span(Layer::DispatchWrite),
        );
        m.insert(
            "fuseproto.dispatch.unlink_ns",
            per_span(Layer::DispatchUnlink),
        );
        m.insert(
            "fuseproto.dispatch.allocs_per_op",
            dispatch.iter().map(|&l| allocs(l)).sum(),
        );
        m.insert("fuseproto.dispatch.open_handles_end", handles as f64);
        m.insert("trace.layer_sum_ratio", crate::layer_sum_ratio(&t));
        m
    } else {
        let mut loads = reports
            .first()
            .map(|r| r.latencies.clone())
            .unwrap_or_default();
        // Connections on their own threads add their rates; one after the
        // other on one thread, each ran half the time.
        let rate: f64 = reports.iter().map(|r| crate::median_rate(&r.batches)).sum();
        let shares = if crate::load_threads() >= 2 {
            1.0
        } else {
            reports.len().max(1) as f64
        };
        crate::end_to_end(setup_s, rate / shares, &mut loads)
    };
    Outcome {
        checks,
        metrics,
        mean_unit_ns: crate::ratio(thread_time.as_nanos() as f64, requests as f64),
    }
}
