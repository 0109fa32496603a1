//! Chaos suite for fault-tolerant wire serving: a built CentOS 7 image is
//! served through >1000 randomized, seed-replayable fault schedules, and
//! four invariants must hold on every one of them:
//!
//! 1. **No hangs** — every client call terminates, with the true reply or a
//!    typed timeout/disconnect error, inside its policy deadline.
//! 2. **Equivalence** — once retries succeed, reply frames are byte-identical
//!    to a fault-free run of the same script.
//! 3. **Exactly-once** — retransmitted mutations are never re-executed: the
//!    server's dispatch count stays at one per scripted operation, and its
//!    reply-cache hit counter proves the replays happened.
//! 4. **No leaks** — zero open handles after every exit path, including hard
//!    mid-handle disconnects.
//!
//! Every schedule derives from one `u64` seed; a failure prints the seed,
//! and `CHAOS_EXTRA_SEED=<n>` replays (or explores) a single extra schedule
//! — CI sets it from `$RANDOM` so every run probes one fresh point of the
//! space while staying reproducible from its log.

use std::time::Duration;

use hpcc_repro::core::{BuildOptions, Builder};
use hpcc_repro::fuseproto::{
    wire, ChannelTransport, Client, ClientError, Fault, FaultPlan, FaultTransport, FsCreds,
    OpenFlags, Operation, Reply, Request, RetryPolicy, ServeConfig, Server, Shutdown,
    TransportError, FUSE_ROOT_ID,
};
use hpcc_repro::image::{Image, ImageConfig};
use hpcc_repro::runtime::{Container, Invoker};
use hpcc_repro::vfs::Mode;

const DOCKERFILE: &str = "\
FROM centos:7
RUN mkdir -p /opt/app && echo 'chaos payload' > /opt/app/data
RUN yum install -y openssh
";

/// Fixed seeds every run covers; the env seed explores beyond them.
const FIXED_SCHEDULES: u64 = 1000;

fn built_container() -> Container {
    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice.clone());
    let report = builder.build(DOCKERFILE, &BuildOptions::new("c7").with_force(), None);
    assert!(report.success, "build failed: {:?}", report.error);
    let built = builder.image("c7").expect("tagged image");
    let creds = hpcc_repro::kernel::Credentials::host_root();
    let ns = hpcc_repro::kernel::UserNamespace::initial();
    let actor = hpcc_repro::vfs::Actor::new(&creds, &ns);
    let image = Image::from_fs_preserved(
        "c7:latest",
        &built.fs,
        &actor,
        ImageConfig {
            architecture: "x86_64".to_string(),
            ..Default::default()
        },
    )
    .expect("image");
    Container::launch_type3(&image, &alice).expect("launch")
}

/// The scripted session every schedule replays: reads interleaved with
/// mutations (mkdir, create, write) and handle traffic, so re-execution of a
/// retransmitted mutation is *detectable* — a second mkdir answers EEXIST, a
/// second create allocates a divergent handle — and a disconnect can land
/// while handles are open.
fn script(cred: &FsCreds) -> Vec<Request> {
    let mk = |op| Request::new(cred.clone(), op);
    vec![
        mk(Operation::Getattr { ino: FUSE_ROOT_ID }),
        mk(Operation::Mkdir {
            parent: FUSE_ROOT_ID,
            name: "chaos".into(),
            mode: Mode::DIR_755,
        }),
        mk(Operation::Lookup {
            parent: FUSE_ROOT_ID,
            name: "chaos".into(),
        }),
        mk(Operation::Create {
            parent: FUSE_ROOT_ID,
            name: "chaos.log".into(),
            mode: Mode::FILE_644,
            flags: OpenFlags::RDWR,
        }),
        mk(Operation::Write {
            fh: 1,
            offset: 0,
            data: b"at-least-once delivery, exactly-once execution".to_vec(),
        }),
        mk(Operation::Read {
            fh: 1,
            offset: 0,
            size: 64,
        }),
        mk(Operation::Opendir { ino: FUSE_ROOT_ID }),
        mk(Operation::Readdir {
            fh: 2,
            offset: 0,
            max: 64,
        }),
        mk(Operation::Releasedir { fh: 2 }),
        mk(Operation::Release { fh: 1 }),
        mk(Operation::Lookup {
            parent: FUSE_ROOT_ID,
            name: "missing".into(),
        }),
        mk(Operation::Statfs),
    ]
}

/// Re-encodes a reply under a fixed unique: the byte-comparison form.
fn frame(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_reply(&mut buf, 0, reply);
    buf
}

/// The retry policy chaos clients run under: tight attempt waits (the suite
/// injects at most 4 faults + 1 disconnect per schedule, so 8 attempts
/// always reach a clean exchange), generous overall deadline.
fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_millis(2),
        deadline: Duration::from_secs(2),
        max_attempts: 8,
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_micros(500),
        resend_mutations: true,
        jitter_seed: 0x5EED,
    }
}

/// The fault-free reference: reply frames the scripted session must produce
/// on any schedule once retries succeed.
fn reference_frames(c: &Container, cred: &FsCreds) -> Vec<Vec<u8>> {
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = c.serve(server_end);
    let daemon = std::thread::spawn(move || server.serve().map(|s| s.shutdown));
    let mut client = Client::new(client_end);
    let frames: Vec<Vec<u8>> = script(cred)
        .iter()
        .map(|req| frame(&client.call(req).expect("reference call")))
        .collect();
    client.destroy().expect("reference destroy");
    assert_eq!(daemon.join().unwrap().unwrap(), Shutdown::Destroyed);
    frames
}

/// Aggregates proving each fault class actually fired across the run.
#[derive(Default)]
struct Totals {
    faults: u64,
    replayed: u64,
    protocol_errors: u64,
    disconnect_schedules: u64,
    shed: u64,
}

/// Runs one seeded schedule and folds its evidence into `totals`.
fn run_schedule(c: &Container, reference: &[Vec<u8>], seed: u64, totals: &mut Totals) {
    // Schedule shape from the seed: 1–4 faults over the first 40 frame
    // indices, every 5th seed also severing the connection somewhere.
    let faults = 1 + (seed % 4) as usize;
    let disconnecting = seed.is_multiple_of(5);
    let plan = FaultPlan::random(seed, faults, 40, disconnecting);

    let cred = c.fs_creds();
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = Server::with_config(
        c.mount(),
        server_end,
        ServeConfig {
            reply_cache: 32,
            max_backlog: Some(8),
        },
    );
    let daemon = std::thread::spawn(move || {
        let summary = server.serve();
        (server, summary)
    });

    let policy = chaos_policy();
    let mut client = Client::new(FaultTransport::new(client_end, plan));
    let mut completed = 0usize;
    let mut severed = false;
    for (i, req) in script(&cred).iter().enumerate() {
        match client.call_with(req, &policy) {
            Ok(reply) => {
                assert_eq!(
                    frame(&reply),
                    reference[i],
                    "seed {seed}: call {i} ({:?}) diverged from the fault-free run",
                    req.op
                );
                completed += 1;
            }
            Err(e) => {
                // Invariant 1: a failure is always typed, and only a
                // schedule that severs the connection may produce one.
                assert!(
                    disconnecting,
                    "seed {seed}: call {i} failed ({e}) on a schedule with no disconnect"
                );
                assert!(
                    matches!(
                        e,
                        ClientError::Transport(TransportError::Closed)
                            | ClientError::TimedOut { .. }
                    ),
                    "seed {seed}: call {i}: untyped failure {e}"
                );
                severed = true;
                break;
            }
        }
    }
    if !severed {
        // Destroy rides the same faulty tail; both outcomes are legal, but
        // never a hang.
        let _ = client.destroy_with(&policy);
    }
    totals.faults += client.transport().counters().total();
    if severed {
        totals.disconnect_schedules += 1;
    }

    drop(client);
    let (server, summary) = daemon.join().expect("server thread");
    let summary = summary.unwrap_or_else(|e| panic!("seed {seed}: serve loop error: {e}"));

    // Invariant 3: exactly-once execution. Every completed call dispatched
    // exactly one request — retransmissions were replayed, not re-executed —
    // and an interrupted script never dispatched more than it completed
    // (the tail call may have executed with its reply lost to the sever).
    if !severed {
        assert_eq!(
            summary.requests,
            script(&cred).len() as u64,
            "seed {seed}: dispatch count proves a duplicated or lost execution"
        );
    } else {
        assert!(
            summary.requests <= completed as u64 + 1,
            "seed {seed}: {} dispatches for {completed} completed calls",
            summary.requests
        );
    }

    // Invariant 4: no leaks on any exit path, destroy and sever alike.
    assert_eq!(
        server.dispatcher().open_handles(),
        0,
        "seed {seed}: handle leak (shutdown: {:?})",
        summary.shutdown
    );

    totals.replayed += summary.replayed;
    totals.protocol_errors += summary.protocol_errors;
    totals.shed += summary.shed;
}

#[test]
fn chaos_thousand_randomized_schedules_hold_the_invariants() {
    let c = built_container();
    let cred = c.fs_creds();
    let reference = reference_frames(&c, &cred);

    let mut totals = Totals::default();
    for seed in 1..=FIXED_SCHEDULES {
        run_schedule(&c, &reference, seed, &mut totals);
    }
    // One env-randomized probe per run: CI passes a fresh seed and the
    // failure message (above) carries it for replay.
    if let Ok(extra) = std::env::var("CHAOS_EXTRA_SEED") {
        let seed: u64 = extra.parse().expect("CHAOS_EXTRA_SEED must be a u64");
        eprintln!("chaos: extra schedule seed {seed}");
        run_schedule(&c, &reference, seed, &mut totals);
    }

    eprintln!(
        "chaos: {} schedules, {} faults injected, {} replays, {} protocol errors, {} sheds, {} severed",
        FIXED_SCHEDULES, totals.faults, totals.replayed, totals.protocol_errors, totals.shed,
        totals.disconnect_schedules,
    );
    // The run must actually have exercised what it claims to test.
    assert!(totals.faults > 500, "schedules barely injected anything");
    assert!(
        totals.replayed > 0,
        "no retransmission ever hit the reply cache — resends were re-executed or never happened"
    );
    assert!(
        totals.protocol_errors > 0,
        "no corrupt frame ever reached the server's EINVAL path"
    );
    assert!(
        totals.disconnect_schedules > 0,
        "no schedule ever severed the connection mid-script"
    );
}

/// Overload shedding under a duplicate storm: every request arrives twice at
/// a server that sheds whenever anything is queued behind the frame in
/// service. Typed EAGAIN answers drive the client's retry loop, and the
/// invariants still hold: byte-identical replies, exactly-once execution.
#[test]
fn chaos_shedding_under_duplicate_storm_stays_exactly_once() {
    let c = built_container();
    let cred = c.fs_creds();
    let reference = reference_frames(&c, &cred);

    let mut plan = FaultPlan::new();
    for i in 0..40 {
        plan = plan.on_send(i, Fault::Duplicate);
    }
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = Server::with_config(
        c.mount(),
        server_end,
        ServeConfig {
            reply_cache: 32,
            max_backlog: Some(0),
        },
    );
    let daemon = std::thread::spawn(move || {
        let summary = server.serve();
        (server, summary)
    });

    let policy = chaos_policy();
    let mut client = Client::new(FaultTransport::new(client_end, plan));
    for (i, req) in script(&cred).iter().enumerate() {
        let reply = client
            .call_with(req, &policy)
            .unwrap_or_else(|e| panic!("call {i} under duplicate storm: {e}"));
        assert_eq!(frame(&reply), reference[i], "call {i} diverged");
    }
    let _ = client.destroy_with(&policy);
    drop(client);

    let (server, summary) = daemon.join().expect("server thread");
    let summary = summary.expect("serve loop");
    assert_eq!(
        summary.requests,
        script(&cred).len() as u64,
        "duplicate storm caused a re-execution"
    );
    assert!(
        summary.shed > 0,
        "the backlog cap never tripped — the storm was not a storm"
    );
    assert!(
        summary.replayed > 0,
        "no duplicate was answered from the reply cache"
    );
    assert_eq!(server.dispatcher().open_handles(), 0, "handle leak");
}
