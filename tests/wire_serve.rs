//! End-to-end wire serving of a built image: a real CentOS 7 build from the
//! unprivileged pipeline, served over the in-memory transport by the
//! generic `Server`, must answer byte-for-byte what direct `Dispatch`
//! calls answer — for both the read-write `Container::mount` session and
//! the shared read-only `Container::mount_readonly` one — and must leak
//! nothing when the client vanishes mid-handle.

use std::thread;

use hpcc_repro::core::{BuildOptions, Builder};
use hpcc_repro::fuseproto::{
    wire, ChannelTransport, Client, Dispatch, FsCreds, OpenFlags, Operation, Reply, Request,
    Shutdown, FUSE_ROOT_ID,
};
use hpcc_repro::image::{Image, ImageConfig};
use hpcc_repro::runtime::{Container, Invoker};

const DOCKERFILE: &str = "\
FROM centos:7
RUN mkdir -p /opt/app && echo 'wire payload' > /opt/app/data
RUN yum install -y openssh
";

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

/// The request script both servers are measured against: stat chains,
/// readdir, open/read/release — the traffic a mounted client generates.
/// Handle-carrying ops work because both the wire session and the direct
/// session start fresh and allocate identically.
fn script(cred: &FsCreds) -> Vec<Request> {
    let mk = |op| Request::new(cred.clone(), op);
    vec![
        mk(Operation::Getattr { ino: FUSE_ROOT_ID }),
        mk(Operation::Lookup {
            parent: FUSE_ROOT_ID,
            name: "opt".into(),
        }),
        mk(Operation::Statfs),
        mk(Operation::Opendir { ino: FUSE_ROOT_ID }),
        mk(Operation::Readdir {
            fh: 1,
            offset: 0,
            max: 64,
        }),
        mk(Operation::Releasedir { fh: 1 }),
        mk(Operation::Lookup {
            parent: FUSE_ROOT_ID,
            name: "missing".into(),
        }),
        mk(Operation::Listxattr { ino: FUSE_ROOT_ID }),
    ]
}

/// Resolves /opt/app/data by lookups through any dispatcher.
fn resolve_data<D: Dispatch>(d: &mut D, cred: &FsCreds) -> u64 {
    let mut ino = FUSE_ROOT_ID;
    for name in ["opt", "app", "data"] {
        ino = match d.handle(Request::new(
            cred.clone(),
            Operation::Lookup {
                parent: ino,
                name: name.into(),
            },
        )) {
            Reply::Entry(e) => e.ino,
            other => panic!("lookup {name}: {other:?}"),
        };
    }
    ino
}

/// Encodes a reply to its wire frame under a fixed unique — the
/// byte-for-byte comparison form (a direct `Data` reply windows shared image
/// bytes, the decoded one owns its copy; their frames must still be
/// identical).
fn frame(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_reply(&mut buf, 0, reply);
    buf
}

/// Runs the script through a wire client against a served dispatcher and
/// through direct dispatch on an identical twin, comparing frames.
fn assert_wire_matches_direct<D>(server_disp: D, mut direct: D, cred: &FsCreds)
where
    D: Dispatch + Send + 'static,
{
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = hpcc_repro::fuseproto::Server::new(server_disp, server_end);
    let daemon = thread::spawn(move || {
        let summary = server.serve().expect("serve loop");
        (server, summary)
    });

    let mut client = Client::new(client_end);
    for req in script(cred) {
        let over_wire = client.call(&req).expect("wire call");
        let direct_reply = direct.handle(req.clone());
        assert_eq!(
            frame(&over_wire),
            frame(&direct_reply),
            "wire and direct disagree on {:?}",
            req.op
        );
    }

    // open → read → release against the resolved file: the read that must
    // be bit-identical to the direct session's zero-copy window. Resolve on
    // the direct twin — same image, same inode space.
    let data_ino = resolve_data(&mut direct, cred);
    let open = Request::new(
        cred.clone(),
        Operation::Open {
            ino: data_ino,
            flags: OpenFlags::RDONLY,
        },
    );
    let wire_fh = match client.call(&open).expect("wire call") {
        Reply::Opened(o) => o.fh,
        other => panic!("{other:?}"),
    };
    let direct_fh = match direct.handle(open) {
        Reply::Opened(o) => o.fh,
        other => panic!("{other:?}"),
    };
    assert_eq!(wire_fh, direct_fh, "fresh sessions allocate identically");
    let read = |fh| {
        Request::new(
            cred.clone(),
            Operation::Read {
                fh,
                offset: 0,
                size: 4096,
            },
        )
    };
    let over_wire = client.call(&read(wire_fh)).expect("wire call");
    let direct_reply = direct.handle(read(direct_fh));
    assert_eq!(frame(&over_wire), frame(&direct_reply), "read payload");
    match (&over_wire, &direct_reply) {
        (Reply::Data(w), Reply::Data(d)) => {
            assert_eq!(w.as_slice(), d.as_slice());
            assert_eq!(w.as_slice(), b"wire payload\n");
        }
        other => panic!("{other:?}"),
    }
    let rel = Request::new(cred.clone(), Operation::Release { fh: wire_fh });
    assert!(client.call(&rel).expect("wire call").is_ok());

    client.destroy().expect("destroy");
    let (server, summary) = daemon.join().expect("daemon");
    assert_eq!(summary.shutdown, Shutdown::Destroyed);
    assert_eq!(summary.protocol_errors, 0);
    assert_eq!(server.dispatcher().open_handles(), 0, "handle leak");
}

/// A built image answers identically over the wire and via direct dispatch,
/// through the read-write `Session` server.
#[test]
fn wire_serve_matches_direct_dispatch_read_write() {
    let c = built_container();
    let cred = c.fs_creds();
    // Two fresh mounts of the same rootfs: identical snapshots.
    assert_wire_matches_direct(c.mount(), c.mount(), &cred);
}

/// The same generic server, now over the shared read-only image: identical
/// answers, and mutations come back as `EROFS` frames.
#[test]
fn wire_serve_matches_direct_dispatch_read_only() {
    let c = built_container();
    let cred = c.fs_creds();
    assert_wire_matches_direct(c.mount_readonly(), c.mount_readonly(), &cred);

    // Mutations over the read-only wire: EROFS, encoded as a negated errno.
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = c.serve_readonly(server_end);
    let daemon = thread::spawn(move || server.serve().map(|s| s.shutdown));
    let mut client = Client::new(client_end);
    let err = client
        .call(&Request::new(
            cred,
            Operation::Mkdir {
                parent: FUSE_ROOT_ID,
                name: "nope".into(),
                mode: hpcc_repro::vfs::Mode::DIR_755,
            },
        ))
        .expect("wire call")
        .err()
        .expect("mkdir on read-only image");
    assert_eq!(err, hpcc_repro::fuseproto::Errno::EROFS);
    drop(client);
    assert_eq!(daemon.join().unwrap().unwrap(), Shutdown::Disconnected);
}

/// A client that vanishes while holding open file and directory handles
/// leaks nothing: the server reclaims them at disconnect, on both flavors.
#[test]
fn client_disconnect_mid_handle_leaks_nothing() {
    let c = built_container();
    let cred = c.fs_creds();

    // Read-write flavor.
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = c.serve(server_end);
    let daemon = thread::spawn(move || {
        let summary = server.serve().expect("serve loop");
        (server, summary)
    });
    let mut client = Client::new(client_end);
    let mut ino = FUSE_ROOT_ID;
    for name in ["opt", "app", "data"] {
        ino = match client
            .call(&Request::new(
                cred.clone(),
                Operation::Lookup {
                    parent: ino,
                    name: name.into(),
                },
            ))
            .expect("wire call")
        {
            Reply::Entry(e) => e.ino,
            other => panic!("{other:?}"),
        };
    }
    assert!(client
        .call(&Request::new(
            cred.clone(),
            Operation::Open {
                ino,
                flags: OpenFlags::RDONLY,
            },
        ))
        .expect("wire call")
        .is_ok());
    assert!(client
        .call(&Request::new(
            cred.clone(),
            Operation::Opendir { ino: FUSE_ROOT_ID },
        ))
        .expect("wire call")
        .is_ok());
    drop(client); // hang up holding one file and one dir handle
    let (server, summary) = daemon.join().expect("daemon");
    assert_eq!(summary.shutdown, Shutdown::Disconnected);
    assert_eq!(server.dispatcher().open_handles(), 0, "rw handle leak");

    // Read-only flavor, same abandonment.
    let (server_end, client_end) = ChannelTransport::pair();
    let mut server = c.serve_readonly(server_end);
    let daemon = thread::spawn(move || {
        let summary = server.serve().expect("serve loop");
        (server, summary)
    });
    let mut client = Client::new(client_end);
    assert!(client
        .call(&Request::new(
            cred.clone(),
            Operation::Opendir { ino: FUSE_ROOT_ID },
        ))
        .expect("wire call")
        .is_ok());
    drop(client);
    let (server, summary) = daemon.join().expect("daemon");
    assert_eq!(summary.shutdown, Shutdown::Disconnected);
    assert_eq!(server.dispatcher().open_handles(), 0, "ro handle leak");
}
