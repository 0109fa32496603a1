//! Serve a built image over the *wire*: a server thread pumps a Unix
//! socketpair into the container's filesystem session, and the client half
//! speaks nothing but byte frames — FUSE-shaped headers, opcodes, negated
//! errnos. The same generic `Server` then serves a read-only reader of the
//! shared frozen image over a second socketpair, through the same
//! `Dispatch` trait.
//!
//! Run with: `cargo run --example fuse_serve`

use std::thread;

use hpcc_repro::core::{BuildOptions, Builder};
use hpcc_repro::fuseproto::{
    unix_pair, Client, OpenFlags, Operation, Reply, Request, FUSE_ROOT_ID,
};
use hpcc_repro::image::{Image, ImageConfig};
use hpcc_repro::runtime::{Container, Invoker};

const DOCKERFILE: &str = "\
FROM centos:7
RUN mkdir -p /opt/app && echo 'served over the wire' > /opt/app/data
";

fn main() {
    // 1. Build and launch, as ever, unprivileged.
    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice.clone());
    let report = builder.build(DOCKERFILE, &BuildOptions::new("srv").with_force(), None);
    assert!(report.success, "build failed: {:?}", report.error);
    let built = builder.image("srv").expect("tagged image");
    let actor_creds = hpcc_repro::kernel::Credentials::host_root();
    let ns = hpcc_repro::kernel::UserNamespace::initial();
    let actor = hpcc_repro::vfs::Actor::new(&actor_creds, &ns);
    let image = Image::from_fs_preserved(
        "srv:latest",
        &built.fs,
        &actor,
        ImageConfig {
            architecture: "x86_64".to_string(),
            ..Default::default()
        },
    )
    .expect("image");
    let container = Container::launch_type3(&image, &alice).expect("launch");
    let cred = container.fs_creds();

    // 2. A Unix socketpair is the wire; the daemon half serves on a thread.
    let (daemon_end, client_end) = unix_pair().expect("socketpair");
    let mut server = container.serve(daemon_end);
    let daemon = thread::spawn(move || server.serve().expect("serve loop"));

    // 3. The client half: every call below is encoded to a byte frame,
    //    written to the socket, and matched to its reply by unique id.
    let mut client = Client::new(client_end);
    let opt = match client
        .call(&Request::new(
            cred.clone(),
            Operation::Lookup {
                parent: FUSE_ROOT_ID,
                name: "opt".into(),
            },
        ))
        .expect("wire call")
    {
        Reply::Entry(e) => e,
        other => panic!("{other:?}"),
    };
    let app = match client
        .call(&Request::new(
            cred.clone(),
            Operation::Lookup {
                parent: opt.ino,
                name: "app".into(),
            },
        ))
        .expect("wire call")
    {
        Reply::Entry(e) => e,
        other => panic!("{other:?}"),
    };
    println!("$ stat /opt/app -> ino {} over the socket", app.ino);

    let dh = match client
        .call(&Request::new(
            cred.clone(),
            Operation::Opendir { ino: app.ino },
        ))
        .expect("wire call")
    {
        Reply::Opened(o) => o,
        other => panic!("{other:?}"),
    };
    let entries = match client
        .call(&Request::new(
            cred.clone(),
            Operation::Readdir {
                fh: dh.fh,
                offset: 0,
                max: 100,
            },
        ))
        .expect("wire call")
    {
        Reply::Dir(entries) => entries,
        other => panic!("{other:?}"),
    };
    println!("$ ls /opt/app");
    for e in &entries {
        println!("  {:<8} ino {:<4} {:?}", e.name, e.ino, e.file_type);
    }

    let data = entries
        .iter()
        .find(|e| e.name == "data")
        .expect("data file");
    let fh = match client
        .call(&Request::new(
            cred.clone(),
            Operation::Open {
                ino: data.ino,
                flags: OpenFlags::RDONLY,
            },
        ))
        .expect("wire call")
    {
        Reply::Opened(o) => o.fh,
        other => panic!("{other:?}"),
    };
    match client
        .call(&Request::new(
            cred.clone(),
            Operation::Read {
                fh,
                offset: 0,
                size: 4096,
            },
        ))
        .expect("wire call")
    {
        Reply::Data(d) => println!(
            "$ cat /opt/app/data -> {:?}",
            String::from_utf8_lossy(d.as_slice())
        ),
        other => panic!("{other:?}"),
    }

    // 4. Unmount politely; the daemon reclaims the handle we never released.
    client.destroy().expect("destroy");
    let summary = daemon.join().expect("daemon thread");
    println!(
        "== daemon: {} requests, {} protocol errors, shutdown {:?} ==",
        summary.requests, summary.protocol_errors, summary.shutdown
    );

    // 5. Same loop, read-only flavor: a reader of the shared frozen image
    //    behind the identical Server — writes come back as EROFS frames.
    let (daemon_end, client_end) = unix_pair().expect("socketpair");
    let mut ro_server = container.serve_readonly(daemon_end);
    let ro_cred = ro_server.dispatcher().backend().cred().clone();
    let daemon = thread::spawn(move || {
        let summary = ro_server.serve().expect("serve loop");
        (ro_server, summary)
    });
    let mut client = Client::new(client_end);
    let err = client
        .call(&Request::new(
            ro_cred,
            Operation::Mkdir {
                parent: FUSE_ROOT_ID,
                name: "nope".into(),
                mode: hpcc_repro::vfs::Mode::DIR_755,
            },
        ))
        .expect("wire call")
        .err()
        .expect("EROFS");
    println!("== read-only serve: mkdir over the wire -> {err} ==");
    drop(client); // hang up without a destroy
    let (ro_server, summary) = daemon.join().expect("daemon thread");
    assert_eq!(ro_server.dispatcher().open_handles(), 0);
    println!(
        "== read-only daemon: shutdown {:?}, no leaked handles ==",
        summary.shutdown
    );
}
