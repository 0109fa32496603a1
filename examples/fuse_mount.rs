//! Build a multi-stage image end to end, then serve it through the
//! FUSE-style operation protocol: `Container::mount()` returns a `Session`
//! and every access below is a typed `lookup`/`getattr`/`opendir`/`readdir`/
//! `open`/`read` op with per-request credentials — no path-string VFS calls,
//! and `read` replies share the image's bytes copy-on-write (no copy).
//!
//! Run with: `cargo run --example fuse_mount`

use hpcc_repro::core::{BuildOptions, Builder};
use hpcc_repro::fuseproto::{Dispatch, FsCreds, OpenFlags, Operation, Reply, Request};
use hpcc_repro::image::{Image, ImageConfig};
use hpcc_repro::runtime::{Container, Invoker};

const MULTISTAGE: &str = "\
FROM centos:7 AS builder
RUN yum install -y gcc
RUN mkdir -p /opt/app && echo 'simulated payload' > /opt/app/data
RUN gcc -O2 -o /opt/app/run main.c

FROM centos:7
COPY --from=builder /opt/app /opt/app
RUN echo ready > /opt/app/marker
";

fn main() {
    // 1. Build the multi-stage image with the unprivileged (Type III)
    //    builder, exactly as the paper's workflow does.
    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice.clone());
    let report = builder.build(
        MULTISTAGE,
        &BuildOptions::new("app").with_force().with_cache(),
        None,
    );
    assert!(report.success, "build failed: {:?}", report.error);
    println!(
        "== built {} stages ({} instructions in final stage) ==",
        report.stages.len(),
        report
            .stages
            .last()
            .map(|s| s.instructions_total)
            .unwrap_or(0)
    );

    // 2. Launch it as a container and mount the served filesystem.
    let built = builder.image("app").expect("tagged image");
    let actor_creds = hpcc_repro::kernel::Credentials::host_root();
    let ns = hpcc_repro::kernel::UserNamespace::initial();
    let actor = hpcc_repro::vfs::Actor::new(&actor_creds, &ns);
    let image = Image::from_fs_preserved(
        "app:latest",
        &built.fs,
        &actor,
        ImageConfig {
            architecture: "x86_64".to_string(),
            ..Default::default()
        },
    )
    .expect("image");
    let container = Container::launch_type3(&image, &alice).expect("launch");
    let mut session = container.mount();
    let cred = container.fs_creds();

    let statfs = session.statfs(&cred).unwrap();
    println!(
        "== mounted: {} inodes, {} file bytes, ro={} ==",
        statfs.inodes, statfs.bytes, statfs.readonly
    );

    // 3. stat via lookup chain (the kernel's path walk over the protocol).
    let app = session.resolve_path(&cred, "/opt/app", true).unwrap();
    println!(
        "$ stat /opt/app -> ino {} type {:?} uid(view) {}",
        app.ino, app.attr.file_type, app.attr.uid.0
    );

    // 4. readdir through an opendir cursor.
    let dh = session.opendir(&cred, app.ino).unwrap();
    let entries = session.readdir(&cred, dh.fh, 0, 100).unwrap();
    println!("$ ls /opt/app");
    for e in &entries {
        println!("  {:<10} ino {:<4} {:?}", e.name, e.ino, e.file_type);
    }
    session.releasedir(&cred, dh.fh).unwrap();
    assert!(entries.iter().any(|e| e.name == "data"));
    assert!(entries.iter().any(|e| e.name == "run"));
    assert!(entries.iter().any(|e| e.name == "marker"));

    // 5. open + read — and prove the reply is zero-copy: the reply's bytes
    //    handle shares its buffer with the container's rootfs.
    let data = session.lookup(&cred, app.ino, "data").unwrap();
    let opened = session.open(&cred, data.ino, OpenFlags::RDONLY).unwrap();
    let reply = session.read(&cred, opened.fh, 0, 4096).unwrap();
    println!(
        "$ cat /opt/app/data -> {:?}",
        String::from_utf8_lossy(reply.as_slice())
    );
    let direct = container
        .rootfs
        .file_bytes(&container.actor(), "/opt/app/data")
        .unwrap();
    assert!(
        reply.bytes().shares_buffer_with(&direct),
        "read must share the image's bytes, not copy them"
    );
    println!("   (FileBytes shared with the image: zero-copy read)");
    session.release(&cred, opened.fh).unwrap();
    assert_eq!(session.open_handles(), 0);

    // 6. The same traffic as a queued request stream — what a network
    //    backend or real FUSE channel would deliver.
    let replies = session.handle_all([
        Request::new(
            cred.clone(),
            Operation::Lookup {
                parent: app.ino,
                name: "marker".into(),
            },
        ),
        Request::new(cred.clone(), Operation::Statfs),
        Request::new(
            cred.clone(),
            Operation::Lookup {
                parent: app.ino,
                name: "missing".into(),
            },
        ),
    ]);
    println!("== queued dispatch: {} replies ==", replies.len());
    assert!(matches!(replies[0], Reply::Entry(_)));
    assert!(matches!(replies[1], Reply::Statfs(_)));
    assert_eq!(replies[2].err().map(|e| e.code()), Some(2)); // ENOENT
    println!("  lookup(marker) ok, statfs ok, lookup(missing) -> ENOENT");

    // 7. And a read-only mount refuses writes with EROFS. Read-only mounts
    //    are shared-image readers: every `mount_readonly()` serves the same
    //    frozen snapshot (see examples/concurrent_serve.rs for the
    //    many-threads version).
    let ro = container.mount_readonly();
    let err = ro
        .mkdir(&cred, ro.root_ino(), "nope", hpcc_repro::vfs::Mode::DIR_755)
        .unwrap_err();
    println!("== read-only mount: mkdir -> {} ==", err);

    // A different requester is subject to permission checks server-side.
    let nobody = FsCreds::new(
        hpcc_repro::kernel::Uid(65534),
        hpcc_repro::kernel::Gid(65534),
        vec![],
    );
    let via_nobody = session.resolve_path(&nobody, "/opt/app/data", true);
    println!(
        "== as nobody: resolve /opt/app/data -> {:?} ==",
        via_nobody.map(|e| e.ino)
    );
}
