//! Build an image once, then serve it to many concurrent reader threads
//! through the shared-image stack: one `SharedImage` (one inode table, one
//! copy-on-write byte store, one pre-warmed lock-free resolve index) and a
//! cheap reader `Session` per thread. Every thread runs full
//! `resolve → open → read → release` cycles with its own credentials and
//! handle table; the hot path takes no global lock, so aggregate throughput
//! holds as readers are added — the paper's "many jobs read one image from
//! shared storage" end state.
//!
//! Run with: `cargo run --release --example concurrent_serve`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hpcc_repro::core::{BuildOptions, Builder};
use hpcc_repro::fuseproto::OpenFlags;
use hpcc_repro::runtime::{Container, Invoker};

const DOCKERFILE: &str = "\
FROM centos:7
RUN yum install -y openssh
RUN mkdir -p /opt/app && echo 'simulated payload' > /opt/app/data
";

const READERS: usize = 16;
const CYCLES_PER_READER: usize = 5_000;

fn main() {
    // 1. Build the image with the unprivileged (Type III) builder.
    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice.clone());
    let report = builder.build(DOCKERFILE, &BuildOptions::new("serve").with_force(), None);
    assert!(
        report.success,
        "build failed:\n{}",
        report.transcript_text()
    );
    let built = builder.image("serve").expect("tagged image");

    // 2. Launch a container and freeze its rootfs for concurrent serving.
    let actor_creds = hpcc_repro::kernel::Credentials::host_root();
    let ns = hpcc_repro::kernel::UserNamespace::initial();
    let actor = hpcc_repro::vfs::Actor::new(&actor_creds, &ns);
    let image = hpcc_repro::image::Image::from_fs_preserved(
        "serve:latest",
        &built.fs,
        &actor,
        hpcc_repro::image::ImageConfig {
            architecture: "x86_64".to_string(),
            ..Default::default()
        },
    )
    .expect("image");
    let container = Container::launch_type3(&image, &alice).expect("launch");
    let shared = container.shared_image();
    println!(
        "== frozen image: {} inodes, {} indexed paths ==",
        shared.filesystem().inode_count(),
        shared.indexed_paths()
    );

    // 3. Pick the regular files every reader will cycle over.
    let paths: Vec<String> = container
        .rootfs
        .walk()
        .into_iter()
        .filter(|(_, ino)| {
            container
                .rootfs
                .inode(*ino)
                .map(|i| i.is_file())
                .unwrap_or(false)
        })
        .map(|(path, _)| path)
        .collect();
    assert!(!paths.is_empty());
    println!("== serving {} files to {} readers ==", paths.len(), READERS);

    // 4. One reader session per thread, all over the same image: full
    //    resolve/open/read/release cycles, counted in aggregate.
    let total_bytes = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..READERS {
            let cred = container.fs_creds();
            let reader = shared.reader(cred.clone());
            let paths = &paths;
            let total_bytes = &total_bytes;
            s.spawn(move || {
                let mut bytes = 0u64;
                for i in 0..CYCLES_PER_READER {
                    let path = &paths[(t + i) % paths.len()];
                    let entry = reader.resolve_path(&cred, path, true).expect("resolve");
                    let o = reader
                        .open(&cred, entry.ino, OpenFlags::RDONLY)
                        .expect("open");
                    let data = reader.read(&cred, o.fh, 0, u32::MAX).expect("read");
                    bytes += data.len() as u64;
                    reader.release(&cred, o.fh).expect("release");
                }
                assert_eq!(reader.open_handles(), 0, "reader {t} leaked handles");
                total_bytes.fetch_add(bytes, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();

    // 5. Aggregate throughput: 4 protocol ops per cycle.
    let total_ops = (READERS * CYCLES_PER_READER * 4) as f64;
    let ops_per_sec = total_ops / elapsed.as_secs_f64();
    println!(
        "== {} readers x {} cycles: {:.0} ops ({:.1} MiB served zero-copy) in {:.2?} ==",
        READERS,
        CYCLES_PER_READER,
        total_ops,
        total_bytes.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0),
        elapsed
    );
    println!("== aggregate: {:.2} Mops/s ==", ops_per_sec / 1e6);
}
