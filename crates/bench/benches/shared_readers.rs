//! Many-readers serving bench (ISSUE 6): one built CentOS 7 image frozen
//! into a [`SharedImage`], served to 1 / 8 / 32 / 64 reader threads running
//! full `resolve → open → read → release` cycles.
//!
//! `shared_read/per_cycle_1thread` measures one cycle on one thread — the
//! contention-free reference. The `cycle_batch_*` rows measure a whole
//! thread batch per iteration (T threads × `SHARED_READ_CYCLES_PER_THREAD`
//! cycles each); dividing the batch mean by the total cycle count gives the
//! aggregate per-cycle cost under contention. `bench_gate --relative`
//! compares the 8-thread figure against the single-thread one on the same
//! run, so the check holds on any runner regardless of core count: the hot
//! path takes no global lock, so per-cycle cost must not balloon as readers
//! are added. See PERF.md §8 for recorded numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hpcc_bench::{alice, SHARED_READ_CYCLES_PER_THREAD, SHARED_READ_GATED_THREADS};
use hpcc_core::{centos7_dockerfile, BuildOptions, Builder};
use hpcc_fuseproto::{FrozenImage, FsCreds, OpenFlags, Session, SharedImage};
use hpcc_kernel::UserNamespace;

/// Builds the standard CentOS 7 image and freezes it for shared serving,
/// returning the image plus every regular-file path readers will cycle
/// over.
fn built_centos7_shared() -> (SharedImage, Vec<String>) {
    let mut builder = Builder::ch_image(alice());
    let r = builder.build(
        centos7_dockerfile(),
        &BuildOptions::new("c7").with_force(),
        None,
    );
    assert!(r.success, "{}", r.transcript_text());
    let fs = builder.image("c7").unwrap().fs.clone();
    let paths: Vec<String> = fs
        .walk()
        .into_iter()
        .filter(|(_, ino)| fs.inode(*ino).map(|i| i.is_file()).unwrap_or(false))
        .map(|(path, _)| path)
        .collect();
    assert!(!paths.is_empty());
    let image = SharedImage::new(fs, UserNamespace::initial());
    (image, paths)
}

/// One full protocol cycle: resolve a path, open it, read up to 4 KiB,
/// release. Returns the bytes served so the work cannot be optimized away.
fn one_cycle(reader: &Session<FrozenImage>, cred: &FsCreds, path: &str) -> u64 {
    let entry = reader.resolve_path(cred, path, true).expect("resolve");
    let opened = reader
        .open(cred, entry.ino, OpenFlags::RDONLY)
        .expect("open");
    let served = reader.read(cred, opened.fh, 0, 4096).expect("read").len() as u64;
    reader.release(cred, opened.fh).expect("release");
    served
}

/// Runs `cycles` cycles rotating through `paths` starting at `salt`.
fn run_cycles(reader: &Session<FrozenImage>, paths: &[String], cycles: usize, salt: usize) -> u64 {
    let cred = reader.backend().cred();
    let mut served = 0u64;
    for i in 0..cycles {
        served += one_cycle(reader, cred, &paths[(salt + i) % paths.len()]);
    }
    served
}

fn bench_shared_readers(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_read");
    let (image, paths) = built_centos7_shared();

    // Contention-free reference: one cycle per iteration, one thread.
    let reader = image.reader(FsCreds::root());
    let mut turn = 0usize;
    group.bench_function("per_cycle_1thread", |b| {
        b.iter(|| {
            turn = turn.wrapping_add(1);
            black_box(run_cycles(&reader, &paths, 1, turn))
        })
    });

    // Thread batches: one iteration = T readers (own session each, same
    // image) × SHARED_READ_CYCLES_PER_THREAD cycles. Per-cycle cost =
    // mean / (T × cycles); bench_gate compares the 8-thread row.
    for threads in [SHARED_READ_GATED_THREADS, 32, 64] {
        group.bench_function(format!("cycle_batch_{threads}threads"), |b| {
            b.iter(|| {
                let served: u64 = std::thread::scope(|s| {
                    let workers: Vec<_> = (0..threads)
                        .map(|t| {
                            let reader = image.reader(FsCreds::root());
                            let paths = &paths;
                            s.spawn(move || {
                                run_cycles(&reader, paths, SHARED_READ_CYCLES_PER_THREAD, t * 31)
                            })
                        })
                        .collect();
                    workers.into_iter().map(|w| w.join().unwrap()).sum()
                });
                black_box(served)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shared_readers);
criterion_main!(benches);
