//! Pins the zero-allocation property of cache-hit path resolution (ISSUE 4).
//!
//! The seed split every resolved path into a `Vec<String>` — at least one
//! heap allocation per component per syscall. After the borrowed
//! `PathComponents` + generation-stamped resolve cache, a **cache-hit
//! lookup performs zero heap allocations**: the probe borrows the raw path
//! string, the parent-chain access re-checks borrow inodes in place, and no
//! component is ever copied.
//!
//! The whole test binary runs under a counting global allocator that counts
//! only the measuring thread's allocations. The test harness's main thread
//! allocates when it gets round to waiting for the test, and on a loaded
//! two-core host it did so mid-measurement in up to 9 of 120 runs; those
//! allocations are not the resolver's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hpcc_repro::core::{centos7_dockerfile, BuildOptions, Builder};
use hpcc_repro::kernel::{Credentials, UserNamespace};
use hpcc_repro::runtime::Invoker;
use hpcc_repro::vfs::Actor;

/// Counts every allocation (and reallocation) made through the global
/// allocator by a thread that set [`COUNTING`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by the measuring thread. Const-initialized and without a
    /// destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn cache_hit_resolves_on_cold_centos7_build_do_not_allocate() {
    COUNTING.with(|c| c.set(true));
    // Cold CentOS 7 build (no instruction cache), as the acceptance
    // criterion specifies.
    let mut builder = Builder::ch_image(Invoker::user("alice", 1000, 1000));
    let report = builder.build(
        centos7_dockerfile(),
        &BuildOptions::new("c7").with_force(),
        None,
    );
    assert!(report.success, "{}", report.transcript_text());
    let fs = builder.image("c7").unwrap().fs.clone();

    let creds = Credentials::host_root();
    let ns = UserNamespace::initial();
    let actor = Actor::new(&creds, &ns);

    // Every path in the built image — files, directories, deep package
    // payloads — resolved once to warm the per-filesystem resolve cache.
    // (Paths through symlinks are uncacheable by design; resolve them too
    // and simply skip the zero-alloc assertion for them below.)
    let paths: Vec<String> = fs.walk().into_iter().map(|(p, _)| p).collect();
    assert!(paths.len() > 30, "expected a real image tree");
    let mut cacheable = Vec::new();
    for p in &paths {
        let Ok(first) = fs.resolve(&actor, p) else {
            continue;
        };
        // A second probe hitting the cache must agree with the walk.
        assert_eq!(fs.resolve(&actor, p).unwrap(), first);
        // Walk paths traverse real directories only, so the sole uncacheable
        // case is a final symlink (resolve/resolve_no_follow disagree on it).
        if fs.lstat(&actor, p).unwrap().file_type != hpcc_repro::vfs::FileType::Symlink {
            cacheable.push(p.clone());
        }
    }

    // Measured phase: repeated cache-hit lookups allocate nothing at all —
    // not per component, not per call.
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..8 {
        for p in &cacheable {
            std::hint::black_box(fs.resolve(&actor, p).unwrap());
        }
    }
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations,
        0,
        "{} heap allocations across {} cache-hit resolves",
        allocations,
        8 * cacheable.len()
    );
}
