//! Pins the cost of a build-cache hit: a fully cached rebuild allocates a
//! bounded number of times per instruction, however large the image's
//! config and fakeroot lie database have grown.
//!
//! A hit adopts the cached filesystem, config and lie database by
//! reference count and streams its key into SHA-256. If a hit deep-copied
//! the config or lie database, or formatted its key, each hit's allocations
//! would grow with the number of `ENV` lines and lies before it, and a
//! whole rebuild would allocate quadratically.
//!
//! The counting allocator counts only the measuring thread's allocations,
//! as in `tests/resolve_allocations.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hpcc_repro::core::{centos7_dockerfile, BuildOptions, Builder};
use hpcc_repro::runtime::Invoker;

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

/// Allocations per instruction a fully cached rebuild may make: parse,
/// plan, the transcript line, and the per-build fixed costs spread over the
/// instructions. Deep-copying the config or lie database on every hit
/// exceeds it already at eight `ENV` lines.
const MAX_ALLOCS_PER_INSTRUCTION: f64 = 24.0;

/// The Figure 2 Dockerfile, a second `RUN` that `--force` wraps in fakeroot
/// (adding to the lie database), then `env_lines` `ENV` instructions, each
/// cached on top of everything before it.
fn dockerfile(env_lines: usize) -> String {
    let mut text = centos7_dockerfile().to_string();
    text.push_str("RUN yum install -y gcc openmpi\n");
    for i in 0..env_lines {
        text.push_str(&format!("ENV STACK_VAR_{i}=/opt/stack/{i}\n"));
    }
    text
}

/// Allocations per instruction of a fully cached `ch-image --force`
/// rebuild of [`dockerfile`], and the size of the lie database it carries.
fn cached_rebuild_allocations(env_lines: usize) -> (f64, usize) {
    let mut builder = Builder::ch_image(Invoker::user("alice", 1000, 1000));
    let options = BuildOptions::new("c7").with_force().with_cache();
    let text = dockerfile(env_lines);
    let first = builder.build(&text, &options, None);
    assert!(first.success, "{}", first.transcript_text());
    let lies = builder.image("c7").unwrap().fakeroot_db.len();

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = builder.build(&text, &options, None);
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));

    assert!(report.success, "{}", report.transcript_text());
    assert_eq!(report.cache_misses, 0, "{}", report.transcript_text());
    assert_eq!(report.cache_hits, report.instructions_total);
    (allocations as f64 / report.instructions_total as f64, lies)
}

#[test]
fn cached_rebuild_allocations_per_instruction_do_not_grow_with_the_image() {
    let (small, lies) = cached_rebuild_allocations(8);
    let (large, _) = cached_rebuild_allocations(64);
    assert!(lies > 0, "the wrapped RUN recorded no lies");
    assert!(
        small <= MAX_ALLOCS_PER_INSTRUCTION,
        "{small:.1} allocations per instruction with 8 ENV lines (ceiling {MAX_ALLOCS_PER_INSTRUCTION})"
    );
    assert!(
        large <= small,
        "{large:.1} allocations per instruction with 64 ENV lines vs {small:.1} with 8"
    );
}
