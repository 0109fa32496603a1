//! Pins the cost of a cold `FROM`: the first build on a fresh builder, with
//! the cache off, launches its base image once. Launching the base tree in
//! place allocates about half as often as packing it into a tar, hashing it
//! and unpacking it again; a return of that round trip fails the ceilings
//! below.
//!
//! The counting allocator counts only the measuring thread's allocations,
//! as in `tests/cache_hit_allocations.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hpcc_repro::core::{default_subuid_for, BuildOptions, Builder};
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

fn alice() -> Invoker {
    Invoker::user("alice", 1000, 1000)
}

/// Allocations of a `FROM`-only build on a fresh builder from `builder`,
/// with the cache off and `options` otherwise as a build on that builder
/// takes them. A first, uncounted build fills the process-wide package
/// catalog of the base's distribution, which every later build shares.
fn cold_from_allocations(
    builder: impl Fn() -> Builder,
    reference: &str,
    options: BuildOptions,
) -> u64 {
    let text = format!("FROM {reference}\n");
    assert!(builder().build(&text, &options, None).success);
    let mut builder = builder();
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = builder.build(&text, &options, None);
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    assert!(report.success, "{}", report.transcript_text());
    assert_eq!(builder.base_env_memo().derivations(), 1);
    allocations
}

#[test]
fn a_cold_from_launches_its_base_tree_without_a_tar_round_trip() {
    let ch_image = |arch| BuildOptions::new("base").with_arch(arch).with_force();
    let ch = || Builder::ch_image(alice());
    let podman = || Builder::rootless_podman(alice(), default_subuid_for("alice"));
    // Each ceiling is the count with the base tree launched in place; the
    // tar round trip made 521, 565 and 615.
    let cases: [(&str, &dyn Fn() -> Builder, _, _, u64); 3] = [
        (
            "Type III centos:7",
            &ch,
            "centos:7",
            ch_image("x86_64"),
            273,
        ),
        (
            "Type III debian:buster",
            &ch,
            "debian:buster",
            ch_image("amd64"),
            296,
        ),
        (
            "Type II centos:7",
            &podman,
            "centos:7",
            BuildOptions::new("base"),
            264,
        ),
    ];
    for (case, builder, reference, options, ceiling) in cases {
        let allocations = cold_from_allocations(builder, reference, options);
        assert!(
            allocations <= ceiling,
            "{case}: a cold FROM made {allocations} allocations (ceiling {ceiling})"
        );
    }
}
