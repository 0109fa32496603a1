//! Spans recorded from the benchmark's own code around calls into each
//! layer, plus the allocation counter the binary's global allocator feeds.
//!
//! Tracing is per thread and off unless [`enable`] was called on that
//! thread; a disabled [`span`] is a thread-local flag check and a call.
//! Each span records its layer, start, end, parent span and the build or
//! op id current when it opened. A layer's self time is its span minus the
//! part its child spans cover; self times and allocation counts are
//! aggregated as spans close, and the first [`MAX_KEPT_SPANS`] raw spans
//! stay in memory until [`write_spans`] writes them out at the end.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The layers spans are recorded for, named after this repository's
/// modules. Roots are the workloads' end-to-end units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Root: one `cold_build` pipeline.
    Pipeline,
    /// Root: one `ci_rebuild` wave.
    Wave,
    /// Root: one `serve_image` file load, store or metadata action.
    Op,
    /// `BuildIr::parse_with_args`.
    Frontend,
    /// `BuildGraph::plan`.
    Plan,
    /// Base environment: memo, distro base tree and launch.
    BaseEnv,
    /// `execute_stage` for every stage, then `store_artifact`.
    Execute,
    /// `Image::from_fs_flattened` / `_preserved`.
    Pack,
    /// `Registry::push`.
    Push,
    /// `Registry::pull`.
    Pull,
    /// `Container::launch_type2` / `launch_type3`.
    Launch,
    /// `BuildFarm::try_submit`.
    FarmSubmit,
    /// `BuildFarm::drain`.
    FarmDrain,
    /// `Client::send_request` / `recv_reply`.
    Client,
    /// One `Transport` call on either end.
    Transport,
    /// `Server::serve_one`.
    Server,
    /// `Dispatch::handle` of a lookup.
    DispatchLookup,
    /// `Dispatch::handle` of a getattr.
    DispatchGetattr,
    /// `Dispatch::handle` of an open.
    DispatchOpen,
    /// `Dispatch::handle` of a read.
    DispatchRead,
    /// `Dispatch::handle` of a readdir.
    DispatchReaddir,
    /// `Dispatch::handle` of a create.
    DispatchCreate,
    /// `Dispatch::handle` of a write.
    DispatchWrite,
    /// `Dispatch::handle` of an unlink.
    DispatchUnlink,
    /// `Dispatch::handle` of any other operation.
    DispatchOther,
}

/// Number of [`Layer`] values.
pub const LAYERS: usize = Layer::DispatchOther as usize + 1;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Pipeline,
        Layer::Wave,
        Layer::Op,
        Layer::Frontend,
        Layer::Plan,
        Layer::BaseEnv,
        Layer::Execute,
        Layer::Pack,
        Layer::Push,
        Layer::Pull,
        Layer::Launch,
        Layer::FarmSubmit,
        Layer::FarmDrain,
        Layer::Client,
        Layer::Transport,
        Layer::Server,
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

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pipeline => "cold_build.pipeline",
            Layer::Wave => "ci_rebuild.wave",
            Layer::Op => "serve_image.op",
            Layer::Frontend => "core.frontend",
            Layer::Plan => "core.plan",
            Layer::BaseEnv => "core.base_env",
            Layer::Execute => "core.execute",
            Layer::Pack => "image.pack",
            Layer::Push => "image.registry.push",
            Layer::Pull => "image.registry.pull",
            Layer::Launch => "runtime.launch",
            Layer::FarmSubmit => "farm.submit",
            Layer::FarmDrain => "farm.drain",
            Layer::Client => "fuseproto.client",
            Layer::Transport => "fuseproto.transport",
            Layer::Server => "fuseproto.server",
            Layer::DispatchLookup => "fuseproto.dispatch.lookup",
            Layer::DispatchGetattr => "fuseproto.dispatch.getattr",
            Layer::DispatchOpen => "fuseproto.dispatch.open",
            Layer::DispatchRead => "fuseproto.dispatch.read",
            Layer::DispatchReaddir => "fuseproto.dispatch.readdir",
            Layer::DispatchCreate => "fuseproto.dispatch.create",
            Layer::DispatchWrite => "fuseproto.dispatch.write",
            Layer::DispatchUnlink => "fuseproto.dispatch.unlink",
            Layer::DispatchOther => "fuseproto.dispatch.other",
        }
    }

    /// True for the workloads' end-to-end units.
    pub fn is_root(self) -> bool {
        matches!(self, Layer::Pipeline | Layer::Wave | Layer::Op)
    }
}

// ------------------------------------------------------ allocation counter

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations (and reallocations) while
/// counting is on, and otherwise only forwards to the system allocator.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far (process-wide; zero unless counting is on).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ------------------------------------------------------------------ spans

/// The first this many raw spans of a thread are kept for the trace file.
pub const MAX_KEPT_SPANS: usize = 1 << 18;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Layer.
    pub layer: Layer,
    /// Span id (1-based).
    pub id: u32,
    /// Parent span id, 0 for a root.
    pub parent: u32,
    /// Build or op id current when the span opened.
    pub unit: u64,
    /// Start since tracing was enabled (ticks in memory, ns when written).
    pub start_ns: u64,
    /// End since tracing was enabled (ticks in memory, ns when written).
    pub end_ns: u64,
    /// Allocations while the span was open, children included.
    pub allocs: u64,
}

/// Aggregates of one layer's closed spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub spans: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus child spans.
    pub self_ns: u64,
    /// Sum of allocations minus those of child spans.
    pub self_allocs: u64,
    /// Self time of the spans that closed inside a root span.
    pub rooted_self_ns: u64,
}

/// The tracing clock, in ticks. On x86-64 it reads the time-stamp counter,
/// which costs about half an `Instant::now()` on a virtual machine, so
/// spans disturb what they measure less; elsewhere a tick is a nanosecond.
#[inline]
fn now_ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC is part of the x86-64 baseline and has no
        // preconditions; it only reads the time-stamp counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per tick, measured against `Instant` over 20 ms.
fn ns_per_tick() -> f64 {
    let (t0, c0) = (Instant::now(), now_ticks());
    while t0.elapsed() < Duration::from_millis(20) {}
    let (ns, ticks) = (t0.elapsed().as_nanos() as f64, now_ticks() - c0);
    ns / ticks.max(1) as f64
}

/// An open span; times are in ticks.
struct Open {
    layer: Layer,
    id: u32,
    parent: u32,
    start: u64,
    allocs: u64,
    child_ticks: u64,
    child_allocs: u64,
}

/// One thread's tracing state. `totals` and `kept` hold ticks until they
/// are read out.
struct Tracer {
    epoch: u64,
    ns_per_tick: f64,
    stack: Vec<Open>,
    totals: [LayerTotals; LAYERS],
    kept: Vec<SpanRecord>,
    next_id: u32,
    unit: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing and allocation counting on for this thread.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            ns_per_tick: ns_per_tick(),
            epoch: now_ticks(),
            stack: Vec::with_capacity(64),
            totals: [LayerTotals::default(); LAYERS],
            kept: Vec::with_capacity(MAX_KEPT_SPANS),
            next_id: 0,
            unit: 0,
        })
    });
    ENABLED.with(|e| e.set(true));
    COUNTING.store(true, Ordering::Relaxed);
}

/// True when this thread traces.
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Sets the build or op id later spans on this thread carry.
pub fn set_unit(unit: u64) {
    if enabled() {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.unit = unit;
            }
        });
    }
}

/// Runs `f` inside a span of `layer` (just runs it when tracing is off).
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(layer);
    let out = f();
    close();
    out
}

fn open(layer: Layer) {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let t = guard.as_mut().expect("tracing enabled on this thread");
        t.next_id += 1;
        let parent = t.stack.last().map_or(0, |o| o.id);
        let id = t.next_id;
        t.stack.push(Open {
            layer,
            id,
            parent,
            start: now_ticks(),
            allocs: allocations(),
            child_ticks: 0,
            child_allocs: 0,
        });
    });
}

fn close() {
    let end = now_ticks();
    let allocs_now = allocations();
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let t = guard.as_mut().expect("tracing enabled on this thread");
        let o = t.stack.pop().expect("span closed without opening");
        let dur = end.saturating_sub(o.start);
        let self_ticks = dur.saturating_sub(o.child_ticks);
        let allocs = allocs_now - o.allocs;
        let rooted = t.stack.iter().any(|open| open.layer.is_root());
        let totals = &mut t.totals[o.layer as usize];
        totals.spans += 1;
        totals.total_ns += dur;
        totals.self_ns += self_ticks;
        if rooted {
            totals.rooted_self_ns += self_ticks;
        }
        totals.self_allocs += allocs.saturating_sub(o.child_allocs);
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ticks += dur;
            parent.child_allocs += allocs;
        }
        if t.kept.len() < MAX_KEPT_SPANS {
            t.kept.push(SpanRecord {
                layer: o.layer,
                id: o.id,
                parent: o.parent,
                unit: t.unit,
                start_ns: o.start.saturating_sub(t.epoch),
                end_ns: end.saturating_sub(t.epoch),
                allocs,
            });
        }
    });
}

/// Adds `n` to this thread's count of bytes moved through a transport.
pub fn count_bytes(n: usize) {
    BYTES.with(|b| b.set(b.get() + n as u64));
}

/// Bytes this thread counted with [`count_bytes`].
pub fn bytes() -> u64 {
    BYTES.with(|b| b.get())
}

/// This thread's per-layer totals so far (all zero when tracing is off).
pub fn totals() -> [LayerTotals; LAYERS] {
    TRACER.with(|t| {
        let guard = t.borrow();
        let Some(t) = guard.as_ref() else {
            return [LayerTotals::default(); LAYERS];
        };
        let ns = |ticks: u64| (ticks as f64 * t.ns_per_tick) as u64;
        t.totals.map(|l| LayerTotals {
            total_ns: ns(l.total_ns),
            self_ns: ns(l.self_ns),
            rooted_self_ns: ns(l.rooted_self_ns),
            ..l
        })
    })
}

/// Writes this thread's kept spans to `path` as JSON lines.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    let (kept, ns_per_tick) = TRACER.with(|t| {
        t.borrow_mut().as_mut().map_or((Vec::new(), 1.0), |t| {
            (std::mem::take(&mut t.kept), t.ns_per_tick)
        })
    });
    let ns = |ticks: u64| (ticks as f64 * ns_per_tick) as u64;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &kept {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
            s.layer.name(),
            s.id,
            s.parent,
            s.unit,
            ns(s.start_ns),
            ns(s.end_ns),
            s.allocs
        )?;
    }
    out.flush()
}
