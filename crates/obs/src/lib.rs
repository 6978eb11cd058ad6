//! **snn-obs** — span-based tracing with a lock-free per-thread
//! **flight recorder** for the neurosnn workspace.
//!
//! Every instrumented stage of a pipeline opens a [`SpanGuard`]; when
//! the guard drops, one fixed-size record
//! `(trace_id, span_id, parent, name, t_start, t_end, payload)` is
//! written into a preallocated ring buffer owned by the recording
//! thread. The rings are *flight recorders*: they hold the most recent
//! spans (drop-oldest), so the cost of tracing is flat regardless of
//! how long the process runs, and a crash or a slow request can always
//! be explained from the last few thousand events.
//!
//! # Design constraints
//!
//! * **Zero allocation and zero locking on the hot path.** Each thread
//!   writes to its own ring through a seqlock protocol built entirely
//!   from `AtomicU64` slots — recording a span is a handful of relaxed
//!   stores. The only lock in the crate guards the ring *registry* and
//!   the name-intern table, both touched once per thread / once per
//!   distinct span name (the warm-up), never per span. The
//!   `tests/zero_alloc.rs` suite pins this with a counting global
//!   allocator across 1/2/4 concurrent recording threads.
//! * **A single relaxed atomic check when tracing is off.** With
//!   [`set_enabled`]`(false)`, [`span`] returns a disarmed guard after
//!   one `Relaxed` load — no timestamps, no thread-local access, no
//!   ring write. `bench_serve` asserts this keeps scheduler drain
//!   throughput within 2% of an untraced build.
//! * **Readers never stall writers.** [`snapshot`] and [`trace_events`]
//!   walk the rings with seqlock validation: a slot overwritten
//!   mid-read is detected by its sequence word and skipped, so export
//!   endpoints can run while every worker keeps recording.
//!
//! # Trace propagation
//!
//! A *trace* groups the spans of one logical request. Mint an ID with
//! [`next_trace_id`] at admission, then either
//!
//! * open child spans explicitly with [`span_in`] /
//!   [`record_span_parts`] (works across threads: collators and
//!   workers stamp spans for a request they never originated), or
//! * install a thread-local context with [`with_trace`] so downstream
//!   code that knows nothing about the request — e.g. the per-layer
//!   hooks inside `snn-core`'s `Network::forward_into` — can attach
//!   spans via plain [`span`] calls.
//!
//! Spans from all rings are merged by [`trace_events`], and
//! [`chrome_trace_json`] renders any event set as Chrome trace-event
//! JSON loadable in Perfetto or `chrome://tracing`.
//!
//! # Example
//!
//! ```
//! let trace = snn_obs::next_trace_id();
//! let root = {
//!     let mut root = snn_obs::span_in("request", trace, 0);
//!     let _ctx = snn_obs::with_trace(trace, root.id());
//!     {
//!         let mut child = snn_obs::span("inference");
//!         child.set_payload(42); // e.g. batch occupancy
//!     }
//!     root.id()
//! };
//! let events = snn_obs::trace_events(trace);
//! assert_eq!(events.len(), 2);
//! assert!(events.iter().any(|e| e.name == "inference" && e.parent == root));
//! ```

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod chrome;
pub mod provenance;

pub use chrome::chrome_trace_json;

// ─── global switches and ID mints ────────────────────────────────────

static ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Capacity (in spans) for rings created *after* the call; default 4096.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(4096);

/// Turns recording on or off process-wide. Disabled guards cost one
/// relaxed atomic load and write nothing. Tracing starts enabled.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mints a fresh nonzero trace ID (process-unique, monotonic).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// Mints a fresh nonzero span ID (process-unique, monotonic).
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Sets the per-thread ring capacity (clamped to `64..=1 << 20`) for
/// rings created by threads that have not recorded yet. Existing rings
/// keep their size; call this at process start (e.g. in tests that
/// exercise eviction) before any span is recorded.
pub fn set_ring_capacity(spans: usize) {
    RING_CAPACITY.store(spans.clamp(64, 1 << 20), Ordering::Relaxed);
}

/// Nanoseconds since the first clock read in this process. Monotonic,
/// shared by every span so cross-thread timestamps are comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ─── name interning ──────────────────────────────────────────────────
//
// Span names are `&'static str`; a ring slot stores a small integer ID
// instead of a pointer. The fast path resolves a name to its ID by
// pointer+length equality against a fixed lock-free cache (string
// literals are deduplicated per binary, so the same call site always
// hits); the slow path — taken once per distinct name — falls back to
// content equality under the table lock.

const NAME_CACHE: usize = 128;
static NAME_PTRS: [AtomicUsize; NAME_CACHE] = [const { AtomicUsize::new(0) }; NAME_CACHE];
static NAME_LENS: [AtomicUsize; NAME_CACHE] = [const { AtomicUsize::new(0) }; NAME_CACHE];
static NAME_COUNT: AtomicUsize = AtomicUsize::new(0);

fn name_table() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern(name: &'static str) -> u32 {
    let ptr = name.as_ptr() as usize;
    let len = name.len();
    let published = NAME_COUNT.load(Ordering::Acquire).min(NAME_CACHE);
    for (i, (p, l)) in NAME_PTRS.iter().zip(&NAME_LENS).enumerate().take(published) {
        if p.load(Ordering::Relaxed) == ptr && l.load(Ordering::Relaxed) == len {
            return (i + 1) as u32;
        }
    }
    intern_slow(name, ptr, len)
}

#[cold]
fn intern_slow(name: &'static str, ptr: usize, len: usize) -> u32 {
    let mut names = name_table().lock().expect("name table poisoned");
    if let Some(i) = names.iter().position(|&n| n == name) {
        return (i + 1) as u32;
    }
    names.push(name);
    let i = names.len() - 1;
    if i < NAME_CACHE {
        NAME_PTRS[i].store(ptr, Ordering::Relaxed);
        NAME_LENS[i].store(len, Ordering::Relaxed);
        NAME_COUNT.store(names.len().min(NAME_CACHE), Ordering::Release);
    }
    (i + 1) as u32
}

fn resolve_name(id: u32) -> &'static str {
    let names = name_table().lock().expect("name table poisoned");
    names.get(id as usize - 1).copied().unwrap_or("?")
}

// ─── the ring ────────────────────────────────────────────────────────

/// One recorded span, read back out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace this span belongs to (nonzero).
    pub trace: u64,
    /// This span's ID.
    pub span: u64,
    /// Parent span ID, `0` for a root span.
    pub parent: u64,
    /// Interned span name.
    pub name: &'static str,
    /// Recorder-assigned ID of the thread that wrote the span.
    pub thread: u32,
    /// Start, nanoseconds since [`now_ns`]'s epoch.
    pub start_ns: u64,
    /// End, nanoseconds since [`now_ns`]'s epoch.
    pub end_ns: u64,
    /// Free-form 64-bit payload (e.g. batch size, event-density ppm).
    pub payload: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds (saturating).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One ring slot: a seqlock word plus seven payload words, all plain
/// atomics, so readers and the writer never touch a lock and torn reads
/// are detected rather than undefined.
struct Slot {
    /// `2·h + 1` while slot for head position `h` is being written,
    /// `2·h + 2` once complete, `0` if never written. Strictly
    /// increasing per slot, so a reader that sees the same even value
    /// before and after its field loads observed a consistent record.
    seq: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    /// `name_id << 32 | thread_id`.
    meta: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    payload: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Next write position; only the owning thread advances it.
    head: AtomicU64,
    thread_id: u32,
}

impl Ring {
    fn new(capacity: usize, thread_id: u32) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                trace: AtomicU64::new(0),
                span: AtomicU64::new(0),
                parent: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
                payload: AtomicU64::new(0),
            })
            .collect();
        Ring {
            slots,
            head: AtomicU64::new(0),
            thread_id,
        }
    }

    /// Single-writer append: drop-oldest, no allocation, no locks.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        trace: u64,
        span: u64,
        parent: u64,
        name_id: u32,
        start: u64,
        end: u64,
        payload: u64,
    ) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        // Seqlock write: odd marks the slot torn; the final even store
        // (Release) publishes the fields it happens-before.
        slot.seq.store(2 * h + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.span.store(span, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.meta.store(
            (name_id as u64) << 32 | self.thread_id as u64,
            Ordering::Relaxed,
        );
        slot.start.store(start, Ordering::Relaxed);
        slot.end.store(end, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Seqlock read of every stable slot; torn slots are skipped.
    fn read_into(&self, out: &mut Vec<SpanEvent>) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let span = slot.span.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let start = slot.start.load(Ordering::Relaxed);
            let end = slot.end.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten mid-read
            }
            out.push(SpanEvent {
                trace,
                span,
                parent,
                name: resolve_name((meta >> 32) as u32),
                thread: meta as u32,
                start_ns: start,
                end_ns: end,
                payload,
            });
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    /// (trace, parent-span) inherited by plain [`span`] calls.
    static CTX: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Runs `f` against this thread's ring, creating and registering the
/// ring on first use (the only allocating / locking step, once per
/// thread). The ring is kept alive by the registry after thread exit so
/// its spans stay readable.
fn with_ring<R>(f: impl FnOnce(&Ring) -> R) -> R {
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut rings = registry().lock().expect("ring registry poisoned");
            let ring = Arc::new(Ring::new(
                RING_CAPACITY.load(Ordering::Relaxed),
                rings.len() as u32,
            ));
            rings.push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

// ─── trace context ───────────────────────────────────────────────────

/// Restores the previous thread-local trace context on drop. Returned
/// by [`with_trace`]; deliberately `!Send`.
pub struct CtxGuard {
    prev: (u64, u64),
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Installs `(trace, parent)` as this thread's ambient trace context
/// until the returned guard drops. Downstream [`span`] calls attach to
/// it without any API threading.
pub fn with_trace(trace: u64, parent: u64) -> CtxGuard {
    let prev = CTX.with(|c| c.replace((trace, parent)));
    CtxGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// This thread's ambient `(trace, parent-span)`; `(0, 0)` when no
/// context is installed.
pub fn current() -> (u64, u64) {
    CTX.with(|c| c.get())
}

// ─── span guards ─────────────────────────────────────────────────────

/// An open span: records one flight-recorder entry when dropped.
/// Disarmed guards (tracing off, or no trace in scope) record nothing.
pub struct SpanGuard {
    trace: u64,
    span: u64,
    parent: u64,
    name_id: u32,
    start: u64,
    payload: u64,
}

impl SpanGuard {
    /// This span's ID (0 when disarmed) — pass as `parent` to children.
    pub fn id(&self) -> u64 {
        self.span
    }

    /// Whether the guard will record on drop.
    pub fn is_armed(&self) -> bool {
        self.trace != 0
    }

    /// Attaches a 64-bit payload (batch size, density ppm, byte count —
    /// by convention of the call site).
    pub fn set_payload(&mut self, payload: u64) {
        self.payload = payload;
    }

    const DISARMED: SpanGuard = SpanGuard {
        trace: 0,
        span: 0,
        parent: 0,
        name_id: 0,
        start: 0,
        payload: 0,
    };
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.trace == 0 {
            return;
        }
        let end = now_ns();
        let (trace, span, parent, name_id, start, payload) = (
            self.trace,
            self.span,
            self.parent,
            self.name_id,
            self.start,
            self.payload,
        );
        with_ring(|ring| ring.record(trace, span, parent, name_id, start, end, payload));
    }
}

/// Opens a span under the ambient [`with_trace`] context. Returns a
/// disarmed no-op guard when tracing is disabled or no context is
/// installed — the disabled check is a single relaxed atomic load.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::DISARMED;
    }
    let (trace, parent) = current();
    if trace == 0 {
        return SpanGuard::DISARMED;
    }
    SpanGuard {
        trace,
        span: next_span_id(),
        parent,
        name_id: intern(name),
        start: now_ns(),
        payload: 0,
    }
}

/// Opens a span under an explicit trace/parent (use `parent = 0` for a
/// root span). Disarmed when tracing is disabled or `trace == 0`.
pub fn span_in(name: &'static str, trace: u64, parent: u64) -> SpanGuard {
    if !enabled() || trace == 0 {
        return SpanGuard::DISARMED;
    }
    SpanGuard {
        trace,
        span: next_span_id(),
        parent,
        name_id: intern(name),
        start: now_ns(),
        payload: 0,
    }
}

/// Records a fully-specified span in one call — for stages measured
/// across threads (e.g. queue wait: submitted on the acceptor, stamped
/// by the collator) where a guard's open/drop discipline doesn't fit.
/// Use [`next_span_id`] for `span` if children will reference it.
#[allow(clippy::too_many_arguments)]
pub fn record_span_parts(
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    payload: u64,
) {
    if !enabled() || trace == 0 {
        return;
    }
    let name_id = intern(name);
    with_ring(|ring| ring.record(trace, span, parent, name_id, start_ns, end_ns, payload));
}

// ─── reading the recorder ────────────────────────────────────────────

/// Every stable span currently held by any ring, sorted by start time.
/// Readers never block writers; slots overwritten mid-read are skipped.
pub fn snapshot() -> Vec<SpanEvent> {
    let rings: Vec<Arc<Ring>> = registry()
        .lock()
        .expect("ring registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut out = Vec::new();
    for ring in rings {
        ring.read_into(&mut out);
    }
    out.sort_by_key(|e| (e.start_ns, e.span));
    out
}

/// The spans of one trace still resident in the flight recorder,
/// sorted by start time. Empty when the trace is unknown or its spans
/// have been evicted (drop-oldest).
pub fn trace_events(trace: u64) -> Vec<SpanEvent> {
    let mut events = snapshot();
    events.retain(|e| e.trace == trace);
    events
}

// ─── per-layer aggregates ────────────────────────────────────────────
//
// The forward/backward layer hooks live in `snn-core`, but the gauges
// they feed are rendered by `snn-serve`'s `/metrics`. This tiny
// fixed-size aggregate is the bridge: hooks store the latest per-layer
// event density here (lock-free), the exporter reads it.

/// Number of layers tracked by [`record_layer_density`].
pub const MAX_LAYER_STATS: usize = 16;

/// Latest density in ppm, stored as `ppm + 1` so `0` means "never set".
static LAYER_DENSITY_PPM: [AtomicU64; MAX_LAYER_STATS] =
    [const { AtomicU64::new(0) }; MAX_LAYER_STATS];

/// Records the latest spike/event density (parts per million) observed
/// for `layer`. Layers `>= MAX_LAYER_STATS` are ignored.
pub fn record_layer_density(layer: usize, ppm: u32) {
    if let Some(slot) = LAYER_DENSITY_PPM.get(layer) {
        slot.store(ppm as u64 + 1, Ordering::Relaxed);
    }
}

/// Latest recorded density for `layer` in ppm, if any hook has fired.
pub fn layer_density_ppm(layer: usize) -> Option<u32> {
    LAYER_DENSITY_PPM
        .get(layer)
        .map(|s| s.load(Ordering::Relaxed))
        .filter(|&v| v > 0)
        .map(|v| (v - 1) as u32)
}

/// Density of a binary/event matrix as parts per million, for span
/// payloads and [`record_layer_density`].
pub fn density_ppm(nonzeros: usize, cells: usize) -> u32 {
    if cells == 0 {
        return 0;
    }
    ((nonzeros as f64 / cells as f64) * 1_000_000.0).round() as u32
}

/// Packs a span payload from batch occupancy (rows) and density ppm:
/// `rows << 32 | ppm`. The inverse halves are `payload >> 32` and
/// `payload as u32`.
pub fn pack_density_payload(rows: usize, ppm: u32) -> u64 {
    ((rows as u64) << 32) | ppm as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serialises the tests that record: [`set_enabled`] is
    /// process-wide, so one test switching recording off must not
    /// disarm the spans of another running beside it.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn guard_records_span_with_context() {
        let _serial = serial();
        let trace = next_trace_id();
        let root_id;
        {
            let root = span_in("test_root", trace, 0);
            assert!(root.is_armed());
            root_id = root.id();
            let _ctx = with_trace(trace, root.id());
            {
                let mut child = span("test_child");
                assert!(child.is_armed());
                child.set_payload(7);
            }
        }
        let events = trace_events(trace);
        assert_eq!(events.len(), 2);
        let child = events.iter().find(|e| e.name == "test_child").unwrap();
        assert_eq!(child.parent, root_id);
        assert_eq!(child.payload, 7);
        let root = events.iter().find(|e| e.name == "test_root").unwrap();
        assert_eq!(root.parent, 0);
        assert!(root.start_ns <= child.start_ns);
        assert!(root.end_ns >= child.end_ns);
    }

    #[test]
    fn disabled_and_contextless_guards_record_nothing() {
        let _serial = serial();
        let trace = next_trace_id();
        {
            let g = span("no_context_span"); // no ambient context
            assert!(!g.is_armed());
        }
        set_enabled(false);
        {
            let g = span_in("disabled_span", trace, 0);
            assert!(!g.is_armed());
        }
        set_enabled(true);
        assert!(trace_events(trace).is_empty());
        assert!(!snapshot().iter().any(|e| e.name == "no_context_span"));
    }

    #[test]
    fn cross_thread_parts_merge_into_one_trace() {
        let _serial = serial();
        let trace = next_trace_id();
        let span_id = next_span_id();
        record_span_parts(trace, span_id, 0, "parts_root", 10, 90, 3);
        let handle = std::thread::spawn(move || {
            record_span_parts(trace, next_span_id(), span_id, "parts_child", 20, 40, 0);
        });
        handle.join().unwrap();
        let events = trace_events(trace);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "parts_root");
        assert_eq!(events[1].name, "parts_child");
        assert_eq!(events[1].parent, span_id);
        // Distinct threads get distinct recorder IDs.
        assert_ne!(events[0].thread, events[1].thread);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let _serial = serial();
        // Rings in this test binary may already exist at default
        // capacity; record enough spans to wrap regardless.
        let early = next_trace_id();
        record_span_parts(early, next_span_id(), 0, "evicted", 1, 2, 0);
        let cap = RING_CAPACITY.load(Ordering::Relaxed);
        let late = next_trace_id();
        for _ in 0..cap + 8 {
            record_span_parts(late, next_span_id(), 0, "filler", 3, 4, 0);
        }
        assert!(trace_events(early).is_empty(), "oldest span evicted");
        assert!(!trace_events(late).is_empty(), "recent spans resident");
    }

    #[test]
    fn context_guard_restores_previous() {
        assert_eq!(current(), (0, 0));
        {
            let _outer = with_trace(5, 1);
            assert_eq!(current(), (5, 1));
            {
                let _inner = with_trace(6, 2);
                assert_eq!(current(), (6, 2));
            }
            assert_eq!(current(), (5, 1));
        }
        assert_eq!(current(), (0, 0));
    }

    #[test]
    fn layer_density_roundtrip() {
        assert_eq!(layer_density_ppm(3), None);
        record_layer_density(3, 151_000);
        assert_eq!(layer_density_ppm(3), Some(151_000));
        record_layer_density(MAX_LAYER_STATS + 1, 1); // ignored, no panic
        assert_eq!(density_ppm(1, 8), 125_000);
        assert_eq!(density_ppm(0, 0), 0);
        let p = pack_density_payload(64, 125_000);
        assert_eq!(p >> 32, 64);
        assert_eq!(p as u32, 125_000);
    }

    #[test]
    fn interning_is_stable_and_content_deduplicated() {
        let a = intern("stable_name");
        let b = intern("stable_name");
        assert_eq!(a, b);
        assert_eq!(resolve_name(a), "stable_name");
    }
}
