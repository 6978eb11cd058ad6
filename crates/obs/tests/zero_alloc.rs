//! Pins the flight recorder's hot-path guarantees: once a thread's
//! ring and the span names are warm, recording a span performs **zero
//! heap allocations** and **never blocks** — across 1, 2, and 4 threads
//! recording concurrently while a reader snapshots the rings.
//!
//! A counting global allocator tracks allocations **on the current
//! thread only** (mirroring `crates/engine/tests/zero_alloc.rs`), so
//! the measurement is immune to whatever the harness or the other
//! recording threads do. This file is its own integration-test binary,
//! so the allocator override cannot leak into other suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Serialises the tests of this binary. `set_enabled` is process-wide,
/// so a test that switches recording off must not overlap one that
/// warms a ring: a disarmed warm-up span would leave the ring to be
/// allocated inside the measured loop.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Warm this thread (ring registration + name interning), then record
/// `spans` guarded spans and assert the heap stayed silent.
fn record_spans_alloc_free(trace: u64, spans: usize) {
    // Warm-up: first span on a thread allocates its ring and interns
    // the names; everything after must be flat.
    {
        let _ctx = snn_obs::with_trace(trace, 0);
        let mut warm = snn_obs::span("hot_path_span");
        warm.set_payload(1);
        drop(warm);
        drop(snn_obs::span("hot_path_child"));
    }
    let _ctx = snn_obs::with_trace(trace, 7);
    let before = allocations();
    for i in 0..spans {
        let mut outer = snn_obs::span("hot_path_span");
        outer.set_payload(i as u64);
        let inner = snn_obs::span("hot_path_child");
        std::hint::black_box(inner.id());
        drop(inner);
        drop(outer);
        snn_obs::record_span_parts(
            trace,
            snn_obs::next_span_id(),
            7,
            "hot_path_parts",
            1,
            2,
            i as u64,
        );
    }
    let after = allocations();
    assert_eq!(after - before, 0, "span hot path allocated");
}

#[test]
fn single_thread_hot_path_is_allocation_free() {
    let _serial = serial();
    record_spans_alloc_free(snn_obs::next_trace_id(), 10_000);
}

#[test]
fn concurrent_recording_is_allocation_free_and_never_blocks() {
    let _serial = serial();
    for threads in [1usize, 2, 4] {
        let trace = snn_obs::next_trace_id();
        // Waiters: `threads` writers, the reader, and this thread.
        let barrier = Barrier::new(threads + 2);
        let stop = AtomicBool::new(false);
        let recorded = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        record_spans_alloc_free(trace, 20_000);
                        recorded.fetch_add(20_000, Ordering::Relaxed);
                    })
                })
                .collect();
            // A concurrent reader hammering snapshots must not stall
            // the writers (seqlock readers never block writers); it
            // stops once every writer is done.
            let reader = scope.spawn(|| {
                barrier.wait();
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(snn_obs::trace_events(trace).len());
                    snapshots += 1;
                }
                snapshots
            });
            barrier.wait();
            // Writers finish on their own; a deadlock would hang the
            // test harness (CI timeout), which is the assertion. A
            // writer that fails its allocation check is a failure, so
            // the reader is stopped before the panic is passed on.
            let outcomes: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            stop.store(true, Ordering::Relaxed);
            for outcome in outcomes {
                if let Err(panic) = outcome {
                    std::panic::resume_unwind(panic);
                }
            }
            assert!(reader.join().unwrap() > 0, "reader made progress");
        });
        // All writers progressed to completion under contention.
        assert_eq!(recorded.load(Ordering::Relaxed), (threads as u64) * 20_000);
        // The flight recorder retained the most recent spans (rings are
        // drop-oldest, so we can't assert totals — only residency).
        assert!(!snn_obs::trace_events(trace).is_empty());
    }
}

#[test]
fn disabled_span_is_allocation_free_without_warmup() {
    let _serial = serial();
    snn_obs::set_enabled(false);
    let before = allocations();
    for _ in 0..10_000 {
        let g = snn_obs::span("disabled_never_interned");
        std::hint::black_box(g.is_armed());
    }
    let after = allocations();
    snn_obs::set_enabled(true);
    assert_eq!(after - before, 0, "disabled span path allocated");
}
