//! Allocation audit for the telemetry recording paths, with the same
//! counting global allocator the simulator's hot-path audit uses.
//!
//! The contract (lib docs, DESIGN.md "Observability"):
//!
//! * With tracing **disabled**, spans, counters, and histograms touch the
//!   heap zero times — instrumentation call sites are free on the
//!   production path.
//! * With tracing **enabled**, steady-state recording below the thread
//!   buffer capacity also touches the heap zero times; allocation happens
//!   only at registration (first span on a thread), buffer flush, and
//!   [`elivagar_obs::drain`].

use elivagar_obs::metrics::{Histogram, Stopwatch, CNR_EVALS, CNR_EVAL_NS};
use elivagar_obs::trace::THREAD_BUFFER_CAPACITY;
use elivagar_obs::{drain, set_tracing, span, validate_forest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Counts this thread's allocations and reallocations, delegating to the
/// system allocator. Frees are not counted; per-thread so the harness's
/// own threads can't produce false positives.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_telemetry_recording_never_allocates() {
    let _g = lock();
    set_tracing(false);
    let local = Histogram::new();

    // Touch every recording path once so lazy statics (clock epoch) are
    // initialized before the measured window.
    {
        let _s = span!("warmup", candidate = 0usize);
        CNR_EVALS.add(1);
        let sw = Stopwatch::start();
        sw.record(&CNR_EVAL_NS);
        local.observe(42);
    }

    let before = thread_allocations();
    for i in 0..10_000u64 {
        let _outer = span!("outer");
        let _inner = span!("inner", candidate = i);
        CNR_EVALS.add(1);
        let sw = Stopwatch::start();
        sw.record(&CNR_EVAL_NS);
        local.observe(i);
    }
    let delta = thread_allocations() - before;
    assert_eq!(
        delta, 0,
        "disabled-telemetry path allocated {delta} times in 10k iterations"
    );
    assert!(drain().is_empty(), "disabled tracing must record nothing");
}

#[test]
fn enabled_tracing_allocates_only_at_drain_time() {
    let _g = lock();
    set_tracing(true);
    let _ = drain();

    // Warmup: registers this thread's buffer (allocates once) and leaves
    // its event vector at full capacity via the post-drain reserve.
    {
        let _s = span!("warmup");
    }
    let _ = drain();

    // Steady state: stay below the buffer capacity so no flush happens.
    let pairs = THREAD_BUFFER_CAPACITY / 2 - 8;
    let before = thread_allocations();
    for i in 0..pairs {
        let _s = span!("steady", candidate = i);
        CNR_EVALS.add(1);
    }
    let recording_delta = thread_allocations() - before;

    // Drain is where allocation is allowed (and expected: it builds the
    // returned batch).
    let drain_before = thread_allocations();
    set_tracing(false);
    let events = drain();
    let drain_delta = thread_allocations() - drain_before;

    assert_eq!(
        recording_delta, 0,
        "steady-state span recording allocated {recording_delta} times over {pairs} spans"
    );
    assert!(drain_delta > 0, "drain builds the batch on the heap");
    assert_eq!(events.len(), pairs * 2);
    validate_forest(&events).expect("well-formed");
}
