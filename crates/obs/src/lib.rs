//! Telemetry core for the Elivagar reproduction.
//!
//! The search pipeline is fast (work-stealing runtime, PR 2) and
//! crash-safe (checkpoint journal, PR 3) but was opaque: no way to answer
//! "where did this run spend its time" or "how many candidates did CNR
//! reject" without a debugger. This crate is the instrumentation substrate
//! every pipeline layer records into:
//!
//! * [`span!`] — structured span tracing with monotonic timestamps,
//!   thread ids, and parent links, recorded into per-thread buffers
//!   ([`trace`]) that a collector drains ([`trace::drain`]). The hot path
//!   takes one uncontended per-thread lock and performs **zero heap
//!   allocations** in the steady state; allocation happens only when a
//!   full buffer is flushed or the collector drains.
//! * [`metrics`] — typed counters and fixed-bucket latency histograms
//!   (lock-free relaxed atomics), always live.
//! * Sinks — a human-readable end-of-run report
//!   ([`stats::render_process_report`], [`RunStats::render`]), a JSONL
//!   Chrome Trace Event export loadable in `chrome://tracing`
//!   ([`trace::write_chrome_trace`]), and the [`RunStats`] struct surfaced
//!   on `SearchResult` and the CLI.
//!
//! # Gating
//!
//! Counters and histograms are single relaxed atomic operations and are
//! always live. Span recording is behind the run-time switch
//! [`set_tracing`] (off by default) because spans have a memory cost;
//! `--trace-out` and perfbench's traced replay switch it on.
//!
//! Counting-allocator tests (`tests/zero_alloc.rs`) pin the contract:
//! with tracing disabled the recording paths never touch the heap, and
//! with tracing enabled they allocate only at buffer-flush/drain time.

pub mod metrics;
pub mod stats;
pub mod trace;

pub use stats::{FunnelCounters, RunStats, StageStats, REPORTED_COUNTERS};
pub use trace::{
    drain, validate_forest, write_chrome_trace, Event, EventKind, ForestSummary, SpanGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether span recording is switched on.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Switches span recording on or off at runtime.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the process telemetry epoch (the first call). All
/// span timestamps and stopwatch readings share this monotonic clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Opens a span that closes when the returned guard drops.
///
/// ```
/// let _outer = elivagar_obs::span!("cnr_stage");
/// let _inner = elivagar_obs::span!("cnr_eval", candidate = 3usize);
/// ```
///
/// The optional `key = value` argument attaches one integer to the span
/// (candidate index, epoch number, ...). Recording only happens while
/// [`tracing_enabled`] holds; otherwise the guard is inert and free.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name, "", 0)
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::trace::SpanGuard::enter($name, stringify!($key), ($val) as i64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn tracing_toggle_round_trips() {
        let _g = trace::testutil::lock();
        set_tracing(true);
        assert!(tracing_enabled());
        set_tracing(false);
        assert!(!tracing_enabled());
    }
}
