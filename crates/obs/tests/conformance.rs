//! Golden-trace conformance properties for the telemetry core.
//!
//! * Arbitrary span open/close interleavings across real OS threads must
//!   always drain to a well-formed forest: every span closed, parents
//!   recorded at entry, LIFO discipline per thread.
//! * Histogram bucket counts must sum to the observation count, each
//!   observation landing in the bucket whose bounds contain it.
//!
//! Tracing state and buffers are process-global, so every test that
//! records serializes on a file-local lock (each integration test file is
//! its own process, so this lock covers everything that can interleave).

use elivagar_obs::metrics::{bucket_index, bucket_upper_bound, Histogram};
use elivagar_obs::{drain, set_tracing, validate_forest};
use proptest::prelude::*;
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Span names must be `&'static str`; scripts index into this pool.
static NAMES: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// Runs one thread's script: `true` opens a nested span, `false` closes
/// the innermost open span (LIFO, like lexical scopes). Returns how many
/// spans the script opened.
fn run_script(script: &[bool]) -> usize {
    let mut guards = Vec::new();
    let mut opened = 0usize;
    for &op in script {
        if op {
            let guard = elivagar_obs::trace::SpanGuard::enter(
                NAMES[opened % NAMES.len()],
                "step",
                opened as i64,
            );
            guards.push(guard);
            opened += 1;
        } else {
            guards.pop();
        }
    }
    while guards.pop().is_some() {}
    opened
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interleaved_span_scripts_always_drain_to_a_well_formed_forest(
        scripts in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 0..40),
            1..5,
        ),
    ) {
        let _g = lock();
        set_tracing(true);
        let _ = drain();

        let barrier = Barrier::new(scripts.len());
        let opened: usize = std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        run_script(script)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("script thread")).sum()
        });

        set_tracing(false);
        let events = drain();
        let summary = match validate_forest(&events) {
            Ok(s) => s,
            Err(e) => {
                prop_assert!(false, "malformed forest: {e}");
                unreachable!()
            }
        };
        prop_assert_eq!(summary.spans, opened);
        prop_assert_eq!(summary.events, opened * 2);
        // Timestamps from the shared monotonic clock arrive sorted.
        for pair in events.windows(2) {
            prop_assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    #[test]
    fn histogram_bucket_counts_sum_to_observations(
        values in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let h = Histogram::new();
        let mut expected_sum = 0u64;
        for &v in &values {
            h.observe(v);
            expected_sum = expected_sum.wrapping_add(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.counts.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(snap.sum, expected_sum);
        // Every observation is inside its bucket's bounds.
        for &v in &values {
            let b = bucket_index(v);
            prop_assert!(v <= bucket_upper_bound(b));
            if b > 0 {
                prop_assert!(v > bucket_upper_bound(b - 1));
            }
            prop_assert!(snap.counts[b] > 0);
        }
        // Quantiles are monotone in q.
        prop_assert!(snap.quantile(0.5) <= snap.quantile(0.99));
    }
}

/// Deterministic companion to the interleaving property: a deep nest on
/// one thread while another records siblings, both forests intact.
#[test]
fn concurrent_deep_and_flat_recording_stays_separated_by_thread() {
    let _g = lock();
    set_tracing(true);
    let _ = drain();

    std::thread::scope(|s| {
        s.spawn(|| {
            let _a = elivagar_obs::span!("deep0");
            let _b = elivagar_obs::span!("deep1");
            let _c = elivagar_obs::span!("deep2");
        });
        s.spawn(|| {
            for i in 0..10i64 {
                let _s = elivagar_obs::span!("flat", step = i);
            }
        });
    });

    set_tracing(false);
    let events = drain();
    let summary = validate_forest(&events).expect("well-formed");
    assert_eq!(summary.spans, 13);
    assert_eq!(summary.events, 26);
    assert_eq!(summary.max_depth, 3);
    // Parent links never cross threads: a span's parent (when set) was
    // recorded by the same thread.
    for e in &events {
        if e.parent != 0 {
            let parent_thread = (e.parent >> 40) as u32 - 1;
            assert_eq!(parent_thread, e.thread, "cross-thread parent link");
        }
    }
}
