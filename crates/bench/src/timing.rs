//! Wall-time measurement shared by the gate binaries.

use std::hint::black_box;
use std::time::Instant;

/// Runs `f` once, returning its wall time in nanoseconds and its result
/// (passed through [`black_box`] inside the timed region).
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let result = black_box(f());
    let ns = u64::try_from(start.elapsed().as_nanos()).expect("fits in u64 ns");
    (ns, result)
}

/// The upper median: `values` sorted, then the element at `len / 2`.
///
/// # Panics
///
/// Panics if `values` is empty or holds incomparable values (NaN).
pub fn median<T: Copy + PartialOrd>(mut values: Vec<T>) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    values[values.len() / 2]
}

/// Times `reps` calls of `f` after `warmup` untimed ones, returning the
/// median and the minimum in nanoseconds.
pub fn time_reps(warmup: usize, reps: usize, mut f: impl FnMut()) -> (u64, u64) {
    for _ in 0..warmup {
        f();
    }
    let times: Vec<u64> = (0..reps).map(|_| time_ns(&mut f).0).collect();
    let min = *times.iter().min().expect("at least one rep");
    (median(times), min)
}
