//! Measures the telemetry layer's overhead on the golden search workload.
//!
//! Prints two plain tokens: whether telemetry is compiled into this build
//! (`true` or `false`) and the best wall time in nanoseconds over several
//! repetitions of the full search pipeline (`obs_overhead [REPS]`, 10 by
//! default). `scripts/verify.sh` builds this binary twice — default
//! features (instrumented) and `--no-default-features` (counters compiled
//! out) — checks that each build reports the telemetry state it was built
//! with, and fails if the instrumented build is more than 5% slower,
//! enforcing the obs crate's "cheap enough to leave on" contract.

use elivagar::config::SearchConfig;
use elivagar::search;
use elivagar_bench::time_ns;
use elivagar_datasets::moons;
use elivagar_device::devices::ibm_lagos;
use std::hint::black_box;

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let device = ibm_lagos();
    let dataset = moons(60, 20, 3).normalized(std::f64::consts::PI);
    // Larger than the golden task (24 candidates vs 6) so one search takes
    // long enough that best-of-N wall times are stable to well under the
    // 5% regression threshold.
    let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
    config.num_candidates = 24;

    // Warm the pool and the workspace arenas so both builds measure the
    // steady state rather than first-run allocation.
    black_box(search::search(&device, &dataset, &config));

    let mut best_ns = u64::MAX;
    for _ in 0..reps {
        best_ns = best_ns.min(time_ns(|| search::search(&device, &dataset, &config)).0);
    }

    println!("{} {best_ns}", elivagar_obs::compiled_in());
}
