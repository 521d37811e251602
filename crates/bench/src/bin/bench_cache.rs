//! Records the result-cache trajectory point (`BENCH_cache.json`): the
//! same search run cold (empty cache directory, every CNR/RepCap
//! evaluation computed and stored) versus warm (every evaluation served
//! from the cache) on a moons workload sized like a small production
//! sweep.
//!
//! Correctness first, speed second: every cold and warm run is compared
//! with an entirely uncached reference run (`winner_match`), so the
//! reported speedup is for *exactly* the same answer. The binary exits 1
//! unless `speedup >= 2.0` and `winner_match`.

use elivagar::{run_search, Cache, RunOptions, SearchConfig};
use elivagar_bench::{gate, median, time_ns, Bound};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct Report {
    threads: usize,
    candidates: usize,
    cold_median_ns: u64,
    cold_min_ns: u64,
    warm_median_ns: u64,
    warm_min_ns: u64,
    /// Median-over-median cold/warm ratio — the cache's wall-time win.
    speedup: f64,
    /// Fraction of warm-run lookups served from the cache.
    warm_hit_rate: f64,
    /// Whether cold, warm, and uncached runs all selected the identical
    /// ranking (checked with the full bit-exact result comparison).
    winner_match: bool,
}

fn counter(stats: &elivagar_obs::RunStats, name: &str) -> u64 {
    stats
        .counters
        .iter()
        .find(|&&(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

fn main() -> ExitCode {
    let device = elivagar_device::devices::ibm_lagos();
    let dataset = elivagar_datasets::moons(60, 20, 3).normalized(std::f64::consts::PI);
    let mut config = SearchConfig::for_task(4, 16, 2, 2);
    config.num_candidates = 12;

    let mut dir = std::env::temp_dir();
    dir.push(format!("elivagar-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let reference =
        run_search(&device, &dataset, &config, &RunOptions::default()).expect("reference run");

    // Cold: a fresh directory per repetition, so every rep pays the full
    // compute-and-store path.
    let mut cold_times = Vec::new();
    let mut winner_match = true;
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).expect("open cache");
        let opts = RunOptions::new().with_cache(cache);
        let (ns, result) = time_ns(|| run_search(&device, &dataset, &config, &opts).expect("cold"));
        winner_match &= result == reference;
        cold_times.push(ns);
    }
    let cold_min_ns = *cold_times.iter().min().expect("three cold reps");
    let cold_median_ns = median(cold_times);

    // Warm: a fresh handle over the populated directory, so the first rep
    // exercises the disk tier and later reps the memory tier.
    let cache = Cache::open(&dir).expect("reopen cache");
    let opts = RunOptions::new().with_cache(cache);
    let mut warm_times = Vec::new();
    let mut warm_hit_rate = 0.0;
    for _ in 0..7 {
        let (ns, result) = time_ns(|| run_search(&device, &dataset, &config, &opts).expect("warm"));
        winner_match &= result == reference;
        let lookups = counter(&result.stats, "cache.lookups");
        if lookups > 0 {
            warm_hit_rate = counter(&result.stats, "cache.hits") as f64 / lookups as f64;
        }
        warm_times.push(ns);
    }
    let warm_min_ns = *warm_times.iter().min().expect("seven warm reps");
    let warm_median_ns = median(warm_times);
    let _ = std::fs::remove_dir_all(&dir);

    let report = Report {
        threads: elivagar_sim::num_threads(),
        candidates: config.num_candidates,
        cold_median_ns,
        cold_min_ns,
        warm_median_ns,
        warm_min_ns,
        speedup: cold_median_ns as f64 / warm_median_ns as f64,
        warm_hit_rate,
        winner_match,
    };
    let bounds = [
        Bound::at_least("speedup", report.speedup, 2.0),
        Bound::holds("winner_match", report.winner_match),
    ];
    gate::finish("cache", &report, &bounds)
}
