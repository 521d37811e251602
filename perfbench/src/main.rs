//! perfbench: the end-to-end benchmark of the Elivagar library.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--threads <n>]
//! ```
//!
//! One process runs one workload in-process, with one client in a closed
//! loop, at `ELIVAGAR_THREADS` = `--threads` (default 2). The request list
//! is fixed by `--seed` and `--seconds`, so every count and quality number
//! is exact for a seed and only timings vary. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it carries
//! the per-layer profile of a traced replay of the same requests. See
//! `README.md` for the workloads and every metric.

mod common;
mod host;
mod search;
mod serve;
mod spans;

use common::{metric, Args, Measured, Metric, Tally, Workload};
use spans::{Recorder, Span, REQUEST};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// One workload: set-up, a measured pass, and a traced replay.
pub trait Bench: Sized {
    type Spec: 'static;

    /// Builds the inputs, opens what the workload needs, and serves one
    /// fixed, reduced warm-up request that touches every layer it uses.
    fn setup(spec: &'static Self::Spec, args: &Args) -> Result<Self, String>;

    /// Serves every request untraced, calling `between` before each one and
    /// sampling the host reference around each timed interval.
    fn measure(&mut self, between: &mut dyn FnMut()) -> Measured;

    /// Replays the requests of the last measured pass under spans; returns
    /// the checks, the workload's own per-layer values, and the spans.
    fn traced(&mut self, rec: &Recorder) -> (Tally, BTreeMap<&'static str, f64>, Vec<Span>);

    /// Qubits of the workload's state vectors (for `engine.bytes_computed`).
    fn state_qubits(&self) -> usize;
}

/// Set-up passes per run; `setup_s` is their median. The first pass runs
/// from process start and so also pays for pool spin-up; the later passes
/// repeat everything else, so one slow pass does not decide the figure.
const SETUP_REPEATS: usize = 5;

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("generate.calls", "count"),
    ("generate.busy_s", "s"),
    ("cnr.calls", "count"),
    ("cnr.busy_s", "s"),
    ("cnr.executions", "count"),
    ("frame.trajectories", "count"),
    ("reject.kept_ratio", "fraction"),
    ("reject.busy_s", "s"),
    ("repcap.calls", "count"),
    ("repcap.busy_s", "s"),
    ("repcap.executions", "count"),
    ("engine.samples", "count"),
    ("engine.fused_ops", "count"),
    ("engine.bytes_computed", "bytes"),
    ("select.busy_s", "s"),
    ("cohort.busy_s", "s"),
    ("cohort.member_epochs", "count"),
    ("cohort.pruned_ratio", "fraction"),
    ("cohort.executions", "count"),
    ("eval.busy_s", "s"),
    ("eval_noisy.busy_s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_s", "s"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "fraction"),
    ("daemon.ticks", "count"),
    ("daemon.slices", "count"),
    ("daemon.submit_s", "s"),
    ("daemon.tick_s", "s"),
    ("daemon.wait_s_p50", "s"),
    ("pool.dispatches", "count"),
    ("pool.steals", "count"),
    ("pool.submitter_wait_s", "s"),
    ("runtime.speedup_2t", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.ref_s", "s"),
    ("host.stream_gbs", "GB/s"),
    ("other_s", "s"),
];

/// Span layers whose self time is a `*.busy_s` metric. Together with
/// `other_s`, the part of the request root spans that no layer span covers,
/// they account for the traced request time by construction (on
/// `serve-burst`, `daemon.*_s`, `generate.busy_s` and `checkpoint.save_s`
/// split the daemon spans the same way).
const LAYER_BUSY: &[(&str, &str)] = &[
    ("generate", "generate.busy_s"),
    ("cnr", "cnr.busy_s"),
    ("reject", "reject.busy_s"),
    ("repcap", "repcap.busy_s"),
    ("select", "select.busy_s"),
    ("cohort", "cohort.busy_s"),
    ("eval", "eval.busy_s"),
    ("eval_noisy", "eval_noisy.busy_s"),
    (REQUEST, "other_s"),
];

fn main() -> ExitCode {
    // The first set-up pass is timed between this sample and the next.
    let first_ref_s = host::reference_s();
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", common::USAGE);
            return ExitCode::from(2);
        }
    };
    // The pool reads its size once, when it starts: pin it before any
    // library call.
    std::env::set_var(elivagar_sim::THREADS_ENV, args.threads.to_string());
    let outcome = match args.workload {
        Workload::OneshotMnist10 => {
            run::<search::SearchBench>(&search::ONESHOT_MNIST10, &args, started, first_ref_s)
        }
        Workload::CohortFmnist4 => {
            run::<search::SearchBench>(&search::COHORT_FMNIST4, &args, started, first_ref_s)
        }
        Workload::ServeBurst => {
            run::<serve::ServeBench>(&serve::SERVE_BURST, &args, started, first_ref_s)
        }
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sum of the request root spans, in seconds.
fn request_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

fn run<B: Bench>(
    spec: &'static B::Spec,
    args: &Args,
    started: Instant,
    first_ref_s: f64,
) -> Result<String, String> {
    if args.traced_pass_only {
        let mut bench = B::setup(spec, args)?;
        let (_, _, spans) = bench.traced(&Recorder::new());
        return Ok(format!(
            "{{\"traced_request_s\": {}}}",
            request_seconds(&spans)
        ));
    }
    if args.trace {
        return profile::<B>(spec, args);
    }

    // Set-up, several times. The first pass runs from process start, so it
    // also pays for pool spin-up; the median keeps one slow pass out.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut adjusted_setups = Vec::with_capacity(SETUP_REPEATS);
    let mut before = first_ref_s;
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        // Release the previous instance before the clock starts.
        drop(bench.take());
        let from = if setups.is_empty() {
            started
        } else {
            Instant::now()
        };
        bench = Some(B::setup(spec, args)?);
        let setup_s = from.elapsed().as_secs_f64();
        let after = host::reference_s();
        setups.push(setup_s);
        adjusted_setups.push(host::at_reference_speed(setup_s, before, after));
        before = after;
    }
    let mut bench = bench.expect("set up at least once");

    // Timings are reported at the reference speed (see `host`); the raw
    // figures go to stderr.
    let m = bench.measure(&mut || {});
    let ok = m.tally.attempted - m.tally.failed;
    let metrics = vec![
        metric("setup_s", common::median(&adjusted_setups), "s"),
        metric("latency_s_p50", common::median(&m.adjusted_s), "s"),
        metric("latency_s_p90", common::quantile(&m.adjusted_s, 0.9), "s"),
        metric("requests_per_s", ok as f64 / m.adjusted_wall_s, "1/s"),
        metric("circuit_executions", m.executions as f64, "count"),
        metric("winner_score", common::mean(&m.winner_scores), "score"),
        metric("test_accuracy", common::mean(&m.test_accuracy), "fraction"),
        metric(
            "noisy_accuracy",
            common::mean(&m.noisy_accuracy),
            "fraction",
        ),
        metric("peak_rss_mib", common::peak_rss_mib(), "MiB"),
        metric("ok_ratio", ok as f64 / m.tally.attempted as f64, "fraction"),
    ];
    eprintln!(
        "perfbench: {} seed {}: {} requests, {} failed; raw set-up {:.4} s, \
         raw p50 {:.4} s, raw p90 {:.4} s; host reference median {:.3} ms (nominal {} ms)",
        args.workload.name(),
        args.seed,
        m.tally.attempted,
        m.tally.failed,
        common::median(&setups),
        common::median(&m.latencies_s),
        common::quantile(&m.latencies_s, 0.9),
        1e3 * common::median(&m.host_ref_s),
        1e3 * host::REF_NOMINAL_S,
    );
    finish(m.tally, &metrics)
}

/// The result line. Every metric is a time, count, ratio or rate, so a
/// negative or non-finite value is a benchmark bug, not a result.
fn finish(tally: Tally, metrics: &[Metric]) -> Result<String, String> {
    if let Some(m) = metrics
        .iter()
        .find(|m| !(m.value.is_finite() && m.value >= 0.0))
    {
        return Err(format!("metric {} is {}", m.name, m.value));
    }
    Ok(common::result_line(tally.failed == 0, tally, metrics))
}

/// The traced run: an untraced reference pass with host samples between
/// requests, a traced replay, and the same replay at one thread in a
/// child process.
fn profile<B: Bench>(spec: &'static B::Spec, args: &Args) -> Result<String, String> {
    // Profile the requests of a half-length run, so the reference pass and
    // both replays fit the time of about two measured runs.
    let args = &Args {
        seconds: args.seconds.div_ceil(2),
        ..args.clone()
    };
    let mut bench = B::setup(spec, args)?;
    let probe = host::HostProbe::new();
    let mut stream_gbs = Vec::new();
    let reference = bench.measure(&mut || stream_gbs.push(probe.stream_gbs()));
    drop(probe);

    elivagar_obs::set_tracing(true);
    let before = elivagar_obs::metrics::snapshot();
    let rec = Recorder::new();
    let (mut tally, mut layers, spans) = bench.traced(&rec);
    let delta = elivagar_obs::metrics::snapshot().since(&before);
    elivagar_obs::set_tracing(false);
    // The program's own spans are not part of this profile.
    drop(elivagar_obs::drain());
    tally.attempted += reference.tally.attempted;
    tally.failed += reference.tally.failed;

    let traced_s = request_seconds(&spans);
    let single_thread_s = single_thread_request_seconds(args)?;

    let fused_ops = delta.counter("engine.fused_ops");
    let (_, checkpoint_s) = common::histogram(&delta, "checkpoint_save");
    let lookups = delta.counter("cache.lookups");
    let counted = [
        (
            "frame.trajectories",
            delta.counter("frame.trajectories") as f64,
        ),
        ("engine.samples", delta.counter("engine.samples") as f64),
        ("engine.fused_ops", fused_ops as f64),
        // Computed, not moved: a 10-qubit state fits in L2.
        (
            "engine.bytes_computed",
            fused_ops as f64 * (16u64 << bench.state_qubits()) as f64,
        ),
        ("checkpoint.saves", delta.counter("checkpoint.saves") as f64),
        ("checkpoint.bytes", delta.counter("checkpoint.bytes") as f64),
        ("checkpoint.save_s", checkpoint_s),
        ("cache.lookups", lookups as f64),
        (
            "cache.hit_ratio",
            common::ratio(delta.counter("cache.hits"), lookups),
        ),
        ("pool.dispatches", delta.counter("pool.dispatches") as f64),
        ("pool.steals", delta.counter("pool.steals") as f64),
        (
            "pool.submitter_wait_s",
            delta.counter("pool.submitter_wait_ns") as f64 * 1e-9,
        ),
        ("runtime.speedup_2t", single_thread_s / traced_s),
        ("trace.overhead_ratio", traced_s / reference.wall_s),
        ("host.ref_s", common::median(&reference.host_ref_s)),
        ("host.stream_gbs", common::median(&stream_gbs)),
    ];
    for (name, value) in counted {
        layers.entry(name).or_insert(value);
    }
    let self_times = spans::self_seconds(&spans);
    for &(layer, name) in LAYER_BUSY {
        layers
            .entry(name)
            .or_insert_with(|| self_times.get(layer).copied().unwrap_or(0.0));
    }

    let out = std::path::PathBuf::from(".bench_out")
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    spans::write_jsonl(&out, &spans).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        out.display()
    );

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        metrics.push(metric(name, layers.remove(name).unwrap_or(0.0), unit));
    }
    if let Some(extra) = layers.keys().next() {
        return Err(format!("per-layer metric {extra} is not listed"));
    }
    finish(tally, &metrics)
}

/// Runs the traced pass again in a child process at one thread and
/// returns its request time (the numerator of `runtime.speedup_2t`).
fn single_thread_request_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "1", "--threads", "1", "--traced-pass-only"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("single-thread pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    last.strip_prefix("{\"traced_request_s\": ")
        .and_then(|v| v.strip_suffix('}'))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("single-thread pass failed ({}): {last:?}", out.status))
}
