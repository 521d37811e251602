//! Shared plumbing: command-line arguments, seed derivation, statistics,
//! the result line, and process facts such as peak memory.

use std::fmt::Write as _;
use std::path::PathBuf;

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OneshotMnist10,
    CohortFmnist4,
    ServeBurst,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OneshotMnist10,
        Workload::CohortFmnist4,
        Workload::ServeBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotMnist10 => "oneshot-mnist10",
            Workload::CohortFmnist4 => "cohort-fmnist4",
            Workload::ServeBurst => "serve-burst",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Sizes the fixed request list (never a wall-clock deadline).
    pub seconds: u64,
    pub trace: bool,
    /// Pool size pinned through `ELIVAGAR_THREADS` before the pool starts.
    pub threads: usize,
    /// Internal: run only the traced pass and report its request time
    /// (the single-thread half of `runtime.speedup_2t`).
    pub traced_pass_only: bool,
}

pub const USAGE: &str = "usage: perfbench --workload <oneshot-mnist10|cohort-fmnist4|serve-burst> \
--seed <n> --seconds <n> --trace <0|1> [--threads <n>]";

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let args: Vec<String> = args.collect();
        let value = |flag: &str| -> Option<&str> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
        };
        let number = |flag: &str, default: Option<u64>| -> Result<u64, String> {
            match value(flag) {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("{flag} expects a whole number, got {v:?}")),
                None => default.ok_or_else(|| format!("missing {flag}")),
            }
        };
        let name = value("--workload").ok_or("missing --workload")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let trace = match number("--trace", Some(0))? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace expects 0 or 1, got {other}")),
        };
        let seconds = number("--seconds", None)?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let threads = number("--threads", Some(2))?;
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        Ok(Args {
            workload,
            seed: number("--seed", None)?,
            seconds,
            trace,
            threads: threads as usize,
            traced_pass_only: args.iter().any(|a| a == "--traced-pass-only"),
        })
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed `index` of stream `stream` under the workload seed. Every
/// input a run uses comes from one of these, so a seed fixes the inputs.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ (stream << 48)) ^ index)
}

/// Seed streams (the `stream` argument of [`sub_seed`]).
pub mod stream {
    /// Measured requests.
    pub const REQUEST: u64 = 2;
    /// Accuracy checks (parameter draws and trajectory sampling).
    pub const EVAL: u64 = 3;
}

/// Number of requests in a run: `rate * seconds`, at least `min`. The
/// rate is a fixed per-workload constant, so the list depends only on the
/// arguments, never on how fast this host happens to run.
pub fn request_count(rate_per_s: f64, seconds: u64, min: usize) -> usize {
    ((rate_per_s * seconds as f64).round() as usize).max(min)
}

/// Nearest-rank quantile of `values` (`q` in `0..=1`); 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Observation count and summed seconds of a nanosecond histogram in a
/// metrics delta.
pub fn histogram(delta: &elivagar_obs::metrics::MetricsSnapshot, name: &str) -> (u64, f64) {
    delta
        .histograms
        .iter()
        .find(|(n, _)| *n == name)
        .map_or((0, 0.0), |(_, h)| (h.count(), h.sum as f64 * 1e-9))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Scratch directory for one run, inside the checkout (`.bench_out/`).
/// Removed again by [`ScratchDir`]'s drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        let dir = PathBuf::from(".bench_out").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Request outcomes tallied for the result line.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one request; `problems` lists its failed output checks.
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: {what}: {p}");
            }
        }
    }
}

/// What a measured (untraced) pass produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// One latency per request, in seconds.
    pub latencies_s: Vec<f64>,
    /// The same latencies at the reference speed
    /// ([`crate::host::at_reference_speed`]).
    pub adjusted_s: Vec<f64>,
    /// Wall time of the measured requests, in seconds.
    pub wall_s: f64,
    /// The same wall time at the reference speed.
    pub adjusted_wall_s: f64,
    /// Host reference samples taken between requests, in seconds.
    pub host_ref_s: Vec<f64>,
    pub tally: Tally,
    /// Circuit executions the requests spent (exact for a seed).
    pub executions: u64,
    /// Composite score of each request's winner.
    pub winner_scores: Vec<f64>,
    pub test_accuracy: Vec<f64>,
    pub noisy_accuracy: Vec<f64>,
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: the last line the benchmark prints on stdout.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        assert_eq!(
            sub_seed(7, stream::REQUEST, 3),
            sub_seed(7, stream::REQUEST, 3)
        );
        assert_ne!(
            sub_seed(7, stream::REQUEST, 3),
            sub_seed(7, stream::REQUEST, 4)
        );
        assert_ne!(
            sub_seed(7, stream::REQUEST, 3),
            sub_seed(7, stream::EVAL, 3)
        );
        assert_ne!(
            sub_seed(7, stream::REQUEST, 3),
            sub_seed(8, stream::REQUEST, 3)
        );
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-burst --seed 4 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::ServeBurst);
        assert_eq!((a.seed, a.seconds, a.trace, a.threads), (4, 10, true, 2));
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload serve-burst --seconds 1").is_err());
        assert!(parse("--workload serve-burst --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &[metric("a", 1.5, "s"), metric("b", 2.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
