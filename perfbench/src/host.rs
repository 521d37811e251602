//! Host drift reference: a fixed arithmetic loop and a memory-stream loop,
//! timed between requests, so a slow host can be told apart from a slow
//! change. Neither touches the library.
//!
//! The arithmetic loop also calibrates the end-to-end timings: every timed
//! interval is scaled by how long the loop took just before and just after
//! it (see [`at_reference_speed`]).

use std::hint::black_box;
use std::time::Instant;

/// Amplitudes of the arithmetic loop's state: 2^10 complex numbers, 16 KiB,
/// so the loop runs from L1 and measures the core, not memory.
const REF_AMPLITUDES: usize = 1 << 10;

/// Sweeps of the arithmetic loop per thread in one round (each sweep
/// rotates every qubit once).
const REF_SWEEPS: usize = 100;

/// Rounds per reference sample; the sample is the median round.
const REF_ROUNDS: usize = 3;

/// What one reference sample takes on the reference host at its usual
/// speed (2 vCPUs of an Intel Xeon under KVM). Timings are reported as if
/// the host ran at that speed.
pub const REF_NOMINAL_S: f64 = 2e-3;

/// Fallback last-level cache size when sysfs does not report one.
const DEFAULT_LLC_BYTES: usize = 32 << 20;

/// Size of the largest CPU cache sysfs reports for cpu0.
pub fn llc_bytes() -> usize {
    let mut largest = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            largest = largest.max(n * scale);
        }
    }
    if largest == 0 {
        DEFAULT_LLC_BYTES
    } else {
        largest
    }
}

pub struct HostProbe {
    stream: Vec<u64>,
}

impl HostProbe {
    /// Allocates a stream array of four times the last-level cache, so
    /// every pass reads from memory.
    pub fn new() -> HostProbe {
        let bytes = 4 * llc_bytes();
        let stream: Vec<u64> = (0..(bytes / 8) as u64).collect();
        eprintln!("perfbench: host stream array {} MiB (4 x LLC)", bytes >> 20);
        HostProbe { stream }
    }

    /// Read bandwidth of one pass over the stream array, in GB/s.
    pub fn stream_gbs(&self) -> f64 {
        let t = Instant::now();
        let sum = black_box(&self.stream)
            .iter()
            .fold(0u64, |a, &b| a.wrapping_add(b));
        black_box(sum);
        (self.stream.len() * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
    }
}

/// One reference sample, in seconds: two threads (one per vCPU of the
/// reference host) run the arithmetic loop at once, and a round's time is
/// the mean of their own times; the sample is the median of
/// [`REF_ROUNDS`] rounds.
pub fn reference_s() -> f64 {
    let timed = || {
        let t = Instant::now();
        black_box(rotation_sweeps(REF_SWEEPS));
        t.elapsed().as_secs_f64()
    };
    let mut rounds: Vec<f64> = (0..REF_ROUNDS)
        .map(|_| {
            std::thread::scope(|s| {
                let other = s.spawn(timed);
                let mine = timed();
                0.5 * (mine + other.join().expect("reference thread"))
            })
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[REF_ROUNDS / 2]
}

/// `seconds` of work timed between reference samples `before` and
/// `after`, scaled to the speed at which a sample takes
/// [`REF_NOMINAL_S`].
///
/// The speed of floating-point code on the reference host drifts by up to
/// 2x within minutes, with no steal time, as other tenants contend for
/// shared core resources. The loop sees the same contention as the
/// library's kernels, so the scaled figure moves with the code, not with
/// the host.
pub fn at_reference_speed(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * REF_NOMINAL_S / (0.5 * (before + after))
}

/// The arithmetic loop: a fixed real rotation applied to every qubit of a
/// 10-qubit state, the same shape of floating-point work as a state-vector
/// sweep. A register-only integer chain barely sees the contention for
/// shared core resources that slows the reference host; this loop sees it
/// as the library's kernels do.
fn rotation_sweeps(sweeps: usize) -> f64 {
    let n = REF_AMPLITUDES;
    let mut re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut im: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
    let (c, s) = (0.8, 0.6);
    for _ in 0..black_box(sweeps) {
        for q in 0..n.trailing_zeros() {
            let bit = 1usize << q;
            for i in (0..n).filter(|i| i & bit == 0) {
                let j = i | bit;
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
    }
    re[0] + im[n - 1]
}
