//! Records the CNR-engine trajectory point (`BENCH_cnr.json`): the
//! per-shot tableau oracle versus the bit-parallel Pauli-frame engine
//! on the reference CNR workload — one 10-qubit Clifford replica of a
//! search candidate on `ibmq_kolkata`, 1000 noise trajectories.
//!
//! Both engines are run from the same RNG seed and asserted bit-identical
//! before timing, so the reported speedup is for *exactly* the same
//! computation. The binary exits 1 unless `speedup >= 5.0`.

use elivagar::{clifford_replica, generate_candidate, SearchConfig};
use elivagar_bench::{gate, time_reps, Bound};
use elivagar_device::circuit_noise;
use elivagar_sim::noisy_clifford_distribution;
use elivagar_sim::oracle::noisy_clifford_distribution_tableau;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::process::ExitCode;

const TRAJECTORIES: usize = 1000;

#[derive(Serialize)]
struct Report {
    threads: usize,
    num_qubits: usize,
    trajectories: usize,
    tableau_median_ns: u64,
    tableau_min_ns: u64,
    frame_median_ns: u64,
    frame_min_ns: u64,
    /// Median-over-median tableau/frame ratio — the CNR throughput win.
    speedup: f64,
}

fn main() -> ExitCode {
    // The same reference candidate as `bench_fusion`'s RepCap-shaped
    // workload: 10 qubits, 60-parameter budget, seed 3.
    let device = elivagar_device::devices::ibmq_kolkata();
    let config = SearchConfig::for_task(10, 60, 4, 4);
    let mut rng = StdRng::seed_from_u64(3);
    let candidate = generate_candidate(&device, &config, &mut rng);
    let physical = candidate.physical_circuit(&device);
    let noise = circuit_noise(&device, &physical).expect("candidate fits the device");
    let replica = clifford_replica(&candidate.circuit, &mut rng);

    // Exactness first: identical seeds must produce identical bits, or the
    // timing comparison below is meaningless.
    let mut rng_frame = StdRng::seed_from_u64(42);
    let mut rng_tableau = StdRng::seed_from_u64(42);
    let frame_dist =
        noisy_clifford_distribution(&replica, &[], &[], &noise, TRAJECTORIES, &mut rng_frame)
            .expect("clifford replica is clifford by construction")
            .noisy;
    let tableau_dist = noisy_clifford_distribution_tableau(
        &replica,
        &[],
        &[],
        &noise,
        TRAJECTORIES,
        &mut rng_tableau,
    )
    .expect("clifford replica is clifford by construction");
    assert_eq!(frame_dist.len(), tableau_dist.len());
    assert!(
        frame_dist
            .iter()
            .zip(&tableau_dist)
            .all(|(f, t)| f.to_bits() == t.to_bits()),
        "frame and tableau engines disagree on the benchmark workload"
    );

    let (tableau_median_ns, tableau_min_ns) = time_reps(2, 15, || {
        let mut rng = StdRng::seed_from_u64(42);
        black_box(
            noisy_clifford_distribution_tableau(
                &replica,
                &[],
                &[],
                &noise,
                TRAJECTORIES,
                &mut rng,
            )
            .unwrap(),
        );
    });
    let (frame_median_ns, frame_min_ns) = time_reps(5, 30, || {
        let mut rng = StdRng::seed_from_u64(42);
        black_box(
            noisy_clifford_distribution(&replica, &[], &[], &noise, TRAJECTORIES, &mut rng)
                .unwrap(),
        );
    });

    let report = Report {
        threads: elivagar_sim::num_threads(),
        num_qubits: replica.num_qubits(),
        trajectories: TRAJECTORIES,
        tableau_median_ns,
        tableau_min_ns,
        frame_median_ns,
        frame_min_ns,
        speedup: tableau_median_ns as f64 / frame_median_ns as f64,
    };
    let bounds = [Bound::at_least("speedup", report.speedup, 5.0)];
    gate::finish("cnr", &report, &bounds)
}
