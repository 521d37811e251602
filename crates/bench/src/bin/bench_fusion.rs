//! Records the fused-block execution trajectory point
//! (`BENCH_fusion.json`): forward-execute throughput of the fused engine
//! against gate-by-gate `StateVector::run`, and the cost of the 32-sample
//! adjoint minibatch gradient relative to the same minibatch's forward
//! pass.
//!
//! Four forward workloads exercise the engine's distinct kernels: at 14
//! qubits (above `TILE_QUBITS`, so the cache-blocked executor engages) a
//! dense mix (fused 1q/2q blocks) and a diagonal-heavy chain (the
//! dedicated diagonal slice kernels); at 10 qubits a repcap-shaped
//! generated candidate and a generated MNIST-10 candidate on
//! `ibm_guadalupe`, the circuit shape perfbench's `oneshot-mnist10` runs
//! through RepCap (36 feature embeddings re-fused per sample). Their
//! speedups over `StateVector::run` are recorded, not gated.
//!
//! The gradient workload is `batch_gradient` over a 32-sample minibatch
//! of the repcap-shaped candidate. Its yardstick is the best current
//! forward path over the same minibatch: `Program::run_with` per sample,
//! fanned out with `par_map`, reading the expectations and the
//! cross-entropy loss. The two are timed alternately — 5 warm-up pairs,
//! then 30 pairs of one forward minibatch and one gradient minibatch —
//! and `gradient_over_forward` is the median of the 30 per-pair ratios,
//! so host-speed drift between pairs cancels out. The binary exits 1
//! unless `gradient_over_forward <= 7.5` and `ranking_match`: the
//! per-sample losses the streamed gradient reports must rank the
//! minibatch exactly as the forward-only losses do. Untimed, it asserts
//! that the mean gradient matches `oracle::adjoint_gradient` to 1e-8.
//!
//! Wall times are compared within this one process (same thread count,
//! same build); per-gate throughput is also recorded because it is
//! machine-relative but workload-independent.

use elivagar::{generate_candidate, SearchConfig};
use elivagar_bench::{gate, median, time_ns, time_reps, Bound};
use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_ml::{batch_gradient, cross_entropy, GradientMethod, QuantumClassifier};
use elivagar_sim::oracle::adjoint_gradient;
use elivagar_sim::parallel::par_map;
use elivagar_sim::{Program, StateVector, ZObservable, TILE_QUBITS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::process::ExitCode;

/// Forward/gradient pairs timed after the warm-up pairs.
const PAIRS: usize = 30;

#[derive(Serialize)]
struct Report {
    threads: usize,
    forward: Vec<ForwardWorkload>,
    minibatch: Minibatch,
    /// Median over the timed pairs of (gradient minibatch time) / (forward
    /// minibatch time).
    gradient_over_forward: f64,
    /// The streamed gradient's per-sample losses rank the minibatch
    /// exactly as the forward-only losses do.
    ranking_match: bool,
}

#[derive(Serialize)]
struct ForwardWorkload {
    name: String,
    qubits: usize,
    instructions: usize,
    /// Compiled op count (coalesced blocks).
    fused_ops: usize,
    fused_median_ns: u64,
    /// Gate-by-gate `StateVector::run`.
    reference_median_ns: u64,
    speedup: f64,
    /// Nanoseconds per source instruction through the fused engine.
    fused_ns_per_gate: f64,
    reference_ns_per_gate: f64,
}

#[derive(Serialize)]
struct Minibatch {
    name: String,
    samples: usize,
    pairs: usize,
    forward_median_ns: u64,
    gradient_median_ns: u64,
    /// Largest absolute difference between the oracle's and the streamed
    /// mean parameter gradients (ULP-level re-association, not drift).
    max_grad_abs_diff: f64,
}

/// Dense mix: long static 1q runs, CX ladders, dynamic barriers — the
/// general fused-block shape.
fn dense_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..4 {
        for q in 0..n {
            c.push_gate(Gate::H, &[q], &[]);
            c.push_gate(Gate::Ry, &[q], &[ParamExpr::constant(0.1 + 0.05 * (q + layer) as f64)]);
            c.push_gate(Gate::Sx, &[q], &[]);
        }
        for q in 0..n - 1 {
            c.push_gate(Gate::Cx, &[q, q + 1], &[]);
        }
        c.push_gate(Gate::Rx, &[layer % n], &[ParamExpr::trainable(layer)]);
    }
    c
}

/// Diagonal-heavy chain: Rz/Cz/Crz/Rzz blocks that compile to the
/// dedicated diagonal slice kernels.
fn diagonal_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push_gate(Gate::H, &[q], &[]);
    }
    for layer in 0..6 {
        for q in 0..n {
            c.push_gate(Gate::Rz, &[q], &[ParamExpr::constant(0.2 + 0.03 * (q * layer) as f64)]);
        }
        for q in 0..n - 1 {
            c.push_gate(Gate::Cz, &[q, q + 1], &[]);
        }
        c.push_gate(Gate::Crz, &[0, n - 1], &[ParamExpr::trainable(layer)]);
        c.push_gate(Gate::Rzz, &[1, 2], &[ParamExpr::constant(0.4)]);
    }
    c
}

/// A generated candidate circuit for `config` on `device` (seed 3).
fn generated_circuit(device: &elivagar_device::Device, config: &SearchConfig) -> Circuit {
    let mut rng = StdRng::seed_from_u64(3);
    generate_candidate(device, config, &mut rng).circuit
}

fn feature_batch(samples: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..samples)
        .map(|i| (0..dim).map(|j| 0.1 * (i * dim + j) as f64).collect())
        .collect()
}

/// Times `forward` and `gradient` alternately: 5 discarded warm-up pairs,
/// then [`PAIRS`] pairs of one `forward` and one `gradient` call. Returns
/// the median forward time, the median gradient time (ns), and the median
/// of the per-pair gradient/forward ratios.
fn time_pairs(mut forward: impl FnMut(), mut gradient: impl FnMut()) -> (u64, u64, f64) {
    for _ in 0..5 {
        forward();
        gradient();
    }
    let pairs: Vec<(u64, u64)> =
        (0..PAIRS).map(|_| (time_ns(&mut forward).0, time_ns(&mut gradient).0)).collect();
    let ratios = pairs.iter().map(|&(f, g)| g as f64 / f as f64).collect();
    (
        median(pairs.iter().map(|p| p.0).collect()),
        median(pairs.iter().map(|p| p.1).collect()),
        median(ratios),
    )
}

fn forward_workload(name: &str, circuit: &Circuit, params: &[f64], features: &[f64]) -> ForwardWorkload {
    let fused = Program::compile(circuit);
    let (fused_median_ns, _) = time_reps(5, 40, || {
        black_box(fused.run_with(params, features, |psi| psi.expectation_z(0)));
    });
    let (reference_median_ns, _) = time_reps(5, 40, || {
        black_box(StateVector::run(circuit, params, features).expectation_z(0));
    });
    let instructions = circuit.instructions().len();
    ForwardWorkload {
        name: name.into(),
        qubits: circuit.num_qubits(),
        instructions,
        fused_ops: fused.num_ops(),
        fused_median_ns,
        reference_median_ns,
        speedup: reference_median_ns as f64 / fused_median_ns as f64,
        fused_ns_per_gate: fused_median_ns as f64 / instructions as f64,
        reference_ns_per_gate: reference_median_ns as f64 / instructions as f64,
    }
}

/// One sample's cross-entropy loss and its gradient with respect to the
/// logits, read off its fused forward execution.
fn forward_loss(
    model: &QuantumClassifier,
    program: &Program,
    params: &[f64],
    features: &[f64],
    label: usize,
) -> (f64, Vec<f64>) {
    program.run_with(params, features, |psi| {
        let logits = model.logits_from_expectations(&model.expectations_from_state(psi));
        cross_entropy(&logits, label)
    })
}

fn main() -> ExitCode {
    let n = TILE_QUBITS + 2;
    let dense = dense_circuit(n);
    let diagonal = diagonal_circuit(n);
    let repcap = generated_circuit(
        &elivagar_device::devices::ibmq_kolkata(),
        &SearchConfig::for_task(10, 60, 4, 4),
    );
    // perfbench's `oneshot-mnist10` circuit shape.
    let mnist = elivagar_datasets::spec("mnist-10").expect("mnist-10 is a Table 2 benchmark");
    let mnist10 = generated_circuit(
        &elivagar_device::devices::ibm_guadalupe(),
        &SearchConfig::for_task(mnist.qubits, mnist.params, mnist.feature_dim, mnist.classes),
    );

    let mut forward = Vec::new();
    for (name, circuit) in [
        ("dense_14q", &dense),
        ("diagonal_14q", &diagonal),
        ("repcap_candidate_10q", &repcap),
        ("mnist10_candidate_10q", &mnist10),
    ] {
        let params: Vec<f64> = (0..circuit.num_trainable_params())
            .map(|i| 0.05 * i as f64)
            .collect();
        let features = vec![0.3; circuit.num_features_used().max(1)];
        forward.push(forward_workload(name, circuit, &params, &features));
    }

    // 32-sample adjoint minibatch gradient against the same minibatch's
    // forward pass plus loss.
    let model = QuantumClassifier::new(repcap.clone(), 4);
    let mparams: Vec<f64> = (0..model.num_params()).map(|i| 0.1 * i as f64).collect();
    let x = feature_batch(32, 4);
    let y: Vec<usize> = (0..32).map(|i| i % 4).collect();
    let program = model.program();
    let indices: Vec<usize> = (0..x.len()).collect();
    let forward_losses = || {
        par_map(&indices, |&i| forward_loss(&model, &program, &mparams, &x[i], y[i]).0)
    };

    let (forward_median_ns, gradient_median_ns, gradient_over_forward) = time_pairs(
        || {
            black_box(forward_losses().iter().sum::<f64>());
        },
        || {
            black_box(batch_gradient(&model, &mparams, &x, &y, GradientMethod::Adjoint));
        },
    );

    // Ranking: per-sample losses from the streamed path (recovered
    // sample-by-sample through single-sample batches) must order the
    // minibatch exactly as the forward-only losses do.
    let streamed_losses: Vec<f64> = indices
        .iter()
        .map(|&i| {
            batch_gradient(
                &model,
                &mparams,
                std::slice::from_ref(&x[i]),
                std::slice::from_ref(&y[i]),
                GradientMethod::Adjoint,
            )
            .loss
        })
        .collect();
    let rank = |losses: &[f64]| -> Vec<usize> {
        let mut order: Vec<usize> = (0..losses.len()).collect();
        order.sort_by(|&a, &b| {
            losses[a].partial_cmp(&losses[b]).expect("finite loss").then(a.cmp(&b))
        });
        order
    };
    let ranking_match = rank(&forward_losses()) == rank(&streamed_losses);

    // Correctness: the streamed mean gradient against the oracle adjoint,
    // differentiating each sample's loss-weighted observable.
    let full = batch_gradient(&model, &mparams, &x, &y, GradientMethod::Adjoint);
    let mut oracle_sum = vec![0.0f64; model.num_params()];
    for &i in &indices {
        let (_, dlogits) = forward_loss(&model, &program, &mparams, &x[i], y[i]);
        let obs = ZObservable::new(model.observable_weights(&dlogits));
        let g = adjoint_gradient(model.circuit(), &mparams, &x[i], &obs);
        for (acc, v) in oracle_sum.iter_mut().zip(&g.params) {
            *acc += v;
        }
    }
    let inv = 1.0 / x.len() as f64;
    let max_grad_abs_diff = oracle_sum
        .iter()
        .zip(&full.gradient)
        .map(|(o, f)| (o * inv - f).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_grad_abs_diff < 1e-8,
        "streamed gradients drifted from the oracle: {max_grad_abs_diff}"
    );

    let report = Report {
        threads: elivagar_sim::num_threads(),
        forward,
        minibatch: Minibatch {
            name: "minibatch_gradient_32samples".into(),
            samples: x.len(),
            pairs: PAIRS,
            forward_median_ns,
            gradient_median_ns,
            max_grad_abs_diff,
        },
        gradient_over_forward,
        ranking_match,
    };
    let bounds = [
        Bound::at_most("gradient_over_forward", report.gradient_over_forward, 7.5),
        Bound::holds("ranking_match", report.ranking_match),
    ];
    gate::finish("fusion", &report, &bounds)
}
