//! Micro-benchmarks of the persistent work-stealing runtime on the two
//! workloads the pool was built for — RepCap-shaped batch execution and
//! minibatch adjoint gradients.

use criterion::{criterion_group, criterion_main, Criterion};
use elivagar_circuit::Circuit;
use elivagar_ml::{batch_gradient, GradientMethod, QuantumClassifier};
use elivagar_sim::Program;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The circuit RepCap actually executes: a searched 10-qubit candidate on
/// the Kolkata topology (same generator as the `simulators` bench, so the
/// numbers are comparable across PRs).
fn repcap_style_circuit() -> Circuit {
    use elivagar::{generate_candidate, SearchConfig};
    let device = elivagar_device::devices::ibmq_kolkata();
    let config = SearchConfig::for_task(10, 60, 4, 4);
    let mut rng = StdRng::seed_from_u64(3);
    generate_candidate(&device, &config, &mut rng).circuit
}

fn feature_batch(samples: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..samples)
        .map(|i| (0..dim).map(|j| 0.1 * (i * dim + j) as f64).collect())
        .collect()
}

/// RepCap's workload shape: one bound parameter vector over a 64-sample
/// batch, post-processed in the worker that produced each state.
fn bench_repcap_batch(c: &mut Criterion) {
    let circuit = repcap_style_circuit();
    let params: Vec<f64> = (0..circuit.num_trainable_params())
        .map(|i| 0.05 * i as f64)
        .collect();
    let batch = feature_batch(64, 4);
    let program = Program::compile(&circuit);
    c.bench_function("runtime_repcap_batch_10q_64samples", |b| {
        b.iter(|| {
            let bound = program.bind(&params);
            black_box(bound.run_batch_with(&batch, |_, psi| psi.expectation_z(0)))
        });
    });
}

/// Training's workload shape: one adjoint minibatch gradient — per-sample
/// fan-out with zero-allocation scratch inside each worker.
fn bench_minibatch_gradient(c: &mut Criterion) {
    let circuit = repcap_style_circuit();
    let model = QuantumClassifier::new(circuit, 4);
    let params: Vec<f64> = (0..model.num_params()).map(|i| 0.1 * i as f64).collect();
    let x = feature_batch(32, 4);
    let y: Vec<usize> = (0..32).map(|i| i % 4).collect();
    c.bench_function("runtime_minibatch_gradient_32samples", |b| {
        b.iter(|| {
            black_box(batch_gradient(
                &model,
                &params,
                &x,
                &y,
                GradientMethod::Adjoint,
            ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_repcap_batch, bench_minibatch_gradient
}
criterion_main!(benches);
