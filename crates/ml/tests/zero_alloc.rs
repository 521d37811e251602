//! Steady-state allocation audit for the batched cohort training path.
//!
//! The search engine trains its whole top-k cohort through
//! `cohort_batch_gradients` thousands of times per run; the arena, the
//! recycled output vector, and the thread-local gradient scratch exist so
//! that after a short warmup the fused dispatch → per-member reduce →
//! optimizer step loop touches the heap **zero** times per minibatch.
//! This test pins that property with a counting global allocator, for
//! both gradient methods.
//!
//! `ELIVAGAR_THREADS=1` is set before the first pool use so the dispatch
//! runs inline on the test thread (a multi-worker dispatch allocates its
//! job envelope by design; that cost is per-batch and measured by
//! `bench_train`, not here) — which is also why everything lives in one
//! `#[test]`: the env var must be set before any other test can build the
//! pool.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_ml::{
    cohort_batch_gradients, init_params, Adam, GradientMethod, MultiItem, QuantumClassifier,
};
use elivagar_sim::AdjointProgram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations and reallocations, delegating to the
/// system allocator (same harness as the sim crate's audit: frees are
/// harmless, taking memory is what the steady state must avoid, and the
/// counter is per-thread so harness threads cannot false-positive).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Small entangled classifier with `layers * qubits + 1` trainable params
/// — cohort members deliberately differ in size to exercise the ragged
/// arena stride.
fn layered_model(qubits: usize, layers: usize) -> QuantumClassifier {
    let mut c = Circuit::new(qubits);
    for q in 0..qubits {
        c.push_gate(Gate::Rx, &[q], &[ParamExpr::feature(q % 2)]);
    }
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..qubits {
            c.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(t)]);
            t += 1;
        }
        for q in 0..qubits.saturating_sub(1) {
            c.push_gate(Gate::Cx, &[q, q + 1], &[]);
        }
    }
    c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(t)]);
    c.set_measured(vec![0]);
    QuantumClassifier::new(c, 2)
}

#[test]
fn steady_state_cohort_minibatch_does_not_allocate() {
    // Must happen before the first pool use anywhere in this process.
    std::env::set_var(elivagar_sim::runtime::THREADS_ENV, "1");

    let models = [layered_model(2, 1), layered_model(3, 2), layered_model(2, 2)];
    let adjoints: Vec<AdjointProgram> =
        models.iter().map(|m| AdjointProgram::compile(m.circuit())).collect();
    let features: Vec<Vec<f64>> =
        (0..16).map(|i| vec![0.1 * i as f64 - 0.8, 0.05 * i as f64]).collect();
    let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
    // Member-major items, every member seeing every sample — the same
    // shape train_cohort builds per minibatch chunk.
    let items: Vec<MultiItem> = (0..models.len() as u32)
        .flat_map(|m| (0..16u32).map(move |s| MultiItem { member: m, sample: s }))
        .collect();

    let mut params: Vec<Vec<f64>> = models
        .iter()
        .map(|m| {
            let mut rng = StdRng::seed_from_u64(11);
            init_params(m.circuit().num_trainable_params(), &mut rng)
        })
        .collect();
    let mut opts: Vec<Adam> = params.iter().map(|p| Adam::new(p.len(), 0.01)).collect();
    let mut grad: Vec<f64> = Vec::new();
    let mut arena: Vec<f64> = Vec::new();
    let mut out: Vec<(f64, u64)> = Vec::new();

    for method in [GradientMethod::Adjoint, GradientMethod::ParameterShift] {
        // One minibatch: fused dispatch, then the sequential per-member
        // reduce + Adam step exactly as `train_cohort` performs it.
        let step = |params: &mut [Vec<f64>],
                        opts: &mut [Adam],
                        arena: &mut Vec<f64>,
                        out: &mut Vec<(f64, u64)>,
                        grad: &mut Vec<f64>| {
            let stride = cohort_batch_gradients(
                &models, &adjoints, params, &features, &labels, &items, method, arena, out,
            );
            let mut acc = 0.0;
            for (m, p) in params.iter_mut().enumerate() {
                grad.clear();
                grad.resize(p.len(), 0.0);
                let offset = m * features.len();
                let mut loss = 0.0;
                for i in 0..features.len() {
                    loss += out[offset + i].0;
                    let slice = &arena[(offset + i) * stride..][..p.len()];
                    for (g, s) in grad.iter_mut().zip(slice) {
                        *g += s;
                    }
                }
                for g in grad.iter_mut() {
                    *g /= features.len() as f64;
                }
                opts[m].step(p, grad);
                acc += loss;
            }
            acc
        };

        // Warmup: size the arena, the output vector, the gradient
        // scratch, and the engine's thread-local workspaces.
        let mut acc = 0.0;
        for _ in 0..3 {
            acc += step(&mut params, &mut opts, &mut arena, &mut out, &mut grad);
        }

        let before = thread_allocations();
        for _ in 0..50 {
            acc += step(&mut params, &mut opts, &mut arena, &mut out, &mut grad);
        }
        let delta = thread_allocations() - before;

        assert!(acc.is_finite(), "keep the work observable");
        assert_eq!(
            delta, 0,
            "steady-state cohort minibatch ({method:?}) allocated {delta} times in 50 steps"
        );
    }
}
