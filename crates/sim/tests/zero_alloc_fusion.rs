//! Steady-state allocation audit for the fused-block execution engine and
//! the streamed adjoint.
//!
//! The cache-blocked executor and `AdjointProgram::run_adjoint_with` are
//! the per-sample training hot path; after a short warmup both must touch
//! the heap **zero** times per sample, exactly like the small-circuit
//! `Program::run_with` / `AdjointProgram::gradient_into` pair audited in
//! `zero_alloc.rs`. The circuit here is 13 qubits — *above*
//! `TILE_QUBITS`, so the forward sweep actually runs the tiled per-block
//! executor — but below the amplitude-parallelism threshold, so the whole
//! workload stays on the test thread and never wakes the pool (pool
//! dispatch allocates its job envelope by design; batch callers amortize
//! that once per batch).

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_sim::{AdjointProgram, Gradients, Program, ZObservable, TILE_QUBITS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations and reallocations, delegating to the
/// system allocator (same harness as `zero_alloc.rs`: frees are harmless,
/// taking memory is what the steady state must avoid, and the counter is
/// per-thread so harness threads cannot false-positive).
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

/// 13-qubit circuit mixing long static low-qubit runs (tiled execution),
/// high-qubit barriers (full sweeps), and dynamic gates (per-sample
/// re-fusion plus adjoint gradient slots).
fn tiled_circuit() -> Circuit {
    let num_qubits = TILE_QUBITS + 1;
    let mut c = Circuit::new(num_qubits);
    for q in 0..8 {
        c.push_gate(Gate::H, &[q], &[]);
        c.push_gate(Gate::Rz, &[q], &[ParamExpr::constant(0.15 + 0.1 * q as f64)]);
    }
    for q in 0..7 {
        c.push_gate(Gate::Cx, &[q, q + 1], &[]);
    }
    c.push_gate(Gate::H, &[num_qubits - 1], &[]);
    c.push_gate(Gate::Crz, &[3, num_qubits - 1], &[ParamExpr::trainable(0)]);
    for q in 0..4 {
        c.push_gate(Gate::Rx, &[q], &[ParamExpr::feature(q % 2)]);
        c.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(q)]);
    }
    c.push_gate(Gate::Rzz, &[2, 5], &[ParamExpr::trainable(4)]);
    c.set_measured(vec![0, 1, 2, 3]);
    c
}

#[test]
fn steady_state_fused_execute_and_streamed_adjoint_do_not_allocate() {
    let circuit = tiled_circuit();
    let program = Program::compile(&circuit);
    let adjoint = AdjointProgram::compile(&circuit);
    let params = [0.3, -0.1, 0.7, 0.2, -0.5];
    let features = [0.4, -0.8];
    let mut obs = ZObservable::new(vec![(0, 0.5), (1, 0.5), (2, -0.5), (3, -0.5)]);
    let mut grads = Gradients {
        expectation: 0.0,
        params: Vec::new(),
        features: Vec::new(),
    };

    let binding = adjoint.bind(&params);

    // Warmup: fill the workspace pools (two adjoint states plus the
    // forward state), the fusion scratch, the matrix record, and `grads`.
    let mut acc = 0.0;
    for _ in 0..3 {
        acc += program.run_with(&params, &features, |psi| psi.expectation_z(0));
        acc += adjoint.run_adjoint_with(
            &binding,
            &features,
            &mut obs,
            |psi, _| psi.expectation_z(1),
            &mut grads,
        );
    }

    // Steady state: zero heap traffic across many samples of the tiled
    // forward execute and the streamed forward/backward adjoint.
    let before = thread_allocations();
    for _ in 0..50 {
        acc += program.run_with(&params, &features, |psi| psi.expectation_z(0));
        acc += adjoint.run_adjoint_with(
            &binding,
            &features,
            &mut obs,
            |psi, _| psi.expectation_z(1),
            &mut grads,
        );
        acc += grads.params.iter().sum::<f64>();
    }
    let delta = thread_allocations() - before;

    assert!(acc.is_finite(), "keep the work observable");
    assert_eq!(
        delta, 0,
        "steady-state fused execute + streamed adjoint allocated {delta} times in 50 iterations"
    );
}
