//! Steady-state allocation audit for the per-sample hot paths.
//!
//! Search and training execute the same small circuits millions of times;
//! the workspace arenas and recycled fusion scratch exist so that after a
//! short warmup, `Program::run_with` and `AdjointProgram::gradient_into`
//! touch the heap **zero** times per sample. This test pins that property with a
//! counting global allocator: any future change that sneaks a `Vec` or
//! `clone` back onto the hot path fails here immediately.
//!
//! The circuit stays at 4 qubits — far below the engine's
//! amplitude-parallelism threshold — so the whole workload runs on the
//! test thread and never wakes the pool (pool dispatch allocates its job
//! envelope by design; batch-level callers amortize that once per batch,
//! not per sample).

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_sim::oracle::inject_pauli_tableau;
use elivagar_sim::{
    lower_instruction, workspace, AdjointBinding, AdjointProgram, CircuitNoise, CliffordOp,
    FrameSimulator, Gradients, PauliError, Program, TaskSeeds, ZObservable, BLOCK_LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations and reallocations, delegating to the
/// system allocator. Frees are not counted: releasing memory is harmless;
/// taking it is what the steady state must avoid. The counter is
/// per-thread (const-initialized TLS, so reading it never allocates)
/// because zero-allocation is a property of the executing thread — the
/// test harness's own threads may allocate concurrently and must not
/// produce false positives.
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

/// Mixed static/dynamic circuit: feature embeddings and trainable
/// rotations force the per-sample re-fusion path, `Cx` layers exercise the
/// static kernels.
fn hot_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    for q in 0..4 {
        c.push_gate(Gate::Rx, &[q], &[ParamExpr::feature(q % 2)]);
        c.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(q)]);
    }
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(4)]);
    c.push_gate(Gate::Cx, &[2, 3], &[]);
    c.push_gate(Gate::Ry, &[3], &[ParamExpr::trainable(5)]);
    c.set_measured(vec![0, 1, 2, 3]);
    c
}

#[test]
fn steady_state_sample_path_does_not_allocate() {
    let circuit = hot_circuit();
    let program = Program::compile(&circuit);
    let adjoint = AdjointProgram::compile(&circuit);
    let params = [0.3, -0.1, 0.7, 0.2, -0.5, 0.9];
    let features = [0.4, -0.8];
    let observable = ZObservable::new(vec![(0, 0.5), (1, 0.5), (2, -0.5), (3, -0.5)]);
    let mut grads = Gradients {
        expectation: 0.0,
        params: Vec::new(),
        features: Vec::new(),
    };

    let mut binding = AdjointBinding::default();

    // Warmup: fill the thread-local workspace pools and fusion scratch,
    // and let `grads` and the binding grow to their final sizes.
    let mut acc = 0.0;
    for _ in 0..3 {
        acc += program.run_with(&params, &features, |psi| psi.expectation_z(0));
        adjoint.bind_into(&params, &mut binding);
        adjoint.gradient_into(&binding, &features, &observable, &mut grads);
        acc += grads.expectation;
    }

    // Steady state: zero heap traffic across many samples, rebinding
    // every tenth as a training step would.
    let before = thread_allocations();
    for i in 0..100 {
        acc += program.run_with(&params, &features, |psi| psi.expectation_z(0));
        if i % 10 == 0 {
            adjoint.bind_into(&params, &mut binding);
        }
        adjoint.gradient_into(&binding, &features, &observable, &mut grads);
        acc += grads.params.iter().sum::<f64>();
    }
    let delta = thread_allocations() - before;

    assert!(acc.is_finite(), "keep the work observable");
    assert_eq!(
        delta, 0,
        "steady-state execute/gradient path allocated {delta} times in 100 iterations"
    );
}

/// Clifford circuit whose measured outcomes are deterministic in every
/// branch (Pauli injections only flip signs), so the tableau trajectory
/// path stays on the clone-free fast path of
/// `measurement_distribution_into`.
fn deterministic_clifford_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.push_gate(Gate::X, &[0], &[]);
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.push_gate(Gate::Cx, &[1, 2], &[]);
    c.push_gate(Gate::X, &[3], &[]);
    c.set_measured(vec![0, 1, 2, 3]);
    c
}

#[test]
fn steady_state_tableau_trajectory_shot_does_not_allocate() {
    let c = deterministic_clifford_circuit();
    let noise = CircuitNoise::uniform(&[1, 2, 2, 1], 4, 0.05, 0.03, 0.02);
    let lowered: Vec<Vec<CliffordOp>> = c
        .instructions()
        .iter()
        .map(|ins| lower_instruction(ins, &ins.resolve_params(&[], &[])).expect("clifford"))
        .collect();
    let pauli: Vec<Vec<PauliError>> = noise
        .per_instruction
        .iter()
        .map(|n| n.as_pauli_only())
        .collect();
    let mut dist = Vec::new();
    let run_shot = |seed: u64, dist: &mut Vec<f64>| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = workspace::acquire_tableau(c.num_qubits());
        for ((ins, ops), errs) in c.instructions().iter().zip(&lowered).zip(&pauli) {
            t.apply_all(ops);
            for (k, &q) in ins.qubits.iter().enumerate() {
                inject_pauli_tableau(&mut t, q, &errs[k], &mut rng);
            }
        }
        t.measurement_distribution_into(c.measured(), dist);
        workspace::release_tableau(t);
    };

    // Warmup: pool a tableau and size the distribution buffer.
    for s in 0..3 {
        run_shot(s, &mut dist);
    }

    let before = thread_allocations();
    let mut acc = 0.0;
    for s in 0..100 {
        run_shot(s, &mut dist);
        acc += dist.iter().sum::<f64>();
    }
    let delta = thread_allocations() - before;

    assert!((acc - 100.0).abs() < 1e-9, "each shot is a distribution");
    assert_eq!(
        delta, 0,
        "steady-state tableau trajectory shot allocated {delta} times in 100 shots"
    );
}

#[test]
fn steady_state_frame_block_does_not_allocate() {
    let c = deterministic_clifford_circuit();
    let noise = CircuitNoise::uniform(&[1, 2, 2, 1], 4, 0.05, 0.03, 0.02);
    let sim = FrameSimulator::compile(&c, &[], &[], &noise).expect("clifford");
    let seeds = TaskSeeds::from_base(7);
    let mut masks = [0u64; BLOCK_LANES];

    // Warmup: pool the x/z word buffers and the lane generators.
    sim.block_masks(&seeds, 0, BLOCK_LANES, &mut masks);

    let before = thread_allocations();
    let mut acc = 0u64;
    for block in 0..50 {
        sim.block_masks(&seeds, block * BLOCK_LANES, BLOCK_LANES, &mut masks);
        acc ^= masks[block % BLOCK_LANES];
    }
    let delta = thread_allocations() - before;

    assert!(acc < u64::MAX, "keep the work observable");
    assert_eq!(
        delta, 0,
        "steady-state frame-block propagation allocated {delta} times in 50 blocks"
    );
}
