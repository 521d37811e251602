//! Quantum simulation engines for the Elivagar reproduction.
//!
//! The paper's experiments run on real devices and on noisy simulators; this
//! crate provides everything those need, built from scratch:
//!
//! * [`StateVector`] — dense noiseless simulation (training, RepCap);
//! * [`adjoint`] — O(1)-sweep gradients, the classical "backprop" analog,
//!   streamed through the fused engine ([`AdjointProgram`]);
//! * [`stabilizer`] + [`clifford`] — Aaronson–Gottesman tableau simulation
//!   of Clifford circuits (the engine behind the CNR predictor);
//! * [`noise`] — Pauli / damping / readout channel descriptions;
//! * [`trajectory`] — Monte-Carlo noisy execution on the state vector;
//! * [`frame`] — bit-parallel Pauli-frame trajectories of noisy Clifford
//!   circuits ([`noisy_clifford_distribution`], CNR's noisy runs);
//! * [`density`] — exact density-matrix simulation, the ground truth the
//!   trajectory and Pauli-frame engines are validated against
//!   (`tests/cross_simulator.rs`);
//! * [`engine`] — the batched gate-fusion execution engine: compile a
//!   circuit once into fused kernels ([`Program::compile`]), bind a
//!   parameter vector ([`Program::bind`]), then execute whole batches of
//!   feature vectors ([`BoundProgram::run_batch_with`]);
//! * [`runtime`] + [`parallel`] — the persistent work-stealing thread
//!   pool every parallel region dispatches through (sized by
//!   `ELIVAGAR_THREADS`), with order-preserving [`parallel::par_map`]
//!   helpers and deterministic per-task seed splitting ([`TaskSeeds`]);
//!   results are bit-for-bit identical at any thread count;
//! * [`workspace`] — per-thread arenas recycling state-vector and
//!   scratch buffers, so the steady-state per-sample execute/gradient
//!   path ([`Program::run_with`], [`AdjointProgram::gradient_into`])
//!   performs zero heap allocations;
//! * [`cancel`] — [`CancelToken`], the cooperative cancellation handle
//!   long-running pipelines poll at slice/epoch boundaries (explicit
//!   cancel or wall-clock deadline);
//! * [`faultpoint`] — deterministic, seed-driven sites where the chaos
//!   suites inject faults (panics, NaNs, torn file writes), compiled into
//!   every build; a disarmed hit costs one relaxed load;
//! * [`oracle`] — the plain reference implementations (walk-the-circuit
//!   adjoint, per-shot tableau trajectories) that tests and benches
//!   compare the production paths against. Production code never calls
//!   them, and the crate root re-exports none of them.
//!
//! # The compile → fuse → batch-execute pipeline
//!
//! Search workloads (RepCap, CNR, training) execute one circuit over many
//! `(parameters, features)` pairs. [`engine::Program`] exploits that shape
//! in three phases:
//!
//! 1. **Compile** — classify each instruction once: constant-angle gates
//!    become static unitaries and fuse; trainable or data-dependent gates
//!    stay symbolic.
//! 2. **Bind** — substitute a parameter vector; newly static gates re-fuse
//!    (runs of single-qubit gates collapse to one 2x2, single-qubit gates
//!    are absorbed into neighboring two-qubit kernels, adjacent two-qubit
//!    gates on the same pair merge). Only feature-dependent gates remain
//!    symbolic, and they too are resolved and fused per sample.
//! 3. **Batch-execute** — run every feature vector through the fused
//!    kernels, parallelized across samples (and across amplitude blocks
//!    for large states). Results are bit-for-bit identical to running the
//!    samples sequentially.
//!
//! # Examples
//!
//! ```
//! use elivagar_circuit::{Circuit, Gate};
//! use elivagar_sim::StateVector;
//!
//! let mut c = Circuit::new(2);
//! c.push_gate(Gate::H, &[0], &[]);
//! c.push_gate(Gate::Cx, &[0, 1], &[]);
//! c.set_measured(vec![0, 1]);
//! let psi = StateVector::run(&c, &[], &[]);
//! let dist = psi.marginal_probabilities(c.measured());
//! assert!((dist[0] - 0.5).abs() < 1e-12);
//! ```

pub mod adjoint;
pub mod cancel;
pub mod clifford;
pub mod density;
pub mod engine;
#[cfg(target_arch = "x86_64")]
mod exact_simd;
pub mod faultpoint;
pub mod frame;
pub mod noise;
pub mod oracle;
pub mod parallel;
pub mod runtime;
pub mod sampling;
pub mod stabilizer;
pub mod statevector;
pub mod trajectory;
pub mod workspace;

pub use adjoint::{AdjointBinding, AdjointProgram, Gradients, ZObservable};
pub use engine::{par_items_with_arena, BoundProgram, Program, TILE_QUBITS};
pub use cancel::CancelToken;
pub use clifford::{lower_instruction, LowerCliffordError};
pub use density::DensityMatrix;
pub use noise::{CircuitNoise, DampingError, InstructionNoise, PauliError, ReadoutError};
pub use parallel::TaskPanic;
pub use runtime::{num_threads, panic_message, threads_from_env, TaskSeeds, THREADS_ENV};
pub use sampling::{counts_to_distribution, fidelity, pairwise_tvd_into, tvd};
pub use stabilizer::{CliffordOp, Tableau};
pub use statevector::{SimError, StateVector};
pub use frame::{noisy_clifford_distribution, FrameDistributions, FrameSimulator, BLOCK_LANES};
pub use trajectory::{noisy_distribution, noisy_distribution_seeded};
