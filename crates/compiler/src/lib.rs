//! Quantum circuit compilation for the Elivagar reproduction.
//!
//! Reproduces the compilation stack the paper's experiments rely on:
//! SABRE swap routing ([`sabre`]), initial layout selection ([`mapping`]),
//! native-basis translation ([`basis`]), peephole optimization ([`passes`]),
//! and a Qiskit-style leveled pipeline ([`mod@compile`]).
//!
//! # Examples
//!
//! ```
//! use elivagar_circuit::{Circuit, Gate};
//! use elivagar_compiler::{compile, CompileOptions, OptimizationLevel};
//! use elivagar_device::devices::ibm_lagos;
//!
//! let mut c = Circuit::new(3);
//! c.push_gate(Gate::Cx, &[0, 2], &[]); // qubits 0 and 2 are not coupled
//! c.set_measured(vec![0, 2]);
//! let compiled = compile(&c, &ibm_lagos(), CompileOptions::default());
//! assert!(elivagar_compiler::is_hardware_efficient(&compiled.circuit, &ibm_lagos()));
//! ```

pub mod basis;
pub mod compile;
pub mod mapping;
pub mod passes;
pub mod sabre;
pub mod synthesis;

pub use basis::{decompose_to_basis, TwoQubitBasis};
pub use compile::{
    compile, is_hardware_efficient, CompileOptions, CompiledCircuit, OptimizationLevel,
};
pub use mapping::{noise_aware_mapping, random_mapping, trivial_mapping};
pub use passes::{cancel_adjacent_inverses, fuse_single_qubit_runs, remove_trivial_gates, zyz_decompose};
pub use sabre::{route, RoutedCircuit};
pub use synthesis::synthesize_state_prep;
