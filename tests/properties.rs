//! Property-based tests over the core invariants, spanning crates:
//! unitarity of simulation, semantic preservation of the compiler, and
//! structural invariants of Elivagar's generation.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_compiler::{cancel_adjacent_inverses, decompose_to_basis, route, TwoQubitBasis};
use elivagar_device::Topology;
use elivagar_sim::{tvd, CircuitNoise, FrameSimulator, Program, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A strategy producing random small circuits (2-4 qubits, up to 20
/// gates) over a representative gate mix.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let gates = prop::collection::vec((0u8..12, 0usize..4, 0usize..4, -3.2f64..3.2), 1..20);
    (2usize..5, gates).prop_map(|(n, ops)| {
        let mut c = Circuit::new(n);
        let mut next_param = 0;
        for (kind, qa, qb, angle) in ops {
            let qa = qa % n;
            let qb = qb % n;
            match kind {
                0 => c.push_gate(Gate::H, &[qa], &[]),
                1 => c.push_gate(Gate::X, &[qa], &[]),
                2 => c.push_gate(Gate::S, &[qa], &[]),
                3 => c.push_gate(Gate::T, &[qa], &[]),
                4 => {
                    c.push_gate(Gate::Rx, &[qa], &[ParamExpr::trainable(next_param)]);
                    next_param += 1;
                }
                5 => {
                    c.push_gate(Gate::Ry, &[qa], &[ParamExpr::constant(angle)]);
                }
                6 => {
                    c.push_gate(Gate::Rz, &[qa], &[ParamExpr::feature(0)]);
                }
                7 if qa != qb => c.push_gate(Gate::Cx, &[qa, qb], &[]),
                8 if qa != qb => c.push_gate(Gate::Cz, &[qa, qb], &[]),
                9 if qa != qb => {
                    c.push_gate(Gate::Crz, &[qa, qb], &[ParamExpr::constant(angle)])
                }
                10 if qa != qb => {
                    c.push_gate(Gate::Rzz, &[qa, qb], &[ParamExpr::trainable(next_param)]);
                    next_param += 1;
                }
                11 if qa != qb => c.push_gate(Gate::Swap, &[qa, qb], &[]),
                _ => {}
            }
        }
        c.set_measured((0..n).collect());
        c
    })
}

fn params_for(c: &Circuit) -> Vec<f64> {
    (0..c.num_trainable_params()).map(|i| 0.3 + 0.41 * i as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulation_preserves_norm(circuit in arb_circuit()) {
        let params = params_for(&circuit);
        let psi = StateVector::run(&circuit, &params, &[0.7]);
        prop_assert!((psi.norm() - 1.0).abs() < 1e-9);
        let dist = psi.marginal_probabilities(circuit.measured());
        prop_assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(dist.iter().all(|&p| p >= -1e-12));
    }

    #[test]
    fn fused_program_matches_gate_by_gate_amplitudes(circuit in arb_circuit()) {
        let params = params_for(&circuit);
        let features = [0.7];
        let reference = StateVector::run(&circuit, &params, &features);
        let program = Program::compile(&circuit);
        // Both the symbolic program and the parameter-bound (re-fused)
        // program must reproduce the unfused amplitudes exactly.
        for psi in [program.run(&params, &features), program.bind(&params).run(&features)] {
            for (a, b) in psi.amplitudes().iter().zip(reference.amplitudes()) {
                prop_assert!(a.approx_eq(*b, 1e-10), "fused {a:?} vs unfused {b:?}");
            }
        }
    }

    #[test]
    fn cancellation_pass_preserves_semantics(circuit in arb_circuit()) {
        let params = params_for(&circuit);
        let optimized = cancel_adjacent_inverses(&circuit);
        prop_assert!(optimized.len() <= circuit.len());
        let a = StateVector::run(&circuit, &params, &[0.7])
            .marginal_probabilities(circuit.measured());
        let b = StateVector::run(&optimized, &params, &[0.7])
            .marginal_probabilities(optimized.measured());
        prop_assert!(tvd(&a, &b) < 1e-9);
    }

    #[test]
    fn basis_decomposition_preserves_semantics(circuit in arb_circuit()) {
        let params = params_for(&circuit);
        for basis in [TwoQubitBasis::Cx, TwoQubitBasis::Cz] {
            let lowered = decompose_to_basis(&circuit, basis);
            let native = match basis { TwoQubitBasis::Cx => Gate::Cx, TwoQubitBasis::Cz => Gate::Cz };
            prop_assert!(lowered
                .instructions()
                .iter()
                .all(|i| i.qubits.len() == 1 || i.gate == native));
            let a = StateVector::run(&circuit, &params, &[0.7])
                .marginal_probabilities(circuit.measured());
            let b = StateVector::run(&lowered, &params, &[0.7])
                .marginal_probabilities(lowered.measured());
            prop_assert!(tvd(&a, &b) < 1e-9);
        }
    }

    #[test]
    fn routing_preserves_semantics_on_a_line(circuit in arb_circuit()) {
        let n = circuit.num_qubits();
        let topo = Topology::line(n.max(2));
        let mapping: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let routed = route(&circuit, &topo, &mapping, &mut rng);
        for ins in routed.circuit.instructions() {
            if ins.qubits.len() == 2 {
                prop_assert!(topo.are_coupled(ins.qubits[0], ins.qubits[1]));
            }
        }
        let params = params_for(&circuit);
        let a = StateVector::run(&circuit, &params, &[0.7])
            .marginal_probabilities(circuit.measured());
        let b = StateVector::run(&routed.circuit, &params, &[0.7])
            .marginal_probabilities(routed.circuit.measured());
        prop_assert!(tvd(&a, &b) < 1e-9);
    }

    #[test]
    fn clifford_replicas_are_always_stabilizer_simulable(circuit in arb_circuit()) {
        let mut rng = StdRng::seed_from_u64(11);
        let replica = elivagar::clifford_replica(&circuit, &mut rng);
        prop_assert_eq!(replica.len(), circuit.len());
        prop_assert_eq!(replica.depth(), circuit.depth());
        // T gates are the only thing that can keep a replica non-Clifford.
        let has_t = circuit
            .instructions()
            .iter()
            .any(|i| matches!(i.gate, Gate::T | Gate::Tdg));
        if !has_t {
            // The ideal path CNR runs: the frame engine's noiseless tableau.
            let arities: Vec<usize> =
                replica.instructions().iter().map(|i| i.qubits.len()).collect();
            let noise = CircuitNoise::noiseless(&arities, replica.measured().len());
            let sim = FrameSimulator::compile(&replica, &[], &[], &noise);
            prop_assert!(sim.is_ok());
            let dist = sim.expect("clifford").ideal_distribution();
            prop_assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // The stabilizer distribution must agree with dense simulation.
            let dense = StateVector::run(&replica, &[], &[])
                .marginal_probabilities(replica.measured());
            prop_assert!(tvd(&dist, &dense) < 1e-9);
        }
    }

    #[test]
    fn remap_roundtrips(circuit in arb_circuit(), offset in 0usize..4) {
        let n = circuit.num_qubits();
        let big = n + offset + 1;
        // Rotate qubits by `offset` within a `big`-qubit register, then
        // rotate back with the inverse permutation.
        let mapping: Vec<usize> = (0..n).map(|q| (q + offset) % big).collect();
        let there = circuit.remap(&mapping, big);
        let inverse: Vec<usize> = (0..big).map(|p| (p + big - offset % big) % big).collect();
        let back = there.remap(&inverse, big);
        prop_assert_eq!(back.instructions(), circuit.instructions());
        prop_assert_eq!(back.measured(), circuit.measured());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_candidates_always_satisfy_invariants(seed in 0u64..1000) {
        use elivagar::{generate_candidate, SearchConfig};
        let device = elivagar_device::devices::ibmq_kolkata();
        let config = SearchConfig::for_task(4, 10, 4, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let cand = generate_candidate(&device, &config, &mut rng);
        prop_assert_eq!(cand.circuit.num_trainable_params(), 10);
        prop_assert!(device.topology().is_connected_subset(&cand.placement));
        let physical = cand.physical_circuit(&device);
        for ins in physical.instructions() {
            if ins.qubits.len() == 2 {
                prop_assert!(device.topology().are_coupled(ins.qubits[0], ins.qubits[1]));
            }
        }
    }

    #[test]
    fn fused_execution_is_exact_over_all_gateset_variants(seed in 0u64..1000) {
        // Candidates drawn from every supported gate pool — including the
        // searched-embedding and U3/controlled-rotation gates arb_circuit
        // does not emit — must fuse without changing the amplitudes.
        use elivagar::{generate_candidate, GateSet, SearchConfig};
        let device = elivagar_device::devices::ibmq_kolkata();
        for gateset in [GateSet::rxyz_cz(), GateSet::elivagar_default()] {
            let mut config = SearchConfig::for_task(4, 10, 4, 2);
            config.gateset = gateset;
            let mut rng = StdRng::seed_from_u64(seed);
            let cand = generate_candidate(&device, &config, &mut rng);
            let params: Vec<f64> = (0..cand.circuit.num_trainable_params())
                .map(|i| -1.1 + 0.37 * i as f64)
                .collect();
            let features = [0.4, -0.9, 1.7, 0.2];
            let reference = StateVector::run(&cand.circuit, &params, &features);
            let fused = Program::compile(&cand.circuit).bind(&params).run(&features);
            for (a, b) in fused.amplitudes().iter().zip(reference.amplitudes()) {
                prop_assert!(a.approx_eq(*b, 1e-10), "fused {a:?} vs unfused {b:?}");
            }
        }
    }
}
