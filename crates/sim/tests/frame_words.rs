//! Differential suite: `FrameWords<W>` block widths versus the original
//! single-word frame path and the per-shot tableau reference.
//!
//! The wide-block claim (see `frame.rs`'s module docs) is that lane
//! seeding depends only on the absolute trajectory index, so a `W`-word
//! block of `W * 64` lanes produces bit-for-bit the masks of `W`
//! consecutive single-word blocks — the single-word result is a prefix of
//! every wider layout. Two properties pin it for W ∈ {1, 4, 8}:
//!
//! 1. **Cross-width equality** — `trajectory_masks_words::<W>` is
//!    identical for every `W`, including trajectory counts that leave
//!    ragged trailing blocks at each width.
//! 2. **Tableau equality** — every per-trajectory measurement
//!    distribution obtained by replaying the full tableau with injected
//!    sign flips equals the ideal distribution permuted by the wide-block
//!    x-mask, so wider words inherit the frame engine's exactness proof.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_sim::oracle::inject_pauli_tableau;
use elivagar_sim::{
    lower_instruction, CircuitNoise, FrameSimulator, Tableau, TaskSeeds,
};
use proptest::prelude::*;

const FRAC_PI_2: f64 = std::f64::consts::FRAC_PI_2;

/// Random Clifford circuits over the lowered gate alphabet with a random
/// non-empty measured subset (a compact version of the generator in
/// `frame_vs_tableau.rs`).
fn arb_clifford_circuit() -> impl Strategy<Value = Circuit> {
    let gates = prop::collection::vec((0u8..8, 0usize..4, 0usize..4, 0u8..4), 1..16);
    (1usize..=4, gates, 1u32..16).prop_map(|(n, ops, raw_measured)| {
        let mut c = Circuit::new(n);
        for (kind, qa, qb, k) in ops {
            let qa = qa % n;
            let qb = qb % n;
            let angle = k as f64 * FRAC_PI_2;
            match kind {
                0 => c.push_gate(Gate::H, &[qa], &[]),
                1 => c.push_gate(Gate::S, &[qa], &[]),
                2 => c.push_gate(Gate::X, &[qa], &[]),
                3 => c.push_gate(Gate::Sx, &[qa], &[]),
                4 => c.push_gate(Gate::Rx, &[qa], &[ParamExpr::constant(angle)]),
                5 => c.push_gate(Gate::Rz, &[qa], &[ParamExpr::constant(angle)]),
                6 if qa != qb => c.push_gate(Gate::Cx, &[qa, qb], &[]),
                7 if qa != qb => c.push_gate(Gate::Cz, &[qa, qb], &[]),
                _ => {}
            }
        }
        let mut mask = raw_measured as usize & ((1usize << n) - 1);
        if mask == 0 {
            mask = 1;
        }
        c.set_measured((0..n).filter(|q| mask >> q & 1 == 1).collect());
        c
    })
}

/// Uniform Pauli noise sized to `circuit` (no readout: masks only).
fn noise_for(circuit: &Circuit, p1: f64, p2: f64) -> CircuitNoise {
    let arities: Vec<usize> =
        circuit.instructions().iter().map(|i| i.qubits.len()).collect();
    CircuitNoise::uniform(&arities, circuit.measured().len(), p1, p2, 0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_block_width_produces_identical_masks(
        circuit in arb_clifford_circuit(),
        p1 in 0.0f64..0.15,
        p2 in 0.0f64..0.2,
        // Straddles ragged trailing blocks at all widths: 64, 256, 512.
        num_trajectories in 1usize..=600,
        seed in 0u64..1000,
    ) {
        let noise = noise_for(&circuit, p1, p2);
        let sim = FrameSimulator::compile(&circuit, &[], &[], &noise)
            .expect("clifford by construction");
        let seeds = TaskSeeds::from_base(seed);
        let w1 = sim.trajectory_masks_words::<1>(&seeds, num_trajectories);
        prop_assert_eq!(&w1, &sim.trajectory_masks(&seeds, num_trajectories));
        prop_assert_eq!(&w1, &sim.trajectory_masks_words::<4>(&seeds, num_trajectories));
        prop_assert_eq!(&w1, &sim.trajectory_masks_words::<8>(&seeds, num_trajectories));
    }

    #[test]
    fn wide_block_trajectories_match_the_tableau_replay(
        circuit in arb_clifford_circuit(),
        p1 in 0.0f64..0.15,
        p2 in 0.0f64..0.2,
        num_trajectories in 1usize..=80,
        seed in 0u64..1000,
    ) {
        let noise = noise_for(&circuit, p1, p2);
        let sim = FrameSimulator::compile(&circuit, &[], &[], &noise)
            .expect("clifford by construction");
        let ideal = sim.ideal_distribution();
        let seeds = TaskSeeds::from_base(seed);
        let masks4 = sim.trajectory_masks_words::<4>(&seeds, num_trajectories);
        let masks8 = sim.trajectory_masks_words::<8>(&seeds, num_trajectories);
        prop_assert_eq!(&masks4, &masks8);

        let lowered: Vec<_> = circuit
            .instructions()
            .iter()
            .map(|ins| {
                lower_instruction(ins, &ins.resolve_params(&[], &[]))
                    .expect("clifford by construction")
            })
            .collect();
        let pauli: Vec<_> = noise
            .per_instruction
            .iter()
            .map(|n| n.as_pauli_only())
            .collect();

        for (t, &mask) in masks4.iter().enumerate() {
            // Replay trajectory `t` on the tableau engine with the same
            // per-trajectory RNG stream the wide frame block consumed.
            let mut rng = seeds.rng(t);
            let mut tab = Tableau::new(circuit.num_qubits());
            for ((ins, ops), errs) in
                circuit.instructions().iter().zip(&lowered).zip(&pauli)
            {
                tab.apply_all(ops);
                for (k, &q) in ins.qubits.iter().enumerate() {
                    inject_pauli_tableau(&mut tab, q, &errs[k], &mut rng);
                }
            }
            let dist = tab.measurement_distribution(circuit.measured());
            prop_assert_eq!(dist.len(), ideal.len());
            for (i, d) in dist.iter().enumerate() {
                let expected = ideal[i ^ mask as usize];
                prop_assert_eq!(
                    d.to_bits(), expected.to_bits(),
                    "trajectory {} mask {:#x} index {}: tableau {} vs permuted ideal {}",
                    t, mask, i, d, expected
                );
            }
        }
    }
}

/// Deterministic boundary sweep: exact block-edge trajectory counts at
/// every width, each compared lane-for-lane against the single-word path.
#[test]
fn block_boundary_counts_are_prefix_consistent() {
    let mut c = Circuit::new(3);
    c.push_gate(Gate::H, &[0], &[]);
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.push_gate(Gate::S, &[2], &[]);
    c.push_gate(Gate::Cx, &[1, 2], &[]);
    c.set_measured(vec![0, 1, 2]);
    let arities = [1, 2, 1, 2];
    let noise = CircuitNoise::uniform(&arities, 3, 0.1, 0.15, 0.0);
    let sim = FrameSimulator::compile(&c, &[], &[], &noise).unwrap();
    let seeds = TaskSeeds::from_base(12345);
    for n in [1, 63, 64, 65, 255, 256, 257, 511, 512, 513] {
        let w1 = sim.trajectory_masks_words::<1>(&seeds, n);
        assert_eq!(w1, sim.trajectory_masks_words::<4>(&seeds, n), "n = {n} (W=4)");
        assert_eq!(w1, sim.trajectory_masks_words::<8>(&seeds, n), "n = {n} (W=8)");
    }
}
