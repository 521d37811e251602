//! Differential suite: the bit-parallel Pauli-frame engine versus the
//! per-shot tableau oracle, over random Clifford circuits.
//!
//! Two properties pin the frame engine's exactness claim (see
//! `frame.rs`'s module docs for the argument these tests verify):
//!
//! 1. **Whole-distribution equality** — `noisy_clifford_distribution`
//!    (frame-backed) and `oracle::noisy_clifford_distribution_tableau` produce
//!    bit-for-bit identical averaged distributions from identical RNG
//!    seeds, for any circuit, noise strength, measured subset, and
//!    trajectory count (up to 600: two full 256-lane blocks and a ragged
//!    third, so the block-order reduction is exercised).
//! 2. **Per-trajectory equality** — every individual trajectory's exact
//!    measurement distribution, computed by replaying the full tableau
//!    with injected sign flips, equals the ideal distribution permuted by
//!    that trajectory's frame x-mask: `dist_t[i] == ideal[i ^ mask_t]`
//!    bitwise. This is the stronger statement property 1 averages over.
//!    A second, smaller proptest checks it over two to four 256-lane
//!    blocks, the last one usually ragged.
//!
//! A deterministic sweep checks both at the block-edge trajectory counts.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_sim::oracle::{inject_pauli_tableau, noisy_clifford_distribution_tableau};
use elivagar_sim::{
    lower_instruction, noisy_clifford_distribution, CircuitNoise, FrameSimulator, Tableau,
    TaskSeeds, BLOCK_LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FRAC_PI_2: f64 = std::f64::consts::FRAC_PI_2;
const PI: f64 = std::f64::consts::PI;

/// Random Clifford circuits: the full gate alphabet `lower_instruction`
/// accepts, rotations pinned to their Clifford grids, and a random
/// non-empty measured subset.
fn arb_clifford_circuit() -> impl Strategy<Value = Circuit> {
    let gates = prop::collection::vec((0u8..14, 0usize..5, 0usize..5, 0u8..4), 1..20);
    (1usize..=5, gates, 1u32..32).prop_map(|(n, ops, raw_measured)| {
        let mut c = Circuit::new(n);
        for (kind, qa, qb, k) in ops {
            let qa = qa % n;
            let qb = qb % n;
            let angle = k as f64 * FRAC_PI_2;
            match kind {
                0 => c.push_gate(Gate::H, &[qa], &[]),
                1 => c.push_gate(Gate::X, &[qa], &[]),
                2 => c.push_gate(Gate::Y, &[qa], &[]),
                3 => c.push_gate(Gate::Z, &[qa], &[]),
                4 => c.push_gate(Gate::S, &[qa], &[]),
                5 => c.push_gate(Gate::Sdg, &[qa], &[]),
                6 => c.push_gate(Gate::Sx, &[qa], &[]),
                7 => c.push_gate(Gate::Rx, &[qa], &[ParamExpr::constant(angle)]),
                8 => c.push_gate(Gate::Ry, &[qa], &[ParamExpr::constant(angle)]),
                9 => c.push_gate(Gate::Rz, &[qa], &[ParamExpr::constant(angle)]),
                10 if qa != qb => c.push_gate(Gate::Cx, &[qa, qb], &[]),
                11 if qa != qb => c.push_gate(Gate::Cz, &[qa, qb], &[]),
                12 if qa != qb => {
                    c.push_gate(Gate::Rzz, &[qa, qb], &[ParamExpr::constant(angle)])
                }
                13 if qa != qb => {
                    // Controlled rotations are Clifford on the pi grid.
                    c.push_gate(Gate::Crz, &[qa, qb], &[ParamExpr::constant(k as f64 * PI)])
                }
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

/// Uniform Pauli + readout noise sized to `circuit`.
fn noise_for(circuit: &Circuit, p1: f64, p2: f64, pr: f64) -> CircuitNoise {
    let arities: Vec<usize> =
        circuit.instructions().iter().map(|i| i.qubits.len()).collect();
    CircuitNoise::uniform(&arities, circuit.measured().len(), p1, p2, pr)
}

/// Checks that the frame engine and the tableau oracle produce the same
/// averaged distribution, bit for bit, from the same seed.
fn check_distributions(
    circuit: &Circuit,
    noise: &CircuitNoise,
    seed: u64,
    num_trajectories: usize,
) {
    let mut rng_frame = StdRng::seed_from_u64(seed);
    let mut rng_tableau = StdRng::seed_from_u64(seed);
    let frame =
        noisy_clifford_distribution(circuit, &[], &[], noise, num_trajectories, &mut rng_frame)
            .expect("clifford by construction")
            .noisy;
    let tableau = noisy_clifford_distribution_tableau(
        circuit,
        &[],
        &[],
        noise,
        num_trajectories,
        &mut rng_tableau,
    )
    .expect("clifford by construction");
    assert_eq!(frame.len(), tableau.len());
    for (i, (f, t)) in frame.iter().zip(&tableau).enumerate() {
        assert_eq!(
            f.to_bits(),
            t.to_bits(),
            "{num_trajectories} trajectories, dist[{i}]: frame {f} vs tableau {t}"
        );
    }
}

/// Replays each of the first `num_trajectories` trajectories on the full
/// tableau with the RNG stream the frame engine gave it, and checks that
/// its exact measurement distribution is the ideal one permuted by the
/// trajectory's frame x-mask.
fn check_trajectories(
    circuit: &Circuit,
    noise: &CircuitNoise,
    seed: u64,
    num_trajectories: usize,
) {
    let sim = FrameSimulator::compile(circuit, &[], &[], noise).expect("clifford by construction");
    let ideal = sim.ideal_distribution();
    let seeds = TaskSeeds::from_base(seed);
    let masks = sim.trajectory_masks(&seeds, num_trajectories);

    let lowered: Vec<_> = circuit
        .instructions()
        .iter()
        .map(|ins| {
            lower_instruction(ins, &ins.resolve_params(&[], &[]))
                .expect("clifford by construction")
        })
        .collect();
    let pauli: Vec<_> = noise.per_instruction.iter().map(|n| n.as_pauli_only()).collect();

    for (t, &mask) in masks.iter().enumerate() {
        let mut rng = seeds.rng(t);
        let mut tab = Tableau::new(circuit.num_qubits());
        for ((ins, ops), errs) in circuit.instructions().iter().zip(&lowered).zip(&pauli) {
            tab.apply_all(ops);
            for (k, &q) in ins.qubits.iter().enumerate() {
                inject_pauli_tableau(&mut tab, q, &errs[k], &mut rng);
            }
        }
        let dist = tab.measurement_distribution(circuit.measured());
        assert_eq!(dist.len(), ideal.len());
        for (i, d) in dist.iter().enumerate() {
            let expected = ideal[i ^ mask as usize];
            assert_eq!(
                d.to_bits(),
                expected.to_bits(),
                "trajectory {t} mask {mask:#x} index {i}: tableau {d} vs permuted ideal {expected}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frame_and_tableau_distributions_are_bitwise_equal(
        circuit in arb_clifford_circuit(),
        p1 in 0.0f64..0.15,
        p2 in 0.0f64..0.2,
        pr in 0.0f64..0.1,
        num_trajectories in 1usize..=600,
        seed in 0u64..1000,
    ) {
        check_distributions(&circuit, &noise_for(&circuit, p1, p2, pr), seed, num_trajectories);
    }

    #[test]
    fn each_trajectory_is_the_ideal_distribution_permuted_by_its_mask(
        circuit in arb_clifford_circuit(),
        p1 in 0.0f64..0.15,
        p2 in 0.0f64..0.2,
        num_trajectories in 1usize..=300,
        seed in 0u64..1000,
    ) {
        check_trajectories(&circuit, &noise_for(&circuit, p1, p2, 0.0), seed, num_trajectories);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wide_block_trajectories_match_the_tableau_replay(
        circuit in arb_clifford_circuit(),
        p1 in 0.0f64..0.15,
        p2 in 0.0f64..0.2,
        num_trajectories in BLOCK_LANES + 1..=4 * BLOCK_LANES,
        seed in 0u64..1000,
    ) {
        check_trajectories(&circuit, &noise_for(&circuit, p1, p2, 0.0), seed, num_trajectories);
    }
}

/// Deterministic sweep of the block-edge trajectory counts — one lane,
/// either side of one `u64` word, and either side of one and two 256-lane
/// blocks — against the tableau oracle, whole distribution and per
/// trajectory.
#[test]
fn block_boundary_counts_match_the_tableau_oracle() {
    let mut c = Circuit::new(3);
    c.push_gate(Gate::H, &[0], &[]);
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.push_gate(Gate::S, &[2], &[]);
    c.push_gate(Gate::Cx, &[1, 2], &[]);
    c.set_measured(vec![0, 1, 2]);
    let noise = noise_for(&c, 0.1, 0.15, 0.05);
    for n in [1, 63, 64, 65, 255, 256, 257, 511, 512, 513] {
        check_distributions(&c, &noise, 12345, n);
        check_trajectories(&c, &noise, 12345, n);
    }
}
