//! Cross-simulator suite: the four engines on shared random noisy
//! Clifford circuits.
//!
//! The density matrix applies every channel exactly, so it is the
//! reference. The fused state vector must match it without noise to
//! rounding. The Pauli-frame engine (`noisy_clifford_distribution`, what
//! CNR runs) and the state-vector trajectory engine (`noisy_distribution`)
//! are Monte-Carlo estimates of it, checked within a statistical bound.
//! This is CNR's premise: a noisy Clifford replica yields the
//! distribution its noise model implies.
//!
//! Each trajectory contributes an exact distribution, so the estimate's
//! expected TVD from the exact one is at most `sqrt(2^m / N) / 2` for `m`
//! measured qubits and `N` trajectories; the bound below is twice that.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_sim::{
    noisy_clifford_distribution, noisy_distribution, tvd, CircuitNoise, DampingError,
    DensityMatrix, InstructionNoise, PauliError, Program, ReadoutError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TRAJECTORIES: usize = 4096;
const CASES: u64 = 16;

/// One shared input: a random Clifford circuit and a noise model with
/// Pauli errors, amplitude and phase damping, and readout error.
struct Case {
    seed: u64,
    circuit: Circuit,
    noise: CircuitNoise,
}

impl Case {
    /// The same model with damping dropped (`InstructionNoise::pauli`) or
    /// replaced by its Pauli twirl (`InstructionNoise::as_pauli_only`).
    fn pauli_part(&self, pauli: fn(&InstructionNoise) -> Vec<PauliError>) -> CircuitNoise {
        CircuitNoise {
            per_instruction: (self.noise.per_instruction.iter())
                .map(|n| InstructionNoise {
                    pauli: pauli(n),
                    damping: vec![DampingError::default(); n.pauli.len()],
                })
                .collect(),
            readout: self.noise.readout.clone(),
        }
    }
}

/// 2–4 qubits, 6–20 gates from H, S, Sdg, X, Sx, Rz(pi/2), Cx and Cz, and
/// a random prefix of the qubits measured.
fn random_clifford_circuit(rng: &mut StdRng) -> Circuit {
    let n = rng.random_range(2..=4usize);
    let mut c = Circuit::new(n);
    for _ in 0..rng.random_range(6..=20usize) {
        let q = rng.random_range(0..n);
        let t = (q + rng.random_range(1..n)) % n;
        let rz = [ParamExpr::constant(std::f64::consts::FRAC_PI_2)];
        match rng.random_range(0..8u32) {
            0 => c.push_gate(Gate::H, &[q], &[]),
            1 => c.push_gate(Gate::S, &[q], &[]),
            2 => c.push_gate(Gate::Sdg, &[q], &[]),
            3 => c.push_gate(Gate::X, &[q], &[]),
            4 => c.push_gate(Gate::Sx, &[q], &[]),
            5 => c.push_gate(Gate::Rz, &[q], &rz),
            6 => c.push_gate(Gate::Cx, &[q, t], &[]),
            _ => c.push_gate(Gate::Cz, &[q, t], &[]),
        }
    }
    c.set_measured((0..rng.random_range(1..=n)).collect());
    c
}

fn cases() -> Vec<Case> {
    (0..CASES)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(0xC055_0000 + seed);
            let circuit = random_clifford_circuit(&mut rng);
            let mut operand = || {
                let pauli = PauliError {
                    px: rng.random_range(0.0..0.04),
                    py: rng.random_range(0.0..0.04),
                    pz: rng.random_range(0.0..0.04),
                };
                let damping = DampingError {
                    gamma: rng.random_range(0.0..0.1),
                    lambda: rng.random_range(0.0..0.1),
                };
                (pauli, damping)
            };
            let per_instruction = (circuit.instructions().iter())
                .map(|ins| {
                    let (pauli, damping) = ins.qubits.iter().map(|_| operand()).unzip();
                    InstructionNoise { pauli, damping }
                })
                .collect();
            let readout = (0..circuit.measured().len())
                .map(|_| ReadoutError {
                    p1_given_0: rng.random_range(0.0..0.05),
                    p0_given_1: rng.random_range(0.0..0.1),
                })
                .collect();
            let noise = CircuitNoise {
                per_instruction,
                readout,
            };
            Case {
                seed,
                circuit,
                noise,
            }
        })
        .collect()
}

fn noiseless(circuit: &Circuit) -> CircuitNoise {
    let arities: Vec<usize> = circuit
        .instructions()
        .iter()
        .map(|i| i.qubits.len())
        .collect();
    CircuitNoise::noiseless(&arities, circuit.measured().len())
}

fn exact(circuit: &Circuit, noise: &CircuitNoise) -> Vec<f64> {
    DensityMatrix::run_noisy(circuit, &[], &[], noise)
}

/// Checks the frame engine on the Pauli part and on the full model (whose
/// damping it twirls), and the trajectory engine on the full model, each
/// against the density matrix of the channel it samples.
fn assert_sampled_engines_match(case: &Case) {
    let (c, seed) = (&case.circuit, case.seed);
    let pauli = case.pauli_part(|n| n.pauli.clone());
    let twirled = case.pauli_part(InstructionNoise::as_pauli_only);
    let frame = |noise| {
        let mut rng = StdRng::seed_from_u64(seed);
        noisy_clifford_distribution(c, &[], &[], noise, TRAJECTORIES, &mut rng)
            .expect("generated circuits are Clifford")
            .noisy
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let trajectory = noisy_distribution(c, &[], &[], &case.noise, TRAJECTORIES, &mut rng);
    let bound = ((1usize << c.measured().len()) as f64 / TRAJECTORIES as f64).sqrt();
    for (engine, estimate, reference) in [
        ("frame", frame(&pauli), &pauli),
        ("frame, twirled damping", frame(&case.noise), &twirled),
        ("trajectory", trajectory, &case.noise),
    ] {
        let exact = exact(c, reference);
        let d = tvd(&estimate, &exact);
        assert!(
            d <= bound,
            "case {seed}: {engine} TVD {d:.4} > {bound:.4}\n{c:?}\n{estimate:?}\n{exact:?}"
        );
    }
}

#[test]
fn noiseless_state_vector_matches_density_matrix() {
    for case in cases() {
        let c = &case.circuit;
        let psi = Program::compile(c)
            .run(&[], &[])
            .marginal_probabilities(c.measured());
        let d = tvd(&psi, &exact(c, &noiseless(c)));
        assert!(
            d <= 1e-10,
            "case {}: state vector vs density matrix TVD {d:e}",
            case.seed
        );
    }
}

#[test]
fn noise_moves_at_least_a_quarter_of_the_cases() {
    // Without this, the bounds could hold because the noise does nothing
    // measurable.
    let cases = cases();
    for damping in [false, true] {
        let moved = (cases.iter())
            .filter(|case| {
                let c = &case.circuit;
                let noise = if damping {
                    case.noise.clone()
                } else {
                    case.pauli_part(|n| n.pauli.clone())
                };
                tvd(&exact(c, &noise), &exact(c, &noiseless(c))) > 0.1
            })
            .count();
        let n = cases.len();
        assert!(
            4 * moved >= n,
            "damping {damping}: {moved} of {n} cases moved"
        );
    }
}

#[test]
fn sampled_engines_match_density_matrix() {
    for case in cases() {
        assert_sampled_engines_match(&case);
    }
}

#[test]
fn heavy_noise_on_x_leaks_back_to_zero() {
    let mut circuit = Circuit::new(1);
    circuit.push_gate(Gate::X, &[0], &[]);
    circuit.set_measured(vec![0]);
    let noise = CircuitNoise::uniform(&[1], 1, 0.3, 0.0, 0.2);
    let clean = Program::compile(&circuit)
        .run(&[], &[])
        .marginal_probabilities(&[0]);
    let noisy = exact(&circuit, &noise);
    // The clean circuit puts everything on |1>; noise leaks back.
    assert!(clean[1] > 0.999);
    assert!(noisy[1] < clean[1]);
    assert!(noisy[0] > 0.05);
    assert_sampled_engines_match(&Case {
        seed: CASES,
        circuit,
        noise,
    });
}
