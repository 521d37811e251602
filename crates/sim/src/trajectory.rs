//! Monte-Carlo trajectory simulation of noisy circuits.
//!
//! Each trajectory runs the circuit on the state-vector engine, inserting
//! stochastic Pauli errors and damping Kraus branches after each gate; the
//! exact output marginal of each trajectory is averaged and the readout
//! confusion matrix applied once at the end. Noisy Clifford circuits,
//! which the CNR predictor executes, run on the bit-parallel Pauli-frame
//! engine instead ([`crate::frame::noisy_clifford_distribution`]).

use crate::noise::{apply_readout_error, CircuitNoise, DampingError, PauliError};
use crate::parallel::par_map_index;
use crate::runtime::TaskSeeds;
use crate::statevector::StateVector;
use crate::workspace;
use elivagar_circuit::math::{C64, Mat2};
use elivagar_circuit::{Circuit, Gate};
use rand::Rng;

/// Trajectories are dispatched to the pool in fixed-size chunks. The chunk
/// boundaries — and the per-shot RNG streams, which are split by shot
/// index — do not depend on the thread count, so the averaged distribution
/// is bit-for-bit identical however the chunks land on workers.
pub(crate) const SHOT_CHUNK: usize = 32;

/// Applies one stochastically selected Pauli error to a state-vector qubit.
fn apply_pauli_sample<R: Rng + ?Sized>(
    psi: &mut StateVector,
    q: usize,
    e: &PauliError,
    rng: &mut R,
) {
    let u: f64 = rng.random();
    if u < e.px {
        psi.apply_mat1(q, &Gate::X.matrix1(&[]));
    } else if u < e.px + e.py {
        psi.apply_mat1(q, &Gate::Y.matrix1(&[]));
    } else if u < e.px + e.py + e.pz {
        psi.apply_mat1(q, &Gate::Z.matrix1(&[]));
    }
}

/// Applies amplitude and phase damping via stochastic Kraus unravelling.
///
/// Both channels' decay branches (`K1`) fire with Born probability
/// `rate * P(qubit = 1)`, which is computed in closed form from one
/// excited-population pass — no state clone is needed, which matters for
/// the wide circuits of the larger benchmarks.
fn apply_damping_sample<R: Rng + ?Sized>(
    psi: &mut StateVector,
    q: usize,
    d: &DampingError,
    rng: &mut R,
) {
    if d.gamma > 0.0 {
        let p1 = excited_population(psi, q);
        if rng.random::<f64>() < d.gamma * p1 {
            // Decay branch: |1> -> |0>.
            psi.apply_mat1(
                q,
                &Mat2([
                    [C64::ZERO, C64::real(d.gamma.sqrt())],
                    [C64::ZERO, C64::ZERO],
                ]),
            );
        } else {
            psi.apply_mat1(
                q,
                &Mat2([
                    [C64::ONE, C64::ZERO],
                    [C64::ZERO, C64::real((1.0 - d.gamma).sqrt())],
                ]),
            );
        }
        psi.normalize();
    }
    if d.lambda > 0.0 {
        let p1 = excited_population(psi, q);
        if rng.random::<f64>() < d.lambda * p1 {
            // Phase-damping projection onto |1>.
            psi.apply_mat1(
                q,
                &Mat2([
                    [C64::ZERO, C64::ZERO],
                    [C64::ZERO, C64::real(d.lambda.sqrt())],
                ]),
            );
        } else {
            psi.apply_mat1(
                q,
                &Mat2([
                    [C64::ONE, C64::ZERO],
                    [C64::ZERO, C64::real((1.0 - d.lambda).sqrt())],
                ]),
            );
        }
        psi.normalize();
    }
}

/// Population of the `|1>` level of qubit `q`, i.e. `(1 - <Z_q>) / 2`.
fn excited_population(psi: &StateVector, q: usize) -> f64 {
    (1.0 - psi.expectation_z(q)) / 2.0
}

/// Runs one noisy trajectory, writing the exact output marginal over the
/// circuit's measured qubits (before readout error) into `dist`. The
/// working state comes from — and returns to — the per-thread workspace
/// pool.
fn run_trajectory<R: Rng + ?Sized>(
    circuit: &Circuit,
    params: &[f64],
    features: &[f64],
    noise: &CircuitNoise,
    rng: &mut R,
    dist: &mut Vec<f64>,
) {
    let mut psi = if circuit.amplitude_embedding() {
        workspace::acquire_embedded(circuit.num_qubits(), features)
    } else {
        workspace::acquire_zero(circuit.num_qubits())
    };
    for (ins, n) in circuit.instructions().iter().zip(&noise.per_instruction) {
        let values = ins.resolve_params(params, features);
        psi.apply_instruction(ins, &values);
        for (k, &q) in ins.qubits.iter().enumerate() {
            apply_pauli_sample(&mut psi, q, &n.pauli[k], rng);
            apply_damping_sample(&mut psi, q, &n.damping[k], rng);
        }
    }
    psi.marginal_probabilities_into(circuit.measured(), dist);
    workspace::release_state(psi);
}

/// Average output distribution of a noisy circuit over `num_trajectories`
/// Monte-Carlo trajectories, including readout error.
///
/// Draws one value from `rng` ([`TaskSeeds::from_rng`]) and runs
/// [`noisy_distribution_seeded`] with it: shots run in parallel across the
/// work-stealing pool in fixed `SHOT_CHUNK`-sized chunks, each from its
/// own RNG stream split off that value by shot index, so the result does
/// not depend on the thread count.
///
/// # Panics
///
/// Panics under the same conditions as [`noisy_distribution_seeded`].
pub fn noisy_distribution<R: Rng + ?Sized>(
    circuit: &Circuit,
    params: &[f64],
    features: &[f64],
    noise: &CircuitNoise,
    num_trajectories: usize,
    rng: &mut R,
) -> Vec<f64> {
    let seeds = TaskSeeds::from_rng(rng);
    noisy_distribution_seeded(circuit, params, features, noise, num_trajectories, seeds)
}

/// [`noisy_distribution`] with its shot streams split off `seeds` instead
/// of a fresh draw. Callers that evaluate many inputs draw every input's
/// seeds up front, in input order, and can then fan the inputs out across
/// the pool with results identical to evaluating them one after another.
///
/// # Panics
///
/// Panics if `noise.per_instruction` does not match the circuit length,
/// `noise.readout` does not match the measured-qubit count, the circuit
/// measures no qubits, or `num_trajectories` is zero.
pub fn noisy_distribution_seeded(
    circuit: &Circuit,
    params: &[f64],
    features: &[f64],
    noise: &CircuitNoise,
    num_trajectories: usize,
    seeds: TaskSeeds,
) -> Vec<f64> {
    assert!(!circuit.measured().is_empty(), "circuit measures no qubits");
    assert!(num_trajectories > 0, "need at least one trajectory");
    assert_eq!(
        noise.per_instruction.len(),
        circuit.len(),
        "noise description does not match circuit length"
    );
    assert_eq!(
        noise.readout.len(),
        circuit.measured().len(),
        "readout description does not match measured qubits"
    );
    let dim = 1usize << circuit.measured().len();
    let partials = par_map_index(num_trajectories.div_ceil(SHOT_CHUNK), |c| {
        let mut acc = vec![0.0; dim];
        let mut dist = workspace::acquire_real_buffer();
        let end = ((c + 1) * SHOT_CHUNK).min(num_trajectories);
        for t in c * SHOT_CHUNK..end {
            let mut shot_rng = seeds.rng(t);
            run_trajectory(circuit, params, features, noise, &mut shot_rng, &mut dist);
            for (a, d) in acc.iter_mut().zip(&dist) {
                *a += d;
            }
        }
        workspace::release_real_buffer(dist);
        acc
    });
    let mut acc = vec![0.0; dim];
    for partial in &partials {
        for (a, p) in acc.iter_mut().zip(partial) {
            *a += p;
        }
    }
    for a in &mut acc {
        *a /= num_trajectories as f64;
    }
    apply_readout_error(&acc, &noise.readout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::noisy_clifford_distribution;
    use crate::sampling::tvd;
    use elivagar_circuit::ParamExpr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.set_measured(vec![0, 1]);
        c
    }

    #[test]
    fn noiseless_trajectories_match_statevector() {
        let c = bell_circuit();
        let noise = CircuitNoise::noiseless(&[1, 2], 2);
        let mut rng = StdRng::seed_from_u64(1);
        let dist = noisy_distribution(&c, &[], &[], &noise, 3, &mut rng);
        let exact = StateVector::run(&c, &[], &[]).marginal_probabilities(c.measured());
        assert!(tvd(&dist, &exact) < 1e-12);
    }

    #[test]
    fn depolarizing_noise_spreads_distribution() {
        let c = bell_circuit();
        let noise = CircuitNoise::uniform(&[1, 2], 2, 0.05, 0.10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let dist = noisy_distribution(&c, &[], &[], &noise, 4000, &mut rng);
        // Noise must populate the odd-parity outcomes.
        assert!(dist[1] > 0.01 && dist[2] > 0.01, "{dist:?}");
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // But the even-parity outcomes still dominate.
        assert!(dist[0] + dist[3] > 0.8);
    }

    #[test]
    fn amplitude_damping_biases_toward_zero() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::X, &[0], &[]);
        c.set_measured(vec![0]);
        let mut noise = CircuitNoise::noiseless(&[1], 1);
        noise.per_instruction[0].damping[0] = DampingError { gamma: 0.4, lambda: 0.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let dist = noisy_distribution(&c, &[], &[], &noise, 8000, &mut rng);
        assert!((dist[0] - 0.4).abs() < 0.03, "p0 = {}", dist[0]);
    }

    #[test]
    fn stabilizer_trajectories_match_statevector_for_clifford() {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::constant(PI / 2.0)]);
        c.push_gate(Gate::Cz, &[0, 1], &[]);
        c.set_measured(vec![0, 1]);
        let noise = CircuitNoise::uniform(&[1, 1, 2], 2, 0.02, 0.05, 0.01);
        let mut rng1 = StdRng::seed_from_u64(4);
        let mut rng2 = StdRng::seed_from_u64(5);
        let d_cliff =
            noisy_clifford_distribution(&c, &[], &[], &noise, 6000, &mut rng1).unwrap().noisy;
        let d_sv = noisy_distribution(&c, &[], &[], &noise, 6000, &mut rng2);
        assert!(tvd(&d_cliff, &d_sv) < 0.03, "{d_cliff:?} vs {d_sv:?}");
    }

    #[test]
    fn non_clifford_circuit_is_rejected_by_stabilizer_engine() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::constant(0.3)]);
        c.set_measured(vec![0]);
        let noise = CircuitNoise::noiseless(&[1], 1);
        let mut rng = StdRng::seed_from_u64(6);
        assert!(noisy_clifford_distribution(&c, &[], &[], &noise, 4, &mut rng).is_err());
    }

    #[test]
    fn readout_error_is_applied_once_at_the_end() {
        let mut c = Circuit::new(1);
        c.set_measured(vec![0]);
        let mut noise = CircuitNoise::noiseless(&[], 1);
        noise.readout[0] = crate::noise::ReadoutError::symmetric(0.2);
        let mut rng = StdRng::seed_from_u64(7);
        let dist = noisy_distribution(&c, &[], &[], &noise, 1, &mut rng);
        assert!((dist[1] - 0.2).abs() < 1e-12);
    }
}
