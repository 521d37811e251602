//! Reference oracles: the plain implementations that tests and benches
//! hold the production hot paths against.
//!
//! Production code never calls into this module. Each oracle is the
//! simplest correct version of one production path:
//!
//! * [`adjoint_gradient`] walks the raw instruction stream on an
//!   allocating [`StateVector`] (no fusion, no workspace pools) and forms
//!   each gradient term as an inner product against a materialized
//!   `dU |psi>` — the reference for the streamed
//!   [`AdjointProgram`](crate::AdjointProgram);
//! * [`noisy_clifford_distribution_tableau`] replays every trajectory
//!   through a full stabilizer tableau — the per-shot reference for the
//!   Pauli-frame engine behind
//!   [`noisy_clifford_distribution`](crate::noisy_clifford_distribution).

use crate::adjoint::{
    accumulate_sinks, classify_sinks, dmat1, dmat2, Gradients, SinkKind, ZObservable,
};
use crate::clifford::{lower_instruction, LowerCliffordError};
use crate::noise::{apply_readout_error, CircuitNoise, PauliError};
use crate::parallel::par_map_index;
use crate::runtime::TaskSeeds;
use crate::stabilizer::{CliffordOp, Tableau};
use crate::statevector::StateVector;
use crate::trajectory::SHOT_CHUNK;
use crate::workspace;
use elivagar_circuit::{Circuit, Instruction};
use rand::Rng;

/// Computes `<psi|O|psi>` and its gradient with respect to every trainable
/// parameter and input feature by the adjoint method, one instruction at
/// a time.
///
/// The same trainable index may appear in several gates (weight sharing, as
/// in SuperCircuits); contributions accumulate.
///
/// # Panics
///
/// Panics if the circuit references out-of-range parameters/features, or if
/// an observable qubit is out of range.
pub fn adjoint_gradient(
    circuit: &Circuit,
    params: &[f64],
    features: &[f64],
    observable: &ZObservable,
) -> Gradients {
    let mut psi = StateVector::run(circuit, params, features);
    let mut lambda = observable.apply(&psi);
    let mut out = Gradients {
        expectation: observable.expectation(&psi),
        params: vec![0.0; params.len()],
        features: vec![0.0; features.len()],
    };
    for ins in circuit.instructions().iter().rev() {
        let values = ins.resolve_params(params, features);
        // psi_{k-1} = U_k^dagger psi_k.
        apply_dagger(&mut psi, ins, &values);
        // Gradient terms: 2 Re <lambda_k | dU_k | psi_{k-1}>.
        for (slot, expr) in ins.params.iter().enumerate() {
            let mut sinks = [(SinkKind::Param(0), 0.0); 2];
            let num_sinks = classify_sinks(expr, features, true, &mut sinks);
            if num_sinks == 0 {
                continue;
            }
            let mut phi = psi.clone();
            if ins.gate.num_qubits() == 1 {
                phi.apply_mat1(ins.qubits[0], &dmat1(ins.gate, &values, slot));
            } else {
                phi.apply_mat2(ins.qubits[0], ins.qubits[1], &dmat2(ins.gate, &values, slot));
            }
            let g = 2.0 * lambda.inner_product(&phi).re;
            accumulate_sinks(&sinks[..num_sinks], g, &mut out);
        }
        // lambda_{k-1} = U_k^dagger lambda_k.
        apply_dagger(&mut lambda, ins, &values);
    }
    out
}

/// Applies the inverse of one instruction, `U^dagger`, to `psi`.
fn apply_dagger(psi: &mut StateVector, ins: &Instruction, values: &[f64]) {
    if ins.gate.num_qubits() == 1 {
        psi.apply_mat1(ins.qubits[0], &ins.gate.matrix1(values).dagger());
    } else {
        psi.apply_mat2(ins.qubits[0], ins.qubits[1], &ins.gate.matrix2(values).dagger());
    }
}

/// Injects a sampled Pauli error into a tableau as direct sign-flip ops
/// ([`CliffordOp::X`]/[`CliffordOp::Z`]; a Y error is X then Z): one
/// draw from `rng`, the same floats the frame engine consumes per
/// trajectory. Public so the differential suites can replay the exact
/// per-trajectory tableau stream the frame engine must match.
pub fn inject_pauli_tableau<R: Rng + ?Sized>(
    t: &mut Tableau,
    q: usize,
    e: &PauliError,
    rng: &mut R,
) {
    let u: f64 = rng.random();
    let (x, z) = if u < e.px {
        (true, false)
    } else if u < e.px + e.py {
        (true, true)
    } else if u < e.px + e.py + e.pz {
        (false, true)
    } else {
        return;
    };
    if x {
        t.apply(CliffordOp::X(q));
    }
    if z {
        t.apply(CliffordOp::Z(q));
    }
}

/// The per-shot tableau implementation of
/// [`noisy_clifford_distribution`](crate::noisy_clifford_distribution):
/// every trajectory replays the full tableau and enumerates its own
/// measurement distribution. Bit-for-bit equal to the frame engine under
/// the same `rng` state. `bench_cnr` times it as the frame engine's
/// baseline, so it keeps its chunked pool dispatch and workspace tableaux.
///
/// # Errors
///
/// Returns [`LowerCliffordError`] if the circuit (with the given parameter
/// values) is not Clifford.
///
/// # Panics
///
/// Panics under the same shape mismatches as
/// [`noisy_distribution`](crate::noisy_distribution).
pub fn noisy_clifford_distribution_tableau<R: Rng + ?Sized>(
    circuit: &Circuit,
    params: &[f64],
    features: &[f64],
    noise: &CircuitNoise,
    num_trajectories: usize,
    rng: &mut R,
) -> Result<Vec<f64>, LowerCliffordError> {
    assert!(!circuit.measured().is_empty(), "circuit measures no qubits");
    assert!(num_trajectories > 0, "need at least one trajectory");
    assert_eq!(noise.per_instruction.len(), circuit.len(), "noise length mismatch");
    assert_eq!(noise.readout.len(), circuit.measured().len(), "readout length mismatch");

    // Lower every instruction once up front.
    let mut lowered = Vec::with_capacity(circuit.len());
    for ins in circuit.instructions() {
        let values = ins.resolve_params(params, features);
        lowered.push(lower_instruction(ins, &values)?);
    }
    let pauli_only: Vec<Vec<PauliError>> = noise
        .per_instruction
        .iter()
        .map(|n| n.as_pauli_only())
        .collect();

    let dim = 1usize << circuit.measured().len();
    let seeds = TaskSeeds::from_rng(rng);
    let partials = par_map_index(num_trajectories.div_ceil(SHOT_CHUNK), |c| {
        let mut acc = vec![0.0; dim];
        let mut dist = workspace::acquire_real_buffer();
        let mut t = workspace::acquire_tableau(circuit.num_qubits());
        let end = ((c + 1) * SHOT_CHUNK).min(num_trajectories);
        for shot in c * SHOT_CHUNK..end {
            let mut shot_rng = seeds.rng(shot);
            t.reset(circuit.num_qubits());
            for ((ins, ops), errs) in
                circuit.instructions().iter().zip(&lowered).zip(&pauli_only)
            {
                t.apply_all(ops);
                for (k, &q) in ins.qubits.iter().enumerate() {
                    inject_pauli_tableau(&mut t, q, &errs[k], &mut shot_rng);
                }
            }
            t.measurement_distribution_into(circuit.measured(), &mut dist);
            for (a, d) in acc.iter_mut().zip(&dist) {
                *a += d;
            }
        }
        workspace::release_tableau(t);
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
    Ok(apply_readout_error(&acc, &noise.readout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::noisy_clifford_distribution;
    use elivagar_circuit::{Gate, ParamExpr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    #[test]
    fn frame_and_tableau_clifford_engines_agree_bit_for_bit() {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::constant(PI / 2.0)]);
        c.push_gate(Gate::Cz, &[0, 1], &[]);
        c.set_measured(vec![0, 1]);
        let noise = CircuitNoise::uniform(&[1, 1, 2], 2, 0.02, 0.05, 0.01);
        let frame = noisy_clifford_distribution(
            &c, &[], &[], &noise, 97, &mut StdRng::seed_from_u64(8),
        )
        .unwrap()
        .noisy;
        let tableau = noisy_clifford_distribution_tableau(
            &c, &[], &[], &noise, 97, &mut StdRng::seed_from_u64(8),
        )
        .unwrap();
        for (a, b) in frame.iter().zip(&tableau) {
            assert_eq!(a.to_bits(), b.to_bits(), "{frame:?} vs {tableau:?}");
        }
    }
}
