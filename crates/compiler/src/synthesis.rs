//! State-preparation synthesis: compiling amplitude embeddings to gates.
//!
//! The human-designed baseline's amplitude embedding loads the input
//! vector directly into the initial state; simulators can do that natively,
//! but real hardware needs an explicit preparation circuit. This module
//! implements the Mottonen-style scheme for real amplitude vectors: a
//! binary tree of multiplexed RY rotations, with each multiplexor
//! recursively demultiplexed into CX + RY pairs.

use elivagar_circuit::{Circuit, Gate, ParamExpr};

/// Emits a uniformly-controlled `RY` (multiplexor): applies
/// `RY(angles[p])` to `target` where `p` is the bit pattern of the
/// `controls` (controls[0] is the least significant pattern bit).
///
/// Uses the standard recursive demultiplexing
/// `M(theta) = M'(theta_sum/2) CX M'(theta_diff/2) CX` over the most
/// significant control, costing `2^k` RY and `2^k` CX gates for `k`
/// controls.
fn multiplexed_ry(circuit: &mut Circuit, controls: &[usize], target: usize, angles: &[f64]) {
    assert_eq!(angles.len(), 1 << controls.len(), "angle count mismatch");
    if controls.is_empty() {
        if angles[0].abs() > 1e-12 {
            circuit.push_gate(Gate::Ry, &[target], &[ParamExpr::constant(angles[0])]);
        }
        return;
    }
    let top = controls[controls.len() - 1];
    let rest = &controls[..controls.len() - 1];
    let half = angles.len() / 2;
    // theta_plus applies when the top control contributes +, theta_minus
    // absorbs the sign flip induced by CX conjugation of RY.
    let plus: Vec<f64> = (0..half).map(|i| (angles[i] + angles[i + half]) / 2.0).collect();
    let minus: Vec<f64> = (0..half).map(|i| (angles[i] - angles[i + half]) / 2.0).collect();
    multiplexed_ry(circuit, rest, target, &plus);
    circuit.push_gate(Gate::Cx, &[top, target], &[]);
    multiplexed_ry(circuit, rest, target, &minus);
    circuit.push_gate(Gate::Cx, &[top, target], &[]);
}

/// Synthesizes a circuit preparing the (L2-normalized) real state
/// `sum_i amplitudes[i] |i>` from `|0...0>` over `num_qubits` qubits.
///
/// Amplitudes are zero-padded to `2^num_qubits` and normalized, matching
/// `elivagar_sim::StateVector::amplitude_embedded`; signs are preserved
/// exactly (up to no global phase at all — the output state is real).
///
/// # Panics
///
/// Panics if `amplitudes` is empty, all-zero, or longer than
/// `2^num_qubits`.
pub fn synthesize_state_prep(amplitudes: &[f64], num_qubits: usize) -> Circuit {
    let dim = 1usize << num_qubits;
    assert!(!amplitudes.is_empty(), "state prep needs amplitudes");
    assert!(amplitudes.len() <= dim, "too many amplitudes for {num_qubits} qubits");
    let mut a = vec![0.0; dim];
    a[..amplitudes.len()].copy_from_slice(amplitudes);
    let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    assert!(norm > 1e-12, "cannot prepare a zero vector");
    for x in &mut a {
        *x /= norm;
    }

    let mut circuit = Circuit::new(num_qubits);
    // Norm tree: level l partitions the vector into 2^l blocks split on
    // the top l qubits. The block "amplitude" is its norm at inner levels
    // and the signed value at the leaves, so atan2 absorbs all signs in
    // the final rotation layer.
    //
    // block_value(l, p): value of block p at level l (2^l blocks).
    let block_norm = |level: usize, p: usize| -> f64 {
        let size = dim >> level;
        let start = p * size;
        a[start..start + size].iter().map(|x| x * x).sum::<f64>().sqrt()
    };

    for level in 0..num_qubits {
        // Target qubit: the (level+1)-th most significant.
        let target = num_qubits - 1 - level;
        let controls: Vec<usize> = ((target + 1)..num_qubits).collect();
        let is_leaf = level == num_qubits - 1;
        let angles: Vec<f64> = (0..1usize << level)
            .map(|p| {
                let (left, right) = if is_leaf {
                    // Signed leaf values: a[2p], a[2p+1] in block order.
                    (a[2 * p], a[2 * p + 1])
                } else {
                    (block_norm(level + 1, 2 * p), block_norm(level + 1, 2 * p + 1))
                };
                if left.abs() < 1e-15 && right.abs() < 1e-15 {
                    0.0
                } else {
                    2.0 * right.atan2(left)
                }
            })
            .collect();
        // Pattern bit j of the multiplexor corresponds to control qubit
        // target+1+j, which is exactly bit j of the block index p
        // (p = basis_index >> (num_qubits - level)), so angle order and
        // pattern order coincide.
        multiplexed_ry(&mut circuit, &controls, target, &angles);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_sim::StateVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_prepares(amplitudes: &[f64], num_qubits: usize) {
        let circuit = synthesize_state_prep(amplitudes, num_qubits);
        let prepared = StateVector::run(&circuit, &[], &[]);
        let expected = StateVector::amplitude_embedded(num_qubits, amplitudes);
        let overlap = prepared.overlap(&expected);
        assert!(
            (overlap - 1.0).abs() < 1e-9,
            "overlap {overlap} for {amplitudes:?}"
        );
        // Real construction: amplitudes must match exactly, not just up to
        // phase.
        for (p, e) in prepared.amplitudes().iter().zip(expected.amplitudes()) {
            assert!((p.re - e.re).abs() < 1e-9 && p.im.abs() < 1e-9);
        }
    }

    #[test]
    fn prepares_basis_and_uniform_states() {
        assert_prepares(&[1.0], 2);
        assert_prepares(&[0.0, 1.0], 1);
        assert_prepares(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_prepares(&[0.0, 0.0, 0.0, 1.0], 2);
    }

    #[test]
    fn prepares_signed_states() {
        assert_prepares(&[1.0, -1.0], 1);
        assert_prepares(&[1.0, 1.0, -1.0, -1.0], 2);
        assert_prepares(&[0.5, -0.5, -0.5, 0.5], 2);
        assert_prepares(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0], 3);
    }

    #[test]
    fn prepares_random_vectors_up_to_five_qubits() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in 1..=5 {
            for _ in 0..4 {
                let v: Vec<f64> = (0..1usize << n)
                    .map(|_| rng.random_range(-1.0..1.0))
                    .collect();
                assert_prepares(&v, n);
            }
        }
    }

    #[test]
    fn prepares_padded_vectors() {
        // Fewer amplitudes than the register dimension: zero-padded.
        assert_prepares(&[3.0, 4.0], 3);
        assert_prepares(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn gate_count_is_linear_in_dimension() {
        let v: Vec<f64> = (0..32).map(|i| (i as f64 + 1.0) * 0.1).collect();
        let c = synthesize_state_prep(&v, 5);
        // Recursive demultiplexing bound: 2^k RY + (2^(k+1) - 2) CX per
        // level, ~3 * 2^n gates total.
        assert!(c.len() <= 3 * 32 + 5, "gate count {}", c.len());
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn rejects_zero_vector() {
        synthesize_state_prep(&[0.0, 0.0], 1);
    }
}
