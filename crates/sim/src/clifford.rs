//! Lowering of circuit-IR gates to primitive Clifford operations.
//!
//! Elivagar's Clifford replicas keep the structure of a candidate circuit
//! but snap every rotation angle onto the Clifford grid (Section 5.1). This
//! module turns such circuits into `H`/`S`/`CX` sequences executable on the
//! stabilizer tableau, and reports a meaningful error when a gate or angle
//! falls outside the Clifford group.

use crate::stabilizer::CliffordOp;
use elivagar_circuit::{Gate, Instruction};
use std::error::Error;
use std::fmt;

/// Error returned when lowering a non-Clifford gate or angle.
#[derive(Clone, Debug, PartialEq)]
pub struct LowerCliffordError {
    gate: Gate,
    angle: Option<f64>,
}

impl fmt::Display for LowerCliffordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.angle {
            Some(a) => write!(f, "gate {} with angle {a} is not a clifford operation", self.gate),
            None => write!(f, "gate {} is not a clifford operation", self.gate),
        }
    }
}

impl Error for LowerCliffordError {}

/// Tolerance used when checking that an angle sits on the Clifford grid.
const ANGLE_TOL: f64 = 1e-9;

/// Number of quarter (or half) turns for an angle given a granularity, or an
/// error if the angle is off-grid.
fn turns(gate: Gate, theta: f64, granularity: f64, modulus: i64) -> Result<usize, LowerCliffordError> {
    let steps = theta / granularity;
    let k = steps.round();
    if (steps - k).abs() > ANGLE_TOL {
        return Err(LowerCliffordError { gate, angle: Some(theta) });
    }
    Ok((k as i64).rem_euclid(modulus) as usize)
}

fn s_times(q: usize, k: usize, out: &mut Vec<CliffordOp>) {
    for _ in 0..k {
        out.push(CliffordOp::S(q));
    }
}

/// `RZ(k * pi/2)` on qubit `q` (as `S^k`, up to global phase).
fn rz_k(q: usize, k: usize, out: &mut Vec<CliffordOp>) {
    s_times(q, k % 4, out);
}

/// `RX(k * pi/2)` as `H RZ H`.
fn rx_k(q: usize, k: usize, out: &mut Vec<CliffordOp>) {
    out.push(CliffordOp::H(q));
    rz_k(q, k, out);
    out.push(CliffordOp::H(q));
}

/// `RY(k * pi/2)` as `S RX S^dagger` (applied right-to-left).
fn ry_k(q: usize, k: usize, out: &mut Vec<CliffordOp>) {
    s_times(q, 3, out); // S^dagger
    rx_k(q, k, out);
    s_times(q, 1, out);
}

fn cz_seq(a: usize, b: usize, out: &mut Vec<CliffordOp>) {
    out.push(CliffordOp::H(b));
    out.push(CliffordOp::Cx(a, b));
    out.push(CliffordOp::H(b));
}

fn cy_seq(a: usize, b: usize, out: &mut Vec<CliffordOp>) {
    s_times(b, 3, out);
    out.push(CliffordOp::Cx(a, b));
    s_times(b, 1, out);
}

/// `CRZ(k * pi)` on `(control a, target b)`. The controlled rotation has
/// period `4 pi`, so `k` runs mod 4:
/// `k=1 -> Sdg_a * CZ`, `k=2 -> Z_a`, `k=3 -> S_a * CZ` (up to global
/// phase).
fn crz_k(a: usize, b: usize, k: usize, out: &mut Vec<CliffordOp>) {
    match k % 4 {
        0 => {}
        1 => {
            cz_seq(a, b, out);
            s_times(a, 3, out);
        }
        2 => s_times(a, 2, out),
        3 => {
            cz_seq(a, b, out);
            s_times(a, 1, out);
        }
        _ => unreachable!(),
    }
}

/// Lowers one instruction with resolved angle values to primitive Clifford
/// operations.
///
/// # Errors
///
/// Returns [`LowerCliffordError`] if the gate is inherently non-Clifford
/// (`T`, `Tdg`) or a resolved angle is off the gate's Clifford grid
/// (multiples of `pi/2` for plain rotations, multiples of `pi` for
/// controlled rotations).
pub fn lower_instruction(
    ins: &Instruction,
    values: &[f64],
) -> Result<Vec<CliffordOp>, LowerCliffordError> {
    let g = ins.gate;
    let q = ins.qubits[0];
    let mut out = Vec::new();
    match g {
        Gate::I => {}
        Gate::X => rx_k(q, 2, &mut out),
        Gate::Y => ry_k(q, 2, &mut out),
        Gate::Z => rz_k(q, 2, &mut out),
        Gate::H => out.push(CliffordOp::H(q)),
        Gate::S => out.push(CliffordOp::S(q)),
        Gate::Sdg => s_times(q, 3, &mut out),
        Gate::Sx => {
            out.push(CliffordOp::H(q));
            out.push(CliffordOp::S(q));
            out.push(CliffordOp::H(q));
        }
        Gate::T | Gate::Tdg => return Err(LowerCliffordError { gate: g, angle: None }),
        Gate::Rz | Gate::P => {
            let k = turns(g, values[0], std::f64::consts::FRAC_PI_2, 4)?;
            rz_k(q, k, &mut out);
        }
        Gate::Rx => {
            let k = turns(g, values[0], std::f64::consts::FRAC_PI_2, 4)?;
            rx_k(q, k, &mut out);
        }
        Gate::Ry => {
            let k = turns(g, values[0], std::f64::consts::FRAC_PI_2, 4)?;
            ry_k(q, k, &mut out);
        }
        Gate::U3 => {
            // U3(theta, phi, lambda) = RZ(phi) RY(theta) RZ(lambda).
            let kt = turns(g, values[0], std::f64::consts::FRAC_PI_2, 4)?;
            let kp = turns(g, values[1], std::f64::consts::FRAC_PI_2, 4)?;
            let kl = turns(g, values[2], std::f64::consts::FRAC_PI_2, 4)?;
            rz_k(q, kl, &mut out);
            ry_k(q, kt, &mut out);
            rz_k(q, kp, &mut out);
        }
        Gate::Cx => out.push(CliffordOp::Cx(q, ins.qubits[1])),
        Gate::Cz => cz_seq(q, ins.qubits[1], &mut out),
        Gate::Cy => cy_seq(q, ins.qubits[1], &mut out),
        Gate::Swap => {
            let b = ins.qubits[1];
            out.push(CliffordOp::Cx(q, b));
            out.push(CliffordOp::Cx(b, q));
            out.push(CliffordOp::Cx(q, b));
        }
        Gate::Rzz => {
            let b = ins.qubits[1];
            let k = turns(g, values[0], std::f64::consts::FRAC_PI_2, 4)?;
            out.push(CliffordOp::Cx(q, b));
            rz_k(b, k, &mut out);
            out.push(CliffordOp::Cx(q, b));
        }
        Gate::Rxx => {
            let b = ins.qubits[1];
            let k = turns(g, values[0], std::f64::consts::FRAC_PI_2, 4)?;
            out.push(CliffordOp::H(q));
            out.push(CliffordOp::H(b));
            out.push(CliffordOp::Cx(q, b));
            rz_k(b, k, &mut out);
            out.push(CliffordOp::Cx(q, b));
            out.push(CliffordOp::H(q));
            out.push(CliffordOp::H(b));
        }
        Gate::Ryy => {
            let b = ins.qubits[1];
            let k = turns(g, values[0], std::f64::consts::FRAC_PI_2, 4)?;
            s_times(q, 3, &mut out);
            s_times(b, 3, &mut out);
            out.push(CliffordOp::H(q));
            out.push(CliffordOp::H(b));
            out.push(CliffordOp::Cx(q, b));
            rz_k(b, k, &mut out);
            out.push(CliffordOp::Cx(q, b));
            out.push(CliffordOp::H(q));
            out.push(CliffordOp::H(b));
            s_times(q, 1, &mut out);
            s_times(b, 1, &mut out);
        }
        Gate::Crz => {
            let b = ins.qubits[1];
            let k = turns(g, values[0], std::f64::consts::PI, 4)?;
            crz_k(q, b, k, &mut out);
        }
        Gate::Crx => {
            // CRX = (H on target) CRZ (H on target).
            let b = ins.qubits[1];
            let k = turns(g, values[0], std::f64::consts::PI, 4)?;
            out.push(CliffordOp::H(b));
            crz_k(q, b, k, &mut out);
            out.push(CliffordOp::H(b));
        }
        Gate::Cry => {
            // CRY = (S on target) CRX (Sdg on target).
            let b = ins.qubits[1];
            let k = turns(g, values[0], std::f64::consts::PI, 4)?;
            s_times(b, 3, &mut out);
            out.push(CliffordOp::H(b));
            crz_k(q, b, k, &mut out);
            out.push(CliffordOp::H(b));
            s_times(b, 1, &mut out);
        }
        Gate::Cp => {
            let b = ins.qubits[1];
            let k = turns(g, values[0], std::f64::consts::PI, 2)?;
            if k == 1 {
                cz_seq(q, b, &mut out);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;
    use elivagar_circuit::gate::ALL_GATES;
    use elivagar_circuit::ParamExpr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::PI;

    fn apply_ops_to_state(psi: &mut StateVector, ops: &[CliffordOp]) {
        let h = Gate::H.matrix1(&[]);
        let s = Gate::S.matrix1(&[]);
        let cx = Gate::Cx.matrix2(&[]);
        let x = Gate::X.matrix1(&[]);
        let z = Gate::Z.matrix1(&[]);
        for &op in ops {
            match op {
                CliffordOp::H(q) => psi.apply_mat1(q, &h),
                CliffordOp::S(q) => psi.apply_mat1(q, &s),
                CliffordOp::Cx(a, b) => psi.apply_mat2(a, b, &cx),
                CliffordOp::X(q) => psi.apply_mat1(q, &x),
                CliffordOp::Z(q) => psi.apply_mat1(q, &z),
            }
        }
    }

    fn random_state(n: usize, rng: &mut StdRng) -> StateVector {
        let mut psi = StateVector::zero(n);
        for q in 0..n {
            psi.apply_mat1(q, &Gate::Ry.matrix1(&[rng.random_range(0.0..PI)]));
            psi.apply_mat1(q, &Gate::Rz.matrix1(&[rng.random_range(0.0..PI)]));
        }
        if n >= 2 {
            psi.apply_mat2(0, 1, &Gate::Cx.matrix2(&[]));
        }
        psi
    }

    /// Checks that the lowered sequence matches the gate unitary up to a
    /// global phase, by acting on random states.
    fn check_lowering(ins: &Instruction, values: &[f64]) {
        let ops = lower_instruction(ins, values).expect("should lower");
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..3 {
            let psi0 = random_state(2, &mut rng);
            let mut via_gate = psi0.clone();
            via_gate.apply_instruction(ins, values);
            let mut via_ops = psi0;
            apply_ops_to_state(&mut via_ops, &ops);
            let overlap = via_gate.overlap(&via_ops);
            assert!(
                (overlap - 1.0).abs() < 1e-9,
                "lowering mismatch for {} at {values:?}: overlap {overlap}",
                ins.gate
            );
        }
    }

    #[test]
    fn fixed_clifford_gates_lower_correctly() {
        for &g in ALL_GATES {
            if !g.is_fixed_clifford() {
                continue;
            }
            let qubits = if g.num_qubits() == 1 { vec![0] } else { vec![0, 1] };
            let ins = Instruction::new(g, qubits, vec![]);
            check_lowering(&ins, &[]);
        }
    }

    #[test]
    fn rotations_lower_correctly_at_all_quarter_turns() {
        for g in [Gate::Rx, Gate::Ry, Gate::Rz, Gate::P] {
            for k in 0..8 {
                let theta = k as f64 * PI / 2.0 - 2.0 * PI;
                let ins = Instruction::new(g, vec![1], vec![ParamExpr::constant(theta)]);
                check_lowering(&ins, &[theta]);
            }
        }
    }

    #[test]
    fn two_qubit_rotations_lower_correctly() {
        for g in [Gate::Rzz, Gate::Rxx, Gate::Ryy] {
            for k in 0..4 {
                let theta = k as f64 * PI / 2.0;
                let ins = Instruction::new(g, vec![0, 1], vec![ParamExpr::constant(theta)]);
                check_lowering(&ins, &[theta]);
                // Also check with reversed operand order.
                let ins = Instruction::new(g, vec![1, 0], vec![ParamExpr::constant(theta)]);
                check_lowering(&ins, &[theta]);
            }
        }
    }

    #[test]
    fn controlled_rotations_lower_correctly_at_pi() {
        for g in [Gate::Crx, Gate::Cry, Gate::Crz, Gate::Cp] {
            for k in [0.0, PI, -PI, 2.0 * PI] {
                let ins = Instruction::new(g, vec![0, 1], vec![ParamExpr::constant(k)]);
                check_lowering(&ins, &[k]);
            }
        }
    }

    #[test]
    fn u3_lowers_correctly_on_grid() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let vals: Vec<f64> = (0..3)
                .map(|_| rng.random_range(0..4) as f64 * PI / 2.0)
                .collect();
            let exprs: Vec<ParamExpr> = vals.iter().map(|&v| ParamExpr::constant(v)).collect();
            let ins = Instruction::new(Gate::U3, vec![0], exprs);
            check_lowering(&ins, &vals);
        }
    }

    #[test]
    fn off_grid_angle_is_rejected() {
        let ins = Instruction::new(Gate::Rx, vec![0], vec![ParamExpr::constant(0.3)]);
        assert!(lower_instruction(&ins, &[0.3]).is_err());
        let ins = Instruction::new(Gate::Crz, vec![0, 1], vec![ParamExpr::constant(PI / 2.0)]);
        assert!(lower_instruction(&ins, &[PI / 2.0]).is_err());
    }

    #[test]
    fn t_gate_is_rejected() {
        let ins = Instruction::new(Gate::T, vec![0], vec![]);
        let err = lower_instruction(&ins, &[]).unwrap_err();
        assert!(err.to_string().contains("not a clifford"));
    }
}
