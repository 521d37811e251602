//! Differential suite: the fused-block execution engine versus the naive
//! per-instruction reference, over random parametric circuits.
//!
//! Gate fusion re-associates products of unitaries and the streamed
//! adjoint replaces three sweeps per parameter slot with one bilinear
//! pass, so results are not bit-identical to the naive path — but they
//! must stay ULP-close. Every property here asserts an ULP bound (with a
//! small absolute escape hatch for values that cancel to ~0, where ULP
//! distance is meaningless) between:
//!
//! 1. `Program::run` (fused, cache-blocked) and `StateVector::run`
//!    (one naive sweep per instruction) — final amplitudes;
//! 2. per-qubit `<Z>` expectations of the two states;
//! 3. `AdjointProgram::gradient` (streamed, fused) and
//!    `oracle::adjoint_gradient` (the reference, which walks the raw
//!    instruction stream) — expectation, parameter gradients, feature
//!    gradients.
//!
//! `scripts/verify.sh` reruns this binary at `ELIVAGAR_THREADS=1/2/4`;
//! within one thread count the fused results are bit-deterministic, and
//! across thread counts the determinism suite pins them exactly.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_sim::oracle::adjoint_gradient;
use elivagar_sim::{AdjointProgram, Program, StateVector, ZObservable};
use proptest::prelude::*;

const NUM_PARAMS: usize = 4;
const NUM_FEATURES: usize = 3;

/// ULP distance between two f64s (0 for `+0.0` vs `-0.0`), via the
/// monotonic reinterpretation of the bit patterns.
fn ulps(a: f64, b: f64) -> u64 {
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

/// Asserts `a` and `b` agree to `max_ulps` ULPs, or to `abs_tol`
/// absolutely (catastrophic cancellation produces values of magnitude
/// ~1e-16 whose ULP distance is huge but which both mean "zero").
fn assert_ulp_close(a: f64, b: f64, max_ulps: u64, abs_tol: f64, what: &str) {
    let d = ulps(a, b);
    assert!(
        d <= max_ulps || (a - b).abs() <= abs_tol,
        "{what}: {a} vs {b} differ by {d} ulps (> {max_ulps}) and {} abs (> {abs_tol})",
        (a - b).abs()
    );
}

/// A parameter expression drawn from all four sources, sometimes scaled.
fn param_expr(src: u8, idx: usize, angle: f64) -> ParamExpr {
    match src % 5 {
        0 => ParamExpr::constant(angle),
        1 => ParamExpr::trainable(idx % NUM_PARAMS),
        2 => ParamExpr::feature(idx % NUM_FEATURES),
        3 => ParamExpr::feature_product(idx % NUM_FEATURES, (idx / 3 + 1) % NUM_FEATURES),
        _ => ParamExpr::trainable(idx % NUM_PARAMS).scaled(0.5),
    }
}

/// Random circuits mixing static gates (fusible), parametric gates
/// (fusion barriers), single- and two-qubit operands — with long runs of
/// adjacent static gates likely, which is exactly what the fuser
/// coalesces.
fn arb_case() -> impl Strategy<Value = (Circuit, Vec<f64>, Vec<f64>)> {
    let gates = prop::collection::vec(
        (0u8..12, 0usize..8, 0usize..8, 0u8..5, -3.0f64..3.0),
        1..32,
    );
    let params = prop::collection::vec(-3.0f64..3.0, NUM_PARAMS..NUM_PARAMS + 1);
    let features = prop::collection::vec(-2.0f64..2.0, NUM_FEATURES..NUM_FEATURES + 1);
    (2usize..=6, gates, params, features).prop_map(|(n, ops, params, features)| {
        let mut c = Circuit::new(n);
        for (i, (kind, qa, qb, src, angle)) in ops.into_iter().enumerate() {
            let qa = qa % n;
            let qb = qb % n;
            match kind {
                0 => c.push_gate(Gate::H, &[qa], &[]),
                1 => c.push_gate(Gate::X, &[qa], &[]),
                2 => c.push_gate(Gate::Sx, &[qa], &[]),
                3 => c.push_gate(Gate::Rx, &[qa], &[param_expr(src, i, angle)]),
                4 => c.push_gate(Gate::Ry, &[qa], &[param_expr(src, i, angle)]),
                5 => c.push_gate(Gate::Rz, &[qa], &[param_expr(src, i, angle)]),
                6 => c.push_gate(
                    Gate::U3,
                    &[qa],
                    &[
                        param_expr(src, i, angle),
                        param_expr(src.wrapping_add(1), i + 1, -angle),
                        ParamExpr::constant(0.3),
                    ],
                ),
                7 if qa != qb => c.push_gate(Gate::Cx, &[qa, qb], &[]),
                8 if qa != qb => c.push_gate(Gate::Cz, &[qa, qb], &[]),
                9 if qa != qb => c.push_gate(Gate::Crz, &[qa, qb], &[param_expr(src, i, angle)]),
                10 if qa != qb => {
                    c.push_gate(Gate::Rzz, &[qa, qb], &[param_expr(src, i, angle)]);
                }
                11 if qa != qb => {
                    c.push_gate(Gate::Cry, &[qa, qb], &[param_expr(src, i, angle)]);
                }
                _ => {}
            }
        }
        (c, params, features)
    })
}

proptest! {
    /// Fused states match the naive per-instruction reference.
    #[test]
    fn fused_states_match_reference((c, params, features) in arb_case()) {
        let reference = StateVector::run(&c, &params, &features);
        let program = Program::compile(&c);
        let fused = program.run(&params, &features);
        for (i, (f, r)) in fused
            .amplitudes()
            .iter()
            .zip(reference.amplitudes())
            .enumerate()
        {
            assert_ulp_close(f.re, r.re, 1024, 1e-12, &format!("amp[{i}].re"));
            assert_ulp_close(f.im, r.im, 1024, 1e-12, &format!("amp[{i}].im"));
        }
    }

    /// Per-qubit expectations of the fused state match the reference.
    #[test]
    fn fused_expectations_match_reference((c, params, features) in arb_case()) {
        let reference = StateVector::run(&c, &params, &features);
        let fused = Program::compile(&c).run(&params, &features);
        for q in 0..c.num_qubits() {
            assert_ulp_close(
                fused.expectation_z(q),
                reference.expectation_z(q),
                1024,
                1e-12,
                &format!("<Z_{q}>"),
            );
        }
    }

    /// Streamed adjoint gradients match the reference adjoint sweep.
    #[test]
    fn streamed_adjoint_matches_reference((c, params, features) in arb_case()) {
        let obs = ZObservable::new(
            (0..c.num_qubits()).map(|q| (q, if q % 2 == 0 { 0.75 } else { -0.5 })).collect(),
        );
        let reference = adjoint_gradient(&c, &params, &features, &obs);
        let streamed = AdjointProgram::compile(&c).gradient(&params, &features, &obs);
        assert_ulp_close(streamed.expectation, reference.expectation, 1024, 1e-12, "expectation");
        prop_assert_eq!(streamed.params.len(), reference.params.len());
        prop_assert_eq!(streamed.features.len(), reference.features.len());
        for (i, (s, r)) in streamed.params.iter().zip(&reference.params).enumerate() {
            assert_ulp_close(*s, *r, 4096, 1e-10, &format!("dparams[{i}]"));
        }
        for (i, (s, r)) in streamed.features.iter().zip(&reference.features).enumerate() {
            assert_ulp_close(*s, *r, 4096, 1e-10, &format!("dfeatures[{i}]"));
        }
    }
}

/// A 13-qubit circuit (above `TILE_QUBITS`) whose static prefix touches
/// only low qubits — the cache-blocked executor splits it into per-tile
/// runs — followed by high-qubit barriers and dynamic gates.
fn tiled_circuit() -> Circuit {
    const _: () = assert!(13 > elivagar_sim::TILE_QUBITS);
    let mut c = Circuit::new(13);
    // Static low-qubit run: fused and executed tile-by-tile.
    for q in 0..8 {
        c.push_gate(Gate::H, &[q], &[]);
        c.push_gate(Gate::Rz, &[q], &[ParamExpr::constant(0.2 + 0.1 * q as f64)]);
    }
    for q in 0..7 {
        c.push_gate(Gate::Cx, &[q, q + 1], &[]);
    }
    // High-qubit ops: full-sweep barriers between tiled runs.
    c.push_gate(Gate::H, &[12], &[]);
    c.push_gate(Gate::Cx, &[11, 12], &[]);
    c.push_gate(Gate::Crz, &[3, 12], &[ParamExpr::trainable(0)]);
    // Another low-qubit static run after the barrier.
    for q in 0..6 {
        c.push_gate(Gate::Sx, &[q], &[]);
        c.push_gate(Gate::Ry, &[q], &[ParamExpr::constant(-0.4 + 0.05 * q as f64)]);
    }
    c.push_gate(Gate::Rzz, &[2, 5], &[ParamExpr::trainable(1)]);
    c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
    c.push_gate(Gate::Ry, &[10], &[ParamExpr::trainable(2)]);
    c
}

/// The cache-blocked (tiled) execution path agrees with the naive
/// reference above `TILE_QUBITS`, for both forward states and streamed
/// adjoint gradients.
#[test]
fn tiled_execution_matches_reference_above_tile_qubits() {
    let c = tiled_circuit();
    let params = [0.7, -1.1, 0.4];
    let features = [0.9];
    let reference = StateVector::run(&c, &params, &features);
    let fused = Program::compile(&c).run(&params, &features);
    for (i, (f, r)) in fused.amplitudes().iter().zip(reference.amplitudes()).enumerate() {
        assert_ulp_close(f.re, r.re, 1024, 1e-12, &format!("amp[{i}].re"));
        assert_ulp_close(f.im, r.im, 1024, 1e-12, &format!("amp[{i}].im"));
    }

    let obs = ZObservable::new(vec![(0, 1.0), (5, -0.5), (12, 0.25)]);
    let ref_grad = adjoint_gradient(&c, &params, &features, &obs);
    let streamed = AdjointProgram::compile(&c).gradient(&params, &features, &obs);
    assert_ulp_close(streamed.expectation, ref_grad.expectation, 1024, 1e-12, "expectation");
    for (i, (s, r)) in streamed.params.iter().zip(&ref_grad.params).enumerate() {
        assert_ulp_close(*s, *r, 4096, 1e-10, &format!("dparams[{i}]"));
    }
    for (i, (s, r)) in streamed.features.iter().zip(&ref_grad.features).enumerate() {
        assert_ulp_close(*s, *r, 4096, 1e-10, &format!("dfeatures[{i}]"));
    }
}
