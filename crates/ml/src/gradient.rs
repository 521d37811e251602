//! Loss gradients: adjoint (classical simulation) and parameter-shift
//! (quantum hardware) paths.
//!
//! The distinction drives the paper's two runtime scenarios (Section 8.2):
//! on classical simulators gradients are cheap (adjoint/backprop, O(1)
//! sweeps), while on hardware every parameter costs extra circuit
//! executions through the parameter-shift rule — which is exactly why
//! training-based QCS methods scale so poorly.
//!
//! Both methods share one dispatch, [`cohort_batch_gradients`]: every
//! `(member, sample)` pair of a cohort minibatch runs as one item of the
//! engine's work-stealing pool, against the member's pre-compiled
//! [`AdjointProgram`]. [`batch_gradient`] is that dispatch for a cohort of
//! one.

use crate::loss::cross_entropy_into;
use crate::model::QuantumClassifier;
use elivagar_circuit::{Gate, ParamSource};
use elivagar_sim::{
    par_items_with_arena, AdjointProgram, Gradients, Program, StateVector, ZObservable,
};
use std::cell::RefCell;
use std::f64::consts::{FRAC_PI_2, SQRT_2};

/// How gradients are computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum GradientMethod {
    /// Adjoint differentiation on the state-vector simulator (the paper's
    /// "classical simulators" scenario).
    #[default]
    Adjoint,
    /// Parameter-shift rules with per-execution accounting (the paper's
    /// "quantum hardware" scenario).
    ParameterShift,
}

/// Loss, gradient, and the number of circuit executions the computation
/// would have cost on hardware.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchGradient {
    /// Mean loss over the batch.
    pub loss: f64,
    /// Mean gradient over the batch.
    pub gradient: Vec<f64>,
    /// Circuit executions consumed (forward passes + shifted evaluations).
    pub executions: u64,
}

impl BatchGradient {
    /// Whether the loss and every gradient component are finite. A `false`
    /// here means the batch must not reach the optimizer: one NaN step
    /// poisons the parameters (and every later loss) irreversibly.
    pub fn is_finite(&self) -> bool {
        self.loss.is_finite() && self.gradient.iter().all(|g| g.is_finite())
    }
}

/// The parameter-shift rule of a gate parameter: `(shift, coefficient)`
/// terms such that `d<O>/dtheta = sum_j c_j <O>(theta + s_j)`.
///
/// Plain rotations have generator eigenvalues +-1/2 (two-term rule);
/// controlled rotations have eigenvalues {0, +-1/2} and need the four-term
/// two-frequency rule. Returns `None` for non-parametric gates.
pub fn shift_rule(gate: Gate) -> Option<&'static [(f64, f64)]> {
    const TWO_TERM: [(f64, f64); 2] = [(FRAC_PI_2, 0.5), (-FRAC_PI_2, -0.5)];
    // c+- = (sqrt(2) +- 1) / (4 sqrt(2)).
    const C_PLUS: f64 = (SQRT_2 + 1.0) / (4.0 * SQRT_2);
    const C_MINUS: f64 = (SQRT_2 - 1.0) / (4.0 * SQRT_2);
    const FOUR_TERM: [(f64, f64); 4] = [
        (FRAC_PI_2, C_PLUS),
        (-FRAC_PI_2, -C_PLUS),
        (3.0 * FRAC_PI_2, -C_MINUS),
        (-3.0 * FRAC_PI_2, C_MINUS),
    ];
    match gate {
        Gate::Rx | Gate::Ry | Gate::Rz | Gate::P | Gate::U3 => Some(&TWO_TERM),
        Gate::Rxx | Gate::Ryy | Gate::Rzz => Some(&TWO_TERM),
        Gate::Crx | Gate::Cry | Gate::Crz | Gate::Cp => Some(&FOUR_TERM),
        _ => None,
    }
}

/// Weighted expectation `sum_q w_q <Z_q>` of a compiled circuit's output.
fn weighted_expectation(
    program: &Program,
    params: &[f64],
    features: &[f64],
    weights: &[(usize, f64)],
) -> f64 {
    program.run_with(params, features, |psi| {
        weights.iter().map(|&(q, w)| w * psi.expectation_z(q)).sum()
    })
}

/// Where trainable parameter `index` is used in the circuit, as
/// `(instruction, scale)` pairs, into a caller-recycled buffer (cleared
/// and refilled).
fn usage_sites_into(model: &QuantumClassifier, index: usize, sites: &mut Vec<(usize, f64)>) {
    sites.clear();
    for (i, ins) in model.circuit().instructions().iter().enumerate() {
        for p in &ins.params {
            if let ParamSource::Trainable(t) = p.source {
                if t == index {
                    sites.push((i, p.scale));
                }
            }
        }
    }
}

/// Loss and gradient for one sample by the streamed adjoint: a single
/// forward sweep through the fused [`AdjointProgram`], the classifier
/// loss and effective observable computed from the final state in the
/// prepare hook, and one backward sweep accumulating every parameter's
/// gradient. The gradient lands in `grad_out` (first `params.len()`
/// entries); returns `(loss, executions)`.
///
/// All intermediates live in the per-thread [`GRAD_SCRATCH`], so a
/// warmed-up call performs no heap allocation.
fn adjoint_sample_gradient(
    model: &QuantumClassifier,
    adjoint: &AdjointProgram,
    params: &[f64],
    features: &[f64],
    label: usize,
    grad_out: &mut [f64],
) -> (f64, u64) {
    GRAD_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let GradScratch { expectations, logits, dlogits, weights, obs, g, .. } = s;
        let loss = adjoint.run_adjoint_with(
            params,
            features,
            obs,
            |psi, obs| {
                model.expectations_from_state_into(psi, expectations);
                model.logits_from_expectations_into(expectations, logits);
                let loss = cross_entropy_into(logits, label, dlogits);
                model.observable_weights_into(dlogits, weights);
                obs.reset_terms(weights.iter().copied());
                loss
            },
            g,
        );
        grad_out[..params.len()].copy_from_slice(&g.params);
        // One logical forward execution; gradients are free classically.
        (loss, 1)
    })
}

/// Mean loss and gradient over a batch of samples: a one-member
/// [`cohort_batch_gradients`] dispatch, reduced in sample order.
///
/// # Panics
///
/// Panics if the batch is empty or features/labels lengths differ.
pub fn batch_gradient(
    model: &QuantumClassifier,
    params: &[f64],
    features: &[Vec<f64>],
    labels: &[usize],
    method: GradientMethod,
) -> BatchGradient {
    assert!(!features.is_empty(), "empty batch");
    // Classifier training only reads trainable gradients, so the backward
    // sweep skips every data-embedding slot.
    let adjoint = AdjointProgram::compile_params_only(model.circuit());
    let items: Vec<MultiItem> = (0..features.len() as u32)
        .map(|sample| MultiItem { member: 0, sample })
        .collect();
    let (mut arena, mut out) = (Vec::new(), Vec::new());
    let stride = cohort_batch_gradients(
        std::slice::from_ref(model),
        std::slice::from_ref(&adjoint),
        &[params.to_vec()],
        features,
        labels,
        &items,
        method,
        &mut arena,
        &mut out,
    );
    let grads = arena
        .chunks_exact(stride)
        .map(|slice| &slice[..params.len()]);
    reduce_in_order(params.len(), out.iter().copied().zip(grads))
}

/// Sums per-sample `((loss, executions), gradient)` results in the order
/// given and divides loss and gradient by the sample count.
fn reduce_in_order<'a>(
    num_params: usize,
    per_sample: impl ExactSizeIterator<Item = ((f64, u64), &'a [f64])>,
) -> BatchGradient {
    let n = per_sample.len() as f64;
    let mut loss = 0.0;
    let mut gradient = vec![0.0; num_params];
    let mut executions = 0u64;
    for ((l, e), g) in per_sample {
        loss += l;
        executions += e;
        for (acc, gi) in gradient.iter_mut().zip(g) {
            *acc += gi;
        }
    }
    loss /= n;
    for g in &mut gradient {
        *g /= n;
    }
    BatchGradient { loss, gradient, executions }
}

/// Test oracle for [`batch_gradient`]: the same per-sample kernels behind
/// an independent dispatch, a pool `par_map` over the samples with one
/// fresh gradient vector each, reduced in sample order. The cohort suite
/// pins the production dispatch to it bit for bit.
///
/// # Panics
///
/// Panics if the batch is empty or features/labels lengths differ.
#[cfg(test)]
pub(crate) fn reference_batch_gradient(
    model: &QuantumClassifier,
    params: &[f64],
    features: &[Vec<f64>],
    labels: &[usize],
    method: GradientMethod,
) -> BatchGradient {
    use elivagar_sim::parallel::par_map;
    assert!(!features.is_empty(), "empty batch");
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    let indices: Vec<usize> = (0..features.len()).collect();
    let per_sample = match method {
        GradientMethod::Adjoint => {
            let adjoint = AdjointProgram::compile_params_only(model.circuit());
            par_map(&indices, |&i| {
                let mut grad = vec![0.0; params.len()];
                let result = adjoint_sample_gradient(
                    model,
                    &adjoint,
                    params,
                    &features[i],
                    labels[i],
                    &mut grad,
                );
                (result, grad)
            })
        }
        GradientMethod::ParameterShift => {
            let program = Program::compile(model.circuit());
            par_map(&indices, |&i| {
                let mut grad = vec![0.0; params.len()];
                let result = program.run_with(params, &features[i], |psi| {
                    shift_sample_gradient(
                        model,
                        &program,
                        params,
                        &features[i],
                        labels[i],
                        psi,
                        &mut grad,
                    )
                });
                (result, grad)
            })
        }
    };
    reduce_in_order(
        params.len(),
        per_sample.iter().map(|(r, g)| (*r, g.as_slice())),
    )
}

/// Per-worker scratch for the per-sample gradient kernels: every
/// intermediate they need, recycled across calls so the steady state
/// allocates nothing.
struct GradScratch {
    expectations: Vec<f64>,
    logits: Vec<f64>,
    dlogits: Vec<f64>,
    weights: Vec<(usize, f64)>,
    obs: ZObservable,
    g: Gradients,
    sites: Vec<(usize, f64)>,
    shifted_plus: Vec<f64>,
    shifted_minus: Vec<f64>,
}

thread_local! {
    static GRAD_SCRATCH: RefCell<GradScratch> = RefCell::new(GradScratch {
        expectations: Vec::new(),
        logits: Vec::new(),
        dlogits: Vec::new(),
        weights: Vec::new(),
        obs: ZObservable::new(Vec::new()),
        g: Gradients { expectation: 0.0, params: Vec::new(), features: Vec::new() },
        sites: Vec::new(),
        shifted_plus: Vec::new(),
        shifted_minus: Vec::new(),
    });
}

/// Loss and gradient for one sample by the parameter-shift rule (the
/// hardware-accounting path), given the sample's forward state `psi`
/// (from `program.run_with`). Every shifted evaluation runs the
/// pre-compiled fused `program`. The gradient lands in `grad_out` (first
/// `params.len()` entries); returns `(loss, executions)`. Intermediates
/// live in [`GRAD_SCRATCH`].
fn shift_sample_gradient(
    model: &QuantumClassifier,
    program: &Program,
    params: &[f64],
    features: &[f64],
    label: usize,
    psi: &StateVector,
    grad_out: &mut [f64],
) -> (f64, u64) {
    GRAD_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        model.expectations_from_state_into(psi, &mut s.expectations);
        model.logits_from_expectations_into(&s.expectations, &mut s.logits);
        let loss = cross_entropy_into(&s.logits, label, &mut s.dlogits);
        model.observable_weights_into(&s.dlogits, &mut s.weights);
        let grad = &mut grad_out[..params.len()];
        grad.fill(0.0);
        let mut executions = 1u64; // the forward pass
        for (i, g) in grad.iter_mut().enumerate() {
            usage_sites_into(model, i, &mut s.sites);
            if s.sites.is_empty() {
                continue;
            }
            let single_plain_site = s.sites.len() == 1
                && (s.sites[0].1.abs() - 1.0).abs() < 1e-12
                && shift_rule(model.circuit().instructions()[s.sites[0].0].gate).is_some();
            if single_plain_site {
                let gate = model.circuit().instructions()[s.sites[0].0].gate;
                let rule = shift_rule(gate).expect("checked above");
                let sign = s.sites[0].1; // +1 or -1
                for &(shift, coeff) in rule {
                    s.shifted_plus.clear();
                    s.shifted_plus.extend_from_slice(params);
                    s.shifted_plus[i] += sign * shift;
                    *g += sign * coeff
                        * weighted_expectation(program, &s.shifted_plus, features, &s.weights);
                    executions += 1;
                }
            } else {
                // Shared or scaled parameter: central difference
                // (still two executions, like a shift).
                let h = 1e-4;
                s.shifted_plus.clear();
                s.shifted_plus.extend_from_slice(params);
                s.shifted_minus.clear();
                s.shifted_minus.extend_from_slice(params);
                s.shifted_plus[i] += h;
                s.shifted_minus[i] -= h;
                let ep = weighted_expectation(program, &s.shifted_plus, features, &s.weights);
                let em = weighted_expectation(program, &s.shifted_minus, features, &s.weights);
                *g += (ep - em) / (2.0 * h);
                executions += 2;
            }
        }
        (loss, executions)
    })
}

/// One work item of a cohort gradient dispatch: cohort member `member`'s
/// gradient on sample `sample` of the shared feature pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiItem {
    /// Index of the member in the cohort.
    pub member: u32,
    /// Index of the feature vector in the shared batch.
    pub sample: u32,
}

/// Fused gradient dispatch over a cohort of candidates, the one production
/// gradient dispatch: one pass through the work-stealing pool computes
/// every `(member, sample)` pair in `items`, writing each pair's gradient
/// into its `stride`-wide arena slice and its `(loss, executions)` into
/// `out[i]`. Returns the arena stride (the widest member's parameter
/// count).
///
/// With [`GradientMethod::Adjoint`] each pair streams through its member's
/// pre-compiled [`AdjointProgram`] (forward, loss hook, backward in one
/// pass); with [`GradientMethod::ParameterShift`] the member's forward
/// program ([`AdjointProgram::program`]) produces the forward state and
/// runs the shifted evaluations. Reducing member `m`'s slices in item
/// order gives its minibatch gradient, bit for bit at any thread count.
/// Once `arena` and `out` have grown to capacity the steady state performs
/// no heap allocation.
///
/// # Panics
///
/// Panics if `models`, `adjoints`, and `params` disagree on the cohort
/// size, if features/labels lengths differ, or if an item indexes out of
/// range.
#[allow(clippy::too_many_arguments)]
pub fn cohort_batch_gradients(
    models: &[QuantumClassifier],
    adjoints: &[AdjointProgram],
    params: &[Vec<f64>],
    features: &[Vec<f64>],
    labels: &[usize],
    items: &[MultiItem],
    method: GradientMethod,
    arena: &mut Vec<f64>,
    out: &mut Vec<(f64, u64)>,
) -> usize {
    assert_eq!(models.len(), adjoints.len(), "model/adjoint mismatch");
    assert_eq!(models.len(), params.len(), "model/params mismatch");
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    for item in items {
        assert!((item.member as usize) < models.len(), "member out of range");
        assert!((item.sample as usize) < features.len(), "sample out of range");
    }
    let stride = params.iter().map(Vec::len).max().unwrap_or(0).max(1);
    arena.clear();
    arena.resize(items.len() * stride, 0.0);
    par_items_with_arena(items.len(), arena, stride, out, |i, slice| {
        let (m, sample) = (items[i].member as usize, items[i].sample as usize);
        let (model, adjoint, params) = (&models[m], &adjoints[m], &params[m]);
        let (x, label) = (&features[sample], labels[sample]);
        match method {
            GradientMethod::Adjoint => {
                adjoint_sample_gradient(model, adjoint, params, x, label, slice)
            }
            GradientMethod::ParameterShift => {
                let program = adjoint.program();
                program.run_with(params, x, |psi| {
                    shift_sample_gradient(model, program, params, x, label, psi, slice)
                })
            }
        }
    });
    stride
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::{Circuit, ParamExpr};

    fn model() -> QuantumClassifier {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rz, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Crz, &[0, 1], &[ParamExpr::trainable(2)]);
        c.push_gate(Gate::Ry, &[1], &[ParamExpr::trainable(3)]);
        c.set_measured(vec![0, 1]);
        QuantumClassifier::new(c, 2)
    }

    #[test]
    fn parameter_shift_matches_adjoint() {
        let m = model();
        let params = [0.4, -0.9, 1.3, 0.2];
        let x = vec![vec![0.8]];
        let y = [1];
        let adj = batch_gradient(&m, &params, &x, &y, GradientMethod::Adjoint);
        let ps = batch_gradient(&m, &params, &x, &y, GradientMethod::ParameterShift);
        assert!((adj.loss - ps.loss).abs() < 1e-10);
        for (a, b) in adj.gradient.iter().zip(&ps.gradient) {
            assert!((a - b).abs() < 1e-6, "adjoint {a} vs shift {b}");
        }
    }

    #[test]
    fn batch_gradient_matches_reference_dispatch_bit_for_bit() {
        let m = model();
        let params = [0.4, -0.9, 1.3, 0.2];
        let features: Vec<Vec<f64>> = (0..7).map(|i| vec![0.3 * i as f64 - 1.0]).collect();
        let labels: Vec<usize> = (0..7).map(|i| i % 2).collect();
        for method in [GradientMethod::Adjoint, GradientMethod::ParameterShift] {
            let got = batch_gradient(&m, &params, &features, &labels, method);
            let want = reference_batch_gradient(&m, &params, &features, &labels, method);
            assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{method:?} loss");
            assert_eq!(got.executions, want.executions, "{method:?} executions");
            assert_eq!(got.gradient.len(), want.gradient.len());
            for (a, b) in got.gradient.iter().zip(&want.gradient) {
                assert_eq!(a.to_bits(), b.to_bits(), "{method:?} gradient");
            }
        }
    }

    #[test]
    fn execution_counts_reflect_shift_rules() {
        let m = model();
        let params = [0.4, -0.9, 1.3, 0.2];
        let ps = batch_gradient(
            &m,
            &params,
            &[vec![0.8]],
            &[0],
            GradientMethod::ParameterShift,
        );
        // 1 forward + 2-term for t0, t1, t3 (3 * 2) + 4-term for the CRZ
        // (t2) = 1 + 6 + 4 = 11.
        assert_eq!(ps.executions, 11);
        let adj = batch_gradient(&m, &params, &[vec![0.8]], &[0], GradientMethod::Adjoint);
        assert_eq!(adj.executions, 1);
    }

    #[test]
    fn shared_parameters_fall_back_to_finite_differences() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0).scaled(0.5)]);
        c.set_measured(vec![0]);
        let m = QuantumClassifier::new(c, 2);
        let params = [0.7];
        let adj = batch_gradient(&m, &params, &[vec![]], &[0], GradientMethod::Adjoint);
        let ps = batch_gradient(&m, &params, &[vec![]], &[0], GradientMethod::ParameterShift);
        assert!((adj.gradient[0] - ps.gradient[0]).abs() < 1e-5);
    }

    #[test]
    fn batch_averaging_is_correct() {
        let m = model();
        let params = [0.1, 0.2, 0.3, 0.4];
        let a = batch_gradient(&m, &params, &[vec![0.5]], &[0], GradientMethod::Adjoint);
        let b = batch_gradient(&m, &params, &[vec![1.5]], &[1], GradientMethod::Adjoint);
        let both = batch_gradient(
            &m,
            &params,
            &[vec![0.5], vec![1.5]],
            &[0, 1],
            GradientMethod::Adjoint,
        );
        assert!((both.loss - 0.5 * (a.loss + b.loss)).abs() < 1e-12);
        for k in 0..4 {
            assert!((both.gradient[k] - 0.5 * (a.gradient[k] + b.gradient[k])).abs() < 1e-12);
        }
    }

    #[test]
    fn four_term_rule_is_exact_for_controlled_rotations() {
        // Isolate a CRY and compare the 4-term rule against adjoint.
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Cry, &[0, 1], &[ParamExpr::trainable(0)]);
        c.set_measured(vec![1]);
        let m = QuantumClassifier::new(c, 2);
        for theta in [0.3, -1.2, 2.5] {
            let adj = batch_gradient(&m, &[theta], &[vec![]], &[1], GradientMethod::Adjoint);
            let ps =
                batch_gradient(&m, &[theta], &[vec![]], &[1], GradientMethod::ParameterShift);
            assert!(
                (adj.gradient[0] - ps.gradient[0]).abs() < 1e-9,
                "theta {theta}: {} vs {}",
                adj.gradient[0],
                ps.gradient[0]
            );
        }
    }
}
