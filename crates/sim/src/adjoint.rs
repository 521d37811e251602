//! Adjoint differentiation of expectation values on the state-vector
//! engine.
//!
//! This is the efficient classical-simulation analog of backpropagation
//! (what TorchQuantum/Pennylane use for noiseless training in the paper's
//! Section 8.2.1 "classical simulators" scenario): the gradient of
//! `<psi|O|psi>` with respect to *all* parameters costs O(1) extra circuit
//! sweeps instead of the O(P) circuit executions of the parameter-shift
//! rule.

use crate::engine::{self, Item, Program};
use crate::statevector::StateVector;
use crate::workspace::{self, MatrixRecord};
use elivagar_circuit::math::{C64, Mat2, Mat4};
use elivagar_circuit::{Circuit, Gate, ParamExpr, ParamSource};

/// A weighted sum of single-qubit Pauli-Z terms, `O = sum_k w_k Z_{q_k}`.
///
/// Z observables commute and are diagonal in the computational basis, so a
/// classifier loss gradient over several measured qubits folds into a single
/// effective observable — one adjoint pass differentiates the whole model.
#[derive(Clone, Debug, PartialEq)]
pub struct ZObservable {
    terms: Vec<(usize, f64)>,
    /// `ZZ` coupling terms `(qubit_a, qubit_b, weight)` — still diagonal,
    /// used by Ising-type Hamiltonians (the VQE extension).
    zz_terms: Vec<(usize, usize, f64)>,
    /// Constant energy offset.
    offset: f64,
}

impl ZObservable {
    /// Creates an observable from `(qubit, weight)` terms.
    pub fn new(terms: Vec<(usize, f64)>) -> Self {
        ZObservable { terms, zz_terms: Vec::new(), offset: 0.0 }
    }

    /// Single `Z` on one qubit.
    pub fn z(qubit: usize) -> Self {
        ZObservable::new(vec![(qubit, 1.0)])
    }

    /// Clears and refills the single-Z terms in place, dropping any ZZ
    /// terms and offset — recycles the observable's allocations so hot
    /// loops (e.g. per-sample classifier gradients) can rebuild the
    /// effective observable without heap traffic.
    pub fn reset_terms(&mut self, terms: impl IntoIterator<Item = (usize, f64)>) {
        self.terms.clear();
        self.terms.extend(terms);
        self.zz_terms.clear();
        self.offset = 0.0;
    }

    /// Adds a `w * Z_a Z_b` coupling term.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (that is a constant, use [`Self::with_offset`]).
    #[must_use]
    pub fn with_zz(mut self, a: usize, b: usize, weight: f64) -> Self {
        assert_ne!(a, b, "Z_a Z_a is the identity; fold it into the offset");
        self.zz_terms.push((a, b, weight));
        self
    }

    /// Adds a constant offset to the observable.
    #[must_use]
    pub fn with_offset(mut self, offset: f64) -> Self {
        self.offset += offset;
        self
    }

    /// The `(qubit, weight)` single-Z terms.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// The `(a, b, weight)` ZZ coupling terms.
    pub fn zz_terms(&self) -> &[(usize, usize, f64)] {
        &self.zz_terms
    }

    /// Eigenvalue of the observable on a computational basis state.
    #[inline]
    fn eigenvalue(&self, basis_index: usize) -> f64 {
        let single: f64 = self
            .terms
            .iter()
            .map(|&(q, w)| if basis_index & (1 << q) == 0 { w } else { -w })
            .sum();
        let coupled: f64 = self
            .zz_terms
            .iter()
            .map(|&(a, b, w)| {
                let za = basis_index & (1 << a) == 0;
                let zb = basis_index & (1 << b) == 0;
                if za == zb { w } else { -w }
            })
            .sum();
        single + coupled + self.offset
    }

    /// Asserts that every single-Z and ZZ term acts on a qubit below
    /// `num_qubits`.
    fn check_qubits(&self, num_qubits: usize) {
        for &(q, _) in &self.terms {
            assert!(q < num_qubits, "observable qubit {q} out of range");
        }
        for &(a, b, _) in &self.zz_terms {
            assert!(a < num_qubits && b < num_qubits, "zz qubit out of range");
        }
    }

    /// Applies the (diagonal) observable to a state: `|out> = O |psi>`.
    ///
    /// # Panics
    ///
    /// Panics if a term's qubit (single-Z or ZZ) is out of range.
    pub fn apply(&self, psi: &StateVector) -> StateVector {
        self.check_qubits(psi.num_qubits());
        let amps: Vec<C64> = psi
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(i, a)| a.scale(self.eigenvalue(i)))
            .collect();
        // Bypass normalization: O|psi> is generally not a unit vector.
        StateVector::raw(psi.num_qubits(), amps)
    }

    /// Applies the (diagonal) observable in place: `|psi> <- O |psi>`.
    /// The state is generally no longer normalized afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a term's qubit (single-Z or ZZ) is out of range.
    pub fn apply_in_place(&self, psi: &mut StateVector) {
        self.check_qubits(psi.num_qubits());
        for (i, a) in psi.amps_mut().iter_mut().enumerate() {
            *a = a.scale(self.eigenvalue(i));
        }
    }

    /// Expectation value `<psi|O|psi>`.
    ///
    /// # Panics
    ///
    /// Panics if a term's qubit (single-Z or ZZ) is out of range.
    pub fn expectation(&self, psi: &StateVector) -> f64 {
        self.check_qubits(psi.num_qubits());
        psi.amplitudes()
            .iter()
            .enumerate()
            .map(|(i, a)| a.norm_sqr() * self.eigenvalue(i))
            .sum()
    }
}

/// Result of one adjoint pass: the expectation value plus gradients with
/// respect to trainable parameters and input features.
#[derive(Clone, Debug, PartialEq)]
pub struct Gradients {
    /// The expectation value `<psi|O|psi>` at the given parameters.
    pub expectation: f64,
    /// Gradient with respect to each trainable parameter.
    pub params: Vec<f64>,
    /// Gradient with respect to each input feature, one entry per feature:
    /// zero where no differentiated gate slot reads it. Only gate slots
    /// count, so in amplitude-embedded circuits the embedding itself
    /// contributes nothing.
    pub features: Vec<f64>,
}

/// Step used for central-difference derivatives of gate matrices. The
/// matrices are entire functions of the angle, so the truncation error is
/// O(h^2) ~ 1e-12 — negligible against the 1e-7 tolerances of training.
const MATRIX_DIFF_STEP: f64 = 1e-6;

#[allow(clippy::needless_range_loop)]
pub(crate) fn dmat1(gate: elivagar_circuit::Gate, values: &[f64], slot: usize) -> Mat2 {
    let mut plus = [0.0f64; 3];
    let mut minus = [0.0f64; 3];
    plus[..values.len()].copy_from_slice(values);
    minus[..values.len()].copy_from_slice(values);
    plus[slot] += MATRIX_DIFF_STEP;
    minus[slot] -= MATRIX_DIFF_STEP;
    let mp = gate.matrix1(&plus[..values.len()]);
    let mm = gate.matrix1(&minus[..values.len()]);
    let mut out = [[C64::ZERO; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            out[r][c] = (mp.0[r][c] - mm.0[r][c]).scale(0.5 / MATRIX_DIFF_STEP);
        }
    }
    Mat2(out)
}

#[allow(clippy::needless_range_loop)]
pub(crate) fn dmat2(gate: elivagar_circuit::Gate, values: &[f64], slot: usize) -> Mat4 {
    let mut plus = [0.0f64; 3];
    let mut minus = [0.0f64; 3];
    plus[..values.len()].copy_from_slice(values);
    minus[..values.len()].copy_from_slice(values);
    plus[slot] += MATRIX_DIFF_STEP;
    minus[slot] -= MATRIX_DIFF_STEP;
    let mp = gate.matrix2(&plus[..values.len()]);
    let mm = gate.matrix2(&minus[..values.len()]);
    let mut out = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[r][c] = (mp.0[r][c] - mm.0[r][c]).scale(0.5 / MATRIX_DIFF_STEP);
        }
    }
    Mat4(out)
}

/// Where one gradient term accumulates.
#[derive(Clone, Copy)]
pub(crate) enum SinkKind {
    Param(usize),
    Feature(usize),
}

/// Where the sweeps find a dynamic op's gate matrices.
#[derive(Clone, Copy, Debug)]
enum Mats {
    /// No slot reads an input feature: the [`AdjointBinding`] holds `U`,
    /// `U^dagger` and one `dU` per trainable slot, in slot order, from
    /// this index of its matrix list on.
    Bound(usize),
    /// A slot reads an input feature: the forward sweep builds `U` per
    /// sample and records it at this index of the sample's matrix record.
    Recorded(usize),
}

/// One operation of a compiled adjoint program: fused static blocks carry
/// their dagger precomputed (the backward pass reuses it on both `psi` and
/// `lambda`), parametric gates stay symbolic and act as fusion barriers.
#[derive(Clone, Debug)]
enum AdjOp {
    One { q: usize, md: Mat2 },
    Two { qa: usize, qb: usize, md: Mat4 },
    Dyn1 { q: usize, gate: Gate, params: Vec<ParamExpr>, mats: Mats },
    Dyn2 { qa: usize, qb: usize, gate: Gate, params: Vec<ParamExpr>, mats: Mats },
}

/// Lays out one dynamic op's matrices: a feature-reading op takes the
/// next record slot; any other op takes `U`, `U^dagger` and one derivative
/// per trainable slot from the binding's list.
fn layout(exprs: &[ParamExpr], bound: &mut usize, recorded: &mut usize) -> Mats {
    if exprs.iter().any(|e| e.is_data()) {
        *recorded += 1;
        Mats::Recorded(*recorded - 1)
    } else {
        let at = *bound;
        *bound += 2 + exprs.iter().filter(|e| e.trainable_index().is_some()).count();
        Mats::Bound(at)
    }
}

/// An [`AdjointProgram`]'s gate matrices at one parameter vector: for
/// every dynamic op whose slots read no input feature, the matrix, its
/// dagger and each trainable slot's derivative, built once by
/// [`AdjointProgram::bind_into`] and read by every sample's forward and
/// backward sweep. A parameter vector that stays fixed for a minibatch
/// (or a whole call) is bound once for it. Recycle one binding per
/// program across parameter updates: a warmed-up rebind allocates
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct AdjointBinding {
    params: Vec<f64>,
    one: Vec<Mat2>,
    two: Vec<Mat4>,
}

/// A circuit compiled for streamed adjoint differentiation.
///
/// The instruction stream is run through the engine's gate fuser once at
/// compile time, so every static stretch of the circuit becomes a single
/// fused block with its dagger precomputed. The forward and backward
/// sweeps then execute through the same fused kernels as [`Program::run`],
/// and gradient terms are formed by the one-pass bilinear kernels
/// (`2 Re <lambda| dU |psi>`) instead of materializing `dU |psi>` — three
/// full state sweeps per parameter slot collapse into one.
///
/// Compile once per circuit, bind once per parameter vector
/// ([`AdjointProgram::bind_into`]), then call
/// [`AdjointProgram::run_adjoint_with`] (or the
/// [`AdjointProgram::gradient_into`] convenience) per sample; a warmed-up
/// call performs no heap allocation.
#[derive(Clone, Debug)]
pub struct AdjointProgram {
    /// The compiled forward program. The forward sweep is its execution
    /// (including the angles-known re-fusion pass), so the pre-backward
    /// state is bit-identical to `Program::run`'s.
    program: Program,
    /// The program's op stream with per-block daggers precomputed, walked
    /// in reverse by the backward sweep.
    ops: Vec<AdjOp>,
    /// Lengths of a binding's one- and two-qubit matrix lists.
    bound_len: (usize, usize),
    /// Lowest op index whose backward visit can contribute a gradient
    /// term (the first dynamic op with a slot this program differentiates
    /// — see [`AdjointProgram::feature_grads`]). Once the backward sweep
    /// passes it, `psi` and `lambda` are dead and the remaining rollback
    /// sweeps are skipped.
    stop: usize,
    /// Whether feature slots are differentiated. [`AdjointProgram::compile`]
    /// sets this; [`AdjointProgram::compile_params_only`] clears it, which
    /// skips the bilinear pass for every feature-sourced slot and lets
    /// `stop` rise past trailing feature-embedding stretches.
    feature_grads: bool,
}

impl AdjointProgram {
    /// Fuses a circuit into a streamed-adjoint program differentiating
    /// every trainable parameter and input feature.
    pub fn compile(circuit: &Circuit) -> Self {
        Self::compile_inner(circuit, true)
    }

    /// Fuses a circuit into a streamed-adjoint program differentiating
    /// trainable parameters only: `out.features` comes back all-zero and
    /// no backward work is spent on feature-sourced slots. Trainable
    /// gradients are bit-identical to [`AdjointProgram::compile`]'s. The
    /// classifier training paths use this — they never read feature
    /// gradients, and data-embedding gates are pure overhead there.
    pub fn compile_params_only(circuit: &Circuit) -> Self {
        Self::compile_inner(circuit, false)
    }

    fn compile_inner(circuit: &Circuit, feature_grads: bool) -> Self {
        let program = Program::compile(circuit);
        let (mut bound1, mut bound2, mut recorded1, mut recorded2) = (0, 0, 0, 0);
        let ops: Vec<AdjOp> = program
            .ops()
            .iter()
            .map(|op| match op.clone() {
                engine::Op::One { q, m } => AdjOp::One { q, md: m.dagger() },
                engine::Op::Two { qa, qb, m } => AdjOp::Two { qa, qb, md: m.dagger() },
                engine::Op::Dyn1 { q, gate, params } => {
                    let mats = layout(&params, &mut bound1, &mut recorded1);
                    AdjOp::Dyn1 { q, gate, params, mats }
                }
                engine::Op::Dyn2 { qa, qb, gate, params } => {
                    let mats = layout(&params, &mut bound2, &mut recorded2);
                    AdjOp::Dyn2 { qa, qb, gate, params, mats }
                }
            })
            .collect();
        let differentiated = |e: &ParamExpr| {
            if feature_grads {
                !matches!(e.source, ParamSource::Constant(_))
            } else {
                matches!(e.source, ParamSource::Trainable(_))
            }
        };
        let stop = ops
            .iter()
            .position(|op| match op {
                AdjOp::Dyn1 { params, .. } | AdjOp::Dyn2 { params, .. } => {
                    params.iter().any(differentiated)
                }
                AdjOp::One { .. } | AdjOp::Two { .. } => false,
            })
            .unwrap_or(ops.len());
        AdjointProgram { program, ops, bound_len: (bound1, bound2), stop, feature_grads }
    }

    /// Number of qubits in the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.program.num_qubits()
    }

    /// The compiled forward program, for callers that need plain forward
    /// executions of the same circuit (the parameter-shift gradient).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Builds this program's matrices at `params` into a caller-recycled
    /// binding (see [`AdjointBinding`]): the same `Gate::matrix1/2`,
    /// `dagger` and derivative calls at the same angles as a per-sample
    /// rebuild, so every sweep that reads the binding is bit-identical to
    /// one that rebuilds. With warmed capacities it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references a parameter beyond `params`.
    pub fn bind_into(&self, params: &[f64], binding: &mut AdjointBinding) {
        binding.params.clear();
        binding.params.extend_from_slice(params);
        binding.one.clear();
        binding.two.clear();
        let trainable = |(slot, e): (usize, &ParamExpr)| e.trainable_index().map(|_| slot);
        for op in &self.ops {
            match op {
                AdjOp::Dyn1 { gate, params: exprs, mats: Mats::Bound(at), .. } => {
                    debug_assert_eq!(binding.one.len(), *at, "binding layout");
                    let values = engine::resolve_values(exprs, params, &[]);
                    let values = &values[..exprs.len()];
                    let u = gate.matrix1(values);
                    binding.one.extend([u, u.dagger()]);
                    for slot in exprs.iter().enumerate().filter_map(trainable) {
                        binding.one.push(dmat1(*gate, values, slot));
                    }
                }
                AdjOp::Dyn2 { gate, params: exprs, mats: Mats::Bound(at), .. } => {
                    debug_assert_eq!(binding.two.len(), *at, "binding layout");
                    let values = engine::resolve_values(exprs, params, &[]);
                    let values = &values[..exprs.len()];
                    let u = gate.matrix2(values);
                    binding.two.extend([u, u.dagger()]);
                    for slot in exprs.iter().enumerate().filter_map(trainable) {
                        binding.two.push(dmat2(*gate, values, slot));
                    }
                }
                _ => {}
            }
        }
    }

    /// Allocating convenience wrapper over [`AdjointProgram::bind_into`].
    pub fn bind(&self, params: &[f64]) -> AdjointBinding {
        let mut binding = AdjointBinding::default();
        self.bind_into(params, &mut binding);
        binding
    }

    /// One streamed adjoint pass at `binding`'s parameters, with a caller
    /// hook between the forward sweep and the backward sweep.
    ///
    /// `prepare` receives the final forward state and a mutable borrow of
    /// the observable; classifier losses use it to compute per-class
    /// expectations / loss weights from `psi` and rebuild the effective
    /// observable in place (via [`ZObservable::reset_terms`]), so no
    /// separate forward execution is needed for the loss. Whatever
    /// `prepare` returns is returned to the caller.
    ///
    /// After `prepare`, `out.expectation` is set to `<psi|O|psi>` for the
    /// (possibly updated) observable and `out.params` / `out.features`
    /// receive the gradients, exactly as [`AdjointProgram::gradient_into`]
    /// would compute them for that observable.
    ///
    /// # Panics
    ///
    /// Panics if `binding` was not built by a program of this shape, if the
    /// circuit references out-of-range parameters/features, or if an
    /// observable qubit is out of range.
    pub fn run_adjoint_with<T>(
        &self,
        binding: &AdjointBinding,
        features: &[f64],
        observable: &mut ZObservable,
        prepare: impl FnOnce(&StateVector, &mut ZObservable) -> T,
        out: &mut Gradients,
    ) -> T {
        let mut record = workspace::acquire_record();
        let psi = self.forward(binding, features, &mut record);
        let result = prepare(&psi, observable);
        self.backward_sweep(psi, binding, &record, features, observable, out);
        workspace::release_record(record);
        result
    }

    /// Streamed-adjoint gradient of a fixed observable at `binding`'s
    /// parameters into a caller-provided [`Gradients`]; a warmed-up call
    /// performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`AdjointProgram::run_adjoint_with`].
    pub fn gradient_into(
        &self,
        binding: &AdjointBinding,
        features: &[f64],
        observable: &ZObservable,
        out: &mut Gradients,
    ) {
        let mut record = workspace::acquire_record();
        let psi = self.forward(binding, features, &mut record);
        self.backward_sweep(psi, binding, &record, features, observable, out);
        workspace::release_record(record);
    }

    /// Allocating convenience: binds `params` and takes one gradient.
    pub fn gradient(&self, params: &[f64], features: &[f64], observable: &ZObservable) -> Gradients {
        let mut out = Gradients {
            expectation: 0.0,
            params: Vec::new(),
            features: Vec::new(),
        };
        self.gradient_into(&self.bind(params), features, observable, &mut out);
        out
    }

    /// The forward sweep: the program's execution with every bound op's
    /// matrix taken from `binding`, and every feature-reading op's matrix
    /// built from its angles and recorded in `record` for the backward
    /// sweep.
    fn forward(
        &self,
        binding: &AdjointBinding,
        features: &[f64],
        record: &mut MatrixRecord,
    ) -> StateVector {
        assert_eq!(
            (binding.one.len(), binding.two.len()),
            self.bound_len,
            "binding was built by a different program"
        );
        let params = binding.params.as_slice();
        self.program.run_in_workspace_with(features, |i| match &self.ops[i] {
            AdjOp::Dyn1 { q, mats: Mats::Bound(at), .. } => Item::Static1(*q, binding.one[*at]),
            AdjOp::Dyn2 { qa, qb, mats: Mats::Bound(at), .. } => {
                Item::Static2(*qa, *qb, binding.two[*at])
            }
            AdjOp::Dyn1 { q, gate, params: exprs, mats: Mats::Recorded(at) } => {
                debug_assert_eq!(record.one.len(), *at, "record layout");
                let values = engine::resolve_values(exprs, params, features);
                let u = gate.matrix1(&values[..exprs.len()]);
                record.one.push(u);
                Item::Static1(*q, u)
            }
            AdjOp::Dyn2 { qa, qb, gate, params: exprs, mats: Mats::Recorded(at) } => {
                debug_assert_eq!(record.two.len(), *at, "record layout");
                let values = engine::resolve_values(exprs, params, features);
                let u = gate.matrix2(&values[..exprs.len()]);
                record.two.push(u);
                Item::Static2(*qa, *qb, u)
            }
            AdjOp::One { .. } | AdjOp::Two { .. } => unreachable!("static ops fuse as compiled"),
        })
    }

    /// The backward sweep from the forward state `psi`, which it consumes
    /// and returns to the workspace. Bound ops read their dagger and
    /// derivatives from `binding`; feature-reading ops take the dagger of
    /// the matrix the forward sweep recorded and build derivatives only
    /// for the slots this program differentiates.
    fn backward_sweep(
        &self,
        mut psi: StateVector,
        binding: &AdjointBinding,
        record: &MatrixRecord,
        features: &[f64],
        observable: &ZObservable,
        out: &mut Gradients,
    ) {
        let params = binding.params.as_slice();
        let parallel = self.num_qubits() >= engine::AMPLITUDE_PAR_MIN_QUBITS;
        out.expectation = observable.expectation(&psi);
        let mut lambda = workspace::acquire_copy(&psi);
        observable.apply_in_place(&mut lambda);
        out.params.clear();
        out.params.resize(params.len(), 0.0);
        out.features.clear();
        out.features.resize(features.len(), 0.0);

        for (idx, op) in self.ops.iter().enumerate().rev() {
            // Below `stop` no op can contribute a gradient term, so the
            // remaining rollback of `psi`/`lambda` is dead work. At `stop`
            // itself `lambda` is dead after the bilinear terms.
            if idx < self.stop {
                break;
            }
            let last = idx == self.stop;
            match op {
                AdjOp::One { q, md, .. } => {
                    engine::apply_fused1(&mut psi, *q, md, parallel);
                    engine::apply_fused1(&mut lambda, *q, md, parallel);
                }
                AdjOp::Two { qa, qb, md, .. } => {
                    engine::apply_fused2(&mut psi, *qa, *qb, md, parallel);
                    engine::apply_fused2(&mut lambda, *qa, *qb, md, parallel);
                }
                AdjOp::Dyn1 { q, gate, params: exprs, mats } => {
                    let (ud, mut bound) = match *mats {
                        Mats::Bound(at) => (binding.one[at + 1], binding.one[at + 2..].iter()),
                        Mats::Recorded(at) => (record.one[at].dagger(), [].iter()),
                    };
                    // psi_{k-1} = U_k^dagger psi_k.
                    engine::apply_fused1(&mut psi, *q, &ud, parallel);
                    for (slot, expr) in exprs.iter().enumerate() {
                        let mut sinks = [(SinkKind::Param(0), 0.0); 2];
                        let num_sinks =
                            classify_sinks(expr, features, self.feature_grads, &mut sinks);
                        if num_sinks == 0 {
                            continue;
                        }
                        // A bound op's sinks are its trainable slots, whose
                        // derivatives the binding holds in slot order.
                        let du = match bound.next() {
                            Some(du) => *du,
                            None => {
                                let values = engine::resolve_values(exprs, params, features);
                                dmat1(*gate, &values[..exprs.len()], slot)
                            }
                        };
                        // 2 Re <lambda_k | dU_k | psi_{k-1}> in one pass.
                        let g = 2.0 * lambda.bilinear_mat1(&psi, *q, &du);
                        accumulate_sinks(&sinks[..num_sinks], g, out);
                    }
                    // lambda_{k-1} = U_k^dagger lambda_k.
                    if !last {
                        engine::apply_fused1(&mut lambda, *q, &ud, parallel);
                    }
                }
                AdjOp::Dyn2 { qa, qb, gate, params: exprs, mats } => {
                    let (ud, mut bound) = match *mats {
                        Mats::Bound(at) => (binding.two[at + 1], binding.two[at + 2..].iter()),
                        Mats::Recorded(at) => (record.two[at].dagger(), [].iter()),
                    };
                    engine::apply_fused2(&mut psi, *qa, *qb, &ud, parallel);
                    for (slot, expr) in exprs.iter().enumerate() {
                        let mut sinks = [(SinkKind::Param(0), 0.0); 2];
                        let num_sinks =
                            classify_sinks(expr, features, self.feature_grads, &mut sinks);
                        if num_sinks == 0 {
                            continue;
                        }
                        let du = match bound.next() {
                            Some(du) => *du,
                            None => {
                                let values = engine::resolve_values(exprs, params, features);
                                dmat2(*gate, &values[..exprs.len()], slot)
                            }
                        };
                        let g = 2.0 * lambda.bilinear_mat2(&psi, *qa, *qb, &du);
                        accumulate_sinks(&sinks[..num_sinks], g, out);
                    }
                    if !last {
                        engine::apply_fused2(&mut lambda, *qa, *qb, &ud, parallel);
                    }
                }
            }
        }

        workspace::release_state(lambda);
        workspace::release_state(psi);
    }
}

/// The per-sample rebuild the bound sweeps replaced, kept as their test
/// oracle: the plain forward program, then a backward sweep that builds
/// every dynamic op's matrix, dagger and derivatives again from the
/// resolved angles. `binding_exactness` pins the production sweeps to it
/// under `to_bits`.
#[cfg(test)]
impl AdjointProgram {
    pub(crate) fn reference_run_adjoint_with<T>(
        &self,
        params: &[f64],
        features: &[f64],
        observable: &mut ZObservable,
        prepare: impl FnOnce(&StateVector, &mut ZObservable) -> T,
        out: &mut Gradients,
    ) -> T {
        let mut psi = self.program.run_in_workspace(params, features);
        let result = prepare(&psi, observable);
        let parallel = self.num_qubits() >= engine::AMPLITUDE_PAR_MIN_QUBITS;
        out.expectation = observable.expectation(&psi);
        let mut lambda = workspace::acquire_copy(&psi);
        observable.apply_in_place(&mut lambda);
        out.params.clear();
        out.params.resize(params.len(), 0.0);
        out.features.clear();
        out.features.resize(features.len(), 0.0);
        for (idx, op) in self.ops.iter().enumerate().rev() {
            if idx < self.stop {
                break;
            }
            let last = idx == self.stop;
            match op {
                AdjOp::One { q, md } => {
                    engine::apply_fused1(&mut psi, *q, md, parallel);
                    engine::apply_fused1(&mut lambda, *q, md, parallel);
                }
                AdjOp::Two { qa, qb, md } => {
                    engine::apply_fused2(&mut psi, *qa, *qb, md, parallel);
                    engine::apply_fused2(&mut lambda, *qa, *qb, md, parallel);
                }
                AdjOp::Dyn1 { q, gate, params: exprs, .. } => {
                    let values = engine::resolve_values(exprs, params, features);
                    let values = &values[..exprs.len()];
                    let ud = gate.matrix1(values).dagger();
                    engine::apply_fused1(&mut psi, *q, &ud, parallel);
                    for (slot, expr) in exprs.iter().enumerate() {
                        let mut sinks = [(SinkKind::Param(0), 0.0); 2];
                        let num_sinks =
                            classify_sinks(expr, features, self.feature_grads, &mut sinks);
                        if num_sinks == 0 {
                            continue;
                        }
                        let g = 2.0 * lambda.bilinear_mat1(&psi, *q, &dmat1(*gate, values, slot));
                        accumulate_sinks(&sinks[..num_sinks], g, out);
                    }
                    if !last {
                        engine::apply_fused1(&mut lambda, *q, &ud, parallel);
                    }
                }
                AdjOp::Dyn2 { qa, qb, gate, params: exprs, .. } => {
                    let values = engine::resolve_values(exprs, params, features);
                    let values = &values[..exprs.len()];
                    let ud = gate.matrix2(values).dagger();
                    engine::apply_fused2(&mut psi, *qa, *qb, &ud, parallel);
                    for (slot, expr) in exprs.iter().enumerate() {
                        let mut sinks = [(SinkKind::Param(0), 0.0); 2];
                        let num_sinks =
                            classify_sinks(expr, features, self.feature_grads, &mut sinks);
                        if num_sinks == 0 {
                            continue;
                        }
                        let g = 2.0
                            * lambda.bilinear_mat2(&psi, *qa, *qb, &dmat2(*gate, values, slot));
                        accumulate_sinks(&sinks[..num_sinks], g, out);
                    }
                    if !last {
                        engine::apply_fused2(&mut lambda, *qa, *qb, &ud, parallel);
                    }
                }
            }
        }
        workspace::release_state(lambda);
        workspace::release_state(psi);
        result
    }
}

/// Expands a parameter expression into its gradient sinks (chain-rule
/// scales included); returns how many of the two slots are used. With
/// `feature_grads` off, feature-sourced expressions yield no sinks so the
/// caller skips their bilinear pass entirely.
#[inline]
pub(crate) fn classify_sinks(
    expr: &ParamExpr,
    features: &[f64],
    feature_grads: bool,
    sinks: &mut [(SinkKind, f64); 2],
) -> usize {
    match expr.source {
        ParamSource::Trainable(i) => {
            sinks[0] = (SinkKind::Param(i), expr.scale);
            1
        }
        ParamSource::Feature(i) if feature_grads => {
            sinks[0] = (SinkKind::Feature(i), expr.scale);
            1
        }
        ParamSource::FeatureProduct(i, j) if feature_grads => {
            sinks[0] = (SinkKind::Feature(i), expr.scale * features[j]);
            sinks[1] = (SinkKind::Feature(j), expr.scale * features[i]);
            2
        }
        _ => 0,
    }
}

/// Adds the gradient term `g`, chain-rule scaled, to every sink.
#[inline]
pub(crate) fn accumulate_sinks(sinks: &[(SinkKind, f64)], g: f64, out: &mut Gradients) {
    for &(sink, chain) in sinks {
        match sink {
            SinkKind::Param(i) => out.params[i] += g * chain,
            SinkKind::Feature(i) => out.features[i] += g * chain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::adjoint_gradient;
    use elivagar_circuit::{Circuit, Gate, ParamExpr};

    /// The production streamed adjoint and the reference oracle, labelled;
    /// the analytic and finite-difference tests hold for both.
    fn both_gradients(
        c: &Circuit,
        params: &[f64],
        features: &[f64],
        obs: &ZObservable,
    ) -> [(&'static str, Gradients); 2] {
        [
            ("streamed", AdjointProgram::compile(c).gradient(params, features, obs)),
            ("oracle", adjoint_gradient(c, params, features, obs)),
        ]
    }

    fn finite_difference_param(
        circuit: &Circuit,
        params: &[f64],
        features: &[f64],
        obs: &ZObservable,
        i: usize,
    ) -> f64 {
        let h = 1e-6;
        let mut plus = params.to_vec();
        let mut minus = params.to_vec();
        plus[i] += h;
        minus[i] -= h;
        let ep = obs.expectation(&StateVector::run(circuit, &plus, features));
        let em = obs.expectation(&StateVector::run(circuit, &minus, features));
        (ep - em) / (2.0 * h)
    }

    #[test]
    fn single_rotation_gradient_is_analytic() {
        // <Z> of RX(theta)|0> = cos(theta); d/dtheta = -sin(theta).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        let theta = 0.9;
        for (name, g) in both_gradients(&c, &[theta], &[], &ZObservable::z(0)) {
            assert!((g.expectation - theta.cos()).abs() < 1e-10, "{name}");
            assert!((g.params[0] + theta.sin()).abs() < 1e-8, "{name}: {}", g.params[0]);
        }
    }

    #[test]
    fn matches_finite_differences_on_entangled_circuit() {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(2)]);
        c.push_gate(
            Gate::U3,
            &[2],
            &[
                ParamExpr::trainable(3),
                ParamExpr::trainable(4),
                ParamExpr::constant(0.2),
            ],
        );
        c.push_gate(Gate::Rzz, &[0, 2], &[ParamExpr::trainable(5)]);
        let params = [0.3, -0.8, 1.2, 0.5, -0.4, 0.7];
        let obs = ZObservable::new(vec![(0, 0.5), (2, -1.25)]);
        for (name, g) in both_gradients(&c, &params, &[], &obs) {
            for i in 0..params.len() {
                let fd = finite_difference_param(&c, &params, &[], &obs, i);
                assert!(
                    (g.params[i] - fd).abs() < 1e-6,
                    "{name} param {i}: adjoint {} vs fd {fd}",
                    g.params[i]
                );
            }
        }
    }

    #[test]
    fn shared_parameters_accumulate() {
        // Two RX gates sharing one parameter on the same qubit: equivalent
        // to RX(2 theta), so d<Z>/dtheta = -2 sin(2 theta).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        let theta = 0.4;
        for (name, g) in both_gradients(&c, &[theta], &[], &ZObservable::z(0)) {
            assert!((g.params[0] + 2.0 * (2.0 * theta).sin()).abs() < 1e-8, "{name}");
        }
    }

    #[test]
    fn feature_gradients_flow_through_embeddings() {
        // RX(x0)|0>: d<Z>/dx0 = -sin(x0).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        let x = [0.6];
        for (name, g) in both_gradients(&c, &[], &x, &ZObservable::z(0)) {
            assert!((g.features[0] + x[0].sin()).abs() < 1e-8, "{name}");
        }
    }

    #[test]
    fn feature_product_applies_chain_rule() {
        // RZZ-free check: RX(x0 * x1)|0>: d<Z>/dx0 = -x1 sin(x0 x1).
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature_product(0, 1)]);
        let x = [0.5f64, 0.8];
        let expected0 = -x[1] * (x[0] * x[1]).sin();
        let expected1 = -x[0] * (x[0] * x[1]).sin();
        for (name, g) in both_gradients(&c, &[], &x, &ZObservable::z(0)) {
            assert!((g.features[0] - expected0).abs() < 1e-8, "{name}");
            assert!((g.features[1] - expected1).abs() < 1e-8, "{name}");
        }
    }

    #[test]
    fn constant_params_produce_no_gradient() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::constant(0.4)]);
        for (name, g) in both_gradients(&c, &[], &[], &ZObservable::z(0)) {
            assert!(g.params.is_empty(), "{name}");
            assert!((g.expectation - 0.4f64.cos()).abs() < 1e-10, "{name}");
        }
    }

    #[test]
    fn zz_terms_measure_parity() {
        // Bell state: <Z0 Z1> = 1 while <Z0> = <Z1> = 0.
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        let psi = StateVector::run(&c, &[], &[]);
        let zz = ZObservable::new(vec![]).with_zz(0, 1, 1.0);
        assert!((zz.expectation(&psi) - 1.0).abs() < 1e-12);
        let z0 = ZObservable::z(0);
        assert!(z0.expectation(&psi).abs() < 1e-12);
        // Offset shifts the expectation by a constant.
        let shifted = ZObservable::new(vec![]).with_zz(0, 1, 1.0).with_offset(-2.5);
        assert!((shifted.expectation(&psi) + 1.5).abs() < 1e-12);
    }

    #[test]
    fn gradients_flow_through_zz_observables() {
        // <Z0 Z1> of RX(theta) (x) I applied to |00> is cos(theta).
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        let obs = ZObservable::new(vec![]).with_zz(0, 1, 1.0);
        let theta = 0.8;
        for (name, g) in both_gradients(&c, &[theta], &[], &obs) {
            assert!((g.expectation - theta.cos()).abs() < 1e-10, "{name}");
            assert!((g.params[0] + theta.sin()).abs() < 1e-8, "{name}");
        }
    }

    #[test]
    fn streamed_adjoint_matches_reference_on_entangled_circuit() {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(2)]);
        c.push_gate(Gate::Rz, &[2], &[ParamExpr::constant(0.3)]);
        c.push_gate(
            Gate::U3,
            &[2],
            &[
                ParamExpr::trainable(3),
                ParamExpr::feature(0),
                ParamExpr::constant(0.2),
            ],
        );
        c.push_gate(Gate::Rzz, &[0, 2], &[ParamExpr::feature_product(0, 1)]);
        let params = [0.3, -0.8, 1.2, 0.5];
        let features = [0.7, -0.2];
        let obs = ZObservable::new(vec![(0, 0.5), (2, -1.25)]);
        let reference = adjoint_gradient(&c, &params, &features, &obs);
        let program = AdjointProgram::compile(&c);
        let streamed = program.gradient(&params, &features, &obs);
        assert!((streamed.expectation - reference.expectation).abs() < 1e-12);
        for (i, (s, r)) in streamed.params.iter().zip(&reference.params).enumerate() {
            assert!((s - r).abs() < 1e-10, "param {i}: streamed {s} vs reference {r}");
        }
        for (i, (s, r)) in streamed.features.iter().zip(&reference.features).enumerate() {
            assert!((s - r).abs() < 1e-10, "feature {i}: streamed {s} vs reference {r}");
        }
    }

    #[test]
    fn params_only_compile_matches_full_trainable_gradients_bitwise() {
        // Same circuit shape as the entangled test: feature slots mixed
        // into trainable gates, a feature-product Rzz at the end. The
        // params-only program must reproduce the trainable gradients to
        // the bit while zeroing every feature gradient.
        let mut c = Circuit::new(3);
        c.push_gate(Gate::Rz, &[0], &[ParamExpr::feature(1)]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(2)]);
        c.push_gate(
            Gate::U3,
            &[2],
            &[
                ParamExpr::trainable(3),
                ParamExpr::feature(0),
                ParamExpr::constant(0.2),
            ],
        );
        c.push_gate(Gate::Rzz, &[0, 2], &[ParamExpr::feature_product(0, 1)]);
        let params = [0.3, -0.8, 1.2, 0.5];
        let features = [0.7, -0.2];
        let obs = ZObservable::new(vec![(0, 0.5), (2, -1.25)]);
        let full = AdjointProgram::compile(&c).gradient(&params, &features, &obs);
        let po = AdjointProgram::compile_params_only(&c).gradient(&params, &features, &obs);
        assert_eq!(po.expectation.to_bits(), full.expectation.to_bits());
        assert_eq!(po.params.len(), full.params.len());
        for (i, (p, f)) in po.params.iter().zip(&full.params).enumerate() {
            assert_eq!(p.to_bits(), f.to_bits(), "param {i} must be bit-identical");
        }
        assert_eq!(po.features, vec![0.0; features.len()], "feature grads must be zeroed");
    }

    #[test]
    fn run_adjoint_with_rebuilds_observable_from_forward_state() {
        // The prepare hook swaps in a new effective observable; the
        // gradient must be taken against the *updated* observable while
        // the hook still sees the forward state.
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        let params = [0.9];
        let program = AdjointProgram::compile(&c);
        let mut obs = ZObservable::z(0);
        let mut out = Gradients { expectation: 0.0, params: vec![], features: vec![] };
        let seen = program.run_adjoint_with(
            &program.bind(&params),
            &[],
            &mut obs,
            |psi, obs| {
                let e = ZObservable::z(0).expectation(psi);
                obs.reset_terms([(1usize, 2.0)]);
                e
            },
            &mut out,
        );
        let reference = adjoint_gradient(&c, &params, &[], &ZObservable::new(vec![(1, 2.0)]));
        assert!((seen - params[0].cos()).abs() < 1e-10);
        assert!((out.expectation - reference.expectation).abs() < 1e-12);
        assert!((out.params[0] - reference.params[0]).abs() < 1e-10);
    }

    #[test]
    fn observable_apply_matches_expectation() {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        let psi = StateVector::run(&c, &[], &[]);
        let obs = ZObservable::new(vec![(0, 1.0), (1, 2.0)]);
        let applied = obs.apply(&psi);
        let via_inner = psi.inner_product(&applied).re;
        assert!((via_inner - obs.expectation(&psi)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "observable qubit 3 out of range")]
    fn expectation_rejects_out_of_range_qubits() {
        let _ = ZObservable::z(3).expectation(&StateVector::zero(2));
    }

    #[test]
    #[should_panic(expected = "zz qubit out of range")]
    fn expectation_rejects_out_of_range_zz_qubits() {
        let _ = ZObservable::new(vec![]).with_zz(0, 2, 1.0).expectation(&StateVector::zero(2));
    }
}

/// The bound sweeps (matrices built once per parameter vector, the
/// feature-reading ops' matrices recorded by the forward sweep) against
/// the per-sample rebuild they replaced, under `to_bits`: the prepare
/// hook's loss, the expectation, and every parameter and feature
/// gradient, for both compile modes. `scripts/verify.sh` runs this module
/// at 1, 2 and 4 threads.
#[cfg(test)]
mod binding_exactness {
    use super::*;
    use proptest::prelude::*;

    const NUM_PARAMS: usize = 4;
    const NUM_FEATURES: usize = 3;

    /// A slot from every source. Indices wrap, so trainable parameters
    /// are often shared between slots and gates.
    fn expr(src: u8, idx: usize, angle: f64) -> ParamExpr {
        match src % 6 {
            0 => ParamExpr::constant(angle),
            1 => ParamExpr::trainable(idx % NUM_PARAMS),
            2 => ParamExpr::feature(idx % NUM_FEATURES),
            3 => ParamExpr::feature_product(idx % NUM_FEATURES, (idx / 3 + 1) % NUM_FEATURES),
            4 => ParamExpr::trainable(idx % NUM_PARAMS).scaled(-0.5),
            _ => ParamExpr::feature(idx % NUM_FEATURES).scaled(1.5),
        }
    }

    /// Random circuits of 1 to 10 qubits, every third op on qubit 0, with
    /// trainable-only, feature-only and mixed slots (U3 mixes sources
    /// within one gate), static gates between them, and amplitude
    /// embedding on some circuits.
    fn arb_case() -> impl Strategy<Value = (Circuit, Vec<f64>, Vec<f64>)> {
        let gates = prop::collection::vec(
            (0u8..12, 0usize..10, 0usize..10, (0u8..6, 0u8..6, 0u8..6), -3.0f64..3.0),
            1..24,
        );
        let params = prop::collection::vec(-3.0f64..3.0, NUM_PARAMS..NUM_PARAMS + 1);
        let features = prop::collection::vec(-2.0f64..2.0, NUM_FEATURES..NUM_FEATURES + 1);
        (1usize..=10, any::<bool>(), gates, params, features).prop_map(
            |(n, amplitude, ops, params, features)| {
                let mut c = Circuit::new(n);
                c.set_amplitude_embedding(amplitude && n >= 2);
                for (i, (kind, qa, qb, (s0, s1, s2), angle)) in ops.into_iter().enumerate() {
                    let qa = if i % 3 == 0 { 0 } else { qa % n };
                    let qb = qb % n;
                    let e0 = expr(s0, i, angle);
                    match kind {
                        0 => c.push_gate(Gate::H, &[qa], &[]),
                        1 => c.push_gate(Gate::Sx, &[qa], &[]),
                        2 => c.push_gate(Gate::Rx, &[qa], &[e0]),
                        3 => c.push_gate(Gate::Ry, &[qa], &[e0]),
                        4 => c.push_gate(Gate::Rz, &[qa], &[e0]),
                        5 => c.push_gate(
                            Gate::U3,
                            &[qa],
                            &[e0, expr(s1, i + 1, -angle), expr(s2, i + 2, 0.5 * angle)],
                        ),
                        6 if qa != qb => c.push_gate(Gate::Cx, &[qa, qb], &[]),
                        7 if qa != qb => c.push_gate(Gate::Crx, &[qa, qb], &[e0]),
                        8 if qa != qb => c.push_gate(Gate::Crz, &[qb, qa], &[e0]),
                        9 if qa != qb => c.push_gate(Gate::Rzz, &[qa, qb], &[e0]),
                        10 if qa != qb => c.push_gate(Gate::Cry, &[qa, qb], &[e0]),
                        _ => c.push_gate(Gate::Ry, &[qa], &[ParamExpr::trainable(i % NUM_PARAMS)]),
                    }
                }
                (c, params, features)
            },
        )
    }

    /// A classifier-style hook: a squared loss over every qubit's `<Z>`,
    /// with the observable rebuilt from its derivative.
    fn squared_loss(psi: &StateVector, obs: &mut ZObservable) -> f64 {
        let n = psi.num_qubits();
        let residual = |q: usize| psi.expectation_z(q) - 0.25 * q as f64;
        obs.reset_terms((0..n).map(|q| (q, 2.0 * residual(q))));
        (0..n).map(|q| residual(q) * residual(q)).sum()
    }

    fn empty() -> Gradients {
        Gradients { expectation: 0.0, params: Vec::new(), features: Vec::new() }
    }

    fn assert_same_bits(bound: &Gradients, reference: &Gradients, what: &str) {
        assert_eq!(bound.expectation.to_bits(), reference.expectation.to_bits(), "{what} <O>");
        assert_eq!(bound.params.len(), reference.params.len(), "{what} params");
        assert_eq!(bound.features.len(), reference.features.len(), "{what} features");
        for (i, (b, r)) in bound.params.iter().zip(&reference.params).enumerate() {
            assert_eq!(b.to_bits(), r.to_bits(), "{what} dparams[{i}]: {b} vs {r}");
        }
        for (i, (b, r)) in bound.features.iter().zip(&reference.features).enumerate() {
            assert_eq!(b.to_bits(), r.to_bits(), "{what} dfeatures[{i}]: {b} vs {r}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bound_sweeps_match_per_sample_rebuild((c, params, features) in arb_case()) {
            let n = c.num_qubits();
            let mut terms: Vec<(usize, f64)> =
                (0..n).map(|q| (q, if q % 2 == 0 { 0.75 } else { -0.5 })).collect();
            terms.truncate(4);
            let mut observable = ZObservable::new(terms);
            if n >= 2 {
                observable = observable.with_zz(0, n - 1, 0.3);
            }
            let stale: Vec<f64> = params.iter().map(|p| p + 1.0).collect();
            for (mode, program) in [
                ("compile", AdjointProgram::compile(&c)),
                ("params-only", AdjointProgram::compile_params_only(&c)),
            ] {
                // A recycled binding, first built at other parameters.
                let mut binding = program.bind(&stale);
                program.bind_into(&params, &mut binding);

                let (mut bound, mut reference) = (empty(), empty());
                program.gradient_into(&binding, &features, &observable, &mut bound);
                let mut fixed = observable.clone();
                program.reference_run_adjoint_with(
                    &params, &features, &mut fixed, |_, _| (), &mut reference,
                );
                assert_same_bits(&bound, &reference, mode);

                let (mut obs_b, mut obs_r) = (observable.clone(), observable.clone());
                let loss_b = program.run_adjoint_with(
                    &binding, &features, &mut obs_b, squared_loss, &mut bound,
                );
                let loss_r = program.reference_run_adjoint_with(
                    &params, &features, &mut obs_r, squared_loss, &mut reference,
                );
                prop_assert_eq!(loss_b.to_bits(), loss_r.to_bits(), "{} loss", mode);
                assert_same_bits(&bound, &reference, mode);
            }
        }
    }
}
