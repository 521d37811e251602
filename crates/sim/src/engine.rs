//! Batched gate-fusion execution engine.
//!
//! Every hot path in the Elivagar reproduction — RepCap's randomized
//! measurements, CNR's shot sampling, and minibatch training — executes the
//! *same circuit structure* over many `(params, features)` pairs. This
//! module exploits that by splitting execution into three phases:
//!
//! 1. **Compile** ([`Program::compile`]): the circuit's instruction stream
//!    is classified once. Gates whose angles are compile-time constants are
//!    resolved to concrete unitaries and *fused* — runs of adjacent
//!    single-qubit unitaries fold into one [`Mat2`]; single-qubit unitaries
//!    are absorbed into a neighboring two-qubit [`Mat4`] where legal;
//!    adjacent two-qubit unitaries on the same qubit pair merge. Parametric
//!    gates keep their symbolic [`ParamExpr`] slots so no per-gate
//!    source-matching happens at run time.
//! 2. **Bind** ([`Program::bind`]): trainable parameters are substituted,
//!    turning trainable-only gates into constants, and the program re-fuses.
//!    RepCap runs one `bind` per parameter initialization and then executes
//!    the bound program over every sample — exactly the shared-θ /
//!    varying-x structure of Eq. 4.
//! 3. **Execute** ([`Program::run_with`], [`BoundProgram::run_batch_with`],
//!    [`par_items_with_arena`]): the fused program runs over a whole batch
//!    of feature vectors, parallelized across samples through the
//!    work-stealing pool (index-addressed, so batched results are
//!    bit-for-bit identical to sequential execution), and across amplitude
//!    blocks for large single states.
//!
//! Fused execution is exact: amplitudes agree with gate-by-gate
//! [`StateVector::run`] to well below 1e-10 (see the crate tests and
//! `tests/properties.rs`).

use crate::parallel::{par_apply_blocks, par_map_index, par_map_index_into, SendPtr};
use crate::statevector::StateVector;
use crate::workspace;
use elivagar_circuit::math::{C64, Mat2, Mat4};
use elivagar_circuit::{Circuit, Gate, ParamExpr};

/// Minimum qubit count at which single-state execution splits amplitude
/// blocks across threads. Below this, per-op thread scoping costs more
/// than the arithmetic it parallelizes.
pub const AMPLITUDE_PAR_MIN_QUBITS: usize = 16;

/// Qubits per cache tile for blocked sweeps: `2^TILE_QUBITS` amplitudes
/// (64 KiB of interleaved `f64` pairs) stay resident in L1/L2 while every
/// tile-local fused op in a run is applied to them, turning k memory
/// passes over the full state into one.
pub const TILE_QUBITS: usize = 12;

/// Tallies a batch dispatch and starts its wall-time stopwatch; callers
/// file the elapsed time into `ENGINE_BATCH_NS` when the batch drains.
fn record_batch(samples: usize) -> elivagar_obs::metrics::Stopwatch {
    elivagar_obs::metrics::ENGINE_BATCHES.add(1);
    elivagar_obs::metrics::ENGINE_SAMPLES.add(samples as u64);
    elivagar_obs::metrics::Stopwatch::start()
}

/// Tolerance used to drop fused unitaries that collapsed to the identity.
const IDENTITY_TOL: f64 = 1e-14;

/// One executable operation of a compiled program.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// A fused static single-qubit unitary.
    One { q: usize, m: Mat2 },
    /// A fused static two-qubit unitary; `qa` is the low subspace bit.
    Two { qa: usize, qb: usize, m: Mat4 },
    /// A parametric single-qubit gate with unresolved angle slots.
    Dyn1 {
        q: usize,
        gate: Gate,
        params: Vec<ParamExpr>,
    },
    /// A parametric two-qubit gate with unresolved angle slots.
    Dyn2 {
        qa: usize,
        qb: usize,
        gate: Gate,
        params: Vec<ParamExpr>,
    },
}

/// Embeds a single-qubit unitary acting on the *low* subspace bit into the
/// two-qubit basis (`index = bit_qa + 2*bit_qb`; `Mat4::kron(a, b)` places
/// `a` on the high bit).
fn expand_low(u: &Mat2) -> Mat4 {
    Mat4::kron(&Mat2::identity(), u)
}

/// Embeds a single-qubit unitary acting on the *high* subspace bit.
fn expand_high(u: &Mat2) -> Mat4 {
    Mat4::kron(u, &Mat2::identity())
}

/// Reorders a two-qubit unitary expressed on operands `(b, a)` into the
/// `(a, b)` operand convention by conjugating with SWAP (indices 1 and 2
/// exchange).
pub(crate) fn swap_operands(m: &Mat4) -> Mat4 {
    const PERM: [usize; 4] = [0, 2, 1, 3];
    let mut out = [[C64::ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = m.0[PERM[i]][PERM[j]];
        }
    }
    Mat4(out)
}

/// Fusion input: one instruction either resolved to a static unitary or
/// kept symbolic.
pub(crate) enum Item {
    Static1(usize, Mat2),
    Static2(usize, usize, Mat4),
    Dyn1(usize, Gate, Vec<ParamExpr>),
    Dyn2(usize, usize, Gate, Vec<ParamExpr>),
}

/// Incremental gate-fusion state with recyclable buffers.
///
/// Invariants maintained:
/// - `pending[q]` holds the product of static single-qubit unitaries seen
///   on `q` since the last op emitted on `q` (applied earliest-first, so
///   the stored matrix is `latest * ... * earliest`).
/// - A static two-qubit unitary absorbs both operands' pending matrices
///   (which act *before* it) and merges with an immediately preceding
///   static two-qubit op on the same pair.
/// - Dynamic gates are barriers: pending matrices on their operands flush
///   first, preserving program order exactly.
///
/// The struct form (rather than a free function) lets the per-sample
/// re-fusion of dynamic programs reuse one thread-local instance whose
/// `ops`/`pending` buffers keep their capacity across samples — the
/// steady-state fusion pass allocates nothing.
#[derive(Default)]
pub(crate) struct Fuser {
    pub(crate) ops: Vec<Op>,
    pending: Vec<Option<Mat2>>,
}

impl Fuser {
    /// Resets for a new instruction stream, keeping buffer capacity.
    pub(crate) fn begin(&mut self, num_qubits: usize) {
        self.ops.clear();
        self.pending.clear();
        self.pending.resize(num_qubits, None);
    }

    fn flush(&mut self, q: usize) {
        if let Some(m) = self.pending[q].take() {
            if !m.approx_eq(&Mat2::identity(), IDENTITY_TOL) {
                self.ops.push(Op::One { q, m });
            }
        }
    }

    pub(crate) fn push(&mut self, item: Item) {
        match item {
            Item::Static1(q, m) => {
                self.pending[q] = Some(match self.pending[q].take() {
                    Some(prev) => m.matmul(&prev),
                    None => m,
                });
            }
            Item::Static2(qa, qb, m) => {
                let mut fused = m;
                if let Some(u) = self.pending[qa].take() {
                    fused = fused.matmul(&expand_low(&u));
                }
                if let Some(u) = self.pending[qb].take() {
                    fused = fused.matmul(&expand_high(&u));
                }
                // Merge with a directly preceding static op on this pair.
                if let Some(Op::Two {
                    qa: pa,
                    qb: pb,
                    m: pm,
                }) = self.ops.last()
                {
                    if (*pa, *pb) == (qa, qb) {
                        fused = fused.matmul(pm);
                        self.ops.pop();
                    } else if (*pa, *pb) == (qb, qa) {
                        fused = fused.matmul(&swap_operands(pm));
                        self.ops.pop();
                    }
                }
                if !fused.approx_eq(&Mat4::identity(), IDENTITY_TOL) {
                    self.ops.push(Op::Two { qa, qb, m: fused });
                }
            }
            Item::Dyn1(q, gate, params) => {
                self.flush(q);
                self.ops.push(Op::Dyn1 { q, gate, params });
            }
            Item::Dyn2(qa, qb, gate, params) => {
                self.flush(qa);
                self.flush(qb);
                self.ops.push(Op::Dyn2 {
                    qa,
                    qb,
                    gate,
                    params,
                });
            }
        }
    }

    /// Flushes all pending single-qubit products; the op stream is
    /// complete afterwards.
    pub(crate) fn finish(&mut self) {
        for q in 0..self.pending.len() {
            self.flush(q);
        }
    }
}

/// Folds a classified instruction stream into fused ops (the one-shot
/// wrapper over [`Fuser`], used on the cold compile/bind paths).
fn fuse(num_qubits: usize, items: Vec<Item>) -> Vec<Op> {
    let sw = elivagar_obs::metrics::Stopwatch::start();
    let mut fuser = Fuser::default();
    fuser.begin(num_qubits);
    for item in items {
        fuser.push(item);
    }
    fuser.finish();
    sw.record(&elivagar_obs::metrics::FUSION_NS);
    fuser.ops
}

/// Classifies a circuit's instruction stream into fusion items:
/// constant-angle gates resolve to static unitaries, everything else
/// keeps its symbolic slots.
fn classify_items(circuit: &Circuit) -> Vec<Item> {
    circuit
        .instructions()
        .iter()
        .map(|ins| {
            let constants: Option<Vec<f64>> =
                ins.params.iter().map(|p| p.as_constant()).collect();
            match constants {
                Some(values) if ins.gate.num_qubits() == 1 => {
                    Item::Static1(ins.qubits[0], ins.gate.matrix1(&values))
                }
                Some(values) => {
                    Item::Static2(ins.qubits[0], ins.qubits[1], ins.gate.matrix2(&values))
                }
                None if ins.gate.num_qubits() == 1 => {
                    Item::Dyn1(ins.qubits[0], ins.gate, ins.params.clone())
                }
                None => Item::Dyn2(
                    ins.qubits[0],
                    ins.qubits[1],
                    ins.gate,
                    ins.params.clone(),
                ),
            }
        })
        .collect()
}

thread_local! {
    /// Recycled fusion scratch for the per-sample dynamic path in
    /// [`Program::apply`]. Thread-local, so batch workers never contend.
    static FUSE_SCRATCH: std::cell::RefCell<Fuser> = std::cell::RefCell::new(Fuser::default());
}

/// A circuit compiled into fused kernels, with parametric slots still
/// symbolic. Built once per circuit; see the module docs for the pipeline.
#[derive(Clone, Debug)]
pub struct Program {
    num_qubits: usize,
    amplitude_embedding: bool,
    ops: Vec<Op>,
}

impl Program {
    /// Compiles a circuit: constant-angle gates become static unitaries and
    /// fuse; trainable/data-dependent gates stay symbolic.
    pub fn compile(circuit: &Circuit) -> Program {
        let items = classify_items(circuit);
        Program {
            num_qubits: circuit.num_qubits(),
            amplitude_embedding: circuit.amplitude_embedding(),
            ops: fuse(circuit.num_qubits(), items),
        }
    }

    /// Substitutes trainable parameters and re-fuses: gates that depended
    /// only on `params` (or constants) become static kernels; gates reading
    /// input features stay symbolic. The returned program is what batch
    /// consumers execute once per sample.
    pub fn bind(&self, params: &[f64]) -> BoundProgram {
        let items = self
            .ops
            .iter()
            .map(|op| match op {
                Op::One { q, m } => Item::Static1(*q, *m),
                Op::Two { qa, qb, m } => Item::Static2(*qa, *qb, *m),
                Op::Dyn1 { q, gate, params: p } => {
                    if p.iter().any(|e| e.is_data()) {
                        Item::Dyn1(*q, *gate, p.clone())
                    } else {
                        let values: Vec<f64> =
                            p.iter().map(|e| e.resolve(params, &[])).collect();
                        Item::Static1(*q, gate.matrix1(&values))
                    }
                }
                Op::Dyn2 {
                    qa,
                    qb,
                    gate,
                    params: p,
                } => {
                    if p.iter().any(|e| e.is_data()) {
                        Item::Dyn2(*qa, *qb, *gate, p.clone())
                    } else {
                        let values: Vec<f64> =
                            p.iter().map(|e| e.resolve(params, &[])).collect();
                        Item::Static2(*qa, *qb, gate.matrix2(&values))
                    }
                }
            })
            .collect();
        BoundProgram {
            program: Program {
                num_qubits: self.num_qubits,
                amplitude_embedding: self.amplitude_embedding,
                ops: fuse(self.num_qubits, items),
            },
            params: params.to_vec(),
        }
    }

    /// Number of fused operations (for introspection and tests).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of qubits the program acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Executes the program for one `(params, features)` pair.
    pub fn run(&self, params: &[f64], features: &[f64]) -> StateVector {
        let mut psi = self.initial_state(features);
        self.apply(&mut psi, |i| resolved_item(&self.ops[i], params, features));
        psi
    }

    /// Executes the program and hands the final state to `post`, recycling
    /// the state buffer through the thread's [`crate::workspace`] pool
    /// afterwards. This is the zero-allocation steady-state path: after
    /// warmup, a `run_with` call performs no heap allocation (beyond what
    /// `post` itself does). Results are bit-identical to [`Program::run`].
    pub fn run_with<T>(
        &self,
        params: &[f64],
        features: &[f64],
        post: impl FnOnce(&StateVector) -> T,
    ) -> T {
        let psi = self.run_in_workspace(params, features);
        let out = post(&psi);
        workspace::release_state(psi);
        out
    }

    /// Executes the program into a state drawn from the thread's
    /// [`crate::workspace`] pool; the caller releases it. The streamed
    /// adjoint's forward sweep runs through here, so its state is
    /// bit-identical to [`Program::run`]'s.
    pub(crate) fn run_in_workspace(&self, params: &[f64], features: &[f64]) -> StateVector {
        self.run_in_workspace_with(features, |i| resolved_item(&self.ops[i], params, features))
    }

    /// [`Program::run_in_workspace`] with each dynamic op's fusion item
    /// supplied by `dynamic(op_index)` instead of built from resolved
    /// angles. The streamed adjoint's forward sweep runs through here with
    /// its bound matrices; given the same matrices the state is
    /// bit-identical to [`Program::run`]'s.
    pub(crate) fn run_in_workspace_with(
        &self,
        features: &[f64],
        dynamic: impl FnMut(usize) -> Item,
    ) -> StateVector {
        let mut psi = if self.amplitude_embedding {
            workspace::acquire_embedded(self.num_qubits, features)
        } else {
            workspace::acquire_zero(self.num_qubits)
        };
        self.apply(&mut psi, dynamic);
        psi
    }

    /// The fused op stream.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn initial_state(&self, features: &[f64]) -> StateVector {
        if self.amplitude_embedding {
            StateVector::amplitude_embedded(self.num_qubits, features)
        } else {
            StateVector::zero(self.num_qubits)
        }
    }

    /// Applies all fused ops to `psi` in place, taking each dynamic op's
    /// fusion item from `dynamic(op_index)`.
    ///
    /// Streams still holding dynamic gates get a final fusion pass now
    /// that every angle is known, so e.g. feature-embedding rotations are
    /// absorbed into the entangling kernels instead of executing as
    /// standalone barrier ops. The pass costs one 4x4 matrix product per
    /// absorbed gate, plus building each dynamic gate's matrix unless the
    /// caller supplies it bound; fully static streams skip it.
    fn apply(&self, psi: &mut StateVector, mut dynamic: impl FnMut(usize) -> Item) {
        let (ops, num_qubits) = (&self.ops, self.num_qubits);
        let parallel_amps = num_qubits >= AMPLITUDE_PAR_MIN_QUBITS;
        let has_dynamic = ops
            .iter()
            .any(|op| matches!(op, Op::Dyn1 { .. } | Op::Dyn2 { .. }));
        if !has_dynamic {
            execute_static_ops(psi, ops, parallel_amps);
            return;
        }
        // Re-fuse with every angle known, in the thread's recycled scratch:
        // the op sequence is identical to a fresh `fuse` call (same logic,
        // same order), but the steady state allocates nothing.
        FUSE_SCRATCH.with(|cell| {
            let mut fuser = cell.borrow_mut();
            let sw = elivagar_obs::metrics::Stopwatch::start();
            fuser.begin(num_qubits);
            for (i, op) in ops.iter().enumerate() {
                let item = match op {
                    Op::One { q, m } => Item::Static1(*q, *m),
                    Op::Two { qa, qb, m } => Item::Static2(*qa, *qb, *m),
                    Op::Dyn1 { .. } | Op::Dyn2 { .. } => dynamic(i),
                };
                fuser.push(item);
            }
            fuser.finish();
            sw.record(&elivagar_obs::metrics::FUSION_NS);
            execute_static_ops(psi, &fuser.ops, parallel_amps);
        });
    }
}

/// A dynamic op as a static fusion item, its gate matrix built from the
/// angles resolved against `params` and `features`.
fn resolved_item(op: &Op, params: &[f64], features: &[f64]) -> Item {
    match op {
        Op::Dyn1 { q, gate, params: p } => {
            let values = resolve_values(p, params, features);
            Item::Static1(*q, gate.matrix1(&values[..p.len()]))
        }
        Op::Dyn2 {
            qa,
            qb,
            gate,
            params: p,
        } => {
            let values = resolve_values(p, params, features);
            Item::Static2(*qa, *qb, gate.matrix2(&values[..p.len()]))
        }
        Op::One { .. } | Op::Two { .. } => unreachable!("static ops fuse as compiled"),
    }
}

/// The highest qubit a fully static op touches.
fn static_max_qubit(op: &Op) -> usize {
    match op {
        Op::One { q, .. } => *q,
        Op::Two { qa, qb, .. } => *qa.max(qb),
        Op::Dyn1 { .. } | Op::Dyn2 { .. } => {
            unreachable!("dynamic ops are resolved before application")
        }
    }
}

/// Executes a fully static op stream against `psi` with cache-blocked
/// sweeps: maximal runs of ops that touch only qubits below
/// [`TILE_QUBITS`] are applied tile by tile — every run op visits a
/// `2^TILE_QUBITS`-amplitude tile while it is cache-resident before the
/// sweep advances — and ops reaching higher qubits execute as full-state
/// sweeps between runs. Tiles are disjoint and each butterfly is
/// tile-local, so results are bit-identical to per-op full sweeps at any
/// thread count.
///
/// States no larger than one tile take the plain per-op path.
pub(crate) fn execute_static_ops(psi: &mut StateVector, ops: &[Op], parallel: bool) {
    elivagar_obs::metrics::ENGINE_FUSED_OPS.add(ops.len() as u64);
    let num_qubits = psi.num_qubits();
    if num_qubits <= TILE_QUBITS {
        for op in ops {
            apply_static_op(psi, op, parallel);
        }
        return;
    }
    let tile = 1usize << TILE_QUBITS;
    let mut tiles = 0u64;
    let mut i = 0;
    while i < ops.len() {
        let mut j = i;
        while j < ops.len() && static_max_qubit(&ops[j]) < TILE_QUBITS {
            j += 1;
        }
        if j > i {
            let run = &ops[i..j];
            tiles += (psi.amps_mut().len() / tile) as u64;
            if parallel {
                par_apply_blocks(psi.amps_mut(), tile, move |amps| {
                    for op in run {
                        apply_static_op_slice(amps, op);
                    }
                });
            } else {
                for amps in psi.amps_mut().chunks_exact_mut(tile) {
                    for op in run {
                        apply_static_op_slice(amps, op);
                    }
                }
            }
            i = j;
        } else {
            apply_static_op(psi, &ops[i], parallel);
            i += 1;
        }
    }
    elivagar_obs::metrics::ENGINE_TILES.add(tiles);
}

/// Applies one static op to an amplitude slice (a tile), routing exact
/// diagonals to the dedicated diagonal kernels.
fn apply_static_op_slice(amps: &mut [C64], op: &Op) {
    match op {
        Op::One { q, m } => match diag_of_mat2(m) {
            Some(d) => apply_diag1_slice(amps, *q, &d),
            None => apply_mat1_slice(amps, *q, m),
        },
        Op::Two { qa, qb, m } => match diag_of_mat4(m) {
            Some(d) => apply_diag2_slice(amps, *qa, *qb, &d),
            None => apply_mat2_slice(amps, *qa, *qb, m),
        },
        Op::Dyn1 { .. } | Op::Dyn2 { .. } => {
            unreachable!("dynamic ops are resolved before application")
        }
    }
}

/// A [`Program`] with trainable parameters bound and re-fused; executes
/// over feature vectors only.
#[derive(Clone, Debug)]
pub struct BoundProgram {
    program: Program,
    params: Vec<f64>,
}

impl BoundProgram {
    /// Executes the bound program for one feature vector.
    pub fn run(&self, features: &[f64]) -> StateVector {
        self.program.run(&self.params, features)
    }

    /// Executes the bound program and hands the final state to `post`,
    /// recycling the state buffer afterwards (see [`Program::run_with`]).
    pub fn run_with<T>(&self, features: &[f64], post: impl FnOnce(&StateVector) -> T) -> T {
        self.program.run_with(&self.params, features, post)
    }

    /// Executes over a batch and post-processes each final state in the
    /// worker that produced it, avoiding materializing every state vector.
    /// `post` receives the sample index and a borrow of its final state
    /// (the buffer returns to the worker's workspace pool afterwards);
    /// results come back in batch order.
    pub fn run_batch_with<T, F>(&self, features_batch: &[Vec<f64>], post: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &StateVector) -> T + Sync,
    {
        let sw = record_batch(features_batch.len());
        let out = par_map_index(features_batch.len(), |i| {
            self.run_with(&features_batch[i], |psi| post(i, psi))
        });
        sw.record(&elivagar_obs::metrics::ENGINE_BATCH_NS);
        out
    }

    /// Number of fused operations after binding.
    pub fn num_ops(&self) -> usize {
        self.program.num_ops()
    }

    /// Number of qubits the program acts on.
    pub fn num_qubits(&self) -> usize {
        self.program.num_qubits()
    }
}

/// Work-stealing dispatch of `num_items` independent work items, each
/// handed its disjoint `stride`-wide slice of `arena`; results land in
/// `out` in item order. Callers drive their own execution per item (the
/// cohort gradient dispatch runs one `(member, sample)` pair per item)
/// and batch through the pool with the engine's obs accounting. With
/// warmed capacities the dispatch performs no heap allocation beyond what
/// `f` itself does; item results are index-addressed, so outputs are
/// bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `arena` is shorter than `num_items * stride`.
pub fn par_items_with_arena<T, F>(
    num_items: usize,
    arena: &mut [f64],
    stride: usize,
    out: &mut Vec<T>,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [f64]) -> T + Sync,
{
    assert!(
        arena.len() >= num_items * stride,
        "arena holds {} f64s, need {} ({} items x stride {})",
        arena.len(),
        num_items * stride,
        num_items,
        stride
    );
    let sw = record_batch(num_items);
    let base = SendPtr(arena.as_mut_ptr());
    par_map_index_into(num_items, out, |i| {
        // SAFETY: item slices `i * stride .. (i+1) * stride` are
        // disjoint, in-bounds (asserted above), each index is claimed
        // exactly once by the runtime, and `arena` stays mutably
        // borrowed for the whole region.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(i * stride), stride) };
        f(i, slice)
    });
    sw.record(&elivagar_obs::metrics::ENGINE_BATCH_NS);
}

/// Resolves up to three angle slots into a stack buffer (no gate takes
/// more than three parameters, so dynamic ops never heap-allocate).
#[inline]
pub(crate) fn resolve_values(exprs: &[ParamExpr], params: &[f64], features: &[f64]) -> [f64; 3] {
    debug_assert!(exprs.len() <= 3, "gates take at most 3 parameters");
    let mut values = [0.0; 3];
    for (slot, e) in values.iter_mut().zip(exprs) {
        *slot = e.resolve(params, features);
    }
    values
}

/// Applies one fully static op to the state. Dynamic ops are resolved
/// before this point (see [`Program::apply`]).
fn apply_static_op(psi: &mut StateVector, op: &Op, parallel_amps: bool) {
    match op {
        Op::One { q, m } => apply_mat1_state(psi, *q, m, parallel_amps),
        Op::Two { qa, qb, m } => apply_mat2_state(psi, *qa, *qb, m, parallel_amps),
        Op::Dyn1 { .. } | Op::Dyn2 { .. } => {
            unreachable!("dynamic ops are resolved before application")
        }
    }
}

/// The diagonal of a single-qubit unitary whose off-diagonal entries are
/// exactly zero (Rz/P/Z chains and their fusions), or `None`.
#[inline]
pub(crate) fn diag_of_mat2(m: &Mat2) -> Option<[C64; 2]> {
    let zero = |c: C64| c.re == 0.0 && c.im == 0.0;
    (zero(m.0[0][1]) && zero(m.0[1][0])).then(|| [m.0[0][0], m.0[1][1]])
}

/// The diagonal of a two-qubit unitary whose off-diagonal entries are
/// exactly zero (CZ/CP/CRZ/RZZ chains and their fusions), or `None`.
#[inline]
pub(crate) fn diag_of_mat4(m: &Mat4) -> Option<[C64; 4]> {
    for (r, row) in m.0.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if r != c && (cell.re != 0.0 || cell.im != 0.0) {
                return None;
            }
        }
    }
    Some([m.0[0][0], m.0[1][1], m.0[2][2], m.0[3][3]])
}

/// Applies a fused single-qubit unitary to the whole state, routing exact
/// diagonals to the dedicated diagonal kernels. The streamed-adjoint
/// forward/backward sweeps run through this.
pub(crate) fn apply_fused1(psi: &mut StateVector, q: usize, m: &Mat2, parallel: bool) {
    match diag_of_mat2(m) {
        Some(d) => apply_diag1_state(psi, q, &d, parallel),
        None => apply_mat1_state(psi, q, m, parallel),
    }
}

/// Applies a fused two-qubit unitary to the whole state, routing exact
/// diagonals to the dedicated diagonal kernels.
pub(crate) fn apply_fused2(psi: &mut StateVector, qa: usize, qb: usize, m: &Mat4, parallel: bool) {
    match diag_of_mat4(m) {
        Some(d) => apply_diag2_state(psi, qa, qb, &d, parallel),
        None => apply_mat2_state(psi, qa, qb, m, parallel),
    }
}

// ---- fused kernel application ----------------------------------------------
//
// The engine owns its amplitude kernels instead of reusing
// `StateVector::apply_mat1/apply_mat2`: fused programs are dominated by
// dense `Mat4` applications, so the two-qubit kernel enumerates exactly the
// 2^(n-2) butterfly bases via bit insertion (no scan-and-filter over all
// 2^n indices) and unrolls the 4x4 multiply.

/// AVX2+FMA butterfly kernels for ops off qubit 0, used on x86-64 hosts
/// that report the feature set at runtime.
///
/// Amplitudes are processed two at a time per 256-bit lane: `C64` is
/// `#[repr(C)]`, so a `[C64]` run is an interleaved `[re, im, re, im]`
/// `f64` stream. A complex scale by a broadcast matrix entry `(mr, mi)`
/// is `fmaddsub(mr, a, mi * swap(a))` — even lanes subtract (real part),
/// odd lanes add (imaginary part). FMA contracts intermediate roundings,
/// so SIMD results may differ from scalar at the last ulp; every
/// equivalence test budgets far above that (1e-10), and batch/sequential
/// determinism is unaffected because both run the same kernel.
///
/// These kernels need every quadrant run to hold an even number of
/// amplitudes, so the op must stay off qubit 0. Ops on qubit 0 take the
/// no-FMA kernels of `crate::exact_simd` (AVX2 only), which equal the
/// scalar loops under `to_bits`; hosts without AVX2 run the scalar loops.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{swap_operands, C64};
    use elivagar_circuit::math::{Mat2, Mat4};
    use std::arch::x86_64::*;

    /// Whether the running CPU supports the AVX2+FMA kernels.
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// Accumulates `(re + i*im) * a` onto `acc`, where `a` holds two
    /// interleaved complex amplitudes and `sw` is `a` with real and
    /// imaginary lanes swapped.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn cmul_acc(acc: __m256d, re: __m256d, im: __m256d, a: __m256d, sw: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_fmaddsub_pd(re, a, _mm256_mul_pd(im, sw)))
    }

    /// Single-qubit butterfly over interleaved amplitude runs. Requires
    /// `q >= 1` (so each run holds an even number of amplitudes) and
    /// `amps.len()` a multiple of `2^(q+1)`.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn apply_mat1_slice(amps: &mut [C64], q: usize, m: &Mat2) {
        let re = [
            [_mm256_set1_pd(m.0[0][0].re), _mm256_set1_pd(m.0[0][1].re)],
            [_mm256_set1_pd(m.0[1][0].re), _mm256_set1_pd(m.0[1][1].re)],
        ];
        let im = [
            [_mm256_set1_pd(m.0[0][0].im), _mm256_set1_pd(m.0[0][1].im)],
            [_mm256_set1_pd(m.0[1][0].im), _mm256_set1_pd(m.0[1][1].im)],
        ];
        let stride = 1usize << q;
        for block in amps.chunks_exact_mut(stride << 1) {
            let (clear, set) = block.split_at_mut(stride);
            let pc = clear.as_mut_ptr().cast::<f64>();
            let ps = set.as_mut_ptr().cast::<f64>();
            for k in (0..stride << 1).step_by(4) {
                let a0 = _mm256_loadu_pd(pc.add(k));
                let a1 = _mm256_loadu_pd(ps.add(k));
                let s0 = _mm256_permute_pd(a0, 0b0101);
                let s1 = _mm256_permute_pd(a1, 0b0101);
                let zero = _mm256_setzero_pd();
                let r0 = cmul_acc(cmul_acc(zero, re[0][0], im[0][0], a0, s0), re[0][1], im[0][1], a1, s1);
                let r1 = cmul_acc(cmul_acc(zero, re[1][0], im[1][0], a0, s0), re[1][1], im[1][1], a1, s1);
                _mm256_storeu_pd(pc.add(k), r0);
                _mm256_storeu_pd(ps.add(k), r1);
            }
        }
    }

    /// Diagonal single-qubit kernel: scales the clear/set halves of each
    /// butterfly block by the two diagonal entries — one multiply per
    /// amplitude, no cross terms. Requires `q >= 1` and `amps.len()` a
    /// multiple of `2^(q+1)`.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn apply_diag1_slice(amps: &mut [C64], q: usize, d: &[C64; 2]) {
        let re = [_mm256_set1_pd(d[0].re), _mm256_set1_pd(d[1].re)];
        let im = [_mm256_set1_pd(d[0].im), _mm256_set1_pd(d[1].im)];
        let stride = 1usize << q;
        for block in amps.chunks_exact_mut(stride << 1) {
            let (clear, set) = block.split_at_mut(stride);
            let pc = clear.as_mut_ptr().cast::<f64>();
            let ps = set.as_mut_ptr().cast::<f64>();
            for k in (0..stride << 1).step_by(4) {
                let a0 = _mm256_loadu_pd(pc.add(k));
                let a1 = _mm256_loadu_pd(ps.add(k));
                let s0 = _mm256_permute_pd(a0, 0b0101);
                let s1 = _mm256_permute_pd(a1, 0b0101);
                let r0 = _mm256_fmaddsub_pd(re[0], a0, _mm256_mul_pd(im[0], s0));
                let r1 = _mm256_fmaddsub_pd(re[1], a1, _mm256_mul_pd(im[1], s1));
                _mm256_storeu_pd(pc.add(k), r0);
                _mm256_storeu_pd(ps.add(k), r1);
            }
        }
    }

    /// Diagonal two-qubit kernel: scales each of the four amplitude
    /// quadrants by its diagonal entry. `d` is indexed `bit_qa + 2*bit_qb`
    /// pre-normalization; requires `min(qa, qb) >= 1` and `amps.len()` a
    /// multiple of `2^(max(qa,qb)+1)`.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn apply_diag2_slice(amps: &mut [C64], qa: usize, qb: usize, d: &[C64; 4]) {
        let (lo, hi) = if qa < qb { (qa, qb) } else { (qb, qa) };
        let nd = if qa < qb { *d } else { [d[0], d[2], d[1], d[3]] };
        let re = [
            _mm256_set1_pd(nd[0].re),
            _mm256_set1_pd(nd[1].re),
            _mm256_set1_pd(nd[2].re),
            _mm256_set1_pd(nd[3].re),
        ];
        let im = [
            _mm256_set1_pd(nd[0].im),
            _mm256_set1_pd(nd[1].im),
            _mm256_set1_pd(nd[2].im),
            _mm256_set1_pd(nd[3].im),
        ];
        let sl = 1usize << lo;
        for block in amps.chunks_exact_mut(1usize << (hi + 1)) {
            let (h0, h1) = block.split_at_mut(1usize << hi);
            for (sub0, sub1) in h0.chunks_exact_mut(sl << 1).zip(h1.chunks_exact_mut(sl << 1)) {
                let (q0, q1) = sub0.split_at_mut(sl);
                let (q2, q3) = sub1.split_at_mut(sl);
                let p = [
                    q0.as_mut_ptr().cast::<f64>(),
                    q1.as_mut_ptr().cast::<f64>(),
                    q2.as_mut_ptr().cast::<f64>(),
                    q3.as_mut_ptr().cast::<f64>(),
                ];
                for k in (0..sl << 1).step_by(4) {
                    for quad in 0..4 {
                        let a = _mm256_loadu_pd(p[quad].add(k));
                        let s = _mm256_permute_pd(a, 0b0101);
                        let r = _mm256_fmaddsub_pd(re[quad], a, _mm256_mul_pd(im[quad], s));
                        _mm256_storeu_pd(p[quad].add(k), r);
                    }
                }
            }
        }
    }

    /// Sums all four lanes of `v` into one scalar.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// `Re <lam| M_q |psi>` in one read-only pass: because `Re(conj(l)*f)
    /// = l.re*f.re + l.im*f.im`, the interleaved layout reduces each
    /// butterfly to an elementwise FMA into a running 4-lane accumulator,
    /// summed once at the end. Requires `q >= 1` and both slices the same
    /// length, a multiple of `2^(q+1)`.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn bilinear_mat1(lam: &[C64], psi: &[C64], q: usize, m: &Mat2) -> f64 {
        let re = [
            [_mm256_set1_pd(m.0[0][0].re), _mm256_set1_pd(m.0[0][1].re)],
            [_mm256_set1_pd(m.0[1][0].re), _mm256_set1_pd(m.0[1][1].re)],
        ];
        let im = [
            [_mm256_set1_pd(m.0[0][0].im), _mm256_set1_pd(m.0[0][1].im)],
            [_mm256_set1_pd(m.0[1][0].im), _mm256_set1_pd(m.0[1][1].im)],
        ];
        let stride = 1usize << q;
        let mut acc = _mm256_setzero_pd();
        for (lb, pb) in lam.chunks_exact(stride << 1).zip(psi.chunks_exact(stride << 1)) {
            let (lc, ls) = lb.split_at(stride);
            let (pc, ps) = pb.split_at(stride);
            let lpc = lc.as_ptr().cast::<f64>();
            let lps = ls.as_ptr().cast::<f64>();
            let ppc = pc.as_ptr().cast::<f64>();
            let pps = ps.as_ptr().cast::<f64>();
            for k in (0..stride << 1).step_by(4) {
                let a0 = _mm256_loadu_pd(ppc.add(k));
                let a1 = _mm256_loadu_pd(pps.add(k));
                let s0 = _mm256_permute_pd(a0, 0b0101);
                let s1 = _mm256_permute_pd(a1, 0b0101);
                let zero = _mm256_setzero_pd();
                let f0 =
                    cmul_acc(cmul_acc(zero, re[0][0], im[0][0], a0, s0), re[0][1], im[0][1], a1, s1);
                let f1 =
                    cmul_acc(cmul_acc(zero, re[1][0], im[1][0], a0, s0), re[1][1], im[1][1], a1, s1);
                acc = _mm256_fmadd_pd(_mm256_loadu_pd(lpc.add(k)), f0, acc);
                acc = _mm256_fmadd_pd(_mm256_loadu_pd(lps.add(k)), f1, acc);
            }
        }
        hsum(acc)
    }

    /// `Re <lam| M_{qa,qb} |psi>` in one read-only pass over the four
    /// amplitude quadrants; the two-qubit sibling of [`bilinear_mat1`].
    /// Requires `min(qa, qb) >= 1` and both slices the same length, a
    /// multiple of `2^(max(qa,qb)+1)`.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn bilinear_mat2(lam: &[C64], psi: &[C64], qa: usize, qb: usize, m: &Mat4) -> f64 {
        let (lo, hi) = if qa < qb { (qa, qb) } else { (qb, qa) };
        let normalized = if qa < qb { *m } else { swap_operands(m) };
        let mut re = [[_mm256_setzero_pd(); 4]; 4];
        let mut im = [[_mm256_setzero_pd(); 4]; 4];
        for (i, (re_row, im_row)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            for j in 0..4 {
                re_row[j] = _mm256_set1_pd(normalized.0[i][j].re);
                im_row[j] = _mm256_set1_pd(normalized.0[i][j].im);
            }
        }
        let sl = 1usize << lo;
        let mut acc = _mm256_setzero_pd();
        for (lb, pb) in
            lam.chunks_exact(1usize << (hi + 1)).zip(psi.chunks_exact(1usize << (hi + 1)))
        {
            let (lh0, lh1) = lb.split_at(1usize << hi);
            let (ph0, ph1) = pb.split_at(1usize << hi);
            for (((ls0, ls1), ps0), ps1) in lh0
                .chunks_exact(sl << 1)
                .zip(lh1.chunks_exact(sl << 1))
                .zip(ph0.chunks_exact(sl << 1))
                .zip(ph1.chunks_exact(sl << 1))
            {
                let (l0, l1) = ls0.split_at(sl);
                let (l2, l3) = ls1.split_at(sl);
                let (p0, p1) = ps0.split_at(sl);
                let (p2, p3) = ps1.split_at(sl);
                let lp = [
                    l0.as_ptr().cast::<f64>(),
                    l1.as_ptr().cast::<f64>(),
                    l2.as_ptr().cast::<f64>(),
                    l3.as_ptr().cast::<f64>(),
                ];
                let pp = [
                    p0.as_ptr().cast::<f64>(),
                    p1.as_ptr().cast::<f64>(),
                    p2.as_ptr().cast::<f64>(),
                    p3.as_ptr().cast::<f64>(),
                ];
                for k in (0..sl << 1).step_by(4) {
                    let a = [
                        _mm256_loadu_pd(pp[0].add(k)),
                        _mm256_loadu_pd(pp[1].add(k)),
                        _mm256_loadu_pd(pp[2].add(k)),
                        _mm256_loadu_pd(pp[3].add(k)),
                    ];
                    let s = [
                        _mm256_permute_pd(a[0], 0b0101),
                        _mm256_permute_pd(a[1], 0b0101),
                        _mm256_permute_pd(a[2], 0b0101),
                        _mm256_permute_pd(a[3], 0b0101),
                    ];
                    for row in 0..4 {
                        let mut f = _mm256_setzero_pd();
                        for col in 0..4 {
                            f = cmul_acc(f, re[row][col], im[row][col], a[col], s[col]);
                        }
                        acc = _mm256_fmadd_pd(_mm256_loadu_pd(lp[row].add(k)), f, acc);
                    }
                }
            }
        }
        hsum(acc)
    }

    /// Two-qubit butterfly over the four amplitude quadrants. Requires
    /// `min(qa, qb) >= 1` (even-length quadrant runs) and `amps.len()` a
    /// multiple of `2^(max(qa,qb)+1)`.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (see [`available`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn apply_mat2_slice(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
        let (lo, hi) = if qa < qb { (qa, qb) } else { (qb, qa) };
        let normalized = if qa < qb { *m } else { swap_operands(m) };
        let mut re = [[_mm256_setzero_pd(); 4]; 4];
        let mut im = [[_mm256_setzero_pd(); 4]; 4];
        for (i, (re_row, im_row)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            for j in 0..4 {
                re_row[j] = _mm256_set1_pd(normalized.0[i][j].re);
                im_row[j] = _mm256_set1_pd(normalized.0[i][j].im);
            }
        }
        let sl = 1usize << lo;
        for block in amps.chunks_exact_mut(1usize << (hi + 1)) {
            let (h0, h1) = block.split_at_mut(1usize << hi);
            for (sub0, sub1) in h0.chunks_exact_mut(sl << 1).zip(h1.chunks_exact_mut(sl << 1)) {
                let (q0, q1) = sub0.split_at_mut(sl);
                let (q2, q3) = sub1.split_at_mut(sl);
                let p = [
                    q0.as_mut_ptr().cast::<f64>(),
                    q1.as_mut_ptr().cast::<f64>(),
                    q2.as_mut_ptr().cast::<f64>(),
                    q3.as_mut_ptr().cast::<f64>(),
                ];
                for k in (0..sl << 1).step_by(4) {
                    let a = [
                        _mm256_loadu_pd(p[0].add(k)),
                        _mm256_loadu_pd(p[1].add(k)),
                        _mm256_loadu_pd(p[2].add(k)),
                        _mm256_loadu_pd(p[3].add(k)),
                    ];
                    let s = [
                        _mm256_permute_pd(a[0], 0b0101),
                        _mm256_permute_pd(a[1], 0b0101),
                        _mm256_permute_pd(a[2], 0b0101),
                        _mm256_permute_pd(a[3], 0b0101),
                    ];
                    for row in 0..4 {
                        let mut acc = _mm256_setzero_pd();
                        for col in 0..4 {
                            acc = cmul_acc(acc, re[row][col], im[row][col], a[col], s[col]);
                        }
                        _mm256_storeu_pd(p[row].add(k), acc);
                    }
                }
            }
        }
    }
}

/// Applies a single-qubit unitary to a slice whose length is a multiple of
/// `2^(q+1)` (a whole state or an independent block of one). Qubit 0, and
/// hosts without AVX2+FMA, take the exact (no-FMA) state-vector kernel,
/// which is AVX2 where the host has it.
fn apply_mat1_slice(amps: &mut [C64], q: usize, m: &Mat2) {
    #[cfg(target_arch = "x86_64")]
    {
        if q >= 1 && simd::available() {
            // SAFETY: `available()` confirmed AVX2+FMA at runtime and
            // `q >= 1` satisfies the kernel's alignment contract.
            unsafe { simd::apply_mat1_slice(amps, q, m) };
            return;
        }
    }
    crate::statevector::apply_mat1_exact(amps, q, m);
}

/// Applies a two-qubit unitary (`qa` the low subspace bit) to a slice
/// whose length is a multiple of `2^(max(qa,qb)+1)`.
///
/// The operand order is normalized once (conjugation by SWAP) so the
/// butterfly always sees the lower wire as the low subspace bit, and the
/// four amplitude quadrants are traversed as zipped sub-slices: exactly
/// the `2^(n-2)` butterflies execute, with no index filtering and no
/// bounds checks in the inner loop. Ops on qubit 0 round exactly like
/// the scalar loop.
fn apply_mat2_slice(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    #[cfg(target_arch = "x86_64")]
    {
        if qa.min(qb) >= 1 && simd::available() {
            // SAFETY: `available()` confirmed AVX2+FMA at runtime and
            // `min(qa, qb) >= 1` satisfies the kernel's contract.
            unsafe { simd::apply_mat2_slice(amps, qa, qb, m) };
            return;
        }
        if qa.min(qb) == 0 && crate::exact_simd::available() {
            let (hi, m) = if qa == 0 {
                (qb, *m)
            } else {
                (qa, swap_operands(m))
            };
            // SAFETY: `available()` confirmed AVX2 at runtime, and `m`
            // now has qubit 0 as its low operand.
            unsafe { crate::exact_simd::apply_mat2_q0(amps, hi, &m) };
            return;
        }
    }
    apply_mat2_slice_scalar(amps, qa, qb, m);
}

fn apply_mat2_slice_scalar(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    let (lo, hi) = if qa < qb { (qa, qb) } else { (qb, qa) };
    let normalized = if qa < qb { *m } else { swap_operands(m) };
    let [[m00, m01, m02, m03], [m10, m11, m12, m13], [m20, m21, m22, m23], [m30, m31, m32, m33]] =
        normalized.0;
    let sl = 1usize << lo;
    for block in amps.chunks_exact_mut(1usize << (hi + 1)) {
        let (h0, h1) = block.split_at_mut(1usize << hi);
        for (sub0, sub1) in h0.chunks_exact_mut(sl << 1).zip(h1.chunks_exact_mut(sl << 1)) {
            // Quadrants indexed as bit_lo + 2*bit_hi.
            let (q0, q1) = sub0.split_at_mut(sl);
            let (q2, q3) = sub1.split_at_mut(sl);
            let quads = q0.iter_mut().zip(q1.iter_mut()).zip(q2.iter_mut().zip(q3.iter_mut()));
            for ((p0, p1), (p2, p3)) in quads {
                let (a0, a1, a2, a3) = (*p0, *p1, *p2, *p3);
                *p0 = m00 * a0 + m01 * a1 + m02 * a2 + m03 * a3;
                *p1 = m10 * a0 + m11 * a1 + m12 * a2 + m13 * a3;
                *p2 = m20 * a0 + m21 * a1 + m22 * a2 + m23 * a3;
                *p3 = m30 * a0 + m31 * a1 + m32 * a2 + m33 * a3;
            }
        }
    }
}

/// Applies a diagonal single-qubit unitary (`d = [d_clear, d_set]`) to a
/// slice whose length is a multiple of `2^(q+1)`: one complex multiply
/// per amplitude, half the memory traffic of the dense butterfly. Qubit 0
/// rounds exactly like the scalar loop.
fn apply_diag1_slice(amps: &mut [C64], q: usize, d: &[C64; 2]) {
    #[cfg(target_arch = "x86_64")]
    {
        if q >= 1 && simd::available() {
            // SAFETY: `available()` confirmed AVX2+FMA at runtime and
            // `q >= 1` satisfies the kernel's alignment contract.
            unsafe { simd::apply_diag1_slice(amps, q, d) };
            return;
        }
        if q == 0 && crate::exact_simd::available() {
            // SAFETY: `available()` confirmed AVX2 at runtime.
            unsafe { crate::exact_simd::apply_diag1_q0(amps, d) };
            return;
        }
    }
    apply_diag1_slice_scalar(amps, q, d);
}

fn apply_diag1_slice_scalar(amps: &mut [C64], q: usize, d: &[C64; 2]) {
    let stride = 1usize << q;
    for block in amps.chunks_exact_mut(stride << 1) {
        let (clear, set) = block.split_at_mut(stride);
        for (c, s) in clear.iter_mut().zip(set.iter_mut()) {
            *c = d[0] * *c;
            *s = d[1] * *s;
        }
    }
}

/// Applies a diagonal two-qubit unitary (`d` indexed `bit_qa + 2*bit_qb`)
/// to a slice whose length is a multiple of `2^(max(qa,qb)+1)`. Ops on
/// qubit 0 round exactly like the scalar loop.
fn apply_diag2_slice(amps: &mut [C64], qa: usize, qb: usize, d: &[C64; 4]) {
    #[cfg(target_arch = "x86_64")]
    {
        if qa.min(qb) >= 1 && simd::available() {
            // SAFETY: `available()` confirmed AVX2+FMA at runtime and
            // `min(qa, qb) >= 1` satisfies the kernel's contract.
            unsafe { simd::apply_diag2_slice(amps, qa, qb, d) };
            return;
        }
        if qa.min(qb) == 0 && crate::exact_simd::available() {
            let (hi, d) = if qa == 0 {
                (qb, *d)
            } else {
                (qa, [d[0], d[2], d[1], d[3]])
            };
            // SAFETY: `available()` confirmed AVX2 at runtime, and `d` is
            // now indexed `bit_0 + 2*bit_hi`.
            unsafe { crate::exact_simd::apply_diag2_q0(amps, hi, &d) };
            return;
        }
    }
    apply_diag2_slice_scalar(amps, qa, qb, d);
}

fn apply_diag2_slice_scalar(amps: &mut [C64], qa: usize, qb: usize, d: &[C64; 4]) {
    let (lo, hi) = if qa < qb { (qa, qb) } else { (qb, qa) };
    let nd = if qa < qb { *d } else { [d[0], d[2], d[1], d[3]] };
    let sl = 1usize << lo;
    for block in amps.chunks_exact_mut(1usize << (hi + 1)) {
        let (h0, h1) = block.split_at_mut(1usize << hi);
        for (sub0, sub1) in h0.chunks_exact_mut(sl << 1).zip(h1.chunks_exact_mut(sl << 1)) {
            let (q0, q1) = sub0.split_at_mut(sl);
            let (q2, q3) = sub1.split_at_mut(sl);
            for (quad, dq) in [q0, q1, q2, q3].into_iter().zip(nd) {
                for a in quad {
                    *a = dq * *a;
                }
            }
        }
    }
}

/// `Re <lam| M_q |psi>` over matched amplitude slices — the read-only
/// bilinear sibling of [`apply_mat1_slice`]. The streamed adjoint calls
/// this once per gradient slot, so it shares the AVX2 butterfly kernels
/// rather than the scalar accumulation loop. At qubit 0 it keeps the
/// scalar loop's single serial accumulator and its bits.
pub(crate) fn bilinear_mat1(lam: &[C64], psi: &[C64], q: usize, m: &Mat2) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if q >= 1 && simd::available() {
            // SAFETY: `available()` confirmed AVX2+FMA at runtime and
            // `q >= 1` satisfies the kernel's alignment contract.
            return unsafe { simd::bilinear_mat1(lam, psi, q, m) };
        }
        if q == 0 && crate::exact_simd::available() {
            // SAFETY: `available()` confirmed AVX2 at runtime.
            return unsafe { crate::exact_simd::bilinear_mat1_q0(lam, psi, m) };
        }
    }
    bilinear_mat1_scalar(lam, psi, q, m)
}

fn bilinear_mat1_scalar(lam: &[C64], psi: &[C64], q: usize, m: &Mat2) -> f64 {
    let stride = 1usize << q;
    let [[m00, m01], [m10, m11]] = m.0;
    let mut acc = 0.0;
    for (lb, pb) in lam.chunks_exact(stride << 1).zip(psi.chunks_exact(stride << 1)) {
        let (l0, l1) = lb.split_at(stride);
        let (p0, p1) = pb.split_at(stride);
        for ((lc, ls), (pc, ps)) in l0.iter().zip(l1).zip(p0.iter().zip(p1)) {
            let f0 = m00 * *pc + m01 * *ps;
            let f1 = m10 * *pc + m11 * *ps;
            // Re(conj(l) * f) = l.re * f.re + l.im * f.im.
            acc += lc.re * f0.re + lc.im * f0.im;
            acc += ls.re * f1.re + ls.im * f1.im;
        }
    }
    acc
}

/// `Re <lam| M_{qa,qb} |psi>` over matched amplitude slices (`qa` the low
/// subspace bit); the two-qubit sibling of [`bilinear_mat1`].
pub(crate) fn bilinear_mat2(lam: &[C64], psi: &[C64], qa: usize, qb: usize, m: &Mat4) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if qa.min(qb) >= 1 && simd::available() {
            // SAFETY: `available()` confirmed AVX2+FMA at runtime and
            // `min(qa, qb) >= 1` satisfies the kernel's contract.
            return unsafe { simd::bilinear_mat2(lam, psi, qa, qb, m) };
        }
        if qa.min(qb) == 0 && crate::exact_simd::available() {
            let (hi, m) = if qa == 0 {
                (qb, *m)
            } else {
                (qa, swap_operands(m))
            };
            // SAFETY: `available()` confirmed AVX2 at runtime, and `m`
            // now has qubit 0 as its low operand.
            return unsafe { crate::exact_simd::bilinear_mat2_q0(lam, psi, hi, &m) };
        }
    }
    bilinear_mat2_scalar(lam, psi, qa, qb, m)
}

fn bilinear_mat2_scalar(lam: &[C64], psi: &[C64], qa: usize, qb: usize, m: &Mat4) -> f64 {
    let (lo, hi) = if qa < qb { (qa, qb) } else { (qb, qa) };
    let normalized = if qa < qb { *m } else { swap_operands(m) };
    let [[m00, m01, m02, m03], [m10, m11, m12, m13], [m20, m21, m22, m23], [m30, m31, m32, m33]] =
        normalized.0;
    let sl = 1usize << lo;
    let mut acc = 0.0;
    for (lb, pb) in lam.chunks_exact(1usize << (hi + 1)).zip(psi.chunks_exact(1usize << (hi + 1)))
    {
        let (lh0, lh1) = lb.split_at(1usize << hi);
        let (ph0, ph1) = pb.split_at(1usize << hi);
        for (((ls0, ls1), ps0), ps1) in lh0
            .chunks_exact(sl << 1)
            .zip(lh1.chunks_exact(sl << 1))
            .zip(ph0.chunks_exact(sl << 1))
            .zip(ph1.chunks_exact(sl << 1))
        {
            let (l0, l1) = ls0.split_at(sl);
            let (l2, l3) = ls1.split_at(sl);
            let (p0, p1) = ps0.split_at(sl);
            let (p2, p3) = ps1.split_at(sl);
            for i in 0..sl {
                let (a0, a1, a2, a3) = (p0[i], p1[i], p2[i], p3[i]);
                let f0 = m00 * a0 + m01 * a1 + m02 * a2 + m03 * a3;
                let f1 = m10 * a0 + m11 * a1 + m12 * a2 + m13 * a3;
                let f2 = m20 * a0 + m21 * a1 + m22 * a2 + m23 * a3;
                let f3 = m30 * a0 + m31 * a1 + m32 * a2 + m33 * a3;
                acc += l0[i].re * f0.re + l0[i].im * f0.im;
                acc += l1[i].re * f1.re + l1[i].im * f1.im;
                acc += l2[i].re * f2.re + l2[i].im * f2.im;
                acc += l3[i].re * f3.re + l3[i].im * f3.im;
            }
        }
    }
    acc
}

/// [`apply_diag1_slice`] over a whole state, optionally split across
/// threads for large states.
fn apply_diag1_state(psi: &mut StateVector, q: usize, d: &[C64; 2], parallel: bool) {
    if !parallel {
        apply_diag1_slice(psi.amps_mut(), q, d);
        return;
    }
    let block = 1usize << (q + 1);
    let d = *d;
    par_apply_blocks(psi.amps_mut(), block, move |amps| {
        apply_diag1_slice(amps, q, &d);
    });
}

/// [`apply_diag2_slice`] over a whole state, optionally split across
/// threads for large states.
fn apply_diag2_state(psi: &mut StateVector, qa: usize, qb: usize, d: &[C64; 4], parallel: bool) {
    if !parallel {
        apply_diag2_slice(psi.amps_mut(), qa, qb, d);
        return;
    }
    let block = 1usize << (qa.max(qb) + 1);
    let d = *d;
    par_apply_blocks(psi.amps_mut(), block, move |amps| {
        apply_diag2_slice(amps, qa, qb, &d);
    });
}

/// Applies a single-qubit unitary, optionally splitting independent
/// amplitude blocks (size `2^(q+1)`) across threads for large states.
fn apply_mat1_state(psi: &mut StateVector, q: usize, m: &Mat2, parallel: bool) {
    if !parallel {
        apply_mat1_slice(psi.amps_mut(), q, m);
        return;
    }
    let block = 1usize << (q + 1);
    let m = *m;
    par_apply_blocks(psi.amps_mut(), block, move |amps| {
        apply_mat1_slice(amps, q, &m);
    });
}

/// Applies a two-qubit unitary, optionally splitting independent amplitude
/// blocks (size `2^(max(qa,qb)+1)`) across threads for large states.
fn apply_mat2_state(psi: &mut StateVector, qa: usize, qb: usize, m: &Mat4, parallel: bool) {
    if !parallel {
        apply_mat2_slice(psi.amps_mut(), qa, qb, m);
        return;
    }
    let block = 1usize << (qa.max(qb) + 1);
    let m = *m;
    par_apply_blocks(psi.amps_mut(), block, move |amps| {
        apply_mat2_slice(amps, qa, qb, &m);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::Gate;
    use std::f64::consts::PI;

    fn assert_states_match(a: &StateVector, b: &StateVector, tol: f64) {
        assert_eq!(a.num_qubits(), b.num_qubits());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, tol), "amplitudes differ: {x:?} vs {y:?}");
        }
    }

    fn mixed_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::T, &[0], &[]); // fuses with H
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::S, &[1], &[]);
        c.push_gate(Gate::Cx, &[0, 1], &[]); // absorbs S on qubit 1
        c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Ry, &[2], &[ParamExpr::constant(0.4)]);
        c.push_gate(Gate::Rz, &[2], &[ParamExpr::trainable(1)]);
        c.set_measured(vec![0, 1, 2]);
        c
    }

    #[test]
    fn compiled_program_matches_gate_by_gate_run() {
        let c = mixed_circuit();
        let params = [0.7, -1.1];
        let features = [0.3];
        let reference = StateVector::run(&c, &params, &features);
        let program = Program::compile(&c);
        assert_states_match(&program.run(&params, &features), &reference, 1e-12);
    }

    #[test]
    fn bound_program_matches_gate_by_gate_run() {
        let c = mixed_circuit();
        let params = [0.7, -1.1];
        let features = [0.3];
        let reference = StateVector::run(&c, &params, &features);
        let bound = Program::compile(&c).bind(&params);
        assert_states_match(&bound.run(&features), &reference, 1e-12);
    }

    #[test]
    fn par_items_with_arena_matches_per_item_execution() {
        let c1 = {
            let mut c = Circuit::new(3);
            c.push_gate(Gate::Ry, &[0], &[ParamExpr::feature(0)]);
            c.push_gate(Gate::Cx, &[0, 2], &[]);
            c.push_gate(Gate::Rz, &[2], &[ParamExpr::trainable(0)]);
            c.set_measured(vec![0, 2]);
            c
        };
        let programs = [Program::compile(&mixed_circuit()), Program::compile(&c1)];
        let params: Vec<Vec<f64>> = vec![vec![0.7, -1.1], vec![0.25]];
        let features: Vec<Vec<f64>> = vec![vec![0.3], vec![-0.9], vec![1.4]];
        // Member-major `(program, sample)` items, the cohort layout.
        let items: Vec<(usize, usize)> =
            (0..2).flat_map(|m| (0..3).map(move |s| (m, s))).collect();
        let mut arena = vec![0.0; items.len() * 2];
        let mut out: Vec<f64> = Vec::new();
        par_items_with_arena(items.len(), &mut arena, 2, &mut out, |i, slice| {
            let (m, s) = items[i];
            programs[m].run_with(&params[m], &features[s], |psi| {
                slice[0] = i as f64;
                slice[1] = psi.expectation_z(0);
                psi.expectation_z(m)
            })
        });
        assert_eq!(out.len(), items.len());
        for (i, &(m, s)) in items.iter().enumerate() {
            let reference = programs[m].run_with(&params[m], &features[s], |psi| {
                (psi.expectation_z(0), psi.expectation_z(m))
            });
            assert_eq!(out[i].to_bits(), reference.1.to_bits(), "item {i}");
            assert_eq!(arena[i * 2], i as f64, "item {i} got its own slice");
            assert_eq!(arena[i * 2 + 1].to_bits(), reference.0.to_bits(), "item {i}");
        }
    }

    #[test]
    fn binding_fuses_trainable_gates() {
        let c = mixed_circuit();
        let program = Program::compile(&c);
        let bound = program.bind(&[0.7, -1.1]);
        // After binding, only the feature-dependent RX stays dynamic, so
        // the op count shrinks.
        assert!(bound.num_ops() < program.num_ops());
    }

    #[test]
    fn static_single_qubit_gates_fuse_to_one_op() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::T, &[0], &[]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::constant(0.9)]);
        let program = Program::compile(&c);
        assert_eq!(program.num_ops(), 1);
        assert_states_match(
            &program.run(&[], &[]),
            &StateVector::run(&c, &[], &[]),
            1e-12,
        );
    }

    #[test]
    fn inverse_pair_fuses_away() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::H, &[0], &[]);
        assert_eq!(Program::compile(&c).num_ops(), 0);
    }

    #[test]
    fn two_qubit_absorption_handles_both_operand_orders() {
        for order in [[0usize, 1], [1, 0]] {
            let mut c = Circuit::new(2);
            c.push_gate(Gate::H, &[order[0]], &[]);
            c.push_gate(Gate::Sx, &[order[1]], &[]);
            c.push_gate(Gate::Cx, &[order[0], order[1]], &[]);
            c.push_gate(Gate::Cz, &[order[1], order[0]], &[]); // merges, swapped
            let program = Program::compile(&c);
            assert_eq!(program.num_ops(), 1, "order {order:?}");
            assert_states_match(
                &program.run(&[], &[]),
                &StateVector::run(&c, &[], &[]),
                1e-12,
            );
        }
    }

    #[test]
    fn amplitude_embedding_is_preserved() {
        let mut c = Circuit::new(2);
        c.set_amplitude_embedding(true);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        let features = [0.6, 0.8, 0.0, 0.1];
        let program = Program::compile(&c);
        assert_states_match(
            &program.run(&[0.5], &features),
            &StateVector::run(&c, &[0.5], &features),
            1e-12,
        );
    }

    #[test]
    fn run_batch_is_bit_identical_to_sequential() {
        let c = mixed_circuit();
        let params = [0.2, 0.9];
        let batch: Vec<Vec<f64>> = (0..17).map(|i| vec![0.1 * i as f64]).collect();
        let bound = Program::compile(&c).bind(&params);
        let batched = bound.run_batch_with(&batch, |_, psi| psi.clone());
        for (x, psi) in batch.iter().zip(&batched) {
            assert_eq!(psi, &bound.run(x), "batched result must be bit-identical");
        }
    }

    #[test]
    fn run_batch_with_post_processes_in_order() {
        let c = mixed_circuit();
        let bound = Program::compile(&c).bind(&[0.2, 0.9]);
        let batch: Vec<Vec<f64>> = (0..9).map(|i| vec![0.2 * i as f64]).collect();
        let indices = bound.run_batch_with(&batch, |i, _psi| i);
        assert_eq!(indices, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_amplitude_kernels_match_serial() {
        // Force the amplitude-parallel path on a small state and compare.
        let mut psi_par = StateVector::zero(4);
        let mut psi_ser = StateVector::zero(4);
        let h = Gate::H.matrix1(&[]);
        let cx = Gate::Cx.matrix2(&[]);
        for q in 0..4 {
            apply_mat1_state(&mut psi_par, q, &h, true);
            apply_mat1_state(&mut psi_ser, q, &h, false);
        }
        apply_mat2_state(&mut psi_par, 1, 3, &cx, true);
        apply_mat2_state(&mut psi_ser, 1, 3, &cx, false);
        apply_mat2_state(&mut psi_par, 2, 0, &cx, true);
        apply_mat2_state(&mut psi_ser, 2, 0, &cx, false);
        assert_eq!(psi_par, psi_ser);
    }

    #[test]
    fn dynamic_gates_keep_program_order() {
        // A static gate after a dynamic gate on the same qubit must not be
        // hoisted across it.
        let mut c = Circuit::new(1);
        c.push_gate(Gate::T, &[0], &[]);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::H, &[0], &[]);
        let program = Program::compile(&c);
        let reference = StateVector::run(&c, &[1.3], &[]);
        assert_states_match(&program.run(&[1.3], &[]), &reference, 1e-12);
    }

    #[test]
    fn rotation_angle_pi_matches(){
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::constant(PI)]);
        c.push_gate(Gate::Rzz, &[0, 1], &[ParamExpr::constant(-PI / 3.0)]);
        let program = Program::compile(&c);
        assert_states_match(
            &program.run(&[], &[]),
            &StateVector::run(&c, &[], &[]),
            1e-12,
        );
    }
}

/// Every kernel an op touching qubit 0 runs must equal its scalar twin
/// under `to_bits` (on AVX2 hosts these are the `exact_simd` kernels), so
/// RepCap values, gradients and goldens do not depend on which path ran.
#[cfg(test)]
mod qubit0_exactness {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    fn entry(rng: &mut StdRng) -> C64 {
        C64::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0))
    }

    /// A random unnormalized state with some exact zeros mixed in.
    fn random_amps(n: usize, rng: &mut StdRng) -> Vec<C64> {
        (0..1usize << n)
            .map(|_| {
                if rng.random_range(0..8) == 0 {
                    C64::ZERO
                } else {
                    entry(rng)
                }
            })
            .collect()
    }

    /// A random non-unitary matrix; with `diagonal`, its off-diagonal
    /// entries are exactly zero, so the op router picks a diagonal kernel.
    fn random_mat4(diagonal: bool, rng: &mut StdRng) -> Mat4 {
        let mut m = [[C64::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                if r == c || !diagonal {
                    *cell = entry(rng);
                }
            }
        }
        Mat4(m)
    }

    fn random_mat2(diagonal: bool, rng: &mut StdRng) -> Mat2 {
        let off = |rng: &mut StdRng| if diagonal { C64::ZERO } else { entry(rng) };
        Mat2([[entry(rng), off(rng)], [off(rng), entry(rng)]])
    }

    /// Every ordered operand pair on `n` qubits with qubit 0 in it.
    fn pairs_on_qubit0(n: usize) -> impl Iterator<Item = (usize, usize)> {
        (1..n).flat_map(|other| [(0, other), (other, 0)])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn two_qubit_ops_on_qubit0_match_scalar(
            n in 2usize..=10,
            diagonal in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_mat4(diagonal, &mut rng);
            prop_assert_eq!(diag_of_mat4(&m).is_some(), diagonal);
            let amps = random_amps(n, &mut rng);
            for (qa, qb) in pairs_on_qubit0(n) {
                let mut routed = amps.clone();
                apply_static_op_slice(&mut routed, &Op::Two { qa, qb, m });
                let mut dense = amps.clone();
                apply_mat2_slice(&mut dense, qa, qb, &m);
                let mut expected = amps.clone();
                apply_mat2_slice_scalar(&mut expected, qa, qb, &m);
                prop_assert_eq!(bits(&dense), bits(&expected), "dense n={} ({}, {})", n, qa, qb);
                if let Some(d) = diag_of_mat4(&m) {
                    expected = amps.clone();
                    apply_diag2_slice_scalar(&mut expected, qa, qb, &d);
                }
                prop_assert_eq!(bits(&routed), bits(&expected), "routed n={} ({}, {})", n, qa, qb);
            }
        }

        #[test]
        fn diagonal_one_qubit_op_on_qubit0_matches_scalar(
            n in 1usize..=10,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_mat2(true, &mut rng);
            let d = diag_of_mat2(&m).expect("off-diagonals are zero");
            let amps = random_amps(n, &mut rng);
            let mut routed = amps.clone();
            apply_static_op_slice(&mut routed, &Op::One { q: 0, m });
            let mut direct = amps.clone();
            apply_diag1_slice(&mut direct, 0, &d);
            let mut expected = amps;
            apply_diag1_slice_scalar(&mut expected, 0, &d);
            prop_assert_eq!(bits(&direct), bits(&expected), "n={}", n);
            prop_assert_eq!(bits(&routed), bits(&expected), "routed n={}", n);
        }

        #[test]
        fn bilinears_on_qubit0_match_scalar(
            n in 2usize..=10,
            diagonal in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m1 = random_mat2(diagonal, &mut rng);
            let m2 = random_mat4(diagonal, &mut rng);
            let lam = random_amps(n, &mut rng);
            let psi = random_amps(n, &mut rng);
            prop_assert_eq!(
                bilinear_mat1(&lam, &psi, 0, &m1).to_bits(),
                bilinear_mat1_scalar(&lam, &psi, 0, &m1).to_bits(),
                "n={}", n
            );
            for (qa, qb) in pairs_on_qubit0(n) {
                prop_assert_eq!(
                    bilinear_mat2(&lam, &psi, qa, qb, &m2).to_bits(),
                    bilinear_mat2_scalar(&lam, &psi, qa, qb, &m2).to_bits(),
                    "n={} ({}, {})", n, qa, qb
                );
            }
        }
    }
}
