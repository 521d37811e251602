//! Dense state-vector simulation.
//!
//! The state of `n` qubits is a vector of `2^n` complex amplitudes in
//! little-endian order: bit `q` of the basis index is the value of qubit
//! `q`. This engine is the noiseless reference used for training, RepCap
//! computation, and as the base for Monte-Carlo noisy trajectories.

use elivagar_circuit::math::{C64, Mat2, Mat4};
use elivagar_circuit::{Circuit, Instruction};
use rand::Rng;

/// Maximum qubit count accepted by the dense engines (2^24 amplitudes).
pub const MAX_DENSE_QUBITS: usize = 24;

/// Why a state could not be constructed.
///
/// The panicking constructors ([`StateVector::from_amplitudes`],
/// [`StateVector::amplitude_embedded`]) remain for call sites holding
/// already-validated data; the `try_` variants return this instead so
/// callers handling user-supplied amplitudes or features can recover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Amplitude vector length is not a power of two `>= 2`.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// Amplitudes or features have (numerically) zero norm.
    ZeroNorm,
    /// Feature vector does not fit in the requested register.
    TooManyFeatures {
        /// Number of features supplied.
        len: usize,
        /// Qubits available to hold them.
        num_qubits: usize,
    },
    /// No features were supplied to an amplitude embedding.
    EmptyFeatures,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NotPowerOfTwo { len } => {
                write!(f, "amplitude length {len} is not a power of two >= 2")
            }
            SimError::ZeroNorm => write!(f, "cannot normalize a zero-norm vector"),
            SimError::TooManyFeatures { len, num_qubits } => {
                write!(f, "{len} features exceed the 2^{num_qubits} amplitudes available")
            }
            SimError::EmptyFeatures => write!(f, "amplitude embedding needs features"),
        }
    }
}

impl std::error::Error for SimError {}

/// A pure quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use elivagar_sim::StateVector;
/// use elivagar_circuit::{Gate, math::Mat2};
///
/// let mut psi = StateVector::zero(2);
/// psi.apply_mat1(0, &Gate::H.matrix1(&[]));
/// psi.apply_mat2(0, 1, &Gate::Cx.matrix2(&[]));
/// let probs = psi.probabilities();
/// assert!((probs[0] - 0.5).abs() < 1e-12); // |00>
/// assert!((probs[3] - 0.5).abs() < 1e-12); // |11>
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero or exceeds [`MAX_DENSE_QUBITS`].
    pub fn zero(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "state needs at least one qubit");
        assert!(
            num_qubits <= MAX_DENSE_QUBITS,
            "dense simulation limited to {MAX_DENSE_QUBITS} qubits"
        );
        let mut amps = vec![C64::ZERO; 1 << num_qubits];
        amps[0] = C64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the length is not a power of two or the
    /// vector has zero norm.
    pub fn try_from_amplitudes(mut amps: Vec<C64>) -> Result<Self, SimError> {
        let len = amps.len();
        if !len.is_power_of_two() || len < 2 {
            return Err(SimError::NotPowerOfTwo { len });
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        if norm <= 1e-12 {
            return Err(SimError::ZeroNorm);
        }
        for a in &mut amps {
            *a = a.scale(1.0 / norm);
        }
        Ok(StateVector {
            num_qubits: len.trailing_zeros() as usize,
            amps,
        })
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the vector has zero
    /// norm. Use [`StateVector::try_from_amplitudes`] to recover instead.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        StateVector::try_from_amplitudes(amps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The all-zeros state written into a recycled buffer: `buf` is
    /// cleared and resized, so its existing capacity is reused and no
    /// allocation happens once it has grown to `2^num_qubits`. See
    /// [`crate::workspace`] for the per-thread buffer pools.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`StateVector::zero`].
    pub fn zero_in(num_qubits: usize, mut buf: Vec<C64>) -> Self {
        assert!(num_qubits > 0, "state needs at least one qubit");
        assert!(
            num_qubits <= MAX_DENSE_QUBITS,
            "dense simulation limited to {MAX_DENSE_QUBITS} qubits"
        );
        buf.clear();
        buf.resize(1 << num_qubits, C64::ZERO);
        buf[0] = C64::ONE;
        StateVector { num_qubits, amps: buf }
    }

    /// Amplitude embedding into a recycled buffer; numerically identical
    /// (bit-for-bit) to [`StateVector::amplitude_embedded`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`StateVector::amplitude_embedded`].
    pub fn amplitude_embedded_in(num_qubits: usize, features: &[f64], mut buf: Vec<C64>) -> Self {
        // Mirrors `try_amplitude_embedded` + `try_from_amplitudes` exactly:
        // same fill order, same zero-norm guard, same normalizer.
        if features.is_empty() {
            panic!("{}", SimError::EmptyFeatures);
        }
        let dim = 1usize << num_qubits;
        if features.len() > dim {
            panic!("{}", SimError::TooManyFeatures { len: features.len(), num_qubits });
        }
        buf.clear();
        buf.resize(dim, C64::ZERO);
        for (a, &f) in buf.iter_mut().zip(features) {
            *a = C64::real(f);
        }
        let norm_sqr: f64 = buf.iter().map(|a| a.norm_sqr()).sum();
        if norm_sqr <= 1e-24 {
            panic!("{}", SimError::ZeroNorm);
        }
        let norm = buf.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut buf {
            *a = a.scale(1.0 / norm);
        }
        StateVector { num_qubits, amps: buf }
    }

    /// Consumes the state and returns its amplitude buffer (for recycling
    /// through [`crate::workspace`]).
    pub fn into_buffer(self) -> Vec<C64> {
        self.amps
    }

    /// Overwrites this state with a copy of `other`, reusing the existing
    /// allocation when capacities allow.
    pub fn copy_from(&mut self, other: &StateVector) {
        self.num_qubits = other.num_qubits;
        self.amps.clone_from(&other.amps);
    }

    /// Amplitude-embeds a real feature vector: features are L2-normalized,
    /// zero-padded to `2^num_qubits`, and loaded as amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if `features` is empty, all-zero, or longer
    /// than `2^num_qubits`.
    pub fn try_amplitude_embedded(num_qubits: usize, features: &[f64]) -> Result<Self, SimError> {
        if features.is_empty() {
            return Err(SimError::EmptyFeatures);
        }
        let dim = 1usize << num_qubits;
        if features.len() > dim {
            return Err(SimError::TooManyFeatures { len: features.len(), num_qubits });
        }
        let mut amps = vec![C64::ZERO; dim];
        for (a, &f) in amps.iter_mut().zip(features) {
            *a = C64::real(f);
        }
        // Guard the all-zero case before normalizing (norm_sqr sums can
        // underflow the normalizer's threshold for tiny features).
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if norm <= 1e-24 {
            return Err(SimError::ZeroNorm);
        }
        StateVector::try_from_amplitudes(amps)
    }

    /// Amplitude-embeds a real feature vector: features are L2-normalized,
    /// zero-padded to `2^num_qubits`, and loaded as amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty, all-zero, or longer than
    /// `2^num_qubits`. Use [`StateVector::try_amplitude_embedded`] to
    /// recover instead.
    pub fn amplitude_embedded(num_qubits: usize, features: &[f64]) -> Self {
        StateVector::try_amplitude_embedded(num_qubits, features)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a state from raw amplitudes *without* normalizing. Used for
    /// intermediate non-unit vectors such as `O|psi>` in the adjoint engine.
    pub(crate) fn raw(num_qubits: usize, amps: Vec<C64>) -> Self {
        debug_assert_eq!(amps.len(), 1 << num_qubits);
        StateVector { num_qubits, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitudes in little-endian basis order.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable amplitude access for in-crate kernels (the fused engine
    /// applies gates to amplitude blocks in parallel).
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Applies a single-qubit operator to qubit `q`: each amplitude pair
    /// `(a0, a1)` becomes `(m00*a0 + m01*a1, m10*a0 + m11*a1)` in `C64`
    /// arithmetic. The SIMD path rounds every lane exactly like that
    /// scalar expression (see `apply_mat1_exact`), so results are
    /// bit-identical on every host. `m` need not be unitary (damping
    /// Kraus operators use this too).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_mat1(&mut self, q: usize, m: &Mat2) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        apply_mat1_exact(&mut self.amps, q, m);
    }

    /// Applies a two-qubit unitary to qubits `(qa, qb)` where `qa` is the
    /// low bit of the 4-dimensional subspace index, through the fused
    /// engine's scalar butterfly (`apply_mat2_exact`).
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_mat2(&mut self, qa: usize, qb: usize, m: &Mat4) {
        assert!(qa != qb, "two-qubit gate needs distinct qubits");
        assert!(qa < self.num_qubits && qb < self.num_qubits, "qubit out of range");
        apply_mat2_exact(&mut self.amps, qa, qb, m);
    }

    /// Applies one resolved instruction (angles already evaluated).
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the gate's parameter count.
    pub fn apply_instruction(&mut self, ins: &Instruction, values: &[f64]) {
        if ins.gate.num_qubits() == 1 {
            self.apply_mat1(ins.qubits[0], &ins.gate.matrix1(values));
        } else {
            self.apply_mat2(ins.qubits[0], ins.qubits[1], &ins.gate.matrix2(values));
        }
    }

    /// Probability of each computational basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Marginal probability distribution over the given qubits, indexed by
    /// the bitstring `b` where bit `k` of `b` is the outcome of
    /// `qubits[k]`.
    ///
    /// # Panics
    ///
    /// Panics if any qubit repeats or is out of range.
    pub fn marginal_probabilities(&self, qubits: &[usize]) -> Vec<f64> {
        let mut out = Vec::new();
        self.marginal_probabilities_into(qubits, &mut out);
        out
    }

    /// [`StateVector::marginal_probabilities`] into a recycled buffer:
    /// `out` is cleared and refilled, reusing its capacity. Bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if any qubit repeats or is out of range.
    pub fn marginal_probabilities_into(&self, qubits: &[usize], out: &mut Vec<f64>) {
        let mut seen = 0usize;
        for &q in qubits {
            assert!(q < self.num_qubits, "qubit {q} out of range");
            assert!(seen & (1 << q) == 0, "qubit {q} repeated");
            seen |= 1 << q;
        }
        out.clear();
        out.resize(1 << qubits.len(), 0.0);
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p == 0.0 {
                continue;
            }
            let mut key = 0usize;
            for (k, &q) in qubits.iter().enumerate() {
                if i & (1 << q) != 0 {
                    key |= 1 << k;
                }
            }
            out[key] += p;
        }
    }

    /// Expectation value of Pauli-Z on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn expectation_z(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        let mut e = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            e += if i & bit == 0 { p } else { -p };
        }
        e
    }

    /// `Re <self| M_q |other>` in one pass: the matrix element of a
    /// single-qubit operator between two states, accumulated in a fixed
    /// serial order (deterministic at any thread count). The streamed
    /// adjoint uses this for gradient terms `2 Re <lambda| dU |psi>`
    /// without materializing `dU |psi>`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or `q` is out of range.
    pub(crate) fn bilinear_mat1(&self, other: &StateVector, q: usize, m: &Mat2) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "dimension mismatch");
        assert!(q < self.num_qubits, "qubit {q} out of range");
        crate::engine::bilinear_mat1(&self.amps, &other.amps, q, m)
    }

    /// `Re <self| M_{qa,qb} |other>` in one pass (`qa` the low subspace
    /// bit); the two-qubit sibling of [`StateVector::bilinear_mat1`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ, the qubits coincide, or either is out
    /// of range.
    pub(crate) fn bilinear_mat2(&self, other: &StateVector, qa: usize, qb: usize, m: &Mat4) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "dimension mismatch");
        assert!(qa != qb, "two-qubit operator needs distinct qubits");
        assert!(qa < self.num_qubits && qb < self.num_qubits, "qubit out of range");
        crate::engine::bilinear_mat2(&self.amps, &other.amps, qa, qb, m)
    }

    /// Inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn inner_product(&self, other: &StateVector) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "dimension mismatch");
        let mut acc = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Squared overlap `|<self|other>|^2` (state fidelity for pure states).
    pub fn overlap(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// L2 norm of the state (should be 1 for physical states).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Renormalizes the state to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state has (numerically) zero norm.
    pub fn normalize(&mut self) {
        let n = self.norm();
        assert!(n > 1e-12, "cannot normalize zero state");
        for a in &mut self.amps {
            *a = a.scale(1.0 / n);
        }
    }

    /// Samples `shots` measurement outcomes of the given qubits, returning
    /// a histogram over `2^qubits.len()` outcomes.
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> Vec<u64> {
        let probs = self.marginal_probabilities(qubits);
        sample_from_distribution(&probs, shots, rng)
    }

    /// Runs `circuit` on `|0...0>` (or the amplitude-embedded input) with
    /// the given trainable parameters and input features.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references parameters or features that are out
    /// of bounds of the provided slices.
    pub fn run(circuit: &Circuit, params: &[f64], features: &[f64]) -> StateVector {
        let mut psi = if circuit.amplitude_embedding() {
            StateVector::amplitude_embedded(circuit.num_qubits(), features)
        } else {
            StateVector::zero(circuit.num_qubits())
        };
        for ins in circuit.instructions() {
            let values = ins.resolve_params(params, features);
            psi.apply_instruction(ins, &values);
        }
        psi
    }
}

/// Single-qubit butterfly over a slice whose length is a multiple of
/// `2^(q+1)`, rounding exactly like scalar `C64` arithmetic: the AVX2
/// kernel (runtime-detected, `crate::exact_simd`) uses separate
/// multiplies and `addsub`, never FMA, so each lane performs the scalar
/// expression's roundings in the scalar order. The fused engine's FMA
/// kernels for ops off qubit 0 trade that exactness for speed; the dense
/// reference paths (`StateVector::run`, trajectories, RepCap's basis
/// rotations, the reference adjoint) keep it.
pub(crate) fn apply_mat1_exact(amps: &mut [C64], q: usize, m: &Mat2) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::exact_simd::available() {
            // SAFETY: `available()` confirmed AVX2 at runtime.
            unsafe { crate::exact_simd::apply_mat1(amps, q, m) };
            return;
        }
    }
    apply_mat1_portable(amps, q, m);
}

/// The portable [`apply_mat1_exact`]: the scalar butterfly walked through
/// `chunks_exact_mut`/`split_at_mut` pairs so the inner loop carries no
/// bounds checks.
fn apply_mat1_portable(amps: &mut [C64], q: usize, m: &Mat2) {
    let stride = 1usize << q;
    let [[m00, m01], [m10, m11]] = m.0;
    for block in amps.chunks_exact_mut(stride << 1) {
        let (clear, set) = block.split_at_mut(stride);
        for (c, s) in clear.iter_mut().zip(set.iter_mut()) {
            let a0 = *c;
            let a1 = *s;
            *c = m00 * a0 + m01 * a1;
            *s = m10 * a0 + m11 * a1;
        }
    }
}

/// Two-qubit butterfly (`qa` the low subspace bit) over a slice whose
/// length is a multiple of `2^(max(qa,qb)+1)`, in scalar `C64`
/// arithmetic. The operand order is normalized once (conjugation by SWAP)
/// so the lower wire is always the low subspace bit, and the four
/// amplitude quadrants are traversed as zipped sub-slices: exactly the
/// `2^(n-2)` butterflies execute, with no index filtering and no bounds
/// checks in the inner loop. The fused engine's no-FMA kernel for pairs
/// on qubit 0 rounds exactly like it.
pub(crate) fn apply_mat2_exact(amps: &mut [C64], qa: usize, qb: usize, m: &Mat4) {
    let (lo, hi) = if qa < qb { (qa, qb) } else { (qb, qa) };
    let normalized = if qa < qb { *m } else { crate::engine::swap_operands(m) };
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

/// Draws `shots` samples from a discrete distribution, returning counts.
///
/// The distribution is normalized defensively so that trajectory-averaged
/// inputs with small numerical drift still sample correctly.
pub fn sample_from_distribution<R: Rng + ?Sized>(
    probs: &[f64],
    shots: usize,
    rng: &mut R,
) -> Vec<u64> {
    let total: f64 = probs.iter().sum();
    let mut counts = vec![0u64; probs.len()];
    for _ in 0..shots {
        let mut u: f64 = rng.random::<f64>() * total;
        let mut chosen = probs.len() - 1;
        for (i, &p) in probs.iter().enumerate() {
            if u < p {
                chosen = i;
                break;
            }
            u -= p;
        }
        counts[chosen] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::{Gate, ParamExpr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    #[test]
    fn zero_state_is_basis_zero() {
        let psi = StateVector::zero(3);
        assert_eq!(psi.amplitudes()[0], C64::ONE);
        assert!((psi.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_qubit() {
        let mut psi = StateVector::zero(2);
        psi.apply_mat1(1, &Gate::X.matrix1(&[]));
        assert!(psi.amplitudes()[2].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn bell_state_probabilities() {
        let mut psi = StateVector::zero(2);
        psi.apply_mat1(0, &Gate::H.matrix1(&[]));
        psi.apply_mat2(0, 1, &Gate::Cx.matrix2(&[]));
        let p = psi.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
        assert!((psi.expectation_z(0)).abs() < 1e-12);
    }

    #[test]
    fn cx_respects_control_direction() {
        // Control = qubit 1, target = qubit 0; starting from |q1=1>.
        let mut psi = StateVector::zero(2);
        psi.apply_mat1(1, &Gate::X.matrix1(&[]));
        psi.apply_mat2(1, 0, &Gate::Cx.matrix2(&[]));
        // Expect |11> = index 3.
        assert!(psi.amplitudes()[3].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn marginals_sum_to_one_and_respect_order() {
        let mut psi = StateVector::zero(3);
        psi.apply_mat1(2, &Gate::X.matrix1(&[]));
        // Measure [2, 0]: qubit 2 (=1) is bit 0 of the key.
        let m = psi.marginal_probabilities(&[2, 0]);
        assert!((m[1] - 1.0).abs() < 1e-12);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotations_preserve_norm() {
        let mut psi = StateVector::zero(4);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let q = rng.random_range(0..4);
            let theta: f64 = rng.random_range(-PI..PI);
            psi.apply_mat1(q, &Gate::Rx.matrix1(&[theta]));
            let q2 = (q + 1) % 4;
            psi.apply_mat2(q, q2, &Gate::Crz.matrix2(&[theta]));
        }
        assert!((psi.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn run_resolves_embedding_features() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        let psi = StateVector::run(&c, &[], &[PI]);
        // RX(pi)|0> = -i|1>
        assert!((psi.probabilities()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_embedding_normalizes_and_pads() {
        let psi = StateVector::amplitude_embedded(2, &[3.0, 4.0]);
        let p = psi.probabilities();
        assert!((p[0] - 0.36).abs() < 1e-12);
        assert!((p[1] - 0.64).abs() < 1e-12);
        assert!(p[2].abs() < 1e-12);
    }

    #[test]
    fn overlap_of_orthogonal_states_is_zero() {
        let a = StateVector::zero(2);
        let mut b = StateVector::zero(2);
        b.apply_mat1(0, &Gate::X.matrix1(&[]));
        assert!(a.overlap(&b) < 1e-12);
        assert!((a.overlap(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut psi = StateVector::zero(1);
        psi.apply_mat1(0, &Gate::Ry.matrix1(&[2.0 * (0.3f64.sqrt()).asin()]));
        // P(1) = 0.3.
        let mut rng = StdRng::seed_from_u64(42);
        let counts = psi.sample_counts(&[0], 20_000, &mut rng);
        let p1 = counts[1] as f64 / 20_000.0;
        assert!((p1 - 0.3).abs() < 0.02, "p1 = {p1}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_out_of_range_panics() {
        let mut psi = StateVector::zero(2);
        psi.apply_mat1(2, &Gate::X.matrix1(&[]));
    }

    #[test]
    fn expectation_z_of_plus_state_is_zero() {
        let mut psi = StateVector::zero(1);
        psi.apply_mat1(0, &Gate::H.matrix1(&[]));
        assert!(psi.expectation_z(0).abs() < 1e-12);
        psi.apply_mat1(0, &Gate::H.matrix1(&[]));
        assert!((psi.expectation_z(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_constructors_report_typed_errors() {
        assert_eq!(
            StateVector::try_from_amplitudes(vec![C64::ONE; 3]).unwrap_err(),
            SimError::NotPowerOfTwo { len: 3 }
        );
        assert_eq!(
            StateVector::try_from_amplitudes(vec![C64::ZERO; 4]).unwrap_err(),
            SimError::ZeroNorm
        );
        assert_eq!(
            StateVector::try_amplitude_embedded(1, &[]).unwrap_err(),
            SimError::EmptyFeatures
        );
        assert_eq!(
            StateVector::try_amplitude_embedded(1, &[1.0, 0.0, 0.0]).unwrap_err(),
            SimError::TooManyFeatures { len: 3, num_qubits: 1 }
        );
        assert_eq!(
            StateVector::try_amplitude_embedded(2, &[0.0, 0.0]).unwrap_err(),
            SimError::ZeroNorm
        );
    }

    #[test]
    fn try_constructors_agree_with_panicking_paths() {
        let amps = vec![C64::real(3.0), C64::real(4.0)];
        assert_eq!(
            StateVector::try_from_amplitudes(amps.clone()).unwrap(),
            StateVector::from_amplitudes(amps)
        );
        assert_eq!(
            StateVector::try_amplitude_embedded(2, &[0.6, 0.8]).unwrap(),
            StateVector::amplitude_embedded(2, &[0.6, 0.8])
        );
    }
}

/// `StateVector::apply_mat1` against a plain index loop, compared bit for
/// bit: the SIMD kernel must round every lane exactly like scalar `C64`
/// arithmetic, on every qubit (qubit 0 has its own in-register
/// butterfly) and for non-unitary operators too.
#[cfg(test)]
mod apply_mat1_exactness {
    use super::*;
    use elivagar_circuit::Gate;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::{PI, TAU};

    /// The reference butterfly: visit every index, pair it with its
    /// partner when bit `q` is clear.
    fn index_loop_apply(amps: &mut [C64], q: usize, m: &Mat2) {
        let bit = 1usize << q;
        for i in 0..amps.len() {
            if i & bit == 0 {
                let a0 = amps[i];
                let a1 = amps[i | bit];
                amps[i] = m.0[0][0] * a0 + m.0[0][1] * a1;
                amps[i | bit] = m.0[1][0] * a0 + m.0[1][1] * a1;
            }
        }
    }

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// A random state (not normalized: the kernel must not care), with
    /// some exact zeros mixed in.
    fn random_amps(n: usize, rng: &mut StdRng) -> Vec<C64> {
        (0..1usize << n)
            .map(|_| match rng.random_range(0..8) {
                0 => C64::ZERO,
                _ => C64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)),
            })
            .collect()
    }

    /// A unitary `U3`, one of the damping Kraus operators the trajectory
    /// engine applies, or a general complex matrix.
    fn operator(kind: u8, angles: [f64; 3], rate: f64, rng: &mut StdRng) -> Mat2 {
        match kind % 5 {
            0 => Gate::U3.matrix1(&angles),
            1 => Mat2([[C64::ZERO, C64::real(rate.sqrt())], [C64::ZERO, C64::ZERO]]),
            2 => Mat2([
                [C64::ONE, C64::ZERO],
                [C64::ZERO, C64::real((1.0 - rate).sqrt())],
            ]),
            3 => Mat2([[C64::ZERO, C64::ZERO], [C64::ZERO, C64::real(rate.sqrt())]]),
            _ => {
                let mut entry =
                    || C64::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
                Mat2([[entry(), entry()], [entry(), entry()]])
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn apply_mat1_matches_index_loop_bit_for_bit(
            n in 1usize..11,
            kind in 0u8..5,
            theta in 0.0..PI,
            phi in 0.0..TAU,
            lambda in 0.0..TAU,
            rate in 0.0..1.0,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = operator(kind, [theta, phi, lambda], rate, &mut rng);
            let amps = random_amps(n, &mut rng);
            for q in 0..n {
                let mut expected = amps.clone();
                index_loop_apply(&mut expected, q, &m);
                let mut psi = StateVector::raw(n, amps.clone());
                psi.apply_mat1(q, &m);
                prop_assert_eq!(bits(psi.amplitudes()), bits(&expected), "n={} q={}", n, q);
                let mut portable = amps.clone();
                apply_mat1_portable(&mut portable, q, &m);
                prop_assert_eq!(bits(&portable), bits(&expected), "portable n={} q={}", n, q);
            }
        }
    }
}
