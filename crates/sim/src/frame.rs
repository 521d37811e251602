//! Bit-parallel Pauli-frame trajectory engine for noisy Clifford circuits.
//!
//! The per-shot tableau trajectory path (the test oracle
//! [`crate::oracle::noisy_clifford_distribution_tableau`]) re-simulates
//! the full Aaronson–Gottesman tableau from `|0...0>` for every noisy shot —
//! O(gates × n) row sweeps per trajectory, plus a branch-tree enumeration
//! of the measurement distribution per shot. But injected Pauli errors
//! never change a tableau's X/Z parts, only its row *signs*: the noisy
//! state of a trajectory is `P · U|0...0>` for the single ideal Clifford
//! `U` and the propagated product `P` of that trajectory's injected
//! Paulis. Following Stim's frame simulation (Gidney, *Stim: a fast
//! stabilizer circuit simulator*), this module therefore runs the ideal
//! circuit **once** and propagates only the error frames.
//!
//! # Lane layout
//!
//! A frame is one Pauli string, stored as an x-bit and a z-bit per qubit.
//! The engine packs independent trajectories into [`FrameWords`]`<W>`
//! bit planes — `W` `u64` x-words and `W` z-words per qubit, lane `l` in
//! bit `l % 64` of word `l / 64`, so a block covers `W * 64` trajectories
//! ([`DEFAULT_FRAME_WORDS`] = 4 → 256 lanes per pass; `W` = 1 is the
//! original single-word layout and a bit-for-bit prefix of every wider
//! one). Each primitive Clifford conjugates all lanes with `W` word ops:
//!
//! * `H(q)`: swap `x[q]` and `z[q]`  (H X H = Z, H Z H = X)
//! * `S(q)`: `z[q] ^= x[q]`          (S X S† = Y, S Z S† = Z)
//! * `CX(a, b)`: `x[b] ^= x[a]`, `z[a] ^= z[b]`
//! * `X(q)` / `Z(q)`: no-op — Pauli conjugation only flips signs, and
//!   frames carry no sign (global phase never reaches a distribution).
//!
//! # Exactness
//!
//! The per-trajectory output distribution over the measured qubits is the
//! ideal distribution permuted by the frame's x-mask restricted to those
//! qubits: X-components on measured qubits flip outcome bits, X-components
//! elsewhere permute the marginalized-out assignments, and Z-components
//! only touch phases. Because Pauli injections leave the stabilizers' X/Z
//! parts untouched, every trajectory shares the ideal tableau's branch
//! structure: each probability is an exact dyadic `2^-r` (`r` = number of
//! random measured qubits), permutations preserve that, and sums of
//! `k · 2^-r` accumulate exactly in f64 regardless of order. The engine is
//! therefore **bit-for-bit equal** to the tableau trajectory path — per
//! trajectory and after averaging — as long as it consumes the same RNG
//! streams, which it does: one unconditional `f64` draw per noise site per
//! trajectory, in instruction order, from the trajectory's
//! [`TaskSeeds`]-split generator (asserted per trajectory by
//! `crates/sim/tests/frame_vs_tableau.rs`).
//!
//! Blocks of `W * 64` lanes dispatch as tasks over the work-stealing pool into
//! index-addressed partial histograms, reduced in block order — results
//! are bit-identical at any thread count. Frame words and partials come
//! from the per-thread workspace arenas, so steady-state propagation
//! performs no heap allocation.

use crate::clifford::{lower_instruction, LowerCliffordError};
use crate::noise::{apply_readout_error, CircuitNoise};
use crate::parallel::par_apply_blocks_indexed;
use crate::runtime::TaskSeeds;
use crate::stabilizer::{CliffordOp, Tableau};
use crate::workspace;
use elivagar_circuit::Circuit;
use elivagar_obs::metrics::{Stopwatch, FRAME_BLOCK_NS, FRAME_INJECTIONS, FRAME_TRAJECTORIES};
use rand::Rng;
use std::cell::RefCell;

/// Trajectories per frame word: the bit width of one `u64` lane word.
pub const FRAME_LANES: usize = 64;

/// Word count of the default block width used by the distribution path:
/// 4 words = 256 trajectories per pass. Wider blocks amortize the step
/// stream over more lanes and keep the word loops SIMD-friendly; results
/// are bit-identical at any width because lane seeding depends only on
/// the absolute trajectory index.
pub const DEFAULT_FRAME_WORDS: usize = 4;

/// A block-wide bit plane: `W` `u64` words holding one bit for each of
/// `W * 64` trajectory lanes. Lane `l` lives in bit `l % 64` of word
/// `l / 64`, so a `FrameWords<1>` plane is exactly the single-word layout
/// and wider planes are its bit-for-bit prefix extension. The per-word
/// loops compile to straight-line word ops (SIMD-friendly for `W` = 4/8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameWords<const W: usize> {
    words: [u64; W],
}

impl<const W: usize> FrameWords<W> {
    /// Trajectory lanes covered by one plane.
    pub const LANES: usize = FRAME_LANES * W;

    /// The all-zero plane.
    pub const ZERO: Self = FrameWords { words: [0; W] };

    /// The underlying lane words.
    pub fn words(&self) -> &[u64; W] {
        &self.words
    }

    /// Sets lane `l`'s bit.
    #[inline]
    pub fn set(&mut self, lane: usize) {
        self.words[lane / FRAME_LANES] |= 1 << (lane % FRAME_LANES);
    }

    /// Lane `l`'s bit as 0/1.
    #[inline]
    pub fn get(&self, lane: usize) -> u64 {
        (self.words[lane / FRAME_LANES] >> (lane % FRAME_LANES)) & 1
    }

    /// Population count across all lanes.
    #[inline]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Lane-wise OR.
    #[inline]
    #[must_use]
    pub fn or(&self, rhs: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(&rhs.words) {
            *a |= b;
        }
        out
    }

    /// XORs this plane into a `W`-word slice of a strided buffer.
    #[inline]
    fn xor_into(&self, dst: &mut [u64]) {
        for (d, w) in dst.iter_mut().zip(&self.words) {
            *d ^= w;
        }
    }
}

thread_local! {
    /// Pooled per-lane generators. A block is up to `W * 64` lanes wide —
    /// too many `StdRng`s for the stack at `W` > 1 — so each worker keeps
    /// one growable buffer whose capacity persists across blocks; the
    /// steady-state propagation path performs no heap allocation.
    static LANE_RNGS: RefCell<Vec<rand::rngs::StdRng>> = const { RefCell::new(Vec::new()) };
}

/// One step of a compiled frame program. Unitary steps update all 64
/// lanes with word ops; injection steps draw one `f64` per lane.
#[derive(Clone, Copy, Debug)]
enum FrameStep {
    H(u32),
    S(u32),
    Cx(u32, u32),
    /// A Pauli noise site with cumulative thresholds: a uniform draw `u`
    /// injects X when `u < tx`, Y when `tx <= u < txy`, Z when
    /// `txy <= u < txyz` — the same comparison ladder (and therefore the
    /// same floats) as the tableau oracle's
    /// [`crate::oracle::inject_pauli_tableau`].
    Inject { qubit: u32, tx: f64, txy: f64, txyz: f64 },
}

/// A Clifford circuit with Pauli-twirled noise, compiled for frame
/// propagation: the lowered primitive ops (for the one ideal run) plus a
/// flat step stream interleaving word ops with noise sites.
pub struct FrameSimulator {
    num_qubits: usize,
    measured: Vec<usize>,
    /// Every lowered primitive op in circuit order — replayed on a tableau
    /// once per call to produce the ideal distribution.
    ops: Vec<CliffordOp>,
    steps: Vec<FrameStep>,
}

impl FrameSimulator {
    /// Lowers the bound circuit and flattens its Pauli-twirled noise sites
    /// into a frame program.
    ///
    /// # Errors
    ///
    /// Returns [`LowerCliffordError`] if the circuit (with the given
    /// parameter values) is not Clifford.
    ///
    /// # Panics
    ///
    /// Panics if `noise.per_instruction` does not match the circuit
    /// length or the circuit measures no qubits.
    pub fn compile(
        circuit: &Circuit,
        params: &[f64],
        features: &[f64],
        noise: &CircuitNoise,
    ) -> Result<Self, LowerCliffordError> {
        assert!(!circuit.measured().is_empty(), "circuit measures no qubits");
        assert_eq!(noise.per_instruction.len(), circuit.len(), "noise length mismatch");
        let mut ops = Vec::new();
        let mut steps = Vec::new();
        for (ins, n) in circuit.instructions().iter().zip(&noise.per_instruction) {
            let values = ins.resolve_params(params, features);
            for op in lower_instruction(ins, &values)? {
                ops.push(op);
                match op {
                    CliffordOp::H(q) => steps.push(FrameStep::H(q as u32)),
                    CliffordOp::S(q) => steps.push(FrameStep::S(q as u32)),
                    CliffordOp::Cx(a, b) => steps.push(FrameStep::Cx(a as u32, b as u32)),
                    // Pauli ops only flip tableau signs; frames skip them.
                    CliffordOp::X(_) | CliffordOp::Z(_) => {}
                }
            }
            let errs = n.as_pauli_only();
            for (k, &q) in ins.qubits.iter().enumerate() {
                let e = &errs[k];
                let tx = e.px;
                let txy = e.px + e.py;
                steps.push(FrameStep::Inject {
                    qubit: q as u32,
                    tx,
                    txy,
                    txyz: txy + e.pz,
                });
            }
        }
        Ok(FrameSimulator {
            num_qubits: circuit.num_qubits(),
            measured: circuit.measured().to_vec(),
            ops,
            steps,
        })
    }

    /// Number of qubits in the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Exact noiseless output distribution over the measured qubits —
    /// the same op sequence as [`crate::clifford::run_clifford`], so the
    /// floats (exact dyadics) are bit-identical to that path.
    pub fn ideal_distribution(&self) -> Vec<f64> {
        let mut t = Tableau::new(self.num_qubits);
        t.apply_all(&self.ops);
        t.measurement_distribution(&self.measured)
    }

    /// Propagates frame lanes `lane0 .. lane0 + count` through a single
    /// `u64`-word block and writes each lane's measured-qubit x-mask
    /// (bit `k` = flip of `measured[k]`) into `out[..count]`; the
    /// remaining lanes are zeroed. Lane `l` draws from
    /// `seeds.rng(lane0 + l)`, consuming exactly the per-trajectory stream
    /// the tableau path would. Allocation-free after workspace warmup.
    pub fn block_masks(
        &self,
        seeds: &TaskSeeds,
        lane0: usize,
        count: usize,
        out: &mut [u64; FRAME_LANES],
    ) {
        self.block_masks_words::<1>(seeds, lane0, count, out);
    }

    /// [`Self::block_masks`] generalized to `W`-word blocks of
    /// `W * 64` lanes. `out` must be exactly `W * 64` masks long. Lane
    /// seeding depends only on the absolute trajectory index
    /// (`lane0 + l`), and each lane's draws happen in step order from its
    /// own generator, so a `W`-word block produces bit-for-bit the masks
    /// of `W` consecutive single-word blocks — the single-word result is
    /// a prefix of every wider layout. Allocation-free after warmup.
    ///
    /// # Panics
    ///
    /// Panics if `count` is not in `1..=W * 64` or `out` has the wrong
    /// length.
    pub fn block_masks_words<const W: usize>(
        &self,
        seeds: &TaskSeeds,
        lane0: usize,
        count: usize,
        out: &mut [u64],
    ) {
        let lanes = FrameWords::<W>::LANES;
        assert!((1..=lanes).contains(&count), "bad lane count {count} for {W}-word block");
        assert_eq!(out.len(), lanes, "mask buffer length mismatch");
        let sw = Stopwatch::start();
        let n = self.num_qubits;
        // Per-qubit planes live in strided workspace buffers: qubit `q`'s
        // x-plane is `x[q * W .. (q + 1) * W]`.
        let mut x = workspace::acquire_word_buffer();
        x.resize(n * W, 0);
        let mut z = workspace::acquire_word_buffer();
        z.resize(n * W, 0);
        let mut hits = 0u64;
        LANE_RNGS.with(|cell| {
            let mut rngs = cell.borrow_mut();
            rngs.clear();
            rngs.extend((0..count).map(|l| seeds.rng(lane0 + l)));
            for step in &self.steps {
                match *step {
                    FrameStep::H(q) => {
                        let q = q as usize * W;
                        for w in 0..W {
                            std::mem::swap(&mut x[q + w], &mut z[q + w]);
                        }
                    }
                    FrameStep::S(q) => {
                        let q = q as usize * W;
                        for w in 0..W {
                            z[q + w] ^= x[q + w];
                        }
                    }
                    FrameStep::Cx(a, b) => {
                        let (a, b) = (a as usize * W, b as usize * W);
                        for w in 0..W {
                            x[b + w] ^= x[a + w];
                            z[a + w] ^= z[b + w];
                        }
                    }
                    FrameStep::Inject { qubit, tx, txy, txyz } => {
                        let mut xw = FrameWords::<W>::ZERO;
                        let mut zw = FrameWords::<W>::ZERO;
                        for (lane, rng) in rngs.iter_mut().enumerate() {
                            let u: f64 = rng.random();
                            if u < tx {
                                xw.set(lane);
                            } else if u < txy {
                                xw.set(lane);
                                zw.set(lane);
                            } else if u < txyz {
                                zw.set(lane);
                            }
                        }
                        let q = qubit as usize * W;
                        xw.xor_into(&mut x[q..q + W]);
                        zw.xor_into(&mut z[q..q + W]);
                        hits += xw.or(&zw).count_ones();
                    }
                }
            }
        });
        out.fill(0);
        for (k, &q) in self.measured.iter().enumerate() {
            let xws = &x[q * W..(q + 1) * W];
            for (lane, mask) in out[..count].iter_mut().enumerate() {
                *mask |= ((xws[lane / FRAME_LANES] >> (lane % FRAME_LANES)) & 1) << k;
            }
        }
        workspace::release_word_buffer(x);
        workspace::release_word_buffer(z);
        FRAME_TRAJECTORIES.add(count as u64);
        FRAME_INJECTIONS.add(hits);
        sw.record(&FRAME_BLOCK_NS);
    }

    /// Measured-qubit x-masks for trajectories `0..num_trajectories` —
    /// the per-trajectory view used by the differential test suite.
    pub fn trajectory_masks(&self, seeds: &TaskSeeds, num_trajectories: usize) -> Vec<u64> {
        self.trajectory_masks_words::<1>(seeds, num_trajectories)
    }

    /// [`Self::trajectory_masks`] computed through `W`-word blocks — by
    /// the prefix property the result is identical for every `W`.
    pub fn trajectory_masks_words<const W: usize>(
        &self,
        seeds: &TaskSeeds,
        num_trajectories: usize,
    ) -> Vec<u64> {
        let lanes = FrameWords::<W>::LANES;
        let mut masks = vec![0u64; num_trajectories];
        let mut block = vec![0u64; lanes];
        for (c, chunk) in masks.chunks_mut(lanes).enumerate() {
            self.block_masks_words::<W>(seeds, c * lanes, chunk.len(), &mut block);
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
        masks
    }
}

/// Average output distribution of a noisy *Clifford* circuit over
/// bit-parallel Pauli-frame trajectories with Pauli-twirled noise,
/// including readout error. This is the execution engine behind CNR.
///
/// Bit-for-bit equal to the per-shot tableau oracle
/// ([`crate::oracle::noisy_clifford_distribution_tableau`]) under the same
/// `rng` state — asserted per trajectory by
/// `crates/sim/tests/frame_vs_tableau.rs` — and independent of the thread
/// count.
///
/// # Errors
///
/// Returns [`LowerCliffordError`] if the bound circuit is not Clifford.
/// The error is detected before any RNG draw, so callers can fall back to
/// another engine with `rng` untouched.
///
/// # Panics
///
/// Panics under the same shape mismatches as
/// [`crate::trajectory::noisy_distribution`].
pub fn noisy_clifford_distribution<R: Rng + ?Sized>(
    circuit: &Circuit,
    params: &[f64],
    features: &[f64],
    noise: &CircuitNoise,
    num_trajectories: usize,
    rng: &mut R,
) -> Result<Vec<f64>, LowerCliffordError> {
    noisy_clifford_distribution_frames_with_ideal(
        circuit,
        params,
        features,
        noise,
        num_trajectories,
        rng,
    )
    .map(|d| d.noisy)
}

/// The ideal and noisy distributions produced by one frame-engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameDistributions {
    /// Noiseless output distribution (no readout error) — what
    /// [`crate::clifford::run_clifford`] + `measurement_distribution`
    /// would produce, bit-for-bit.
    pub ideal: Vec<f64>,
    /// Trajectory-averaged noisy distribution with readout error applied.
    pub noisy: Vec<f64>,
}

/// [`noisy_clifford_distribution`] returning the ideal
/// distribution alongside the noisy one. The engine computes the ideal
/// run anyway to reconstruct the noisy histogram, so callers comparing
/// the two (CNR's fidelity) get it for free instead of re-simulating.
///
/// # Errors
///
/// Returns [`LowerCliffordError`] if the bound circuit is not Clifford,
/// before any RNG draw.
///
/// # Panics
///
/// Panics under the same shape mismatches as the tableau path.
pub fn noisy_clifford_distribution_frames_with_ideal<R: Rng + ?Sized>(
    circuit: &Circuit,
    params: &[f64],
    features: &[f64],
    noise: &CircuitNoise,
    num_trajectories: usize,
    rng: &mut R,
) -> Result<FrameDistributions, LowerCliffordError> {
    assert!(num_trajectories > 0, "need at least one trajectory");
    assert_eq!(noise.readout.len(), circuit.measured().len(), "readout length mismatch");
    let sim = FrameSimulator::compile(circuit, params, features, noise)?;
    let ideal = sim.ideal_distribution();
    let dim = ideal.len();
    // One u64 draw, exactly like the tableau path: downstream consumers of
    // `rng` see the same stream whichever engine ran.
    let seeds = TaskSeeds::from_rng(rng);
    // Wide blocks: 4 words = 256 lanes per pass. Lane seeding is keyed on
    // the absolute trajectory index and the dyadic addends sum exactly in
    // any order, so the histogram is bit-identical to the single-word
    // block structure (and to the tableau path).
    const BLOCK_LANES: usize = FRAME_LANES * DEFAULT_FRAME_WORDS;
    let blocks = num_trajectories.div_ceil(BLOCK_LANES);
    let mut partials = workspace::acquire_real_buffer();
    partials.resize(blocks * dim, 0.0);
    par_apply_blocks_indexed(&mut partials, dim, |c, acc| {
        let lane0 = c * BLOCK_LANES;
        let count = BLOCK_LANES.min(num_trajectories - lane0);
        let mut masks = [0u64; BLOCK_LANES];
        sim.block_masks_words::<DEFAULT_FRAME_WORDS>(&seeds, lane0, count, &mut masks);
        // Histogram the distinct masks so each permutation of the ideal
        // distribution is applied once with an integer weight. The sort is
        // in-place on the stack array; reordering lanes cannot change the
        // sum because every addend is an exact dyadic.
        let lanes = &mut masks[..count];
        lanes.sort_unstable();
        let mut i = 0;
        while i < count {
            let mask = lanes[i] as usize;
            let mut j = i + 1;
            while j < count && lanes[j] as usize == mask {
                j += 1;
            }
            let weight = (j - i) as f64;
            for (idx, a) in acc.iter_mut().enumerate() {
                *a += weight * ideal[idx ^ mask];
            }
            i = j;
        }
    });
    let mut acc = vec![0.0; dim];
    for part in partials.chunks_exact(dim) {
        for (a, p) in acc.iter_mut().zip(part) {
            *a += p;
        }
    }
    workspace::release_real_buffer(partials);
    for a in &mut acc {
        *a /= num_trajectories as f64;
    }
    Ok(FrameDistributions {
        ideal,
        noisy: apply_readout_error(&acc, &noise.readout),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::tvd;
    use crate::statevector::StateVector;
    use elivagar_circuit::{Circuit, Gate, ParamExpr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    fn clifford_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::constant(PI / 2.0)]);
        c.push_gate(Gate::Cx, &[0, 2], &[]);
        c.push_gate(Gate::Cz, &[1, 2], &[]);
        c.push_gate(Gate::Ry, &[2], &[ParamExpr::constant(3.0 * PI / 2.0)]);
        c.set_measured(vec![0, 1, 2]);
        c
    }

    #[test]
    fn noiseless_frames_reproduce_the_ideal_distribution() {
        let c = clifford_circuit();
        let noise = CircuitNoise::noiseless(&[1, 1, 2, 2, 1], 3);
        let mut rng = StdRng::seed_from_u64(1);
        let d = noisy_clifford_distribution_frames_with_ideal(&c, &[], &[], &noise, 100, &mut rng)
            .unwrap();
        for (a, b) in d.noisy.iter().zip(&d.ideal) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let exact = StateVector::run(&c, &[], &[]).marginal_probabilities(c.measured());
        assert!(tvd(&d.ideal, &exact) < 1e-12);
    }

    #[test]
    fn noisy_frames_converge_to_statevector_trajectories() {
        let c = clifford_circuit();
        let noise = CircuitNoise::uniform(&[1, 1, 2, 2, 1], 3, 0.02, 0.05, 0.01);
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(3);
        let d_frame =
            noisy_clifford_distribution(&c, &[], &[], &noise, 6000, &mut rng1).unwrap();
        let d_sv = crate::trajectory::noisy_distribution(&c, &[], &[], &noise, 6000, &mut rng2);
        assert!(tvd(&d_frame, &d_sv) < 0.03, "{d_frame:?} vs {d_sv:?}");
    }

    #[test]
    fn non_clifford_circuit_is_rejected_without_touching_rng() {
        let mut c = Circuit::new(1);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::constant(0.3)]);
        c.set_measured(vec![0]);
        let noise = CircuitNoise::noiseless(&[1], 1);
        let mut rng = StdRng::seed_from_u64(4);
        let before = rng.clone();
        assert!(noisy_clifford_distribution(&c, &[], &[], &noise, 4, &mut rng).is_err());
        let mut before = before;
        assert_eq!(rng.random::<u64>(), before.random::<u64>());
    }

    #[test]
    fn wide_blocks_match_single_word_blocks() {
        let c = clifford_circuit();
        let noise = CircuitNoise::uniform(&[1, 1, 2, 2, 1], 3, 0.1, 0.1, 0.05);
        let sim = FrameSimulator::compile(&c, &[], &[], &noise).unwrap();
        let seeds = TaskSeeds::from_base(7);
        // 700 lanes is ragged for every width: 10×64+60, 2×256+188, 1×512+188.
        let narrow = sim.trajectory_masks_words::<1>(&seeds, 700);
        assert_eq!(narrow, sim.trajectory_masks(&seeds, 700));
        assert_eq!(narrow, sim.trajectory_masks_words::<4>(&seeds, 700));
        assert_eq!(narrow, sim.trajectory_masks_words::<8>(&seeds, 700));
    }

    #[test]
    fn masks_are_independent_of_block_boundaries() {
        let c = clifford_circuit();
        let noise = CircuitNoise::uniform(&[1, 1, 2, 2, 1], 3, 0.1, 0.1, 0.05);
        let sim = FrameSimulator::compile(&c, &[], &[], &noise).unwrap();
        let seeds = TaskSeeds::from_base(99);
        let all = sim.trajectory_masks(&seeds, 130);
        // Recompute a mid-stream slice as its own (short) block: lane
        // seeding depends only on the absolute trajectory index.
        let mut block = [0u64; FRAME_LANES];
        sim.block_masks(&seeds, 64, 64, &mut block);
        assert_eq!(&all[64..128], &block[..64]);
        sim.block_masks(&seeds, 128, 2, &mut block);
        assert_eq!(&all[128..130], &block[..2]);
        assert!(block[2..].iter().all(|&m| m == 0));
    }
}
