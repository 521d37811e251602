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
//! The engine packs [`BLOCK_LANES`] = 256 independent trajectories into
//! bit planes of four `u64` x-words and four z-words per qubit, lane `l`
//! in bit `l % 64` of word `l / 64`. Each primitive Clifford conjugates
//! all lanes with four word ops:
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
//! Lane seeding depends only on the absolute trajectory index, so which
//! trajectories share a block never changes a drawn float. Blocks
//! dispatch as tasks over the work-stealing pool into index-addressed
//! partial histograms, reduced in block order — results are bit-identical
//! at any thread count. Frame words and partials come from the per-thread
//! workspace arenas, so steady-state propagation performs no heap
//! allocation.

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

/// `u64` words per lane plane: four words of 64 lanes per block.
const WORDS: usize = 4;

/// Trajectories per frame block: the lanes one pass through the step
/// stream propagates, and the unit the pool dispatches.
pub const BLOCK_LANES: usize = 64 * WORDS;

thread_local! {
    /// Pooled per-lane generators. A block is up to [`BLOCK_LANES`] wide —
    /// too many `StdRng`s for the stack — so each worker keeps one
    /// growable buffer whose capacity persists across blocks; the
    /// steady-state propagation path performs no heap allocation.
    static LANE_RNGS: RefCell<Vec<rand::rngs::StdRng>> = const { RefCell::new(Vec::new()) };
}

/// One step of a compiled frame program. Unitary steps update all
/// [`BLOCK_LANES`] lanes with word ops; injection steps draw one `f64` per
/// lane.
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
    /// Every lowered primitive op in circuit order — replayed on a fresh
    /// tableau to produce the ideal distribution.
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

    /// Exact noiseless output distribution over the measured qubits (no
    /// readout error): the lowered ops replayed on a [`Tableau`] from
    /// `|0...0>`. Every probability is an exact dyadic.
    pub fn ideal_distribution(&self) -> Vec<f64> {
        let mut t = Tableau::new(self.num_qubits);
        t.apply_all(&self.ops);
        t.measurement_distribution(&self.measured)
    }

    /// Propagates frame lanes `lane0 .. lane0 + count` through one block
    /// and writes each lane's measured-qubit x-mask (bit `k` = flip of
    /// `measured[k]`) into `out[..count]`; the remaining lanes are zeroed.
    /// Lane `l` draws from `seeds.rng(lane0 + l)`, consuming exactly the
    /// per-trajectory stream the tableau path would, so a lane's mask
    /// depends on its absolute index alone, never on where its block
    /// starts. Allocation-free after workspace warmup.
    ///
    /// # Panics
    ///
    /// Panics if `count` is not in `1..=BLOCK_LANES`.
    pub fn block_masks(
        &self,
        seeds: &TaskSeeds,
        lane0: usize,
        count: usize,
        out: &mut [u64; BLOCK_LANES],
    ) {
        assert!((1..=BLOCK_LANES).contains(&count), "bad lane count {count} for a frame block");
        let sw = Stopwatch::start();
        let n = self.num_qubits;
        // Per-qubit planes live in strided workspace buffers: qubit `q`'s
        // x-plane is `x[q * WORDS .. (q + 1) * WORDS]`.
        let mut x = workspace::acquire_word_buffer();
        x.resize(n * WORDS, 0);
        let mut z = workspace::acquire_word_buffer();
        z.resize(n * WORDS, 0);
        let mut hits = 0u64;
        LANE_RNGS.with(|cell| {
            let mut rngs = cell.borrow_mut();
            rngs.clear();
            rngs.extend((0..count).map(|l| seeds.rng(lane0 + l)));
            for step in &self.steps {
                match *step {
                    FrameStep::H(q) => {
                        let q = q as usize * WORDS;
                        for w in 0..WORDS {
                            std::mem::swap(&mut x[q + w], &mut z[q + w]);
                        }
                    }
                    FrameStep::S(q) => {
                        let q = q as usize * WORDS;
                        for w in 0..WORDS {
                            z[q + w] ^= x[q + w];
                        }
                    }
                    FrameStep::Cx(a, b) => {
                        let (a, b) = (a as usize * WORDS, b as usize * WORDS);
                        for w in 0..WORDS {
                            x[b + w] ^= x[a + w];
                            z[a + w] ^= z[b + w];
                        }
                    }
                    FrameStep::Inject { qubit, tx, txy, txyz } => {
                        let mut xw = [0u64; WORDS];
                        let mut zw = [0u64; WORDS];
                        for (lane, rng) in rngs.iter_mut().enumerate() {
                            let u: f64 = rng.random();
                            if u < tx {
                                xw[lane / 64] |= 1 << (lane % 64);
                            } else if u < txy {
                                xw[lane / 64] |= 1 << (lane % 64);
                                zw[lane / 64] |= 1 << (lane % 64);
                            } else if u < txyz {
                                zw[lane / 64] |= 1 << (lane % 64);
                            }
                        }
                        let q = qubit as usize * WORDS;
                        let planes = x[q..q + WORDS].iter_mut().zip(&mut z[q..q + WORDS]);
                        for ((xd, zd), (xa, za)) in planes.zip(xw.iter().zip(&zw)) {
                            *xd ^= xa;
                            *zd ^= za;
                            hits += u64::from((xa | za).count_ones());
                        }
                    }
                }
            }
        });
        out.fill(0);
        for (k, &q) in self.measured.iter().enumerate() {
            let xws = &x[q * WORDS..(q + 1) * WORDS];
            for (lane, mask) in out[..count].iter_mut().enumerate() {
                *mask |= ((xws[lane / 64] >> (lane % 64)) & 1) << k;
            }
        }
        workspace::release_word_buffer(x);
        workspace::release_word_buffer(z);
        FRAME_TRAJECTORIES.add(count as u64);
        FRAME_INJECTIONS.add(hits);
        sw.record(&FRAME_BLOCK_NS);
    }

    /// Measured-qubit x-masks for trajectories `0..num_trajectories`,
    /// block by block — the per-trajectory view used by the differential
    /// test suite.
    pub fn trajectory_masks(&self, seeds: &TaskSeeds, num_trajectories: usize) -> Vec<u64> {
        let mut masks = vec![0u64; num_trajectories];
        let mut block = [0u64; BLOCK_LANES];
        for (c, chunk) in masks.chunks_mut(BLOCK_LANES).enumerate() {
            self.block_masks(seeds, c * BLOCK_LANES, chunk.len(), &mut block);
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
        masks
    }
}

/// The ideal and noisy distributions produced by one frame-engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameDistributions {
    /// Noiseless output distribution (no readout error), as
    /// [`FrameSimulator::ideal_distribution`] produces it.
    pub ideal: Vec<f64>,
    /// Trajectory-averaged noisy distribution with readout error applied.
    pub noisy: Vec<f64>,
}

/// Average output distribution of a noisy *Clifford* circuit over
/// bit-parallel Pauli-frame trajectories with Pauli-twirled noise,
/// including readout error, returned with the ideal distribution the
/// engine reconstructs it from. This is the execution engine behind CNR,
/// which compares the two.
///
/// The noisy side is bit-for-bit equal to the per-shot tableau oracle
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
) -> Result<FrameDistributions, LowerCliffordError> {
    assert!(num_trajectories > 0, "need at least one trajectory");
    assert_eq!(noise.readout.len(), circuit.measured().len(), "readout length mismatch");
    let sim = FrameSimulator::compile(circuit, params, features, noise)?;
    let ideal = sim.ideal_distribution();
    let dim = ideal.len();
    // One u64 draw, exactly like the tableau path: downstream consumers of
    // `rng` see the same stream whichever engine ran.
    let seeds = TaskSeeds::from_rng(rng);
    let blocks = num_trajectories.div_ceil(BLOCK_LANES);
    let mut partials = workspace::acquire_real_buffer();
    partials.resize(blocks * dim, 0.0);
    par_apply_blocks_indexed(&mut partials, dim, |c, acc| {
        let lane0 = c * BLOCK_LANES;
        let count = BLOCK_LANES.min(num_trajectories - lane0);
        let mut masks = [0u64; BLOCK_LANES];
        sim.block_masks(&seeds, lane0, count, &mut masks);
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
        let d = noisy_clifford_distribution(&c, &[], &[], &noise, 100, &mut rng).unwrap();
        for (a, b) in d.noisy.iter().zip(&d.ideal) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let exact = StateVector::run(&c, &[], &[]).marginal_probabilities(c.measured());
        assert!(tvd(&d.ideal, &exact) < 1e-12);
    }

    #[test]
    fn ideal_distribution_matches_statevector() {
        // Rotations on their Clifford grids, including a two-qubit Rzz,
        // lowered and replayed on the tableau CNR's ideal run uses.
        let mut c = Circuit::new(3);
        c.push_gate(Gate::H, &[0], &[]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::constant(PI / 2.0)]);
        c.push_gate(Gate::Cx, &[0, 2], &[]);
        c.push_gate(Gate::Rzz, &[1, 2], &[ParamExpr::constant(PI)]);
        c.push_gate(Gate::Ry, &[2], &[ParamExpr::constant(3.0 * PI / 2.0)]);
        c.set_measured(vec![0, 1, 2]);
        let noise = CircuitNoise::noiseless(&[1, 1, 2, 2, 1], 3);
        let dist_tab = FrameSimulator::compile(&c, &[], &[], &noise).unwrap().ideal_distribution();
        let dist_sv = StateVector::run(&c, &[], &[]).marginal_probabilities(&[0, 1, 2]);
        assert_eq!(dist_tab.len(), dist_sv.len());
        for (a, b) in dist_tab.iter().zip(&dist_sv) {
            assert!((a - b).abs() < 1e-9, "{dist_tab:?} vs {dist_sv:?}");
        }
    }

    #[test]
    fn noisy_frames_converge_to_statevector_trajectories() {
        let c = clifford_circuit();
        let noise = CircuitNoise::uniform(&[1, 1, 2, 2, 1], 3, 0.02, 0.05, 0.01);
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(3);
        let d_frame =
            noisy_clifford_distribution(&c, &[], &[], &noise, 6000, &mut rng1).unwrap().noisy;
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
    fn masks_are_independent_of_block_boundaries() {
        let c = clifford_circuit();
        let noise = CircuitNoise::uniform(&[1, 1, 2, 2, 1], 3, 0.1, 0.1, 0.05);
        let sim = FrameSimulator::compile(&c, &[], &[], &noise).unwrap();
        let seeds = TaskSeeds::from_base(99);
        let all = sim.trajectory_masks(&seeds, 600);
        // Recompute slices that straddle the 256-lane block edges as
        // blocks of their own: lane seeding depends only on the absolute
        // trajectory index.
        let mut block = [0u64; BLOCK_LANES];
        sim.block_masks(&seeds, 200, BLOCK_LANES, &mut block);
        assert_eq!(&all[200..456], &block[..]);
        sim.block_masks(&seeds, 598, 2, &mut block);
        assert_eq!(&all[598..600], &block[..2]);
        assert!(block[2..].iter().all(|&m| m == 0));
    }
}
