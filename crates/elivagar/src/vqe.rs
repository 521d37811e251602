//! Extension: Elivagar-style ansatz search for Variational Quantum
//! Eigensolvers.
//!
//! The paper's related work (Section 10.3) notes that QCS frameworks for
//! VQAs exist but adopt the same expensive classically-inspired designs,
//! and that Elivagar's ideas transfer. This module demonstrates exactly
//! that transfer on the transverse-field Ising model (TFIM): candidate
//! ansaetze come from the same device- and noise-aware generator
//! (Algorithm 1 without data embeddings), low-fidelity candidates are
//! rejected with CNR, and the survivors are ranked by a brief
//! energy-descent probe instead of RepCap (there is no classification
//! structure to exploit for a VQE).

use crate::cnr::{cnr, reject_low_fidelity};
use crate::config::{EmbeddingPolicy, SearchConfig};
use crate::generate::{generate_candidate, Candidate};
use elivagar_circuit::{Circuit, Gate};
use elivagar_device::Device;
use elivagar_sim::{AdjointProgram, StateVector, ZObservable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A transverse-field Ising Hamiltonian on a line of `n` spins:
/// `H = -J sum_i Z_i Z_{i+1} - h sum_i X_i`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransverseFieldIsing {
    /// Number of spins.
    pub num_spins: usize,
    /// Coupling strength `J`.
    pub coupling: f64,
    /// Transverse field strength `h`.
    pub field: f64,
}

impl TransverseFieldIsing {
    /// Creates the Hamiltonian.
    ///
    /// # Panics
    ///
    /// Panics if `num_spins < 2`.
    pub fn new(num_spins: usize, coupling: f64, field: f64) -> Self {
        assert!(num_spins >= 2, "TFIM needs at least two spins");
        TransverseFieldIsing { num_spins, coupling, field }
    }

    /// The diagonal (ZZ) part as an observable.
    fn zz_part(&self) -> ZObservable {
        let mut obs = ZObservable::new(vec![]);
        for i in 0..self.num_spins - 1 {
            obs = obs.with_zz(i, i + 1, -self.coupling);
        }
        obs
    }

    /// The transverse part expressed as single-Z terms *after* a Hadamard
    /// basis change on every spin.
    fn x_part_rotated(&self) -> ZObservable {
        ZObservable::new((0..self.num_spins).map(|q| (q, -self.field)).collect())
    }

    /// Energy of the ansatz state at the given parameters.
    ///
    /// The X part is measured by appending a Hadamard layer (the standard
    /// two-setting measurement of a TFIM), so each energy evaluation costs
    /// two circuit executions on hardware.
    pub fn energy(&self, ansatz: &Circuit, params: &[f64]) -> f64 {
        let psi = StateVector::run(ansatz, params, &[]);
        let e_zz = self.zz_part().expectation(&psi);
        let mut rotated = psi;
        for q in 0..self.num_spins {
            rotated.apply_mat1(q, &Gate::H.matrix1(&[]));
        }
        e_zz + self.x_part_rotated().expectation(&rotated)
    }

    /// Energy gradient with respect to the ansatz parameters (adjoint, two
    /// passes: one per measurement setting).
    pub fn energy_gradient(&self, ansatz: &Circuit, params: &[f64]) -> (f64, Vec<f64>) {
        let g_zz = AdjointProgram::compile(ansatz).gradient(params, &[], &self.zz_part());
        // For the X part, differentiate the circuit extended by the
        // Hadamard layer (parameter-free, so gradients map one-to-one).
        let mut extended = ansatz.clone();
        for q in 0..self.num_spins {
            extended.push_gate(Gate::H, &[q], &[]);
        }
        let g_x = AdjointProgram::compile(&extended).gradient(params, &[], &self.x_part_rotated());
        let energy = g_zz.expectation + g_x.expectation;
        let grad = g_zz
            .params
            .iter()
            .zip(&g_x.params)
            .map(|(a, b)| a + b)
            .collect();
        (energy, grad)
    }

    /// Exact ground-state energy by dense diagonalization-free search:
    /// power iteration on `c - H` (the Hamiltonian is small and dense
    /// simulation is available, so this is exact to tolerance).
    pub fn exact_ground_energy(&self) -> f64 {
        let n = self.num_spins;
        let dim = 1usize << n;
        // Apply H to a dense vector: diagonal part + X flips.
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; dim];
            for (i, &a) in v.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                // Diagonal ZZ part.
                let mut diag = 0.0;
                for q in 0..n - 1 {
                    let za = i & (1 << q) == 0;
                    let zb = i & (1 << (q + 1)) == 0;
                    diag += if za == zb { -self.coupling } else { self.coupling };
                }
                out[i] += diag * a;
                // Off-diagonal -h X_q.
                for q in 0..n {
                    out[i ^ (1 << q)] += -self.field * a;
                }
            }
            out
        };
        // Shifted power iteration on (c*I - H) converges to the ground
        // state for c above the spectral radius.
        let shift = self.coupling.abs() * n as f64 + self.field.abs() * n as f64 + 1.0;
        let mut v: Vec<f64> = (0..dim).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut energy = 0.0;
        for _ in 0..2000 {
            let hv = apply(&v);
            let mut next: Vec<f64> = v
                .iter()
                .zip(&hv)
                .map(|(&vi, &hvi)| shift * vi - hvi)
                .collect();
            let norm: f64 = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            for x in &mut next {
                *x /= norm;
            }
            let hv_next = apply(&next);
            let new_energy: f64 = next.iter().zip(&hv_next).map(|(a, b)| a * b).sum();
            let done = (new_energy - energy).abs() < 1e-10;
            energy = new_energy;
            v = next;
            if done {
                break;
            }
        }
        energy
    }
}

/// Result of optimizing one ansatz.
#[derive(Clone, Debug, PartialEq)]
pub struct VqeOutcome {
    /// Final parameters.
    pub params: Vec<f64>,
    /// Final energy.
    pub energy: f64,
}

/// Optimizes an ansatz with Adam for `steps` iterations from a seeded
/// random start.
pub fn optimize_ansatz(
    hamiltonian: &TransverseFieldIsing,
    ansatz: &Circuit,
    steps: usize,
    learning_rate: f64,
    seed: u64,
) -> VqeOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params: Vec<f64> = (0..ansatz.num_trainable_params())
        .map(|_| rng.random_range(-0.5..0.5))
        .collect();
    let mut opt = elivagar_ml::Adam::new(params.len(), learning_rate);
    let mut energy = f64::INFINITY;
    for _ in 0..steps {
        let (e, grad) = hamiltonian.energy_gradient(ansatz, &params);
        opt.step(&mut params, &grad);
        energy = e;
    }
    VqeOutcome { params, energy }
}

/// Result of a VQE ansatz search.
#[derive(Clone, Debug, PartialEq)]
pub struct VqeSearchResult {
    /// The selected candidate.
    pub best: Candidate,
    /// Its optimized outcome.
    pub outcome: VqeOutcome,
    /// Energies of all probed candidates (after the brief descent probe).
    pub probe_energies: Vec<f64>,
}

/// Searches for a VQE ansatz Elivagar-style: device/noise-aware candidate
/// generation, CNR rejection, then a short energy-descent probe on the
/// survivors; the lowest probe energy wins and is optimized fully.
///
/// # Panics
///
/// Panics if the configuration does not match the Hamiltonian's spin
/// count.
pub fn search_vqe_ansatz(
    device: &Device,
    hamiltonian: &TransverseFieldIsing,
    config: &SearchConfig,
    probe_steps: usize,
    final_steps: usize,
) -> VqeSearchResult {
    assert_eq!(
        config.num_qubits, hamiltonian.num_spins,
        "config qubit count must match the Hamiltonian"
    );
    let mut config = config.clone();
    // A VQE ansatz embeds no data.
    config.num_embed_gates = 0;
    config.embedding = EmbeddingPolicy::Searched;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let candidates: Vec<Candidate> = (0..config.num_candidates)
        .map(|_| generate_candidate(device, &config, &mut rng))
        .collect();

    // CNR rejection, as in the classification pipeline.
    let cnrs: Vec<f64> = candidates
        .iter()
        .map(|c| cnr(c, device, &config, &mut rng).expect("device-aware candidate").cnr)
        .collect();
    let survivors = reject_low_fidelity(&cnrs, config.cnr_threshold, config.cnr_keep_fraction);

    // Brief descent probe on the survivors.
    let mut probe_energies = vec![f64::INFINITY; candidates.len()];
    for &i in &survivors {
        let probe = optimize_ansatz(hamiltonian, &candidates[i].circuit, probe_steps, 0.1, 7);
        probe_energies[i] = probe.energy;
    }
    let best_index = survivors
        .iter()
        .copied()
        .min_by(|&a, &b| {
            probe_energies[a]
                .partial_cmp(&probe_energies[b])
                .expect("finite probe energies")
        })
        .expect("at least one survivor");

    let outcome = optimize_ansatz(
        hamiltonian,
        &candidates[best_index].circuit,
        final_steps,
        0.05,
        11,
    );
    VqeSearchResult {
        best: candidates[best_index].clone(),
        outcome,
        probe_energies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::ParamExpr;
    use elivagar_device::devices::ibm_lagos;

    #[test]
    fn exact_ground_energy_matches_known_small_cases() {
        // Two spins, J=1, h=1: H = -Z0 Z1 - X0 - X1; ground energy
        // -sqrt(1 + 4) ... compute directly: eigenvalues of 4x4 matrix are
        // known to be -(1 + 2*sqrt(...)); verify against brute force.
        let h = TransverseFieldIsing::new(2, 1.0, 1.0);
        // Brute-force 4x4 eigenvalue via dense power iteration is what the
        // method does; cross-check with the analytic value
        // E0 = -sqrt(J^2 + 4h^2) for the 2-spin TFIM with open boundary.
        let expected = -(1.0f64 + 4.0).sqrt();
        assert!(
            (h.exact_ground_energy() - expected).abs() < 1e-6,
            "got {}, expected {expected}",
            h.exact_ground_energy()
        );
    }

    #[test]
    fn energy_matches_hand_computed_states() {
        let h = TransverseFieldIsing::new(2, 1.0, 0.5);
        // |00>: <ZZ> = 1 -> E = -J = -1 (X part has zero expectation).
        let c = Circuit::new(2);
        assert!((h.energy(&c, &[]) + 1.0).abs() < 1e-12);
        // |++>: <X> = 1 each -> E = -2h = -1; ZZ part zero.
        let mut plus = Circuit::new(2);
        plus.push_gate(Gate::H, &[0], &[]);
        plus.push_gate(Gate::H, &[1], &[]);
        assert!((h.energy(&plus, &[]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let h = TransverseFieldIsing::new(3, 1.0, 0.7);
        let mut ansatz = Circuit::new(3);
        ansatz.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        ansatz.push_gate(Gate::Cx, &[0, 1], &[]);
        ansatz.push_gate(Gate::Ry, &[1], &[ParamExpr::trainable(1)]);
        ansatz.push_gate(Gate::Cx, &[1, 2], &[]);
        ansatz.push_gate(Gate::Rx, &[2], &[ParamExpr::trainable(2)]);
        let params = [0.4, -0.8, 1.1];
        let (_, grad) = h.energy_gradient(&ansatz, &params);
        let eps = 1e-6;
        for k in 0..3 {
            let mut plus = params;
            let mut minus = params;
            plus[k] += eps;
            minus[k] -= eps;
            let fd = (h.energy(&ansatz, &plus) - h.energy(&ansatz, &minus)) / (2.0 * eps);
            assert!((grad[k] - fd).abs() < 1e-6, "param {k}: {} vs {fd}", grad[k]);
        }
    }

    #[test]
    fn optimization_approaches_the_ground_state() {
        let h = TransverseFieldIsing::new(3, 1.0, 0.5);
        let exact = h.exact_ground_energy();
        // A hardware-efficient ansatz with enough parameters.
        let mut ansatz = Circuit::new(3);
        let mut p = 0;
        for _ in 0..3 {
            for q in 0..3 {
                ansatz.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(p)]);
                p += 1;
            }
            ansatz.push_gate(Gate::Cx, &[0, 1], &[]);
            ansatz.push_gate(Gate::Cx, &[1, 2], &[]);
        }
        let outcome = optimize_ansatz(&h, &ansatz, 300, 0.05, 3);
        assert!(
            outcome.energy < exact + 0.15,
            "optimized {} vs exact {exact}",
            outcome.energy
        );
        assert!(outcome.energy >= exact - 1e-6, "below ground energy?!");
    }

    #[test]
    fn vqe_search_finds_a_low_energy_ansatz() {
        let device = ibm_lagos();
        let h = TransverseFieldIsing::new(3, 1.0, 0.5);
        let exact = h.exact_ground_energy();
        let mut config = SearchConfig::for_task(3, 12, 1, 2).fast();
        config.num_candidates = 6;
        let result = search_vqe_ansatz(&device, &h, &config, 30, 200);
        assert!(
            result.outcome.energy < exact * 0.7,
            "search energy {} vs exact {exact}",
            result.outcome.energy
        );
        // All probed survivors carry finite energies; rejected ones don't.
        assert!(result.probe_energies.iter().any(|e| e.is_finite()));
    }
}
