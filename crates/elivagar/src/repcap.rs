//! Representational capacity (paper Section 6, Algorithm 2).
//!
//! RepCap predicts trained-circuit performance without any training: it
//! measures how similar the circuit's output states are within a class and
//! how separated they are across classes, using randomized-measurement
//! classical approximations of the output states (Eq. 3-6).
//!
//! Besides driving the one-shot composite score, RepCap is the predicted-
//! accuracy axis of `strategy::Objectives` (maximized) when the search
//! runs under the NSGA-II strategy.

use crate::config::SearchConfig;
use elivagar_circuit::math::Mat2;
use elivagar_circuit::{Circuit, Gate};
use elivagar_sim::{pairwise_tvd_into, workspace, Program, StateVector};
use rand::Rng;

/// Result of one RepCap evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct RepCapResult {
    /// The representational capacity (Eq. 3), in `(-inf, 1]`; higher
    /// predicts better trained accuracy.
    pub repcap: f64,
    /// Circuit executions consumed (`d * n_p` as in Section 6.1 — one
    /// execution per sample per parameter initialization; the random bases
    /// reuse the same state in simulation but are counted as measurement
    /// settings on hardware).
    pub executions: u64,
}

/// The marginal outcome of every basis state: bit `k` of `table[i]` is
/// bit `measured[k]` of `i`, the key
/// [`StateVector::marginal_probabilities`] accumulates under.
fn outcome_table(num_qubits: usize, measured: &[usize]) -> Vec<usize> {
    (0..1usize << num_qubits)
        .map(|i| {
            measured
                .iter()
                .enumerate()
                .fold(0, |key, (k, &q)| key | ((i >> q) & 1) << k)
        })
        .collect()
}

/// The classical approximation of one output state (Algorithm 2): for
/// each random basis, a scratch copy of `psi` is rotated by the basis'
/// `U3`s on the measured qubits and its marginal distribution recorded.
/// `rotations` holds `measured.len()` matrices per basis; the result is
/// the bases' distributions back to back. Accumulating through `outcomes`
/// in ascending amplitude order adds exactly what
/// [`StateVector::marginal_probabilities`] adds (its skipped zero terms
/// cannot change a non-negative sum).
fn representation(
    psi: &StateVector,
    measured: &[usize],
    rotations: &[Mat2],
    outcomes: &[usize],
) -> Vec<f64> {
    let num_outcomes = 1usize << measured.len();
    let mut rep = vec![0.0; rotations.len() / measured.len() * num_outcomes];
    let mut rotated = workspace::acquire_copy(psi);
    for (b, (basis, dist)) in rotations
        .chunks_exact(measured.len())
        .zip(rep.chunks_exact_mut(num_outcomes))
        .enumerate()
    {
        if b > 0 {
            rotated.copy_from(psi);
        }
        for (&q, u) in measured.iter().zip(basis) {
            rotated.apply_mat1(q, u);
        }
        for (a, &k) in rotated.amplitudes().iter().zip(outcomes) {
            dist[k] += a.norm_sqr();
        }
    }
    workspace::release_state(rotated);
    rep
}

/// Computes RepCap for a circuit on a class-balanced sample set
/// (`features[i]` with `labels[i]`), per Eq. 3-6.
///
/// Per parameter draw, every sample's representation comes from one
/// batched engine call, and the similarity matrix `R_C` (Eq. 5-6) from
/// [`pairwise_tvd_into`] once per basis: each pair's `1 - TVD` terms are
/// added in basis order and averaged, so every entry is bit-identical to
/// the per-pair definition.
///
/// # Panics
///
/// Panics if the sample set is empty, lengths mismatch, the circuit
/// measures no qubits, or `config.repcap_bases` or
/// `config.repcap_param_inits` is zero (either would average over nothing
/// and make RepCap NaN).
pub fn repcap<R: Rng + ?Sized>(
    circuit: &Circuit,
    features: &[Vec<f64>],
    labels: &[usize],
    config: &SearchConfig,
    rng: &mut R,
) -> RepCapResult {
    assert!(!features.is_empty(), "repcap needs samples");
    assert_eq!(features.len(), labels.len(), "feature/label mismatch");
    assert!(!circuit.measured().is_empty(), "circuit must measure qubits");
    assert!(config.repcap_bases >= 1, "repcap needs at least one measurement basis");
    assert!(config.repcap_param_inits >= 1, "repcap needs at least one parameter initialization");
    let sw = elivagar_obs::metrics::Stopwatch::start();
    elivagar_obs::metrics::REPCAP_EVALS.add(1);
    let d = features.len();
    let num_params = circuit.num_trainable_params();
    let measured = circuit.measured();
    let num_outcomes = 1usize << measured.len();
    // Compile once: constant gates fuse here; per-theta binding below fuses
    // the trainable gates too, so each sample executes the minimal kernel
    // stream.
    let program = Program::compile(circuit);
    let outcomes = outcome_table(circuit.num_qubits(), measured);

    // Induced similarity averaged over random parameter vectors (Eq. 5),
    // row-major `d x d`.
    let mut r_c = vec![0.0f64; d * d];
    let mut basis_sums = vec![0.0f64; d * d];
    let mut tvds = Vec::new();
    let nb = config.repcap_bases as f64;
    for _ in 0..config.repcap_param_inits {
        let theta: Vec<f64> = (0..num_params)
            .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
            .collect();
        // Shared random bases for this parameter draw (Algorithm 2's
        // alpha): one `U3` per basis per measured qubit, built once.
        let rotations: Vec<Mat2> = (0..config.repcap_bases * measured.len())
            .map(|_| {
                Gate::U3.matrix1(&[
                    rng.random_range(0.0..std::f64::consts::PI),
                    rng.random_range(0.0..std::f64::consts::TAU),
                    rng.random_range(0.0..std::f64::consts::TAU),
                ])
            })
            .collect();
        let bound = program.bind(&theta);
        let reps = bound.run_batch_with(features, |_, psi| {
            representation(psi, measured, &rotations, &outcomes)
        });
        // Similarity (Eq. 6): `1 - TVD` summed over the bases in order
        // (from -0.0, as `Iterator::sum` starts), then averaged.
        basis_sums.fill(-0.0);
        for b in 0..config.repcap_bases {
            let rows: Vec<&[f64]> = reps
                .iter()
                .map(|rep| &rep[b * num_outcomes..(b + 1) * num_outcomes])
                .collect();
            pairwise_tvd_into(&rows, &mut tvds);
            for (sum, &t) in basis_sums.iter_mut().zip(&tvds) {
                *sum += 1.0 - t;
            }
        }
        for i in 0..d {
            for j in i..d {
                let s = basis_sums[i * d + j] / nb;
                r_c[i * d + j] += s;
                r_c[j * d + i] += if i == j { 0.0 } else { s };
            }
        }
    }
    let np = config.repcap_param_inits as f64;
    for v in &mut r_c {
        *v /= np;
    }

    // RepCap = 1 - ||R_C - R_ref||_F^2 / d^2 (Eq. 3).
    let mut frob = 0.0;
    for i in 0..d {
        for j in 0..d {
            let reference = if labels[i] == labels[j] { 1.0 } else { 0.0 };
            frob += (r_c[i * d + j] - reference).powi(2);
        }
    }
    let repcap = 1.0 - frob / (d * d) as f64;
    sw.record(&elivagar_obs::metrics::REPCAP_EVAL_NS);
    // Value distribution, not a latency: scores land in micro-units so the
    // power-of-two buckets resolve the [0, 1] range.
    if repcap.is_finite() && repcap > 0.0 {
        elivagar_obs::metrics::REPCAP_SCORE_MICROS.observe((repcap * 1e6) as u64);
    }
    RepCapResult {
        repcap,
        executions: (d * config.repcap_param_inits) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use elivagar_circuit::ParamExpr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_config() -> SearchConfig {
        let mut c = SearchConfig::for_task(2, 4, 1, 2).fast();
        c.repcap_param_inits = 8;
        c.repcap_bases = 3;
        c
    }

    /// A circuit that embeds the single feature strongly: representations
    /// track the input, so well-separated inputs give high RepCap.
    fn discriminative_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::Rz, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.set_measured(vec![0, 1]);
        c
    }

    /// A circuit that ignores the input entirely: all representations
    /// coincide, so inter-class separation is impossible.
    fn blind_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Ry, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.set_measured(vec![0, 1]);
        c
    }

    fn binary_samples() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Class 0 near x = 0, class 1 near x = pi: maximally separated
        // angles.
        let features = vec![
            vec![0.0],
            vec![0.15],
            vec![std::f64::consts::PI],
            vec![std::f64::consts::PI - 0.15],
        ];
        let labels = vec![0, 0, 1, 1];
        (features, labels)
    }

    #[test]
    fn discriminative_circuit_beats_blind_circuit() {
        let cfg = fast_config();
        let (x, y) = binary_samples();
        let mut rng = StdRng::seed_from_u64(1);
        let good = repcap(&discriminative_circuit(), &x, &y, &cfg, &mut rng).repcap;
        let mut rng = StdRng::seed_from_u64(1);
        let bad = repcap(&blind_circuit(), &x, &y, &cfg, &mut rng).repcap;
        assert!(
            good > bad + 0.05,
            "discriminative {good} should beat blind {bad}"
        );
    }

    #[test]
    fn repcap_is_at_most_one() {
        let cfg = fast_config();
        let (x, y) = binary_samples();
        let mut rng = StdRng::seed_from_u64(2);
        let r = repcap(&discriminative_circuit(), &x, &y, &cfg, &mut rng);
        assert!(r.repcap <= 1.0 + 1e-12);
    }

    #[test]
    fn identical_samples_same_class_score_perfectly_within_class() {
        // One class, identical inputs: R_C == R_ref == all-ones.
        let cfg = fast_config();
        let x = vec![vec![0.5], vec![0.5]];
        let y = vec![0, 0];
        let mut rng = StdRng::seed_from_u64(3);
        let r = repcap(&discriminative_circuit(), &x, &y, &cfg, &mut rng);
        assert!((r.repcap - 1.0).abs() < 1e-9, "repcap {}", r.repcap);
    }

    #[test]
    fn execution_count_is_d_times_np() {
        let cfg = fast_config();
        let (x, y) = binary_samples();
        let mut rng = StdRng::seed_from_u64(4);
        let r = repcap(&discriminative_circuit(), &x, &y, &cfg, &mut rng);
        assert_eq!(r.executions, (x.len() * cfg.repcap_param_inits) as u64);
    }

    #[test]
    fn batched_representations_match_per_sample_oracle() {
        // The batched representations must reproduce the oracle's
        // per-sample clones and marginals bit for bit: RepCap scores are
        // compared across candidates, so even 1-ulp divergence would make
        // rankings depend on the code path.
        let circuit = strict_subset_circuit();
        let x: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.3 * i as f64, 1.0 - 0.2 * i as f64])
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let theta: Vec<f64> = (0..circuit.num_trainable_params())
            .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
            .collect();
        let bases = oracle::random_bases(circuit.measured().len(), 3, &mut rng);
        let rotations: Vec<Mat2> = bases
            .iter()
            .flatten()
            .map(|a| Gate::U3.matrix1(a))
            .collect();
        let outcomes = outcome_table(circuit.num_qubits(), circuit.measured());
        let bound = elivagar_sim::Program::compile(&circuit).bind(&theta);
        let batched = bound.run_batch_with(&x, |_, psi| {
            representation(psi, circuit.measured(), &rotations, &outcomes)
        });
        for (f, rep) in x.iter().zip(&batched) {
            let expected: Vec<f64> =
                oracle::representation_of(&bound.run(f), circuit.measured(), &bases).concat();
            assert_eq!(bits(rep), bits(&expected));
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Five qubits measured as `[3, 0, 4]`: a strict subset, not in
    /// ascending order, so outcome bit `k` is not qubit `k`.
    fn strict_subset_circuit() -> Circuit {
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.push_gate(Gate::Ry, &[q], &[ParamExpr::feature(q % 2)]);
        }
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Rz, &[1], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[1, 2], &[]);
        c.push_gate(Gate::Rx, &[3], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[3, 4], &[]);
        c.push_gate(Gate::Ry, &[4], &[ParamExpr::trainable(2)]);
        c.push_gate(Gate::Cx, &[4, 0], &[]);
        c.set_measured(vec![3, 0, 4]);
        c
    }

    /// `d` samples of `dim` features with labels cycling through
    /// `classes`.
    fn samples(
        d: usize,
        dim: usize,
        classes: usize,
        rng: &mut StdRng,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let x = (0..d)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.random_range(0.0..std::f64::consts::PI))
                    .collect()
            })
            .collect();
        (x, (0..d).map(|i| i % classes).collect())
    }

    /// RepCap and the oracle, from the same seed, must agree to the bit
    /// for every sample count (3 and 30 are not multiples of the SIMD
    /// lane block) and basis count.
    fn assert_repcap_matches_oracle(
        circuit: &Circuit,
        dim: usize,
        classes: usize,
        base: &SearchConfig,
    ) {
        for d in [3, 8, 30, 80] {
            for bases in [1, 3, 4] {
                let mut cfg = base.clone();
                cfg.repcap_param_inits = 2;
                cfg.repcap_bases = bases;
                let seed = (d * 10 + bases) as u64;
                let (x, y) = samples(d, dim, classes, &mut StdRng::seed_from_u64(seed));
                let got = repcap(circuit, &x, &y, &cfg, &mut StdRng::seed_from_u64(seed));
                let want = oracle::repcap(circuit, &x, &y, &cfg, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    got.repcap.to_bits(),
                    want.repcap.to_bits(),
                    "d={d} bases={bases}: {} vs oracle {}",
                    got.repcap,
                    want.repcap
                );
                assert_eq!(got.executions, want.executions);
            }
        }
    }

    #[test]
    fn repcap_matches_per_pair_oracle_on_generated_candidates() {
        use elivagar_device::devices::{ibm_guadalupe, ibm_lagos};
        for (qubits, classes) in [(3, 2), (4, 4), (10, 10)] {
            let device = if qubits <= 7 {
                ibm_lagos()
            } else {
                ibm_guadalupe()
            };
            let dim = qubits;
            let cfg = SearchConfig::for_task(qubits, 2 * qubits, dim, classes);
            let mut rng = StdRng::seed_from_u64(qubits as u64);
            let cand = crate::generate::generate_candidate(&device, &cfg, &mut rng);
            assert_repcap_matches_oracle(&cand.circuit, dim, classes, &cfg);
        }
    }

    #[test]
    fn repcap_matches_per_pair_oracle_on_a_strict_unordered_measured_subset() {
        let cfg = SearchConfig::for_task(5, 3, 2, 3);
        assert_repcap_matches_oracle(&strict_subset_circuit(), 2, 3, &cfg);
    }

    #[test]
    #[should_panic(expected = "at least one measurement basis")]
    fn zero_bases_is_rejected_instead_of_returning_nan() {
        let mut cfg = fast_config();
        cfg.repcap_bases = 0;
        let (x, y) = binary_samples();
        repcap(
            &discriminative_circuit(),
            &x,
            &y,
            &cfg,
            &mut StdRng::seed_from_u64(6),
        );
    }

    #[test]
    #[should_panic(expected = "at least one parameter initialization")]
    fn zero_param_inits_is_rejected_instead_of_returning_nan() {
        let mut cfg = fast_config();
        cfg.repcap_param_inits = 0;
        let (x, y) = binary_samples();
        repcap(
            &discriminative_circuit(),
            &x,
            &y,
            &cfg,
            &mut StdRng::seed_from_u64(6),
        );
    }

    #[test]
    fn blind_circuit_penalized_by_inter_class_similarity() {
        // With two classes of identical representations, R_C(i,j) = 1
        // everywhere but R_ref has zeros off-block: RepCap = 1 - (#cross
        // pairs)/d^2 = 1 - 8/16 = 0.5.
        let cfg = fast_config();
        let x = vec![vec![0.1], vec![0.1], vec![0.1], vec![0.1]];
        let y = vec![0, 0, 1, 1];
        let mut rng = StdRng::seed_from_u64(5);
        let r = repcap(&blind_circuit(), &x, &y, &cfg, &mut rng);
        assert!((r.repcap - 0.5).abs() < 1e-9, "repcap {}", r.repcap);
    }

    /// RepCap's per-pair definition, the oracle the production path must
    /// match bit for bit: per sample and basis, a cloned state rotated by
    /// freshly built `U3`s and measured with
    /// `StateVector::marginal_probabilities`; per pair, a serial `tvd` per
    /// basis.
    mod oracle {
        use super::*;
        use elivagar_sim::tvd;

        /// One outcome distribution per random measurement basis.
        type Representation = Vec<Vec<f64>>;

        /// `bases` random bases, one `U3` angle triple per measured qubit,
        /// drawn in RepCap's order.
        pub fn random_bases(measured: usize, bases: usize, rng: &mut StdRng) -> Vec<Vec<[f64; 3]>> {
            (0..bases)
                .map(|_| {
                    (0..measured)
                        .map(|_| {
                            [
                                rng.random_range(0.0..std::f64::consts::PI),
                                rng.random_range(0.0..std::f64::consts::TAU),
                                rng.random_range(0.0..std::f64::consts::TAU),
                            ]
                        })
                        .collect()
                })
                .collect()
        }

        pub fn representation_of(
            psi: &StateVector,
            measured: &[usize],
            bases: &[Vec<[f64; 3]>],
        ) -> Representation {
            bases
                .iter()
                .map(|basis| {
                    let mut rotated = psi.clone();
                    for (&q, angles) in measured.iter().zip(basis) {
                        rotated.apply_mat1(q, &Gate::U3.matrix1(angles));
                    }
                    rotated.marginal_probabilities(measured)
                })
                .collect()
        }

        fn similarity(a: &Representation, b: &Representation) -> f64 {
            let n = a.len();
            a.iter()
                .zip(b)
                .map(|(da, db)| 1.0 - tvd(da, db))
                .sum::<f64>()
                / n as f64
        }

        pub fn repcap(
            circuit: &Circuit,
            features: &[Vec<f64>],
            labels: &[usize],
            config: &SearchConfig,
            rng: &mut StdRng,
        ) -> RepCapResult {
            let d = features.len();
            let program = elivagar_sim::Program::compile(circuit);
            let mut r_c = vec![vec![0.0f64; d]; d];
            for _ in 0..config.repcap_param_inits {
                let theta: Vec<f64> = (0..circuit.num_trainable_params())
                    .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
                    .collect();
                let bases = random_bases(circuit.measured().len(), config.repcap_bases, rng);
                let bound = program.bind(&theta);
                let reps: Vec<Representation> = features
                    .iter()
                    .map(|f| representation_of(&bound.run(f), circuit.measured(), &bases))
                    .collect();
                for i in 0..d {
                    for j in i..d {
                        let s = similarity(&reps[i], &reps[j]);
                        r_c[i][j] += s;
                        r_c[j][i] += if i == j { 0.0 } else { s };
                    }
                }
            }
            let np = config.repcap_param_inits as f64;
            for row in &mut r_c {
                for v in row.iter_mut() {
                    *v /= np;
                }
            }
            let mut frob = 0.0;
            for i in 0..d {
                for j in 0..d {
                    let reference = if labels[i] == labels[j] { 1.0 } else { 0.0 };
                    frob += (r_c[i][j] - reference).powi(2);
                }
            }
            RepCapResult {
                repcap: 1.0 - frob / (d * d) as f64,
                executions: (d * config.repcap_param_inits) as u64,
            }
        }
    }
}
