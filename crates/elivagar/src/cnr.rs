//! Clifford Noise Resilience (paper Section 5).
//!
//! CNR predicts a candidate circuit's fidelity before training: replace
//! every rotation angle with a random Clifford-grid angle (a *Clifford
//! replica*), execute the replica on the noisy device (here: the noisy
//! stabilizer engine with the device's Pauli-twirled noise), compare
//! against the noiseless stabilizer output, and average `1 - TVD` over
//! `M` replicas (Eq. 1-2).
//!
//! In the one-shot pipeline CNR gates early rejection and weights the
//! composite score; under NSGA-II (`strategy::nsga2`) the same value is
//! also the noise-robustness axis of `strategy::Objectives` (maximized),
//! with rejection disabled so low-CNR circuits stay on the Pareto front.

use crate::config::SearchConfig;
use crate::generate::Candidate;
use elivagar_circuit::{Circuit, ParamExpr};
use elivagar_device::{circuit_noise, Device, NoiseModelError};
use elivagar_sim::statevector::sample_from_distribution;
use elivagar_sim::{counts_to_distribution, fidelity, noisy_clifford_distribution};
use rand::Rng;

/// Builds one Clifford replica: every parametric slot (trainable, data, or
/// constant) is snapped to a uniformly random multiple of the gate's
/// Clifford granularity. The gate structure — and therefore depth, routing
/// and noise profile — is preserved exactly (Section 5.1).
pub fn clifford_replica<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    out.set_amplitude_embedding(circuit.amplitude_embedding());
    for ins in circuit.instructions() {
        let mut replica = ins.clone();
        if let Some(gran) = ins.gate.clifford_granularity() {
            for p in &mut replica.params {
                let k = rng.random_range(0..4u32);
                *p = ParamExpr::constant(gran * k as f64);
            }
        }
        out.push(replica);
    }
    out.set_measured(circuit.measured().to_vec());
    out
}

/// Per-candidate CNR evaluation result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CnrResult {
    /// The Clifford noise resilience (mean replica fidelity, Eq. 2).
    pub cnr: f64,
    /// Circuit executions consumed (one per replica, as on hardware).
    pub executions: u64,
}

/// Computes CNR for a candidate on a device.
///
/// The replica structure equals the candidate's structure, so the noise
/// description is derived once from the candidate's physical placement and
/// reused across replicas. Each replica runs once on the Pauli-frame
/// engine, which yields its noiseless and its trajectory-averaged noisy
/// distribution from one call. With [`SearchConfig::cnr_shots`] unset the
/// fidelity compares the two exactly; with `Some(shots)` it compares a
/// `shots`-sample histogram of each, the sampling noise a hardware CNR
/// measurement carries (1024-8192 shots are realistic). As `shots` and
/// `config.cnr_trajectories` grow, the finite-shot value converges to the
/// exact one.
///
/// # Errors
///
/// Returns [`NoiseModelError`] if the candidate's physical circuit does not
/// fit the device (possible only for device-unaware candidates, which must
/// be routed first).
///
/// # Panics
///
/// Panics if `config.clifford_replicas` is zero (the mean would be NaN) or
/// `config.cnr_shots` is `Some(0)` (a histogram of no shots is empty).
pub fn cnr<R: Rng + ?Sized>(
    candidate: &Candidate,
    device: &Device,
    config: &SearchConfig,
    rng: &mut R,
) -> Result<CnrResult, NoiseModelError> {
    assert!(config.clifford_replicas >= 1, "cnr needs at least one Clifford replica");
    assert_ne!(config.cnr_shots, Some(0), "need at least one shot");
    let sw = elivagar_obs::metrics::Stopwatch::start();
    elivagar_obs::metrics::CNR_EVALS.add(1);
    let physical = candidate.physical_circuit(device);
    let noise = circuit_noise(device, &physical)?;
    // Replicas are independent: split one RNG stream per replica off the
    // caller's generator (one draw, so the result stays a deterministic
    // function of `rng`'s state at any thread count) and fan them out over
    // the pool.
    let seeds = elivagar_sim::TaskSeeds::from_rng(rng);
    let fidelities = elivagar_sim::parallel::par_map_index(config.clifford_replicas, |r| {
        elivagar_sim::faultpoint::hit("cnr::replica", seeds.seed(r));
        let mut rng = seeds.rng(r);
        let replica = clifford_replica(&candidate.circuit, &mut rng);
        let d = noisy_clifford_distribution(
            &replica,
            &[],
            &[],
            &noise,
            config.cnr_trajectories,
            &mut rng,
        )
        .expect("clifford replica is clifford by construction");
        match config.cnr_shots {
            None => fidelity(&d.ideal, &d.noisy),
            Some(shots) => {
                let ideal = sample_from_distribution(&d.ideal, shots, &mut rng);
                let noisy = sample_from_distribution(&d.noisy, shots, &mut rng);
                fidelity(&counts_to_distribution(&ideal), &counts_to_distribution(&noisy))
            }
        }
    });
    sw.record(&elivagar_obs::metrics::CNR_EVAL_NS);
    Ok(CnrResult {
        cnr: fidelities.iter().sum::<f64>() / config.clifford_replicas as f64,
        executions: config.clifford_replicas as u64,
    })
}

/// Applies the paper's rejection rule (Section 5.3): keep candidates with
/// CNR at least `threshold` *and* within the top `keep_fraction` of the
/// pool; if nothing clears the absolute threshold, the top fraction is
/// kept anyway so the search can proceed on very noisy devices.
///
/// Returns the indices of survivors, ordered by descending CNR.
/// Non-finite CNR values (which [`crate::search::run_search`] quarantines
/// before this point, but defensive callers may pass) rank below every
/// finite value and never clear the absolute threshold.
pub fn reject_low_fidelity(cnrs: &[f64], threshold: f64, keep_fraction: f64) -> Vec<usize> {
    assert!(!cnrs.is_empty(), "no candidates to filter");
    let mut order: Vec<usize> = (0..cnrs.len()).collect();
    order.sort_by(|&a, &b| crate::search::score_order(Some(cnrs[b]), Some(cnrs[a])));
    let keep = ((cnrs.len() as f64 * keep_fraction).ceil() as usize).clamp(1, cnrs.len());
    let passing: Vec<usize> = order
        .iter()
        .copied()
        .take(keep)
        .filter(|&i| cnrs[i] >= threshold)
        .collect();
    if passing.is_empty() {
        order.truncate(keep);
        order
    } else {
        passing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::generate::generate_candidate;
    use elivagar_device::devices::{ibm_lagos, oqc_lucy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_config() -> SearchConfig {
        SearchConfig::for_task(4, 12, 4, 2).fast()
    }

    #[test]
    fn replicas_are_clifford_and_structure_preserving() {
        let device = ibm_lagos();
        let mut rng = StdRng::seed_from_u64(1);
        let c = generate_candidate(&device, &fast_config(), &mut rng);
        let replica = clifford_replica(&c.circuit, &mut rng);
        assert!(replica.is_clifford());
        assert_eq!(replica.len(), c.circuit.len());
        assert_eq!(replica.depth(), c.circuit.depth());
        assert_eq!(replica.measured(), c.circuit.measured());
        assert_eq!(
            replica.two_qubit_gate_count(),
            c.circuit.two_qubit_gate_count()
        );
    }

    #[test]
    fn replicas_differ_between_draws() {
        let device = ibm_lagos();
        let mut rng = StdRng::seed_from_u64(2);
        let c = generate_candidate(&device, &fast_config(), &mut rng);
        let a = clifford_replica(&c.circuit, &mut rng);
        let b = clifford_replica(&c.circuit, &mut rng);
        assert_ne!(a, b, "replicas should sample different angles");
    }

    #[test]
    fn cnr_is_a_probability_and_noisier_devices_score_lower() {
        let cfg = fast_config();
        let mut rng = StdRng::seed_from_u64(3);
        // Same structural candidate evaluated on a quiet and a loud device.
        let lagos = ibm_lagos();
        let lucy = oqc_lucy();
        let mut cnr_lagos = 0.0;
        let mut cnr_lucy = 0.0;
        for _ in 0..4 {
            let cand = generate_candidate(&lagos, &cfg, &mut rng);
            cnr_lagos += cnr(&cand, &lagos, &cfg, &mut rng).unwrap().cnr;
            let cand = generate_candidate(&lucy, &cfg, &mut rng);
            cnr_lucy += cnr(&cand, &lucy, &cfg, &mut rng).unwrap().cnr;
        }
        cnr_lagos /= 4.0;
        cnr_lucy /= 4.0;
        assert!((0.0..=1.0).contains(&cnr_lagos));
        assert!((0.0..=1.0).contains(&cnr_lucy));
        assert!(
            cnr_lagos > cnr_lucy,
            "lagos {cnr_lagos} should beat lucy {cnr_lucy}"
        );
        assert!(cnr_lagos > 0.75, "lagos CNR {cnr_lagos}");
    }

    #[test]
    fn rejection_keeps_top_fraction_above_threshold() {
        let cnrs = [0.95, 0.5, 0.8, 0.75, 0.9, 0.65];
        let kept = reject_low_fidelity(&cnrs, 0.7, 0.5);
        assert_eq!(kept, vec![0, 4, 2]);
    }

    #[test]
    fn rejection_threshold_can_shrink_below_fraction() {
        let cnrs = [0.95, 0.2, 0.3, 0.25];
        let kept = reject_low_fidelity(&cnrs, 0.7, 0.5);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn rejection_never_empties_the_pool() {
        let cnrs = [0.1, 0.2, 0.3];
        let kept = reject_low_fidelity(&cnrs, 0.7, 0.5);
        assert_eq!(kept, vec![2, 1]);
    }

    #[test]
    fn rejection_ranks_nan_last_instead_of_panicking() {
        let cnrs = [0.95, f64::NAN, 0.8, f64::NAN, 0.9, 0.65];
        let kept = reject_low_fidelity(&cnrs, 0.7, 0.5);
        assert_eq!(kept, vec![0, 4, 2]);
        // Even when nothing clears the threshold, the keep-anyway fallback
        // prefers finite values over NaN.
        let all_low = [0.1, f64::NAN, 0.3];
        let kept = reject_low_fidelity(&all_low, 0.7, 0.5);
        assert_eq!(kept, vec![2, 0]);
    }

    #[test]
    fn finite_shot_cnr_converges_to_exact_cnr() {
        let cfg = fast_config();
        let device = ibm_lagos();
        let mut rng = StdRng::seed_from_u64(21);
        let cand = generate_candidate(&device, &cfg, &mut rng);
        let exact = cnr(&cand, &device, &cfg, &mut StdRng::seed_from_u64(5))
            .unwrap()
            .cnr;
        let shots = cfg.clone().with_shots(8192);
        let shot_based = cnr(&cand, &device, &shots, &mut StdRng::seed_from_u64(5))
            .unwrap()
            .cnr;
        assert!(
            (exact - shot_based).abs() < 0.08,
            "exact {exact} vs shot-based {shot_based}"
        );
        // Tiny shot counts still give a probability.
        let coarse = cnr(&cand, &device, &cfg.with_shots(16), &mut rng).unwrap().cnr;
        assert!((0.0..=1.0).contains(&coarse));
    }

    #[test]
    fn cnr_counts_replica_executions() {
        let cfg = fast_config();
        let device = ibm_lagos();
        let mut rng = StdRng::seed_from_u64(4);
        let cand = generate_candidate(&device, &cfg, &mut rng);
        let r = cnr(&cand, &device, &cfg, &mut rng).unwrap();
        assert_eq!(r.executions, cfg.clifford_replicas as u64);
    }

    fn cnr_without_replicas(shots: Option<usize>) {
        let (device, mut cfg) = (ibm_lagos(), fast_config());
        let rng = &mut StdRng::seed_from_u64(4);
        let cand = generate_candidate(&device, &cfg, rng);
        cfg.clifford_replicas = 0;
        cfg.cnr_shots = shots;
        let _ = cnr(&cand, &device, &cfg, rng);
    }

    #[test]
    #[should_panic(expected = "at least one Clifford replica")]
    fn cnr_rejects_zero_replicas() {
        cnr_without_replicas(None);
    }

    #[test]
    #[should_panic(expected = "at least one Clifford replica")]
    fn finite_shot_cnr_rejects_zero_replicas() {
        cnr_without_replicas(Some(64));
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn cnr_rejects_zero_shots() {
        let (device, mut cfg) = (ibm_lagos(), fast_config());
        let rng = &mut StdRng::seed_from_u64(4);
        let cand = generate_candidate(&device, &cfg, rng);
        cfg.cnr_shots = Some(0);
        let _ = cnr(&cand, &device, &cfg, rng);
    }
}
