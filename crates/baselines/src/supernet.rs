//! QuantumSupernet (Du et al., npj QI 2022): SuperCircuit weight sharing
//! with *random* search over subcircuits and deep CRY entangling blocks
//! (the structure the paper's Table 6 attributes its depth problems to).

use crate::supercircuit::{Entangler, SuperCircuit};
use crate::training::{
    subcircuit_validation_loss, train_supercircuit, validation_split, SuperTrainConfig,
};
use elivagar_cache::CacheHandle;
use elivagar_circuit::Circuit;
use elivagar_datasets::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// QuantumSupernet hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupernetConfig {
    /// SuperCircuit blocks.
    pub num_blocks: usize,
    /// Random subcircuit configurations to evaluate.
    pub num_samples: usize,
    /// Validation samples for scoring.
    pub valid_samples: usize,
    /// SuperCircuit training schedule (mini-batch 32 per Section 7.4).
    pub train: SuperTrainConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SupernetConfig {
    fn default() -> Self {
        SupernetConfig {
            num_blocks: 6,
            num_samples: 32,
            valid_samples: 64,
            train: SuperTrainConfig { batch_size: 32, ..Default::default() },
            seed: 0,
        }
    }
}

/// Search outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct SupernetResult {
    /// Selected circuit (contiguous parameters).
    pub circuit: Circuit,
    /// Inherited parameter values.
    pub inherited_params: Vec<f64>,
    /// Best SuperCircuit-estimated validation loss.
    pub estimated_loss: f64,
    /// Hardware-equivalent executions (training + evaluations).
    pub executions: u64,
}

/// Runs the QuantumSupernet pipeline.
///
/// With a `cache`, candidate scoring is memoized: each subcircuit
/// evaluation is keyed on the extracted circuit, the shared parameter
/// table, and the validation set, so re-running the search (or
/// overlapping draws across seeds) replays losses bit-for-bit instead of
/// re-simulating. A cached run returns exactly what `None` returns.
///
/// # Panics
///
/// Panics if the dataset is empty or `num_samples` is zero.
pub fn supernet_search(
    dataset: &Dataset,
    num_qubits: usize,
    config: &SupernetConfig,
    cache: Option<&CacheHandle>,
) -> SupernetResult {
    assert!(config.num_samples > 0, "need at least one sample");
    let num_classes = dataset.num_classes();
    let num_measured = if num_classes == 2 { 1 } else { num_classes.min(num_qubits) };
    let space = SuperCircuit::new(
        num_qubits,
        config.num_blocks,
        Entangler::Cry,
        dataset.feature_dim(),
        num_measured,
    );
    let trained = train_supercircuit(&space, dataset.train(), num_classes, &config.train);
    let mut executions = trained.hardware_executions;

    let valid = validation_split(dataset, config.valid_samples);

    let mut rng = StdRng::seed_from_u64(config.seed);
    // Sampling stays sequential (one RNG stream, same draws as the serial
    // loop); the RNG-free loss evaluations fan out over the pool. The
    // ordered reduction keeps first-wins tie-breaking, so the selected
    // subcircuit is identical at any thread count.
    let samples: Vec<crate::supercircuit::SubcircuitConfig> = (0..config.num_samples)
        .map(|_| space.sample_config(&mut rng))
        .collect();
    let _stage = elivagar_obs::span!("supernet_score", samples = samples.len());
    elivagar_obs::metrics::BASELINE_EVALS.add(samples.len() as u64);
    let scored = elivagar_sim::parallel::par_map(&samples, |sub| {
        subcircuit_validation_loss(&space, sub, &trained.shared, &valid, num_classes, cache)
    });
    let mut best: Option<(crate::supercircuit::SubcircuitConfig, f64)> = None;
    for (sub, (loss, e)) in samples.iter().zip(&scored) {
        executions += e;
        if best.as_ref().is_none_or(|(_, bl)| *loss < *bl) {
            best = Some((sub.clone(), *loss));
        }
    }
    let (winner, estimated_loss) = best.expect("num_samples > 0");
    let (circuit, inherited_params) = space.extract(&winner, &trained.shared);
    SupernetResult {
        circuit,
        inherited_params,
        estimated_loss,
        executions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_datasets::moons;

    fn fast_config() -> SupernetConfig {
        SupernetConfig {
            num_blocks: 3,
            num_samples: 6,
            valid_samples: 12,
            train: SuperTrainConfig { epochs: 2, batch_size: 16, ..Default::default() },
            seed: 1,
        }
    }

    #[test]
    fn supernet_selects_finite_loss_circuit() {
        let data = moons(40, 16, 3).normalized(std::f64::consts::PI);
        let result = supernet_search(&data, 3, &fast_config(), None);
        assert!(result.estimated_loss.is_finite());
        assert!(result.circuit.num_trainable_params() > 0);
        assert!(result.executions > 0);
    }

    #[test]
    fn supernet_circuits_use_cry_entanglers() {
        let data = moons(40, 16, 4).normalized(std::f64::consts::PI);
        let result = supernet_search(&data, 3, &fast_config(), None);
        assert!(result
            .circuit
            .instructions()
            .iter()
            .any(|i| i.gate == elivagar_circuit::Gate::Cry));
    }
}
