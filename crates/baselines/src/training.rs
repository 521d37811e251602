//! SuperCircuit training with weight sharing (the expensive phase the
//! paper eliminates — over 90% of SuperCircuit-based QCS executions happen
//! here, Section 6).

use crate::supercircuit::SuperCircuit;
use elivagar_cache::{memoize_scalar, CacheHandle, CacheKey, KeyBuilder};
use elivagar_datasets::{Dataset, Split};
use elivagar_ml::{batch_gradient, Adam, GradientMethod, QuantumClassifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters of SuperCircuit training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuperTrainConfig {
    /// Epochs over the training split.
    pub epochs: usize,
    /// Mini-batch size (QuantumSupernet uses 32 per the paper's setup).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SuperTrainConfig {
    fn default() -> Self {
        SuperTrainConfig {
            epochs: 5,
            batch_size: 32,
            learning_rate: 0.01,
            seed: 0,
        }
    }
}

/// Result of SuperCircuit training.
#[derive(Clone, Debug, PartialEq)]
pub struct SuperTrainOutcome {
    /// The trained shared parameter table.
    pub shared: Vec<f64>,
    /// Mean loss per epoch (over the batches that were applied; an epoch
    /// whose every batch was skipped records NaN).
    pub loss_history: Vec<f64>,
    /// Hardware-equivalent circuit executions: each batch costs
    /// `batch * (1 + 2 * active_params)` under the parameter-shift rule,
    /// even though we train with the adjoint path classically.
    pub hardware_executions: u64,
    /// Batches dropped because their loss or gradient went non-finite.
    /// The optimizer never consumes those; the shared table survives a
    /// pathological subcircuit draw instead of being poisoned by it.
    pub skipped_batches: u64,
}

/// Trains the shared parameters by sampling one random subcircuit per
/// batch (the front-sampling strategy of QuantumNAS / QuantumSupernet).
///
/// Each minibatch executes through the fused batch engine
/// ([`elivagar_ml::batch_gradient`] compiles the sampled subcircuit once
/// and runs all samples in parallel), so the accounting below tracks
/// *hardware-equivalent* executions, not wall-clock circuit runs.
///
/// # Panics
///
/// Panics if the split is empty or the config is degenerate.
pub fn train_supercircuit(
    space: &SuperCircuit,
    data: &Split,
    num_classes: usize,
    config: &SuperTrainConfig,
) -> SuperTrainOutcome {
    assert!(!data.is_empty(), "cannot train on an empty split");
    assert!(config.epochs > 0 && config.batch_size > 0, "degenerate config");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut shared: Vec<f64> = (0..space.total_params())
        .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect();
    let mut opt = Adam::new(shared.len(), config.learning_rate);
    let mut loss_history = Vec::with_capacity(config.epochs);
    let mut hardware_executions = 0u64;
    let mut skipped_batches = 0u64;

    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..config.epochs {
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(config.batch_size) {
            let sub = space.sample_config(&mut rng);
            let circuit = space.subcircuit(&sub);
            let model = QuantumClassifier::new(circuit, num_classes);
            let features: Vec<Vec<f64>> =
                chunk.iter().map(|&i| data.features[i].clone()).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
            let bg = batch_gradient(&model, &shared, &features, &labels, GradientMethod::Adjoint);
            let active = space.active_params(&sub) as u64;
            hardware_executions += chunk.len() as u64 * (1 + 2 * active);
            // Numeric guardrail: a non-finite batch (degenerate subcircuit
            // draw, corrupted data) is dropped, not fed to Adam — one NaN
            // step would poison the shared table for good.
            if !bg.is_finite() {
                skipped_batches += 1;
                continue;
            }
            opt.step(&mut shared, &bg.gradient);
            epoch_loss += bg.loss;
            batches += 1;
        }
        loss_history.push(if batches == 0 {
            f64::NAN
        } else {
            epoch_loss / batches as f64
        });
    }

    SuperTrainOutcome {
        shared,
        loss_history,
        hardware_executions,
        skipped_batches,
    }
}

/// Mean validation loss of a subcircuit with the shared (inherited)
/// parameters — the candidate-evaluation primitive of SuperCircuit-based
/// search. Returns `(loss, executions)`.
///
/// With a `cache`, the evaluation is memoized: a hit replays the loss
/// bit-for-bit (and the execution count it originally cost); a miss
/// computes and stores. `None` evaluates in place.
pub fn subcircuit_validation_loss(
    space: &SuperCircuit,
    config: &crate::supercircuit::SubcircuitConfig,
    shared: &[f64],
    valid: &Split,
    num_classes: usize,
    cache: Option<&CacheHandle>,
) -> (f64, u64) {
    let model = QuantumClassifier::new(space.subcircuit(config), num_classes);
    let Ok(scored) = memoize_scalar::<std::convert::Infallible>(
        cache.map(|c| c.as_ref()),
        || baseline_eval_key(model.circuit(), shared, valid, num_classes),
        || {
            let loss = elivagar_ml::evaluate_loss(&model, shared, valid);
            Ok((loss, valid.len() as u64))
        },
    );
    scored
}

/// The first `n` test samples: the validation set SuperCircuit-based
/// searches score subcircuits on.
pub(crate) fn validation_split(dataset: &Dataset, n: usize) -> Split {
    let test = dataset.test();
    Split {
        features: test.features.iter().take(n).cloned().collect(),
        labels: test.labels.iter().take(n).copied().collect(),
    }
}

/// Cache key for one baseline subcircuit evaluation.
///
/// Uses the **raw** circuit digest: the subcircuit reads `shared[slot]`
/// by raw trainable index, so two configurations that extract
/// structurally identical circuits wired to different shared slots must
/// not collide. The full shared table is keyed (not just the active
/// slots) — conservative, but the table is identical across every genome
/// of one search, so within a run the key varies only with the
/// subcircuit.
fn baseline_eval_key(
    circuit: &elivagar_circuit::Circuit,
    shared: &[f64],
    valid: &Split,
    num_classes: usize,
) -> CacheKey {
    let mut b = KeyBuilder::new("baseline_eval").circuit(circuit).f64s(shared);
    for row in &valid.features {
        b = b.f64s(row);
    }
    b.usizes(&valid.labels).u64(num_classes as u64).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supercircuit::Entangler;
    use elivagar_datasets::moons;

    #[test]
    fn supercircuit_training_reduces_loss() {
        // Per-epoch losses are noisy (each batch samples a different
        // subcircuit), so compare fixed subcircuits' losses before and
        // after training instead of the raw history.
        let data = moons(80, 20, 5).normalized(std::f64::consts::PI);
        let space = SuperCircuit::new(2, 3, Entangler::Cz, 2, 1);
        let config = SuperTrainConfig { epochs: 15, batch_size: 20, ..Default::default() };
        let outcome = train_supercircuit(&space, data.train(), 2, &config);
        assert_eq!(outcome.skipped_batches, 0, "healthy run skips nothing");
        assert!(outcome.loss_history.iter().all(|l| l.is_finite()));
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let initial: Vec<f64> = (0..space.total_params())
            .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
            .collect();
        let mut before = 0.0;
        let mut after = 0.0;
        for _ in 0..5 {
            let sub = space.sample_config(&mut rng);
            before += subcircuit_validation_loss(&space, &sub, &initial, data.train(), 2, None).0;
            after +=
                subcircuit_validation_loss(&space, &sub, &outcome.shared, data.train(), 2, None).0;
        }
        assert!(after < before, "mean loss {before} -> {after}");
    }

    #[test]
    fn hardware_execution_accounting_scales_with_params() {
        let data = moons(32, 8, 1).normalized(std::f64::consts::PI);
        let small = SuperCircuit::new(2, 1, Entangler::Cz, 2, 1);
        let large = SuperCircuit::new(4, 6, Entangler::Cz, 2, 1);
        let config = SuperTrainConfig { epochs: 1, batch_size: 32, ..Default::default() };
        let a = train_supercircuit(&small, data.train(), 2, &config);
        let b = train_supercircuit(&large, data.train(), 2, &config);
        assert!(b.hardware_executions > a.hardware_executions);
    }

    #[test]
    fn validation_loss_counts_one_execution_per_sample() {
        let data = moons(20, 10, 2).normalized(std::f64::consts::PI);
        let space = SuperCircuit::new(2, 2, Entangler::Cz, 2, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sub = space.sample_config(&mut rng);
        let shared = vec![0.1; space.total_params()];
        let (loss, execs) = subcircuit_validation_loss(&space, &sub, &shared, data.test(), 2, None);
        assert!(loss.is_finite());
        assert_eq!(execs, 10);
    }
}
