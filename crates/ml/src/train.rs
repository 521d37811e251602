//! The training entry points and evaluation helpers. [`try_train`] is a
//! one-member [`crate::cohort::train_cohort`], so its numeric guardrails
//! are the cohort's: a non-finite loss or gradient aborts the attempt
//! before it can poison the optimizer state, and the attempt is retried
//! from a fresh seed split with a backed-off step size before giving up.

use crate::cohort::train_cohort;
use crate::gradient::GradientMethod;
use crate::model::QuantumClassifier;
use elivagar_datasets::Split;
use elivagar_sim::noise::CircuitNoise;
use elivagar_sim::noisy_distribution;
use rand::Rng;
use std::fmt;

/// Training hyperparameters. The defaults follow the paper's methodology
/// (Section 7.3): Adam at learning rate 0.01, batch size 128, no weight
/// decay. The paper trains for 200 epochs; harnesses typically use fewer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Gradient computation path.
    pub method: GradientMethod,
    /// RNG seed for parameter initialization and shuffling.
    pub seed: u64,
    /// Retries after an attempt hits a non-finite loss or gradient. Each
    /// retry re-initializes from the next split of the seed and halves the
    /// learning rate. `0` disables retrying.
    pub nan_retries: usize,
    /// Hard cap on circuit executions across all attempts; exceeding it
    /// aborts with [`TrainError::BudgetExhausted`]. `None` is unlimited.
    pub max_executions: Option<u64>,
    /// Candidates trained together per fused dispatch by the cohort path
    /// ([`crate::cohort::train_cohort`]); the search engine trains its top
    /// `cohort` candidates as one batch. `1` trains candidates alone.
    pub cohort: usize,
    /// Successive-halving rungs for cohort early termination: rung `r` of
    /// `R` (0-based) fires after epoch `epochs >> (R - r)` and keeps the
    /// better half of the still-alive cohort, ranked by last-epoch mean
    /// loss. `0` disables early termination, making every cohort member's
    /// training bit-identical to [`try_train`].
    pub halving_rungs: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            batch_size: 128,
            learning_rate: 0.01,
            method: GradientMethod::Adjoint,
            seed: 0,
            nan_retries: 2,
            max_executions: None,
            cohort: 1,
            halving_rungs: 0,
        }
    }
}

/// Why training failed after exhausting its guardrails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// Every attempt (the initial run plus [`TrainConfig::nan_retries`]
    /// retries) hit a non-finite loss or gradient.
    NonFinite {
        /// Attempts made in total.
        attempts: usize,
        /// Epoch within the final failing attempt.
        epoch: usize,
        /// Diagnosis of the last fault.
        message: String,
    },
    /// The execution budget ran out before an attempt finished.
    BudgetExhausted {
        /// Executions consumed when the cap tripped.
        spent: u64,
        /// The configured cap.
        budget: u64,
    },
    /// A cooperative cancellation token (deadline or explicit cancel)
    /// stopped training before it finished. Work already completed is
    /// intact — the loss history holds exactly `epoch` entries.
    Canceled {
        /// Full epochs completed before the cancellation was observed.
        epoch: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NonFinite { attempts, epoch, message } => write!(
                f,
                "training diverged in all {attempts} attempts (last fault in epoch {epoch}: {message})"
            ),
            TrainError::BudgetExhausted { spent, budget } => write!(
                f,
                "training execution budget exhausted: {spent} executions spent, budget is {budget}"
            ),
            TrainError::Canceled { epoch } => {
                write!(f, "training canceled after {epoch} completed epochs")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Outcome of a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainOutcome {
    /// Trained parameter values.
    pub params: Vec<f64>,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f64>,
    /// Total circuit executions consumed (meaningful for the
    /// parameter-shift path; forward passes only for adjoint).
    pub executions: u64,
}

/// Draws initial parameters uniformly from `[-pi, pi]`.
pub fn init_params<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<f64> {
    (0..count)
        .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect()
}

/// Trains a classifier on a split.
///
/// This is the infallible wrapper over [`try_train`]: numeric faults are
/// retried per the config's guardrails and only a run that exhausts them
/// panics.
///
/// # Panics
///
/// Panics if the split is empty, the config has zero epochs/batch size, or
/// every attempt fails with a [`TrainError`].
pub fn train(model: &QuantumClassifier, data: &Split, config: &TrainConfig) -> TrainOutcome {
    try_train(model, data, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Trains a classifier on a split, degrading gracefully on numeric faults.
///
/// This is a one-member [`train_cohort`]. The first attempt starts from
/// `config.seed` at `config.learning_rate`. If an attempt produces a
/// non-finite loss or gradient, it is abandoned *before* the optimizer
/// consumes the poisoned value, and training restarts from the next split
/// of the seed with the learning rate halved — up to
/// [`TrainConfig::nan_retries`] times. Executions spent on failed attempts
/// count toward [`TrainConfig::max_executions`]. Halving rungs never prune
/// a lone member.
///
/// # Errors
///
/// * [`TrainError::NonFinite`] — every attempt diverged;
/// * [`TrainError::BudgetExhausted`] — the execution cap tripped.
///
/// # Panics
///
/// Panics if the split is empty or the config has zero epochs/batch size.
pub fn try_train(
    model: &QuantumClassifier,
    data: &Split,
    config: &TrainConfig,
) -> Result<TrainOutcome, TrainError> {
    let mut results = train_cohort(std::slice::from_ref(model), data, config);
    results.pop().expect("one result per member").map(|member| member.outcome)
}

/// Test oracle: attempt 0 of training as a plain sequential loop over
/// [`crate::gradient::reference_batch_gradient`], without fault sites or
/// retries. The cohort suite pins the production loop and its gradient
/// dispatch to it bit for bit.
///
/// # Panics
///
/// Panics if a minibatch diverges.
#[cfg(test)]
pub(crate) fn reference_train(
    model: &QuantumClassifier,
    data: &Split,
    config: &TrainConfig,
) -> Result<TrainOutcome, TrainError> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut params = init_params(model.num_params(), &mut rng);
    let mut opt = crate::optim::Adam::new(params.len(), config.learning_rate);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut loss_history = Vec::new();
    let mut executions = 0u64;
    for epoch in 0..config.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        for (batch, chunk) in order.chunks(config.batch_size).enumerate() {
            let features: Vec<Vec<f64>> =
                chunk.iter().map(|&i| data.features[i].clone()).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
            let bg = crate::gradient::reference_batch_gradient(
                model,
                &params,
                &features,
                &labels,
                config.method,
            );
            executions += bg.executions;
            if let Some(budget) = config.max_executions.filter(|&b| executions > b) {
                return Err(TrainError::BudgetExhausted { spent: executions, budget });
            }
            assert!(bg.is_finite(), "reference run diverged in epoch {epoch}, batch {batch}");
            opt.step(&mut params, &bg.gradient);
            epoch_loss += bg.loss;
        }
        loss_history.push(epoch_loss / data.len().div_ceil(config.batch_size) as f64);
    }
    Ok(TrainOutcome { params, loss_history, executions })
}

/// Mean cross-entropy loss of a model over a split (noiseless, batched
/// over all samples via the fused execution engine).
pub fn evaluate_loss(model: &QuantumClassifier, params: &[f64], data: &Split) -> f64 {
    let loss: f64 = model
        .logits_batch(params, &data.features)
        .iter()
        .zip(&data.labels)
        .map(|(logits, &y)| crate::loss::cross_entropy(logits, y).0)
        .sum();
    loss / data.len() as f64
}

/// Classification accuracy over a split (noiseless inference, batched over
/// all samples via the fused execution engine).
pub fn accuracy(model: &QuantumClassifier, params: &[f64], data: &Split) -> f64 {
    let correct = model
        .predict_batch(params, &data.features)
        .iter()
        .zip(&data.labels)
        .filter(|(predicted, &y)| **predicted == y)
        .count();
    correct as f64 / data.len() as f64
}

/// Classification accuracy under a device noise model, using Monte-Carlo
/// trajectory inference per sample.
pub fn noisy_accuracy<R: Rng + ?Sized>(
    model: &QuantumClassifier,
    params: &[f64],
    data: &Split,
    noise: &CircuitNoise,
    trajectories: usize,
    rng: &mut R,
) -> f64 {
    let correct = data
        .features
        .iter()
        .zip(&data.labels)
        .filter(|(x, &y)| {
            let dist =
                noisy_distribution(model.circuit(), params, x, noise, trajectories, rng);
            model.predict_from_distribution(&dist) == y
        })
        .count();
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::{Circuit, Gate, ParamExpr};
    use elivagar_datasets::moons;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moons_model() -> QuantumClassifier {
        // Angle embedding of both features, two trainable layers.
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::feature(1)]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Ry, &[1], &[ParamExpr::trainable(1)]);
        c.push_gate(Gate::Cx, &[0, 1], &[]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(2)]);
        c.push_gate(Gate::Rz, &[1], &[ParamExpr::trainable(3)]);
        c.push_gate(Gate::Cx, &[1, 0], &[]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(4)]);
        c.set_measured(vec![0]);
        QuantumClassifier::new(c, 2)
    }

    #[test]
    fn training_learns_moons_above_chance() {
        let data = moons(160, 80, 11).normalized(std::f64::consts::PI);
        let model = moons_model();
        let config = TrainConfig {
            epochs: 40,
            batch_size: 32,
            ..Default::default()
        };
        let outcome = train(&model, data.train(), &config);
        let acc = accuracy(&model, &outcome.params, data.test());
        assert!(acc > 0.75, "test accuracy {acc}");
        // Loss decreased.
        let first = outcome.loss_history.first().expect("has epochs");
        let last = outcome.loss_history.last().expect("has epochs");
        assert!(last < first, "loss went {first} -> {last}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = moons(60, 20, 3).normalized(std::f64::consts::PI);
        let model = moons_model();
        let config = TrainConfig { epochs: 3, batch_size: 16, ..Default::default() };
        let a = train(&model, data.train(), &config);
        let b = train(&model, data.train(), &config);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn parameter_shift_training_counts_executions() {
        let data = moons(24, 8, 5).normalized(std::f64::consts::PI);
        let model = moons_model();
        let config = TrainConfig {
            epochs: 1,
            batch_size: 24,
            method: GradientMethod::ParameterShift,
            ..Default::default()
        };
        let outcome = train(&model, data.train(), &config);
        // Per sample: 1 forward + 5 params * 2 shifts = 11; 24 samples.
        assert_eq!(outcome.executions, 24 * 11);
    }

    #[test]
    fn exhausted_execution_budget_is_a_typed_error() {
        let data = moons(24, 8, 5).normalized(std::f64::consts::PI);
        let model = moons_model();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 24,
            method: GradientMethod::ParameterShift,
            max_executions: Some(100),
            ..Default::default()
        };
        let err = try_train(&model, data.train(), &config).expect_err("budget too small");
        match err {
            TrainError::BudgetExhausted { spent, budget } => {
                assert_eq!(budget, 100);
                assert!(spent > 100, "spent {spent}");
            }
            other => panic!("unexpected error: {other}"),
        }
        // An ample budget changes nothing.
        let capped = try_train(
            &model,
            data.train(),
            &TrainConfig { max_executions: Some(1_000_000), ..config },
        )
        .expect("ample budget");
        let uncapped = try_train(
            &model,
            data.train(),
            &TrainConfig { max_executions: None, ..config },
        )
        .expect("no budget");
        assert_eq!(capped, uncapped);
    }

    #[test]
    fn try_train_attempt_zero_matches_legacy_train() {
        let data = moons(60, 20, 3).normalized(std::f64::consts::PI);
        let model = moons_model();
        for method in [GradientMethod::Adjoint, GradientMethod::ParameterShift] {
            let config =
                TrainConfig { epochs: 3, batch_size: 16, method, ..Default::default() };
            let legacy = reference_train(&model, data.train(), &config).expect("healthy run");
            let fallible = try_train(&model, data.train(), &config).expect("healthy run");
            assert_eq!(legacy, fallible, "{method:?}");
            assert_eq!(train(&model, data.train(), &config), fallible, "{method:?}");
        }
    }

    #[test]
    fn noisy_accuracy_degrades_with_noise() {
        let data = moons(60, 40, 7).normalized(std::f64::consts::PI);
        let model = moons_model();
        let config = TrainConfig { epochs: 30, batch_size: 32, ..Default::default() };
        let outcome = train(&model, data.train(), &config);
        let clean = accuracy(&model, &outcome.params, data.test());
        let arities: Vec<usize> =
            model.circuit().instructions().iter().map(|i| i.qubits.len()).collect();
        let heavy = CircuitNoise::uniform(&arities, 1, 0.25, 0.4, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = noisy_accuracy(&model, &outcome.params, data.test(), &heavy, 40, &mut rng);
        assert!(
            noisy < clean + 0.05,
            "heavy noise should not improve accuracy: clean {clean}, noisy {noisy}"
        );
        assert!(noisy < 0.8, "heavy noise should hurt: {noisy}");
    }
}
