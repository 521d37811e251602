//! QuantumNAT (Wang et al., DAC 2022): noise-aware training via noise
//! injection and post-measurement normalization.
//!
//! The paper's Fig. 11a combines both Elivagar and QuantumNAS with
//! QuantumNAT. Two of QuantumNAT's three techniques are reproduced here:
//! Gaussian noise injection on the measured expectations during training,
//! and batch normalization of the logits whose statistics are reused at
//! inference — which counteracts the shrinkage of expectation magnitudes
//! under hardware noise.

use elivagar_datasets::Split;
use elivagar_ml::{cross_entropy, noisy_accuracy_with, Adam, QuantumClassifier};
use elivagar_sim::noise::CircuitNoise;
use elivagar_sim::{
    noisy_distribution_seeded, AdjointBinding, AdjointProgram, Gradients, ZObservable,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// QuantumNAT training settings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantumNatConfig {
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Standard deviation of the Gaussian noise injected into the measured
    /// expectations during training (calibrate to the target device's
    /// noise level).
    pub injection_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuantumNatConfig {
    fn default() -> Self {
        QuantumNatConfig {
            epochs: 50,
            batch_size: 32,
            learning_rate: 0.01,
            injection_std: 0.05,
            seed: 0,
        }
    }
}

/// A QuantumNAT-trained model: parameters plus the logit normalization
/// statistics applied at inference.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantumNatModel {
    /// Trained circuit parameters.
    pub params: Vec<f64>,
    /// Per-logit mean over the training set.
    pub logit_mean: Vec<f64>,
    /// Per-logit standard deviation over the training set.
    pub logit_std: Vec<f64>,
}

impl QuantumNatModel {
    /// Normalizes raw logits with the stored statistics.
    pub fn normalize(&self, logits: &[f64]) -> Vec<f64> {
        logits
            .iter()
            .zip(self.logit_mean.iter().zip(&self.logit_std))
            .map(|(&l, (&m, &s))| (l - m) / s.max(1e-6))
            .collect()
    }
}

/// Trains a classifier with QuantumNAT noise injection, then records the
/// normalization statistics.
///
/// # Panics
///
/// Panics if the split is empty or the config is degenerate.
pub fn train_quantumnat(
    model: &QuantumClassifier,
    data: &Split,
    config: &QuantumNatConfig,
) -> QuantumNatModel {
    assert!(!data.is_empty(), "cannot train on an empty split");
    assert!(config.epochs > 0 && config.batch_size > 0, "degenerate config");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut params: Vec<f64> = (0..model.num_params())
        .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect();
    let mut opt = Adam::new(params.len(), config.learning_rate);
    // Training reads only parameter gradients, so feature slots are skipped.
    let adjoint = AdjointProgram::compile_params_only(model.circuit());
    let mut binding = AdjointBinding::default();
    let mut obs = ZObservable::new(Vec::new());
    let mut g = Gradients { expectation: 0.0, params: Vec::new(), features: Vec::new() };

    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..config.epochs {
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(config.batch_size) {
            // The parameters stay fixed for the minibatch: bind them once.
            adjoint.bind_into(&params, &mut binding);
            let mut grad = vec![0.0; params.len()];
            for &i in chunk {
                let y = data.labels[i];
                // One forward sweep serves the loss and the gradient: the
                // prepare hook injects Gaussian noise into the expectations
                // (additive, so the backward path through the circuit is
                // unchanged) and rebuilds the observable from the loss.
                adjoint.run_adjoint_with(
                    &binding,
                    &data.features[i],
                    &mut obs,
                    |psi, obs| {
                        let mut expectations = model.expectations_from_state(psi);
                        for e in &mut expectations {
                            *e += config.injection_std * standard_normal(&mut rng);
                        }
                        let logits = model.logits_from_expectations(&expectations);
                        let (_, dlogits) = cross_entropy(&logits, y);
                        obs.reset_terms(model.observable_weights(&dlogits));
                    },
                    &mut g,
                );
                for (acc, gi) in grad.iter_mut().zip(&g.params) {
                    *acc += gi / chunk.len() as f64;
                }
            }
            opt.step(&mut params, &grad);
        }
    }

    // Normalization statistics over the (noiseless) training logits.
    let num_logits = model.num_classes();
    let mut mean = vec![0.0; num_logits];
    let mut sq = vec![0.0; num_logits];
    for x in &data.features {
        let l = model.logits(&params, x);
        for k in 0..num_logits {
            mean[k] += l[k];
            sq[k] += l[k] * l[k];
        }
    }
    for k in 0..num_logits {
        mean[k] /= n as f64;
        sq[k] = (sq[k] / n as f64 - mean[k] * mean[k]).max(0.0).sqrt();
    }

    QuantumNatModel {
        params,
        logit_mean: mean,
        logit_std: sq,
    }
}

/// Noisy-inference accuracy with QuantumNAT normalization applied to the
/// logits before argmax. Samples fan out across the pool through
/// [`noisy_accuracy_with`], with `rng` drawn once per sample in sample
/// order.
pub fn quantumnat_noisy_accuracy<R: Rng + ?Sized>(
    model: &QuantumClassifier,
    nat: &QuantumNatModel,
    data: &Split,
    noise: &CircuitNoise,
    trajectories: usize,
    rng: &mut R,
) -> f64 {
    noisy_accuracy_with(data, rng, |x, seeds| {
        let circuit = model.circuit();
        let dist = noisy_distribution_seeded(circuit, &nat.params, x, noise, trajectories, seeds);
        let expectations = model.expectations_from_distribution(&dist);
        let logits = model.logits_from_expectations(&expectations);
        elivagar_ml::argmax(&nat.normalize(&logits))
    })
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::{Circuit, Gate, ParamExpr};
    use elivagar_datasets::moons;
    use elivagar_ml::noisy_accuracy;

    fn moons_model() -> QuantumClassifier {
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
    fn quantumnat_training_learns_the_task() {
        let data = moons(160, 80, 11).normalized(std::f64::consts::PI);
        let model = moons_model();
        let config = QuantumNatConfig { epochs: 60, seed: 3, ..Default::default() };
        let nat = train_quantumnat(&model, data.train(), &config);
        let acc = elivagar_ml::accuracy(&model, &nat.params, data.test());
        assert!(acc > 0.7, "accuracy {acc}");
        assert_eq!(nat.logit_mean.len(), 2);
    }

    #[test]
    fn normalization_helps_under_noise() {
        // Under depolarizing noise, expectations shrink toward zero;
        // normalization restores the decision scale. Averaged over the
        // test set, NAT inference should not be worse than plain noisy
        // inference.
        let data = moons(100, 80, 22).normalized(std::f64::consts::PI);
        let model = moons_model();
        let config = QuantumNatConfig { epochs: 30, injection_std: 0.1, ..Default::default() };
        let nat = train_quantumnat(&model, data.train(), &config);
        let arities: Vec<usize> =
            model.circuit().instructions().iter().map(|i| i.qubits.len()).collect();
        let noise = CircuitNoise::uniform(&arities, 1, 0.03, 0.08, 0.05);
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let nat_acc =
            quantumnat_noisy_accuracy(&model, &nat, data.test(), &noise, 50, &mut rng1);
        let plain_acc =
            noisy_accuracy(&model, &nat.params, data.test(), &noise, 50, &mut rng2);
        // Statistical comparison on 80 samples with 50 trajectories each:
        // allow ~1.5 standard errors of slack.
        assert!(
            nat_acc + 0.1 >= plain_acc,
            "nat {nat_acc} vs plain {plain_acc}"
        );
    }

    #[test]
    fn normalize_centers_logits() {
        let nat = QuantumNatModel {
            params: vec![],
            logit_mean: vec![0.5, -0.5],
            logit_std: vec![2.0, 0.5],
        };
        let z = nat.normalize(&[1.5, -1.0]);
        assert!((z[0] - 0.5).abs() < 1e-12);
        assert!((z[1] + 1.0).abs() < 1e-12);
    }
}
