//! QTN-VQC (Qi, Yang, Chen 2021): trainable classical tensor-network
//! preprocessing in front of the variational circuit.
//!
//! The paper's Fig. 11b pairs both Elivagar and QuantumNAS with QTN-VQC.
//! We reproduce the architecture as a rank-factorized (tensor-train style)
//! linear map `x -> U (V x)` with a bounded nonlinearity producing circuit
//! angles in `(0, pi)`, trained jointly with the circuit by
//! backpropagation — the circuit side uses the adjoint engine's *feature
//! gradients* to flow loss into the classical factors.

use elivagar_datasets::Split;
use elivagar_ml::{cross_entropy, Adam, QuantumClassifier};
use elivagar_sim::noise::CircuitNoise;
use elivagar_sim::{noisy_distribution, AdjointProgram, Gradients, ZObservable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The classical preprocessing head: `y = (pi/2) * (tanh(U V x) + 1)`.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorTrainLayer {
    input_dim: usize,
    rank: usize,
    output_dim: usize,
    /// `u[o * rank + r]`.
    u: Vec<f64>,
    /// `v[r * input_dim + i]`.
    v: Vec<f64>,
}

impl TensorTrainLayer {
    /// Creates a layer with small random factors.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        rank: usize,
        output_dim: usize,
        rng: &mut R,
    ) -> Self {
        assert!(input_dim > 0 && rank > 0 && output_dim > 0, "degenerate layer");
        let scale = 1.0 / (input_dim as f64).sqrt();
        TensorTrainLayer {
            input_dim,
            rank,
            output_dim,
            u: (0..output_dim * rank)
                .map(|_| rng.random_range(-scale..scale))
                .collect(),
            v: (0..rank * input_dim)
                .map(|_| rng.random_range(-scale..scale))
                .collect(),
        }
    }

    /// Output dimensionality (the circuit's feature count).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Number of classical trainable parameters.
    pub fn num_params(&self) -> usize {
        self.u.len() + self.v.len()
    }

    /// Forward pass: returns `(z, pre, y)` where `z = V x`,
    /// `pre = U z`, and `y = (pi/2)(tanh(pre) + 1)`.
    fn forward_full(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let z: Vec<f64> = (0..self.rank)
            .map(|r| {
                (0..self.input_dim)
                    .map(|i| self.v[r * self.input_dim + i] * x[i])
                    .sum()
            })
            .collect();
        let pre: Vec<f64> = (0..self.output_dim)
            .map(|o| (0..self.rank).map(|r| self.u[o * self.rank + r] * z[r]).sum())
            .collect();
        let y = pre
            .iter()
            .map(|&p| std::f64::consts::FRAC_PI_2 * (p.tanh() + 1.0))
            .collect();
        (z, pre, y)
    }

    /// Preprocesses one input vector into circuit angles in `(0, pi)`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_full(x).2
    }

    /// Backpropagates the gradient `dL/dy` into `(dU, dV)`.
    fn backward(&self, x: &[f64], z: &[f64], pre: &[f64], dy: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // dy/dpre = (pi/2)(1 - tanh^2(pre)).
        let dpre: Vec<f64> = dy
            .iter()
            .zip(pre)
            .map(|(&g, &p)| g * std::f64::consts::FRAC_PI_2 * (1.0 - p.tanh().powi(2)))
            .collect();
        let mut du = vec![0.0; self.u.len()];
        for o in 0..self.output_dim {
            for r in 0..self.rank {
                du[o * self.rank + r] = dpre[o] * z[r];
            }
        }
        // dz[r] = sum_o dpre[o] * u[o][r].
        let dz: Vec<f64> = (0..self.rank)
            .map(|r| {
                (0..self.output_dim)
                    .map(|o| dpre[o] * self.u[o * self.rank + r])
                    .sum()
            })
            .collect();
        let mut dv = vec![0.0; self.v.len()];
        for r in 0..self.rank {
            for i in 0..self.input_dim {
                dv[r * self.input_dim + i] = dz[r] * x[i];
            }
        }
        (du, dv)
    }
}

/// A jointly trained QTN-VQC model.
#[derive(Clone, Debug, PartialEq)]
pub struct QtnVqcModel {
    /// Trained circuit parameters.
    pub params: Vec<f64>,
    /// Trained preprocessing layer.
    pub layer: TensorTrainLayer,
}

/// QTN-VQC training settings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QtnVqcConfig {
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Tensor-train rank.
    pub rank: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QtnVqcConfig {
    fn default() -> Self {
        QtnVqcConfig {
            epochs: 50,
            batch_size: 32,
            learning_rate: 0.02,
            rank: 4,
            seed: 0,
        }
    }
}

/// Trains circuit and preprocessing jointly. The `model`'s circuit must
/// consume exactly `layer.output_dim()` features; `input_dim` is the raw
/// dataset dimensionality.
///
/// # Panics
///
/// Panics if the split is empty or dimensions are inconsistent.
pub fn train_qtn_vqc(
    model: &QuantumClassifier,
    data: &Split,
    input_dim: usize,
    circuit_feature_dim: usize,
    config: &QtnVqcConfig,
) -> QtnVqcModel {
    assert!(!data.is_empty(), "cannot train on an empty split");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut layer = TensorTrainLayer::new(input_dim, config.rank, circuit_feature_dim, &mut rng);
    let mut params: Vec<f64> = (0..model.num_params())
        .map(|_| rng.random_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect();
    let mut opt = Adam::new(params.len() + layer.num_params(), config.learning_rate);
    // Full compile: the angle (feature) gradients feed the classical layer.
    let adjoint = AdjointProgram::compile(model.circuit());
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
            let mut grad = vec![0.0; params.len() + layer.num_params()];
            for &i in chunk {
                let x = &data.features[i];
                let y = data.labels[i];
                let (z, pre, angles) = layer.forward_full(x);
                // The loss comes from the adjoint's own forward sweep.
                adjoint.run_adjoint_with(
                    &params,
                    &angles,
                    &mut obs,
                    |psi, obs| {
                        let expectations = model.expectations_from_state(psi);
                        let logits = model.logits_from_expectations(&expectations);
                        let (_, dlogits) = cross_entropy(&logits, y);
                        obs.reset_terms(model.observable_weights(&dlogits));
                    },
                    &mut g,
                );
                // dL/dangles flows into the classical factors.
                let (du, dv) = layer.backward(x, &z, &pre, &g.features);
                let scale = 1.0 / chunk.len() as f64;
                for (k, gi) in g.params.iter().enumerate() {
                    grad[k] += gi * scale;
                }
                for (k, gi) in du.iter().enumerate() {
                    grad[params.len() + k] += gi * scale;
                }
                for (k, gi) in dv.iter().enumerate() {
                    grad[params.len() + layer.u.len() + k] += gi * scale;
                }
            }
            // One Adam step over the concatenated parameter vector.
            let mut all: Vec<f64> = params
                .iter()
                .chain(layer.u.iter())
                .chain(layer.v.iter())
                .copied()
                .collect();
            opt.step(&mut all, &grad);
            let p_len = params.len();
            params.copy_from_slice(&all[..p_len]);
            let u_end = p_len + layer.u.len();
            layer.u.copy_from_slice(&all[p_len..u_end]);
            layer.v.copy_from_slice(&all[u_end..]);
        }
    }

    QtnVqcModel { params, layer }
}

/// Noiseless accuracy of a QTN-VQC model.
pub fn qtn_vqc_accuracy(model: &QuantumClassifier, qtn: &QtnVqcModel, data: &Split) -> f64 {
    let correct = data
        .features
        .iter()
        .zip(&data.labels)
        .filter(|(x, &y)| {
            let angles = qtn.layer.forward(x);
            model.predict(&qtn.params, &angles) == y
        })
        .count();
    correct as f64 / data.len() as f64
}

/// Noisy-inference accuracy of a QTN-VQC model.
pub fn qtn_vqc_noisy_accuracy<R: Rng + ?Sized>(
    model: &QuantumClassifier,
    qtn: &QtnVqcModel,
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
            let angles = qtn.layer.forward(x);
            let dist = noisy_distribution(
                model.circuit(),
                &qtn.params,
                &angles,
                noise,
                trajectories,
                rng,
            );
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

    fn circuit_model() -> QuantumClassifier {
        // Circuit consumes 2 preprocessed angle features.
        let mut c = Circuit::new(2);
        c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
        c.push_gate(Gate::Rx, &[1], &[ParamExpr::feature(1)]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
        c.push_gate(Gate::Cx, &[1, 0], &[]);
        c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(1)]);
        c.set_measured(vec![0]);
        QuantumClassifier::new(c, 2)
    }

    #[test]
    fn layer_output_is_a_valid_angle() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = TensorTrainLayer::new(4, 2, 3, &mut rng);
        let y = layer.forward(&[10.0, -3.0, 0.5, 2.0]);
        assert_eq!(y.len(), 3);
        for v in y {
            assert!((0.0..=std::f64::consts::PI).contains(&v));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indexed mutation of the factors
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = TensorTrainLayer::new(3, 2, 2, &mut rng);
        let x = [0.4, -0.7, 1.1];
        let dy = [0.3, -0.5];
        let (z, pre, _) = layer.forward_full(&x);
        let (du, dv) = layer.backward(&x, &z, &pre, &dy);
        let loss = |l: &TensorTrainLayer| -> f64 {
            l.forward(&x).iter().zip(&dy).map(|(a, b)| a * b).sum()
        };
        let h = 1e-6;
        for k in 0..layer.u.len() {
            let orig = layer.u[k];
            layer.u[k] = orig + h;
            let lp = loss(&layer);
            layer.u[k] = orig - h;
            let lm = loss(&layer);
            layer.u[k] = orig;
            assert!((du[k] - (lp - lm) / (2.0 * h)).abs() < 1e-6, "u[{k}]");
        }
        for k in 0..layer.v.len() {
            let orig = layer.v[k];
            layer.v[k] = orig + h;
            let lp = loss(&layer);
            layer.v[k] = orig - h;
            let lm = loss(&layer);
            layer.v[k] = orig;
            assert!((dv[k] - (lp - lm) / (2.0 * h)).abs() < 1e-6, "v[{k}]");
        }
    }

    #[test]
    fn joint_training_learns_moons() {
        let data = moons(120, 60, 31).normalized(1.0);
        let model = circuit_model();
        let config = QtnVqcConfig { epochs: 40, ..Default::default() };
        let qtn = train_qtn_vqc(&model, data.train(), 2, 2, &config);
        let acc = qtn_vqc_accuracy(&model, &qtn, data.test());
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = moons(40, 16, 33).normalized(1.0);
        let model = circuit_model();
        let config = QtnVqcConfig { epochs: 3, ..Default::default() };
        let a = train_qtn_vqc(&model, data.train(), 2, 2, &config);
        let b = train_qtn_vqc(&model, data.train(), 2, 2, &config);
        assert_eq!(a.params, b.params);
    }
}
