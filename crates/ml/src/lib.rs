//! QML training stack for the Elivagar reproduction.
//!
//! Implements the paper's training methodology (Section 7.3): a quantum
//! classifier head over measured-qubit `<Z>` expectations, cross-entropy
//! loss, Adam at learning rate 0.01, and two gradient paths — adjoint
//! differentiation for the "classical simulators" scenario and
//! parameter-shift rules with per-execution accounting for the "quantum
//! hardware" scenario of Table 4.
//!
//! # Examples
//!
//! ```
//! use elivagar_circuit::{Circuit, Gate, ParamExpr};
//! use elivagar_datasets::moons;
//! use elivagar_ml::{accuracy, train, QuantumClassifier, TrainConfig};
//!
//! let mut c = Circuit::new(2);
//! c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
//! c.push_gate(Gate::Rx, &[1], &[ParamExpr::feature(1)]);
//! c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
//! c.push_gate(Gate::Cx, &[1, 0], &[]);
//! c.set_measured(vec![0]);
//! let model = QuantumClassifier::new(c, 2);
//! let data = moons(40, 10, 0).normalized(std::f64::consts::PI);
//! let config = TrainConfig { epochs: 2, batch_size: 20, ..Default::default() };
//! let outcome = train(&model, data.train(), &config);
//! let acc = accuracy(&model, &outcome.params, data.test());
//! assert!(acc >= 0.0);
//! ```

pub mod accounting;
pub mod cohort;
pub mod diagnostics;
pub mod gradient;
pub mod loss;
pub mod model;
pub mod optim;
pub mod train;

pub use accounting::{elivagar_default_cost, ElivagarCost, SuperCircuitCost};
pub use cohort::{train_cohort, train_cohort_with_cancel, CohortOutcome};
pub use diagnostics::{gradient_variance, GradientVariance};
pub use gradient::{
    batch_gradient, cohort_batch_gradients, shift_rule, BatchGradient, CohortBatch, GradientMethod,
    MultiItem,
};
pub use loss::{cross_entropy, softmax};
pub use model::{argmax, ModelError, QuantumClassifier};
pub use optim::Adam;
pub use train::{
    accuracy, evaluate_loss, init_params, noisy_accuracy, noisy_accuracy_with, train, try_train,
    TrainConfig, TrainError, TrainOutcome,
};
