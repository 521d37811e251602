//! Chaos cases for the training loop: NaN poisoning at the `train::batch`
//! faultpoint, driven through a fused cohort and through one-member runs.
//!
//! The faultpoint registry is process-global, so every test holds
//! `faultpoint::exclusive()`, which also disarms on entry and exit.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_datasets::{moons, Dataset};
use elivagar_ml::{train_cohort, try_train, QuantumClassifier, TrainConfig, TrainError};
use elivagar_sim::faultpoint::{self, FaultKind};
use elivagar_sim::TaskSeeds;

fn layered_model(qubits: usize, layers: usize) -> QuantumClassifier {
    let mut c = Circuit::new(qubits);
    for q in 0..qubits {
        c.push_gate(Gate::Rx, &[q], &[ParamExpr::feature(q % 2)]);
    }
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..qubits {
            c.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(t)]);
            t += 1;
        }
        for q in 0..qubits - 1 {
            c.push_gate(Gate::Cx, &[q, q + 1], &[]);
        }
    }
    c.set_measured(vec![0]);
    QuantumClassifier::new(c, 2)
}

/// Three members of different sizes, a 32-sample split and batch 8.
fn setup() -> (Vec<QuantumClassifier>, Dataset, TrainConfig) {
    let models = vec![layered_model(2, 1), layered_model(2, 2), layered_model(3, 1)];
    let data = moons(32, 8, 3).normalized(std::f64::consts::PI);
    let config = TrainConfig { epochs: 3, batch_size: 8, seed: 4, ..Default::default() };
    (models, data, config)
}

/// Key 0 poisons every member's first batch of attempt 0. All three
/// diverge in round 0 and recover together in round 1, which is exactly
/// attempt 1 of a clean run: the next seed split at half the learning
/// rate, with the failed batch's executions carried over. The fault
/// fires once per member: nothing replays attempt 0.
#[test]
fn poisoned_first_batch_recovers_in_one_fused_retry_round() {
    let _g = faultpoint::exclusive();
    let (models, data, config) = setup();
    faultpoint::arm_on_key("train::batch", FaultKind::Nan, 0);
    let fused = train_cohort(&models, data.train(), &config);
    assert_eq!(faultpoint::fired("train::batch"), 3);

    let attempt_1 = TrainConfig {
        seed: TaskSeeds::from_base(config.seed).seed(1),
        learning_rate: config.learning_rate * 0.5,
        nan_retries: 0,
        ..config
    };
    for (model, result) in models.iter().zip(fused) {
        let member = result.expect("recovers on attempt 1");
        assert_eq!(member.pruned_at_epoch, None);

        faultpoint::arm_on_key("train::batch", FaultKind::Nan, 0);
        let solo = try_train(model, data.train(), &config).expect("recovers on attempt 1");
        assert_eq!(faultpoint::fired("train::batch"), 1);
        assert_eq!(member.outcome, solo);

        faultpoint::disarm_all();
        let clean = try_train(model, data.train(), &attempt_1).expect("clean run");
        assert_eq!(member.outcome.params, clean.params);
        assert_eq!(member.outcome.loss_history, clean.loss_history);
        let failed_batch = config.batch_size as u64;
        assert_eq!(member.outcome.executions, clean.executions + failed_batch);
    }
}

/// With every batch poisoned, each member exhausts its retries and fails
/// with the same typed error as its one-member run. Each round stops a
/// member at its first batch, so the fault fires once per member per
/// attempt.
#[test]
fn unrecoverable_divergence_fails_each_member_like_its_solo_run() {
    let _g = faultpoint::exclusive();
    let (models, data, config) = setup();
    let attempts = config.nan_retries + 1;
    faultpoint::arm("train::batch", FaultKind::Nan, 7, 1.0);
    let fused = train_cohort(&models, data.train(), &config);
    assert_eq!(faultpoint::fired("train::batch"), (models.len() * attempts) as u64);

    let expected = TrainError::NonFinite {
        attempts,
        epoch: 0,
        message: "non-finite loss NaN in epoch 0, batch 0".into(),
    };
    for (model, result) in models.iter().zip(fused) {
        assert_eq!(result, Err(expected.clone()));
        assert_eq!(try_train(model, data.train(), &config), Err(expected.clone()));
    }
}
