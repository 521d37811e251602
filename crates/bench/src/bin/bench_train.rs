//! Records the cohort-training trajectory point (`BENCH_train.json`):
//! candidates trained one at a time versus the fused cross-candidate
//! cohort path with successive-halving early termination.
//!
//! The workload trains a 16-candidate cohort (2–4 qubits, 1–2 layers —
//! the size span a real top-k cohort shows) on the moons reference task
//! for 16 epochs. The baseline trains every candidate to completion one
//! after another with [`try_train`], which is a one-member cohort, so the
//! baseline is sequential one-member cohorts; the contender calls
//! [`train_cohort`] with 4 halving rungs, which prunes the cohort
//! 16 → 8 → 4 → 2 → 1 at epochs 1/2/4/8 and therefore trains 48
//! member-epochs instead of 256. The binary exits 1 unless
//! `speedup >= 3.0` and `ranking_match`: with halving off, every member's
//! outcome must be bit-identical to its solo run, so the loss-based
//! ranking cannot move.
//!
//! Wall times are compared within this one process (same thread count,
//! same build); the JSON also records member-epoch counts, which are
//! machine-independent.

use elivagar_bench::{gate, time_ns, Bound};
use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_datasets::moons;
use elivagar_ml::{train_cohort, try_train, QuantumClassifier, TrainConfig};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct Report {
    threads: usize,
    candidates: usize,
    epochs: usize,
    halving_rungs: usize,
    solo_wall_ns: u64,
    cohort_wall_ns: u64,
    /// `solo_wall_ns / cohort_wall_ns`: fused dispatch + early
    /// termination versus training every candidate to completion.
    speedup: f64,
    solo_member_epochs: usize,
    cohort_member_epochs: usize,
    /// With halving off, cohort outcomes are bit-identical to solo
    /// training, so the final-loss ranking matches exactly.
    ranking_match: bool,
    pruned: usize,
}

/// Small entangled classifier; the cohort mixes sizes so the arena
/// stride and per-member reductions run ragged, as in a real search.
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
        for q in 0..qubits.saturating_sub(1) {
            c.push_gate(Gate::Cx, &[q, q + 1], &[]);
        }
    }
    c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(t)]);
    c.set_measured(vec![0]);
    QuantumClassifier::new(c, 2)
}

fn main() -> ExitCode {
    let data = moons(64, 16, 3).normalized(std::f64::consts::PI);
    let models: Vec<QuantumClassifier> = (0..16)
        .map(|i| layered_model(2 + i % 3, 1 + i % 2))
        .collect();
    let epochs = 16;
    let halving_rungs = 4;
    let config = TrainConfig { epochs, batch_size: 16, seed: 5, ..Default::default() };

    // Baseline: every candidate trained to completion, one at a time.
    let (solo_wall_ns, solo) = time_ns(|| {
        models
            .iter()
            .map(|m| try_train(m, data.train(), &config).expect("healthy solo run"))
            .collect::<Vec<_>>()
    });

    // Contender: the same cohort through fused dispatches with halving.
    let halved_config =
        TrainConfig { cohort: models.len(), halving_rungs, ..config };
    let (cohort_wall_ns, halved) = time_ns(|| train_cohort(&models, data.train(), &halved_config));

    let cohort_member_epochs: usize = halved
        .iter()
        .map(|r| r.as_ref().expect("healthy cohort run").outcome.loss_history.len())
        .sum();
    let pruned = halved
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|c| c.pruned_at_epoch.is_some()))
        .count();

    // Equivalence: with halving off, every member's outcome — and
    // therefore the final-loss ranking — is bit-identical to solo.
    let full_config = TrainConfig { cohort: models.len(), ..config };
    let full = train_cohort(&models, data.train(), &full_config);
    let ranking_match = solo.iter().zip(&full).all(|(s, r)| {
        r.as_ref().is_ok_and(|c| {
            c.pruned_at_epoch.is_none()
                && c.outcome
                    .loss_history
                    .iter()
                    .zip(&s.loss_history)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && c.outcome.params.iter().zip(&s.params).all(|(a, b)| a.to_bits() == b.to_bits())
        })
    });

    let report = Report {
        threads: elivagar_sim::num_threads(),
        candidates: models.len(),
        epochs,
        halving_rungs,
        solo_wall_ns,
        cohort_wall_ns,
        speedup: solo_wall_ns as f64 / cohort_wall_ns as f64,
        solo_member_epochs: models.len() * epochs,
        cohort_member_epochs,
        ranking_match,
        pruned,
    };
    let bounds = [
        Bound::at_least("speedup", report.speedup, 3.0),
        Bound::holds("ranking_match", report.ranking_match),
    ];
    gate::finish("train", &report, &bounds)
}
