//! Cross-candidate cohort training: the whole top-k cohort of a search
//! trains through fused multi-program dispatches, with optional
//! successive-halving early termination.
//!
//! Instead of training k candidates one after another (k pool dispatches
//! per minibatch step, each too small to saturate the workers), the cohort
//! path compiles every candidate once into a [`MultiProgram`] and pushes
//! every still-alive member's minibatch through the work-stealing pool as
//! one fused batch of `(member, sample)` items.
//!
//! # Determinism
//!
//! Every member starts from exactly the state solo training would give it:
//! its own `StdRng` seeded with `config.seed`, its own parameter draw,
//! Adam state, shuffle order, and fault-point batch counter. Per-item
//! gradients are computed by the same float sequence as the solo path
//! (see [`crate::gradient::cohort_batch_gradients`]) and reduced
//! sequentially in item order, so with `halving_rungs == 0` every member's
//! outcome is bit-for-bit identical to [`try_train`] on that member alone
//! — at any thread count. Early termination changes *which* epochs run,
//! never the values they compute: a member pruned at epoch `e` has exactly
//! the first `e` entries of its solo loss history.
//!
//! # Successive halving
//!
//! With `R = config.halving_rungs > 0`, rung `r` (0-based) fires after
//! epoch `epochs >> (R - r)` and keeps the better `ceil(alive / 2)` of the
//! still-alive members, ranked by last-epoch mean training loss (finite
//! ascending before non-finite, member index as the tie-break — a total
//! order, so rankings are identical at any thread count). For k = 16
//! members, 16 epochs, and 4 rungs this trains 48 member-epochs instead
//! of 256.

use crate::gradient::cohort_batch_gradients;
use crate::model::QuantumClassifier;
use crate::optim::Adam;
use crate::train::{init_params, try_train, TrainConfig, TrainError, TrainOutcome};
use elivagar_datasets::Split;
use elivagar_sim::{AdjointProgram, CancelToken, MultiItem, MultiProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One cohort member's training result.
#[derive(Clone, Debug, PartialEq)]
pub struct CohortOutcome {
    /// The member's training outcome. For a member that survived to the
    /// end this is bit-identical to solo [`try_train`]; for a pruned
    /// member it holds the parameters, loss history, and execution count
    /// at the prune point (a bit-identical prefix of the solo run).
    pub outcome: TrainOutcome,
    /// The epoch count after which successive halving pruned this member;
    /// `None` if it trained to completion.
    pub pruned_at_epoch: Option<usize>,
}

/// Why a member left the fused path mid-run.
enum MemberFault {
    /// Non-finite loss or gradient: the member falls back to a full solo
    /// [`try_train`] (which replays the identical attempt-0 fault, then
    /// retries per the config's guardrails).
    NonFinite,
    /// Execution budget exhausted — terminal, exactly as in solo training.
    Budget { spent: u64, budget: u64 },
    /// A cancellation token fired at an epoch boundary — terminal for
    /// every still-alive member; pruned members keep their outcomes.
    Canceled { at_epoch: usize },
}

/// One member's in-flight training state.
enum MemberStatus {
    Alive,
    Pruned { at_epoch: usize },
    Faulted(MemberFault),
}

struct Member {
    rng: StdRng,
    opt: Adam,
    order: Vec<usize>,
    loss_history: Vec<f64>,
    grad: Vec<f64>,
    executions: u64,
    batch_counter: u64,
    status: MemberStatus,
}

/// The epochs (1-based counts of completed epochs) after which halving
/// rungs fire. Strictly increasing; rungs that would fire before the first
/// epoch completes are dropped.
///
/// Rung `r` fires after `epochs >> (rungs - r)`. A shift of `usize::BITS`
/// or more leaves no epoch, so only the last `usize::BITS - 1` rungs can
/// fire, and only their shifts are visited: any `rungs` is safe and
/// cheap.
fn rung_epochs(epochs: usize, rungs: usize) -> Vec<usize> {
    let max_shift = rungs.min(usize::BITS as usize - 1);
    let mut fire: Vec<usize> = (1..=max_shift)
        .rev()
        .map(|shift| epochs >> shift)
        .filter(|&e| e >= 1)
        .collect();
    fire.dedup();
    fire
}

/// Total order on last-epoch losses: finite ascending, then non-finite.
fn loss_order(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_finite(), b.is_finite()) {
        (true, true) => a.partial_cmp(&b).expect("both finite"),
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => std::cmp::Ordering::Equal,
    }
}

/// Trains every model in the cohort on `data`, fusing all still-alive
/// members' minibatches into single pool dispatches and (optionally)
/// pruning the weaker half at each successive-halving rung.
///
/// Returns one result per model, in input order. See the module docs for
/// the determinism contract; in short, `halving_rungs == 0` reproduces
/// [`try_train`] per member bit-for-bit.
///
/// # Panics
///
/// Panics if the split is empty or the config has zero epochs/batch size.
pub fn train_cohort(
    models: &[QuantumClassifier],
    data: &Split,
    config: &TrainConfig,
) -> Vec<Result<CohortOutcome, TrainError>> {
    train_cohort_with_cancel(models, data, config, None)
}

/// [`train_cohort`] with a cooperative cancellation token, polled at the
/// top of every epoch. When the token cancels (a scheduler deadline, an
/// explicit revoke), every still-alive member fails with
/// [`TrainError::Canceled`]; members already pruned by a halving rung keep
/// their (bit-identical-prefix) outcomes. The cohort arenas are released
/// on return exactly as in a completed run — cancellation never leaks the
/// fused scratch state.
pub fn train_cohort_with_cancel(
    models: &[QuantumClassifier],
    data: &Split,
    config: &TrainConfig,
    cancel: Option<&CancelToken>,
) -> Vec<Result<CohortOutcome, TrainError>> {
    assert!(!data.is_empty(), "cannot train on an empty split");
    assert!(config.epochs > 0 && config.batch_size > 0, "degenerate train config");
    if models.is_empty() {
        return Vec::new();
    }

    let multi = MultiProgram::compile(models.iter().map(|m| m.circuit()));
    // Streamed-adjoint programs, compiled once per cohort alongside the
    // forward multi-program (only the Adjoint gradient path reads them);
    // params-only because training never reads feature gradients.
    let adjoints: Vec<AdjointProgram> =
        models.iter().map(|m| AdjointProgram::compile_params_only(m.circuit())).collect();
    let n = data.len();
    let num_chunks = n.div_ceil(config.batch_size);
    let rungs = rung_epochs(config.epochs, config.halving_rungs);

    // Every member starts exactly where solo attempt 0 would: seed, draw,
    // optimizer, identity shuffle order.
    let mut params_by: Vec<Vec<f64>> = Vec::with_capacity(models.len());
    let mut members: Vec<Member> = models
        .iter()
        .map(|model| {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let params = init_params(model.num_params(), &mut rng);
            let opt = Adam::new(params.len(), config.learning_rate);
            params_by.push(params);
            Member {
                rng,
                opt,
                order: (0..n).collect(),
                loss_history: Vec::with_capacity(config.epochs),
                grad: Vec::new(),
                executions: 0,
                batch_counter: 0,
                status: MemberStatus::Alive,
            }
        })
        .collect();

    // Recycled across the whole run: fused work items, the gradient arena,
    // per-item (loss, executions) results, the chunk's member snapshot,
    // per-member epoch loss accumulators, and the rung ranking.
    let mut items: Vec<MultiItem> = Vec::new();
    let mut arena: Vec<f64> = Vec::new();
    let mut out: Vec<(f64, u64)> = Vec::new();
    let mut chunk_members: Vec<usize> = Vec::new();
    let mut epoch_loss: Vec<f64> = Vec::new();
    let mut ranked: Vec<usize> = Vec::new();

    for epoch in 0..config.epochs {
        let _epoch_span = elivagar_obs::span!("cohort_epoch", epoch = epoch);
        let epoch_sw = elivagar_obs::metrics::Stopwatch::start();
        if !members.iter().any(|m| matches!(m.status, MemberStatus::Alive)) {
            break;
        }
        // Chaos site: a panic here simulates the pool dying mid-cohort —
        // the search engine must quarantine the whole cohort, not abort.
        elivagar_sim::faultpoint::hit("train::cohort_epoch", epoch as u64);
        // Deadline/revocation check at the epoch boundary: terminal for
        // alive members, and the epoch that was mid-flight never starts,
        // so loss histories stay exact prefixes of the solo run.
        if cancel.is_some_and(CancelToken::is_canceled) {
            for member in &mut members {
                if matches!(member.status, MemberStatus::Alive) {
                    member.status =
                        MemberStatus::Faulted(MemberFault::Canceled { at_epoch: epoch });
                }
            }
            break;
        }
        // Per-member shuffle, identical to the solo epoch shuffle.
        for member in &mut members {
            if !matches!(member.status, MemberStatus::Alive) {
                continue;
            }
            for i in (1..n).rev() {
                let j = member.rng.random_range(0..=i);
                member.order.swap(i, j);
            }
        }
        epoch_loss.clear();
        epoch_loss.resize(members.len(), 0.0);
        for chunk in 0..num_chunks {
            let start = chunk * config.batch_size;
            let end = n.min(start + config.batch_size);
            let chunk_len = end - start;
            // Member-major items: each alive member contributes its own
            // shuffled view of this chunk, so its block of arena slices
            // reduces to exactly its solo minibatch gradient.
            chunk_members.clear();
            items.clear();
            for (m, member) in members.iter().enumerate() {
                if !matches!(member.status, MemberStatus::Alive) {
                    continue;
                }
                chunk_members.push(m);
                for &sample in &member.order[start..end] {
                    items.push(MultiItem { member: m as u32, sample: sample as u32 });
                }
            }
            if chunk_members.is_empty() {
                break;
            }
            elivagar_obs::metrics::TRAIN_BATCHED_CANDIDATES.add(chunk_members.len() as u64);
            let batch_sw = elivagar_obs::metrics::Stopwatch::start();
            let stride = cohort_batch_gradients(
                models,
                &multi,
                &adjoints,
                &params_by,
                &data.features,
                &data.labels,
                &items,
                config.method,
                &mut arena,
                &mut out,
            );
            batch_sw.record(&elivagar_obs::metrics::TRAIN_BATCH_NS);
            // Sequential per-member reduction and optimizer step, in item
            // order — the same additions in the same order as the solo
            // minibatch loop.
            for (slot, &m) in chunk_members.iter().enumerate() {
                let offset = slot * chunk_len;
                let member = &mut members[m];
                let num_params = params_by[m].len();
                member.grad.clear();
                member.grad.resize(num_params, 0.0);
                let mut loss = 0.0;
                let mut executions = 0u64;
                for i in 0..chunk_len {
                    let (l, e) = out[offset + i];
                    loss += l;
                    executions += e;
                    let slice = &arena[(offset + i) * stride..][..num_params];
                    for (acc, gi) in member.grad.iter_mut().zip(slice) {
                        *acc += gi;
                    }
                }
                let samples = chunk_len as f64;
                loss /= samples;
                for g in &mut member.grad {
                    *g /= samples;
                }
                member.executions += executions;
                if let Some(budget) = config.max_executions {
                    if member.executions > budget {
                        member.status = MemberStatus::Faulted(MemberFault::Budget {
                            spent: member.executions,
                            budget,
                        });
                        continue;
                    }
                }
                // Same chaos site and key as solo attempt 0.
                let poisoned = elivagar_sim::faultpoint::poison(
                    "train::batch",
                    member.batch_counter,
                    loss,
                );
                member.batch_counter += 1;
                let finite = poisoned.is_finite()
                    && loss.is_finite()
                    && member.grad.iter().all(|g| g.is_finite());
                if !finite {
                    member.status = MemberStatus::Faulted(MemberFault::NonFinite);
                    continue;
                }
                member.opt.step(&mut params_by[m], &member.grad);
                epoch_loss[m] += poisoned;
            }
        }
        let mut alive = 0u64;
        for (m, member) in members.iter_mut().enumerate() {
            if matches!(member.status, MemberStatus::Alive) {
                member.loss_history.push(epoch_loss[m] / num_chunks as f64);
                alive += 1;
            }
        }
        elivagar_obs::metrics::TRAIN_EPOCHS.add(alive);
        epoch_sw.record(&elivagar_obs::metrics::TRAIN_EPOCH_NS);

        // Successive-halving rung: keep the better half, prune the rest.
        if rungs.contains(&(epoch + 1)) {
            ranked.clear();
            ranked.extend(
                members
                    .iter()
                    .enumerate()
                    .filter(|(_, member)| matches!(member.status, MemberStatus::Alive))
                    .map(|(m, _)| m),
            );
            ranked.sort_unstable_by(|&a, &b| {
                let la = *members[a].loss_history.last().expect("epoch completed");
                let lb = *members[b].loss_history.last().expect("epoch completed");
                loss_order(la, lb).then(a.cmp(&b))
            });
            let keep = ranked.len().div_ceil(2).max(1);
            for &m in &ranked[keep..] {
                members[m].status = MemberStatus::Pruned { at_epoch: epoch + 1 };
                elivagar_obs::metrics::TRAIN_PRUNED.add(1);
            }
        }
    }

    members
        .iter_mut()
        .zip(models)
        .zip(params_by)
        .map(|((member, model), params)| match &member.status {
            MemberStatus::Alive => Ok(CohortOutcome {
                outcome: TrainOutcome {
                    params,
                    loss_history: std::mem::take(&mut member.loss_history),
                    executions: member.executions,
                },
                pruned_at_epoch: None,
            }),
            MemberStatus::Pruned { at_epoch } => Ok(CohortOutcome {
                outcome: TrainOutcome {
                    params,
                    loss_history: std::mem::take(&mut member.loss_history),
                    executions: member.executions,
                },
                pruned_at_epoch: Some(*at_epoch),
            }),
            MemberStatus::Faulted(MemberFault::Budget { spent, budget }) => {
                Err(TrainError::BudgetExhausted { spent: *spent, budget: *budget })
            }
            MemberStatus::Faulted(MemberFault::Canceled { at_epoch }) => {
                Err(TrainError::Canceled { epoch: *at_epoch })
            }
            MemberStatus::Faulted(MemberFault::NonFinite) => {
                // The fused state is poisoned; replay the member solo. The
                // fault-point keys and float sequence match, so the replay
                // hits the identical fault and then retries exactly as a
                // solo run would.
                try_train(model, data, config)
                    .map(|outcome| CohortOutcome { outcome, pruned_at_epoch: None })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientMethod;
    use elivagar_circuit::{Circuit, Gate, ParamExpr};
    use elivagar_datasets::moons;

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

    fn cohort_models() -> Vec<QuantumClassifier> {
        vec![
            layered_model(2, 1),
            layered_model(2, 2),
            layered_model(3, 1),
            layered_model(3, 2),
        ]
    }

    #[test]
    fn cohort_without_rungs_matches_solo_training_bit_for_bit() {
        let data = moons(48, 16, 9).normalized(std::f64::consts::PI);
        let models = cohort_models();
        for method in [GradientMethod::Adjoint, GradientMethod::ParameterShift] {
            let config = TrainConfig {
                epochs: 4,
                batch_size: 16,
                method,
                seed: 7,
                ..Default::default()
            };
            let fused = train_cohort(&models, data.train(), &config);
            for (model, result) in models.iter().zip(fused) {
                let got = result.expect("healthy run");
                assert_eq!(got.pruned_at_epoch, None);
                let solo = try_train(model, data.train(), &config).expect("healthy run");
                assert_eq!(got.outcome, solo, "method {method:?}");
                for (a, b) in got.outcome.params.iter().zip(&solo.params) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn halving_prunes_on_schedule_and_survivor_matches_solo() {
        let data = moons(48, 16, 9).normalized(std::f64::consts::PI);
        let models = cohort_models();
        let config = TrainConfig {
            epochs: 8,
            batch_size: 16,
            halving_rungs: 2,
            ..Default::default()
        };
        // Rungs fire after epochs 8 >> 2 = 2 and 8 >> 1 = 4.
        assert_eq!(rung_epochs(config.epochs, config.halving_rungs), vec![2, 4]);
        let results = train_cohort(&models, data.train(), &config);
        let outcomes: Vec<&CohortOutcome> =
            results.iter().map(|r| r.as_ref().expect("healthy run")).collect();
        let pruned_at_2 =
            outcomes.iter().filter(|o| o.pruned_at_epoch == Some(2)).count();
        let pruned_at_4 =
            outcomes.iter().filter(|o| o.pruned_at_epoch == Some(4)).count();
        let survivors =
            outcomes.iter().filter(|o| o.pruned_at_epoch.is_none()).count();
        assert_eq!((pruned_at_2, pruned_at_4, survivors), (2, 1, 1));
        for o in &outcomes {
            let expected = o.pruned_at_epoch.unwrap_or(config.epochs);
            assert_eq!(o.outcome.loss_history.len(), expected);
        }
        // Every member's history — pruned or not — is a bit-identical
        // prefix of its solo run, and the survivor matches end to end.
        for (model, o) in models.iter().zip(&outcomes) {
            let solo = try_train(model, data.train(), &config).expect("healthy run");
            for (a, b) in o.outcome.loss_history.iter().zip(&solo.loss_history) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            if o.pruned_at_epoch.is_none() {
                assert_eq!(o.outcome, solo);
            }
        }
    }

    #[test]
    fn halving_is_deterministic_across_runs() {
        let data = moons(48, 16, 9).normalized(std::f64::consts::PI);
        let models = cohort_models();
        let config = TrainConfig {
            epochs: 8,
            batch_size: 16,
            halving_rungs: 3,
            ..Default::default()
        };
        let a = train_cohort(&models, data.train(), &config);
        let b = train_cohort(&models, data.train(), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_exhaustion_matches_solo_accounting() {
        let data = moons(24, 8, 5).normalized(std::f64::consts::PI);
        let models = cohort_models();
        let config = TrainConfig {
            epochs: 2,
            batch_size: 24,
            method: GradientMethod::ParameterShift,
            max_executions: Some(100),
            ..Default::default()
        };
        let fused = train_cohort(&models, data.train(), &config);
        for (model, result) in models.iter().zip(fused) {
            let solo = try_train(model, data.train(), &config);
            match (result, solo) {
                (Err(a), Err(b)) => assert_eq!(a, b),
                (Ok(a), Ok(b)) => assert_eq!(a.outcome, b),
                (a, b) => panic!("cohort {a:?} disagrees with solo {b:?}"),
            }
        }
    }

    #[test]
    fn single_member_cohort_is_solo_training() {
        let data = moons(32, 8, 3).normalized(std::f64::consts::PI);
        let models = vec![layered_model(2, 2)];
        let config = TrainConfig { epochs: 3, batch_size: 8, ..Default::default() };
        let fused = train_cohort(&models, data.train(), &config);
        let solo = try_train(&models[0], data.train(), &config).expect("healthy run");
        assert_eq!(fused[0].as_ref().expect("healthy run").outcome, solo);
    }

    #[test]
    fn canceled_token_fails_every_alive_member_with_typed_error() {
        let data = moons(32, 8, 3).normalized(std::f64::consts::PI);
        let models = cohort_models();
        let config = TrainConfig { epochs: 4, batch_size: 16, ..Default::default() };
        let token = CancelToken::new();
        token.cancel();
        let results = train_cohort_with_cancel(&models, data.train(), &config, Some(&token));
        assert_eq!(results.len(), models.len());
        for r in results {
            assert_eq!(r, Err(TrainError::Canceled { epoch: 0 }));
        }
    }

    #[test]
    fn live_token_trains_identically_to_no_token() {
        let data = moons(32, 8, 3).normalized(std::f64::consts::PI);
        let models = vec![layered_model(2, 1), layered_model(2, 2)];
        let config = TrainConfig { epochs: 3, batch_size: 8, ..Default::default() };
        let token = CancelToken::new();
        let with = train_cohort_with_cancel(&models, data.train(), &config, Some(&token));
        let without = train_cohort(&models, data.train(), &config);
        assert_eq!(with, without);
    }

    #[test]
    fn rung_schedule_drops_degenerate_rungs() {
        assert_eq!(rung_epochs(16, 4), vec![1, 2, 4, 8]);
        assert_eq!(rung_epochs(8, 0), Vec::<usize>::new());
        assert_eq!(rung_epochs(4, 4), vec![1, 2]);
        assert_eq!(rung_epochs(1, 3), Vec::<usize>::new());
    }

    #[test]
    fn rung_schedule_survives_huge_rung_counts() {
        // A shift of usize::BITS or more must never run: it panics in
        // debug builds and wraps to a non-increasing schedule in release.
        assert_eq!(rung_epochs(30, 64), vec![1, 3, 7, 15]);
        assert_eq!(rung_epochs(30, usize::MAX), vec![1, 3, 7, 15]);
        assert_eq!(
            rung_epochs(usize::MAX, usize::MAX).len(),
            usize::BITS as usize - 1
        );
    }
}
