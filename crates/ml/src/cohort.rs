//! Cross-candidate cohort training, the one training loop: the top-k
//! cohort of a search — or a single model, through
//! [`crate::train::try_train`] — trains through fused cross-candidate
//! gradient dispatches, with optional successive-halving early
//! termination and bounded divergence retries.
//!
//! Instead of training k candidates one after another (k pool dispatches
//! per minibatch step, each too small to saturate the workers), the cohort
//! path compiles every candidate once into an [`AdjointProgram`] and
//! pushes every still-alive member's minibatch through the work-stealing
//! pool as one fused batch of `(member, sample)` items
//! ([`crate::gradient::cohort_batch_gradients`]).
//!
//! # Determinism
//!
//! Every member starts from its own `StdRng` seeded with `config.seed`:
//! its own parameter draw, Adam state, shuffle order, and fault-point
//! batch counter. Per-item gradients are index-addressed and reduced
//! sequentially in item order, the same additions
//! [`crate::gradient::batch_gradient`] makes over the member's minibatch.
//! So with `halving_rungs == 0` every member's outcome is bit-for-bit
//! identical to training that member alone, in any cohort and at any
//! thread count. Early termination changes *which* epochs run, never
//! the values they compute: a member pruned at epoch `e` has exactly the
//! first `e` entries of its full loss history.
//!
//! # Divergence retries
//!
//! A member whose loss or gradient turns non-finite leaves its round
//! before the optimizer consumes the poisoned step. Retries run in rounds:
//! round `a` (`1..=config.nan_retries`) fuses only the members that
//! diverged in round `a - 1`, restarting each from split `a` of the seed
//! at the learning rate halved `a` times, with halving off. Fault keys are
//! `(a << 48) | batch`, executions carry over so the budget covers every
//! round, and every round polls the cancel token at each epoch. A member
//! still diverging after the last round fails with
//! [`TrainError::NonFinite`], naming that round's first fault.
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

use crate::gradient::{cohort_batch_gradients, MultiItem};
use crate::model::QuantumClassifier;
use crate::optim::Adam;
use crate::train::{init_params, TrainConfig, TrainError, TrainOutcome};
use elivagar_datasets::Split;
use elivagar_sim::{AdjointProgram, CancelToken, TaskSeeds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One cohort member's training result.
#[derive(Clone, Debug, PartialEq)]
pub struct CohortOutcome {
    /// The member's training outcome. For a member that survived to the
    /// end this is bit-identical to training it alone; for a pruned member
    /// it holds the parameters, loss history, and execution count at the
    /// prune point (a bit-identical prefix of the full run).
    pub outcome: TrainOutcome,
    /// The epoch count after which successive halving pruned this member;
    /// `None` if it trained to completion.
    pub pruned_at_epoch: Option<usize>,
}

/// One member's in-flight training state.
enum MemberStatus {
    /// Training in the current round.
    Alive,
    /// Trained to completion.
    Done,
    Pruned { at_epoch: usize },
    /// Non-finite loss or gradient in the current round: retried in the
    /// next round, if one is left.
    Diverged { epoch: usize, message: String },
    /// Execution budget exhausted — terminal.
    Budget { spent: u64, budget: u64 },
    /// A cancellation token fired at an epoch boundary — terminal for
    /// every alive member; pruned and finished members keep their outcomes.
    Canceled { at_epoch: usize },
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

impl Member {
    /// Starts an attempt from `seed` at `learning_rate`: a fresh draw of
    /// `params`, Adam state, identity shuffle order over `n` samples, and
    /// batch counter. `executions` carries over from earlier attempts.
    fn start(
        params: &mut Vec<f64>,
        seed: u64,
        learning_rate: f64,
        n: usize,
        executions: u64,
    ) -> Member {
        let mut rng = StdRng::seed_from_u64(seed);
        *params = init_params(params.len(), &mut rng);
        Member {
            rng,
            opt: Adam::new(params.len(), learning_rate),
            order: (0..n).collect(),
            loss_history: Vec::new(),
            grad: Vec::new(),
            executions,
            batch_counter: 0,
            status: MemberStatus::Alive,
        }
    }

    fn is_alive(&self) -> bool {
        matches!(self.status, MemberStatus::Alive)
    }

    /// The member's result once every round has ended.
    fn finish(self, params: Vec<f64>, nan_retries: usize) -> Result<CohortOutcome, TrainError> {
        let pruned_at_epoch = match self.status {
            MemberStatus::Done => None,
            MemberStatus::Pruned { at_epoch } => Some(at_epoch),
            MemberStatus::Diverged { epoch, message } => {
                return Err(TrainError::NonFinite { attempts: nan_retries + 1, epoch, message })
            }
            MemberStatus::Budget { spent, budget } => {
                return Err(TrainError::BudgetExhausted { spent, budget })
            }
            MemberStatus::Canceled { at_epoch } => {
                return Err(TrainError::Canceled { epoch: at_epoch })
            }
            MemberStatus::Alive => unreachable!("every round ends with no member alive"),
        };
        let outcome = TrainOutcome {
            params,
            loss_history: self.loss_history,
            executions: self.executions,
        };
        Ok(CohortOutcome { outcome, pruned_at_epoch })
    }
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
/// the determinism contract; in short, `halving_rungs == 0` trains every
/// member bit-for-bit as it would train alone.
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
/// top of every epoch of every round. When the token cancels (a scheduler
/// deadline, an explicit revoke), every still-alive member fails with
/// [`TrainError::Canceled`]; members already pruned by a halving rung or
/// trained to completion in an earlier round keep their outcomes. The
/// cohort arenas are released on return exactly as in a completed run —
/// cancellation never leaks the fused scratch state.
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
    let cohort = Cohort {
        models,
        // One program per member, compiled once per run: both gradient
        // methods read it. Params-only because training never reads
        // feature gradients.
        adjoints: models
            .iter()
            .map(|m| AdjointProgram::compile_params_only(m.circuit()))
            .collect(),
        data,
        config,
        cancel,
    };
    let mut params_by: Vec<Vec<f64>> = models.iter().map(|m| vec![0.0; m.num_params()]).collect();
    let members = cohort.train_rounds(&mut params_by);
    members
        .into_iter()
        .zip(params_by)
        .map(|(member, params)| member.finish(params, config.nan_retries))
        .collect()
}

/// What every round of one cohort run shares: the models, their programs
/// (compiled once per run), the data, the config, and the cancel token.
struct Cohort<'a> {
    models: &'a [QuantumClassifier],
    adjoints: Vec<AdjointProgram>,
    data: &'a Split,
    config: &'a TrainConfig,
    cancel: Option<&'a CancelToken>,
}

impl Cohort<'_> {
    /// Round 0 trains every member from `config.seed`, with halving; each
    /// retry round restarts only the members that diverged in the round
    /// before (see the module docs). Returns every member in its final
    /// state, with its parameters in `params_by`.
    fn train_rounds(&self, params_by: &mut [Vec<f64>]) -> Vec<Member> {
        let config = self.config;
        let n = self.data.len();
        let mut members: Vec<Member> = params_by
            .iter_mut()
            .map(|params| Member::start(params, config.seed, config.learning_rate, n, 0))
            .collect();
        let rungs = rung_epochs(config.epochs, config.halving_rungs);
        self.train_round(&mut members, params_by, 0, &rungs);
        let reinit = TaskSeeds::from_base(config.seed);
        for attempt in 1..=config.nan_retries {
            let learning_rate = config.learning_rate * 0.5f64.powi(attempt as i32);
            let mut retried = false;
            for (member, params) in members.iter_mut().zip(params_by.iter_mut()) {
                if matches!(member.status, MemberStatus::Diverged { .. }) {
                    let seed = reinit.seed(attempt);
                    *member = Member::start(params, seed, learning_rate, n, member.executions);
                    elivagar_obs::metrics::TRAIN_RETRIES.add(1);
                    retried = true;
                }
            }
            if !retried {
                break;
            }
            self.train_round(&mut members, params_by, attempt, &[]);
        }
        members
    }

    /// Trains the alive members as attempt `attempt` until every one of
    /// them has finished, been pruned after one of the `rungs` epochs, or
    /// faulted.
    fn train_round(
        &self,
        members: &mut [Member],
        params_by: &mut [Vec<f64>],
        attempt: usize,
        rungs: &[usize],
    ) {
        let _round_span = elivagar_obs::span!("cohort_round", attempt = attempt);
        let (config, data) = (self.config, self.data);
        let n = data.len();
        let num_chunks = n.div_ceil(config.batch_size);
        // Fault-point keys: the attempt above bit 48, the member's batch
        // counter below, so a retry sees fresh draws.
        let key_base = (attempt as u64) << 48;

        // Recycled across the whole round: fused work items, the gradient
        // arena, per-item (loss, executions) results, the chunk's member
        // snapshot, per-member epoch loss accumulators, and the rung
        // ranking.
        let mut items: Vec<MultiItem> = Vec::new();
        let mut arena: Vec<f64> = Vec::new();
        let mut out: Vec<(f64, u64)> = Vec::new();
        let mut chunk_members: Vec<usize> = Vec::new();
        let mut epoch_loss: Vec<f64> = Vec::new();
        let mut ranked: Vec<usize> = Vec::new();

        for epoch in 0..config.epochs {
            let _epoch_span = elivagar_obs::span!("cohort_epoch", epoch = epoch);
            let epoch_sw = elivagar_obs::metrics::Stopwatch::start();
            if !members.iter().any(Member::is_alive) {
                break;
            }
            // Chaos site: a panic here simulates the pool dying mid-cohort —
            // the search engine must quarantine the whole cohort, not abort.
            elivagar_sim::faultpoint::hit("train::cohort_epoch", epoch as u64);
            // Deadline/revocation check at the epoch boundary: terminal for
            // alive members, and the epoch that was mid-flight never starts,
            // so loss histories stay exact prefixes of the full run.
            if self.cancel.is_some_and(CancelToken::is_canceled) {
                for member in members.iter_mut().filter(|m| m.is_alive()) {
                    member.status = MemberStatus::Canceled { at_epoch: epoch };
                }
                break;
            }
            // Per-member Fisher–Yates shuffle from the member's own stream.
            for member in members.iter_mut().filter(|m| m.is_alive()) {
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
                // reduces to exactly its own minibatch gradient.
                chunk_members.clear();
                items.clear();
                for (m, member) in members.iter().enumerate() {
                    if !member.is_alive() {
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
                    self.models,
                    &self.adjoints,
                    params_by,
                    &data.features,
                    &data.labels,
                    &items,
                    config.method,
                    &mut arena,
                    &mut out,
                );
                batch_sw.record(&elivagar_obs::metrics::TRAIN_BATCH_NS);
                // Sequential per-member reduction and optimizer step, in item
                // order — the same additions in the same order as
                // `batch_gradient` over the member's minibatch.
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
                            member.status =
                                MemberStatus::Budget { spent: member.executions, budget };
                            continue;
                        }
                    }
                    // Chaos site: poisons the minibatch loss with NaN when
                    // armed.
                    let poisoned = elivagar_sim::faultpoint::poison(
                        "train::batch",
                        key_base | member.batch_counter,
                        loss,
                    );
                    member.batch_counter += 1;
                    // Guardrail: never let a non-finite step into the
                    // optimizer — Adam's moment estimates would stay
                    // poisoned forever.
                    let finite = poisoned.is_finite()
                        && loss.is_finite()
                        && member.grad.iter().all(|g| g.is_finite());
                    if !finite {
                        let message =
                            format!("non-finite loss {poisoned} in epoch {epoch}, batch {chunk}");
                        member.status = MemberStatus::Diverged { epoch, message };
                        continue;
                    }
                    member.opt.step(&mut params_by[m], &member.grad);
                    epoch_loss[m] += poisoned;
                }
            }
            let mut alive = 0u64;
            for (m, member) in members.iter_mut().enumerate() {
                if member.is_alive() {
                    member.loss_history.push(epoch_loss[m] / num_chunks as f64);
                    alive += 1;
                }
            }
            elivagar_obs::metrics::TRAIN_EPOCHS.add(alive);
            epoch_sw.record(&elivagar_obs::metrics::TRAIN_EPOCH_NS);

            // Successive-halving rung: keep the better half, prune the rest.
            if rungs.contains(&(epoch + 1)) {
                ranked.clear();
                ranked.extend((0..members.len()).filter(|&m| members[m].is_alive()));
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
        for member in members.iter_mut().filter(|m| m.is_alive()) {
            member.status = MemberStatus::Done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientMethod;
    use crate::train::{reference_train, try_train};
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
                let solo = reference_train(model, data.train(), &config).expect("healthy run");
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
            let solo = reference_train(model, data.train(), &config).expect("healthy run");
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
            let solo = reference_train(model, data.train(), &config);
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
        let solo = reference_train(&models[0], data.train(), &config).expect("healthy run");
        assert_eq!(fused[0].as_ref().expect("healthy run").outcome, solo);
        assert_eq!(try_train(&models[0], data.train(), &config), Ok(solo));
    }

    #[test]
    fn unrecoverable_divergence_reports_the_solo_error() {
        // A NaN feature poisons the gradient (not the loss) of every
        // attempt of every member. Each member fails naming its last
        // attempt's first fault; the expected errors, message text
        // included, were recorded from the standalone training loop this
        // cohort loop replaced.
        let mut split = moons(32, 8, 3).normalized(std::f64::consts::PI).train().clone();
        split.features[5] = vec![f64::NAN, f64::NAN];
        let config = TrainConfig { epochs: 2, batch_size: 8, ..Default::default() };
        let expected = [
            "non-finite loss 4.235855267747587 in epoch 0, batch 1",
            "non-finite loss 3.7681651545761916 in epoch 0, batch 1",
            "non-finite loss 3.89959400694485 in epoch 0, batch 1",
            "non-finite loss 3.945509899278974 in epoch 0, batch 0",
        ];
        let results = train_cohort(&cohort_models(), &split, &config);
        assert_eq!(results.len(), expected.len());
        for (r, message) in results.into_iter().zip(expected) {
            let message = message.to_string();
            assert_eq!(r, Err(TrainError::NonFinite { attempts: 3, epoch: 0, message }));
        }
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
