//! The two search workloads.
//!
//! * `oneshot-mnist10` — the paper's one-shot funnel with predictors only.
//! * `cohort-fmnist4` — the funnel, then cohort training of the top
//!   candidates and a noiseless plus a device-noise test accuracy of the
//!   winner.
//!
//! A request is one search with its own sub-seed. The measured pass calls
//! `run_search`; the traced pass replays the same request through the
//! public stage functions, fanned out the way `run_search` fans out, and
//! must reproduce the measured answer bit for bit.

use crate::common::{self, stream, sub_seed, Args, Measured, Tally};
use crate::host;
use crate::spans::{Recorder, Span, REQUEST};
use crate::Bench;
use elivagar::{
    composite_score, generate_candidate, reject_low_fidelity, run_search, score_order, Candidate,
    RunOptions, SearchConfig, SearchResult,
};
use elivagar_datasets::Dataset;
use elivagar_device::{circuit_noise, Device};
use elivagar_ml::{
    accuracy, init_params, noisy_accuracy, train_cohort, GradientMethod, QuantumClassifier,
    TrainConfig,
};
use elivagar_sim::parallel::par_map_isolated;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fixed description of one search workload.
pub struct SearchSpec {
    benchmark: &'static str,
    device: fn() -> Device,
    train_size: usize,
    test_size: usize,
    candidates: usize,
    /// Cohort training after selection; `None` for a predictor-only funnel.
    train: Option<TrainConfig>,
    /// Trajectories per test sample for the device-noise accuracy.
    trajectories: usize,
    /// Requests per second of `--seconds` (see [`common::request_count`]).
    rate: f64,
    /// Candidates of the fixed warm-up request.
    warmup_candidates: usize,
}

pub const ONESHOT_MNIST10: SearchSpec = SearchSpec {
    benchmark: "mnist-10",
    device: elivagar_device::devices::ibm_guadalupe,
    train_size: 200,
    test_size: 100,
    candidates: 32,
    train: None,
    trajectories: 2,
    rate: 0.6,
    warmup_candidates: 4,
};

pub const COHORT_FMNIST4: SearchSpec = SearchSpec {
    benchmark: "fmnist-4",
    device: elivagar_device::devices::ibm_lagos,
    train_size: 96,
    test_size: 40,
    candidates: 32,
    train: Some(TrainConfig {
        epochs: 30,
        batch_size: 32,
        learning_rate: 0.01,
        method: GradientMethod::Adjoint,
        seed: 0,
        nan_retries: 2,
        max_executions: None,
        cohort: 8,
        halving_rungs: 2,
    }),
    trajectories: 32,
    rate: 6.0,
    warmup_candidates: 8,
};

/// The seed of the fixed warm-up request (outside every request stream).
const WARMUP_SEED: u64 = 0x5EED_0FBE_7C00;

/// The seed each workload's dataset is materialized from.
const DATASET_SEED: u64 = 2024;

/// `run_search` fans CNR and RepCap out in chunks of this many candidates
/// (its default checkpoint cadence); the replay does the same.
const CHUNK: usize = 16;

/// Per-candidate predictor seed, derived as `run_search` derives it.
fn candidate_seed(search_seed: u64, index: usize, salt: u64) -> u64 {
    search_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64) << 17
}

/// What one request produced; compared bit for bit between passes.
#[derive(Clone, Debug, PartialEq)]
struct Answer {
    best_index: usize,
    score: f64,
    executions: u64,
    test_accuracy: f64,
    noisy_accuracy: f64,
}

/// Counts of the traced pass that the spans do not hold.
#[derive(Default)]
struct Counts {
    cnr_executions: u64,
    repcap_executions: u64,
    evaluated: u64,
    kept: u64,
    members: u64,
    member_epochs: u64,
    pruned: u64,
    training_executions: u64,
}

pub struct SearchBench {
    spec: &'static SearchSpec,
    device: Device,
    dataset: Dataset,
    base: SearchConfig,
    requests: Vec<u64>,
    /// Answers of the measured pass, which the traced pass must match.
    answers: Vec<Option<Answer>>,
}

impl SearchBench {
    fn config(&self, seed: u64, candidates: usize) -> SearchConfig {
        let mut config = self
            .base
            .clone()
            .with_candidates(candidates)
            .with_seed(seed);
        if let Some(train) = &mut config.train {
            train.seed = seed;
        }
        config
    }

    /// Noiseless and device-noise test accuracy of `candidate` at `params`.
    fn evaluate(
        &self,
        candidate: &Candidate,
        params: &[f64],
        seed: u64,
    ) -> Result<(f64, f64), String> {
        let model =
            QuantumClassifier::try_new(candidate.circuit.clone(), self.dataset.num_classes())
                .map_err(|e| format!("winner is not a classifier: {e}"))?;
        let clean = accuracy(&model, params, self.dataset.test());
        let noise = circuit_noise(&self.device, &candidate.physical_circuit(&self.device))
            .map_err(|e| format!("winner has no noise model: {e}"))?;
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::EVAL, 0));
        let noisy = noisy_accuracy(
            &model,
            params,
            self.dataset.test(),
            &noise,
            self.spec.trajectories,
            &mut rng,
        );
        Ok((clean, noisy))
    }

    /// Parameters a predictor-only request is checked at: a seeded draw,
    /// since nothing is trained.
    fn untrained_params(candidate: &Candidate, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::EVAL, 1));
        init_params(candidate.circuit.num_trainable_params(), &mut rng)
    }

    /// One request through `run_search`. Returns the timed latency and the
    /// answer. With training, the winner's evaluation is part of the
    /// request; without, it is an untimed output check.
    fn request(&self, seed: u64, candidates: usize) -> (f64, Result<Answer, Vec<String>>) {
        let config = self.config(seed, candidates);
        let t = Instant::now();
        let result = run_search(&self.device, &self.dataset, &config, &RunOptions::default());
        let trained_eval = match (&result, &config.train) {
            (Ok(r), Some(_)) => Some(
                r.trained
                    .first()
                    .filter(|t| t.index == r.best_index)
                    .ok_or_else(|| "the winner's training was quarantined".to_string())
                    .and_then(|t| self.evaluate(&r.best, &t.params, seed)),
            ),
            _ => None,
        };
        let latency = t.elapsed().as_secs_f64();
        let result = match result {
            Ok(r) => r,
            Err(e) => return (latency, Err(vec![format!("search failed: {e}")])),
        };
        let mut problems = check_search(&result, &config);
        let accuracies = trained_eval.unwrap_or_else(|| {
            self.evaluate(
                &result.best,
                &Self::untrained_params(&result.best, seed),
                seed,
            )
        });
        let (test_accuracy, noisy_accuracy) = accuracies.unwrap_or_else(|e| {
            problems.push(e);
            (f64::NAN, f64::NAN)
        });
        for (label, acc) in [("test", test_accuracy), ("noisy", noisy_accuracy)] {
            if !(0.0..=1.0).contains(&acc) {
                problems.push(format!("{label} accuracy {acc} is outside [0, 1]"));
            }
        }
        match winner_score(&result) {
            Some(score) if problems.is_empty() => {
                let training: u64 = result.trained.iter().map(|t| t.executions).sum();
                let answer = Answer {
                    best_index: result.best_index,
                    score,
                    executions: result.executions.total() + training,
                    test_accuracy,
                    noisy_accuracy,
                };
                (latency, Ok(answer))
            }
            _ => (latency, Err(problems)),
        }
    }

    /// One request replayed through the stage functions under spans.
    fn replay(&self, rec: &Recorder, request: u64, seed: u64, counts: &mut Counts) -> Answer {
        let config = self.config(seed, self.spec.candidates);
        let device = &self.device;
        rec.time(REQUEST, "request", 0, request, |root| {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let pool: Vec<Candidate> = (0..config.num_candidates)
                .map(|_| {
                    rec.time("generate", "generate_candidate", root, request, |_| {
                        generate_candidate(device, &config, &mut rng)
                    })
                })
                .collect();
            let mut executions = 0u64;

            let indices: Vec<usize> = (0..pool.len()).collect();
            let mut cnrs: Vec<Option<f64>> = vec![None; pool.len()];
            rec.time("cnr", "cnr_stage", root, request, |stage| {
                for chunk in indices.chunks(CHUNK) {
                    let outcomes = par_map_isolated(chunk, |&i| {
                        rec.time("cnr", "cnr", stage, request, |_| {
                            let mut r =
                                StdRng::seed_from_u64(candidate_seed(config.seed, i, 0xC14));
                            elivagar::cnr(&pool[i], device, &config, &mut r)
                        })
                    });
                    for (&i, outcome) in chunk.iter().zip(outcomes) {
                        if let Ok(Ok(r)) = outcome {
                            executions += r.executions;
                            counts.cnr_executions += r.executions;
                            cnrs[i] = Some(r.cnr).filter(|v| v.is_finite());
                        }
                    }
                }
            });

            let healthy: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| cnrs[i].is_some())
                .collect();
            let values: Vec<f64> = healthy.iter().map(|&i| cnrs[i].expect("healthy")).collect();
            let survivors: Vec<usize> =
                rec.time("reject", "reject_low_fidelity", root, request, |_| {
                    reject_low_fidelity(&values, config.cnr_threshold, config.cnr_keep_fraction)
                        .into_iter()
                        .map(|k| healthy[k])
                        .collect()
                });
            counts.evaluated += healthy.len() as u64;
            counts.kept += survivors.len() as u64;

            let (features, labels) = rec.time("repcap", "sample_per_class", root, request, |_| {
                self.dataset
                    .sample_per_class(config.repcap_samples_per_class, &mut rng)
            });
            let mut repcaps: Vec<Option<f64>> = vec![None; pool.len()];
            rec.time("repcap", "repcap_stage", root, request, |stage| {
                for chunk in survivors.chunks(CHUNK) {
                    let outcomes = par_map_isolated(chunk, |&i| {
                        rec.time("repcap", "repcap", stage, request, |_| {
                            let mut r =
                                StdRng::seed_from_u64(candidate_seed(config.seed, i, 0x4E9));
                            elivagar::repcap(&pool[i].circuit, &features, &labels, &config, &mut r)
                        })
                    });
                    for (&i, outcome) in chunk.iter().zip(outcomes) {
                        if let Ok(r) = outcome {
                            executions += r.executions;
                            counts.repcap_executions += r.executions;
                            repcaps[i] = Some(r.repcap).filter(|v| v.is_finite());
                        }
                    }
                }
            });

            // Composite score; the last maximum wins, as in the one-shot
            // strategy.
            let (scores, best) = rec.time("select", "composite_score", root, request, |_| {
                let scores: Vec<Option<f64>> = (0..pool.len())
                    .map(|i| match (cnrs[i], repcaps[i]) {
                        (Some(c), Some(r)) if survivors.contains(&i) => {
                            Some(composite_score(c, r, config.alpha_cnr)).filter(|s| s.is_finite())
                        }
                        _ => None,
                    })
                    .collect();
                let best = (0..pool.len())
                    .filter(|&i| scores[i].is_some())
                    .max_by(|&a, &b| score_order(scores[a], scores[b]))
                    .expect("at least one candidate scored");
                (scores, best)
            });

            // Without training the accuracy check is not part of the
            // request (as in the measured pass); the caller fills it in.
            let (mut test_acc, mut noisy_acc) = (f64::NAN, f64::NAN);
            if let Some(train) = &config.train {
                let k = train.cohort.max(1);
                let mut ranked: Vec<usize> =
                    (0..pool.len()).filter(|&i| scores[i].is_some()).collect();
                ranked.sort_by(|&a, &b| score_order(scores[b], scores[a]).then(a.cmp(&b)));
                let mut cohort: Vec<usize> = ranked.into_iter().take(k).collect();
                if !cohort.contains(&best) {
                    cohort.insert(0, best);
                    cohort.truncate(k);
                }
                let models: Vec<QuantumClassifier> = cohort
                    .iter()
                    .map(|&i| QuantumClassifier::new(pool[i].circuit.clone(), config.num_classes))
                    .collect();
                let outcomes = rec.time("cohort", "train_cohort", root, request, |_| {
                    train_cohort(&models, self.dataset.train(), train)
                });
                let mut params = Vec::new();
                for (&i, outcome) in cohort.iter().zip(outcomes) {
                    let o = outcome.expect("cohort member trains");
                    counts.members += 1;
                    counts.member_epochs += o.outcome.loss_history.len() as u64;
                    counts.pruned += u64::from(o.pruned_at_epoch.is_some());
                    counts.training_executions += o.outcome.executions;
                    executions += o.outcome.executions;
                    if i == best {
                        params = o.outcome.params;
                    }
                }
                let model = QuantumClassifier::new(pool[best].circuit.clone(), config.num_classes);
                test_acc = rec.time("eval", "accuracy", root, request, |_| {
                    accuracy(&model, &params, self.dataset.test())
                });
                let noise = circuit_noise(device, &pool[best].physical_circuit(device))
                    .expect("device-aware winner");
                noisy_acc = rec.time("eval_noisy", "noisy_accuracy", root, request, |_| {
                    let mut r = StdRng::seed_from_u64(sub_seed(seed, stream::EVAL, 0));
                    noisy_accuracy(
                        &model,
                        &params,
                        self.dataset.test(),
                        &noise,
                        self.spec.trajectories,
                        &mut r,
                    )
                });
            }
            Answer {
                best_index: best,
                score: scores[best].expect("winner scored"),
                executions,
                test_accuracy: test_acc,
                noisy_accuracy: noisy_acc,
            }
        })
    }
}

/// The composite score of the selected winner, if it is the finite
/// maximum of the pool.
fn winner_score(result: &SearchResult) -> Option<f64> {
    let best = result
        .scored
        .iter()
        .filter_map(|s| s.score.filter(|v| v.is_finite()))
        .fold(f64::NEG_INFINITY, f64::max);
    result
        .scored
        .iter()
        .any(|s| s.candidate == result.best && s.score == Some(best))
        .then_some(best)
}

/// Output checks of one search result.
fn check_search(result: &SearchResult, config: &SearchConfig) -> Vec<String> {
    let mut problems = Vec::new();
    if result.best_index >= config.num_candidates || result.scored.len() != config.num_candidates {
        problems.push(format!(
            "best_index {} outside a pool of {} ({} scored)",
            result.best_index,
            config.num_candidates,
            result.scored.len()
        ));
    }
    if winner_score(result).is_none() {
        problems.push("the winner's composite score is not the finite maximum".into());
    }
    let f = &result.stats.funnel;
    if f.generated != f.cnr_accepted + f.cnr_rejected + f.cnr_quarantined {
        problems.push(format!(
            "funnel not conserved: generated {} != accepted {} + rejected {} + quarantined {}",
            f.generated, f.cnr_accepted, f.cnr_rejected, f.cnr_quarantined
        ));
    }
    if result
        .quarantined
        .iter()
        .any(|q| q.index == result.best_index)
    {
        problems.push("the winner was quarantined".into());
    }
    problems
}

impl Bench for SearchBench {
    type Spec = SearchSpec;

    fn setup(spec: &'static SearchSpec, args: &Args) -> Result<SearchBench, String> {
        let device = (spec.device)();
        // The dataset is the workload's fixed corpus; the seed varies the
        // requests made against it.
        let dataset = elivagar_datasets::load_sized(
            spec.benchmark,
            DATASET_SEED,
            spec.train_size,
            spec.test_size,
        );
        let b = elivagar_datasets::spec(spec.benchmark).ok_or("unknown benchmark")?;
        let mut base = SearchConfig::for_task(b.qubits, b.params, b.feature_dim, b.classes);
        base.clifford_replicas = 16;
        base.repcap_param_inits = 8;
        base.repcap_samples_per_class = 8;
        if let Some(train) = spec.train {
            base = base.with_train(train);
        }
        let count = common::request_count(spec.rate, args.seconds, 2);
        let requests = (0..count as u64)
            .map(|i| sub_seed(args.seed, stream::REQUEST, i))
            .collect();
        let bench = SearchBench {
            spec,
            device,
            dataset,
            base,
            requests,
            answers: Vec::new(),
        };
        // The fixed, reduced warm-up request touches every layer the
        // measured requests use.
        let (_, warm) = bench.request(WARMUP_SEED, spec.warmup_candidates);
        warm.map_err(|p| format!("warm-up request failed: {}", p.join("; ")))?;
        Ok(bench)
    }

    fn measure(&mut self, between: &mut dyn FnMut()) -> Measured {
        let mut m = Measured::default();
        self.answers.clear();
        let mut before = host::reference_s();
        m.host_ref_s.push(before);
        for (i, &seed) in self.requests.iter().enumerate() {
            between();
            let (latency, answer) = self.request(seed, self.spec.candidates);
            let after = host::reference_s();
            let adjusted = host::at_reference_speed(latency, before, after);
            m.host_ref_s.push(after);
            before = after;
            m.latencies_s.push(latency);
            m.adjusted_s.push(adjusted);
            m.wall_s += latency;
            m.adjusted_wall_s += adjusted;
            match answer {
                Ok(a) => {
                    m.tally.record("request", &[]);
                    m.executions += a.executions;
                    m.winner_scores.push(a.score);
                    m.test_accuracy.push(a.test_accuracy);
                    m.noisy_accuracy.push(a.noisy_accuracy);
                    self.answers.push(Some(a));
                }
                Err(problems) => {
                    m.tally.record(&format!("request {i}"), &problems);
                    self.answers.push(None);
                }
            }
        }
        m
    }

    fn traced(&mut self, rec: &Recorder) -> (Tally, BTreeMap<&'static str, f64>, Vec<Span>) {
        let mut tally = Tally::default();
        let mut counts = Counts::default();
        for (i, &seed) in self.requests.iter().enumerate() {
            let mut answer = self.replay(rec, i as u64, seed, &mut counts);
            let mut problems = Vec::new();
            if let Some(Some(measured)) = self.answers.get(i) {
                if self.spec.train.is_none() {
                    // The predictor-only accuracy check depends only on the
                    // winner, which is compared.
                    answer.test_accuracy = measured.test_accuracy;
                    answer.noisy_accuracy = measured.noisy_accuracy;
                }
                if *measured != answer {
                    problems.push(format!(
                        "replay {answer:?} differs from run_search {measured:?}"
                    ));
                }
            }
            tally.record(&format!("traced request {i}"), &problems);
        }
        let spans = rec.take();
        let count = |layer: &str, name: &str| {
            spans
                .iter()
                .filter(|s| s.layer == layer && s.name == name)
                .count() as f64
        };
        let layers = BTreeMap::from([
            ("generate.calls", count("generate", "generate_candidate")),
            ("cnr.calls", count("cnr", "cnr")),
            ("cnr.executions", counts.cnr_executions as f64),
            (
                "reject.kept_ratio",
                common::ratio(counts.kept, counts.evaluated),
            ),
            ("repcap.calls", count("repcap", "repcap")),
            ("repcap.executions", counts.repcap_executions as f64),
            ("cohort.member_epochs", counts.member_epochs as f64),
            (
                "cohort.pruned_ratio",
                common::ratio(counts.pruned, counts.members),
            ),
            ("cohort.executions", counts.training_executions as f64),
        ]);
        (tally, layers, spans)
    }

    fn state_qubits(&self) -> usize {
        self.base.num_qubits
    }
}
