//! The five-step Elivagar search pipeline (paper Section 3, Fig. 4),
//! hardened for long unattended runs.
//!
//! [`run_search`] is the fault-tolerant driver: a candidate whose
//! evaluation panics, produces non-finite predictor values, or exceeds its
//! execution budget is **quarantined** — recorded in
//! [`SearchResult::quarantined`] with its stage and captured reason — while
//! the rest of the pool continues. Completed per-candidate evaluations are
//! journaled to a crash-safe checkpoint (see [`crate::checkpoint`]) so an
//! interrupted search resumes without repeating finished work, and a
//! resumed search reproduces the uninterrupted ranking bit for bit.
//!
//! [`search`] remains the simple infallible entry point: it runs with
//! default options and panics on typed errors, preserving the original
//! API.

use crate::checkpoint::{self, CheckpointError, Fingerprint, Journal, StageRecord};
use crate::cnr::{cnr, cnr_with_shots, reject_low_fidelity};
use crate::config::{SearchConfig, SelectionStrategy, StrategyChoice};
use crate::generate::Candidate;
use crate::repcap::repcap;
use crate::strategy::{
    Decision, ElivagarStrategy, EvalPlan, Evaluation, Nsga2Strategy, Objectives, ParetoFront,
    SearchStrategy, StrategyCtx,
};
use elivagar_cache::{memoize_scalar, CacheHandle, CacheKey, KeyBuilder};
use elivagar_circuit::Circuit;
use elivagar_datasets::Dataset;
use elivagar_device::Device;
use elivagar_ml::{QuantumClassifier, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::path::PathBuf;

/// Composite score combining both predictors (Eq. 7):
/// `Score(C) = CNR(C)^alpha * RepCap(C)`.
///
/// A negative RepCap (possible, since RepCap is `1 - error`) is clamped at
/// zero so the composite stays monotone in both predictors.
pub fn composite_score(cnr: f64, repcap: f64, alpha_cnr: f64) -> f64 {
    cnr.max(0.0).powf(alpha_cnr) * repcap.max(0.0)
}

/// Total order over optional scores for ranking candidates.
///
/// Finite values compare by magnitude; non-finite values (NaN, infinities
/// from a corrupted evaluation) order below every finite value, and
/// missing scores below those — so a descending sort
/// (`sort_by(|a, b| score_order(b.score, a.score))`) always puts healthy
/// candidates first and never panics, unlike `partial_cmp().unwrap()`.
pub fn score_order(a: Option<f64>, b: Option<f64>) -> Ordering {
    fn class(x: Option<f64>) -> u8 {
        match x {
            Some(v) if v.is_finite() => 2,
            Some(_) => 1,
            None => 0,
        }
    }
    match (a, b) {
        (Some(x), Some(y)) if x.is_finite() && y.is_finite() => {
            x.partial_cmp(&y).expect("finite floats are ordered")
        }
        _ => class(a).cmp(&class(b)),
    }
}

/// A stage of the search pipeline, as recorded in quarantine reports and
/// checkpoint journals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchStage {
    /// Clifford Noise Resilience evaluation.
    Cnr,
    /// Representational Capacity evaluation.
    RepCap,
    /// Composite scoring and selection.
    Score,
    /// Post-search parameter training.
    Train,
    /// A completed strategy round (journaled by multi-round strategies
    /// such as NSGA-II; `index` is the round number). Marks a
    /// generation boundary so kill+resume replays the evolution
    /// bit-identically.
    Generation,
}

impl fmt::Display for SearchStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SearchStage::Cnr => "CNR",
            SearchStage::RepCap => "RepCap",
            SearchStage::Score => "score",
            SearchStage::Train => "train",
            SearchStage::Generation => "generation",
        };
        f.write_str(name)
    }
}

/// One quarantined candidate: where it faulted and why.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Index of the candidate in the generated pool.
    pub index: usize,
    /// The stage at which it was removed from the pool.
    pub stage: SearchStage,
    /// Captured panic payload, numeric diagnosis, or budget message.
    pub reason: String,
}

impl fmt::Display for QuarantineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "candidate {} quarantined at {}: {}",
            self.index, self.stage, self.reason
        )
    }
}

/// Why a search could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum SearchError {
    /// A device-unaware candidate was evaluated without routing; its
    /// physical circuit does not fit the device topology.
    UnroutedCandidate {
        /// Index of the offending candidate.
        index: usize,
    },
    /// Every candidate was quarantined or rejected before scoring.
    NoViableCandidates {
        /// The full quarantine report, sorted by candidate index.
        quarantined: Vec<QuarantineEntry>,
    },
    /// A checkpoint could not be written, read, or applied.
    Checkpoint(CheckpointError),
    /// The run stopped at its slice boundary ([`RunOptions::slice_budget`]);
    /// resume from the checkpoint to continue.
    Interrupted {
        /// Journal records completed before stopping.
        records: usize,
    },
    /// The run's [`RunOptions::cancel`] token fired (explicit cancel or
    /// wall-clock deadline). Completed work was checkpointed if
    /// checkpointing is enabled, but unlike [`SearchError::Interrupted`]
    /// the caller asked the run to stop for good, not to slice it.
    Canceled {
        /// Journal records completed before the cancellation was observed.
        records: usize,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::UnroutedCandidate { index } => {
                write!(f, "candidate {index} does not fit the device; route it first")
            }
            SearchError::NoViableCandidates { quarantined } => write!(
                f,
                "no viable candidates: all were rejected or quarantined ({} quarantined)",
                quarantined.len()
            ),
            SearchError::Checkpoint(e) => write!(f, "{e}"),
            SearchError::Interrupted { records } => {
                write!(f, "search interrupted after {records} journaled evaluations")
            }
            SearchError::Canceled { records } => {
                write!(f, "search canceled after {records} journaled evaluations")
            }
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for SearchError {
    fn from(e: CheckpointError) -> Self {
        SearchError::Checkpoint(e)
    }
}

/// Durability and resumption knobs for [`run_search`].
///
/// The default options (no checkpointing, no resume) reproduce the plain
/// in-memory search exactly. Construct with [`RunOptions::new`] and the
/// `with_*` builders; the struct is `#[non_exhaustive]` so new knobs can
/// ship without breaking callers.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct RunOptions {
    /// Journal completed evaluations to this path (atomic
    /// write-temp+fsync+rename with a CRC32 footer). `None` disables
    /// checkpointing.
    pub checkpoint_to: Option<PathBuf>,
    /// Candidates evaluated between checkpoint saves; `0` means the
    /// default (16).
    pub checkpoint_every: usize,
    /// Resume from a journal written by a previous (interrupted) run of
    /// the *same* configuration. Journaled evaluations are reused
    /// verbatim; only unfinished candidates are evaluated.
    pub resume_from: Option<PathBuf>,
    /// Stop with [`SearchError::Interrupted`] once this many *new* records
    /// have been journaled by this call, measured from the resumed
    /// journal's length. This is the scheduler-facing slicing knob: a
    /// daemon runs one budgeted slice, requeues the job, and later resumes
    /// the next slice from the checkpoint — fair-sharing the pool across
    /// jobs without changing any evaluated value.
    pub slice_budget: Option<usize>,
    /// Cooperative cancellation: polled at every commit boundary (and per
    /// cohort-training epoch), returning [`SearchError::Canceled`] once it
    /// fires. Carries explicit cancels and wall-clock deadlines.
    pub cancel: Option<elivagar_sim::CancelToken>,
    /// Content-addressed result cache for CNR and RepCap evaluations (see
    /// [`elivagar_cache`]). A hit replays the journaled value and
    /// execution count bit-for-bit, so a cached run ranks identically to
    /// a cold one; `None` (the default) evaluates everything in place.
    pub cache: Option<CacheHandle>,
}

impl RunOptions {
    /// Default options: no checkpointing, no resume.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Journals completed evaluations to `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_to = Some(path.into());
        self
    }

    /// Sets the checkpoint cadence (candidates evaluated between saves).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Resumes from a journal written by an interrupted run of the same
    /// configuration and strategy.
    pub fn with_resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Caps this call at `records` newly journaled records (one scheduler
    /// slice); the run stops with [`SearchError::Interrupted`] at the cap.
    pub fn with_slice_budget(mut self, records: usize) -> Self {
        self.slice_budget = Some(records);
        self
    }

    /// Attaches a cooperative cancellation token (deadline or revoke).
    pub fn with_cancel(mut self, token: elivagar_sim::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a content-addressed result cache shared across runs (and,
    /// through the serve daemon, across tenants searching the same
    /// device). Evaluations whose full input fingerprint — circuit,
    /// placement, device calibration, predictor knobs, per-candidate seed
    /// — matches a stored entry are replayed instead of recomputed.
    pub fn with_cache(mut self, cache: CacheHandle) -> Self {
        self.cache = Some(cache);
        self
    }
}

const DEFAULT_CHECKPOINT_EVERY: usize = 16;

/// One candidate trained by the post-search cohort stage.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainedCandidate {
    /// Index of the candidate in the generated pool.
    pub index: usize,
    /// Trained parameter values (at the prune point for pruned members).
    pub params: Vec<f64>,
    /// Mean training loss per completed epoch.
    pub loss_history: Vec<f64>,
    /// The epoch count after which successive halving pruned this
    /// candidate; `None` if it trained to completion.
    pub pruned_at_epoch: Option<usize>,
    /// Circuit executions the training consumed.
    pub executions: u64,
}

/// Per-candidate evaluation record.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate circuit and placement.
    pub candidate: Candidate,
    /// Clifford noise resilience, if evaluated.
    pub cnr: Option<f64>,
    /// Representational capacity, if evaluated (rejected candidates skip
    /// it — that is the point of early rejection).
    pub repcap: Option<f64>,
    /// Composite score, if both predictors ran and produced finite values.
    pub score: Option<f64>,
}

/// Execution accounting for one search run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionBreakdown {
    /// Executions spent computing CNR.
    pub cnr: u64,
    /// Executions spent computing RepCap.
    pub repcap: u64,
}

impl ExecutionBreakdown {
    /// Total circuit executions.
    pub fn total(&self) -> u64 {
        self.cnr + self.repcap
    }
}

/// Result of a search: the selected circuit plus the full evaluation
/// trail.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The selected candidate (local circuit + device placement).
    pub best: Candidate,
    /// Index of the selected candidate in the generated pool — the key
    /// that matches [`TrainedCandidate::index`] for the winner's entry.
    pub best_index: usize,
    /// Every generated candidate with its predictor values.
    pub scored: Vec<ScoredCandidate>,
    /// Circuit-execution accounting (quarantined evaluations count 0).
    pub executions: ExecutionBreakdown,
    /// Candidates removed from the pool by faults, non-finite values, or
    /// budget exhaustion, sorted by candidate index.
    pub quarantined: Vec<QuarantineEntry>,
    /// The final Pareto front, for multi-objective strategies
    /// (`--strategy nsga2`); `None` under single-objective selection.
    pub pareto: Option<ParetoFront>,
    /// Post-search cohort training results, the selected winner first
    /// (match entries to candidates via [`TrainedCandidate::index`] and
    /// [`SearchResult::best_index`]); empty unless
    /// [`SearchConfig::train`] is set. Candidates whose
    /// training failed appear in [`SearchResult::quarantined`] at
    /// [`SearchStage::Train`] instead.
    pub trained: Vec<TrainedCandidate>,
    /// Telemetry summary: the candidate funnel (run-local, deterministic
    /// and thread-count invariant) plus the run's wall time and per-stage
    /// timing and counters (deltas of process-global metrics, so another
    /// search running in the same process inflates them).
    pub stats: elivagar_obs::RunStats,
}

/// Equality deliberately ignores [`SearchResult::stats`]: the funnel is
/// deterministic, but stage wall times never are, and crash-resume tests
/// compare whole results bit for bit.
impl PartialEq for SearchResult {
    fn eq(&self, other: &Self) -> bool {
        self.best == other.best
            && self.best_index == other.best_index
            && self.scored == other.scored
            && self.executions == other.executions
            && self.quarantined == other.quarantined
            && self.pareto == other.pareto
            && self.trained == other.trained
    }
}

/// Runs the Elivagar search for a dataset on a device.
///
/// Steps: (1) generate `num_candidates` device/noise-aware candidates, (2)
/// compute CNR for each, (3) reject low-fidelity candidates, (4) compute
/// RepCap for the survivors, (5) return the best composite score.
///
/// This is the infallible wrapper over [`run_search`] with default
/// [`RunOptions`]; faulting candidates are quarantined, not fatal, and
/// appear in [`SearchResult::quarantined`].
///
/// # Panics
///
/// Panics where [`run_search`] panics (an inconsistent config or a zero
/// predictor knob), if a device-unaware candidate was not routed before
/// evaluation, or if every candidate was quarantined. Use [`run_search`]
/// to handle the last two as typed [`SearchError`]s.
pub fn search(device: &Device, dataset: &Dataset, config: &SearchConfig) -> SearchResult {
    run_search(device, dataset, config, &RunOptions::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the Elivagar search with fault isolation, per-candidate budgets,
/// and crash-safe checkpointing, dispatching on
/// [`SearchConfig::strategy`]: the paper's one-shot pipeline
/// ([`ElivagarStrategy`]) by default, or NSGA-II evolution
/// ([`Nsga2Strategy`]) when configured.
///
/// Candidate evaluation order, per-candidate RNG streams, and the final
/// ranking are deterministic functions of the config alone — independent
/// of thread count, of checkpoint cadence, and of how many times the run
/// was interrupted and resumed. Generation is always recomputed (it is a
/// pure function of the seed); the journal caches only the expensive
/// CNR/RepCap evaluations.
///
/// # Errors
///
/// * [`SearchError::UnroutedCandidate`] — a device-unaware candidate was
///   evaluated without routing (a configuration bug, not a transient
///   fault, so it is not quarantined);
/// * [`SearchError::NoViableCandidates`] — the strategy selected no
///   winner, because every candidate of every round was rejected or
///   quarantined;
/// * [`SearchError::Checkpoint`] — the journal could not be written, or
///   `resume_from` points at a corrupt or mismatched journal;
/// * [`SearchError::Interrupted`] — this call journaled
///   [`RunOptions::slice_budget`] new records;
/// * [`SearchError::Canceled`] — the [`RunOptions::cancel`] token fired.
///
/// # Panics
///
/// Panics if the config is inconsistent with the dataset (class count or
/// feature dimension mismatch), or if any of the predictor knobs
/// `clifford_replicas`, `cnr_trajectories`, `repcap_samples_per_class`,
/// `repcap_bases` and `repcap_param_inits` is zero — either would fault
/// every candidate's evaluation.
pub fn run_search(
    device: &Device,
    dataset: &Dataset,
    config: &SearchConfig,
    options: &RunOptions,
) -> Result<SearchResult, SearchError> {
    match &config.strategy {
        StrategyChoice::OneShot => {
            run_search_with(device, dataset, config, options, &mut ElivagarStrategy::new())
        }
        StrategyChoice::Nsga2(params) => run_search_with(
            device,
            dataset,
            config,
            options,
            &mut Nsga2Strategy::new(params.clone()),
        ),
    }
}

/// The search **engine**: drives an arbitrary [`SearchStrategy`] through
/// `propose` → evaluate → `observe` rounds, then trains the cohort and
/// assembles the result. It owns everything the strategy should not have
/// to care about — parallel fan-out with panic quarantine, per-candidate
/// evaluation budgets, crash-safe journaling (each strategy round is a
/// checkpoint boundary), and the candidate funnel.
///
/// The strategy's name is folded into the journal fingerprint, so a
/// checkpoint written under one strategy refuses to resume another.
///
/// # Errors / panics
///
/// Exactly as [`run_search`], which is a thin dispatcher over this.
pub fn run_search_with(
    device: &Device,
    dataset: &Dataset,
    config: &SearchConfig,
    options: &RunOptions,
    strategy: &mut dyn SearchStrategy,
) -> Result<SearchResult, SearchError> {
    assert_eq!(config.num_classes, dataset.num_classes(), "class count mismatch");
    assert!(
        config.feature_dim <= dataset.feature_dim(),
        "config expects more features than the dataset has"
    );
    for (knob, value) in [
        ("clifford_replicas", config.clifford_replicas),
        ("cnr_trajectories", config.cnr_trajectories),
        ("repcap_samples_per_class", config.repcap_samples_per_class),
        ("repcap_bases", config.repcap_bases),
        ("repcap_param_inits", config.repcap_param_inits),
    ] {
        assert!(value >= 1, "{knob} must be at least 1");
    }

    let _run_span = elivagar_obs::span!("search", candidates = config.num_candidates);
    let run_sw = elivagar_obs::metrics::Stopwatch::start();
    // Stage timing comes from process-global histogram deltas; the funnel
    // below is tallied run-locally so concurrent searches cannot pollute
    // each other.
    let metrics_before = elivagar_obs::metrics::snapshot();
    let mut engine = Engine {
        device,
        dataset,
        config,
        ledger: Ledger::open(options, Fingerprint::of(config).salted(strategy.name()))?,
        rng: StdRng::seed_from_u64(config.seed),
        samples: None,
        funnel: elivagar_obs::FunnelCounters::default(),
        all: Vec::new(),
        evals: Vec::new(),
        quarantined: Vec::new(),
    };

    let mut round = 0usize;
    let selection = loop {
        let round_sw = elivagar_obs::metrics::Stopwatch::start();
        // Candidate proposal — generation is recomputed on resume (it is
        // a pure function of the RNG stream), never journaled.
        let proposed = strategy.propose(&mut engine.strategy_view(round).0);
        let base = engine.admit(proposed);
        engine.evaluate_batch(&strategy.plan(config), base)?;
        round_sw.record(&elivagar_obs::metrics::STRATEGY_ROUND_NS);

        let (mut ctx, evals) = engine.strategy_view(round);
        match strategy.observe(&mut ctx, evals) {
            Decision::Stop(selection) => break selection,
            Decision::Continue => {
                // Journal the generation boundary so a killed run knows
                // which rounds completed; one-shot strategies stop at
                // round 0 and leave the journal layout unchanged.
                engine.ledger.journal.push(StageRecord {
                    stage: SearchStage::Generation,
                    index: round,
                    value_bits: None,
                    executions: 0,
                    quarantine: None,
                });
                engine.ledger.commit()?;
                round += 1;
            }
        }
    };

    // Viability is decided here, once, over the candidates of every
    // round: an empty or fully quarantined round is not fatal by itself.
    let Some(best_index) = selection.best else {
        engine.quarantined.sort_by_key(|q| q.index);
        return Err(SearchError::NoViableCandidates {
            quarantined: engine.quarantined,
        });
    };
    let trained = match &config.train {
        Some(train_config) => engine.train_stage(train_config, best_index),
        None => Vec::new(),
    };

    // Accounting comes straight from the journal, so fresh and resumed
    // runs report identical totals (quarantined evaluations count 0).
    let mut executions = ExecutionBreakdown::default();
    for r in &engine.ledger.journal.records {
        match r.stage {
            SearchStage::Cnr => executions.cnr += r.executions,
            SearchStage::RepCap => executions.repcap += r.executions,
            _ => {}
        }
    }
    let mut quarantined = engine.quarantined;
    quarantined.sort_by_key(|q| q.index);
    let mut scored: Vec<ScoredCandidate> = engine
        .all
        .into_iter()
        .zip(&engine.evals)
        .map(|(candidate, e)| ScoredCandidate {
            candidate,
            cnr: e.cnr,
            repcap: e.repcap,
            score: e.score,
        })
        .collect();
    let best = scored[best_index].candidate.clone();
    // Order the trail by descending score for inspection convenience;
    // unscored (rejected or quarantined) candidates sort last.
    scored.sort_by(|a, b| score_order(b.score, a.score));
    elivagar_obs::metrics::CANDIDATES_QUARANTINED.add(quarantined.len() as u64);
    let delta = elivagar_obs::metrics::snapshot().since(&metrics_before);
    Ok(SearchResult {
        best,
        best_index,
        scored,
        executions,
        quarantined,
        pareto: selection.front,
        trained,
        stats: elivagar_obs::RunStats {
            funnel: engine.funnel,
            stages: elivagar_obs::RunStats::stages_from(&delta),
            counters: elivagar_obs::RunStats::counters_from(&delta),
            wall_ns: run_sw.elapsed_ns(),
        },
    })
}

/// The run's journal and the rules for committing it: whether it is
/// saved, how many candidates are evaluated between saves, and where this
/// call stops.
struct Ledger<'a> {
    journal: Journal,
    options: &'a RunOptions,
    /// Checkpoint saves so far (the key of the `search::checkpoint`
    /// faultpoint).
    saves: u64,
    /// The absolute journal length at which this call stops: the resumed
    /// journal's length plus [`RunOptions::slice_budget`].
    stop_at: Option<usize>,
    /// Candidates evaluated between commits.
    chunk_size: usize,
}

impl<'a> Ledger<'a> {
    /// Opens a fresh journal, or the one `options` resumes from once its
    /// fingerprint proves it was written by this search.
    fn open(options: &'a RunOptions, fingerprint: Fingerprint) -> Result<Self, SearchError> {
        let journal = match &options.resume_from {
            Some(path) => {
                let journal = checkpoint::load(path)?;
                if journal.fingerprint != fingerprint {
                    return Err(CheckpointError::Mismatch {
                        reason: format!(
                            "journal was written by {:?} but this search is {:?}",
                            journal.fingerprint, fingerprint
                        ),
                    }
                    .into());
                }
                journal
            }
            None => Journal::new(fingerprint),
        };
        Ok(Ledger {
            stop_at: options.slice_budget.map(|b| journal.len() + b),
            chunk_size: if options.checkpoint_every == 0 {
                DEFAULT_CHECKPOINT_EVERY
            } else {
                options.checkpoint_every
            },
            journal,
            options,
            saves: 0,
        })
    }

    /// Saves the journal if checkpointing is enabled, then stops the run
    /// at its slice boundary or on cancellation. Called after every batch
    /// of new records.
    fn commit(&mut self) -> Result<(), SearchError> {
        if let Some(path) = &self.options.checkpoint_to {
            checkpoint::save(path, &self.journal)?;
            self.saves += 1;
            // Chaos site: a process kill right after a durable checkpoint —
            // the window resume is designed for.
            elivagar_sim::faultpoint::hit("search::checkpoint", self.saves);
        }
        let records = self.journal.len();
        if self.stop_at.is_some_and(|limit| records >= limit) {
            return Err(SearchError::Interrupted { records });
        }
        // The cancel poll comes after the save: a canceled run still leaves
        // a durable record of everything it finished.
        if self.options.cancel.as_ref().is_some_and(elivagar_sim::CancelToken::is_canceled) {
            return Err(SearchError::Canceled { records });
        }
        Ok(())
    }
}

/// What tells one predictor stage from the other in
/// [`run_predictor_stage`].
struct PredictorStage {
    stage: SearchStage,
    /// Salt of the stage's per-candidate seed stream.
    salt: u64,
    stage_span: &'static str,
    eval_span: &'static str,
    /// The quarantine reason of a candidate that already spent `spent`
    /// executions and cannot afford the stage's `cost` within `budget`.
    over_budget: fn(spent: u64, cost: u64, budget: u64) -> String,
}

const CNR_STAGE: PredictorStage = PredictorStage {
    stage: SearchStage::Cnr,
    salt: 0xC14,
    stage_span: "cnr_stage",
    eval_span: "cnr_eval",
    over_budget: |_, cost, budget| {
        format!("evaluation budget exhausted: CNR costs {cost} executions, budget is {budget}")
    },
};

const REPCAP_STAGE: PredictorStage = PredictorStage {
    stage: SearchStage::RepCap,
    salt: 0x4E9,
    stage_span: "repcap_stage",
    eval_span: "repcap_eval",
    over_budget: |spent, cost, budget| {
        format!(
            "evaluation budget exhausted: {spent} executions spent on CNR, RepCap costs {cost} more, budget is {budget}"
        )
    },
};

/// Runs one predictor stage over the candidates `indices`, in that order
/// — the one place that decides how a stage is journaled, budgeted, and
/// quarantined:
///
/// 1. candidates the journal already holds at this stage are skipped;
/// 2. those whose CNR executions plus the stage's `cost` exceed
///    [`SearchConfig::eval_budget`] are quarantined and committed first;
/// 3. the rest run as `evaluate(index, seed)` in checkpoint-sized chunks
///    with per-task panic isolation;
/// 4. each outcome is journaled in index order — a panic or a non-finite
///    value as a quarantine — and every chunk is committed.
///
/// Returns each candidate's value (`None` if quarantined) and the
/// quarantine entries, in `indices` order and read back from the journal,
/// so fresh and resumed runs see the same records. An `Err` from
/// `evaluate` aborts the run.
fn run_predictor_stage(
    ledger: &mut Ledger<'_>,
    spec: &PredictorStage,
    config: &SearchConfig,
    cost: u64,
    indices: &[usize],
    evaluate: impl Fn(usize, u64) -> Result<(f64, u64), SearchError> + Sync,
) -> Result<(Vec<Option<f64>>, Vec<QuarantineEntry>), SearchError> {
    let _stage = elivagar_obs::span!(spec.stage_span);
    let quarantine = |index, reason| StageRecord {
        stage: spec.stage,
        index,
        value_bits: None,
        executions: 0,
        quarantine: Some(reason),
    };
    let before = ledger.journal.len();
    let mut pending: Vec<usize> = Vec::new();
    for &i in indices {
        if ledger.journal.lookup(spec.stage, i).is_some() {
            continue;
        }
        let spent = ledger.journal.lookup(SearchStage::Cnr, i).map_or(0, |r| r.executions);
        match config.eval_budget {
            Some(budget) if spent + cost > budget => {
                let reason = (spec.over_budget)(spent, cost, budget);
                ledger.journal.push(quarantine(i, reason));
            }
            _ => pending.push(i),
        }
    }
    if ledger.journal.len() > before {
        ledger.commit()?;
    }
    for chunk in pending.chunks(ledger.chunk_size) {
        let outcomes = elivagar_sim::parallel::par_map_isolated(chunk, |&i| {
            let _span = elivagar_obs::span!(spec.eval_span, candidate = i);
            // Per-candidate seeds are pure functions of (search seed,
            // stage, index), so an evaluation is identical whether it runs
            // in the first attempt, after a crash, or on any thread count.
            let salt = spec.salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            evaluate(i, config.seed ^ salt ^ (i as u64) << 17)
        });
        for (&i, outcome) in chunk.iter().zip(outcomes) {
            let record = match outcome {
                Err(fault) => quarantine(i, fault.message),
                Ok(Err(e)) => return Err(e),
                Ok(Ok((value, _))) if !value.is_finite() => {
                    quarantine(i, format!("non-finite {} {value}", spec.stage))
                }
                Ok(Ok((value, executions))) => StageRecord {
                    stage: spec.stage,
                    index: i,
                    value_bits: Some(value.to_bits()),
                    executions,
                    quarantine: None,
                },
            };
            ledger.journal.push(record);
        }
        ledger.commit()?;
    }

    let mut quarantined = Vec::new();
    let values = indices
        .iter()
        .map(|&i| {
            let record = ledger.journal.lookup(spec.stage, i).expect("every candidate journaled");
            match record.quarantine.clone() {
                Some(reason) => {
                    quarantined.push(QuarantineEntry { index: i, stage: spec.stage, reason });
                    None
                }
                None => record.value_bits.map(f64::from_bits),
            }
        })
        .collect();
    Ok((values, quarantined))
}

/// One search run's state across strategy rounds.
struct Engine<'a> {
    device: &'a Device,
    dataset: &'a Dataset,
    config: &'a SearchConfig,
    ledger: Ledger<'a>,
    /// The sequential main RNG: strategies and the RepCap sample draw
    /// from it, never the parallel fan-out.
    rng: StdRng,
    /// RepCap's per-class sample, drawn lazily from the main RNG before
    /// the first RepCap stage — the stream position the pre-strategy
    /// pipeline used — then shared by every later round.
    samples: Option<(Vec<Vec<f64>>, Vec<usize>)>,
    funnel: elivagar_obs::FunnelCounters,
    /// Every candidate proposed so far; `evals[i]` is `all[i]`'s outcome.
    all: Vec<Candidate>,
    evals: Vec<Evaluation>,
    quarantined: Vec<QuarantineEntry>,
}

impl Engine<'_> {
    /// What a strategy sees at `round`, plus every evaluation so far.
    fn strategy_view(&mut self, round: usize) -> (StrategyCtx<'_>, &[Evaluation]) {
        let ctx = StrategyCtx {
            device: self.device,
            dataset: self.dataset,
            config: self.config,
            rng: &mut self.rng,
            round,
            candidates: &self.all,
        };
        (ctx, &self.evals)
    }

    /// Appends a proposed batch to the pool and returns its first index,
    /// counting the funnel's routed/unrouted split on the way.
    fn admit(&mut self, proposed: Vec<Candidate>) -> usize {
        elivagar_obs::metrics::CANDIDATES_GENERATED.add(proposed.len() as u64);
        self.funnel.generated += proposed.len() as u64;
        // A candidate is "routed" when every two-qubit gate lands on a
        // coupled pair under its placement (device-aware candidates are
        // routed by construction; device-unaware ones may violate the
        // topology until a routing pass runs). The placement maps local to
        // physical qubits directly — no need to materialize the remapped
        // circuit.
        let topology = self.device.topology();
        let routed = proposed
            .iter()
            .filter(|c| {
                c.circuit.instructions().iter().filter(|ins| ins.qubits.len() == 2).all(|ins| {
                    topology.are_coupled(c.placement[ins.qubits[0]], c.placement[ins.qubits[1]])
                })
            })
            .count() as u64;
        let unrouted = proposed.len() as u64 - routed;
        self.funnel.routed += routed;
        self.funnel.unrouted += unrouted;
        elivagar_obs::metrics::CANDIDATES_ROUTED.add(routed);
        elivagar_obs::metrics::CANDIDATES_UNROUTED.add(unrouted);
        let base = self.all.len();
        self.all.extend(proposed);
        base
    }

    /// Evaluates candidates `base..` through the CNR → rejection → RepCap
    /// → scoring funnel (per `plan`) and appends one [`Evaluation`] per
    /// candidate, in index order. A batch without a viable candidate is
    /// not an error here; only the final selection decides viability.
    fn evaluate_batch(&mut self, plan: &EvalPlan, base: usize) -> Result<(), SearchError> {
        let (device, config, all) = (self.device, self.config, &self.all);
        let cache = self.ledger.options.cache.as_deref();
        let batch: Vec<usize> = (base..all.len()).collect();
        let mut batch_quarantined: Vec<QuarantineEntry> = Vec::new();

        // CNR, then early rejection among the healthy candidates. The
        // RepCap-only ablation skips both; the random-selection ablation
        // runs no predictors at all.
        let mut cnrs: Vec<Option<f64>> = vec![None; batch.len()];
        let survivors: Vec<usize> = match plan.selection {
            SelectionStrategy::Random => Vec::new(),
            SelectionStrategy::RepCapOnly => batch.clone(),
            SelectionStrategy::Full => {
                let (values, faults) = run_predictor_stage(
                    &mut self.ledger,
                    &CNR_STAGE,
                    config,
                    config.clifford_replicas as u64,
                    &batch,
                    |i, seed| {
                        memoize_scalar(
                            cache,
                            || cnr_cache_key(&all[i], device, config, seed),
                            || {
                                let (candidate, mut rng) = (&all[i], StdRng::seed_from_u64(seed));
                                match config.cnr_shots {
                                    Some(shots) => {
                                        cnr_with_shots(candidate, device, config, shots, &mut rng)
                                    }
                                    None => cnr(candidate, device, config, &mut rng),
                                }
                                .map(|r| (r.cnr, r.executions))
                                .map_err(|_| SearchError::UnroutedCandidate { index: i })
                            },
                        )
                    },
                )?;
                cnrs = values;
                let (healthy, values): (Vec<usize>, Vec<f64>) =
                    batch.iter().filter_map(|&i| cnrs[i - base].map(|c| (i, c))).unzip();
                // `reject_low_fidelity` needs at least one value; a batch
                // with no healthy candidate simply has no survivors.
                let kept: Vec<usize> = if plan.cnr_rejection && !healthy.is_empty() {
                    reject_low_fidelity(&values, config.cnr_threshold, config.cnr_keep_fraction)
                        .into_iter()
                        .map(|k| healthy[k])
                        .collect()
                } else {
                    healthy.clone()
                };
                let rejected = (healthy.len() - kept.len()) as u64;
                self.funnel.cnr_quarantined += faults.len() as u64;
                self.funnel.cnr_accepted += kept.len() as u64;
                self.funnel.cnr_rejected += rejected;
                elivagar_obs::metrics::CNR_ACCEPTED.add(kept.len() as u64);
                elivagar_obs::metrics::CNR_REJECTED.add(rejected);
                batch_quarantined = faults;
                kept
            }
        };

        // RepCap on the survivors, in survivor order.
        let mut repcaps: Vec<Option<f64>> = vec![None; batch.len()];
        if plan.selection != SelectionStrategy::Random {
            let (features, labels) = &*self.samples.get_or_insert_with(|| {
                self.dataset
                    .sample_per_class(config.repcap_samples_per_class, &mut self.rng)
            });
            let (values, faults) = run_predictor_stage(
                &mut self.ledger,
                &REPCAP_STAGE,
                config,
                (features.len() * config.repcap_param_inits) as u64,
                &survivors,
                |i, seed| {
                    // The faultpoint stays ahead of the cache lookup so chaos
                    // panics quarantine the same candidates whether the
                    // cache is cold or warm.
                    elivagar_sim::faultpoint::hit("repcap::eval", i as u64);
                    memoize_scalar(
                        cache,
                        || repcap_cache_key(&all[i].circuit, features, labels, config, seed),
                        || {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let r = repcap(&all[i].circuit, features, labels, config, &mut rng);
                            Ok((r.repcap, r.executions))
                        },
                    )
                },
            )?;
            for (&i, value) in survivors.iter().zip(values) {
                repcaps[i - base] = value;
            }
            self.funnel.repcap_quarantined += faults.len() as u64;
            batch_quarantined.extend(faults);
        }

        // Composite scoring. A non-finite composite (possible only through
        // data corruption or injected faults — both predictors are finite
        // here) quarantines the candidate instead of poisoning the sort.
        let _score_stage = elivagar_obs::span!("score_stage");
        for (k, candidate) in all[base..].iter().enumerate() {
            let i = base + k;
            let raw = match (plan.selection, cnrs[k], repcaps[k]) {
                (SelectionStrategy::Full, Some(c), Some(r)) => {
                    Some(composite_score(c, r, config.alpha_cnr))
                }
                (SelectionStrategy::RepCapOnly, _, Some(r)) => Some(r.max(0.0)),
                _ => None,
            };
            let raw = raw.map(|s| elivagar_sim::faultpoint::poison("search::score", i as u64, s));
            let score = match raw {
                Some(s) if !s.is_finite() => {
                    batch_quarantined.push(QuarantineEntry {
                        index: i,
                        stage: SearchStage::Score,
                        reason: format!("non-finite composite score {s}"),
                    });
                    self.funnel.score_quarantined += 1;
                    None
                }
                other => other,
            };
            let objectives = match (cnrs[k], repcaps[k], score) {
                (Some(c), Some(r), Some(_)) => Some(Objectives {
                    repcap: r,
                    cnr: c,
                    two_qubit_count: candidate.circuit.two_qubit_gate_count(),
                    depth: candidate.circuit.depth(),
                }),
                _ => None,
            };
            self.evals.push(Evaluation {
                index: i,
                cnr: cnrs[k],
                repcap: repcaps[k],
                score,
                objectives,
                rejected: plan.selection == SelectionStrategy::Full
                    && cnrs[k].is_some()
                    && !survivors.contains(&i),
                quarantined: batch_quarantined.iter().any(|q| q.index == i),
            });
        }
        self.quarantined.append(&mut batch_quarantined);
        Ok(())
    }

    /// Post-search cohort training: the top-k candidates (by descending
    /// score, candidate index as tie-break, always including the selected
    /// winner) train together through fused cross-candidate dispatches.
    /// Returns the trained members, the winner first; members whose
    /// training fails join the quarantine at [`SearchStage::Train`].
    fn train_stage(&mut self, train: &TrainConfig, best_index: usize) -> Vec<TrainedCandidate> {
        let _train_stage = elivagar_obs::span!("train_stage");
        let evals = &self.evals;
        let k = train.cohort.max(1);
        let mut cohort: Vec<usize> =
            evals.iter().filter(|e| e.score.is_some()).map(|e| e.index).collect();
        cohort.sort_by(|&a, &b| score_order(evals[b].score, evals[a].score).then(a.cmp(&b)));
        cohort.truncate(k);
        if !cohort.contains(&best_index) {
            cohort.insert(0, best_index);
            cohort.truncate(k);
        }
        let train_quarantine = |index: usize, reason: String| QuarantineEntry {
            index,
            stage: SearchStage::Train,
            reason,
        };
        let mut members: Vec<usize> = Vec::with_capacity(cohort.len());
        let mut models: Vec<QuantumClassifier> = Vec::with_capacity(cohort.len());
        for &i in &cohort {
            match QuantumClassifier::try_new(self.all[i].circuit.clone(), self.config.num_classes) {
                Ok(model) => {
                    members.push(i);
                    models.push(model);
                }
                Err(e) => self.quarantined.push(train_quarantine(i, e.to_string())),
            }
        }
        // The whole cohort trains inside a panic boundary: a poisoned
        // fused dispatch (or an injected `train::cohort_epoch` fault)
        // quarantines every member at the train stage instead of aborting
        // a search whose ranking already completed. The cancel token is
        // threaded through so a deadline hitting mid-training stops at the
        // next epoch boundary with a typed outcome.
        let trained_cohort = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            elivagar_ml::train_cohort_with_cancel(
                &models,
                self.dataset.train(),
                train,
                self.ledger.options.cancel.as_ref(),
            )
        }));
        let outcomes: Vec<Result<_, String>> = match trained_cohort {
            Ok(outcomes) => outcomes.into_iter().map(|o| o.map_err(|e| e.to_string())).collect(),
            Err(payload) => {
                let message = elivagar_sim::panic_message(payload.as_ref());
                vec![Err(format!("cohort training panicked: {message}")); members.len()]
            }
        };
        let mut trained: Vec<TrainedCandidate> = Vec::new();
        for (&i, outcome) in members.iter().zip(outcomes) {
            match outcome {
                Ok(c) => trained.push(TrainedCandidate {
                    index: i,
                    params: c.outcome.params,
                    loss_history: c.outcome.loss_history,
                    pruned_at_epoch: c.pruned_at_epoch,
                    executions: c.outcome.executions,
                }),
                Err(reason) => self.quarantined.push(train_quarantine(i, reason)),
            }
        }
        // Surface the selected winner first even when a multi-objective
        // strategy picked a candidate that is not the top composite score.
        if let Some(pos) = trained.iter().position(|t| t.index == best_index) {
            let winner = trained.remove(pos);
            trained.insert(0, winner);
        }
        trained
    }
}

/// Cache key for one CNR evaluation.
///
/// Uses the **canonical** circuit digest ([`KeyBuilder::circuit_canonical`]):
/// CNR is invariant under trainable-slot relabeling because
/// `clifford_replica` snaps every parameter of a granularity-bearing gate
/// to a random constant whose draw order depends only on instruction
/// order and parameter counts — never on which trainable slot a
/// parameter reads. Two candidates that differ only in slot numbering
/// therefore share one entry.
fn cnr_cache_key(
    candidate: &Candidate,
    device: &Device,
    config: &SearchConfig,
    seed: u64,
) -> CacheKey {
    KeyBuilder::new("cnr")
        .circuit_canonical(&candidate.circuit)
        .usizes(&candidate.placement)
        .device(device)
        .u64(config.clifford_replicas as u64)
        .u64(config.cnr_trajectories as u64)
        // `cnr_shots` is asserted >= 1, so 0 unambiguously encodes the
        // exact (shot-free) estimator.
        .u64(config.cnr_shots.map_or(0, |s| s as u64))
        .u64(seed)
        .finish()
}

/// Cache key for one RepCap evaluation.
///
/// Uses the **raw** circuit digest, not the canonical one: RepCap reads
/// `theta[slot]` by raw trainable index, and NSGA-II's param-slot
/// mutation produces non-normalized circuits whose RepCap genuinely
/// differs from their normalized twin. Collapsing slot labels here would
/// return wrong values for those circuits. The device is deliberately
/// absent — RepCap is noise-free, so entries are shared across devices.
fn repcap_cache_key(
    circuit: &Circuit,
    features: &[Vec<f64>],
    labels: &[usize],
    config: &SearchConfig,
    seed: u64,
) -> CacheKey {
    let mut b = KeyBuilder::new("repcap").circuit(circuit);
    for row in features {
        b = b.f64s(row);
    }
    b.usizes(labels)
        .u64(config.repcap_param_inits as u64)
        .u64(config.repcap_bases as u64)
        .u64(seed)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SearchConfig, SelectionStrategy};
    use elivagar_datasets::moons;
    use elivagar_device::devices::ibm_lagos;
    use std::path::PathBuf;

    fn setup() -> (elivagar_device::Device, Dataset, SearchConfig) {
        let device = ibm_lagos();
        let dataset = moons(60, 20, 3).normalized(std::f64::consts::PI);
        let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
        config.num_candidates = 6;
        (device, dataset, config)
    }

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("elivagar-search-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn full_search_selects_best_composite_score() {
        let (device, dataset, config) = setup();
        let result = search(&device, &dataset, &config);
        // Every candidate got a CNR; survivors got RepCap.
        assert_eq!(result.scored.len(), 6);
        assert!(result.scored.iter().all(|s| s.cnr.is_some()));
        let with_repcap = result.scored.iter().filter(|s| s.repcap.is_some()).count();
        assert!((1..=6).contains(&with_repcap));
        // The selected candidate carries the maximum score.
        let best_score = result.scored[0].score.expect("sorted by score");
        assert!(result
            .scored
            .iter()
            .filter_map(|s| s.score)
            .all(|s| s <= best_score + 1e-12));
        // Accounting is consistent and nothing was quarantined.
        assert_eq!(
            result.executions.cnr,
            (6 * config.clifford_replicas) as u64
        );
        assert!(result.executions.repcap > 0);
        assert!(result.quarantined.is_empty());
    }

    #[test]
    fn early_rejection_reduces_repcap_cost() {
        let (device, dataset, mut config) = setup();
        config.cnr_keep_fraction = 0.3; // ceil(6 * 0.3) = 2 survivors
        config.cnr_threshold = 0.0;
        let result = search(&device, &dataset, &config);
        let evaluated = result.scored.iter().filter(|s| s.repcap.is_some()).count();
        assert_eq!(evaluated, 2);
    }

    #[test]
    fn random_selection_runs_no_predictors() {
        let (device, dataset, mut config) = setup();
        config.selection = SelectionStrategy::Random;
        let result = search(&device, &dataset, &config);
        assert_eq!(result.executions.total(), 0);
        assert!(result.scored.iter().all(|s| s.score.is_none()));
    }

    #[test]
    fn repcap_only_skips_cnr() {
        let (device, dataset, mut config) = setup();
        config.selection = SelectionStrategy::RepCapOnly;
        let result = search(&device, &dataset, &config);
        assert_eq!(result.executions.cnr, 0);
        assert!(result.scored.iter().all(|s| s.cnr.is_none()));
        assert!(result.scored.iter().all(|s| s.repcap.is_some()));
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (device, dataset, config) = setup();
        let a = search(&device, &dataset, &config);
        let b = search(&device, &dataset, &config);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn selected_circuit_is_trainable_shape() {
        let (device, dataset, config) = setup();
        let result = search(&device, &dataset, &config);
        assert_eq!(result.best.circuit.num_trainable_params(), config.param_budget);
        assert_eq!(result.best.circuit.measured().len(), config.num_measured);
    }

    #[test]
    fn composite_score_weights_cnr_by_alpha() {
        assert!((composite_score(0.81, 0.5, 0.5) - 0.45).abs() < 1e-12);
        assert!((composite_score(0.81, 0.5, 1.0) - 0.405).abs() < 1e-12);
        // Negative repcap clamps to zero.
        assert_eq!(composite_score(0.9, -0.2, 0.5), 0.0);
    }

    #[test]
    fn score_order_is_total_and_ranks_non_finite_last() {
        use std::cmp::Ordering::*;
        assert_eq!(score_order(Some(0.5), Some(0.25)), Greater);
        assert_eq!(score_order(Some(0.25), Some(0.5)), Less);
        assert_eq!(score_order(Some(0.5), Some(0.5)), Equal);
        // Non-finite below every finite value, missing below non-finite.
        assert_eq!(score_order(Some(f64::NAN), Some(-1.0e300)), Less);
        assert_eq!(score_order(Some(f64::INFINITY), Some(0.0)), Less);
        assert_eq!(score_order(Some(f64::NAN), Some(f64::INFINITY)), Equal);
        assert_eq!(score_order(None, Some(f64::NAN)), Less);
        assert_eq!(score_order(None, None), Equal);
        // A descending sort never panics and puts NaN/None at the end.
        let mut scores = [Some(f64::NAN), Some(0.3), None, Some(0.9)];
        scores.sort_by(|a, b| score_order(*b, *a));
        assert_eq!(scores[0], Some(0.9));
        assert_eq!(scores[1], Some(0.3));
        assert!(scores[2].is_some_and(f64::is_nan));
        assert_eq!(scores[3], None);
    }

    #[test]
    fn tiny_budget_quarantines_every_candidate() {
        let (device, dataset, config) = setup();
        // CNR alone costs 8 executions in the fast config.
        let config = config.with_eval_budget(4);
        let err = run_search(&device, &dataset, &config, &RunOptions::default())
            .expect_err("nothing fits the budget");
        match err {
            SearchError::NoViableCandidates { quarantined } => {
                assert_eq!(quarantined.len(), 6);
                assert!(quarantined.iter().all(|q| q.stage == SearchStage::Cnr));
                assert!(quarantined[0].reason.contains("budget"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn repcap_budget_quarantines_survivors_only() {
        let (device, dataset, config) = setup();
        // CNR (8 executions) fits; CNR + RepCap (8 + 8*4 = 40) does not.
        let config = config.with_eval_budget(10);
        let err = run_search(&device, &dataset, &config, &RunOptions::default())
            .expect_err("repcap cannot run");
        match err {
            SearchError::NoViableCandidates { quarantined } => {
                assert!(!quarantined.is_empty());
                assert!(quarantined.iter().all(|q| q.stage == SearchStage::RepCap));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn sufficient_budget_changes_nothing() {
        let (device, dataset, config) = setup();
        let plain = search(&device, &dataset, &config);
        let budgeted = run_search(
            &device,
            &dataset,
            &config.clone().with_eval_budget(1_000_000),
            &RunOptions::default(),
        )
        .expect("budget is ample");
        assert_eq!(plain.best, budgeted.best);
        assert_eq!(plain.executions, budgeted.executions);
    }

    #[test]
    fn interrupted_search_resumes_to_identical_result() {
        let (device, dataset, config) = setup();
        let path = scratch("resume");
        let baseline =
            run_search(&device, &dataset, &config, &RunOptions::default()).expect("baseline");

        let checkpointed = RunOptions::new().with_checkpoint(path.clone()).with_checkpoint_every(2);
        // No stop requested: this full run must also match the baseline.
        let uninterrupted = run_search(&device, &dataset, &config, &checkpointed);
        assert_eq!(uninterrupted.expect("checkpointed run"), baseline);

        // Run until 3 records are journaled, then stop (simulated kill).
        let err = run_search(&device, &dataset, &config, &checkpointed.clone().with_slice_budget(3))
            .expect_err("stops mid-search");
        assert!(matches!(err, SearchError::Interrupted { records } if records >= 3));

        // Resume from the journal: bit-identical final result.
        let resume = checkpointed.with_resume(path.clone());
        let resumed = run_search(&device, &dataset, &config, &resume).expect("resumed run ends");
        assert_eq!(resumed, baseline);
        for (a, b) in resumed.scored.iter().zip(baseline.scored.iter()) {
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "resumed scores must be bit-identical"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn slice_budget_decomposes_a_run_into_resumable_slices() {
        let (device, dataset, config) = setup();
        let baseline =
            run_search(&device, &dataset, &config, &RunOptions::default()).expect("baseline");
        let path = scratch("slices");
        let _ = std::fs::remove_file(&path);
        // Drive the search the way a scheduler would: budgeted slices of
        // 3 new records each, resumed from the checkpoint, until it
        // completes. The final result must match the one-shot run bit for
        // bit.
        let mut slices = 0usize;
        let final_result = loop {
            let mut options = RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_slice_budget(3);
            if path.exists() {
                options = options.with_resume(path.clone());
            }
            match run_search(&device, &dataset, &config, &options) {
                Ok(result) => break result,
                Err(SearchError::Interrupted { .. }) => {
                    slices += 1;
                    assert!(slices < 100, "slicing never converged");
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        };
        assert!(slices >= 2, "6 candidates at 3 records/slice must take several slices");
        assert_eq!(final_result, baseline);
        for (a, b) in final_result.scored.iter().zip(baseline.scored.iter()) {
            assert_eq!(a.score.map(f64::to_bits), b.score.map(f64::to_bits));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn canceled_token_stops_the_run_with_typed_error() {
        let (device, dataset, config) = setup();
        let token = elivagar_sim::CancelToken::new();
        token.cancel();
        let err = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions::new().with_cancel(token),
        )
        .expect_err("pre-canceled token stops the run");
        assert!(matches!(err, SearchError::Canceled { .. }));
    }

    #[test]
    fn cancel_arriving_during_train_stage_quarantines_cohort_cleanly() {
        let (device, dataset, config) = setup();
        let config = config.with_train(elivagar_ml::TrainConfig {
            epochs: 4,
            batch_size: 16,
            cohort: 2,
            ..Default::default()
        });
        let path = scratch("cancel-train");
        let _ = std::fs::remove_file(&path);
        let full = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions::new().with_checkpoint(path.clone()),
        )
        .expect("uninterrupted run");
        // Resume with every evaluation already journaled and a canceled
        // token: the ranking replays untouched (no commit boundary runs),
        // so the cancellation is first observed inside cohort training —
        // the exact deadline-mid-train window. The cohort must land in
        // quarantine with a typed reason, not abort or hang.
        let token = elivagar_sim::CancelToken::new();
        token.cancel();
        let resumed = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions::new().with_resume(path.clone()).with_cancel(token),
        )
        .expect("ranking was complete; cancellation lands in the train stage");
        assert_eq!(resumed.best_index, full.best_index);
        assert!(resumed.trained.is_empty());
        let train_q: Vec<&QuarantineEntry> = resumed
            .quarantined
            .iter()
            .filter(|q| q.stage == SearchStage::Train)
            .collect();
        assert_eq!(train_q.len(), 2, "both cohort members record the cancellation");
        assert!(train_q
            .iter()
            .all(|q| q.reason.contains("canceled after 0 completed epochs")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn nsga2_search_yields_nondegenerate_pareto_front() {
        let (device, dataset, config) = setup();
        let config = config.with_nsga2(
            crate::config::Nsga2Config::default().with_population(6).with_generations(2),
        );
        let result = run_search(&device, &dataset, &config, &RunOptions::default())
            .expect("nsga2 search completes");
        let front = result.pareto.as_ref().expect("nsga2 surfaces a front");
        assert!(
            front.members.len() >= 2,
            "front is degenerate: {} member(s)",
            front.members.len()
        );
        for a in &front.members {
            for b in &front.members {
                assert!(
                    !a.objectives.dominates(&b.objectives),
                    "front members must be mutually non-dominated"
                );
            }
        }
        // `best` is the front member with the top composite score.
        let best_member = front
            .members
            .iter()
            .max_by(|a, b| score_order(a.score, b.score))
            .expect("non-empty front");
        assert_eq!(result.best, best_member.candidate);
        // 3 rounds of 6 candidates (init + 2 offspring generations), all
        // fully evaluated (no early rejection under NSGA-II).
        assert_eq!(result.scored.len(), 18);
        assert_eq!(result.executions.cnr, (18 * config.clifford_replicas) as u64);
    }

    #[test]
    fn nsga2_search_is_deterministic_per_seed() {
        let (device, dataset, config) = setup();
        let config = config.with_nsga2(
            crate::config::Nsga2Config::default().with_population(4).with_generations(2),
        );
        let a = run_search(&device, &dataset, &config, &RunOptions::default()).expect("first");
        let b = run_search(&device, &dataset, &config, &RunOptions::default()).expect("second");
        assert_eq!(a, b);
        let front_a = a.pareto.expect("front");
        let front_b = b.pareto.expect("front");
        assert_eq!(front_a, front_b);
    }

    #[test]
    fn nsga2_kill_and_resume_is_bit_identical() {
        let (device, dataset, config) = setup();
        let config = config.with_nsga2(
            crate::config::Nsga2Config::default().with_population(4).with_generations(2),
        );
        let baseline =
            run_search(&device, &dataset, &config, &RunOptions::default()).expect("baseline");
        let path = scratch("nsga2-resume");
        let _ = std::fs::remove_file(&path);
        // Kill mid-evolution (after the first generation boundary) and
        // resume: the journal replays every finished evaluation and the
        // evolution continues bit-identically.
        let err = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_slice_budget(9),
        )
        .expect_err("stops mid-evolution");
        assert!(matches!(err, SearchError::Interrupted { .. }));
        let resumed = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions::new().with_checkpoint(path.clone()).with_resume(path.clone()),
        )
        .expect("resumed evolution completes");
        assert_eq!(resumed, baseline);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oneshot_journal_does_not_resume_nsga2() {
        let (device, dataset, config) = setup();
        let path = scratch("strategy-mismatch");
        let _ = std::fs::remove_file(&path);
        let _ = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions::new().with_checkpoint(path.clone()),
        )
        .expect("one-shot checkpointed run");
        let nsga2 = config.clone().with_nsga2(crate::config::Nsga2Config::default());
        let err = run_search(
            &device,
            &dataset,
            &nsga2,
            &RunOptions::new().with_resume(path.clone()),
        )
        .expect_err("strategy fingerprint mismatch");
        assert!(matches!(
            err,
            SearchError::Checkpoint(CheckpointError::Mismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn custom_strategy_runs_through_the_engine() {
        // A minimal third-party strategy: propose a fixed-size pool,
        // then pick the *lowest*-scoring candidate (worst-case probe).
        struct WorstCase;
        impl crate::strategy::SearchStrategy for WorstCase {
            fn name(&self) -> &'static str {
                "worst-case"
            }
            fn propose(
                &mut self,
                ctx: &mut crate::strategy::StrategyCtx<'_>,
            ) -> Vec<Candidate> {
                (0..4).map(|_| crate::generate_candidate(ctx.device, ctx.config, ctx.rng)).collect()
            }
            fn observe(
                &mut self,
                _ctx: &mut crate::strategy::StrategyCtx<'_>,
                evals: &[crate::strategy::Evaluation],
            ) -> crate::strategy::Decision {
                let worst = evals
                    .iter()
                    .filter(|e| e.score.is_some())
                    .min_by(|a, b| score_order(a.score, b.score))
                    .map(|e| e.index);
                crate::strategy::Decision::Stop(crate::strategy::Selection {
                    best: worst,
                    front: None,
                })
            }
        }
        let (device, dataset, config) = setup();
        let result =
            run_search_with(&device, &dataset, &config, &RunOptions::default(), &mut WorstCase)
                .expect("custom strategy completes");
        assert_eq!(result.scored.len(), 4);
        let worst = result
            .scored
            .iter()
            .filter(|s| s.score.is_some())
            .min_by(|a, b| score_order(a.score, b.score))
            .expect("someone scored");
        assert_eq!(result.best, worst.candidate);
    }

    #[test]
    fn empty_round_keeps_earlier_rounds_viable() {
        // Round 0 proposes four candidates and round 1 none (an empty
        // batch is allowed); the winner must still come from round 0.
        struct ThenEmpty;
        impl crate::strategy::SearchStrategy for ThenEmpty {
            fn name(&self) -> &'static str {
                "then-empty"
            }
            fn propose(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<Candidate> {
                let count = if ctx.round == 0 { 4 } else { 0 };
                crate::strategy::generate_pool(ctx, count)
            }
            fn observe(&mut self, ctx: &mut StrategyCtx<'_>, evals: &[Evaluation]) -> Decision {
                if ctx.round == 0 {
                    return Decision::Continue;
                }
                let best = evals
                    .iter()
                    .filter(|e| e.score.is_some())
                    .max_by(|a, b| score_order(a.score, b.score))
                    .map(|e| e.index);
                Decision::Stop(crate::strategy::Selection { best, front: None })
            }
        }
        let (device, dataset, config) = setup();
        let result =
            run_search_with(&device, &dataset, &config, &RunOptions::default(), &mut ThenEmpty)
                .expect("an empty round does not discard earlier rounds");
        assert_eq!(result.scored.len(), 4);
        assert!(result.best_index < 4);
        assert_eq!(result.best, result.scored[0].candidate);
    }

    /// A zero predictor knob would fault every candidate's evaluation, so
    /// the engine refuses it before evaluating anything.
    macro_rules! zero_knob_panics_up_front {
        ($($test:ident: $knob:ident),* $(,)?) => {$(
            #[test]
            #[should_panic(expected = "must be at least 1")]
            fn $test() {
                let (device, dataset, mut config) = setup();
                config.$knob = 0;
                let _ = run_search(&device, &dataset, &config, &RunOptions::default());
            }
        )*};
    }
    zero_knob_panics_up_front!(
        zero_clifford_replicas_panics_up_front: clifford_replicas,
        zero_cnr_trajectories_panics_up_front: cnr_trajectories,
        zero_repcap_samples_per_class_panics_up_front: repcap_samples_per_class,
        zero_repcap_bases_panics_up_front: repcap_bases,
        zero_repcap_param_inits_panics_up_front: repcap_param_inits,
    );

    #[test]
    fn cohort_training_surfaces_trained_candidates() {
        let (device, dataset, config) = setup();
        let config = config.with_train(elivagar_ml::TrainConfig {
            epochs: 2,
            batch_size: 16,
            cohort: 3,
            ..Default::default()
        });
        let result = search(&device, &dataset, &config);
        assert_eq!(result.trained.len(), 3);
        // Winner first, every member fully trained.
        let best_trained = &result.trained[0];
        assert_eq!(best_trained.index, result.best_index);
        assert_eq!(
            best_trained.params.len(),
            result.best.circuit.num_trainable_params()
        );
        for t in &result.trained {
            assert_eq!(t.loss_history.len(), 2);
            assert_eq!(t.pruned_at_epoch, None);
            assert!(t.executions > 0);
        }
        // The same search without training changes nothing else.
        let (device2, dataset2, plain_config) = setup();
        let plain = search(&device2, &dataset2, &plain_config);
        assert_eq!(plain.best, result.best);
        assert_eq!(plain.scored, result.scored);
        assert!(plain.trained.is_empty());
    }

    #[test]
    fn cohort_training_with_halving_prunes_deterministically() {
        let (device, dataset, config) = setup();
        let config = config.with_train(elivagar_ml::TrainConfig {
            epochs: 8,
            batch_size: 16,
            cohort: 3,
            halving_rungs: 2,
            ..Default::default()
        });
        let a = search(&device, &dataset, &config);
        let b = search(&device, &dataset, &config);
        assert_eq!(a, b);
        // Rungs fire after epochs 2 and 4: 3 -> 2 -> 1 alive.
        let pruned: Vec<Option<usize>> =
            a.trained.iter().map(|t| t.pruned_at_epoch).collect();
        assert_eq!(pruned.iter().filter(|p| p.is_none()).count(), 1);
        assert_eq!(pruned.iter().filter(|p| **p == Some(2)).count(), 1);
        assert_eq!(pruned.iter().filter(|p| **p == Some(4)).count(), 1);
        for t in &a.trained {
            let expected = t.pruned_at_epoch.unwrap_or(8);
            assert_eq!(t.loss_history.len(), expected);
        }
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let (device, dataset, config) = setup();
        let path = scratch("mismatch");
        let _ = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions {
                checkpoint_to: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .expect("checkpointed run");
        let other = config.clone().with_seed(1234);
        let err = run_search(
            &device,
            &dataset,
            &other,
            &RunOptions {
                resume_from: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .expect_err("fingerprint mismatch");
        assert!(matches!(
            err,
            SearchError::Checkpoint(CheckpointError::Mismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
