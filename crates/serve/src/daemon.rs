//! The scheduler: admission control, fair-share slicing, deadlines,
//! retry/dead-letter, and crash-resume.
//!
//! A [`Daemon`] is a single-threaded, tick-driven scheduler over a set of
//! admitted jobs. Each [`Daemon::tick`] picks one runnable job by
//! weighted deficit round-robin across tenants (highest credit wins,
//! credits replenish by tenant weight when all runnable tenants are
//! spent; within a tenant, highest priority then FIFO) and runs **one
//! slice** of its search: `run_search` with a [`RunOptions::slice_budget`]
//! cap, resuming the job's own checkpoint. The slice either
//!
//! * finishes the search — the result file is written atomically *before*
//!   the `Done` event is journaled, so a crash between the two replays as
//!   "still queued" and harmlessly rewrites the identical result;
//! * stops at the slice budget — a `SliceCommitted` event records the
//!   durable progress and the job requeues;
//! * hits a deadline — slice-count deadlines are checked at the tick
//!   boundary, wall-clock deadlines cancel cooperatively through a
//!   [`CancelToken`] polled at each checkpoint save and cohort epoch;
//! * panics — the job backs off exponentially (`backoff_base << attempt`
//!   ticks) and dead-letters after its retry budget.
//!
//! The daemon leaves the checkpoint cadence at the search's default (16
//! candidates per dispatch), and no dispatch runs past the slice's stop
//! point: a slice of at most 16 records evaluates them in one pool
//! dispatch per search stage (two when it crosses from CNR to RepCap) and
//! saves the checkpoint once after each, so a wall-clock deadline is
//! noticed at the end of a stage's dispatch. A job's device, dataset and
//! search config are built at its first slice in this process and kept
//! until it turns terminal; after a restart the next slice rebuilds them.
//!
//! Every decision is journaled (see [`crate::journal`]) before the
//! in-memory state changes, so `kill -9` at any instant loses at most the
//! slice in flight: [`Daemon::open`] replays the journal, requeues every
//! non-terminal job, and resumed searches are bit-identical to
//! uninterrupted ones because the per-job checkpoint protocol already
//! guarantees it.
//!
//! [`CancelToken`]: elivagar_sim::CancelToken

use crate::job::{FailKind, FailReason, Job, JobSpec, JobState};
use crate::journal::{
    self, DeadLettered, JobDone, JobEvent, JobFailed, JournalError, JournalRecovered,
    JournalWriter, Retried, Shed, SliceCommitted,
};
use elivagar::{run_search, RunOptions, SearchConfig, SearchError, SearchStage};
use elivagar_datasets::Dataset;
use elivagar_device::Device;
use elivagar_ml::TrainConfig;
use elivagar_sim::CancelToken;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Daemon configuration. [`Daemon::open`] refuses a zero `queue_depth`,
/// `slice_records` or tenant weight.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Root of the daemon's durable state: `journal.log`, `checkpoints/`,
    /// and `results/` live underneath.
    pub state_dir: PathBuf,
    /// Maximum non-terminal jobs held at once; admissions beyond it are
    /// shed-or-rejected. It also bounds the daemon's memory: each of these
    /// jobs that has run a slice keeps its device, search config and
    /// dataset (`train_size + test_size` samples) until it turns terminal,
    /// so the daemon holds at most `queue_depth` datasets at once (about
    /// 22 MiB each for full-size MNIST-10). A tenant runs one job at a
    /// time unless a retry backoff or a higher-priority arrival switches
    /// jobs, so the usual count is one per tenant.
    pub queue_depth: usize,
    /// Default per-slice budget of new evaluation records (jobs may
    /// override via [`JobSpec::slice_records`]). A slice saves the job's
    /// checkpoint after each stage's dispatch, a dispatch being at most 16
    /// candidates and never running past the budget.
    pub slice_records: usize,
    /// Default retry budget for panicked slices (jobs may override via
    /// [`JobSpec::max_retries`]).
    pub max_retries: u32,
    /// Backoff base in ticks: retry `n` waits `backoff_base << (n - 1)`
    /// ticks.
    pub backoff_base: u64,
    /// Per-tenant cap on total journaled evaluation records; a tenant at
    /// its cap has further jobs failed with [`FailKind::BudgetExhausted`].
    /// `None` is unlimited.
    pub tenant_record_budget: Option<u64>,
    /// Fair-share weights per tenant (credits replenished per round);
    /// unlisted tenants weigh 1.
    pub tenant_weights: Vec<(String, u64)>,
}

impl ServeConfig {
    /// Defaults sized for tests and small deployments.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            state_dir: state_dir.into(),
            queue_depth: 8,
            slice_records: 6,
            max_retries: 2,
            backoff_base: 1,
            tenant_record_budget: None,
            tenant_weights: Vec::new(),
        }
    }

    /// Names the first setting that must be at least 1 but is zero.
    fn validate(&self) -> Result<(), String> {
        let counts = [("queue_depth", self.queue_depth), ("slice_records", self.slice_records)];
        if let Some((name, _)) = counts.iter().find(|&&(_, v)| v == 0) {
            return Err(format!("{name} must be >= 1"));
        }
        if let Some((tenant, _)) = self.tenant_weights.iter().find(|&&(_, w)| w == 0) {
            return Err(format!("the weight of tenant {tenant:?} must be >= 1"));
        }
        Ok(())
    }

    fn weight_of(&self, tenant: &str) -> u64 {
        self.tenant_weights.iter().find(|(name, _)| name == tenant).map_or(1, |&(_, w)| w)
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// A job with this id already exists (in any state).
    DuplicateId {
        /// The offending id.
        id: String,
    },
    /// The spec names a benchmark this build does not know.
    UnknownBenchmark {
        /// The unknown name.
        name: String,
    },
    /// The spec names a device this build does not know.
    UnknownDevice {
        /// The unknown name.
        name: String,
    },
    /// The spec is self-inconsistent (e.g. zero candidates, training
    /// epochs or slice records).
    InvalidSpec {
        /// What is wrong.
        detail: String,
    },
    /// The queue is full and no queued job has strictly lower priority to
    /// shed.
    QueueFull {
        /// The configured depth that was hit.
        depth: usize,
    },
    /// The admission could not be journaled durably.
    Journal {
        /// The underlying journal error text.
        message: String,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::DuplicateId { id } => write!(f, "duplicate job id {id:?}"),
            AdmitError::UnknownBenchmark { name } => write!(f, "unknown benchmark {name:?}"),
            AdmitError::UnknownDevice { name } => write!(f, "unknown device {name:?}"),
            AdmitError::InvalidSpec { detail } => write!(f, "invalid job spec: {detail}"),
            AdmitError::QueueFull { depth } => {
                write!(f, "queue full at depth {depth} and no lower-priority job to shed")
            }
            AdmitError::Journal { message } => write!(f, "admission not durable: {message}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A daemon-level failure (configuration, journal or state-directory I/O —
/// job failures are data, not errors).
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure against the state directory.
    Io {
        /// Path the operation targeted.
        path: String,
        /// OS error text.
        message: String,
    },
    /// The daemon journal could not be written.
    Journal(JournalError),
    /// A setting the daemon cannot run with: a zero queue depth, slice
    /// size or tenant weight in [`ServeConfig`], or a malformed
    /// `ELIVAGAR_THREADS`.
    InvalidConfig {
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, message } => write!(f, "serve I/O failure at {path}: {message}"),
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::InvalidConfig { detail } => write!(f, "invalid daemon config: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

/// Lifetime funnel of one daemon (replayed from the journal on restart,
/// except `rejected`, which never enters the journal — a rejected job was
/// never owned by the daemon).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Jobs that passed admission control.
    pub admitted: u64,
    /// Submissions turned away with a typed [`AdmitError`].
    pub rejected: u64,
    /// Panic retries scheduled.
    pub retries: u64,
    /// Queued jobs displaced by higher-priority admissions.
    pub shed: u64,
    /// Slices executed to an `Interrupted` boundary.
    pub slices: u64,
    /// Jobs completed.
    pub done: u64,
    /// Jobs terminally failed.
    pub failed: u64,
    /// Jobs dead-lettered after exhausting retries.
    pub dead_letter: u64,
    /// Admission-to-terminal latency of each finished job, in
    /// nanoseconds (in-memory; informational, never compared).
    pub latencies_ns: Vec<u64>,
}

impl ServeStats {
    /// Nearest-rank quantile of the job latencies; 0 when none finished.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// Outcome of one scheduler tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TickOutcome {
    /// No job was runnable this tick (empty queue or all in backoff).
    Idle,
    /// One slice of `id` ran (to completion, interruption, or failure).
    Ran {
        /// The scheduled job.
        id: String,
    },
}

#[derive(Clone, Debug, Default)]
struct TenantState {
    credit: u64,
    records_used: u64,
}

/// Deterministic ranking artifact written for a completed job: every
/// scored candidate's composite-score bits plus the selected index.
/// Bit-identical across thread counts, restarts, and kill points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Job id.
    pub id: String,
    /// Index of the selected candidate.
    pub best_index: usize,
    /// Final per-job journal length (evaluation records).
    pub records: u64,
    /// `(candidate index, f64::to_bits(composite score))` for every
    /// candidate that survived to scoring, in candidate order.
    pub ranking: Vec<(usize, u64)>,
}

/// The search-as-a-service daemon. See the module docs for the scheduling
/// model; all methods are synchronous and the type is single-threaded by
/// design (parallelism lives *inside* a slice, in the search runtime).
pub struct Daemon {
    config: ServeConfig,
    writer: JournalWriter,
    jobs: BTreeMap<String, Job>,
    tenants: BTreeMap<String, TenantState>,
    tick: u64,
    next_seq: u64,
    stats: ServeStats,
    recovered: JournalRecovered,
    started: Instant,
    submit_instants: BTreeMap<String, Instant>,
    /// One open result-cache handle per `cache_dir`, shared by every job
    /// (and so every tenant) pointing at that directory.
    caches: BTreeMap<String, elivagar::CacheHandle>,
    /// [`Daemon::search_inputs`] of each job that has run a slice in this
    /// process and is not terminal, so at most `queue_depth` entries.
    inputs: BTreeMap<String, (Device, Dataset, SearchConfig)>,
}

impl Daemon {
    /// Opens (or creates) a daemon over `config.state_dir`, replaying the
    /// journal: terminal jobs stay terminal, everything else requeues.
    /// Corrupt journal tails are recovered, not fatal — inspect
    /// [`Daemon::recovered`] for what was dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`], before anything is created, on a
    /// zero setting or when [`elivagar_sim::threads_from_env`] fails: the
    /// pool starts inside a slice's panic isolation, so a bad
    /// `ELIVAGAR_THREADS` would otherwise fail every slice and
    /// dead-letter every job. Otherwise on filesystem failures creating
    /// the state layout or reading the journal.
    pub fn open(config: ServeConfig) -> Result<Daemon, ServeError> {
        config
            .validate()
            .and_then(|()| elivagar_sim::threads_from_env().map(drop))
            .map_err(|detail| ServeError::InvalidConfig { detail })?;
        for dir in [
            config.state_dir.clone(),
            config.state_dir.join("checkpoints"),
            config.state_dir.join("results"),
        ] {
            std::fs::create_dir_all(&dir).map_err(|e| ServeError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
        }
        let (events, recovered, writer) = journal::open(&config.state_dir.join("journal.log"))?;
        let mut daemon = Daemon {
            config,
            writer,
            jobs: BTreeMap::new(),
            tenants: BTreeMap::new(),
            tick: 0,
            next_seq: 0,
            stats: ServeStats::default(),
            recovered,
            started: Instant::now(),
            submit_instants: BTreeMap::new(),
            caches: BTreeMap::new(),
            inputs: BTreeMap::new(),
        };
        for event in events {
            daemon.replay(event);
        }
        Ok(daemon)
    }

    /// What journal recovery salvaged and dropped at open.
    pub fn recovered(&self) -> JournalRecovered {
        self.recovered
    }

    /// The daemon's lifetime funnel.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Current scheduler tick.
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// The job with this id, if admitted (in any state).
    pub fn job(&self, id: &str) -> Option<&Job> {
        self.jobs.get(id)
    }

    /// All admitted jobs, keyed by id.
    pub fn jobs(&self) -> &BTreeMap<String, Job> {
        &self.jobs
    }

    /// Whether any job can still make progress.
    pub fn has_pending(&self) -> bool {
        self.jobs.values().any(|j| !j.state.is_terminal())
    }

    /// Path of a job's search checkpoint.
    pub fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join("checkpoints").join(format!("{id}.ckpt"))
    }

    /// Path of a job's result artifact.
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join("results").join(format!("{id}.json"))
    }

    /// Rebuilds in-memory state from one journaled event. Backoff windows
    /// collapse on replay (tick domains do not survive restarts), so a
    /// retried job is immediately runnable after recovery. A job that
    /// turns terminal drops its search inputs.
    fn replay(&mut self, event: JobEvent) {
        match event {
            JobEvent::Submitted(spec) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.tenants.entry(spec.tenant.clone()).or_default();
                self.stats.admitted += 1;
                self.jobs.insert(
                    spec.id.clone(),
                    Job { spec, state: JobState::Queued, attempts: 0, slices: 0, records: 0, submit_seq: seq },
                );
            }
            JobEvent::SliceCommitted(SliceCommitted { id, records }) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    let delta = records.saturating_sub(job.records);
                    self.tenants.entry(job.spec.tenant.clone()).or_default().records_used += delta;
                    job.records = records;
                    job.slices += 1;
                    self.stats.slices += 1;
                }
            }
            JobEvent::Retried(Retried { id, attempt, .. }) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.attempts = attempt;
                    job.state = JobState::Queued;
                    self.stats.retries += 1;
                }
            }
            JobEvent::Done(JobDone { id, records }) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.state = JobState::Done { records };
                    self.stats.done += 1;
                }
                self.inputs.remove(&id);
            }
            JobEvent::Failed(JobFailed { id, reason }) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.state = JobState::Failed(reason);
                    self.stats.failed += 1;
                }
                self.inputs.remove(&id);
            }
            JobEvent::DeadLettered(DeadLettered { id, attempts, reason }) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.attempts = attempts;
                    job.state = JobState::DeadLetter { attempts, reason };
                    self.stats.dead_letter += 1;
                }
                self.inputs.remove(&id);
            }
            JobEvent::Shed(Shed { id, displaced_by }) => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.state = JobState::Shed { displaced_by };
                    self.stats.shed += 1;
                }
                self.inputs.remove(&id);
            }
        }
    }

    fn reject(&mut self, error: AdmitError) -> Result<(), AdmitError> {
        self.stats.rejected += 1;
        elivagar_obs::metrics::SERVE_JOBS_REJECTED.add(1);
        Err(error)
    }

    /// Admission control: validates the spec, enforces the queue depth
    /// (shedding a strictly lower-priority queued job if one exists),
    /// journals the admission durably, and enqueues the job.
    ///
    /// # Errors
    ///
    /// A typed [`AdmitError`]; every rejection is counted in
    /// `serve.jobs_rejected`.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), AdmitError> {
        if self.jobs.contains_key(&spec.id) {
            return self.reject(AdmitError::DuplicateId { id: spec.id });
        }
        if spec.id.is_empty() || spec.id.contains(['/', '\\', '\0']) {
            return self.reject(AdmitError::InvalidSpec {
                detail: format!("id {:?} is empty or contains path separators", spec.id),
            });
        }
        if spec.candidates == 0 {
            return self.reject(AdmitError::InvalidSpec { detail: "candidates must be >= 1".into() });
        }
        if spec.train_size == 0 || spec.test_size == 0 {
            return self.reject(AdmitError::InvalidSpec {
                detail: "train_size and test_size must be >= 1".into(),
            });
        }
        if spec.train_epochs == Some(0) {
            return self.reject(AdmitError::InvalidSpec { detail: "train_epochs must be >= 1".into() });
        }
        if spec.slice_records == Some(0) {
            return self.reject(AdmitError::InvalidSpec { detail: "slice_records must be >= 1".into() });
        }
        if elivagar_datasets::spec(&spec.benchmark).is_none() {
            return self.reject(AdmitError::UnknownBenchmark { name: spec.benchmark });
        }
        if elivagar_device::device_by_name(&spec.device).is_none() {
            return self.reject(AdmitError::UnknownDevice { name: spec.device });
        }

        let pending = self.jobs.values().filter(|j| !j.state.is_terminal()).count();
        if pending >= self.config.queue_depth {
            // Load shedding: displace the lowest-priority queued job, but
            // only one strictly below the incoming priority — equal
            // priority never displaces (no livelock between peers).
            let victim = self
                .jobs
                .values()
                .filter(|j| !j.state.is_terminal() && j.spec.priority < spec.priority)
                .min_by_key(|j| (j.spec.priority, std::cmp::Reverse(j.submit_seq)))
                .map(|j| j.spec.id.clone());
            let Some(victim_id) = victim else {
                return self.reject(AdmitError::QueueFull { depth: self.config.queue_depth });
            };
            let event = JobEvent::Shed(Shed { id: victim_id, displaced_by: spec.id.clone() });
            if let Err(e) = self.writer.append(&event) {
                return self.reject(AdmitError::Journal { message: e.to_string() });
            }
            self.replay(event);
            elivagar_obs::metrics::SERVE_SHED.add(1);
        }

        let event = JobEvent::Submitted(spec);
        if let Err(e) = self.writer.append(&event) {
            return self.reject(AdmitError::Journal { message: e.to_string() });
        }
        if let JobEvent::Submitted(spec) = &event {
            self.submit_instants.insert(spec.id.clone(), Instant::now());
        }
        self.replay(event);
        elivagar_obs::metrics::SERVE_JOBS_ADMITTED.add(1);
        Ok(())
    }

    /// Picks the next job to run: weighted deficit round-robin across
    /// tenants with a runnable job, then highest priority / FIFO within
    /// the tenant. Deterministic given the job set and tick.
    fn pick_next(&mut self) -> Option<String> {
        let runnable = |job: &Job, tick: u64| match job.state {
            JobState::Queued => true,
            JobState::Backoff { until_tick } => tick >= until_tick,
            _ => false,
        };
        let tick = self.tick;
        let mut tenants: Vec<&str> = self
            .jobs
            .values()
            .filter(|j| runnable(j, tick))
            .map(|j| j.spec.tenant.as_str())
            .collect();
        tenants.sort_unstable();
        tenants.dedup();
        if tenants.is_empty() {
            return None;
        }
        // Deficit WRR: spend a credit from the richest runnable tenant;
        // when every runnable tenant is broke, replenish all by weight.
        if tenants.iter().all(|t| self.tenants.get(*t).map_or(0, |s| s.credit) == 0) {
            for (name, state) in self.tenants.iter_mut() {
                state.credit += self.config.weight_of(name);
            }
        }
        let tenant = tenants
            .iter()
            .max_by_key(|t| (self.tenants.get(**t).map_or(0, |s| s.credit), std::cmp::Reverse(*t)))?
            .to_string();
        if let Some(state) = self.tenants.get_mut(&tenant) {
            state.credit = state.credit.saturating_sub(1);
        }
        self.jobs
            .values()
            .filter(|j| runnable(j, tick) && j.spec.tenant == tenant)
            .max_by_key(|j| (j.spec.priority, std::cmp::Reverse(j.submit_seq)))
            .map(|j| j.spec.id.clone())
    }

    fn finish_latency(&mut self, id: &str) {
        let from = self.submit_instants.remove(id).unwrap_or(self.started);
        let ns = from.elapsed().as_nanos() as u64;
        self.stats.latencies_ns.push(ns);
        elivagar_obs::metrics::JOB_LATENCY_NS.observe(ns);
    }

    fn fail_job(&mut self, id: &str, reason: FailReason) -> Result<(), ServeError> {
        let event = JobEvent::Failed(JobFailed { id: id.to_string(), reason });
        self.writer.append(&event)?;
        self.replay(event);
        elivagar_obs::metrics::SERVE_JOBS_FAILED.add(1);
        self.finish_latency(id);
        Ok(())
    }

    fn dead_letter_job(&mut self, id: &str, attempts: u32, reason: FailReason) -> Result<(), ServeError> {
        let event = JobEvent::DeadLettered(DeadLettered { id: id.to_string(), attempts, reason });
        self.writer.append(&event)?;
        self.replay(event);
        elivagar_obs::metrics::SERVE_DEAD_LETTER.add(1);
        self.finish_latency(id);
        Ok(())
    }

    /// Builds the deterministic search inputs for a spec. Pure function of
    /// the spec, so every slice and every restart sees the same search;
    /// `run_slice` builds them once per job and process.
    fn search_inputs(spec: &JobSpec) -> Option<(Device, Dataset, SearchConfig)> {
        let bench = elivagar_datasets::spec(&spec.benchmark)?;
        let device = elivagar_device::device_by_name(&spec.device)?;
        let dataset = elivagar_datasets::load_sized(
            &spec.benchmark,
            spec.seed,
            spec.train_size.min(bench.train),
            spec.test_size.min(bench.test),
        );
        let mut config =
            SearchConfig::for_task(bench.qubits, bench.params, bench.feature_dim, bench.classes).fast();
        config.num_candidates = spec.candidates;
        config.seed = spec.seed;
        if let Some(epochs) = spec.train_epochs {
            config = config.with_train(TrainConfig {
                epochs,
                batch_size: 8,
                seed: spec.seed,
                cohort: 2,
                ..TrainConfig::default()
            });
        }
        Some((device, dataset, config))
    }

    /// Runs one scheduler tick: picks a job (or idles) and executes one
    /// slice of it. The chaos site `serve::tick` fires here, *before* any
    /// slice work, modeling `kill -9` between slices.
    ///
    /// # Errors
    ///
    /// Only on daemon-level I/O failures; job-level failures become job
    /// states.
    pub fn tick(&mut self) -> Result<TickOutcome, ServeError> {
        self.tick += 1;
        elivagar_sim::faultpoint::hit("serve::tick", self.tick);
        let Some(id) = self.pick_next() else {
            return Ok(TickOutcome::Idle);
        };
        self.run_slice(&id)?;
        Ok(TickOutcome::Ran { id })
    }

    /// Ticks until every job is terminal or `max_ticks` elapse; returns
    /// the ticks consumed.
    ///
    /// # Errors
    ///
    /// As [`Daemon::tick`].
    pub fn run_until_drained(&mut self, max_ticks: u64) -> Result<u64, ServeError> {
        let mut used = 0;
        while used < max_ticks && self.has_pending() {
            self.tick()?;
            used += 1;
        }
        Ok(used)
    }

    /// Opens (or reuses) the result-cache handle for `dir`. Handles are
    /// keyed by the literal spec string, so jobs naming the same
    /// directory share one in-memory tier on top of the shared disk tier.
    fn cache_for(&mut self, dir: &str) -> Result<elivagar::CacheHandle, elivagar::CacheError> {
        if let Some(cache) = self.caches.get(dir) {
            return Ok(cache.clone());
        }
        let cache = elivagar::Cache::open(dir)?;
        self.caches.insert(dir.to_string(), cache.clone());
        Ok(cache)
    }

    fn run_slice(&mut self, id: &str) -> Result<(), ServeError> {
        let job = self.jobs.get(id).expect("picked job exists").clone();
        let spec = &job.spec;

        // Tick-domain deadline: checked at the slice boundary, before any
        // budget is spent on a job that can no longer finish in time.
        if let Some(limit) = spec.deadline_slices {
            if job.slices >= limit {
                return self.fail_job(
                    id,
                    FailReason {
                        kind: FailKind::Deadline,
                        detail: format!("slice deadline: {limit} slices consumed without completing"),
                    },
                );
            }
        }
        // Tenant fair-use budget.
        if let Some(budget) = self.config.tenant_record_budget {
            let used = self.tenants.get(&spec.tenant).map_or(0, |t| t.records_used);
            if used >= budget {
                return self.fail_job(
                    id,
                    FailReason {
                        kind: FailKind::BudgetExhausted,
                        detail: format!(
                            "tenant {:?} used {used} of {budget} evaluation records",
                            spec.tenant
                        ),
                    },
                );
            }
        }

        if !self.inputs.contains_key(id) {
            let Some(inputs) = Self::search_inputs(spec) else {
                // Validated at admission; only reachable via a replayed
                // journal from a build with different benchmarks/devices.
                return self.fail_job(
                    id,
                    FailReason {
                        kind: FailKind::Search,
                        detail: format!(
                            "benchmark {:?} or device {:?} unknown to this build",
                            spec.benchmark, spec.device
                        ),
                    },
                );
            };
            self.inputs.insert(id.to_string(), inputs);
        }

        let cancel = match spec.deadline_ms {
            Some(ms) => CancelToken::with_deadline(std::time::Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let ckpt = self.checkpoint_path(id);
        let mut options = RunOptions::default()
            .with_checkpoint(&ckpt)
            .with_slice_budget(spec.slice_records.unwrap_or(self.config.slice_records))
            .with_cancel(cancel.clone());
        if ckpt.exists() {
            options = options.with_resume(&ckpt);
        }
        if let Some(dir) = &spec.cache_dir {
            match self.cache_for(dir) {
                Ok(cache) => options = options.with_cache(cache),
                Err(e) => {
                    // A cache is an accelerator, never a correctness
                    // dependency: an unopenable directory degrades to an
                    // uncached (slower, identical) run.
                    eprintln!("warning: job {id}: result cache {dir:?} unavailable: {e}");
                }
            }
        }

        let (device, dataset, config) = &self.inputs[id];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_search(device, dataset, config, &options)
        }));

        match outcome {
            Err(payload) => {
                let message = elivagar_sim::panic_message(payload.as_ref());
                self.retry_or_dead_letter(id, &job, FailReason { kind: FailKind::Panic, detail: message })
            }
            Ok(Err(SearchError::Interrupted { records })) => {
                let event =
                    JobEvent::SliceCommitted(SliceCommitted { id: id.to_string(), records: records as u64 });
                self.writer.append(&event)?;
                self.replay(event);
                elivagar_obs::metrics::SERVE_SLICES.add(1);
                Ok(())
            }
            Ok(Err(SearchError::Canceled { records })) => self.fail_job(
                id,
                FailReason {
                    kind: FailKind::Deadline,
                    detail: format!("wall-clock deadline after {records} journaled evaluations"),
                },
            ),
            Ok(Err(SearchError::Checkpoint(e))) => {
                // A corrupt per-job checkpoint is recoverable state, not a
                // lost job: discard it and retry from scratch (bounded by
                // the retry budget so persistent corruption dead-letters).
                let _ = std::fs::remove_file(&ckpt);
                self.retry_or_dead_letter(
                    id,
                    &job,
                    FailReason {
                        kind: FailKind::Search,
                        detail: format!("checkpoint discarded after: {e}"),
                    },
                )
            }
            Ok(Err(e)) => self.fail_job(id, FailReason { kind: FailKind::Search, detail: e.to_string() }),
            Ok(Ok(result)) => {
                // A wall-clock deadline that lands inside cohort training
                // cancels the cohort (quarantining it at the Train stage)
                // but still lets the run return: classify that as a
                // deadline failure, not a completion.
                let train_canceled = cancel.is_canceled()
                    && result.quarantined.iter().any(|q| {
                        q.stage == SearchStage::Train && q.reason.contains("canceled")
                    });
                if train_canceled {
                    return self.fail_job(
                        id,
                        FailReason {
                            kind: FailKind::Deadline,
                            detail: "wall-clock deadline during cohort training".to_string(),
                        },
                    );
                }
                let records = elivagar::checkpoint::load(&ckpt).map_or(job.records, |j| j.len() as u64);
                let ranking = result
                    .scored
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.score.map(|v| (i, v.to_bits())))
                    .collect();
                let artifact = JobResult {
                    id: id.to_string(),
                    best_index: result.best_index,
                    records,
                    ranking,
                };
                let body = serde_json::to_string(&artifact).map_err(|e| ServeError::Io {
                    path: self.result_path(id).display().to_string(),
                    message: e.to_string(),
                })?;
                // Result first, then the Done event: a crash between the
                // two replays as "queued" and rewrites the identical file.
                journal::atomic_write_checksummed(&self.result_path(id), &body)?;
                let event = JobEvent::Done(JobDone { id: id.to_string(), records });
                self.writer.append(&event)?;
                self.replay(event);
                elivagar_obs::metrics::SERVE_JOBS_DONE.add(1);
                self.finish_latency(id);
                Ok(())
            }
        }
    }

    fn retry_or_dead_letter(&mut self, id: &str, job: &Job, reason: FailReason) -> Result<(), ServeError> {
        let attempts = job.attempts + 1;
        let budget = job.spec.max_retries.unwrap_or(self.config.max_retries);
        if attempts > budget {
            return self.dead_letter_job(id, attempts, reason);
        }
        let not_before = self.tick + (self.config.backoff_base << (attempts - 1));
        let event = JobEvent::Retried(Retried {
            id: id.to_string(),
            attempt: attempts,
            not_before_tick: not_before,
            detail: reason.detail,
        });
        self.writer.append(&event)?;
        self.replay(event);
        // Replay collapses backoff (tick domains die with the process);
        // live retries honor it.
        if let Some(job) = self.jobs.get_mut(id) {
            job.state = JobState::Backoff { until_tick: not_before };
        }
        elivagar_obs::metrics::SERVE_RETRIES.add(1);
        Ok(())
    }

    /// Checks the job-conservation invariant:
    /// `admitted == done + failed + dead_letter + shed + pending`, with
    /// each stats counter agreeing with the in-memory job states. Returns
    /// a description of the first violation, or `None`.
    pub fn verify_conservation(&self) -> Option<String> {
        let mut done = 0u64;
        let mut failed = 0u64;
        let mut dead = 0u64;
        let mut shed = 0u64;
        let mut pending = 0u64;
        for job in self.jobs.values() {
            match &job.state {
                JobState::Done { .. } => done += 1,
                JobState::Failed(_) => failed += 1,
                JobState::DeadLetter { .. } => dead += 1,
                JobState::Shed { .. } => shed += 1,
                JobState::Queued | JobState::Backoff { .. } => pending += 1,
            }
        }
        let s = &self.stats;
        if s.admitted != done + failed + dead + shed + pending {
            return Some(format!(
                "admitted ({}) != done ({done}) + failed ({failed}) + dead_letter ({dead}) \
                 + shed ({shed}) + pending ({pending})",
                s.admitted
            ));
        }
        for (label, counter, observed) in [
            ("done", s.done, done),
            ("failed", s.failed, failed),
            ("dead_letter", s.dead_letter, dead),
            ("shed", s.shed, shed),
            ("admitted", s.admitted, self.jobs.len() as u64),
        ] {
            if counter != observed {
                return Some(format!("stats.{label} ({counter}) != observed {label} ({observed})"));
            }
        }
        None
    }

    /// Loads and verifies a job's result artifact.
    ///
    /// # Errors
    ///
    /// On I/O failure, checksum mismatch, or malformed JSON.
    pub fn load_result(&self, id: &str) -> Result<JobResult, ServeError> {
        let path = self.result_path(id);
        let body = journal::read_checksummed(&path)?;
        serde_json::from_str(&body).map_err(|e| ServeError::Io {
            path: path.display().to_string(),
            message: format!("result failed to parse: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("elivagar-daemon-{pid}-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_job(id: &str, priority: u8) -> JobSpec {
        let mut spec = JobSpec::named(id);
        spec.priority = priority;
        spec.train_size = 12;
        spec.test_size = 4;
        spec
    }

    fn kept(daemon: &Daemon) -> Vec<&str> {
        daemon.inputs.keys().map(String::as_str).collect()
    }

    /// A job's search inputs are built at its first slice, kept while it
    /// runs, and dropped when it finishes; a reopened daemon holds none
    /// until a slice runs.
    #[test]
    fn search_inputs_live_from_first_slice_to_terminal_state() {
        let dir = scratch("inputs");
        let mut config = ServeConfig::new(&dir);
        config.slice_records = 2;
        let mut daemon = Daemon::open(config.clone()).unwrap();
        daemon.submit(small_job("job", 0)).unwrap();
        assert!(kept(&daemon).is_empty(), "admission builds nothing");
        daemon.tick().unwrap();
        daemon.tick().unwrap();
        assert!(daemon.has_pending(), "two 2-record slices do not finish the job");
        assert_eq!(kept(&daemon), ["job"]);
        drop(daemon);

        let mut daemon = Daemon::open(config).unwrap();
        assert!(kept(&daemon).is_empty(), "a reopened daemon starts empty");
        daemon.tick().unwrap();
        assert_eq!(kept(&daemon), ["job"], "the next slice rebuilds the entry");
        daemon.run_until_drained(100).unwrap();
        assert!(matches!(daemon.job("job").unwrap().state, JobState::Done { .. }));
        assert!(kept(&daemon).is_empty(), "a finished job keeps nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A queued job that already ran a slice drops its inputs when a
    /// higher-priority admission sheds it.
    #[test]
    fn a_shed_job_drops_its_search_inputs() {
        let dir = scratch("shed-inputs");
        let mut config = ServeConfig::new(&dir);
        config.queue_depth = 1;
        config.slice_records = 2;
        let mut daemon = Daemon::open(config).unwrap();
        daemon.submit(small_job("low", 0)).unwrap();
        daemon.tick().unwrap();
        assert_eq!(kept(&daemon), ["low"]);
        daemon.submit(small_job("high", 1)).unwrap();
        assert!(matches!(daemon.job("low").unwrap().state, JobState::Shed { .. }));
        assert!(kept(&daemon).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
