//! The `serve-burst` workload: one in-process `Daemon` drains bursts of
//! small jobs from three tenants with unequal job counts.
//!
//! Jobs come in cross-tenant pairs with the same (benchmark, device,
//! seed) and share one result cache, so about half of the CNR and RepCap
//! lookups hit. Slices are small, so every job checkpoints and resumes
//! several times. One client submits a whole burst, ticks the daemon until
//! it drains, and only then submits the next burst (a closed loop over
//! bursts). A request is one job, timed from its submit to `Done`.

use crate::common::{self, stream, sub_seed, Args, Measured, ScratchDir, Tally};
use crate::host;
use crate::spans::{Recorder, Span, REQUEST};
use crate::Bench;
use elivagar::{generate_candidate, SearchConfig, SearchStage};
use elivagar_datasets::load_sized;
use elivagar_device::{circuit_noise, device_by_name};
use elivagar_ml::{accuracy, init_params, noisy_accuracy, QuantumClassifier};
use elivagar_obs::metrics;
use elivagar_serve::{Daemon, JobResult, JobSpec, JobState, ServeConfig, TickOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fixed description of the workload.
pub struct ServeSpec {
    benchmarks: [&'static str; 3],
    device: &'static str,
    candidates: usize,
    train_epochs: usize,
    /// Test samples per job; only the client-side accuracy check reads them.
    test_size: usize,
    slice_records: usize,
    /// Pairs per burst; pair `p` goes to tenants `TENANTS[0]` and
    /// `TENANTS[1 + usize::from(p >= beta_pairs)]`.
    pairs: usize,
    beta_pairs: usize,
    /// Bursts per second of `--seconds` (see [`common::request_count`]).
    rate: f64,
    /// Trajectories per test sample for the winner's accuracy check.
    trajectories: usize,
}

pub const SERVE_BURST: ServeSpec = ServeSpec {
    benchmarks: ["fmnist-4", "vowel-4", "mnist-4"],
    device: "ibm-lagos",
    candidates: 16,
    train_epochs: 8,
    test_size: 40,
    slice_records: 6,
    pairs: 12,
    beta_pairs: 8,
    rate: 0.8,
    trajectories: 8,
};

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Seed and burst number of the fixed warm-up pair (outside every request
/// stream and every measured burst's job ids).
const WARMUP_SEED: u64 = 0x5EED_5E7E;
const WARMUP_BURST: usize = 1_000_000;

/// Cohort size the daemon trains per job. The daemon does not expose it:
/// this mirrors `cohort: 2` in `Daemon::search_inputs` (crates/serve) and is
/// the denominator of `cohort.pruned_ratio`. The traced pass checks it
/// against the daemon's epoch count.
const DAEMON_COHORT: usize = 2;

/// Deterministic tick cap per burst; reaching it is a failure, never a
/// timeout.
const MAX_TICKS_PER_JOB: usize = 64;

/// The daemon and its state directory for one pass. Field order matters:
/// the daemon (holding the journal open) drops before the directory is
/// removed.
struct Instance {
    daemon: Daemon,
    cache_dir: String,
    _dir: ScratchDir,
}

impl Instance {
    fn open(label: &str) -> Result<Instance, String> {
        let dir = ScratchDir::new(label).map_err(|e| format!("scratch directory: {e}"))?;
        let mut config = ServeConfig::new(dir.0.join("state"));
        config.queue_depth = 2 * SERVE_BURST.pairs + 2;
        config.slice_records = SERVE_BURST.slice_records;
        let daemon = Daemon::open(config).map_err(|e| format!("Daemon::open: {e}"))?;
        // The daemon opens its handle on this cache for the first job that
        // names it, which in set-up is the warm-up pair.
        let cache_dir = dir.0.join("cache").display().to_string();
        Ok(Instance {
            daemon,
            cache_dir,
            _dir: dir,
        })
    }
}

/// One job of a burst and the index of its pair partner.
struct Planned {
    spec: JobSpec,
    partner: usize,
}

fn plan_burst(
    seed: u64,
    burst: usize,
    pairs: usize,
    cache_dir: &str,
    candidates: usize,
) -> Vec<Planned> {
    let s = &SERVE_BURST;
    let mut jobs = Vec::with_capacity(2 * pairs);
    for p in 0..pairs {
        let job_seed = sub_seed(seed, stream::REQUEST, (burst * s.pairs + p) as u64);
        let second = TENANTS[1 + usize::from(p >= s.beta_pairs)];
        for tenant in [TENANTS[0], second] {
            let mut spec = JobSpec::named(format!("b{burst}-p{p}-{tenant}"));
            spec.tenant = tenant.to_string();
            spec.benchmark = s.benchmarks[p % s.benchmarks.len()].to_string();
            spec.device = s.device.to_string();
            spec.candidates = candidates;
            spec.seed = job_seed;
            spec.train_epochs = Some(s.train_epochs);
            spec.test_size = s.test_size;
            spec.cache_dir = Some(cache_dir.to_string());
            let partner = jobs.len() ^ 1;
            jobs.push(Planned { spec, partner });
        }
    }
    jobs
}

/// A finished job as the client saw it.
struct Finished {
    latency_s: f64,
    /// Summed durations of the ticks that ran this job's slices.
    own_ticks_s: f64,
    done: bool,
}

/// Submits every job of a burst, then ticks until the daemon drains.
/// `on_tick` sees each tick's bounds and the job it ran.
fn drain_burst(
    daemon: &mut Daemon,
    jobs: &[Planned],
    mut on_submit: impl FnMut(usize, Instant, Instant),
    mut on_tick: impl FnMut(Option<usize>, Instant, Instant),
) -> Result<Vec<Finished>, String> {
    let index: BTreeMap<&str, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.spec.id.as_str(), i))
        .collect();
    let mut submitted = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let at = Instant::now();
        daemon
            .submit(job.spec.clone())
            .map_err(|e| format!("submit {}: {e}", job.spec.id))?;
        on_submit(i, at, Instant::now());
        submitted.push(at);
    }
    let mut finished: Vec<Option<Finished>> = jobs.iter().map(|_| None).collect();
    let mut own_ticks = vec![0.0; jobs.len()];
    let mut ticks = 0;
    while daemon.has_pending() {
        ticks += 1;
        if ticks > MAX_TICKS_PER_JOB * jobs.len() {
            return Err(format!("burst not drained after {} ticks", ticks - 1));
        }
        let start = Instant::now();
        let outcome = daemon.tick().map_err(|e| format!("tick: {e}"))?;
        let end = Instant::now();
        let ran = match &outcome {
            TickOutcome::Ran { id } => index.get(id.as_str()).copied(),
            TickOutcome::Idle => None,
        };
        on_tick(ran, start, end);
        if let Some(i) = ran {
            own_ticks[i] += (end - start).as_secs_f64();
            let state = &daemon.job(&jobs[i].spec.id).expect("admitted job").state;
            if state.is_terminal() {
                finished[i] = Some(Finished {
                    latency_s: (end - submitted[i]).as_secs_f64(),
                    own_ticks_s: own_ticks[i],
                    done: matches!(state, JobState::Done { .. }),
                });
            }
        }
    }
    finished
        .into_iter()
        .enumerate()
        .map(|(i, f)| f.ok_or_else(|| format!("job {} never finished", jobs[i].spec.id)))
        .collect()
}

/// The ranking part of a job result (everything but the id).
fn ranking(r: &JobResult) -> (usize, u64, &[(usize, u64)]) {
    (r.best_index, r.records, &r.ranking)
}

/// Output checks and quality numbers of one drained burst.
struct BurstReport {
    problems: Vec<Vec<String>>,
    results: Vec<Option<JobResult>>,
    executions: u64,
    cnr_executions: u64,
    repcap_executions: u64,
}

fn check_burst(daemon: &Daemon, jobs: &[Planned], finished: &[Finished]) -> BurstReport {
    let mut problems: Vec<Vec<String>> = jobs.iter().map(|_| Vec::new()).collect();
    let mut results = Vec::with_capacity(jobs.len());
    let (mut cnr_executions, mut repcap_executions) = (0, 0);
    for (i, job) in jobs.iter().enumerate() {
        if !finished[i].done {
            problems[i].push(format!(
                "ended as {:?}",
                daemon.job(&job.spec.id).map(|j| &j.state)
            ));
        }
        match daemon.load_result(&job.spec.id) {
            Ok(r) => results.push(Some(r)),
            Err(e) => {
                problems[i].push(format!("result: {e}"));
                results.push(None);
            }
        }
        match elivagar::checkpoint::load(&daemon.checkpoint_path(&job.spec.id)) {
            Ok(journal) => {
                for r in &journal.records {
                    match r.stage {
                        SearchStage::Cnr => cnr_executions += r.executions,
                        SearchStage::RepCap => repcap_executions += r.executions,
                        _ => {}
                    }
                }
            }
            Err(e) => problems[i].push(format!("journal: {e}")),
        }
    }
    for (i, job) in jobs.iter().enumerate() {
        if let (Some(a), Some(b)) = (&results[i], &results[job.partner]) {
            if ranking(a) != ranking(b) {
                problems[i].push(format!(
                    "ranking differs from its pair {}",
                    jobs[job.partner].spec.id
                ));
            }
        }
    }
    if let Some(violation) = daemon.verify_conservation() {
        problems[0].push(format!("daemon conservation: {violation}"));
    }
    BurstReport {
        problems,
        results,
        executions: cnr_executions + repcap_executions,
        cnr_executions,
        repcap_executions,
    }
}

/// The winner's composite score (the top of the ranking).
fn winner_score(r: &JobResult) -> Option<f64> {
    r.ranking
        .iter()
        .map(|&(_, bits)| f64::from_bits(bits))
        .filter(|v| v.is_finite())
        .reduce(f64::max)
}

/// Noiseless and device-noise test accuracy of a job's winner at seeded
/// initial parameters: the daemon does not export trained parameters, so
/// this checks the selected circuit, not its training. The winner is
/// regenerated from the job's seed, exactly as the search generated it.
fn winner_accuracy(spec: &JobSpec, best_index: usize) -> Result<(f64, f64), String> {
    let b = elivagar_datasets::spec(&spec.benchmark).ok_or("unknown benchmark")?;
    let device = device_by_name(&spec.device).ok_or("unknown device")?;
    let data = load_sized(
        &spec.benchmark,
        spec.seed,
        spec.train_size.min(b.train),
        spec.test_size.min(b.test),
    );
    let config = SearchConfig::for_task(b.qubits, b.params, b.feature_dim, b.classes)
        .fast()
        .with_candidates(spec.candidates)
        .with_seed(spec.seed);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let winner = (0..=best_index)
        .map(|_| generate_candidate(&device, &config, &mut rng))
        .last()
        .ok_or("empty pool")?;
    let model =
        QuantumClassifier::try_new(winner.circuit.clone(), b.classes).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(sub_seed(spec.seed, stream::EVAL, 1));
    let params = init_params(model.num_params(), &mut rng);
    let clean = accuracy(&model, &params, data.test());
    let noise =
        circuit_noise(&device, &winner.physical_circuit(&device)).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(sub_seed(spec.seed, stream::EVAL, 0));
    let noisy = noisy_accuracy(
        &model,
        &params,
        data.test(),
        &noise,
        SERVE_BURST.trajectories,
        &mut rng,
    );
    Ok((clean, noisy))
}

pub struct ServeBench {
    seed: u64,
    bursts: usize,
    instance: Instance,
    /// Rankings of the measured pass, which the traced pass must match.
    rankings: Vec<Option<JobResult>>,
}

impl ServeBench {
    fn plan(&self, burst: usize, cache_dir: &str) -> Vec<Planned> {
        plan_burst(
            self.seed,
            burst,
            SERVE_BURST.pairs,
            cache_dir,
            SERVE_BURST.candidates,
        )
    }
}

impl Bench for ServeBench {
    type Spec = ServeSpec;

    fn setup(_spec: &'static ServeSpec, args: &Args) -> Result<ServeBench, String> {
        let mut instance = Instance::open("serve")?;
        // The fixed, reduced warm-up: one cross-tenant pair of small jobs,
        // which touches scheduling, checkpoints, resume, the cache (the
        // second job hits), the predictors, and cohort training.
        let warm = plan_burst(WARMUP_SEED, WARMUP_BURST, 1, &instance.cache_dir, 8);
        let finished = drain_burst(&mut instance.daemon, &warm, |_, _, _| {}, |_, _, _| {})?;
        let report = check_burst(&instance.daemon, &warm, &finished);
        if let Some(p) = report.problems.iter().find(|p| !p.is_empty()) {
            return Err(format!("warm-up burst failed: {}", p.join("; ")));
        }
        let bursts = common::request_count(SERVE_BURST.rate, args.seconds, 1);
        Ok(ServeBench {
            seed: args.seed,
            bursts,
            instance,
            rankings: Vec::new(),
        })
    }

    fn measure(&mut self, between: &mut dyn FnMut()) -> Measured {
        let mut m = Measured::default();
        self.rankings.clear();
        let before = metrics::snapshot();
        let mut plans = Vec::with_capacity(self.bursts);
        let mut ref_before = host::reference_s();
        m.host_ref_s.push(ref_before);
        for burst in 0..self.bursts {
            between();
            let jobs = self.plan(burst, &self.instance.cache_dir);
            let t = Instant::now();
            let finished =
                drain_burst(&mut self.instance.daemon, &jobs, |_, _, _| {}, |_, _, _| {});
            let wall = t.elapsed().as_secs_f64();
            let after = host::reference_s();
            m.host_ref_s.push(after);
            let around = (ref_before, after);
            let adjust = |seconds| host::at_reference_speed(seconds, around.0, around.1);
            ref_before = after;
            m.wall_s += wall;
            m.adjusted_wall_s += adjust(wall);
            match finished {
                Ok(finished) => {
                    m.latencies_s.extend(finished.iter().map(|f| f.latency_s));
                    m.adjusted_s
                        .extend(finished.iter().map(|f| adjust(f.latency_s)));
                    plans.push((jobs, finished))
                }
                Err(e) => {
                    m.tally.attempted += jobs.len() as u64;
                    m.tally.failed += jobs.len() as u64;
                    eprintln!("perfbench: burst {burst}: {e}");
                    self.rankings.extend(jobs.iter().map(|_| None));
                }
            }
        }
        // Untimed output checks.
        let delta = metrics::snapshot().since(&before);
        let (lookups, hits, misses) = (
            delta.counter("cache.lookups"),
            delta.counter("cache.hits"),
            delta.counter("cache.misses"),
        );
        for (b, (jobs, finished)) in plans.iter().enumerate() {
            let mut report = check_burst(&self.instance.daemon, jobs, finished);
            if b == 0 && lookups != hits + misses {
                report.problems[0].push(format!(
                    "cache lookups {lookups} != hits {hits} + misses {misses}"
                ));
            }
            m.executions += report.executions;
            for (i, job) in jobs.iter().enumerate() {
                let mut problems = std::mem::take(&mut report.problems[i]);
                if let Some(r) = &report.results[i] {
                    match (winner_score(r), winner_accuracy(&job.spec, r.best_index)) {
                        (Some(score), Ok((clean, noisy))) => {
                            m.winner_scores.push(score);
                            m.test_accuracy.push(clean);
                            m.noisy_accuracy.push(noisy);
                        }
                        (score, acc) => {
                            problems.push(format!("winner score {score:?}, accuracy {acc:?}"))
                        }
                    }
                }
                m.tally.record(&job.spec.id, &problems);
            }
            self.rankings.extend(report.results);
        }
        m
    }

    fn traced(&mut self, rec: &Recorder) -> (Tally, BTreeMap<&'static str, f64>, Vec<Span>) {
        let mut tally = Tally::default();
        let mut traced = match Instance::open("serve-traced") {
            Ok(i) => i,
            Err(e) => {
                eprintln!("perfbench: traced pass: {e}");
                tally.attempted = 1;
                tally.failed = 1;
                return (tally, BTreeMap::new(), Vec::new());
            }
        };
        let before = metrics::snapshot();
        let (mut ticks, mut cnr_executions, mut repcap_executions, mut members) =
            (0u64, 0u64, 0u64, 0u64);
        let mut waits = Vec::new();
        let mut ranking_index = 0;
        for burst in 0..self.bursts {
            let jobs = self.plan(burst, &traced.cache_dir);
            let base = (burst * jobs.len()) as u64;
            let daemon = &mut traced.daemon;
            let finished = rec.time(REQUEST, "burst", 0, burst as u64, |root| {
                drain_burst(
                    daemon,
                    &jobs,
                    |i, start, end| {
                        let (start_ns, end_ns) = (rec.ns_at(start), rec.ns_at(end));
                        let id = rec.reserve_id();
                        let request = base + i as u64;
                        rec.push(Span {
                            id,
                            parent: root,
                            request,
                            layer: "daemon",
                            name: "submit",
                            start_ns,
                            end_ns,
                        });
                    },
                    |ran, start, end| {
                        ticks += 1;
                        let (start_ns, end_ns) = (rec.ns_at(start), rec.ns_at(end));
                        let id = rec.reserve_id();
                        let request = ran.map_or(u64::MAX, |i| base + i as u64);
                        rec.push(Span {
                            id,
                            parent: root,
                            request,
                            layer: "daemon",
                            name: "tick",
                            start_ns,
                            end_ns,
                        });
                    },
                )
            });
            let finished = match finished {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("perfbench: traced burst {burst}: {e}");
                    tally.attempted += jobs.len() as u64;
                    tally.failed += jobs.len() as u64;
                    ranking_index += jobs.len();
                    continue;
                }
            };
            let report = check_burst(daemon, &jobs, &finished);
            cnr_executions += report.cnr_executions;
            repcap_executions += report.repcap_executions;
            for (i, job) in jobs.iter().enumerate() {
                let mut problems = report.problems[i].clone();
                waits.push(finished[i].latency_s - finished[i].own_ticks_s);
                if let Some(r) = &report.results[i] {
                    members += r.ranking.len().min(DAEMON_COHORT) as u64;
                    let measured = self.rankings.get(ranking_index).and_then(Option::as_ref);
                    if measured.is_some_and(|m| ranking(m) != ranking(r)) {
                        problems.push("traced ranking differs from the measured pass".into());
                    }
                }
                ranking_index += 1;
                tally.record(&format!("traced {}", job.spec.id), &problems);
            }
        }
        let delta = metrics::snapshot().since(&before);
        // A `DAEMON_COHORT` that no longer matches the daemon shows up as an
        // epoch count that `members` cohort members cannot have trained.
        let (epochs, pruned) = (delta.counter("train.epochs"), delta.counter("train.pruned"));
        let full = SERVE_BURST.train_epochs as u64;
        if epochs > members * full || epochs < members.saturating_sub(pruned) * full {
            tally.record(
                "traced cohort size",
                &[format!(
                    "{epochs} training epochs do not fit {members} members of {full} epochs"
                )],
            );
        }
        let (generate_calls, generate_s) = common::histogram(&delta, "generate");
        let (_, checkpoint_s) = common::histogram(&delta, "checkpoint_save");
        let (cnr_calls, _) = common::histogram(&delta, "cnr_eval");
        let (repcap_calls, _) = common::histogram(&delta, "repcap_eval");
        let spans = rec.take();
        let sum = |name: &str| {
            spans
                .iter()
                .filter(|s| s.layer == "daemon" && s.name == name)
                .map(|s| s.duration_ns() as f64 * 1e-9)
                .sum::<f64>()
        };
        let (accepted, rejected) = (
            delta.counter("search.cnr_accepted"),
            delta.counter("search.cnr_rejected"),
        );
        let layers = BTreeMap::from([
            // Generation and checkpoint saves run on the tick thread, so
            // their histogram sums are wall time inside the ticks.
            ("generate.calls", generate_calls as f64),
            ("generate.busy_s", generate_s),
            ("cnr.calls", cnr_calls as f64),
            ("cnr.executions", cnr_executions as f64),
            (
                "reject.kept_ratio",
                common::ratio(accepted, accepted + rejected),
            ),
            ("repcap.calls", repcap_calls as f64),
            ("repcap.executions", repcap_executions as f64),
            ("cohort.member_epochs", epochs as f64),
            ("cohort.pruned_ratio", common::ratio(pruned, members)),
            ("daemon.ticks", ticks as f64),
            ("daemon.slices", delta.counter("serve.slices") as f64),
            ("daemon.submit_s", sum("submit")),
            ("daemon.tick_s", sum("tick") - generate_s - checkpoint_s),
            ("daemon.wait_s_p50", common::median(&waits)),
        ]);
        (tally, layers, spans)
    }

    fn state_qubits(&self) -> usize {
        4
    }
}
