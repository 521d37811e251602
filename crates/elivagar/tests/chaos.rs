//! Chaos suite: deterministic fault injection against the full search
//! pipeline.
//!
//! Every registered faultpoint site is exercised here (see the table in
//! `elivagar_sim::faultpoint`): panics inside the CNR replica fan-out and
//! the RepCap fan-out, NaN poisoning of composite scores and training
//! minibatches, torn checkpoint writes, and a simulated process kill right
//! after a checkpoint save — followed by a resume that must land on a
//! bit-identical final ranking.
//!
//! The faultpoint registry is process-global, so every test holds
//! `faultpoint::exclusive()`, which also disarms on entry and exit.

use elivagar::checkpoint::CheckpointError;
use elivagar::config::{Nsga2Config, SearchConfig};
use elivagar::search::{run_search, RunOptions, SearchError, SearchResult, SearchStage};
use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_datasets::{moons, Dataset};
use elivagar_device::devices::ibm_lagos;
use elivagar_device::Device;
use elivagar_ml::{try_train, QuantumClassifier, TrainConfig, TrainError};
use elivagar_sim::faultpoint::{self, FaultKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn setup() -> (Device, Dataset, SearchConfig) {
    let device = ibm_lagos();
    let dataset = moons(60, 20, 3).normalized(std::f64::consts::PI);
    let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
    config.num_candidates = 6;
    (device, dataset, config)
}

/// Like [`setup`], but with early rejection disabled so every candidate
/// reaches RepCap — needed when a test targets a specific candidate index
/// at a post-rejection site.
fn setup_all_survive() -> (Device, Dataset, SearchConfig) {
    let (device, dataset, mut config) = setup();
    config.cnr_threshold = 0.0;
    config.cnr_keep_fraction = 1.0;
    (device, dataset, config)
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("elivagar-chaos-{}-{name}", std::process::id()));
    p
}

/// Drives the search into the checkpoint at `path` the way the serve
/// daemon slices it: `k - 1` two-record slices, each resumed from the
/// checkpoint the last one saved, then slice `k`, killed at its first save
/// (an injected panic at `search::checkpoint` key 1). Returns the length
/// of the journal the kill left on disk.
fn kill_in_slice(
    (device, dataset, config): (&Device, &Dataset, &SearchConfig),
    options: &RunOptions,
    path: &Path,
    k: u64,
) -> usize {
    let _ = std::fs::remove_file(path);
    let slice = || {
        let mut sliced = options.clone().with_checkpoint(path).with_slice_budget(2);
        if path.exists() {
            sliced = sliced.with_resume(path);
        }
        catch_unwind(AssertUnwindSafe(|| run_search(device, dataset, config, &sliced)))
    };
    for _ in 1..k {
        let stopped = slice().expect("an unarmed slice does not panic");
        assert!(matches!(stopped, Err(SearchError::Interrupted { .. })), "slice ran past its budget");
    }
    faultpoint::arm_on_key("search::checkpoint", FaultKind::Panic, 1);
    let payload = slice().expect_err("the kill faultpoint fires");
    let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("faultpoint 'search::checkpoint' fired"), "unexpected panic: {msg}");
    elivagar::checkpoint::load(path).expect("the kill leaves a whole journal").len()
}

/// Resumes the search from the checkpoint at `path` to completion.
fn resume(
    (device, dataset, config): (&Device, &Dataset, &SearchConfig),
    options: &RunOptions,
    path: &Path,
) -> SearchResult {
    let options = options.clone().with_checkpoint(path).with_resume(path);
    run_search(device, dataset, config, &options).expect("resumed run completes")
}

/// Panics injected into the CNR replica fan-out quarantine the affected
/// candidates; the search still completes and reports them.
#[test]
fn cnr_replica_panics_quarantine_candidates() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup();

    // Keys at this site are per-replica RNG seeds, so which candidates
    // fault depends on the arming seed. Scan for a seed that faults some
    // but not all candidates (rate 0.05 over 48 replica draws makes both
    // extremes rare), then pin the behavior with hard assertions.
    let mut exercised = false;
    for arming_seed in 0..20 {
        faultpoint::arm("cnr::replica", FaultKind::Panic, arming_seed, 0.05);
        let outcome = run_search(&device, &dataset, &config, &RunOptions::default());
        let Ok(result) = outcome else { continue };
        if result.quarantined.is_empty() {
            continue;
        }
        assert!(result
            .quarantined
            .iter()
            .all(|q| q.stage == SearchStage::Cnr));
        assert!(result.quarantined[0]
            .reason
            .contains("faultpoint 'cnr::replica' fired"));
        // Quarantined candidates carry no predictor values.
        let faulted = result.quarantined.len();
        let unscored = result.scored.iter().filter(|s| s.cnr.is_none()).count();
        assert_eq!(faulted, unscored);
        // The decision is a pure function of (site, key, plan): the same
        // arming must reproduce the identical result.
        faultpoint::arm("cnr::replica", FaultKind::Panic, arming_seed, 0.05);
        let again = run_search(&device, &dataset, &config, &RunOptions::default())
            .expect("same arming, same outcome");
        assert_eq!(again, result);
        exercised = true;
        break;
    }
    assert!(exercised, "no arming seed produced a partial quarantine");
}

/// A panic in one candidate's RepCap evaluation removes exactly that
/// candidate; the winner comes from the survivors.
#[test]
fn repcap_panic_quarantines_exactly_the_faulted_candidate() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup_all_survive();
    faultpoint::arm_on_key("repcap::eval", FaultKind::Panic, 2);

    let result =
        run_search(&device, &dataset, &config, &RunOptions::default()).expect("search survives");
    assert_eq!(faultpoint::fired("repcap::eval"), 1);
    assert_eq!(result.quarantined.len(), 1);
    let q = &result.quarantined[0];
    assert_eq!(q.index, 2);
    assert_eq!(q.stage, SearchStage::RepCap);
    assert!(q.reason.contains("faultpoint 'repcap::eval' fired (key 2)"));
    // The faulted candidate keeps its CNR but has no RepCap or score; the
    // other five are scored and one of them wins.
    let unscored: Vec<_> = result.scored.iter().filter(|s| s.score.is_none()).collect();
    assert_eq!(unscored.len(), 1);
    assert!(unscored[0].cnr.is_some());
    assert!(unscored[0].repcap.is_none());
    assert_eq!(result.scored.iter().filter(|s| s.score.is_some()).count(), 5);
}

/// Satellite regression: an injected NaN composite score is quarantined
/// and the ranking sort survives (the old comparator panicked on it).
#[test]
fn nan_score_is_quarantined_not_fatal() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup_all_survive();
    faultpoint::arm_on_key("search::score", FaultKind::Nan, 1);

    let result =
        run_search(&device, &dataset, &config, &RunOptions::default()).expect("sort survives NaN");
    assert_eq!(result.quarantined.len(), 1);
    let q = &result.quarantined[0];
    assert_eq!(q.index, 1);
    assert_eq!(q.stage, SearchStage::Score);
    assert!(q.reason.contains("non-finite composite score"));
    // Both predictors were healthy; only the composite was poisoned. The
    // candidate sorts last with `score: None`.
    let last = result.scored.last().expect("six candidates");
    assert!(last.cnr.is_some() && last.repcap.is_some());
    assert!(last.score.is_none());
    assert!(result.scored[0].score.is_some());
}

/// When every composite score is poisoned the search fails with a typed
/// error listing all quarantined candidates — never a panic.
#[test]
fn all_nan_scores_is_a_typed_error() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup_all_survive();
    faultpoint::arm("search::score", FaultKind::Nan, 0, 1.0);

    let err = run_search(&device, &dataset, &config, &RunOptions::default())
        .expect_err("no finite score remains");
    match err {
        SearchError::NoViableCandidates { quarantined } => {
            assert_eq!(quarantined.len(), 6);
            assert!(quarantined.iter().all(|q| q.stage == SearchStage::Score));
        }
        other => panic!("unexpected error: {other}"),
    }
}

fn tiny_model() -> (QuantumClassifier, Dataset) {
    let mut c = Circuit::new(2);
    c.push_gate(Gate::Rx, &[0], &[ParamExpr::feature(0)]);
    c.push_gate(Gate::Rx, &[1], &[ParamExpr::feature(1)]);
    c.push_gate(Gate::Ry, &[0], &[ParamExpr::trainable(0)]);
    c.push_gate(Gate::Cx, &[1, 0], &[]);
    c.set_measured(vec![0]);
    let data = moons(40, 10, 0).normalized(std::f64::consts::PI);
    (QuantumClassifier::new(c, 2), data)
}

/// A poisoned minibatch loss aborts the attempt before the optimizer
/// consumes it; the bounded retry re-initializes and recovers.
#[test]
fn poisoned_training_batch_recovers_via_retry() {
    let _g = faultpoint::exclusive();
    let (model, data) = tiny_model();
    let config = TrainConfig { epochs: 2, batch_size: 20, ..Default::default() };
    // Keys encode (attempt << 48) | batch counter: key 0 poisons only the
    // very first batch of attempt 0, so the retry runs clean.
    faultpoint::arm_on_key("train::batch", FaultKind::Nan, 0);

    let outcome = try_train(&model, data.train(), &config).expect("retry recovers");
    assert_eq!(faultpoint::fired("train::batch"), 1);
    assert!(outcome.loss_history.iter().all(|l| l.is_finite()));
}

/// When every batch of every attempt is poisoned, training fails with the
/// typed divergence error after exhausting its retries.
#[test]
fn unrecoverable_training_divergence_is_a_typed_error() {
    let _g = faultpoint::exclusive();
    let (model, data) = tiny_model();
    let config = TrainConfig { epochs: 2, batch_size: 20, ..Default::default() };
    faultpoint::arm("train::batch", FaultKind::Nan, 7, 1.0);

    let err = try_train(&model, data.train(), &config).expect_err("all attempts diverge");
    match err {
        TrainError::NonFinite { attempts, .. } => {
            assert_eq!(attempts, config.nan_retries + 1);
        }
        other => panic!("unexpected error: {other}"),
    }
}

/// A torn checkpoint write (truncation after the rename) is detected by
/// the CRC footer on the next resume — corrupt journals never load.
#[test]
fn torn_checkpoint_write_is_detected_on_resume() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup();
    let path = scratch("torn");
    faultpoint::arm("checkpoint::commit", FaultKind::TruncateFile, 0, 1.0);

    // The run itself completes: truncation models a crash *after* the
    // rename made the (torn) file visible.
    let options = RunOptions::new().with_checkpoint(path.clone());
    run_search(&device, &dataset, &config, &options).expect("run completes");
    assert!(faultpoint::fired("checkpoint::commit") > 0);

    faultpoint::disarm_all();
    let resume = RunOptions::new().with_resume(path.clone());
    let err = run_search(&device, &dataset, &config, &resume).expect_err("journal is torn");
    assert!(matches!(
        err,
        SearchError::Checkpoint(CheckpointError::Corrupt { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

/// The tentpole end-to-end: kill the search (injected panic right after a
/// checkpoint save) at several stage boundaries while *other* faults are
/// firing, resume each time, and require the final ranking to be
/// bit-identical to an uninterrupted run under the same faults.
#[test]
fn kill_and_resume_under_fire_is_bit_identical() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup_all_survive();
    let task = (&device, &dataset, &config);
    let path = scratch("kill-resume");

    // Ambient fault: candidate 2's RepCap evaluation always panics.
    let arm_ambient = || {
        faultpoint::disarm_all();
        faultpoint::arm_on_key("repcap::eval", FaultKind::Panic, 2);
    };

    arm_ambient();
    let baseline = run_search(&device, &dataset, &config, &RunOptions::default())
        .expect("uninterrupted faulted run");
    assert_eq!(baseline.quarantined.len(), 1);

    // 6 CNR records, then 6 RepCap records: a kill in slice k leaves 2k,
    // mid-CNR (2, 4), at the CNR -> RepCap boundary (6) and mid-RepCap (8).
    for k in 1..=4 {
        arm_ambient();
        let records = kill_in_slice(task, &RunOptions::new(), &path, k);
        assert_eq!(records as u64, 2 * k, "kill in slice {k}");

        // Restart: same ambient fault, kill disarmed, journal on disk.
        arm_ambient();
        let resumed = resume(task, &RunOptions::new(), &path);
        assert_eq!(resumed, baseline, "kill in slice {k}");
        for (a, b) in resumed.scored.iter().zip(baseline.scored.iter()) {
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "resume must be bit-identical (kill in slice {k})"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The evolutionary analogue of [`kill_and_resume_under_fire_is_bit_identical`]:
/// NSGA-II (population 6, 2 generations, 18 evaluations) with an ambient
/// RepCap panic quarantining one founder, killed right after checkpoint
/// saves that land mid-CNR, exactly on a generation boundary, and
/// mid-RepCap of a later generation. Every resume must reproduce the
/// uninterrupted run's ranking *and* Pareto front bit for bit.
#[test]
fn nsga2_kill_and_resume_under_fire_is_bit_identical() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup();
    let config = config.with_nsga2(Nsga2Config::default().with_population(6).with_generations(2));
    let task = (&device, &dataset, &config);
    let path = scratch("nsga2-kill-resume");

    // Ambient fault: founder candidate 2's RepCap evaluation always
    // panics (offspring carry global indices >= 6, so exactly one
    // evaluation faults across the whole evolution).
    let arm_ambient = || {
        faultpoint::disarm_all();
        faultpoint::arm_on_key("repcap::eval", FaultKind::Panic, 2);
    };

    arm_ambient();
    let baseline = run_search(&device, &dataset, &config, &RunOptions::default())
        .expect("uninterrupted faulted evolution");
    assert_eq!(baseline.quarantined.len(), 1);
    assert_eq!(baseline.quarantined[0].index, 2);
    let baseline_front = baseline.pareto.as_ref().expect("nsga2 surfaces a front");
    assert!(baseline_front.members.len() >= 2, "front must be non-degenerate");

    // Each round journals 6 CNR and 6 RepCap records, and rounds 0 and 1
    // a generation marker. Slice 7's first save commits round 0's marker
    // (13 records). A resumed slice replays the markers it already holds
    // without saving them, so its first save follows new records. Kills
    // in slices 2, 7, 11 and 16 leave 4 records (mid-CNR, round 0), 13
    // (the generation boundary), 22 (mid-RepCap, round 1) and 32 (the end
    // of round 2's CNR stage).
    for (k, kill_records) in [(2u64, 4usize), (7, 13), (11, 22), (16, 32)] {
        arm_ambient();
        let records = kill_in_slice(task, &RunOptions::new(), &path, k);
        assert_eq!(records, kill_records, "kill in slice {k}");

        arm_ambient();
        let resumed = resume(task, &RunOptions::new(), &path);
        assert_eq!(resumed, baseline, "kill in slice {k}");
        let front = resumed.pareto.as_ref().expect("front survives resume");
        assert_eq!(front.members.len(), baseline_front.members.len());
        for (a, b) in front.members.iter().zip(baseline_front.members.iter()) {
            assert_eq!(a.index, b.index, "front membership (kill in slice {k})");
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "front scores must be bit-identical (kill in slice {k})"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

fn counter(stats: &elivagar_obs::RunStats, name: &str) -> u64 {
    stats
        .counters
        .iter()
        .find(|&&(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// A torn result-cache write — truncation *after* the atomic rename, a
/// dishonest disk — never yields a wrong answer: the torn run and every
/// run over the torn directory reproduce the uncached result exactly,
/// counting the discards.
#[test]
fn torn_cache_writes_degrade_to_recompute() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup();
    let dir = scratch("cache-torn");
    let _ = std::fs::remove_dir_all(&dir);

    let baseline =
        run_search(&device, &dataset, &config, &RunOptions::default()).expect("baseline");

    // Every store commits and is then chopped in half on disk.
    faultpoint::arm("cache::store", FaultKind::TruncateFile, 0, 1.0);
    let cache = elivagar::Cache::open(&dir).expect("open cache");
    let torn = run_search(
        &device,
        &dataset,
        &config,
        &RunOptions::new().with_cache(cache),
    )
    .expect("torn run completes");
    assert!(faultpoint::fired("cache::store") > 0, "no store was torn");
    assert_eq!(torn, baseline, "torn stores changed the result");
    faultpoint::disarm_all();

    // A fresh handle sees only torn entries: all are discarded, the
    // result is still bit-identical, and the rewrite heals the directory.
    let fresh = elivagar::Cache::open(&dir).expect("reopen cache");
    let opts = RunOptions::new().with_cache(fresh);
    let recomputed = run_search(&device, &dataset, &config, &opts).expect("recompute");
    assert_eq!(recomputed, baseline);
    assert_eq!(counter(&recomputed.stats, "cache.hits"), 0);
    assert!(counter(&recomputed.stats, "cache.corrupt_discarded") > 0);

    let healed = run_search(
        &device,
        &dataset,
        &config,
        &RunOptions::new().with_cache(elivagar::Cache::open(&dir).expect("reopen")),
    )
    .expect("healed run");
    assert_eq!(healed, baseline);
    assert_eq!(counter(&healed.stats, "cache.misses"), 0, "torn cache did not heal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-and-resume with a *shared* result cache: the killed attempt
/// leaves the cache partially warm, and the resumed run — serving some
/// evaluations from the journal, some from the cache, some freshly
/// computed — must still match an uncached, uninterrupted baseline bit
/// for bit.
#[test]
fn kill_and_resume_with_shared_cache_is_bit_identical() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup();
    let task = (&device, &dataset, &config);
    let path = scratch("cache-kill-resume");
    let dir = scratch("cache-kill-dir");
    let _ = std::fs::remove_dir_all(&dir);

    let baseline =
        run_search(&device, &dataset, &config, &RunOptions::default()).expect("baseline");

    // One cache directory across every attempt: the second kill round
    // starts with a cold journal but a warm cache, crossing the
    // resume-from-journal and serve-from-cache paths at once. Kills in
    // slices 1 and 3 leave 2 CNR records and all 6.
    let cached = RunOptions::new().with_cache(elivagar::Cache::open(&dir).expect("open cache"));
    for (k, kill_records) in [(1u64, 2usize), (3, 6)] {
        let records = kill_in_slice(task, &cached, &path, k);
        assert_eq!(records, kill_records, "kill in slice {k}");

        faultpoint::disarm_all();
        let resumed = resume(task, &cached, &path);
        assert_eq!(resumed, baseline, "kill in slice {k}");
        for (a, b) in resumed.scored.iter().zip(baseline.scored.iter()) {
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "shared-cache resume must be bit-identical (kill in slice {k})"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic inside a fused cohort-training epoch (the serve layer's
/// deadline/fault window) quarantines the whole cohort at the Train stage
/// with a typed reason — the search itself, and its ranking, still
/// complete.
#[test]
fn cohort_training_panic_quarantines_the_cohort() {
    let _g = faultpoint::exclusive();
    let (device, dataset, config) = setup();
    let config = config.with_train(TrainConfig {
        epochs: 2,
        batch_size: 8,
        cohort: 2,
        ..TrainConfig::default()
    });
    // Keys at this site are epoch numbers: the very first fused epoch dies.
    faultpoint::arm_on_key("train::cohort_epoch", FaultKind::Panic, 0);

    let result = run_search(&device, &dataset, &config, &RunOptions::default())
        .expect("search completes; only the cohort is lost");
    assert_eq!(faultpoint::fired("train::cohort_epoch"), 1);
    faultpoint::disarm_all();

    assert!(result.trained.is_empty(), "no cohort member reports success");
    let train_q: Vec<_> = result
        .quarantined
        .iter()
        .filter(|q| q.stage == SearchStage::Train)
        .collect();
    assert_eq!(train_q.len(), 2, "both cohort members are quarantined");
    assert!(train_q.iter().all(|q| q.reason.contains("cohort training panicked")));

    // The ranking is decided before training: the fault must not bleed
    // into candidate selection.
    let clean = run_search(&device, &dataset, &config, &RunOptions::default())
        .expect("clean run");
    assert_eq!(result.best_index, clean.best_index);
}
