//! Cross-thread-count determinism suite.
//!
//! Every predictor and training path must produce **bit-for-bit** the same
//! f64s at any `ELIVAGAR_THREADS` setting — Elivagar ranks candidates by
//! comparing these numbers, so even 1-ulp thread-count drift would change
//! search results. The constants below are `f64::to_bits` goldens captured
//! once; `scripts/verify.sh` reruns this suite with `ELIVAGAR_THREADS=1`,
//! `=2` and `=4` (the env is read once at pool startup, so each thread
//! count is a separate process) and any scheduling-dependent reduction
//! would break at least one of the hardcoded bit patterns.
//!
//! The gradient and RepCap goldens predate the work-stealing runtime and
//! pin those paths to the original sequential implementation exactly. The
//! CNR, trajectory, and search goldens were captured after the per-task
//! RNG-stream split (their draw order changed, intentionally) and pin the
//! new streams. The training goldens were captured while `try_train` was
//! still a loop of its own, before it became a one-member cohort, and pin
//! the cohort loop to that loop's results. The parameter-shift gradient
//! golden was captured while `batch_gradient` still had a dispatch of its
//! own, before it became a one-member cohort dispatch. The noisy-accuracy
//! golden was captured while `noisy_accuracy` still ran its samples one
//! after another, before they fanned out across the pool.

use elivagar::config::{Nsga2Config, SearchConfig};
use elivagar::generate::generate_candidate;
use elivagar::{cnr, repcap, search};
use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_datasets::moons;
use elivagar_device::devices::ibm_lagos;
use elivagar_ml::{
    batch_gradient, noisy_accuracy, train_cohort, try_train, CohortOutcome, GradientMethod,
    QuantumClassifier, TrainConfig,
};
use elivagar_sim::oracle::noisy_clifford_distribution_tableau;
use elivagar_sim::{noisy_clifford_distribution, noisy_distribution, CircuitNoise};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mixed single/two-qubit circuit with feature, trainable, and constant
/// parameter slots — exercises fusion, the dynamic per-sample path, and
/// the adjoint sweep.
fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    for q in 0..4 {
        c.push_gate(Gate::Rx, &[q], &[ParamExpr::feature(q % 2)]);
        c.push_gate(Gate::Ry, &[q], &[ParamExpr::trainable(q)]);
    }
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.push_gate(Gate::Crz, &[1, 2], &[ParamExpr::trainable(4)]);
    c.push_gate(Gate::Cx, &[2, 3], &[]);
    c.push_gate(Gate::Ry, &[3], &[ParamExpr::trainable(5)]);
    c.set_measured(vec![0, 1, 2, 3]);
    c
}

fn golden_params() -> Vec<f64> {
    (0..6).map(|i| 0.3 * i as f64 - 0.7).collect()
}

fn golden_batch() -> (Vec<Vec<f64>>, Vec<usize>) {
    let features = (0..8)
        .map(|i| vec![0.25 * i as f64, 0.1 * i as f64 - 0.4])
        .collect();
    let labels = (0..8).map(|i| i % 2).collect();
    (features, labels)
}

fn assert_bits(actual: f64, golden: u64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        golden,
        "{what}: actual {:#018x} ({actual}) != golden {golden:#018x}",
        actual.to_bits()
    );
}

/// Golden for the streamed-adjoint batch gradient (re-pinned when the
/// fused-block engine replaced the per-instruction adjoint sweep; the
/// shift is ULP-level, from fused unitaries and the vectorized one-pass
/// bilinear gradient terms). Must hold at every thread count.
#[test]
fn adjoint_batch_gradient_bits_are_thread_count_invariant() {
    const LOSS_BITS: u64 = 0x3fe7e890d7f4e957;
    const GRAD_BITS: [u64; 6] = [
        0x3fb0e3ec9e6ece8e,
        0x3f901a42aaf73486,
        0x3f825e33d9d86086,
        0xbfb0d32fc1864376,
        0xbd7655c100000000,
        0xbfa8cd4a4aa5cf91,
    ];
    let model = QuantumClassifier::new(golden_circuit(), 2);
    let (features, labels) = golden_batch();
    let g = batch_gradient(
        &model,
        &golden_params(),
        &features,
        &labels,
        GradientMethod::Adjoint,
    );
    assert_bits(g.loss, LOSS_BITS, "loss");
    assert_eq!(g.gradient.len(), 6);
    for (i, (&gi, &bits)) in g.gradient.iter().zip(&GRAD_BITS).enumerate() {
        assert_bits(gi, bits, &format!("gradient[{i}]"));
    }
}

/// Golden for the parameter-shift batch gradient, recorded while
/// `batch_gradient` still ran its own per-sample loop, before it became a
/// one-member cohort dispatch. Must hold at every thread count.
#[test]
fn parameter_shift_batch_gradient_bits_are_thread_count_invariant() {
    const LOSS_BITS: u64 = 0x3fe7e890d7f4e957;
    const GRAD_BITS: [u64; 6] = [
        0x3fb0e3ec9e69864d,
        0x3f901a42ab0a3081,
        0x3f825e33d9f7f9fe,
        0xbfb0d32fc1866260,
        0xbc54200000000000,
        0xbfa8cd4a4a97e78d,
    ];
    // Per sample: 1 forward + 2 shifts for each of the five plain
    // rotations + 4 for the CRZ = 15; 8 samples.
    const EXECUTIONS: u64 = 120;
    let model = QuantumClassifier::new(golden_circuit(), 2);
    let (features, labels) = golden_batch();
    let g = batch_gradient(
        &model,
        &golden_params(),
        &features,
        &labels,
        GradientMethod::ParameterShift,
    );
    assert_bits(g.loss, LOSS_BITS, "loss");
    assert_all_bits(&g.gradient, &GRAD_BITS, "gradient");
    assert_eq!(g.executions, EXECUTIONS, "executions");
}

/// The golden training task: the golden circuit as a binary classifier,
/// trained on the golden search task's moons split (60 samples, so a
/// batch size of 16 leaves a ragged last minibatch).
fn golden_training_data() -> elivagar_datasets::Dataset {
    moons(60, 20, 3).normalized(std::f64::consts::PI)
}

fn golden_train_config(method: GradientMethod) -> TrainConfig {
    TrainConfig { epochs: 3, batch_size: 16, method, seed: 5, ..Default::default() }
}

fn assert_all_bits(actual: &[f64], golden: &[u64], what: &str) {
    assert_eq!(actual.len(), golden.len(), "{what}: length");
    for (i, (&a, &bits)) in actual.iter().zip(golden).enumerate() {
        assert_bits(a, bits, &format!("{what}[{i}]"));
    }
}

/// Training golden: `try_train` on the golden task, by both gradient
/// paths. The loss history, the trained parameters and the execution
/// count must land on these values at every thread count.
#[test]
fn try_train_bits_are_thread_count_invariant() {
    let cases: [(GradientMethod, u64, [u64; 3], [u64; 6]); 2] = [
        (
            GradientMethod::Adjoint,
            180,
            [0x3fe0c72eb82b8187, 0x3fe075b06a196f76, 0x3fe063da96f502c2],
            [
                0xbff38aff0e8704b6,
                0x3fe189c360a11c83,
                0x3feaaf3bc0832d62,
                0x3ffe722ca9ce228d,
                0x3fbae0d417e50567,
                0x3ffac96a096645db,
            ],
        ),
        (
            GradientMethod::ParameterShift,
            2_700,
            [0x3fe0c72eb82b8344, 0x3fe075b06a1975a3, 0x3fe063da96f50a1b],
            [
                0xbff38aff0e870ffc,
                0x3fe189c360aa5e88,
                0x3feaaf3bc08381f1,
                0x3ffe722ca9cdef67,
                0x3fbae25e7d11648a,
                0x3ffac96a0966596e,
            ],
        ),
    ];
    let model = QuantumClassifier::new(golden_circuit(), 2);
    let data = golden_training_data();
    for (method, executions, loss_bits, param_bits) in cases {
        let outcome =
            try_train(&model, data.train(), &golden_train_config(method)).expect("healthy run");
        assert_eq!(outcome.executions, executions, "{method:?} executions");
        assert_all_bits(&outcome.loss_history, &loss_bits, &format!("{method:?} loss"));
        assert_all_bits(&outcome.params, &param_bits, &format!("{method:?} params"));
    }
}

/// Four cohort members: the golden circuit with one extra trainable
/// rotation on a different qubit each.
fn golden_cohort() -> Vec<QuantumClassifier> {
    (0..4)
        .map(|q| {
            let mut c = golden_circuit();
            c.push_gate(Gate::Rx, &[q], &[ParamExpr::trainable(6)]);
            QuantumClassifier::new(c, 2)
        })
        .collect()
}

/// Training golden: a 4-member cohort with 2 successive-halving rungs
/// (after epochs 2 and 4 of 8). The prune schedule and the survivor's
/// loss history and parameters must land on these values at every
/// thread count.
#[test]
fn halving_cohort_bits_are_thread_count_invariant() {
    const PRUNED_AT: [Option<usize>; 4] = [Some(4), Some(2), None, Some(2)];
    const SURVIVOR_LOSS_BITS: [u64; 8] = [
        0x3fe093f0aa29ec03,
        0x3fe0737630515567,
        0x3fdfcb09266ed037,
        0x3fdf99368ce42fef,
        0x3fdf6870ba8cf8b2,
        0x3fdeda1fd2e6fb1a,
        0x3fde44740d913ada,
        0x3fde136297a8d82e,
    ];
    const SURVIVOR_PARAM_BITS: [u64; 7] = [
        0xbff0a8eb5e5598f5,
        0x3fdd67ad345e98c7,
        0x3fe4f6e4eacd7bd8,
        0x3ffba888a122f19a,
        0x3fb1f01007153795,
        0x3ff917ef64c65926,
        0x3fd543e5903aa1ab,
    ];
    let config = TrainConfig {
        epochs: 8,
        halving_rungs: 2,
        cohort: 4,
        ..golden_train_config(GradientMethod::Adjoint)
    };
    let results = train_cohort(&golden_cohort(), golden_training_data().train(), &config);
    let outcomes: Vec<&CohortOutcome> =
        results.iter().map(|r| r.as_ref().expect("healthy run")).collect();
    let pruned: Vec<Option<usize>> = outcomes.iter().map(|o| o.pruned_at_epoch).collect();
    assert_eq!(pruned, PRUNED_AT, "prune epochs");
    let survivor = outcomes
        .iter()
        .find(|o| o.pruned_at_epoch.is_none())
        .expect("one member survives");
    assert_all_bits(&survivor.outcome.loss_history, &SURVIVOR_LOSS_BITS, "survivor loss");
    assert_all_bits(&survivor.outcome.params, &SURVIVOR_PARAM_BITS, "survivor params");
}

/// Pre-runtime golden: batched RepCap must reproduce the original
/// sequential per-sample loop bit-for-bit.
#[test]
fn repcap_bits_are_thread_count_invariant() {
    const REPCAP_BITS: u64 = 0x3fe541cc092a2ad1;
    let mut cfg = SearchConfig::for_task(4, 6, 2, 2).fast();
    cfg.repcap_param_inits = 4;
    cfg.repcap_bases = 3;
    let (features, labels) = golden_batch();
    let mut rng = StdRng::seed_from_u64(77);
    let r = repcap::repcap(&golden_circuit(), &features, &labels, &cfg, &mut rng);
    assert_bits(r.repcap, REPCAP_BITS, "repcap");
}

/// Post-runtime golden: exact CNR with replica fan-out and per-replica RNG
/// streams split off the caller's generator.
#[test]
fn cnr_bits_are_thread_count_invariant() {
    const CNR_BITS: u64 = 0x3fefa82685dbe586;
    let device = ibm_lagos();
    let cfg = SearchConfig::for_task(4, 12, 4, 2).fast();
    let mut rng = StdRng::seed_from_u64(11);
    let cand = generate_candidate(&device, &cfg, &mut rng);
    let r = cnr::cnr(&cand, &device, &cfg, &mut rng).unwrap();
    assert_bits(r.cnr, CNR_BITS, "cnr");
}

/// Post-runtime golden: state-vector Monte-Carlo trajectories with
/// fixed-chunk parallel shots.
#[test]
fn trajectory_distribution_bits_are_thread_count_invariant() {
    const DIST_BITS: [u64; 4] = [
        0x3fdb1055b8993922,
        0x3fb3bea91d9b1b7b,
        0x3fb3bea91d9b1b7b,
        0x3fdb1055b8993922,
    ];
    let mut c = Circuit::new(2);
    c.push_gate(Gate::H, &[0], &[]);
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.set_measured(vec![0, 1]);
    let noise = CircuitNoise::uniform(&[1, 2], 2, 0.05, 0.10, 0.01);
    let mut rng = StdRng::seed_from_u64(13);
    // 100 trajectories spans three SHOT_CHUNKs plus a ragged tail.
    let dist = noisy_distribution(&c, &[], &[], &noise, 100, &mut rng);
    assert_eq!(dist.len(), 4);
    for (i, (&d, &bits)) in dist.iter().zip(&DIST_BITS).enumerate() {
        assert_bits(d, bits, &format!("dist[{i}]"));
    }
}

/// Noisy-inference golden, recorded while `noisy_accuracy` still
/// evaluated its samples one after another: the golden classifier on the
/// golden task's 20 test samples, 40 trajectories each (a full
/// SHOT_CHUNK plus a ragged tail). The accuracy and the caller's
/// generator afterwards (one draw per sample, in sample order) must land
/// on these values at every thread count.
#[test]
fn noisy_accuracy_bits_are_thread_count_invariant() {
    const ACCURACY_BITS: u64 = 0x3fe8000000000000;
    const NEXT_DRAW: u64 = 3_334_026_118_402_929_590;
    let circuit = golden_circuit();
    let arities: Vec<usize> = circuit.instructions().iter().map(|i| i.qubits.len()).collect();
    let noise = CircuitNoise::uniform(&arities, 4, 0.02, 0.08, 0.03);
    let model = QuantumClassifier::new(circuit, 2);
    let data = golden_training_data();
    let mut rng = StdRng::seed_from_u64(29);
    let acc = noisy_accuracy(&model, &golden_params(), data.test(), &noise, 40, &mut rng);
    assert_bits(acc, ACCURACY_BITS, "noisy accuracy");
    assert_eq!(rng.next_u64(), NEXT_DRAW, "generator after the call");
}

/// Post-runtime golden: stabilizer Monte-Carlo trajectories.
#[test]
fn clifford_trajectory_bits_are_thread_count_invariant() {
    const DIST_BITS: [u64; 4] = [
        0x3fdce864020817fd,
        0x3fa8bcdfefbf401d,
        0x3fa8bcdfefbf401d,
        0x3fdce864020817fd,
    ];
    let mut c = Circuit::new(2);
    c.push_gate(Gate::H, &[0], &[]);
    c.push_gate(Gate::Cx, &[0, 1], &[]);
    c.set_measured(vec![0, 1]);
    let noise = CircuitNoise::uniform(&[1, 2], 2, 0.02, 0.05, 0.01);
    let mut rng = StdRng::seed_from_u64(17);
    let dist = noisy_clifford_distribution(&c, &[], &[], &noise, 100, &mut rng).unwrap();
    assert_eq!(dist.len(), 4);
    for (i, (&d, &bits)) in dist.iter().zip(&DIST_BITS).enumerate() {
        assert_bits(d, bits, &format!("dist[{i}]"));
    }
}

/// Post-runtime golden: the bit-parallel Pauli-frame engine on a workload
/// spanning multiple 64-lane blocks plus a ragged tail. The same call with
/// the same seed must land on these bits at every `ELIVAGAR_THREADS`
/// setting (frame blocks are reduced in block order), and the per-shot
/// tableau reference must produce the identical distribution — the frame
/// engine's exactness contract, pinned on a fixed workload.
#[test]
fn frame_engine_bits_are_thread_count_invariant() {
    const DIST_BITS: [u64; 8] = [
        0x3fc8d8ec95bff046,
        0x3fac9c4da9003eeb,
        0x3fac9c4da9003eeb,
        0x3fc8d8ec95bff046,
        0x3fc8d8ec95bff046,
        0x3fac9c4da9003eeb,
        0x3fac9c4da9003eeb,
        0x3fc8d8ec95bff046,
    ];
    let mut c = Circuit::new(5);
    c.push_gate(Gate::H, &[0], &[]);
    for q in 0..4 {
        c.push_gate(Gate::Cx, &[q, q + 1], &[]);
    }
    c.push_gate(Gate::S, &[2], &[]);
    c.push_gate(Gate::H, &[4], &[]);
    c.set_measured(vec![0, 2, 4]);
    let noise = CircuitNoise::uniform(&[1, 2, 2, 2, 2, 1, 1], 3, 0.03, 0.08, 0.02);
    // 200 trajectories spans three full frame blocks plus a ragged tail.
    let mut rng = StdRng::seed_from_u64(23);
    let dist = noisy_clifford_distribution(&c, &[], &[], &noise, 200, &mut rng).unwrap();
    assert_eq!(dist.len(), 8);
    for (i, (&d, &bits)) in dist.iter().zip(&DIST_BITS).enumerate() {
        assert_bits(d, bits, &format!("frame dist[{i}]"));
    }
    // Cross-engine: the tableau reference reproduces the frame engine's
    // output bit-for-bit from the same seed.
    let mut rng = StdRng::seed_from_u64(23);
    let tableau =
        noisy_clifford_distribution_tableau(&c, &[], &[], &noise, 200, &mut rng).unwrap();
    for (i, (&f, &t)) in dist.iter().zip(&tableau).enumerate() {
        assert_bits(t, f.to_bits(), &format!("tableau dist[{i}] vs frame"));
    }
}

/// Composite score of the golden search's winner (see
/// [`search_best_score_bits_are_thread_count_invariant`]).
const SEARCH_BEST_SCORE_BITS: u64 = 0x3fe556f7d083abaa;

fn golden_search_task() -> (elivagar_device::Device, elivagar_datasets::Dataset, SearchConfig) {
    let device = ibm_lagos();
    let dataset = moons(60, 20, 3).normalized(std::f64::consts::PI);
    let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
    config.num_candidates = 6;
    (device, dataset, config)
}

/// Post-runtime golden: the full search pipeline (candidate generation,
/// CNR fan-out, rejection, RepCap fan-out, composite scoring) lands on the
/// same winner with the same score bits.
#[test]
fn search_best_score_bits_are_thread_count_invariant() {
    let (device, dataset, config) = golden_search_task();
    let result = search::search(&device, &dataset, &config);
    let best = result.scored[0].score.expect("sorted by score");
    assert_bits(best, SEARCH_BEST_SCORE_BITS, "best composite score");
}

/// Funnel conservation: every generated candidate is accounted for at each
/// pipeline stage, and the counts themselves are goldens — the same at
/// every `ELIVAGAR_THREADS` setting (`scripts/verify.sh` reruns this file
/// at 1/2/4 threads), because CNR accept/reject decisions compare
/// bit-identical f64s.
#[test]
fn search_funnel_counters_are_thread_count_invariant() {
    let (device, dataset, config) = golden_search_task();
    let result = search::search(&device, &dataset, &config);
    let funnel = &result.stats.funnel;
    assert_eq!(funnel.invariant_violation(), None);
    // generated == routed + unrouted (and a successful run has no
    // unrouted candidates — they abort the search).
    assert_eq!(funnel.generated, funnel.routed + funnel.unrouted);
    assert_eq!(
        funnel.routed,
        funnel.cnr_accepted + funnel.cnr_rejected + funnel.cnr_quarantined
    );
    // Golden funnel for `golden_search_task` (6 candidates, CNR keep
    // fraction from `fast()`): pinned exactly, like the score bits above.
    assert_eq!(funnel.generated, 6, "generated");
    assert_eq!(funnel.routed, 6, "routed");
    assert_eq!(funnel.unrouted, 0, "unrouted");
    assert_eq!(
        (funnel.cnr_accepted, funnel.cnr_rejected, funnel.cnr_quarantined),
        GOLDEN_FUNNEL_CNR,
        "CNR funnel (accepted, rejected, quarantined)"
    );
    assert_eq!(funnel.repcap_quarantined, 0, "repcap quarantined");
    assert_eq!(funnel.score_quarantined, 0, "score quarantined");

    // Wall time and stage timings are always recorded. Stage counts are
    // deltas of process-global histograms, which other tests in this
    // binary can inflate, so they get lower bounds only: one CNR
    // evaluation per routed candidate, one RepCap evaluation per survivor.
    let stats = &result.stats;
    assert!(stats.wall_ns > 0, "wall_ns");
    let stage_count =
        |name| stats.stages.iter().find(|s| s.name == name).map_or(0, |s| s.count);
    assert!(stage_count("cnr_eval") >= funnel.routed, "cnr_eval stage: {:?}", stats.stages);
    assert!(
        stage_count("repcap_eval") >= funnel.cnr_accepted,
        "repcap_eval stage: {:?}",
        stats.stages
    );
}

/// Golden CNR-stage funnel of [`golden_search_task`]:
/// `(accepted, rejected, quarantined)`.
const GOLDEN_FUNNEL_CNR: (u64, u64, u64) = (3, 3, 0);

/// Kill-and-resume property: interrupting the golden search at any stage
/// boundary and resuming from the journal must reproduce the exact golden
/// ranking — at every thread count (`scripts/verify.sh` reruns this file
/// with `ELIVAGAR_THREADS=1/2/4`), and regardless of where the kill fell.
#[test]
fn search_kill_and_resume_reproduces_golden_ranking() {
    let (device, dataset, config) = golden_search_task();
    let baseline = search::run_search(&device, &dataset, &config, &search::RunOptions::default())
        .expect("baseline");
    assert_bits(
        baseline.scored[0].score.expect("sorted by score"),
        SEARCH_BEST_SCORE_BITS,
        "baseline best composite score",
    );

    let mut path = std::env::temp_dir();
    path.push(format!("elivagar-bench-resume-{}", std::process::id()));
    // 6 CNR records then up to 6 RepCap records: stopping at 1/3/5 lands
    // mid-CNR; 7 lands mid-RepCap.
    for stop_after in [1, 3, 5, 7] {
        let _ = std::fs::remove_file(&path);
        let err = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_slice_budget(stop_after),
        )
        .expect_err("stops mid-search");
        assert!(matches!(err, search::SearchError::Interrupted { .. }));

        let resumed = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_resume(path.clone()),
        )
        .expect("resumed run completes");
        assert_eq!(resumed, baseline, "kill after {stop_after} records");
        for (i, (a, b)) in resumed.scored.iter().zip(baseline.scored.iter()).enumerate() {
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "scored[{i}] after killing at {stop_after} records"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Composite score of the NSGA-II golden run's winner and its front size
/// (see [`nsga2_front_bits_are_thread_count_invariant`]).
const NSGA2_BEST_SCORE_BITS: u64 = 0x3fe8bcbfbe822053;
const NSGA2_FRONT_SIZE: usize = 6;

/// The golden search task evolved with NSGA-II: population 6 for 2
/// generations (3 rounds × 6 candidates = 18 evaluations).
fn golden_nsga2_task() -> (elivagar_device::Device, elivagar_datasets::Dataset, SearchConfig) {
    let (device, dataset, config) = golden_search_task();
    let config =
        config.with_nsga2(Nsga2Config::default().with_population(6).with_generations(2));
    (device, dataset, config)
}

/// NSGA-II golden: tournament selection, crossover/mutation, fast
/// non-dominated sorting, and crowding distances all reduce over
/// bit-identical f64s, so the evolved winner and the Pareto front are
/// thread-count invariant (`scripts/verify.sh` reruns this at
/// `ELIVAGAR_THREADS=1/2/4`).
#[test]
fn nsga2_front_bits_are_thread_count_invariant() {
    let (device, dataset, config) = golden_nsga2_task();
    let result = search::run_search(&device, &dataset, &config, &search::RunOptions::default())
        .expect("nsga2 golden run");
    assert_bits(
        result.scored[0].score.expect("sorted by score"),
        NSGA2_BEST_SCORE_BITS,
        "nsga2 best composite score",
    );
    let front = result.pareto.expect("nsga2 surfaces a front");
    assert_eq!(front.members.len(), NSGA2_FRONT_SIZE, "front size");
    assert!(front.members.len() >= 2, "front must be non-degenerate");
    for a in &front.members {
        for b in &front.members {
            assert!(
                !a.objectives.dominates(&b.objectives),
                "members {} and {} are not mutually non-dominated",
                a.index,
                b.index
            );
        }
    }
    assert_eq!(result.scored.len(), 18, "3 rounds x population 6");
}

/// Kill-and-resume across generation boundaries: interrupting the NSGA-II
/// evolution at any journal size — mid-CNR of the initial population,
/// exactly at a generation boundary, or mid-RepCap of a later generation
/// — and resuming must replay the evolution bit for bit. The journal
/// layout is 6 CNR + 6 RepCap records per round plus one `Generation`
/// marker after rounds 0 and 1 (38 records total).
#[test]
fn nsga2_kill_and_resume_reproduces_golden_front() {
    let (device, dataset, config) = golden_nsga2_task();
    let baseline = search::run_search(&device, &dataset, &config, &search::RunOptions::default())
        .expect("baseline");
    assert_bits(
        baseline.scored[0].score.expect("sorted by score"),
        NSGA2_BEST_SCORE_BITS,
        "nsga2 baseline best composite score",
    );

    let mut path = std::env::temp_dir();
    path.push(format!("elivagar-bench-nsga2-resume-{}", std::process::id()));
    for stop_after in [3, 13, 15, 24, 30] {
        let _ = std::fs::remove_file(&path);
        let err = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_slice_budget(stop_after),
        )
        .expect_err("stops mid-evolution");
        assert!(matches!(err, search::SearchError::Interrupted { .. }));

        let resumed = search::run_search(
            &device,
            &dataset,
            &config,
            &search::RunOptions::new()
                .with_checkpoint(path.clone())
                .with_checkpoint_every(2)
                .with_resume(path.clone()),
        )
        .expect("resumed evolution completes");
        assert_eq!(resumed, baseline, "kill after {stop_after} records");
        let (rf, bf) = (
            resumed.pareto.as_ref().expect("front"),
            baseline.pareto.as_ref().expect("front"),
        );
        assert_eq!(rf.members.len(), bf.members.len());
        for (a, b) in rf.members.iter().zip(bf.members.iter()) {
            assert_eq!(a.index, b.index, "front membership after killing at {stop_after}");
            assert_eq!(
                a.score.map(f64::to_bits),
                b.score.map(f64::to_bits),
                "front scores must be bit-identical after killing at {stop_after}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// FNV-1a-64 of a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Journal-layout goldens: the exact checkpoint file a completed golden
/// search leaves behind, as `(length, FNV-1a-64)`. Identical bytes are
/// what let an upgraded build resume journals written before the
/// upgrade, so any change to record order, quarantine reasons, or the
/// serialized form breaks one of these. The bytes do not depend on the
/// thread count or on the checkpoint cadence.
#[test]
fn journal_bytes_are_pinned() {
    let (device, dataset, config) = golden_search_task();
    let (_, _, nsga2) = golden_nsga2_task();
    let budgeted = config.clone().with_eval_budget(10);
    let tasks = [
        ("one-shot", config, 942, 0xcbc6_53d6_3a2e_15f7u64),
        ("nsga2", nsga2, 3_669, 0xb3b8_8ea0_632b_727a),
        // CNR fits the budget, RepCap does not: every survivor is a
        // journaled budget quarantine and the search has no winner.
        ("repcap budget", budgeted, 1_157, 0x704f_f589_c04e_974d),
    ];
    let mut path = std::env::temp_dir();
    path.push(format!("elivagar-bench-journal-bytes-{}", std::process::id()));
    for (name, config, len, digest) in tasks {
        for every in [2, 16] {
            let _ = std::fs::remove_file(&path);
            let outcome = search::run_search(
                &device,
                &dataset,
                &config,
                &search::RunOptions::new()
                    .with_checkpoint(path.clone())
                    .with_checkpoint_every(every),
            );
            if let Err(e) = outcome {
                assert!(
                    matches!(e, search::SearchError::NoViableCandidates { .. }),
                    "{name}: unexpected error {e}"
                );
            }
            let bytes = std::fs::read(&path).expect("journal written");
            assert_eq!(
                (bytes.len(), fnv1a64(&bytes)),
                (len, digest),
                "{name} journal (checkpoint_every {every}): got {} bytes, digest {:#018x}",
                bytes.len(),
                fnv1a64(&bytes)
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// In-process repeatability: a warm pool (and warm workspace arenas) must
/// not change any result relative to the first, cold evaluation.
#[test]
fn repeated_evaluations_are_bit_identical_in_process() {
    let model = QuantumClassifier::new(golden_circuit(), 2);
    let (features, labels) = golden_batch();
    let params = golden_params();
    let first = batch_gradient(&model, &params, &features, &labels, GradientMethod::Adjoint);
    for _ in 0..3 {
        let again =
            batch_gradient(&model, &params, &features, &labels, GradientMethod::Adjoint);
        assert_eq!(first, again);
    }

    let mut cfg = SearchConfig::for_task(4, 6, 2, 2).fast();
    cfg.repcap_param_inits = 4;
    cfg.repcap_bases = 3;
    let r1 = repcap::repcap(
        &golden_circuit(),
        &features,
        &labels,
        &cfg,
        &mut StdRng::seed_from_u64(77),
    );
    let r2 = repcap::repcap(
        &golden_circuit(),
        &features,
        &labels,
        &cfg,
        &mut StdRng::seed_from_u64(77),
    );
    assert_eq!(r1, r2);
}
