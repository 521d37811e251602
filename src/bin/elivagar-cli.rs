//! Command-line front end for the Elivagar reproduction.
//!
//! ```text
//! elivagar-cli search --benchmark moons --device ibm-lagos [--candidates 24] [--seed 0]
//!                     [--strategy oneshot|nsga2] [--population N] [--generations N]
//!                     [--train-batch N] [--train-topk R]
//!                     [--checkpoint journal.json] [--resume journal.json]
//!                     [--cache DIR] [--stats] [--trace-out trace.jsonl]
//! elivagar-cli submit --spool DIR --id NAME [--benchmark moons] [--device ibm-lagos]
//!                     [--tenant NAME] [--priority N] [--candidates N] [--seed N] ...
//! elivagar-cli devices
//! elivagar-cli benchmarks
//! ```
//!
//! `submit` writes a job-spec JSON file into a spool directory for
//! `elivagar-served`, the search-as-a-service daemon (see the
//! `elivagar-serve` crate): the daemon ingests `*.json` specs from its
//! `--spool` directory, schedules them as fair-share evaluation slices,
//! and survives `kill -9` with bit-identical results.
//!
//! `--strategy nsga2` replaces the one-shot sample-and-rank pipeline
//! with NSGA-II evolution (`--population` circuits per generation,
//! `--generations` rounds); the final Pareto front — every mutually
//! non-dominated circuit over (RepCap, CNR, two-qubit count, depth) —
//! is printed to stderr, and the front member with the best composite
//! score is trained like a one-shot winner.
//!
//! The winner trains inside the search's train stage, the one training
//! path: `--train-batch N` (default 1, the winner alone) trains the top-N
//! scored candidates as one cohort through fused cross-candidate engine
//! dispatches, and `--train-topk R` adds R successive-halving rungs that
//! prune the worse half of the cohort at geometric epoch milestones. With
//! halving off the winner's parameters are bit-identical for every N. A
//! winner whose training fails is quarantined, and the command exits 1
//! with the quarantine reason.
//!
//! `search` runs the full pipeline (search, train, noisy evaluation) and
//! prints the selected circuit as OpenQASM with the trained angles bound
//! to the first test sample. Flags are checked before any work starts: a
//! flag given without a value (last, or followed by another `--flag`) or
//! a malformed or out-of-range number (`--priority 300`, `--params 0`,
//! `--population 1`) exits 1 with a message. `--candidates`,
//! `--params`, `--epochs`, `--train-batch` and `submit --slice-records`
//! must be at least 1 and `--population` at least 2. `--checkpoint` journals
//! completed candidate evaluations so an interrupted run can be picked up
//! with `--resume` (which implies checkpointing to the same file); the
//! resumed search reproduces the uninterrupted ranking bit for bit.
//!
//! `--cache DIR` attaches a persistent content-addressed result cache:
//! CNR and RepCap evaluations whose full input fingerprint (circuit,
//! placement, device calibration, predictor knobs, per-candidate seed)
//! matches a stored entry are replayed instead of recomputed, bit for
//! bit. The same directory can back many runs — and, via `submit
//! --cache-dir`, many tenants of the serve daemon searching the same
//! device. Corrupt entries are discarded and recomputed, never trusted.
//!
//! `--stats` prints the end-of-run telemetry report (candidate funnel,
//! per-stage counts, wall time, p50/p99 latencies) to stderr; `--trace-out
//! FILE` enables span tracing and writes a Chrome Trace Event JSON file
//! loadable in `chrome://tracing` or Perfetto. QASM output on stdout is
//! unaffected by either flag.

use elivagar::{run_search, Nsga2Config, RunOptions, SearchConfig, SearchStage};
use elivagar_circuit::to_qasm;
use elivagar_datasets::{load_sized, spec, BENCHMARKS};
use elivagar_device::{all_devices, circuit_noise, device_by_name};
use elivagar_ml::{accuracy, noisy_accuracy, QuantumClassifier, TrainConfig};
use elivagar_serve::flags::{flag_value, parse_flag};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn usage() -> String {
    String::from(
        "usage:\n  elivagar-cli search --benchmark <name> --device <name> \
         [--candidates N] [--params N] [--epochs N] [--seed N] \
         [--strategy oneshot|nsga2] [--population N] [--generations N] \
         [--train-batch N] [--train-topk R] \
         [--checkpoint FILE] [--resume FILE] [--cache DIR] [--stats] [--trace-out FILE]\n  \
         elivagar-cli submit --spool DIR --id NAME [--benchmark <name>] [--device <name>] \
         [--tenant NAME] [--priority N] [--candidates N] [--seed N] \
         [--train-size N] [--test-size N] [--epochs N] [--slice-records N] \
         [--deadline-slices N] [--deadline-ms N] [--max-retries N] [--cache-dir DIR]\n  \
         elivagar-cli devices\n  elivagar-cli benchmarks",
    )
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one subcommand; `Err` is the message `main` prints before it
/// exits 1.
fn run(args: Vec<String>) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("devices") => {
            for d in all_devices() {
                println!(
                    "{:<20} {:>4} qubits  median 2Q err {:.1e}",
                    d.name(),
                    d.num_qubits(),
                    d.calibration().median_gate2q_error()
                );
            }
        }
        Some("benchmarks") => {
            for b in BENCHMARKS {
                println!(
                    "{:<10} {} classes, {} features, {} params, {} qubits",
                    b.name, b.classes, b.feature_dim, b.params, b.qubits
                );
            }
        }
        Some("search") => {
            let Some(bench_name) = flag_value(&args, "--benchmark")? else {
                return Err(usage());
            };
            let Some(device_name) = flag_value(&args, "--device")? else {
                return Err(usage());
            };
            let Some(bench) = spec(&bench_name) else {
                return Err(format!(
                    "unknown benchmark {bench_name}; try `elivagar-cli benchmarks`"
                ));
            };
            let Some(device) = device_by_name(&device_name) else {
                return Err(format!("unknown device {device_name}; try `elivagar-cli devices`"));
            };
            // Every numeric flag is validated before any work starts.
            let parse = |name: &str, default: usize, min: usize| -> Result<usize, String> {
                Ok(parse_flag(&args, name, min)?.unwrap_or(default))
            };
            let nsga2 = Nsga2Config::default();
            let [candidates, params, epochs, seed, population, generations, cohort, rungs] = [
                parse("--candidates", 24, 1)?,
                parse("--params", bench.params, 1)?,
                parse("--epochs", 60, 1)?,
                parse("--seed", 0, 0)?,
                parse("--population", nsga2.population, 2)?,
                parse("--generations", nsga2.generations, 0)?,
                parse("--train-batch", 1, 1)?,
                parse("--train-topk", 0, 0)?,
            ];
            let seed = seed as u64;

            let dataset = load_sized(&bench_name, seed, 400.min(bench.train), 120.min(bench.test));
            let mut config =
                SearchConfig::for_task(bench.qubits, params, bench.feature_dim, bench.classes);
            config.num_candidates = candidates;
            config.clifford_replicas = 16;
            config.repcap_param_inits = 8;
            config.repcap_samples_per_class = 8;
            config.seed = seed;
            match flag_value(&args, "--strategy")?.as_deref() {
                None | Some("oneshot") => {}
                Some("nsga2") => {
                    config = config.with_nsga2(
                        nsga2.with_population(population).with_generations(generations),
                    );
                }
                Some(other) => {
                    return Err(format!("unknown strategy {other}; expected oneshot or nsga2"));
                }
            }

            // The search's train stage trains the winner, with the next
            // top-scored candidates as one fused cohort and optional
            // successive-halving rungs pruning it.
            config = config.with_train(TrainConfig {
                epochs,
                batch_size: 32,
                seed,
                cohort,
                halving_rungs: rungs,
                ..Default::default()
            });

            let want_stats = args.iter().any(|a| a == "--stats");
            let trace_out = flag_value(&args, "--trace-out")?.map(std::path::PathBuf::from);
            if trace_out.is_some() {
                elivagar_obs::set_tracing(true);
            }

            let checkpoint = flag_value(&args, "--checkpoint")?.map(std::path::PathBuf::from);
            let resume = flag_value(&args, "--resume")?.map(std::path::PathBuf::from);
            let mut options = RunOptions::new();
            // --resume without --checkpoint keeps journaling to the
            // same file, so a second interruption is also resumable.
            if let Some(path) = checkpoint.or_else(|| resume.clone()) {
                options = options.with_checkpoint(path);
            }
            if let Some(path) = resume {
                options = options.with_resume(path);
            }
            if let Some(dir) = flag_value(&args, "--cache")? {
                let cache = elivagar::Cache::open(&dir)
                    .map_err(|e| format!("failed to open result cache at {dir}: {e}"))?;
                options = options.with_cache(cache);
            }

            match &config.strategy {
                elivagar::StrategyChoice::Nsga2(p) => eprintln!(
                    "evolving population {} for {} generations on {} ...",
                    p.population,
                    p.generations,
                    device.name()
                ),
                _ => eprintln!("searching {candidates} candidates on {} ...", device.name()),
            }
            let result = run_search(&device, &dataset, &config, &options)
                .map_err(|e| format!("search failed: {e}"))?;
            for q in &result.quarantined {
                eprintln!("warning: {q}");
            }
            if let Some(front) = &result.pareto {
                eprintln!("Pareto front ({} non-dominated circuits):", front.members.len());
                for m in &front.members {
                    eprintln!(
                        "  #{:<4} repcap {:.4}  cnr {:.4}  2q-gates {:>3}  depth {:>3}  score {}",
                        m.index,
                        m.objectives.repcap,
                        m.objectives.cnr,
                        m.objectives.two_qubit_count,
                        m.objectives.depth,
                        m.score.map_or_else(|| "-".into(), |s| format!("{s:.4}")),
                    );
                }
            }
            let best = &result.best;
            eprintln!(
                "selected: {} gates, depth {}, placed on {:?} ({} CNR + {} RepCap executions)",
                best.circuit.len(),
                best.circuit.depth(),
                best.placement,
                result.executions.cnr,
                result.executions.repcap,
            );

            let Some(trained) = result.trained.first().filter(|t| t.index == result.best_index)
            else {
                let reason = result
                    .quarantined
                    .iter()
                    .find(|q| q.index == result.best_index && q.stage == SearchStage::Train)
                    .map_or("no training result", |q| q.reason.as_str());
                return Err(format!("training the selected circuit failed: {reason}"));
            };
            if result.trained.len() > 1 {
                eprintln!(
                    "cohort-trained {} candidates in fused batches ({} pruned early)",
                    result.trained.len(),
                    result.trained.iter().filter(|t| t.pruned_at_epoch.is_some()).count()
                );
            } else {
                eprintln!("trained the selected circuit for {epochs} epochs");
            }
            let model = QuantumClassifier::new(best.circuit.clone(), bench.classes);
            let params = &trained.params;
            let clean = accuracy(&model, params, dataset.test());
            let physical = best.physical_circuit(&device);
            let noise = circuit_noise(&device, &physical).expect("device-aware circuit");
            let mut rng = StdRng::seed_from_u64(seed);
            let noisy = noisy_accuracy(&model, params, dataset.test(), &noise, 60, &mut rng);
            eprintln!("test accuracy: {clean:.3} noiseless, {noisy:.3} under {} noise", device.name());

            println!(
                "// {} on {}: accuracy {:.3} (noiseless) / {:.3} (noisy)",
                bench_name,
                device.name(),
                clean,
                noisy
            );
            println!(
                "{}",
                to_qasm(&best.circuit, params, &dataset.test().features[0])
            );

            if want_stats {
                eprint!("{}", result.stats.render());
                eprint!(
                    "{}",
                    elivagar_obs::stats::render_process_report(&elivagar_obs::metrics::snapshot())
                );
            }
            if let Some(path) = trace_out {
                elivagar_obs::set_tracing(false);
                let events = elivagar_obs::drain();
                if let Err(e) = elivagar_obs::validate_forest(&events) {
                    eprintln!("warning: trace forest is malformed: {e}");
                }
                std::fs::File::create(&path)
                    .and_then(|mut f| elivagar_obs::write_chrome_trace(&events, &mut f))
                    .map_err(|e| format!("failed to write trace to {}: {e}", path.display()))?;
                eprintln!(
                    "wrote {} trace events to {} (load in chrome://tracing)",
                    events.len(),
                    path.display()
                );
            }
        }
        Some("submit") => {
            let Some(spool) = flag_value(&args, "--spool")? else {
                return Err(usage());
            };
            let Some(id) = flag_value(&args, "--id")? else {
                return Err(usage());
            };
            if id.is_empty() || id.contains(['/', '\\']) {
                return Err("--id must be a plain name (no path separators)".into());
            }
            let mut job = elivagar_serve::JobSpec::named(&id);
            if let Some(name) = flag_value(&args, "--benchmark")? {
                if spec(&name).is_none() {
                    return Err(format!("unknown benchmark {name}; try `elivagar-cli benchmarks`"));
                }
                job.benchmark = name;
            }
            if let Some(name) = flag_value(&args, "--device")? {
                if device_by_name(&name).is_none() {
                    return Err(format!("unknown device {name}; try `elivagar-cli devices`"));
                }
                job.device = name;
            }
            if let Some(tenant) = flag_value(&args, "--tenant")? {
                job.tenant = tenant;
            }
            // A shared cache directory lets tenants searching the same
            // device reuse each other's CNR/RepCap evaluations.
            job.cache_dir = flag_value(&args, "--cache-dir")?;
            job.priority = parse_flag(&args, "--priority", 0)?.unwrap_or(0);
            job.candidates = parse_flag(&args, "--candidates", 1)?.unwrap_or(4);
            job.seed = parse_flag(&args, "--seed", 0)?.unwrap_or(0);
            job.train_size = parse_flag(&args, "--train-size", 1)?.unwrap_or(24);
            job.test_size = parse_flag(&args, "--test-size", 1)?.unwrap_or(8);
            job.train_epochs = parse_flag(&args, "--epochs", 1)?;
            job.slice_records = parse_flag(&args, "--slice-records", 1)?;
            job.deadline_slices = parse_flag(&args, "--deadline-slices", 0)?;
            job.deadline_ms = parse_flag(&args, "--deadline-ms", 0)?;
            job.max_retries = parse_flag(&args, "--max-retries", 0)?;
            let spool = std::path::Path::new(&spool);
            std::fs::create_dir_all(spool)
                .map_err(|e| format!("failed to create spool {}: {e}", spool.display()))?;
            let path = spool.join(format!("{id}.json"));
            let body = serde_json::to_string(&job)
                .map_err(|e| format!("failed to serialize job spec: {e}"))?;
            std::fs::write(&path, body + "\n")
                .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
            eprintln!("spooled {id} -> {}", path.display());
        }
        _ => return Err(usage()),
    }
    Ok(())
}
