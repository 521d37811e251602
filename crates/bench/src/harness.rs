//! Shared experiment drivers used by the per-table/figure binaries.
//!
//! Every method funnels through [`evaluate_physical`]: the circuit placed
//! on physical device qubits is compacted to its used qubits (so dense
//! simulation stays cheap even on 127-qubit devices), trained noiselessly
//! with the paper's methodology, and evaluated both noiselessly and under
//! the device noise model.

use elivagar::{cnr, generate_candidate, search, EmbeddingPolicy, SearchConfig, SearchResult};
use elivagar_baselines::{
    human_baseline_circuits, quantum_nas_search, random_baseline_circuit, supernet_search,
    QuantumNasConfig, SupernetConfig, SuperTrainConfig,
};
use elivagar_circuit::{Circuit, Instruction};
use elivagar_compiler::{compile, CompileOptions, OptimizationLevel, TwoQubitBasis};
use elivagar_datasets::{load_sized, spec, BenchmarkSpec, Dataset};
use elivagar_device::{circuit_noise, Device};
use elivagar_ml::{accuracy, noisy_accuracy, train, QuantumClassifier, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Experiment scale: `smoke` finishes in seconds per benchmark and is the
/// default; `full` approaches the paper's sample counts and schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Training samples drawn.
    pub train_n: usize,
    /// Test samples drawn.
    pub test_n: usize,
    /// Training epochs for final circuits.
    pub epochs: usize,
    /// Elivagar candidate pool size.
    pub candidates: usize,
    /// Repetitions averaged per reported number.
    pub repeats: usize,
    /// Monte-Carlo trajectories per noisy inference.
    pub trajectories: usize,
}

impl Scale {
    /// Fast setting for CI and smoke runs (minutes per harness binary).
    pub fn smoke() -> Self {
        Scale {
            train_n: 256,
            test_n: 96,
            epochs: 50,
            candidates: 24,
            repeats: 3,
            trajectories: 50,
        }
    }

    /// Near-paper setting (expect long runtimes).
    pub fn full() -> Self {
        Scale {
            train_n: 1600,
            test_n: 200,
            epochs: 200,
            candidates: 64,
            repeats: 25,
            trajectories: 200,
        }
    }

    /// Reads `ELIVAGAR_SCALE` (`smoke` default, `full` for the paper-size
    /// runs). Any other value exits the process with status 1 and a
    /// message naming it, so a mistyped `full` never runs at smoke scale.
    pub fn from_env() -> Self {
        let value = std::env::var_os("ELIVAGAR_SCALE").map(|v| v.to_string_lossy().into_owned());
        Scale::parse(value.as_deref()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }

    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("smoke") => Ok(Scale::smoke()),
            Some("full") => Ok(Scale::full()),
            Some(other) => Err(format!(
                "ELIVAGAR_SCALE={other:?} is not a scale; use `smoke` (the default) or `full`"
            )),
        }
    }
}

/// One method's result on one benchmark/device pair.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodOutcome {
    /// Method label as printed in the tables.
    pub method: String,
    /// Noiseless test accuracy after training.
    pub noiseless_accuracy: f64,
    /// Test accuracy under the device noise model.
    pub noisy_accuracy: f64,
    /// Search-phase circuit executions (0 for search-free baselines).
    pub search_executions: u64,
    /// Compiled single-qubit gate count.
    pub compiled_1q: usize,
    /// Compiled two-qubit gate count.
    pub compiled_2q: usize,
    /// Compiled depth.
    pub compiled_depth: usize,
}

/// Loads a benchmark truncated to the scale's sample budget.
pub fn load_benchmark(name: &str, scale: Scale, seed: u64) -> Dataset {
    let s = spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    load_sized(
        name,
        seed,
        scale.train_n.min(s.train),
        scale.test_n.min(s.test),
    )
}

/// Builds the Elivagar search configuration for a benchmark at a scale.
pub fn search_config_for(s: &BenchmarkSpec, scale: Scale, seed: u64) -> SearchConfig {
    let mut config = SearchConfig::for_task(s.qubits, s.params, s.feature_dim, s.classes);
    config.num_candidates = scale.candidates;
    config.clifford_replicas = 16;
    config.cnr_trajectories = 32;
    config.repcap_samples_per_class = 8;
    config.repcap_param_inits = 8;
    config.repcap_bases = 3;
    config.seed = seed;
    config
}

/// Compacts a physical circuit to its used qubits (ascending order, which
/// keeps amplitude embeddings placed on the lowest indices consistent).
/// Returns the compact circuit; instruction order — and therefore any
/// positionally-aligned `CircuitNoise` — is preserved.
pub fn compact_circuit(physical: &Circuit) -> Circuit {
    let mut used: Vec<usize> = physical
        .instructions()
        .iter()
        .flat_map(|i| i.qubits.iter().copied())
        .chain(physical.measured().iter().copied())
        .collect();
    used.sort_unstable();
    used.dedup();
    assert!(!used.is_empty(), "circuit touches no qubits");
    let index_of = |q: usize| used.binary_search(&q).expect("qubit collected above");
    let mut out = Circuit::new(used.len());
    out.set_amplitude_embedding(physical.amplitude_embedding());
    for ins in physical.instructions() {
        let qubits = ins.qubits.iter().map(|&q| index_of(q)).collect();
        out.push(Instruction::new(ins.gate, qubits, ins.params.clone()));
    }
    out.set_measured(physical.measured().iter().map(|&q| index_of(q)).collect());
    out
}

/// Trains a physically-placed circuit and evaluates it noiselessly and
/// under the device noise model. Returns a [`MethodOutcome`] missing only
/// the method label and search executions.
///
/// # Panics
///
/// Panics if the circuit does not fit the device or measures no qubits.
pub fn evaluate_physical(
    device: &Device,
    physical: &Circuit,
    dataset: &Dataset,
    scale: Scale,
    seed: u64,
) -> MethodOutcome {
    let noise = circuit_noise(device, physical)
        .expect("physical circuit must be executable on the device");
    let local = compact_circuit(physical);
    let model = QuantumClassifier::new(local, dataset.num_classes());
    let config = TrainConfig {
        epochs: scale.epochs,
        batch_size: 32,
        seed,
        ..Default::default()
    };
    let outcome = train(&model, dataset.train(), &config);
    let noiseless = accuracy(&model, &outcome.params, dataset.test());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let noisy = noisy_accuracy(
        &model,
        &outcome.params,
        dataset.test(),
        &noise,
        scale.trajectories,
        &mut rng,
    );
    MethodOutcome {
        method: String::new(),
        noiseless_accuracy: noiseless,
        noisy_accuracy: noisy,
        search_executions: 0,
        compiled_1q: physical.one_qubit_gate_count(),
        compiled_2q: physical.two_qubit_gate_count(),
        compiled_depth: physical.depth(),
    }
}

/// Runs the full Elivagar pipeline on a benchmark/device pair.
pub fn run_elivagar(
    name: &str,
    device: &Device,
    scale: Scale,
    seed: u64,
    embedding: EmbeddingPolicy,
) -> (MethodOutcome, SearchResult) {
    let s = spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let dataset = load_benchmark(name, scale, seed);
    let mut config = search_config_for(s, scale, seed);
    config.embedding = embedding;
    let result = search(device, &dataset, &config);
    // Elivagar circuits run unoptimized (compiler level 0, Section 7.2) —
    // they are already hardware-efficient.
    let physical = result.best.physical_circuit(device);
    let mut outcome = evaluate_physical(device, &physical, &dataset, scale, seed);
    outcome.method = "elivagar".into();
    outcome.search_executions = result.executions.total();
    (outcome, result)
}

/// Runs an Elivagar ablation variant (Fig. 9): generation and selection
/// strategies are overridden, and device-unaware winners are routed before
/// evaluation (device-aware ones never need routing).
pub fn run_elivagar_ablation(
    name: &str,
    device: &Device,
    scale: Scale,
    seed: u64,
    generation: elivagar::GenerationStrategy,
    selection: elivagar::SelectionStrategy,
) -> MethodOutcome {
    let s = spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let dataset = load_benchmark(name, scale, seed);
    let mut config = search_config_for(s, scale, seed);
    config.generation = generation;
    // CNR cannot run on unrouted device-unaware candidates; those ablations
    // must not use the Full (CNR) selection.
    if generation == elivagar::GenerationStrategy::DeviceUnaware {
        assert!(
            selection != elivagar::SelectionStrategy::Full,
            "device-unaware ablation cannot use CNR"
        );
    }
    config.selection = selection;
    let result = search(device, &dataset, &config);
    let physical = match generation {
        elivagar::GenerationStrategy::DeviceAware => result.best.physical_circuit(device),
        elivagar::GenerationStrategy::DeviceUnaware => {
            let compiled = compile(
                &result.best.circuit,
                device,
                CompileOptions {
                    level: OptimizationLevel::O2,
                    basis: TwoQubitBasis::Cx,
                    seed,
                },
            );
            compiled.circuit
        }
    };
    let mut outcome = evaluate_physical(device, &physical, &dataset, scale, seed);
    outcome.method = format!("{generation:?}/{selection:?}");
    outcome.search_executions = result.executions.total();
    outcome
}

/// True output fidelity of a candidate circuit on a device: `1 - TVD`
/// between the noiseless and noisy output distributions at random
/// parameters (what Fig. 5 correlates CNR against).
pub fn candidate_fidelity(
    device: &Device,
    candidate: &elivagar::Candidate,
    trajectories: usize,
    seed: u64,
) -> f64 {
    let physical = candidate.physical_circuit(device);
    let noise = circuit_noise(device, &physical).expect("candidate is device-aware");
    let mut rng = StdRng::seed_from_u64(seed);
    let local = &candidate.circuit;
    let params: Vec<f64> = (0..local.num_trainable_params())
        .map(|_| rand::Rng::random_range(&mut rng, -std::f64::consts::PI..std::f64::consts::PI))
        .collect();
    let features: Vec<f64> = (0..local.num_features_used().max(1))
        .map(|_| rand::Rng::random_range(&mut rng, 0.0..std::f64::consts::PI))
        .collect();
    let ideal = elivagar_sim::StateVector::run(local, &params, &features)
        .marginal_probabilities(local.measured());
    let noisy = elivagar_sim::noisy_distribution(
        local,
        &params,
        &features,
        &noise,
        trajectories,
        &mut rng,
    );
    elivagar_sim::fidelity(&ideal, &noisy)
}

/// Fig. 5c/d's series on one device: the CNR and the true fidelity
/// ([`candidate_fidelity`], averaged over three parameter draws) of
/// generated 4-qubit circuits whose parameter budgets cycle from 8 to 48,
/// from a fixed seed. Returns `(cnrs, fidelities)`, one entry per
/// circuit: `max(3 * scale.candidates / 2, 24)` of them.
pub fn cnr_vs_fidelity(device: &Device, scale: Scale) -> (Vec<f64>, Vec<f64>) {
    let num_circuits = (3 * scale.candidates / 2).max(24);
    // The correlation signal needs tight estimators: both CNR and the true
    // fidelity are Monte-Carlo estimates, and on quiet IBM devices the
    // fidelity spread is only ~0.3 wide.
    let trajectories = scale.trajectories.max(128);
    let mut config = SearchConfig::for_task(4, 12, 4, 2);
    // Measure every qubit: fidelity over the full 16-outcome
    // distribution discriminates circuits much better than a single
    // qubit's marginal.
    config.num_measured = 4;
    config.clifford_replicas = 32;
    config.cnr_trajectories = trajectories;
    let mut rng = StdRng::seed_from_u64(0x0F16_0005);
    let mut cnrs = Vec::new();
    let mut fidelities = Vec::new();
    for i in 0..num_circuits {
        // Vary circuit size widely so the fidelity range matches the
        // paper's scatter plots.
        config.param_budget = 8 + (i % 6) * 8;
        let cand = generate_candidate(device, &config, &mut rng);
        let r = cnr(&cand, device, &config, &mut rng).expect("device-aware candidate");
        // Average the true fidelity over several random parameter
        // draws, as the trained circuit would visit many angles.
        let f = (0..3)
            .map(|k| candidate_fidelity(device, &cand, trajectories, (3 * i + k) as u64))
            .sum::<f64>()
            / 3.0;
        cnrs.push(r.cnr);
        fidelities.push(f);
    }
    (cnrs, fidelities)
}

/// Runs the Random baseline (average over `scale.repeats` circuits).
pub fn run_random_baseline(name: &str, device: &Device, scale: Scale, seed: u64) -> MethodOutcome {
    let s = spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let dataset = load_benchmark(name, scale, seed);
    let num_measured = if s.classes == 2 { 1 } else { s.classes.min(s.qubits) };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = Vec::new();
    for _ in 0..scale.repeats.max(1) {
        let circuit =
            random_baseline_circuit(s.qubits, s.params, num_measured, s.feature_dim, &mut rng);
        let compiled = compile(
            &circuit,
            device,
            CompileOptions { level: OptimizationLevel::O3, basis: TwoQubitBasis::Cx, seed },
        );
        let o = evaluate_physical(device, &compiled.circuit, &dataset, scale, seed);
        acc.push(o);
    }
    average_outcomes("random", &acc)
}

/// Runs the Human-designed baseline (average over the three embeddings).
pub fn run_human_baseline(name: &str, device: &Device, scale: Scale, seed: u64) -> MethodOutcome {
    let s = spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let dataset = load_benchmark(name, scale, seed);
    let num_measured = if s.classes == 2 { 1 } else { s.classes.min(s.qubits) };
    let mut acc = Vec::new();
    for (kind, circuit) in
        human_baseline_circuits(s.qubits, s.feature_dim, s.params, num_measured)
    {
        // Amplitude embedding must keep the trivial initial layout (state
        // preparation is index-sensitive), hence O1; the others get O3.
        let level = if kind == elivagar_circuit::templates::EmbeddingKind::Amplitude {
            OptimizationLevel::O1
        } else {
            OptimizationLevel::O3
        };
        let compiled = compile(
            &circuit,
            device,
            CompileOptions { level, basis: TwoQubitBasis::Cx, seed },
        );
        let o = evaluate_physical(device, &compiled.circuit, &dataset, scale, seed);
        acc.push(o);
    }
    average_outcomes("human", &acc)
}

/// Runs the QuantumNAS pipeline (SuperCircuit + evolutionary co-search).
pub fn run_quantumnas(name: &str, device: &Device, scale: Scale, seed: u64) -> MethodOutcome {
    let s = spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let dataset = load_benchmark(name, scale, seed);
    let config = QuantumNasConfig {
        num_blocks: (s.params / s.qubits).clamp(2, 8),
        population: 12,
        generations: 6,
        valid_samples: scale.test_n.min(48),
        train: SuperTrainConfig {
            epochs: (scale.epochs / 5).max(2),
            batch_size: 32,
            seed,
            ..Default::default()
        },
        seed,
        ..Default::default()
    };
    let result = quantum_nas_search(device, &dataset, s.qubits, &config, None);
    let mut outcome = evaluate_physical(device, &result.physical_circuit, &dataset, scale, seed);
    outcome.method = "quantumnas".into();
    outcome.search_executions = result.executions;
    outcome
}

/// Runs the QuantumSupernet pipeline (random search, compiled at O3).
pub fn run_supernet(name: &str, device: &Device, scale: Scale, seed: u64) -> MethodOutcome {
    let s = spec(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let dataset = load_benchmark(name, scale, seed);
    let config = SupernetConfig {
        num_blocks: (s.params / s.qubits).clamp(2, 8),
        num_samples: scale.candidates,
        valid_samples: scale.test_n.min(48),
        train: SuperTrainConfig {
            epochs: (scale.epochs / 5).max(2),
            batch_size: 32,
            seed,
            ..Default::default()
        },
        seed,
    };
    let result = supernet_search(&dataset, s.qubits, &config, None);
    let compiled = compile(
        &result.circuit,
        device,
        CompileOptions { level: OptimizationLevel::O3, basis: TwoQubitBasis::Cx, seed },
    );
    let mut outcome = evaluate_physical(device, &compiled.circuit, &dataset, scale, seed);
    outcome.method = "supernet".into();
    outcome.search_executions = result.executions;
    outcome
}

fn average_outcomes(method: &str, all: &[MethodOutcome]) -> MethodOutcome {
    assert!(!all.is_empty(), "no outcomes to average");
    let n = all.len() as f64;
    MethodOutcome {
        method: method.into(),
        noiseless_accuracy: all.iter().map(|o| o.noiseless_accuracy).sum::<f64>() / n,
        noisy_accuracy: all.iter().map(|o| o.noisy_accuracy).sum::<f64>() / n,
        search_executions: 0,
        compiled_1q: (all.iter().map(|o| o.compiled_1q).sum::<usize>() as f64 / n).round()
            as usize,
        compiled_2q: (all.iter().map(|o| o.compiled_2q).sum::<usize>() as f64 / n).round()
            as usize,
        compiled_depth: (all.iter().map(|o| o.compiled_depth).sum::<usize>() as f64 / n).round()
            as usize,
    }
}

/// Prints a markdown-ish results table row-major.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join(" | "));
    println!("{}", header.iter().map(|_| "---").collect::<Vec<_>>().join(" | "));
    for row in rows {
        println!("{}", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elivagar_circuit::{Gate, ParamExpr};
    use elivagar_device::devices::ibm_lagos;

    fn tiny_scale() -> Scale {
        Scale {
            train_n: 64,
            test_n: 32,
            epochs: 25,
            candidates: 8,
            repeats: 1,
            trajectories: 10,
        }
    }

    #[test]
    fn compact_preserves_structure_and_measurement_order() {
        let mut c = Circuit::new(10);
        c.push_gate(Gate::H, &[7], &[]);
        c.push_gate(Gate::Cx, &[7, 2], &[]);
        c.push_gate(Gate::Rx, &[4], &[ParamExpr::trainable(0)]);
        c.set_measured(vec![4, 7]);
        let compact = compact_circuit(&c);
        assert_eq!(compact.num_qubits(), 3); // {2, 4, 7}
        assert_eq!(compact.instructions()[1].qubits, vec![2, 0]);
        assert_eq!(compact.measured(), &[1, 2]);
        assert_eq!(compact.len(), c.len());
    }

    #[test]
    fn elivagar_end_to_end_beats_chance_on_moons() {
        let device = ibm_lagos();
        let (outcome, result) =
            run_elivagar("moons", &device, tiny_scale(), 1, EmbeddingPolicy::Searched);
        assert!(outcome.noiseless_accuracy > 0.5, "{}", outcome.noiseless_accuracy);
        assert!(outcome.search_executions > 0);
        assert_eq!(result.best.circuit.num_trainable_params(), 16);
    }

    #[test]
    fn random_baseline_runs_end_to_end() {
        let device = ibm_lagos();
        let outcome = run_random_baseline("moons", &device, tiny_scale(), 3);
        assert!(outcome.noisy_accuracy <= 1.0);
        assert!(outcome.compiled_1q > 0);
    }

    #[test]
    fn scale_parses_only_unset_smoke_and_full() {
        assert_eq!(Scale::parse(None), Ok(Scale::smoke()));
        assert_eq!(Scale::parse(Some("smoke")), Ok(Scale::smoke()));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::full()));
        for typo in ["Full", "ful"] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("ELIVAGAR_SCALE") && err.contains(typo), "{err}");
        }
    }
}
