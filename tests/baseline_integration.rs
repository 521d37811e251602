//! Integration tests for the competing-method pipelines against the
//! shared substrate.

use elivagar_baselines::{
    human_baseline_circuits, quantum_nas_search, random_baseline_circuit, supernet_search,
    QuantumNasConfig, SupernetConfig, SuperTrainConfig,
};
use elivagar_compiler::{compile, is_hardware_efficient, CompileOptions, OptimizationLevel, TwoQubitBasis};
use elivagar_datasets::moons;
use elivagar_device::devices::ibm_lagos;
use elivagar_ml::{accuracy, train, QuantumClassifier, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn quantumnas_full_pipeline_trains() {
    let device = ibm_lagos();
    let data = moons(64, 24, 2).normalized(std::f64::consts::PI);
    let config = QuantumNasConfig {
        num_blocks: 3,
        population: 6,
        generations: 3,
        valid_samples: 16,
        train: SuperTrainConfig { epochs: 2, batch_size: 16, ..Default::default() },
        ..Default::default()
    };
    let result = quantum_nas_search(&device, &data, 3, &config, None);
    assert!(is_hardware_efficient(&result.physical_circuit, &device));

    // Final circuit trains from scratch (the paper's protocol).
    let model = QuantumClassifier::new(result.circuit.clone(), 2);
    let outcome = train(
        &model,
        data.train(),
        &TrainConfig { epochs: 20, batch_size: 16, ..Default::default() },
    );
    let acc = accuracy(&model, &outcome.params, data.test());
    assert!(acc >= 0.4, "accuracy {acc}");
}

#[test]
fn supernet_circuit_compiles_and_trains() {
    let device = ibm_lagos();
    let data = moons(48, 16, 3).normalized(std::f64::consts::PI);
    let config = SupernetConfig {
        num_blocks: 3,
        num_samples: 5,
        valid_samples: 12,
        train: SuperTrainConfig { epochs: 2, batch_size: 16, ..Default::default() },
        seed: 0,
    };
    let result = supernet_search(&data, 3, &config, None);
    let compiled = compile(
        &result.circuit,
        &device,
        CompileOptions { level: OptimizationLevel::O3, basis: TwoQubitBasis::Cx, seed: 0 },
    );
    assert!(is_hardware_efficient(&compiled.circuit, &device));
    // CRY entanglers must have been lowered to the native basis.
    assert!(compiled
        .circuit
        .instructions()
        .iter()
        .all(|i| i.qubits.len() == 1 || i.gate == elivagar_circuit::Gate::Cx));
}

#[test]
fn all_baselines_share_the_parameter_budget_convention() {
    let mut rng = StdRng::seed_from_u64(5);
    let random = random_baseline_circuit(4, 20, 1, 4, &mut rng);
    assert_eq!(random.num_trainable_params(), 20);
    for (_, human) in human_baseline_circuits(4, 4, 20, 1) {
        assert!(human.num_trainable_params() >= 20);
    }
}

#[test]
fn compiled_baselines_preserve_training_semantics() {
    // Training the logical circuit and evaluating the compiled circuit
    // must agree noiselessly — the harness relies on this.
    let device = ibm_lagos();
    let data = moons(48, 24, 6).normalized(std::f64::consts::PI);
    let mut rng = StdRng::seed_from_u64(8);
    let logical = random_baseline_circuit(3, 8, 1, 2, &mut rng);
    let compiled = compile(
        &logical,
        &device,
        CompileOptions { level: OptimizationLevel::O2, basis: TwoQubitBasis::Cx, seed: 2 },
    );
    let logical_model = QuantumClassifier::new(logical, 2);
    let outcome = train(
        &logical_model,
        data.train(),
        &TrainConfig { epochs: 15, batch_size: 16, ..Default::default() },
    );
    // Compact the compiled circuit and compare logits on a few samples.
    let mut used: Vec<usize> = compiled
        .circuit
        .instructions()
        .iter()
        .flat_map(|i| i.qubits.iter().copied())
        .chain(compiled.circuit.measured().iter().copied())
        .collect();
    used.sort_unstable();
    used.dedup();
    let pos = |q: usize| used.binary_search(&q).expect("used qubit");
    let mut compact = elivagar_circuit::Circuit::new(used.len());
    for ins in compiled.circuit.instructions() {
        let qubits: Vec<usize> = ins.qubits.iter().map(|&q| pos(q)).collect();
        compact.push(elivagar_circuit::Instruction::new(ins.gate, qubits, ins.params.clone()));
    }
    compact.set_measured(compiled.circuit.measured().iter().map(|&q| pos(q)).collect());
    let compact_model = QuantumClassifier::new(compact, 2);
    for x in data.test().features.iter().take(5) {
        let a = logical_model.logits(&outcome.params, x);
        let b = compact_model.logits(&outcome.params, x);
        for (la, lb) in a.iter().zip(&b) {
            assert!((la - lb).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }
}
