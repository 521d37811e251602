//! Fig. 11: compatibility with complementary QML frameworks — QuantumNAT
//! (noise-aware training, 11a) and QTN-VQC (classical tensor-train
//! preprocessing, 11b) combined with both Elivagar and QuantumNAS.
//!
//! The paper's shape: each add-on lifts both methods, and Elivagar keeps
//! its lead over QuantumNAS with and without the add-ons.

use elivagar::EmbeddingPolicy;
use elivagar_bench::{
    compact_circuit, load_benchmark, mean, print_table, run_elivagar, run_quantumnas, Scale,
};
use elivagar_baselines::{
    qtn_vqc_noisy_accuracy, quantumnat_noisy_accuracy, train_qtn_vqc, train_quantumnat,
    QtnVqcConfig, QuantumNatConfig,
};
use elivagar_circuit::Circuit;
use elivagar_device::devices::{ibm_nairobi, ibm_perth, ibmq_jakarta};
use elivagar_device::{circuit_noise, Device};
use elivagar_ml::QuantumClassifier;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Re-trains a searched physical circuit with QuantumNAT and evaluates it
/// under the device noise model.
fn nat_accuracy(
    device: &Device,
    physical: &Circuit,
    dataset: &elivagar_datasets::Dataset,
    scale: Scale,
    seed: u64,
) -> f64 {
    let noise = circuit_noise(device, physical).expect("executable circuit");
    let local = compact_circuit(physical);
    let model = QuantumClassifier::new(local, dataset.num_classes());
    let config = QuantumNatConfig {
        epochs: scale.epochs,
        injection_std: 0.08,
        seed,
        ..Default::default()
    };
    let nat = train_quantumnat(&model, dataset.train(), &config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA7);
    quantumnat_noisy_accuracy(&model, &nat, dataset.test(), &noise, scale.trajectories, &mut rng)
}

/// Re-trains a searched physical circuit jointly with a QTN-VQC
/// preprocessing layer and evaluates noisily.
fn qtn_accuracy(
    device: &Device,
    physical: &Circuit,
    dataset: &elivagar_datasets::Dataset,
    scale: Scale,
    seed: u64,
) -> f64 {
    let noise = circuit_noise(device, physical).expect("executable circuit");
    let local = compact_circuit(physical);
    let feature_dim = local.num_features_used().max(1);
    let model = QuantumClassifier::new(local, dataset.num_classes());
    let config = QtnVqcConfig { epochs: scale.epochs, seed, ..Default::default() };
    let qtn = train_qtn_vqc(&model, dataset.train(), dataset.feature_dim(), feature_dim, &config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB8);
    qtn_vqc_noisy_accuracy(&model, &qtn, dataset.test(), &noise, scale.trajectories, &mut rng)
}

fn main() {
    let scale = Scale::from_env();
    // Use the harder 4-class benchmarks: the 2-class surrogates saturate at
    // 1.0 under QTN-VQC, hiding the gaps the figure is about.
    let pairs = [
        (ibm_perth(), "mnist-4"),
        (ibm_nairobi(), "fmnist-4"),
        (ibmq_jakarta(), "bank"),
    ];

    let mut rows_nat = Vec::new();
    let mut rows_qtn = Vec::new();
    let mut nat_gain = Vec::new();
    let mut qtn_lead = Vec::new();
    for (device, bench) in &pairs {
        eprintln!("running {bench} on {} ...", device.name());
        let dataset = load_benchmark(bench, scale, 11);
        // Search once per method; re-train with each framework.
        let qnas = run_quantumnas(bench, device, scale, 11);
        let (eliv, eliv_search) =
            run_elivagar(bench, device, scale, 11, EmbeddingPolicy::Searched);
        let eliv_physical = eliv_search.best.physical_circuit(device);
        // QuantumNAS physical circuit: re-derive from its own run for the
        // framework retrainings.
        let qnas_result = elivagar_baselines::quantum_nas_search(
            device,
            &dataset,
            elivagar_datasets::spec(bench).expect("known benchmark").qubits,
            &elivagar_baselines::QuantumNasConfig {
                seed: 11,
                train: elivagar_baselines::SuperTrainConfig {
                    epochs: (scale.epochs / 5).max(2),
                    seed: 11,
                    ..Default::default()
                },
                ..Default::default()
            },
            None,
        );

        let qnas_nat = nat_accuracy(device, &qnas_result.physical_circuit, &dataset, scale, 12);
        let eliv_nat = nat_accuracy(device, &eliv_physical, &dataset, scale, 12);
        let qnas_qtn = qtn_accuracy(device, &qnas_result.physical_circuit, &dataset, scale, 13);
        let eliv_qtn = qtn_accuracy(device, &eliv_physical, &dataset, scale, 13);

        nat_gain.push(eliv_nat - eliv.noisy_accuracy);
        qtn_lead.push(eliv_qtn - qnas_qtn);
        rows_nat.push(vec![
            device.name().to_string(),
            bench.to_string(),
            format!("{:.3}", qnas.noisy_accuracy),
            format!("{qnas_nat:.3}"),
            format!("{:.3}", eliv.noisy_accuracy),
            format!("{eliv_nat:.3}"),
        ]);
        rows_qtn.push(vec![
            device.name().to_string(),
            bench.to_string(),
            format!("{qnas_qtn:.3}"),
            format!("{eliv_qtn:.3}"),
        ]);
    }

    print_table(
        "Fig. 11a: +/- QuantumNAT (noisy accuracy)",
        &["device", "benchmark", "qnas", "qnas+nat", "elivagar", "elivagar+nat"],
        &rows_nat,
    );
    print_table(
        "Fig. 11b: with QTN-VQC preprocessing (noisy accuracy)",
        &["device", "benchmark", "qnas+qtn", "elivagar+qtn"],
        &rows_qtn,
    );
    println!("\nmean QuantumNAT gain on elivagar: {:+.3} (paper: +0.055 when paired)", mean(&nat_gain));
    println!("mean elivagar lead under QTN-VQC: {:+.3} (paper: +0.024)", mean(&qtn_lead));
}
