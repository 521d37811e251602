//! Fig. 6b: RepCap predicts trained circuit performance on FMNIST-2 as
//! well as a trained SuperCircuit does, without any training.
//!
//! The paper reports R = 0.708 for the SuperCircuit-predicted loss and
//! R = -0.716 for RepCap against trained loss (RepCap is negatively
//! correlated with loss: higher capacity, lower loss).

use elivagar::repcap;
use elivagar_baselines::{train_supercircuit, Entangler, SuperCircuit, SuperTrainConfig};
use elivagar_baselines::subcircuit_validation_loss;
use elivagar_bench::{load_benchmark, pearson, print_table, search_config_for, Scale};
use elivagar_datasets::spec;
use elivagar_ml::{evaluate_loss, train, QuantumClassifier, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Predictor-vs-ground-truth experiments need well-converged ground
    // truth: train longer and test on more samples than the generic smoke
    // scale.
    let mut scale = Scale::from_env();
    scale.epochs = scale.epochs.max(80);
    scale.test_n = scale.test_n.max(100);
    let bench = spec("fmnist-2").expect("known benchmark");
    let dataset = load_benchmark("fmnist-2", scale, 0x0F16_0006);
    let num_circuits = scale.candidates.max(24);

    // One shared SuperCircuit space; candidates are its subcircuits so the
    // SuperCircuit predictor is applicable to every candidate.
    // TorchQuantum's binary classifiers measure every qubit (the class
    // score averages <Z> over all wires); richer marginals also give both
    // predictors more signal.
    let space = SuperCircuit::new(bench.qubits, 6, Entangler::Cz, bench.feature_dim, bench.qubits);
    // The SuperCircuit must be trained properly for its loss predictions to
    // mean anything — this is exactly the expensive phase Elivagar avoids.
    let train_cfg = SuperTrainConfig {
        epochs: scale.epochs,
        batch_size: 32,
        ..Default::default()
    };
    let trained = train_supercircuit(&space, dataset.train(), 2, &train_cfg);

    let mut repcap_cfg = search_config_for(bench, scale, 1);
    repcap_cfg.repcap_param_inits = 16;
    repcap_cfg.repcap_bases = 6;
    let mut rng = StdRng::seed_from_u64(0x0F16_0006);
    let mut super_pred = Vec::new();
    let mut repcaps = Vec::new();
    let mut trained_losses = Vec::new();
    let (samples, labels) = dataset.sample_per_class(repcap_cfg.repcap_samples_per_class, &mut rng);

    for i in 0..num_circuits {
        let sub = space.sample_config(&mut rng);
        let (pred_loss, _) =
            subcircuit_validation_loss(&space, &sub, &trained.shared, dataset.test(), 2, None);
        let (circuit, _) = space.extract(&sub, &trained.shared);
        let rc = repcap(&circuit, &samples, &labels, &repcap_cfg, &mut rng).repcap;
        // Ground truth: train the standalone circuit from scratch,
        // averaging two initializations to damp init luck.
        let model = QuantumClassifier::new(circuit, 2);
        let mut loss = 0.0;
        for s in 0..2u64 {
            let outcome = train(
                &model,
                dataset.train(),
                &TrainConfig {
                    epochs: scale.epochs,
                    batch_size: 32,
                    seed: 2 * i as u64 + s,
                    ..Default::default()
                },
            );
            loss += evaluate_loss(&model, &outcome.params, dataset.test()) / 2.0;
        }
        println!(
            "circuit {i:2}: supercircuit_loss={pred_loss:.4} repcap={rc:.4} trained_loss={loss:.4}"
        );
        super_pred.push(pred_loss);
        repcaps.push(rc);
        trained_losses.push(loss);
    }

    let r_super = pearson(&super_pred, &trained_losses);
    let r_repcap = pearson(&repcaps, &trained_losses);
    print_table(
        "Fig. 6b: predictor correlation with trained loss on FMNIST-2 (paper: +0.708 / -0.716)",
        &["predictor", "pearson R"],
        &[
            vec!["supercircuit loss".into(), format!("{r_super:.3}")],
            vec!["repcap".into(), format!("{r_repcap:.3}")],
        ],
    );
}
