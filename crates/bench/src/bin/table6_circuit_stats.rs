//! Table 6: compiled circuit statistics (1Q gates, 2Q gates, depth, and
//! noisy accuracy) for every method on Vowel-2 / MNIST-4 / MNIST-10.
//!
//! The shape to reproduce: Random, Human-designed, and QuantumSupernet
//! circuits stay large and deep after compilation (device-unaware), while
//! QuantumNAS and especially Elivagar select far shallower circuits — and
//! Elivagar still scores highest.

use elivagar::EmbeddingPolicy;
use elivagar_bench::{
    print_table, run_elivagar, run_human_baseline, run_quantumnas, run_random_baseline,
    run_supernet, MethodOutcome, Scale,
};
use elivagar_device::devices::{ibm_lagos, ibm_nairobi, ibm_osaka};

fn row(bench: &str, device: &str, o: &MethodOutcome) -> Vec<String> {
    vec![
        bench.to_string(),
        device.to_string(),
        o.method.clone(),
        o.compiled_1q.to_string(),
        o.compiled_2q.to_string(),
        o.compiled_depth.to_string(),
        format!("{:.3}", o.noisy_accuracy),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let full = scale == Scale::full();
    let mut tasks = vec![
        (ibm_nairobi(), "vowel-2"),
        (ibm_lagos(), "mnist-4"),
    ];
    if full {
        // MNIST-10 on the 127-qubit Osaka is the heavyweight row.
        tasks.push((ibm_osaka(), "mnist-10"));
    }

    let mut rows = Vec::new();
    for (device, bench) in &tasks {
        eprintln!("running {bench} on {} ...", device.name());
        let random = {
            let mut o = run_random_baseline(bench, device, scale, 61);
            o.method = "random".into();
            o
        };
        let human = {
            let mut o = run_human_baseline(bench, device, scale, 62);
            o.method = "human-designed".into();
            o
        };
        let supernet = run_supernet(bench, device, scale, 63);
        let qnas = run_quantumnas(bench, device, scale, 64);
        let (eliv, _) = run_elivagar(bench, device, scale, 65, EmbeddingPolicy::Searched);
        for o in [&random, &human, &supernet, &qnas, &eliv] {
            rows.push(row(bench, device.name(), o));
        }
    }

    print_table(
        "Table 6: compiled circuit statistics per method",
        &["benchmark", "device", "method", "1Q gates", "2Q gates", "depth", "noisy acc"],
        &rows,
    );
}
