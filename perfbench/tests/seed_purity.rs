//! Seed purity: for one seed, every count and quality metric repeats
//! exactly across runs and across pool sizes (the library guarantees
//! bit-identical results at any thread count). Only timings may vary.

use std::process::Command;

/// The end-to-end metrics that must repeat exactly for a seed.
const EXACT: &[&str] = &[
    "circuit_executions",
    "winner_score",
    "test_accuracy",
    "noisy_accuracy",
    "ok_ratio",
];

/// Runs one short untraced run and returns its result line.
fn run(workload: &str, seed: u64, threads: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--threads", &threads.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The literal value text of metric `name` in a result line.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let len = line[start..]
        .find(',')
        .expect("value is followed by its unit");
    &line[start..start + len]
}

fn check(workload: &str) {
    let first = run(workload, 11, 2);
    assert!(
        first.starts_with("{\"correct\": true,"),
        "{workload}: {first}"
    );
    let again = run(workload, 11, 2);
    let single = run(workload, 11, 1);
    for name in EXACT {
        let v = value(&first, name);
        assert_eq!(
            v,
            value(&again, name),
            "{workload}: {name} differs between runs"
        );
        assert_eq!(
            v,
            value(&single, name),
            "{workload}: {name} differs at one thread"
        );
    }
    let other = run(workload, 12, 2);
    assert_ne!(
        value(&first, "winner_score"),
        value(&other, "winner_score"),
        "{workload}: another seed must give other requests"
    );
}

#[test]
fn oneshot_mnist10_is_seed_pure() {
    check("oneshot-mnist10");
}

#[test]
fn cohort_fmnist4_is_seed_pure() {
    check("cohort-fmnist4");
}

#[test]
fn serve_burst_is_seed_pure() {
    check("serve-burst");
}
