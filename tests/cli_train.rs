//! End-to-end checks of the cohort-training CLI flags: `--train-batch`
//! trains the top-k candidates together inside the search stage (the
//! winner's parameters come from the cohort, so no solo retraining runs),
//! and `--train-topk` adds successive-halving rungs. Both must compose
//! with either search strategy and keep stdout pure QASM.

use std::process::Command;

fn run_cli(extra: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
        .args([
            "search",
            "--benchmark",
            "moons",
            "--device",
            "ibm-lagos",
            "--candidates",
            "8",
            "--epochs",
            "4",
        ])
        .args(extra)
        .output()
        .expect("CLI binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "CLI failed.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    (stdout, stderr)
}

#[test]
fn train_batch_flag_trains_a_cohort_under_oneshot() {
    let (stdout, stderr) = run_cli(&["--train-batch", "3", "--stats"]);
    assert!(
        stderr.contains("cohort-trained 3 candidates"),
        "cohort message missing:\n{stderr}"
    );
    assert!(
        !stderr.contains("training for 4 epochs"),
        "winner must not retrain solo:\n{stderr}"
    );
    // The run report surfaces the batched-training counters.
    assert!(
        stderr.contains("train.batched_candidates"),
        "missing cohort counter in stats:\n{stderr}"
    );
    assert!(stdout.contains("OPENQASM"), "stdout is not QASM:\n{stdout}");
}

#[test]
fn train_topk_flag_prunes_with_successive_halving() {
    let (stdout, stderr) =
        run_cli(&["--train-batch", "3", "--train-topk", "2", "--stats"]);
    assert!(
        stderr.contains("cohort-trained 3 candidates in fused batches (2 pruned early)"),
        "halving must prune 3 -> 2 -> 1:\n{stderr}"
    );
    assert!(
        stderr.contains("train.pruned"),
        "missing prune counter in stats:\n{stderr}"
    );
    assert!(stdout.contains("OPENQASM"), "stdout is not QASM:\n{stdout}");
}

#[test]
fn train_flags_compose_with_nsga2_strategy() {
    let (stdout, stderr) = run_cli(&[
        "--strategy",
        "nsga2",
        "--population",
        "6",
        "--generations",
        "1",
        "--train-batch",
        "2",
    ]);
    assert!(
        stderr.contains("Pareto front"),
        "nsga2 front missing:\n{stderr}"
    );
    assert!(
        stderr.contains("cohort-trained 2 candidates"),
        "cohort message missing:\n{stderr}"
    );
    assert!(stdout.contains("OPENQASM"), "stdout is not QASM:\n{stdout}");
}

#[test]
fn cohort_winner_params_match_solo_training_bit_for_bit() {
    // With halving off, every cohort member trains bit for bit as it
    // would alone, and a plain run trains the winner alone (a one-member
    // cohort) — the emitted QASM (trained angles bound in) must be
    // byte-identical.
    let (solo_stdout, _) = run_cli(&[]);
    let (cohort_stdout, _) = run_cli(&["--train-batch", "3"]);
    assert_eq!(
        solo_stdout, cohort_stdout,
        "cohort-trained winner diverged from solo training"
    );
}
