//! Flags of `elivagar-cli` are validated up front: an unknown flag or a
//! missing, malformed or out-of-range value is rejected with a message and
//! exit code 1 before any work starts, never silently replaced by the
//! default.

use std::process::Command;

fn search(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
        .args(["search", "--benchmark", "moons", "--device", "ibm-lagos"])
        .args(extra)
        .output()
        .expect("CLI binary runs")
}

#[test]
fn malformed_numeric_search_flags_exit_with_code_1() {
    for (flag, value) in [
        ("--candidates", "4x"),
        ("--params", "-3"),
        ("--epochs", ""),
        ("--seed", "1.5"),
        ("--population", "many"),
        ("--train-batch", "3 "),
    ] {
        let output = search(&[flag, value]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} {value:?}:\n{stderr}");
        assert!(
            stderr.contains(&format!("{flag} expects an unsigned integer, got {value:?}")),
            "{flag} {value:?} must name the bad value:\n{stderr}"
        );
        assert!(
            !stderr.contains("searching"),
            "{flag} {value:?} must fail before the search starts:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{flag} {value:?} printed QASM");
    }
}

#[test]
fn zero_training_epochs_exit_with_code_1_before_any_work() {
    let output = search(&["--epochs", "0"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "search --epochs 0:\n{stderr}");
    assert!(stderr.contains("--epochs must be >= 1"), "search --epochs 0:\n{stderr}");
    assert!(!stderr.contains("searching"), "search --epochs 0 started work:\n{stderr}");
    assert!(output.stdout.is_empty(), "search --epochs 0 printed QASM");

    let spool = std::env::temp_dir().join(format!("elivagar-cli-args-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
        .args(["submit", "--spool"])
        .arg(&spool)
        .args(["--id", "zero", "--epochs", "0"])
        .output()
        .expect("CLI binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "submit --epochs 0:\n{stderr}");
    assert!(stderr.contains("--epochs must be >= 1"), "submit --epochs 0:\n{stderr}");
    assert!(!spool.exists(), "submit --epochs 0 created the spool");
}

#[test]
fn out_of_range_numeric_flags_exit_with_code_1_before_any_work() {
    // u64::MAX + 1: too large for every numeric flag.
    let huge = "18446744073709551616";
    for (flag, value, message) in [
        ("--candidates", "0", "--candidates must be >= 1".to_string()),
        ("--params", "0", "--params must be >= 1".to_string()),
        ("--population", "1", "--population must be >= 2".to_string()),
        ("--train-batch", "0", "--train-batch must be >= 1".to_string()),
        ("--seed", huge, format!("--seed is out of range, got {huge:?}")),
    ] {
        let output = search(&["--strategy", "nsga2", flag, value]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} {value}:\n{stderr}");
        assert!(stderr.contains(&message), "{flag} {value} must say why:\n{stderr}");
        assert!(
            !stderr.contains("evolving"),
            "{flag} {value} must fail before the search starts:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{flag} {value} printed QASM");
    }

    let spool = std::env::temp_dir().join(format!("elivagar-cli-range-{}", std::process::id()));
    // --priority is a u8 and --max-retries a u32.
    let submit_cases = [
        ("--priority", "300", "--priority is out of range, got \"300\"".to_string()),
        ("--max-retries", "4294967296", "--max-retries is out of range, got \"4294967296\"".into()),
        ("--candidates", huge, format!("--candidates is out of range, got {huge:?}")),
        ("--slice-records", "0", "--slice-records must be >= 1".into()),
        ("--train-size", "0", "--train-size must be >= 1".into()),
        ("--test-size", "0", "--test-size must be >= 1".into()),
    ];
    for (flag, value, message) in submit_cases {
        let output = Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
            .args(["submit", "--spool"])
            .arg(&spool)
            .args(["--id", "range", flag, value])
            .output()
            .expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "submit {flag} {value}:\n{stderr}");
        assert!(stderr.contains(&message), "submit {flag} {value} must say why:\n{stderr}");
        assert!(!spool.exists(), "submit {flag} {value} created the spool");
    }
}

#[test]
fn flag_without_a_value_exits_with_code_1_before_any_work() {
    // Last on the line, or followed by another flag instead of a value.
    for extra in [&["--strategy"][..], &["--candidates", "--seed", "3"], &["--trace-out"]] {
        let output = search(extra);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{extra:?}:\n{stderr}");
        assert!(
            stderr.contains(&format!("{} expects a value", extra[0])),
            "{extra:?} must name the flag:\n{stderr}"
        );
        assert!(!stderr.contains("searching"), "{extra:?} started work:\n{stderr}");
        assert!(output.stdout.is_empty(), "{extra:?} printed QASM");
    }

    // Run from an empty directory, so a flag taken as a path would show
    // up there.
    let cwd = std::env::temp_dir().join(format!("elivagar-cli-novalue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    for (args, flag) in [
        (&["--spool", "spool", "--id", "x", "--priority"][..], "--priority"),
        (&["--spool", "spool", "--id", "x", "--seed", "--tenant", "t"], "--seed"),
        (&["--spool", "--id", "z"], "--spool"),
        (&["--spool", "spool", "--id", "--tenant", "t"], "--id"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
            .arg("submit")
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "submit {args:?}:\n{stderr}");
        assert!(stderr.contains(&format!("{flag} expects a value")), "submit {args:?}:\n{stderr}");
        let left: Vec<_> =
            std::fs::read_dir(&cwd).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(left.is_empty(), "submit {args:?} created {left:?}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn unknown_flags_exit_with_code_1_before_any_work() {
    // Typos of `--slice-records` and `--candidates`: ignored, they spooled
    // a job at the daemon's default slice size, or ran a default
    // 24-candidate, 60-epoch search.
    let cwd = std::env::temp_dir().join(format!("elivagar-cli-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    for (args, flag) in [
        (&["submit", "--spool", "spool", "--id", "x", "--slice-record", "3"][..], "--slice-record"),
        (
            &["search", "--benchmark", "moons", "--device", "ibm-lagos", "--candidate", "2", "--epoch", "1"],
            "--candidate",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_elivagar-cli"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{args:?}:\n{stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed QASM");
        let left: Vec<_> =
            std::fs::read_dir(&cwd).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(left.is_empty(), "{args:?} created {left:?}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}
