//! Numeric flags of `elivagar-cli search` are validated up front: a
//! malformed value is rejected with a message and exit code 1 before any
//! search work starts, never silently replaced by the default.

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
