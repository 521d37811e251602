//! The gate binaries' shared ending: record the report, then enforce the
//! bounds it must meet.
//!
//! Each `bench_*` gate binary measures one engine's cost, builds its
//! report and the [`Bound`]s that report must meet, and returns
//! [`finish`]'s exit code from `main`. The report is written before any
//! bound is checked, so a failing run still records what it measured.

use serde::Serialize;
use std::fmt::Debug;
use std::process::ExitCode;

/// One bound a gate binary enforces on a measured value.
#[derive(Debug)]
pub struct Bound {
    /// The bound as printed, e.g. `speedup >= 5.0`.
    rule: String,
    /// The measured value as printed.
    measured: String,
    holds: bool,
}

impl Bound {
    /// `value >= min`. A NaN value misses the bound.
    pub fn at_least<T: PartialOrd + Debug>(name: &str, value: T, min: T) -> Self {
        Bound {
            rule: format!("{name} >= {min:?}"),
            measured: format!("{value:?}"),
            holds: value >= min,
        }
    }

    /// `value <= max`. A NaN value misses the bound.
    pub fn at_most<T: PartialOrd + Debug>(name: &str, value: T, max: T) -> Self {
        Bound {
            rule: format!("{name} <= {max:?}"),
            measured: format!("{value:?}"),
            holds: value <= max,
        }
    }

    /// A property that must hold, such as an equality check.
    pub fn holds(name: &str, value: bool) -> Self {
        Bound { rule: name.to_string(), measured: value.to_string(), holds: value }
    }

    /// `<gate>: ok <rule> (measured <value>)`, or `FAILED` in place of `ok`.
    fn verdict(&self, gate: &str) -> String {
        let status = if self.holds { "ok" } else { "FAILED" };
        format!("{gate}: {status} {} (measured {})", self.rule, self.measured)
    }
}

/// Writes `report` as one JSON line to `BENCH_<name>.json` and stdout,
/// then prints one `ok`/`FAILED` line per bound to stderr. Returns
/// failure unless every bound holds.
pub fn finish(name: &str, report: &impl Serialize, bounds: &[Bound]) -> ExitCode {
    let json = serde_json::to_string(report).expect("report serializes");
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}");
    let gate = format!("bench_{name}");
    for bound in bounds {
        eprintln!("{}", bound.verdict(&gate));
    }
    if bounds.iter().all(|b| b.holds) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_include_their_limit_and_reject_nan() {
        assert!(Bound::at_least("speedup", 5.0, 5.0).holds);
        assert!(!Bound::at_least("speedup", 4.99, 5.0).holds);
        assert!(!Bound::at_least("speedup", f64::NAN, 5.0).holds);
        assert!(Bound::at_most("ratio", 7.5, 7.5).holds);
        assert!(!Bound::at_most("ratio", 7.51, 7.5).holds);
        assert!(!Bound::at_most("ratio", f64::NAN, 7.5).holds);
        assert!(Bound::at_least("front_size", 2usize, 2).holds);
        assert!(!Bound::at_least("front_size", 1usize, 2).holds);
        assert!(Bound::holds("winner_match", true).holds);
        assert!(!Bound::holds("winner_match", false).holds);
    }

    #[test]
    fn verdict_names_the_rule_and_the_measured_value() {
        assert_eq!(
            Bound::at_least("speedup", 3.25, 5.0).verdict("bench_cnr"),
            "bench_cnr: FAILED speedup >= 5.0 (measured 3.25)"
        );
        assert_eq!(
            Bound::at_most("gradient_over_forward", 6.0, 7.5).verdict("bench_fusion"),
            "bench_fusion: ok gradient_over_forward <= 7.5 (measured 6.0)"
        );
        assert_eq!(
            Bound::holds("ranking_match", false).verdict("bench_train"),
            "bench_train: FAILED ranking_match (measured false)"
        );
    }
}
