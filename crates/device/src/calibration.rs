//! Per-qubit calibration data.
//!
//! Real devices publish daily calibrations (readout error, gate errors, T1,
//! T2). We cannot access the original snapshots, so [`Calibration::synthesize`]
//! generates per-qubit values log-normally spread around the *median* rates
//! the paper reports in Table 3, which preserves what the experiments use:
//! realistic qubit-to-qubit variability around device-accurate medians.

use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a calibration snapshot was rejected.
///
/// Calibration data reaches the noise model without further checks, so a
/// corrupted snapshot (NaN readout error, negative T1) would silently
/// produce meaningless CNR scores. Loading therefore validates every field
/// and fails with one of these instead.
#[derive(Clone, Debug, PartialEq)]
pub enum CalibrationError {
    /// An error probability is non-finite or outside `[0, 1]`.
    ErrorRateOutOfRange {
        /// Which field the value came from.
        field: &'static str,
        /// Index within the per-qubit/per-edge vector (`None` for
        /// scalars).
        index: Option<usize>,
        /// The offending value.
        value: f64,
    },
    /// A coherence time or gate/readout duration is non-finite or
    /// non-positive.
    InvalidDuration {
        /// Which field the value came from.
        field: &'static str,
        /// Index within the per-qubit vector (`None` for scalars).
        index: Option<usize>,
        /// The offending value.
        value: f64,
    },
    /// The JSON payload could not be parsed at all.
    Parse {
        /// Parser diagnosis.
        reason: String,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |index: &Option<usize>| match index {
            Some(i) => format!("[{i}]"),
            None => String::new(),
        };
        match self {
            CalibrationError::ErrorRateOutOfRange { field, index, value } => write!(
                f,
                "calibration field {field}{} holds {value}, not a probability in [0, 1]",
                at(index)
            ),
            CalibrationError::InvalidDuration { field, index, value } => write!(
                f,
                "calibration field {field}{} holds {value}, not a positive finite duration",
                at(index)
            ),
            CalibrationError::Parse { reason } => {
                write!(f, "calibration JSON failed to parse: {reason}")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Median error rates and coherence times describing a device class.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CalibrationSpec {
    /// Median readout (measurement) error probability.
    pub readout_error: f64,
    /// Median single-qubit gate error probability.
    pub gate1q_error: f64,
    /// Median two-qubit gate error probability.
    pub gate2q_error: f64,
    /// Median T1 (microseconds).
    pub t1_us: f64,
    /// Median T2 (microseconds).
    pub t2_us: f64,
    /// Single-qubit gate duration (microseconds).
    pub gate1q_time_us: f64,
    /// Two-qubit gate duration (microseconds).
    pub gate2q_time_us: f64,
    /// Readout duration (microseconds).
    pub readout_time_us: f64,
}

/// Concrete per-qubit / per-edge calibration for one device snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Readout error per qubit.
    pub readout_error: Vec<f64>,
    /// Single-qubit gate error per qubit.
    pub gate1q_error: Vec<f64>,
    /// Two-qubit gate error per topology edge (aligned with
    /// `Topology::edges`).
    pub gate2q_error: Vec<f64>,
    /// T1 per qubit (microseconds).
    pub t1_us: Vec<f64>,
    /// T2 per qubit (microseconds).
    pub t2_us: Vec<f64>,
    /// Gate and readout durations (microseconds).
    pub gate1q_time_us: f64,
    /// Two-qubit gate duration (microseconds).
    pub gate2q_time_us: f64,
    /// Readout duration (microseconds).
    pub readout_time_us: f64,
}

/// Multiplicative log-normal spread applied around each median
/// (`sigma` of `ln` value). Chosen so that the best/worst qubits differ by
/// roughly 3-5x, as on real calibration snapshots.
const LOG_SPREAD: f64 = 0.45;

fn lognormal_around<R: Rng + ?Sized>(median: f64, rng: &mut R) -> f64 {
    // Box-Muller standard normal.
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    median * (LOG_SPREAD * z).exp()
}

impl Calibration {
    /// Synthesizes a reproducible calibration snapshot for a topology from
    /// device-class medians.
    ///
    /// Error probabilities are clamped to `[1e-6, 0.5]`; T2 is clamped to
    /// at most `2 * T1` (the physical bound).
    pub fn synthesize(topology: &Topology, spec: &CalibrationSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = topology.num_qubits();
        let clamp_p = |p: f64| p.clamp(1e-6, 0.5);
        let readout_error = (0..n)
            .map(|_| clamp_p(lognormal_around(spec.readout_error, &mut rng)))
            .collect();
        let gate1q_error = (0..n)
            .map(|_| clamp_p(lognormal_around(spec.gate1q_error, &mut rng)))
            .collect();
        let gate2q_error = topology
            .edges()
            .iter()
            .map(|_| clamp_p(lognormal_around(spec.gate2q_error, &mut rng)))
            .collect();
        let t1_us: Vec<f64> = (0..n)
            .map(|_| lognormal_around(spec.t1_us, &mut rng).max(1.0))
            .collect();
        let t2_us = (0..n)
            .map(|q| lognormal_around(spec.t2_us, &mut rng).clamp(1.0, 2.0 * t1_us[q]))
            .collect();
        Calibration {
            readout_error,
            gate1q_error,
            gate2q_error,
            t1_us,
            t2_us,
            gate1q_time_us: spec.gate1q_time_us,
            gate2q_time_us: spec.gate2q_time_us,
            readout_time_us: spec.readout_time_us,
        }
    }

    /// Parses a calibration snapshot from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::Parse`] for malformed JSON and the
    /// [`Calibration::validate`] errors for well-formed but physically
    /// invalid data.
    pub fn from_json(json: &str) -> Result<Self, CalibrationError> {
        let cal: Calibration = serde_json::from_str(json).map_err(|e| {
            CalibrationError::Parse {
                reason: format!("{e:?}"),
            }
        })?;
        cal.validate()?;
        Ok(cal)
    }

    /// Validates every field: error rates must be finite probabilities in
    /// `[0, 1]`, coherence times and durations finite and positive.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, naming the field and index.
    pub fn validate(&self) -> Result<(), CalibrationError> {
        let check_rates = |field: &'static str, values: &[f64]| {
            for (i, &value) in values.iter().enumerate() {
                if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                    return Err(CalibrationError::ErrorRateOutOfRange {
                        field,
                        index: Some(i),
                        value,
                    });
                }
            }
            Ok(())
        };
        check_rates("readout_error", &self.readout_error)?;
        check_rates("gate1q_error", &self.gate1q_error)?;
        check_rates("gate2q_error", &self.gate2q_error)?;
        let check_times = |field: &'static str, values: &[f64]| {
            for (i, &value) in values.iter().enumerate() {
                if !value.is_finite() || value <= 0.0 {
                    return Err(CalibrationError::InvalidDuration {
                        field,
                        index: Some(i),
                        value,
                    });
                }
            }
            Ok(())
        };
        check_times("t1_us", &self.t1_us)?;
        check_times("t2_us", &self.t2_us)?;
        for (field, value) in [
            ("gate1q_time_us", self.gate1q_time_us),
            ("gate2q_time_us", self.gate2q_time_us),
            ("readout_time_us", self.readout_time_us),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(CalibrationError::InvalidDuration {
                    field,
                    index: None,
                    value,
                });
            }
        }
        Ok(())
    }

    /// Median of the per-qubit readout errors.
    pub fn median_readout_error(&self) -> f64 {
        median(&self.readout_error)
    }

    /// Median of the per-edge two-qubit gate errors.
    pub fn median_gate2q_error(&self) -> f64 {
        median(&self.gate2q_error)
    }
}

/// Median of a non-empty slice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in calibration data"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CalibrationSpec {
        CalibrationSpec {
            readout_error: 2.0e-2,
            gate1q_error: 2.5e-4,
            gate2q_error: 9.0e-3,
            t1_us: 120.0,
            t2_us: 100.0,
            gate1q_time_us: 0.035,
            gate2q_time_us: 0.35,
            readout_time_us: 0.8,
        }
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let topo = Topology::ring(8);
        let a = Calibration::synthesize(&topo, &spec(), 7);
        let b = Calibration::synthesize(&topo, &spec(), 7);
        let c = Calibration::synthesize(&topo, &spec(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn medians_are_close_to_spec() {
        let topo = Topology::heavy_hex(7, 15);
        let cal = Calibration::synthesize(&topo, &spec(), 1);
        // Log-normal with sigma 0.45 has median equal to the spec value;
        // with 127 samples the sample median is within ~20%.
        assert!((cal.median_readout_error() / spec().readout_error - 1.0).abs() < 0.3);
        assert!((cal.median_gate2q_error() / spec().gate2q_error - 1.0).abs() < 0.3);
    }

    #[test]
    fn t2_respects_physical_bound() {
        let topo = Topology::ring(16);
        let cal = Calibration::synthesize(&topo, &spec(), 3);
        for (t1, t2) in cal.t1_us.iter().zip(&cal.t2_us) {
            assert!(*t2 <= 2.0 * t1 + 1e-12);
        }
    }

    #[test]
    fn shapes_match_topology() {
        let topo = Topology::aspen(1, 2);
        let cal = Calibration::synthesize(&topo, &spec(), 5);
        assert_eq!(cal.readout_error.len(), topo.num_qubits());
        assert_eq!(cal.gate2q_error.len(), topo.edges().len());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn synthesized_snapshots_validate_and_roundtrip() {
        let topo = Topology::ring(8);
        let cal = Calibration::synthesize(&topo, &spec(), 7);
        cal.validate().expect("synthesized data is valid");
        let json = serde_json::to_string(&cal).expect("serializes");
        let loaded = Calibration::from_json(&json).expect("roundtrips");
        assert_eq!(loaded, cal);
    }

    #[test]
    fn corrupted_fixtures_are_rejected_with_typed_errors() {
        let topo = Topology::ring(4);
        let good = Calibration::synthesize(&topo, &spec(), 7);

        // Out-of-range error probability.
        let mut cal = good.clone();
        cal.gate2q_error[2] = 1.5;
        assert_eq!(
            cal.validate(),
            Err(CalibrationError::ErrorRateOutOfRange {
                field: "gate2q_error",
                index: Some(2),
                value: 1.5,
            })
        );

        // Negative error probability.
        let mut cal = good.clone();
        cal.readout_error[0] = -0.01;
        assert!(matches!(
            cal.validate(),
            Err(CalibrationError::ErrorRateOutOfRange { field: "readout_error", .. })
        ));

        // Non-finite error probability.
        let mut cal = good.clone();
        cal.gate1q_error[1] = f64::NAN;
        assert!(matches!(
            cal.validate(),
            Err(CalibrationError::ErrorRateOutOfRange { field: "gate1q_error", index: Some(1), .. })
        ));

        // Negative coherence time.
        let mut cal = good.clone();
        cal.t1_us[3] = -120.0;
        assert!(matches!(
            cal.validate(),
            Err(CalibrationError::InvalidDuration { field: "t1_us", index: Some(3), .. })
        ));

        // Zero scalar duration.
        let mut cal = good.clone();
        cal.readout_time_us = 0.0;
        assert_eq!(
            cal.validate(),
            Err(CalibrationError::InvalidDuration {
                field: "readout_time_us",
                index: None,
                value: 0.0,
            })
        );
    }

    #[test]
    fn corrupted_json_fixture_is_rejected_on_load() {
        let topo = Topology::ring(4);
        let cal = Calibration::synthesize(&topo, &spec(), 7);
        let json = serde_json::to_string(&cal).expect("serializes");

        // A corrupted on-disk snapshot: one readout error replaced with a
        // value outside [0, 1].
        let first = cal.readout_error[0];
        let corrupted = json.replacen(&format!("{first}"), "42.0", 1);
        assert_ne!(corrupted, json, "fixture corruption applied");
        let err = Calibration::from_json(&corrupted).expect_err("rejected on load");
        assert!(
            matches!(err, CalibrationError::ErrorRateOutOfRange { field: "readout_error", .. }),
            "{err}"
        );

        // Structurally broken JSON reports a parse error.
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            Calibration::from_json(truncated),
            Err(CalibrationError::Parse { .. })
        ));
    }
}
