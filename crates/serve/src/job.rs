//! Job specifications and lifecycle states.
//!
//! A [`JobSpec`] is the wire format clients drop into the daemon's spool
//! directory (or pass to [`Daemon::submit`]): one JSON object naming a
//! benchmark, a device, and the search knobs. Every field except `id` has
//! a default, so the smallest valid spec is `{"id":"my-job"}` — but
//! unknown fields are rejected at admission, so a typo'd knob surfaces as
//! a typed [`AdmitError`] instead of silently running with defaults.
//!
//! [`JobState`] is the scheduler-side lifecycle:
//!
//! ```text
//! Queued ──slice──▶ Queued ──▶ Done
//!   │                 │
//!   │ panic           ├──▶ Failed      (deadline, budget, search error)
//!   ▼                 │
//! Backoff ──▶ Queued  └──▶ DeadLetter  (retries exhausted)
//!   ▲    │
//!   └────┘          Shed  (displaced by a higher-priority admission)
//! ```
//!
//! [`Daemon::submit`]: crate::daemon::Daemon::submit
//! [`AdmitError`]: crate::daemon::AdmitError

use serde::{Deserialize, Error, Serialize, Value};

/// One search job as submitted by a client.
///
/// Serialization is derived; deserialization is hand-written so every
/// field except `id` is optional with a documented default (the vendored
/// serde derive treats missing struct fields as hard errors, which is the
/// right strictness for journal records but not for a public job format).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct JobSpec {
    /// Unique job name — the key for checkpoints, results, and journal
    /// events. Resubmitting a known id is rejected as a duplicate.
    pub id: String,
    /// Fair-share accounting bucket. Default `"default"`.
    pub tenant: String,
    /// Admission priority, higher is more important. Under overload a new
    /// job may displace (shed) a queued job of strictly lower priority.
    /// Default 0.
    pub priority: u8,
    /// Benchmark name from `elivagar_datasets::BENCHMARKS`. Default
    /// `"moons"`.
    pub benchmark: String,
    /// Device name from `elivagar_device::all_devices`. Default
    /// `"ibm-lagos"`.
    pub device: String,
    /// Candidate pool size for the search. Default 4.
    pub candidates: usize,
    /// Search seed. Default 0.
    pub seed: u64,
    /// Training-split samples to materialize. Default 24. Must be at
    /// least 1 ([`crate::Daemon::submit`] rejects 0). The daemon caps it
    /// at the benchmark's full training split and raises it to at least
    /// 2 samples per class (`elivagar_datasets::load_sized`).
    pub train_size: usize,
    /// Test-split samples to materialize. Default 8. Must be at least 1
    /// ([`crate::Daemon::submit`] rejects 0). The daemon caps it at the
    /// benchmark's full test split and raises it to at least 1 sample
    /// per class.
    pub test_size: usize,
    /// When set, cohort-train the winning candidates for this many epochs
    /// after the predictor pipeline.
    pub train_epochs: Option<usize>,
    /// Per-slice budget of *new* journaled evaluations, overriding the
    /// daemon default. Smaller slices yield the scheduler more often, and
    /// each slice saves the job's checkpoint once per search stage it
    /// evaluates.
    pub slice_records: Option<usize>,
    /// Deadline in scheduler slices: the job fails with
    /// [`FailKind::Deadline`] once it has consumed this many slices
    /// without finishing. Deterministic (tick-domain) deadline.
    pub deadline_slices: Option<u64>,
    /// Wall-clock deadline in milliseconds per slice, enforced
    /// cooperatively through a cancellation token polled at each
    /// checkpoint save (the end of a stage's dispatch within the slice)
    /// and each cohort epoch. Best-effort (wall-time domain).
    pub deadline_ms: Option<u64>,
    /// Retry budget for panic-quarantined slices, overriding the daemon
    /// default. After this many retries the job dead-letters.
    pub max_retries: Option<u32>,
    /// Directory of a persistent content-addressed result cache shared
    /// across jobs: tenants searching the same device reuse each other's
    /// CNR/RepCap evaluations. Relative paths resolve against the
    /// daemon's working directory. Default: no cache.
    pub cache_dir: Option<String>,
}

/// Field names accepted by the job-spec format, in documentation order.
pub const JOB_SPEC_FIELDS: &[&str] = &[
    "id",
    "tenant",
    "priority",
    "benchmark",
    "device",
    "candidates",
    "seed",
    "train_size",
    "test_size",
    "train_epochs",
    "slice_records",
    "deadline_slices",
    "deadline_ms",
    "max_retries",
    "cache_dir",
];

fn lookup<'a>(entries: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Reads an optional field: absent and `null` both mean "use the default".
fn opt<T: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<Option<T>, Error> {
    match lookup(entries, name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_value(v)
            .map(Some)
            .map_err(|e| Error::custom(format!("job spec field `{name}`: {e}"))),
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = serde::de::map_entries(v)?;
        for (key, _) in entries {
            if !JOB_SPEC_FIELDS.contains(&key.as_str()) {
                return Err(Error::custom(format!("unknown job spec field `{key}`")));
            }
        }
        let id: String =
            opt(entries, "id")?.ok_or_else(|| Error::custom("job spec is missing required field `id`"))?;
        Ok(JobSpec {
            id,
            tenant: opt(entries, "tenant")?.unwrap_or_else(|| "default".to_string()),
            priority: opt(entries, "priority")?.unwrap_or(0),
            benchmark: opt(entries, "benchmark")?.unwrap_or_else(|| "moons".to_string()),
            device: opt(entries, "device")?.unwrap_or_else(|| "ibm-lagos".to_string()),
            candidates: opt(entries, "candidates")?.unwrap_or(4),
            seed: opt(entries, "seed")?.unwrap_or(0),
            train_size: opt(entries, "train_size")?.unwrap_or(24),
            test_size: opt(entries, "test_size")?.unwrap_or(8),
            train_epochs: opt(entries, "train_epochs")?,
            slice_records: opt(entries, "slice_records")?,
            deadline_slices: opt(entries, "deadline_slices")?,
            deadline_ms: opt(entries, "deadline_ms")?,
            max_retries: opt(entries, "max_retries")?,
            cache_dir: opt(entries, "cache_dir")?,
        })
    }
}

impl JobSpec {
    /// A minimal spec with every default filled in — the starting point
    /// tests and examples tweak. Kept in lockstep with the deserializer's
    /// defaults by a unit test.
    pub fn named(id: impl Into<String>) -> Self {
        JobSpec {
            id: id.into(),
            tenant: "default".to_string(),
            priority: 0,
            benchmark: "moons".to_string(),
            device: "ibm-lagos".to_string(),
            candidates: 4,
            seed: 0,
            train_size: 24,
            test_size: 8,
            train_epochs: None,
            slice_records: None,
            deadline_slices: None,
            deadline_ms: None,
            max_retries: None,
            cache_dir: None,
        }
    }
}

/// Why a job reached [`JobState::Failed`] or [`JobState::DeadLetter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailKind {
    /// A slice-count or wall-clock deadline expired.
    Deadline,
    /// The job's tenant exhausted its evaluation-record budget.
    BudgetExhausted,
    /// A slice panicked (and, for dead-letters, retries ran out).
    Panic,
    /// The underlying search returned a typed error.
    Search,
}

/// A typed failure reason, journaled with the terminal event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailReason {
    /// Failure class.
    pub kind: FailKind,
    /// Human-readable detail (the search error text, the deadline that
    /// expired, ...).
    pub detail: String,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// Scheduler-side lifecycle state of a job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Admitted and runnable.
    Queued,
    /// Waiting out a retry backoff; runnable once the daemon tick reaches
    /// `until_tick`.
    Backoff {
        /// First tick at which the job may run again.
        until_tick: u64,
    },
    /// Completed; the result file is durable.
    Done {
        /// Final per-job journal length (evaluation records).
        records: u64,
    },
    /// Terminally failed with a typed reason.
    Failed(FailReason),
    /// Retries exhausted; parked for operator inspection.
    DeadLetter {
        /// Attempts consumed (initial run plus retries).
        attempts: u32,
        /// The last failure.
        reason: FailReason,
    },
    /// Displaced while queued by a higher-priority admission under
    /// overload.
    Shed {
        /// Id of the job whose admission displaced this one.
        displaced_by: String,
    },
}

impl JobState {
    /// Whether the job can never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed(_) | JobState::DeadLetter { .. } | JobState::Shed { .. }
        )
    }
}

/// One admitted job: its spec plus scheduler bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// The spec as admitted.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Attempts consumed by panic retries (0 until the first panic).
    pub attempts: u32,
    /// Scheduler slices this job has consumed.
    pub slices: u64,
    /// Evaluation records journaled so far (monotone across slices).
    pub records: u64,
    /// Admission order, for FIFO tie-breaking within a priority level.
    pub submit_seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_fills_defaults() {
        let spec: JobSpec = serde_json::from_str(r#"{"id":"j1"}"#).unwrap();
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.priority, 0);
        assert_eq!(spec.benchmark, "moons");
        assert_eq!(spec.device, "ibm-lagos");
        assert_eq!(spec.candidates, 4);
        assert_eq!(spec.train_epochs, None);
        assert_eq!(spec.deadline_slices, None);
    }

    #[test]
    fn named_matches_the_deserializer_defaults() {
        let from_json: JobSpec = serde_json::from_str(r#"{"id":"j1"}"#).unwrap();
        assert_eq!(JobSpec::named("j1"), from_json);
    }

    #[test]
    fn specs_round_trip_through_json() {
        let mut spec = JobSpec::named("round-trip");
        spec.tenant = "team-a".into();
        spec.priority = 3;
        spec.candidates = 6;
        spec.train_epochs = Some(2);
        spec.deadline_slices = Some(9);
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn missing_id_is_a_typed_error() {
        let err = serde_json::from_str::<JobSpec>(r#"{"tenant":"a"}"#).unwrap_err();
        assert!(err.to_string().contains("missing required field `id`"), "{err}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = serde_json::from_str::<JobSpec>(r#"{"id":"j","slice_recrods":4}"#).unwrap_err();
        assert!(err.to_string().contains("unknown job spec field `slice_recrods`"), "{err}");
    }

    #[test]
    fn null_optionals_mean_default() {
        let spec: JobSpec =
            serde_json::from_str(r#"{"id":"j","train_epochs":null,"tenant":null}"#).unwrap();
        assert_eq!(spec.train_epochs, None);
        assert_eq!(spec.tenant, "default");
    }

    #[test]
    fn terminal_states_are_terminal() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Backoff { until_tick: 4 }.is_terminal());
        assert!(JobState::Done { records: 2 }.is_terminal());
        assert!(JobState::Failed(FailReason { kind: FailKind::Deadline, detail: String::new() })
            .is_terminal());
        assert!(JobState::Shed { displaced_by: "x".into() }.is_terminal());
    }
}
