//! Search-as-a-service for Elivagar: a durable job scheduler above
//! [`elivagar::run_search`].
//!
//! The daemon accepts JSON [`JobSpec`]s (from a spool directory or
//! programmatically), admits them under a bounded queue with typed
//! rejections and priority-based load shedding, and schedules them as
//! **budgeted evaluation slices** with weighted fair-share across
//! tenants, cooperative deadlines, and retry-with-backoff into a dead
//! letter state. Every decision is journaled with per-line checksums
//! ([`journal`]) and every job checkpoints through the search's own
//! crash-safe journal, so `kill -9` at any instant — including mid-append
//! — loses at most the slice in flight and a restarted daemon completes
//! every job with **bit-identical rankings** to an uninterrupted run.
//!
//! ```no_run
//! use elivagar_serve::{Daemon, JobSpec, ServeConfig};
//!
//! let mut daemon = Daemon::open(ServeConfig::new("/tmp/elivagar-serve")).unwrap();
//! let mut job = JobSpec::named("moons-s7");
//! job.seed = 7;
//! daemon.submit(job).unwrap();
//! daemon.run_until_drained(1_000).unwrap();
//! let result = daemon.load_result("moons-s7").unwrap();
//! println!("best candidate: {}", result.best_index);
//! ```
//!
//! Module map:
//!
//! * [`job`] — the job-spec wire format and lifecycle states;
//! * [`journal`] — the append-only daemon journal with torn-tail
//!   recovery, and checksummed result artifacts;
//! * [`daemon`] — admission control, the tick scheduler, fair-share,
//!   deadlines, retries, and conservation checking;
//! * [`flags`] — the command-line flag parser `elivagar-served` and
//!   `elivagar-cli` share.

pub mod daemon;
pub mod flags;
pub mod job;
pub mod journal;

pub use daemon::{AdmitError, Daemon, JobResult, ServeConfig, ServeError, ServeStats, TickOutcome};
pub use job::{FailKind, FailReason, Job, JobSpec, JobState};
pub use journal::{JobEvent, JournalError, JournalRecovered};
