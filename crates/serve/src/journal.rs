//! The daemon journal: a durable, append-only event log with per-line
//! checksums and torn-tail recovery.
//!
//! Unlike the per-job search checkpoint (a whole-file snapshot rewritten
//! atomically — see `elivagar::checkpoint`), the daemon journal is
//! *append-only*: every scheduler decision (admission, slice commit,
//! retry, terminal state) is one line of JSON followed by a space and the
//! CRC32 of the JSON in hex:
//!
//! ```text
//! {"Submitted":{...}} 9f3a01c2
//! {"SliceCommitted":{...}} 07b1e4d9
//! ```
//!
//! Each append is `write + fdatasync`, so a `kill -9` can tear at most
//! the **last** line. [`load`] verifies every line's checksum and stops at
//! the first invalid one, returning the longest valid prefix plus a
//! [`JournalRecovered`] report instead of an error — a daemon restarting
//! over a torn or bit-flipped journal resumes from everything that was
//! durably acknowledged and re-runs the rest. [`open`] additionally
//! truncates the file back to the valid prefix so new appends never
//! interleave with garbage.
//!
//! The chaos site `serve::journal_append` simulates the torn append (a
//! power cut mid-write) by chopping the just-written line in half.

use crate::job::{FailReason, JobSpec};
use elivagar::checkpoint::{check_footer, crc32, write_footed};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One scheduler decision, as journaled.
///
/// Variants are single-field tuple wrappers around named payload structs
/// (the vendored serde derive's enum shape), externally tagged as
/// `{"Variant": {...}}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    /// A job passed admission control.
    Submitted(JobSpec),
    /// A slice finished and its checkpoint is durable.
    SliceCommitted(SliceCommitted),
    /// A panicked slice was scheduled for retry with backoff.
    Retried(Retried),
    /// The job completed; its result file is durable.
    Done(JobDone),
    /// The job failed terminally with a typed reason.
    Failed(JobFailed),
    /// Retries exhausted; the job is parked.
    DeadLettered(DeadLettered),
    /// A queued job was displaced by a higher-priority admission.
    Shed(Shed),
}

/// Payload of [`JobEvent::SliceCommitted`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SliceCommitted {
    /// Job id.
    pub id: String,
    /// Cumulative evaluation records in the job's checkpoint after this
    /// slice.
    pub records: u64,
}

/// Payload of [`JobEvent::Retried`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Retried {
    /// Job id.
    pub id: String,
    /// Attempt count after this retry was scheduled.
    pub attempt: u32,
    /// Daemon tick before which the job must not run again.
    pub not_before_tick: u64,
    /// What went wrong (panic message or checkpoint diagnosis).
    pub detail: String,
}

/// Payload of [`JobEvent::Done`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobDone {
    /// Job id.
    pub id: String,
    /// Final per-job journal length (evaluation records).
    pub records: u64,
}

/// Payload of [`JobEvent::Failed`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobFailed {
    /// Job id.
    pub id: String,
    /// Typed failure reason.
    pub reason: FailReason,
}

/// Payload of [`JobEvent::DeadLettered`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeadLettered {
    /// Job id.
    pub id: String,
    /// Attempts consumed (initial run plus retries).
    pub attempts: u32,
    /// The last failure.
    pub reason: FailReason,
}

/// Payload of [`JobEvent::Shed`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Shed {
    /// The displaced job.
    pub id: String,
    /// The admission that displaced it.
    pub displaced_by: String,
}

/// What [`load`] salvaged from a journal file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalRecovered {
    /// Valid events recovered (the longest valid prefix).
    pub records: usize,
    /// Trailing lines dropped as torn, truncated, or corrupt.
    pub dropped_records: usize,
}

/// Journal I/O failure (never raised for corruption — that is recovery,
/// not an error).
#[derive(Debug)]
pub struct JournalError {
    /// Path the operation targeted.
    pub path: String,
    /// OS or serialization error text.
    pub message: String,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "daemon journal failure at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for JournalError {}

fn err(path: &Path, message: impl ToString) -> JournalError {
    JournalError {
        path: path.display().to_string(),
        message: message.to_string(),
    }
}

/// Parses one journal line (`{json} {crc:08x}`) into an event.
fn parse_line(line: &str) -> Option<JobEvent> {
    let (body, footer) = line.rsplit_once(' ')?;
    let expected = u32::from_str_radix(footer, 16).ok()?;
    if crc32(body.as_bytes()) != expected {
        return None;
    }
    serde_json::from_str(body).ok()
}

/// Reads a journal, salvaging the longest valid prefix.
///
/// Returns the recovered events, the recovery report, and the byte length
/// of the valid prefix (so [`open`] can truncate the torn tail away). A
/// missing file is an empty journal, not an error.
///
/// # Errors
///
/// Only on filesystem failures other than "not found".
pub fn load(path: &Path) -> Result<(Vec<JobEvent>, JournalRecovered, u64), JournalError> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), JournalRecovered::default(), 0))
        }
        Err(e) => return Err(err(path, e)),
    };
    let mut events = Vec::new();
    let mut valid_bytes = 0u64;
    let mut offset = 0usize;
    let mut dropped = 0usize;
    for line in text.split_inclusive('\n') {
        let complete = line.ends_with('\n');
        let content = line.trim_end_matches('\n');
        if !content.is_empty() {
            match (complete, parse_line(content)) {
                (true, Some(event)) if dropped == 0 => {
                    events.push(event);
                    valid_bytes = (offset + line.len()) as u64;
                }
                _ => dropped += 1,
            }
        }
        offset += line.len();
    }
    let recovered = JournalRecovered {
        records: events.len(),
        dropped_records: dropped,
    };
    Ok((events, recovered, valid_bytes))
}

/// Append handle for the daemon journal. Each append is synced before it
/// returns, so an acknowledged event survives `kill -9`.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: fs::File,
    appended: u64,
}

impl JournalWriter {
    /// Appends one event as a checksummed line and syncs it to disk.
    ///
    /// # Errors
    ///
    /// On serialization or filesystem failure. The journal may hold a
    /// torn line afterwards; [`load`] recovers around it.
    pub fn append(&mut self, event: &JobEvent) -> Result<(), JournalError> {
        let body = serde_json::to_string(event).map_err(|e| err(&self.path, e))?;
        let line = format!("{body} {:08x}\n", crc32(body.as_bytes()));
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| err(&self.path, e))?;
        self.file.sync_data().map_err(|e| err(&self.path, e))?;
        self.appended += 1;
        // Chaos hook: a power cut mid-append — the acknowledged line is
        // chopped in half, exactly the tear `load` must recover around.
        if elivagar_sim::faultpoint::wants_truncation("serve::journal_append", self.appended) {
            let len = self.file.metadata().map_err(|e| err(&self.path, e))?.len();
            self.file
                .set_len(len - line.len() as u64 / 2)
                .map_err(|e| err(&self.path, e))?;
        }
        Ok(())
    }
}

/// Opens a journal for a (re)starting daemon: loads the valid prefix,
/// truncates any torn tail away, and returns an append handle positioned
/// after the last valid event.
///
/// # Errors
///
/// On filesystem failures. Corruption is recovered, not raised.
pub fn open(path: &Path) -> Result<(Vec<JobEvent>, JournalRecovered, JournalWriter), JournalError> {
    let (events, recovered, valid_bytes) = load(path)?;
    let file = fs::OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(path)
        .map_err(|e| err(path, e))?;
    file.set_len(valid_bytes).map_err(|e| err(path, e))?;
    let mut file = file;
    use std::io::Seek as _;
    file.seek(std::io::SeekFrom::End(0)).map_err(|e| err(path, e))?;
    let writer = JournalWriter {
        path: path.to_path_buf(),
        file,
        appended: 0,
    };
    Ok((events, recovered, writer))
}

/// Atomically writes a checksummed artifact (e.g. a job result file) with
/// the same discipline as the search checkpoint: body + CRC32 footer line,
/// write-temp, fsync, rename, fsync-dir ([`write_footed`]).
///
/// # Errors
///
/// On filesystem failure; the target is never left torn.
pub fn atomic_write_checksummed(path: &Path, body: &str) -> Result<(), JournalError> {
    write_footed(path, body.as_bytes(), ".tmp").map_err(|(at, e)| err(&at, e))?;
    Ok(())
}

/// Reads and verifies an artifact written by [`atomic_write_checksummed`],
/// returning the body.
///
/// # Errors
///
/// On I/O failure or checksum mismatch (artifacts, unlike the journal,
/// are atomic wholes: a torn one is an error, not a recovery).
pub fn read_checksummed(path: &Path) -> Result<String, JournalError> {
    let mut text = fs::read_to_string(path).map_err(|e| err(path, e))?;
    let body_len = check_footer(text.as_bytes()).map_err(|r| err(path, r))?.len();
    text.truncate(body_len);
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FailKind, FailReason, JobSpec};

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("elivagar-serve-journal-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn sample_events() -> Vec<JobEvent> {
        vec![
            JobEvent::Submitted(JobSpec::named("a")),
            JobEvent::SliceCommitted(SliceCommitted { id: "a".into(), records: 4 }),
            JobEvent::Retried(Retried {
                id: "a".into(),
                attempt: 1,
                not_before_tick: 7,
                detail: "injected panic".into(),
            }),
            JobEvent::Failed(JobFailed {
                id: "a".into(),
                reason: FailReason { kind: FailKind::Deadline, detail: "9 slices".into() },
            }),
            JobEvent::Done(JobDone { id: "b".into(), records: 12 }),
        ]
    }

    #[test]
    fn events_round_trip_through_the_journal() {
        let path = scratch("roundtrip");
        let (_, _, mut writer) = open(&path).unwrap();
        for event in sample_events() {
            writer.append(&event).unwrap();
        }
        drop(writer);
        let (events, recovered, _) = load(&path).unwrap();
        assert_eq!(events, sample_events());
        assert_eq!(recovered, JournalRecovered { records: 5, dropped_records: 0 });
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_empty_not_an_error() {
        let path = scratch("missing");
        let (events, recovered, bytes) = load(&path).unwrap();
        assert!(events.is_empty());
        assert_eq!(recovered, JournalRecovered::default());
        assert_eq!(bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let path = scratch("torn");
        let (_, _, mut writer) = open(&path).unwrap();
        for event in sample_events() {
            writer.append(&event).unwrap();
        }
        drop(writer);
        let full = fs::read_to_string(&path).unwrap();
        // Chop the last line mid-way: a torn append.
        let keep = full.len() - 10;
        fs::write(&path, &full[..keep]).unwrap();
        let (events, recovered, _) = load(&path).unwrap();
        assert_eq!(events, sample_events()[..4].to_vec());
        assert_eq!(recovered, JournalRecovered { records: 4, dropped_records: 1 });
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_drops_the_line_and_everything_after() {
        let path = scratch("bitflip");
        let (_, _, mut writer) = open(&path).unwrap();
        for event in sample_events() {
            writer.append(&event).unwrap();
        }
        drop(writer);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside the second line's JSON body.
        let second_line_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second_line_start + 5] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (events, recovered, _) = load(&path).unwrap();
        // Only the first line survives: everything after the corrupt line
        // is dropped too, because ordering is load-bearing for replay.
        assert_eq!(events, sample_events()[..1].to_vec());
        assert_eq!(recovered.records, 1);
        assert_eq!(recovered.dropped_records, 4);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_the_torn_tail_so_appends_stay_clean() {
        let path = scratch("truncate-on-open");
        let (_, _, mut writer) = open(&path).unwrap();
        for event in &sample_events()[..2] {
            writer.append(event).unwrap();
        }
        drop(writer);
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        // Reopen: torn tail dropped, a fresh append lands on a clean line.
        let (events, recovered, mut writer) = open(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(recovered.dropped_records, 1);
        writer.append(&sample_events()[4]).unwrap();
        drop(writer);
        let (events, recovered, _) = load(&path).unwrap();
        assert_eq!(events, vec![sample_events()[0].clone(), sample_events()[4].clone()]);
        assert_eq!(recovered.dropped_records, 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksummed_artifacts_round_trip_and_reject_corruption() {
        let path = scratch("artifact");
        atomic_write_checksummed(&path, "{\"ranking\":[1,2,3]}").unwrap();
        assert_eq!(read_checksummed(&path).unwrap(), "{\"ranking\":[1,2,3]}");
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        let err = read_checksummed(&path).unwrap_err();
        assert!(err.message.contains("checksum mismatch"), "{err}");
        fs::remove_file(&path).unwrap();
    }
}
