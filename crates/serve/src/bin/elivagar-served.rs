//! `elivagar-served` — the search-as-a-service daemon.
//!
//! Reads job-spec JSON files from a spool directory, admits them under
//! bounded-queue admission control, and runs them as fair-share slices
//! until drained (or `--max-ticks`). All state lives under `--state`:
//! `journal.log` (the decision log), `checkpoints/` (per-job search
//! journals), `results/` (checksummed ranking artifacts), and
//! `stats.json` (the end-of-run funnel and latency quantiles). Restarting
//! after a kill resumes every job from durable state; respooling the same
//! specs is idempotent (known ids are skipped).
//!
//! ```text
//! elivagar-served --state DIR [--spool DIR] [--queue-depth N]
//!                 [--slice-records N] [--max-retries N] [--backoff-base N]
//!                 [--checkpoint-every N] [--tenant-budget N]
//!                 [--tenant-weight NAME=W]... [--max-ticks N] [--quiet]
//! ```
//!
//! Flags are checked before the state directory is created: a flag given
//! without a value, a malformed or out-of-range number, or zero for
//! `--queue-depth`, `--slice-records`, `--checkpoint-every` or a
//! `--tenant-weight`, exits 1 with a message. So does a malformed
//! `ELIVAGAR_THREADS`, which `Daemon::open` refuses before it creates
//! anything.

use elivagar_serve::flags::{flag_value, flag_values, parse_flag, parse_number};
use elivagar_serve::{AdmitError, Daemon, JobSpec, JobState, ServeConfig};
use serde::Serialize;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: elivagar-served --state DIR [--spool DIR] [--queue-depth N] \
         [--slice-records N] [--max-retries N] [--backoff-base N] [--checkpoint-every N] \
         [--tenant-budget N] [--tenant-weight NAME=W]... [--max-ticks N] [--quiet]"
    );
    ExitCode::FAILURE
}

/// The `stats.json` artifact: the run funnel plus latency quantiles, one
/// flat object so shell gates can grep fields out.
#[derive(Serialize)]
struct StatsFile {
    admitted: u64,
    rejected: u64,
    retries: u64,
    shed: u64,
    slices: u64,
    done: u64,
    failed: u64,
    dead_letter: u64,
    pending: u64,
    ticks: u64,
    journal_recovered_records: u64,
    journal_dropped_records: u64,
    p50_job_latency_ns: u64,
    p99_job_latency_ns: u64,
    // Result-cache traffic across every slice this process ran (all zero
    // when no job names a `cache_dir`).
    cache_lookups: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_stores: u64,
    cache_evictions: u64,
    cache_corrupt_discarded: u64,
    conservation_ok: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let state_dir = match flag_value(&args, "--state") {
        Ok(Some(dir)) => dir,
        Ok(None) => return usage(),
        Err(message) => {
            eprintln!("{message}");
            return usage();
        }
    };
    let quiet = args.iter().any(|a| a == "--quiet");

    // Every flag is validated before the state directory exists.
    let mut config = ServeConfig::new(&state_dir);
    let mut max_ticks = 100_000;
    let mut spool = None;
    let flags = (|| {
        let c = &mut config;
        c.queue_depth = parse_flag(&args, "--queue-depth", 1)?.unwrap_or(c.queue_depth);
        c.slice_records = parse_flag(&args, "--slice-records", 1)?.unwrap_or(c.slice_records);
        c.max_retries = parse_flag(&args, "--max-retries", 0)?.unwrap_or(c.max_retries);
        c.backoff_base = parse_flag(&args, "--backoff-base", 0)?.unwrap_or(c.backoff_base);
        c.checkpoint_every =
            parse_flag(&args, "--checkpoint-every", 1)?.unwrap_or(c.checkpoint_every);
        c.tenant_record_budget = parse_flag(&args, "--tenant-budget", 0)?;
        max_ticks = parse_flag(&args, "--max-ticks", 0)?.unwrap_or(max_ticks);
        for entry in flag_values(&args, "--tenant-weight")? {
            let Some((name, weight)) = entry.split_once('=') else {
                return Err(format!("--tenant-weight expects NAME=WEIGHT, got {entry:?}"));
            };
            let weight = parse_number("--tenant-weight", weight, 1)?;
            c.tenant_weights.push((name.to_string(), weight));
        }
        spool = flag_value(&args, "--spool")?;
        Ok(())
    })();
    if let Err(message) = flags {
        eprintln!("{message}");
        return usage();
    }

    let mut daemon = match Daemon::open(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("failed to open daemon state: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recovered = daemon.recovered();
    if recovered.dropped_records > 0 {
        eprintln!(
            "journal recovered: {} records kept, {} dropped as torn or corrupt",
            recovered.records, recovered.dropped_records
        );
    } else if recovered.records > 0 && !quiet {
        eprintln!("journal replayed: {} records", recovered.records);
    }

    // Spool ingestion: lexicographic file order makes admission (and so
    // scheduling) deterministic for a fixed spool. Known ids are skipped,
    // so respooling after a restart is idempotent.
    if let Some(spool) = spool {
        let mut paths: Vec<_> = match std::fs::read_dir(&spool) {
            Ok(dir) => dir
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect(),
            Err(e) => {
                eprintln!("failed to read spool {spool}: {e}");
                return ExitCode::FAILURE;
            }
        };
        paths.sort();
        for path in paths {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("rejected {}: unreadable: {e}", path.display());
                    continue;
                }
            };
            let spec: JobSpec = match serde_json::from_str(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("rejected {}: {e}", path.display());
                    continue;
                }
            };
            let id = spec.id.clone();
            match daemon.submit(spec) {
                Ok(()) => {
                    if !quiet {
                        eprintln!("admitted {id}");
                    }
                }
                // Already owned (journal replay or an earlier spool pass):
                // idempotent restart, not an error.
                Err(AdmitError::DuplicateId { .. }) => {}
                Err(e) => eprintln!("rejected {id}: {e}"),
            }
        }
    }

    if let Err(e) = daemon.run_until_drained(max_ticks) {
        eprintln!("daemon failed: {e}");
        return ExitCode::FAILURE;
    }

    let mut pending = 0u64;
    for (id, job) in daemon.jobs() {
        let line = match &job.state {
            JobState::Done { records } => format!("done       {id} ({records} records)"),
            JobState::Failed(reason) => format!("failed     {id} ({reason})"),
            JobState::DeadLetter { attempts, reason } => {
                format!("deadletter {id} ({attempts} attempts; {reason})")
            }
            JobState::Shed { displaced_by } => format!("shed       {id} (displaced by {displaced_by})"),
            JobState::Queued | JobState::Backoff { .. } => {
                pending += 1;
                format!("pending    {id}")
            }
        };
        if !quiet {
            println!("{line}");
        }
    }

    let conservation = daemon.verify_conservation();
    if let Some(violation) = &conservation {
        eprintln!("CONSERVATION VIOLATION: {violation}");
    }
    let stats = daemon.stats();
    let metrics = elivagar_obs::metrics::snapshot();
    let stats_file = StatsFile {
        admitted: stats.admitted,
        rejected: stats.rejected,
        retries: stats.retries,
        shed: stats.shed,
        slices: stats.slices,
        done: stats.done,
        failed: stats.failed,
        dead_letter: stats.dead_letter,
        pending,
        ticks: daemon.current_tick(),
        journal_recovered_records: recovered.records as u64,
        journal_dropped_records: recovered.dropped_records as u64,
        p50_job_latency_ns: stats.latency_quantile(0.5),
        p99_job_latency_ns: stats.latency_quantile(0.99),
        cache_lookups: metrics.counter("cache.lookups"),
        cache_hits: metrics.counter("cache.hits"),
        cache_misses: metrics.counter("cache.misses"),
        cache_stores: metrics.counter("cache.stores"),
        cache_evictions: metrics.counter("cache.evictions"),
        cache_corrupt_discarded: metrics.counter("cache.corrupt_discarded"),
        conservation_ok: conservation.is_none(),
    };
    let stats_path = std::path::Path::new(&state_dir).join("stats.json");
    match serde_json::to_string(&stats_file) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&stats_path, body + "\n") {
                eprintln!("failed to write {}: {e}", stats_path.display());
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("failed to serialize stats: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !quiet {
        println!(
            "serve: admitted {} rejected {} done {} failed {} dead_letter {} shed {} pending {pending} \
             slices {} retries {} in {} ticks",
            stats.admitted,
            stats.rejected,
            stats.done,
            stats.failed,
            stats.dead_letter,
            stats.shed,
            stats.slices,
            stats.retries,
            daemon.current_tick()
        );
    }
    if conservation.is_some() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
