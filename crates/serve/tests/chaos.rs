//! Chaos suite for the serve daemon: deterministic kills and torn writes
//! against the scheduler's own durability machinery. Three failure
//! families:
//!
//! * `serve::tick` panics — the daemon dies *between* slices at chosen
//!   ticks; a reopened daemon must finish every job bit-identically.
//! * `serve::journal_append` torn writes — the daemon journal loses its
//!   tail mid-append; recovery must salvage the valid prefix, report the
//!   drop, and re-derive the lost decisions rather than losing jobs.
//! * `search::checkpoint` panics inside a slice — the job retries with
//!   backoff and dead-letters with a typed reason once the budget is
//!   spent; nothing is silently lost.
//!
//! The faultpoint registry is process-global, so every test holds
//! `faultpoint::exclusive()`, which also disarms on entry and exit.

use elivagar_serve::journal::{self, SliceCommitted};
use elivagar_serve::{Daemon, FailKind, JobEvent, JobResult, JobSpec, JobState, ServeConfig};
use elivagar_sim::faultpoint::{self, FaultKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("elivagar-serve-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn fleet() -> Vec<JobSpec> {
    [("f-1", "a", 41), ("f-2", "a", 42), ("f-3", "b", 43)]
        .into_iter()
        .map(|(id, tenant, seed)| {
            let mut spec = JobSpec::named(id);
            spec.tenant = tenant.into();
            spec.seed = seed;
            spec.train_size = 12;
            spec.test_size = 4;
            spec
        })
        .collect()
}

fn config_for(dir: &std::path::Path) -> ServeConfig {
    let mut config = ServeConfig::new(dir);
    config.slice_records = 2; // several slices per job: kills land mid-job
    config
}

/// Submits the fleet, tolerating ids the journal already owns (the same
/// idempotent-respool semantics the binary uses after a restart).
fn respool(daemon: &mut Daemon, specs: &[JobSpec]) {
    for spec in specs {
        match daemon.submit(spec.clone()) {
            Ok(()) | Err(elivagar_serve::AdmitError::DuplicateId { .. }) => {}
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
}

fn drain(daemon: &mut Daemon) {
    let used = daemon.run_until_drained(500).expect("daemon I/O");
    assert!(used < 500, "daemon did not drain");
    assert_eq!(daemon.verify_conservation(), None);
}

/// Runs the fleet uninterrupted and returns the expected results.
fn baseline(name: &str) -> (PathBuf, Vec<JobResult>) {
    let dir = scratch(name);
    let mut daemon = Daemon::open(config_for(&dir)).unwrap();
    respool(&mut daemon, &fleet());
    drain(&mut daemon);
    let results = fleet()
        .iter()
        .map(|s| daemon.load_result(&s.id).expect("baseline result"))
        .collect();
    (dir, results)
}

/// Kill the daemon (panic at the tick boundary) at a sweep of ticks; a
/// reopened daemon over the same state must complete every job with
/// results bit-identical to an uninterrupted run's. No job is silently
/// lost: every fleet id ends `Done`.
#[test]
fn daemon_killed_between_slices_resumes_bit_identically() {
    let _g = faultpoint::exclusive();
    let (base_dir, expected) = baseline("tick-kill-base");

    for kill_tick in [1, 2, 3, 5, 8] {
        let dir = scratch(&format!("tick-kill-{kill_tick}"));
        let mut daemon = Daemon::open(config_for(&dir)).unwrap();
        respool(&mut daemon, &fleet());
        faultpoint::arm_on_key("serve::tick", FaultKind::Panic, kill_tick);
        let outcome = catch_unwind(AssertUnwindSafe(|| daemon.run_until_drained(500)));
        assert!(outcome.is_err(), "kill at tick {kill_tick} did not fire");
        assert_eq!(faultpoint::fired("serve::tick"), 1);
        faultpoint::disarm_all();
        drop(daemon);

        let mut daemon = Daemon::open(config_for(&dir)).unwrap();
        assert_eq!(daemon.recovered().dropped_records, 0, "tick kills tear nothing");
        respool(&mut daemon, &fleet());
        drain(&mut daemon);
        for (spec, want) in fleet().iter().zip(&expected) {
            assert!(
                matches!(daemon.job(&spec.id).unwrap().state, JobState::Done { .. }),
                "job {} lost after kill at tick {kill_tick}",
                spec.id
            );
            let got = daemon.load_result(&spec.id).unwrap();
            assert_eq!(&got, want, "ranking diverged after kill at tick {kill_tick}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base_dir).unwrap();
}

/// Tear the daemon journal mid-append at a sweep of append ordinals. The
/// reopened daemon salvages the valid prefix, reports the dropped suffix
/// as `JournalRecovered`, and re-derives the lost decisions: after a
/// respool and drain, every job is `Done` with bit-identical results.
#[test]
fn torn_journal_append_recovers_prefix_and_loses_no_job() {
    let _g = faultpoint::exclusive();
    let (base_dir, expected) = baseline("torn-base");

    for tear_at in [2, 4, 7] {
        let dir = scratch(&format!("torn-{tear_at}"));
        let mut daemon = Daemon::open(config_for(&dir)).unwrap();
        faultpoint::arm_on_key("serve::journal_append", FaultKind::TruncateFile, tear_at);
        respool(&mut daemon, &fleet());
        // Run a while with the torn tail in place — the in-memory state
        // runs ahead of the journal, exactly like a crash-to-be.
        let _ = daemon.run_until_drained(6);
        assert_eq!(faultpoint::fired("serve::journal_append"), 1);
        faultpoint::disarm_all();
        drop(daemon);

        let mut daemon = Daemon::open(config_for(&dir)).unwrap();
        assert!(
            daemon.recovered().dropped_records >= 1,
            "tear at append {tear_at} should drop the torn record and its suffix"
        );
        respool(&mut daemon, &fleet());
        drain(&mut daemon);
        for (spec, want) in fleet().iter().zip(&expected) {
            assert!(
                matches!(daemon.job(&spec.id).unwrap().state, JobState::Done { .. }),
                "job {} lost after tear at append {tear_at}",
                spec.id
            );
            assert_eq!(&daemon.load_result(&spec.id).unwrap(), want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base_dir).unwrap();
}

/// A job whose every slice panics (checkpoint save 1 is armed, so no
/// slice survives) retries with backoff and then dead-letters with a
/// typed `Panic` reason; healthy jobs in the same queue still finish.
#[test]
fn persistent_slice_panic_dead_letters_with_typed_reason() {
    let _g = faultpoint::exclusive();

    let dir = scratch("dead-letter");
    let mut config = config_for(&dir);
    // The armed panic fires *after* each slice's first checkpoint save, so
    // every attempt still commits one batch; a small retry budget keeps
    // the job from limping to completion batch-by-batch.
    config.max_retries = 1;
    let mut daemon = Daemon::open(config).unwrap();
    respool(&mut daemon, &fleet());
    // Every slice of every job panics at its first checkpoint save while
    // armed; disarm after the first job dead-letters so the others finish.
    faultpoint::arm_on_key("search::checkpoint", FaultKind::Panic, 1);
    let mut guard = 0;
    while !daemon.jobs().values().any(|j| matches!(j.state, JobState::DeadLetter { .. })) {
        daemon.tick().unwrap();
        guard += 1;
        assert!(guard < 100, "no job dead-lettered under persistent panics");
    }
    faultpoint::disarm_all();

    let (id, victim) = daemon
        .jobs()
        .iter()
        .find(|(_, j)| matches!(j.state, JobState::DeadLetter { .. }))
        .map(|(id, j)| (id.clone(), j.clone()))
        .unwrap();
    let JobState::DeadLetter { attempts, reason } = &victim.state else { unreachable!() };
    assert_eq!(*attempts, 2, "one retry then the final attempt");
    assert_eq!(reason.kind, FailKind::Panic);
    assert!(reason.detail.contains("faultpoint 'search::checkpoint' fired"), "{}", reason.detail);
    assert!(daemon.stats().retries >= 1);

    drain(&mut daemon);
    for spec in fleet() {
        if spec.id == id {
            continue;
        }
        assert!(
            matches!(daemon.job(&spec.id).unwrap().state, JobState::Done { .. }),
            "healthy job {} should finish despite its neighbor dead-lettering",
            spec.id
        );
    }
    // The dead letter survives a restart as a terminal, reported state.
    drop(daemon);
    let daemon = Daemon::open(config_for(&dir)).unwrap();
    assert!(matches!(daemon.job(&id).unwrap().state, JobState::DeadLetter { .. }));
    assert_eq!(daemon.stats().dead_letter, 1);
    assert_eq!(daemon.verify_conservation(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn append (the `serve::journal_append` site chops the third line in
/// half) is recovered on reopen: the valid prefix loads and the tear is
/// reported.
#[test]
fn torn_append_faultpoint_is_recovered_on_reopen() {
    let _g = faultpoint::exclusive();
    let path = scratch("faultpoint-tear");
    let events: Vec<JobEvent> = (0..5)
        .map(|records| JobEvent::SliceCommitted(SliceCommitted { id: "a".into(), records }))
        .collect();
    faultpoint::arm_on_key("serve::journal_append", FaultKind::TruncateFile, 3);
    let (_, _, mut writer) = journal::open(&path).unwrap();
    for event in &events {
        writer.append(event).unwrap();
    }
    drop(writer);
    let (loaded, recovered, _) = journal::load(&path).unwrap();
    // The third append was torn; later appends landed after the tear
    // and are unreadable, so the valid prefix is the first two.
    assert_eq!(loaded, events[..2].to_vec());
    assert!(recovered.dropped_records >= 1, "{recovered:?}");
    std::fs::remove_file(&path).unwrap();
}
