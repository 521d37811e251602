//! Integration tests for the serve daemon: admission control, fair-share
//! scheduling, deadlines, budgets, and crash-resume (in-process restarts
//! plus a real `SIGKILL` against the `elivagar-served` binary).
//!
//! Everything here runs without fault injection; the chaos suite
//! (`tests/chaos.rs`, `--features fault-injection`) covers kills and torn
//! writes at armed faultpoints.

use elivagar_serve::{
    AdmitError, Daemon, FailKind, JobResult, JobSpec, JobState, ServeConfig, ServeError,
    TickOutcome,
};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("elivagar-served-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A small, fast job: 4 candidates on moons with tiny splits.
fn small_job(id: &str, seed: u64) -> JobSpec {
    let mut spec = JobSpec::named(id);
    spec.seed = seed;
    spec.train_size = 12;
    spec.test_size = 4;
    spec
}

fn drain(daemon: &mut Daemon) {
    let used = daemon.run_until_drained(500).expect("daemon I/O");
    assert!(used < 500, "daemon did not drain within 500 ticks");
    assert_eq!(daemon.verify_conservation(), None);
}

#[test]
fn single_job_completes_with_durable_checksummed_result() {
    let dir = scratch("single");
    let mut daemon = Daemon::open(ServeConfig::new(&dir)).unwrap();
    daemon.submit(small_job("solo", 3)).unwrap();
    drain(&mut daemon);

    let job = daemon.job("solo").unwrap();
    assert!(matches!(job.state, JobState::Done { records } if records > 0), "{:?}", job.state);
    let result = daemon.load_result("solo").unwrap();
    assert_eq!(result.id, "solo");
    assert!(!result.ranking.is_empty());
    assert!(result.ranking.iter().any(|&(i, _)| i == result.best_index));
    assert_eq!(daemon.stats().done, 1);
    assert_eq!(daemon.stats().admitted, 1);
    assert_eq!(daemon.stats().latencies_ns.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn admission_rejections_are_typed_and_counted() {
    let dir = scratch("admission");
    let mut daemon = Daemon::open(ServeConfig::new(&dir)).unwrap();
    daemon.submit(small_job("dup", 0)).unwrap();

    let err = daemon.submit(small_job("dup", 1)).unwrap_err();
    assert_eq!(err, AdmitError::DuplicateId { id: "dup".into() });

    let mut bad_bench = small_job("bb", 0);
    bad_bench.benchmark = "no-such-bench".into();
    let err = daemon.submit(bad_bench).unwrap_err();
    assert_eq!(err, AdmitError::UnknownBenchmark { name: "no-such-bench".into() });

    let mut bad_device = small_job("bd", 0);
    bad_device.device = "no-such-device".into();
    let err = daemon.submit(bad_device).unwrap_err();
    assert_eq!(err, AdmitError::UnknownDevice { name: "no-such-device".into() });

    let mut zero = small_job("zc", 0);
    zero.candidates = 0;
    assert!(matches!(daemon.submit(zero), Err(AdmitError::InvalidSpec { .. })));

    let mut zero_epochs = small_job("ze", 0);
    zero_epochs.train_epochs = Some(0);
    assert!(matches!(daemon.submit(zero_epochs), Err(AdmitError::InvalidSpec { .. })));

    let mut zero_slice = small_job("zs", 0);
    zero_slice.slice_records = Some(0);
    assert!(matches!(daemon.submit(zero_slice), Err(AdmitError::InvalidSpec { .. })));

    let mut path_id = small_job("../escape", 0);
    path_id.id = "../escape".into();
    assert!(matches!(daemon.submit(path_id), Err(AdmitError::InvalidSpec { .. })));

    assert_eq!(daemon.stats().rejected, 7);
    assert_eq!(daemon.stats().admitted, 1);
    assert_eq!(daemon.verify_conservation(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_refuses_a_zero_setting_before_creating_state() {
    let dir = scratch("zero-config");
    let zeroed: [fn(&mut ServeConfig); 4] = [
        |c| c.queue_depth = 0,
        |c| c.slice_records = 0,
        |c| c.checkpoint_every = 0,
        |c| c.tenant_weights = vec![("a".into(), 2), ("b".into(), 0)],
    ];
    let settings = ["queue_depth", "slice_records", "checkpoint_every", "tenant \"b\""];
    for (zero, setting) in zeroed.iter().zip(settings) {
        let mut config = ServeConfig::new(&dir);
        zero(&mut config);
        let err = Daemon::open(config).err().expect("a zero setting must not open");
        let named = matches!(&err, ServeError::InvalidConfig { detail } if detail.contains(setting));
        assert!(named, "{setting}: {err}");
        assert!(!dir.exists(), "{setting} created the state directory");
    }
}

#[test]
fn overload_sheds_lower_priority_and_rejects_peers() {
    let dir = scratch("overload");
    let mut config = ServeConfig::new(&dir);
    config.queue_depth = 2;
    let mut daemon = Daemon::open(config).unwrap();

    let mut low = small_job("low", 0);
    low.priority = 1;
    daemon.submit(low).unwrap();
    daemon.submit(small_job("lowest", 0)).unwrap();

    // Same priority as the lowest queued job: rejected, never displaces.
    let err = daemon.submit(small_job("peer", 0)).unwrap_err();
    assert_eq!(err, AdmitError::QueueFull { depth: 2 });

    // Strictly higher priority: displaces the lowest-priority queued job.
    let mut urgent = small_job("urgent", 0);
    urgent.priority = 7;
    daemon.submit(urgent).unwrap();
    assert_eq!(
        daemon.job("lowest").unwrap().state,
        JobState::Shed { displaced_by: "urgent".into() }
    );
    assert_eq!(daemon.stats().shed, 1);
    assert_eq!(daemon.stats().rejected, 1);
    assert_eq!(daemon.stats().admitted, 3);

    drain(&mut daemon);
    assert!(matches!(daemon.job("low").unwrap().state, JobState::Done { .. }));
    assert!(matches!(daemon.job("urgent").unwrap().state, JobState::Done { .. }));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn slice_deadline_fails_typed_with_durable_partial_progress() {
    let dir = scratch("deadline");
    let mut config = ServeConfig::new(&dir);
    config.slice_records = 1;
    let mut daemon = Daemon::open(config).unwrap();
    let mut job = small_job("tight", 5);
    job.deadline_slices = Some(1);
    daemon.submit(job).unwrap();
    drain(&mut daemon);

    let job = daemon.job("tight").unwrap();
    match &job.state {
        JobState::Failed(reason) => {
            assert_eq!(reason.kind, FailKind::Deadline);
            assert!(reason.detail.contains("slice deadline"), "{}", reason.detail);
        }
        other => panic!("expected deadline failure, got {other:?}"),
    }
    // The slice it did run left durable, checksummed progress behind.
    assert!(job.records > 0);
    assert!(daemon.checkpoint_path("tight").exists());
    assert_eq!(daemon.stats().failed, 1);
    assert_eq!(daemon.stats().slices, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tenant_record_budget_exhaustion_fails_typed() {
    let dir = scratch("budget");
    let mut config = ServeConfig::new(&dir);
    config.slice_records = 2;
    config.tenant_record_budget = Some(2);
    let mut daemon = Daemon::open(config).unwrap();
    let mut greedy = small_job("greedy", 1);
    greedy.tenant = "capped".into();
    daemon.submit(greedy).unwrap();
    drain(&mut daemon);

    match &daemon.job("greedy").unwrap().state {
        JobState::Failed(reason) => {
            assert_eq!(reason.kind, FailKind::BudgetExhausted);
            assert!(reason.detail.contains("capped"), "{}", reason.detail);
        }
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn weighted_round_robin_interleaves_tenants_by_credit() {
    let dir = scratch("wrr");
    let mut config = ServeConfig::new(&dir);
    config.slice_records = 1; // many slices per job: scheduling is visible
    config.tenant_weights = vec![("a".into(), 2), ("b".into(), 1)];
    let mut daemon = Daemon::open(config).unwrap();
    for (id, tenant) in [("a-1", "a"), ("b-1", "b")] {
        let mut job = small_job(id, 9);
        job.tenant = tenant.into();
        daemon.submit(job).unwrap();
    }

    // While both tenants have runnable work, tenant `a` (weight 2) gets
    // two slices per round to tenant `b`'s one: a, a, b, a, a, b, ...
    let mut schedule = Vec::new();
    for _ in 0..6 {
        match daemon.tick().unwrap() {
            TickOutcome::Ran { id } => {
                schedule.push(daemon.job(&id).unwrap().spec.tenant.clone());
            }
            TickOutcome::Idle => break,
        }
    }
    assert!(
        schedule.len() >= 3 && schedule.starts_with(&["a".into(), "a".into(), "b".into()]),
        "unexpected schedule {schedule:?}"
    );
    drain(&mut daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn submit_fleet(daemon: &mut Daemon) {
    for (id, tenant, seed) in
        [("j-1", "a", 1), ("j-2", "a", 2), ("j-3", "b", 3), ("j-4", "c", 4)]
    {
        let mut job = small_job(id, seed);
        job.tenant = tenant.into();
        daemon.submit(job).unwrap();
    }
}

fn collect_results(daemon: &Daemon) -> Vec<JobResult> {
    daemon
        .jobs()
        .keys()
        .map(|id| daemon.load_result(id).expect("result artifact"))
        .collect()
}

#[test]
fn restart_between_slices_resumes_bit_identically() {
    // Baseline: an uninterrupted daemon over the fleet.
    let base_dir = scratch("restart-base");
    let mut baseline = Daemon::open(ServeConfig::new(&base_dir)).unwrap();
    submit_fleet(&mut baseline);
    drain(&mut baseline);
    let expected = collect_results(&baseline);

    // Interrupted: run a few ticks, drop the daemon mid-queue (the
    // in-process stand-in for a kill between slices), reopen, drain.
    let dir = scratch("restart-cut");
    let mut config = ServeConfig::new(&dir);
    config.slice_records = 2; // several slices per job: the cut lands mid-job
    let mut daemon = Daemon::open(config.clone()).unwrap();
    submit_fleet(&mut daemon);
    for _ in 0..3 {
        daemon.tick().unwrap();
    }
    assert!(daemon.has_pending(), "cut too late to be interesting");
    drop(daemon);

    let mut daemon = Daemon::open(config).unwrap();
    assert_eq!(daemon.recovered().dropped_records, 0);
    assert_eq!(daemon.jobs().len(), 4, "journal replay lost a job");
    drain(&mut daemon);
    assert_eq!(collect_results(&daemon), expected);
    // The raw artifacts are byte-identical too, not just value-equal.
    for id in ["j-1", "j-2", "j-3", "j-4"] {
        let a = std::fs::read(baseline.result_path(id)).unwrap();
        let b = std::fs::read(daemon.result_path(id)).unwrap();
        assert_eq!(a, b, "result bytes differ for {id}");
    }
    std::fs::remove_dir_all(&base_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn completed_jobs_survive_restart_without_rerunning() {
    let dir = scratch("idempotent");
    let config = ServeConfig::new(&dir);
    let mut daemon = Daemon::open(config.clone()).unwrap();
    daemon.submit(small_job("once", 11)).unwrap();
    drain(&mut daemon);
    let before = daemon.load_result("once").unwrap();
    drop(daemon);

    let mut daemon = Daemon::open(config).unwrap();
    assert!(!daemon.has_pending());
    assert_eq!(daemon.run_until_drained(10).unwrap(), 0);
    assert_eq!(daemon.load_result("once").unwrap(), before);
    assert_eq!(daemon.stats().done, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_job_checkpoint_is_discarded_and_the_job_recomputed() {
    // Baseline result for the same spec, clean run.
    let base_dir = scratch("ckpt-corrupt-base");
    let mut baseline = Daemon::open(ServeConfig::new(&base_dir)).unwrap();
    baseline.submit(small_job("victim", 21)).unwrap();
    drain(&mut baseline);
    let expected = baseline.load_result("victim").unwrap();

    let dir = scratch("ckpt-corrupt");
    let mut config = ServeConfig::new(&dir);
    config.slice_records = 2;
    let mut daemon = Daemon::open(config).unwrap();
    daemon.submit(small_job("victim", 21)).unwrap();
    daemon.tick().unwrap();
    let ckpt = daemon.checkpoint_path("victim");
    assert!(ckpt.exists(), "first slice should have checkpointed");
    // Flip a byte in the checkpoint body: the next resume sees Corrupt.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&ckpt, &bytes).unwrap();

    drain(&mut daemon);
    assert!(daemon.stats().retries >= 1, "corruption should cost a retry");
    assert!(matches!(daemon.job("victim").unwrap().state, JobState::Done { .. }));
    assert_eq!(daemon.load_result("victim").unwrap(), expected);
    std::fs::remove_dir_all(&base_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- real SIGKILL against the daemon binary --------------------------------

fn write_spool(spool: &std::path::Path) {
    std::fs::create_dir_all(spool).unwrap();
    for (i, (tenant, seed)) in
        [("a", 31), ("a", 32), ("b", 33), ("b", 34), ("c", 35)].iter().enumerate()
    {
        let mut spec = small_job(&format!("spool-{i}"), *seed);
        spec.tenant = (*tenant).to_string();
        spec.candidates = 5;
        std::fs::write(
            spool.join(format!("{i:02}.json")),
            serde_json::to_string(&spec).unwrap(),
        )
        .unwrap();
    }
}

fn served(state: &std::path::Path, spool: &std::path::Path) -> std::process::Command {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_elivagar-served"));
    cmd.arg("--state")
        .arg(state)
        .arg("--spool")
        .arg(spool)
        .arg("--slice-records")
        .arg("2")
        .arg("--quiet")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    cmd
}

#[test]
fn malformed_numeric_flag_exits_1_before_creating_state() {
    let spool = scratch("bad-flag-spool");
    let state = scratch("bad-flag-state");
    // A malformed `ELIVAGAR_THREADS` would fail every slice of every
    // spooled job, so it must stop the daemon before any job is admitted.
    write_spool(&spool);
    for (threads, args, message) in [
        (
            None,
            &["--tenant-budget", "abc"][..],
            "--tenant-budget expects an unsigned integer, got \"abc\"",
        ),
        (None, &["--queue-depth", "0"], "--queue-depth must be >= 1"),
        (None, &["--slice-records", "0"], "--slice-records must be >= 1"),
        (None, &["--checkpoint-every", "0"], "--checkpoint-every must be >= 1"),
        (None, &["--tenant-weight", "tenant-0=0"], "--tenant-weight must be >= 1"),
        (Some("tow"), &[], "ELIVAGAR_THREADS=\"tow\" is not a thread count"),
        (Some("0"), &[], "ELIVAGAR_THREADS=\"0\" is not a thread count"),
    ] {
        // Not `served()`: its own `--slice-records` would shadow the case's.
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_elivagar-served"));
        cmd.arg("--state").arg(&state).arg("--spool").arg(&spool).args(args);
        if let Some(threads) = threads {
            cmd.env(elivagar_sim::THREADS_ENV, threads);
        }
        let output = cmd.output().expect("spawn daemon");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{threads:?} {args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{threads:?} {args:?} must say why:\n{stderr}");
        assert!(!state.exists(), "{threads:?} {args:?} created the state directory");
    }
    std::fs::remove_dir_all(&spool).unwrap();
}

#[test]
fn sigkill_mid_run_then_restart_completes_bit_identically() {
    let spool = scratch("sigkill-spool");
    write_spool(&spool);

    // Baseline: one uninterrupted daemon process.
    let base_state = scratch("sigkill-base");
    let status = served(&base_state, &spool).status().expect("spawn daemon");
    assert!(status.success(), "baseline daemon failed: {status}");

    // Victim: SIGKILL mid-run, then restart over the same state + spool.
    let state = scratch("sigkill-state");
    let mut child = served(&state, &spool).spawn().expect("spawn daemon");
    std::thread::sleep(std::time::Duration::from_millis(300));
    // SIGKILL (not SIGTERM): no destructors, no flushes — the real crash.
    child.kill().expect("kill daemon");
    let _ = child.wait();

    let status = served(&state, &spool).status().expect("respawn daemon");
    assert!(status.success(), "restarted daemon failed: {status}");

    // Every job completed, and every result artifact is byte-identical to
    // the uninterrupted run's.
    let stats = std::fs::read_to_string(state.join("stats.json")).unwrap();
    assert!(stats.contains("\"done\":5"), "not all jobs completed: {stats}");
    assert!(stats.contains("\"conservation_ok\":true"), "{stats}");
    for i in 0..5 {
        let name = format!("spool-{i}.json");
        let a = std::fs::read(base_state.join("results").join(&name)).unwrap();
        let b = std::fs::read(state.join("results").join(&name)).unwrap();
        assert_eq!(a, b, "result bytes differ for {name}");
    }
    for dir in [&spool, &base_state, &state] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
