//! Integration tests for the serve daemon: admission control, fair-share
//! scheduling, deadlines, budgets, and crash-resume (in-process restarts
//! plus a real `SIGKILL` against the `elivagar-served` binary).
//!
//! Everything here runs without fault injection; the chaos suite
//! (`tests/chaos.rs`) covers kills and torn writes at armed faultpoints.

use elivagar::checkpoint::crc32;
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

    let mut zero_train = small_job("zt", 0);
    zero_train.train_size = 0;
    assert!(matches!(daemon.submit(zero_train), Err(AdmitError::InvalidSpec { .. })));

    let mut zero_test = small_job("zx", 0);
    zero_test.test_size = 0;
    assert!(matches!(daemon.submit(zero_test), Err(AdmitError::InvalidSpec { .. })));

    let mut path_id = small_job("../escape", 0);
    path_id.id = "../escape".into();
    assert!(matches!(daemon.submit(path_id), Err(AdmitError::InvalidSpec { .. })));

    assert_eq!(daemon.stats().rejected, 9);
    assert_eq!(daemon.stats().admitted, 1);
    assert_eq!(daemon.verify_conservation(), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_refuses_a_zero_setting_before_creating_state() {
    let dir = scratch("zero-config");
    let zeroed: [fn(&mut ServeConfig); 3] = [
        |c| c.queue_depth = 0,
        |c| c.slice_records = 0,
        |c| c.tenant_weights = vec![("a".into(), 2), ("b".into(), 0)],
    ];
    let settings = ["queue_depth", "slice_records", "tenant \"b\""];
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

/// A wall-clock deadline that has already passed is noticed at the first
/// commit of the first slice, even though that commit lands on the slice's
/// stop point (10 candidates, 6-record slices): the job fails typed, no
/// slice commits, and the evaluations the slice finished are durable.
#[test]
fn wall_clock_deadline_fails_typed_in_the_first_slice() {
    let dir = scratch("deadline-ms");
    let mut daemon = Daemon::open(ServeConfig::new(&dir)).unwrap();
    let mut job = small_job("late", 5);
    job.candidates = 10;
    job.deadline_ms = Some(0);
    daemon.submit(job).unwrap();
    drain(&mut daemon);

    let job = daemon.job("late").unwrap();
    match &job.state {
        JobState::Failed(reason) => {
            assert_eq!(reason.kind, FailKind::Deadline);
            assert!(reason.detail.contains("wall-clock deadline"), "{}", reason.detail);
        }
        other => panic!("expected deadline failure, got {other:?}"),
    }
    assert_eq!(daemon.stats().slices, 0);
    let journal = std::fs::read_to_string(dir.join("journal.log")).unwrap();
    assert!(!journal.contains("SliceCommitted"), "{journal}");
    assert!(daemon.checkpoint_path("late").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// No dispatch runs past a slice's stop point, so a slice budget the
/// search's dispatches do not divide still commits exact multiples of it,
/// across the CNR-to-RepCap boundary too.
#[test]
fn an_odd_slice_budget_commits_exact_multiples_of_it() {
    let dir = scratch("odd-slices");
    let mut daemon = Daemon::open(ServeConfig::new(&dir)).unwrap();
    let mut job = small_job("odd", 7);
    job.candidates = 10;
    job.slice_records = Some(3);
    daemon.submit(job).unwrap();
    let mut commits = Vec::new();
    while daemon.has_pending() {
        daemon.tick().unwrap();
        let job = daemon.job("odd").unwrap();
        if matches!(job.state, JobState::Queued) {
            commits.push(job.records);
        }
        assert!(commits.len() < 100, "the job never finished");
    }
    let JobState::Done { records } = daemon.job("odd").unwrap().state else {
        panic!("expected completion, got {:?}", daemon.job("odd").unwrap().state);
    };
    assert!(records > 10, "RepCap records follow the 10 CNR records: {records}");
    let multiples: Vec<u64> = (1..=commits.len() as u64).map(|k| 3 * k).collect();
    assert_eq!(commits, multiples);
    assert!(records - commits.last().copied().unwrap_or(0) <= 3);
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

// ---- durable bytes ---------------------------------------------------------

/// FNV-1a-64 of a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fleet of [`durable_bytes_are_pinned`]: 8 training jobs from 3
/// tenants over 3 benchmarks, in pairs that repeat a (benchmark, seed).
/// The last two pairs share one result cache, so one job of each is
/// served from the other's entries. `g-3` slices 4 records at a time,
/// which the daemon's default of 6 does not divide.
fn golden_fleet(cache_dir: &str) -> Vec<JobSpec> {
    let benchmarks = ["moons", "bank", "vowel-2", "moons"];
    (0..8)
        .map(|i| {
            let mut spec = small_job(&format!("g-{i}"), 60 + i as u64 / 2);
            spec.tenant = ["a", "b", "c"][i % 3].into();
            spec.benchmark = benchmarks[i / 2].into();
            spec.candidates = 10;
            spec.train_epochs = Some(1);
            if i == 3 {
                spec.slice_records = Some(4);
            }
            if i >= 4 {
                spec.cache_dir = Some(cache_dir.into());
            }
            spec
        })
        .collect()
}

/// The daemon journal with every `path` replaced by `token` and each
/// line's CRC recomputed: the bytes a daemon would have written had the
/// cache directory been named `token`.
fn journal_with_token(text: &str, path: &str, token: &str) -> String {
    text.lines()
        .map(|line| {
            let (body, crc) = line.rsplit_once(' ').expect("journal line ends in its CRC");
            assert_eq!(crc, format!("{:08x}", crc32(body.as_bytes())), "journal CRC of {body}");
            let body = body.replace(path, token);
            format!("{body} {:08x}\n", crc32(body.as_bytes()))
        })
        .collect()
}

/// Everything the daemon makes durable for a fixed fleet, as
/// `(length, FNV-1a-64)`: the daemon journal (cache path tokenized), the
/// result artifacts and the final per-job checkpoints, each concatenated
/// in job-id order. The bytes do not depend on the thread count
/// (`scripts/verify.sh` runs this at `ELIVAGAR_THREADS=1/2/4`), nor on
/// how many dispatches or checkpoint saves a slice takes.
#[test]
fn durable_bytes_are_pinned() {
    let dir = scratch("golden-bytes");
    let cache_dir = scratch("golden-bytes-cache").display().to_string();
    let fleet = golden_fleet(&cache_dir);
    let mut daemon = Daemon::open(ServeConfig::new(&dir)).unwrap();
    for spec in &fleet {
        daemon.submit(spec.clone()).unwrap();
    }
    // No other test in this binary names a cache, so every hit is this
    // fleet's.
    let before = elivagar_obs::metrics::snapshot();
    drain(&mut daemon);
    assert_eq!(daemon.stats().done, 8);
    let hits = elivagar_obs::metrics::snapshot().since(&before).counter("cache.hits");
    assert!(hits > 0, "the pairs sharing a cache must hit it");

    let journal = std::fs::read_to_string(dir.join("journal.log")).unwrap();
    let journal = journal_with_token(&journal, &cache_dir, "<cache>");
    let concat = |path: fn(&Daemon, &str) -> PathBuf| -> Vec<u8> {
        fleet.iter().flat_map(|s| std::fs::read(path(&daemon, &s.id)).unwrap()).collect()
    };
    let results = concat(Daemon::result_path);
    let checkpoints = concat(Daemon::checkpoint_path);
    let pinned = |bytes: &[u8]| (bytes.len(), fnv1a64(bytes));
    assert_eq!(pinned(journal.as_bytes()), (3_480, 0x497a_8f12_8968_1a61), "journal.log");
    assert_eq!(pinned(&results), (1_456, 0x6d8c_667e_c958_8f2b), "results");
    assert_eq!(pinned(&checkpoints), (12_024, 0x32fd_4b44_7882_2899), "checkpoints");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cache_dir).unwrap();
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
        // Flags the daemon does not know: one it dropped and a typo.
        (None, &["--checkpoint-every", "0"], "unknown flag --checkpoint-every"),
        (None, &["--slice-record", "3"], "unknown flag --slice-record"),
        (None, &["--tenant-weight", "tenant-0=0"], "--tenant-weight must be >= 1"),
        (None, &["--queue-depth"], "--queue-depth expects a value"),
        (None, &["--max-ticks", "--quiet"], "--max-ticks expects a value"),
        (None, &["--tenant-weight", "--quiet"], "--tenant-weight expects a value"),
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

    // `--state` and `--spool` without a value must not take the next flag
    // as a path: run from an empty directory, where such a path would land.
    let cwd = scratch("bad-flag-cwd");
    std::fs::create_dir_all(&cwd).unwrap();
    for (args, flag) in [
        (&["--state", "--quiet"][..], "--state"),
        (&["--state", "state", "--spool", "--quiet"], "--spool"),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_elivagar-served"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("spawn daemon");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.contains(&format!("{flag} expects a value")), "{args:?}:\n{stderr}");
        let left: Vec<_> =
            std::fs::read_dir(&cwd).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(left.is_empty(), "{args:?} created {left:?}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
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
