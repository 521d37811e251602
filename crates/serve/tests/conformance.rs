//! Telemetry conformance for the serve layer: the global `serve.*`
//! counters and the `job_latency` histogram must agree exactly with the
//! daemon's own [`ServeStats`], and the job funnel must conserve
//! (`admitted = done + failed + dead_letter + shed + pending`).
//!
//! One test in its own binary: the metrics registry is process-global,
//! and any other daemon activity in the same process would pollute the
//! deltas.

use elivagar_serve::{AdmitError, Daemon, FailKind, JobSpec, JobState, ServeConfig};

#[test]
fn serve_counters_agree_with_daemon_stats_and_conserve_jobs() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("elivagar-serve-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = elivagar_obs::metrics::snapshot();

    let mut config = ServeConfig::new(&dir);
    config.queue_depth = 2;
    config.slice_records = 1;
    let mut daemon = Daemon::open(config).unwrap();

    let small = |id: &str| {
        let mut spec = JobSpec::named(id);
        spec.train_size = 12;
        spec.test_size = 4;
        spec
    };

    // One of each outcome: `a` completes, `b` is shed by `c`, `c` fails
    // its (zero-slice) deadline, and a duplicate submission is rejected.
    let mut a = small("a");
    a.priority = 1;
    daemon.submit(a).unwrap();
    daemon.submit(small("b")).unwrap();
    assert!(matches!(daemon.submit(small("a")), Err(AdmitError::DuplicateId { .. })));
    let mut c = small("c");
    c.priority = 5;
    c.deadline_slices = Some(0);
    daemon.submit(c).unwrap();
    assert!(matches!(daemon.job("b").unwrap().state, JobState::Shed { .. }));

    let used = daemon.run_until_drained(200).unwrap();
    assert!(used < 200);
    assert!(matches!(daemon.job("a").unwrap().state, JobState::Done { .. }));
    match &daemon.job("c").unwrap().state {
        JobState::Failed(reason) => assert_eq!(reason.kind, FailKind::Deadline),
        other => panic!("expected deadline failure for c, got {other:?}"),
    }

    // The conservation invariant, both as the daemon checks it and spelled
    // out: every admitted job is accounted for in exactly one bucket.
    assert_eq!(daemon.verify_conservation(), None);
    let stats = daemon.stats().clone();
    let pending = daemon.jobs().values().filter(|j| !j.state.is_terminal()).count() as u64;
    assert_eq!(
        stats.admitted,
        stats.done + stats.failed + stats.dead_letter + stats.shed + pending
    );

    // Global telemetry deltas must match the daemon's view one-for-one.
    let delta = elivagar_obs::metrics::snapshot().since(&before);
    for (label, want) in [
        ("serve.jobs_admitted", stats.admitted),
        ("serve.jobs_rejected", stats.rejected),
        ("serve.retries", stats.retries),
        ("serve.shed", stats.shed),
        ("serve.slices", stats.slices),
        ("serve.jobs_done", stats.done),
        ("serve.jobs_failed", stats.failed),
        ("serve.dead_letter", stats.dead_letter),
    ] {
        assert_eq!(delta.counter(label), want, "counter {label} disagrees with ServeStats");
    }
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.done, 1);
    assert_eq!(stats.failed, 1);

    // Every terminal job (done or failed) recorded exactly one latency
    // observation, in ServeStats and in the global histogram alike.
    let latencies = delta
        .histograms
        .iter()
        .find(|(name, _)| *name == "job_latency")
        .map(|(_, h)| h.count())
        .unwrap_or(0);
    assert_eq!(latencies, stats.latencies_ns.len() as u64);
    assert_eq!(latencies, stats.done + stats.failed + stats.dead_letter);

    std::fs::remove_dir_all(&dir).unwrap();
}
