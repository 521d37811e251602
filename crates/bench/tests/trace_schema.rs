//! Chrome Trace Event schema conformance for `--trace-out` exports.
//!
//! Runs the golden search task with tracing enabled, renders the drained
//! span forest through [`elivagar_obs::write_chrome_trace`], and checks the
//! output against the Trace Event format that `chrome://tracing` and
//! Perfetto consume: a JSON array of objects with `name`/`cat`/`ph`/`ts`/
//! `pid`/`tid` keys, duration events balanced as `B`/`E` pairs per thread,
//! and microsecond timestamps.
//!
//! Lives in its own test binary because span tracing is process-global
//! state; a single `#[test]` keeps the recording window unshared.

use elivagar::config::SearchConfig;
use elivagar::search;
use elivagar_datasets::moons;
use elivagar_device::devices::ibm_lagos;
use serde::Value;

/// Local newtype so the vendored `serde_json::from_str` can hand back the
/// raw [`Value`] tree (the vendored `Value` has no blanket self-impl).
struct Raw(Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

fn entry<'a>(entries: &'a [(String, Value)], key: &str) -> &'a Value {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("event missing required key `{key}`"))
}

fn as_str<'a>(v: &'a Value, what: &str) -> &'a str {
    match v {
        Value::Str(s) => s,
        other => panic!("{what} must be a JSON string, got {other:?}"),
    }
}

fn as_f64(v: &Value, what: &str) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        other => panic!("{what} must be a JSON number, got {other:?}"),
    }
}

#[test]
fn chrome_trace_export_is_schema_conformant() {
    // Discard any events left over from other telemetry in this process.
    elivagar_obs::drain();
    elivagar_obs::set_tracing(true);
    let device = ibm_lagos();
    let dataset = moons(60, 20, 3).normalized(std::f64::consts::PI);
    let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
    config.num_candidates = 6;
    let result = search::search(&device, &dataset, &config);
    elivagar_obs::set_tracing(false);
    assert!(result.scored[0].score.is_some(), "search produced a winner");

    let events = elivagar_obs::drain();
    let summary = elivagar_obs::validate_forest(&events).expect("well-formed span forest");
    assert!(summary.spans > 0, "search recorded spans");

    let mut buf = Vec::new();
    elivagar_obs::write_chrome_trace(&events, &mut buf).expect("in-memory write");
    let text = String::from_utf8(buf).expect("trace is UTF-8");

    let parsed: Raw = serde_json::from_str(&text).expect("trace parses as JSON");
    let Value::Seq(items) = parsed.0 else {
        panic!("top level of a Chrome trace must be a JSON array");
    };
    assert_eq!(items.len(), events.len(), "one JSON event per drained event");

    // Per-(pid, tid) B/E balance, as chrome://tracing builds its flame
    // graph: every End must close the most recent Begin on its track.
    let mut open: std::collections::HashMap<(u64, u64), Vec<String>> =
        std::collections::HashMap::new();
    let mut names: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut last_ts = f64::MIN;
    for item in &items {
        let Value::Map(entries) = item else {
            panic!("every trace event must be a JSON object");
        };
        let name = as_str(entry(entries, "name"), "name").to_string();
        assert_eq!(as_str(entry(entries, "cat"), "cat"), "elivagar");
        let ph = as_str(entry(entries, "ph"), "ph").to_string();
        let ts = as_f64(entry(entries, "ts"), "ts");
        let pid = as_f64(entry(entries, "pid"), "pid") as u64;
        let tid = as_f64(entry(entries, "tid"), "tid") as u64;
        assert_eq!(pid, 1, "single-process trace");
        assert!(ts >= 0.0, "timestamps are non-negative microseconds");
        assert!(ts >= last_ts, "events are emitted in timestamp order");
        last_ts = ts;
        match entries.iter().find(|(k, _)| k == "args").map(|(_, v)| v) {
            Some(Value::Map(_)) | None => {}
            Some(other) => panic!("args must be a JSON object, got {other:?}"),
        }
        let track = open.entry((pid, tid)).or_default();
        match ph.as_str() {
            "B" => {
                names.insert(name);
                track.push(ph);
            }
            "E" => {
                assert!(track.pop().is_some(), "E without a matching B on tid {tid}");
            }
            other => panic!("unexpected phase {other:?} (only B/E duration events)"),
        }
    }
    for ((_, tid), track) in &open {
        assert!(track.is_empty(), "unclosed B events remain on tid {tid}");
    }

    // Every pipeline stage the search instruments shows up in the trace.
    for expected in [
        "search",
        "generate_stage",
        "cnr_stage",
        "cnr_eval",
        "repcap_stage",
        "repcap_eval",
        "score_stage",
    ] {
        assert!(names.contains(expected), "trace is missing span `{expected}`");
    }
}
