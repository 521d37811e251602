//! Structured span tracing: per-thread event buffers, a draining
//! collector, forest validation, and the Chrome Trace Event sink.
//!
//! # Recording model
//!
//! Every thread that opens a span lazily registers one `ThreadBuf`
//! (a pre-allocated event vector plus a span stack) in a global registry.
//! Recording locks only the thread's **own** buffer mutex — uncontended in
//! steady state, so the cost is a couple of atomic operations — and never
//! allocates: events are fixed-size values over `&'static str` names.
//! When a buffer fills it is flushed wholesale into the collector's
//! overflow list (the only allocation on the recording side, amortized
//! over [`THREAD_BUFFER_CAPACITY`] events). [`drain`] gathers overflow
//! plus every live thread buffer into one timestamp-ordered batch.
//!
//! # Identity and parent links
//!
//! Span ids pack `(thread ordinal + 1, per-thread sequence)` so they are
//! unique without global coordination. The parent of a span is whatever
//! span is open on the *same* thread at entry ([`SpanGuard`] is `!Send`,
//! so cross-thread parent corruption is impossible by construction);
//! spans opened by pool workers inside a parallel region are roots of
//! that worker's forest.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events held per thread before a wholesale flush into the collector.
pub const THREAD_BUFFER_CAPACITY: usize = 4096;
/// Span stack depth reserved per thread (deeper nesting still works, at
/// the cost of one reallocation).
const STACK_CAPACITY: usize = 64;

/// Whether an event opens or closes a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span entry (`ph: "B"` in the Chrome trace).
    Begin,
    /// Span exit (`ph: "E"`).
    End,
}

/// One recorded span boundary. Fixed-size and `Copy`: recording an event
/// never allocates.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Span name (static so events stay allocation-free).
    pub name: &'static str,
    /// Begin or End.
    pub kind: EventKind,
    /// Nanoseconds since the process telemetry epoch ([`crate::now_ns`]).
    pub ts_ns: u64,
    /// Recording thread's telemetry ordinal (dense, assigned at first
    /// span; used as `tid` in the Chrome trace).
    pub thread: u32,
    /// Unique span id: `(thread + 1) << 40 | begin-sequence`.
    pub span: u64,
    /// Id of the span open on this thread at entry; `0` for roots.
    pub parent: u64,
    /// Per-thread recording sequence — total order of this thread's
    /// events even when timestamps tie.
    pub seq: u64,
    /// Name of the attached argument (`""` when none).
    pub arg_name: &'static str,
    /// Attached argument value (candidate index, epoch, ...).
    pub arg: i64,
}

struct BufInner {
    events: Vec<Event>,
    /// Open spans on this thread, innermost last.
    stack: Vec<u64>,
    /// Per-thread event sequence counter.
    seq: u64,
}

struct ThreadBuf {
    ordinal: u32,
    inner: Mutex<BufInner>,
}

struct Shared {
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    overflow: Mutex<Vec<Event>>,
    next_ordinal: AtomicU32,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        threads: Mutex::new(Vec::new()),
        overflow: Mutex::new(Vec::new()),
        next_ordinal: AtomicU32::new(0),
    })
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let sh = shared();
        let ordinal = sh.next_ordinal.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(ThreadBuf {
            ordinal,
            inner: Mutex::new(BufInner {
                events: Vec::with_capacity(THREAD_BUFFER_CAPACITY),
                stack: Vec::with_capacity(STACK_CAPACITY),
                seq: 0,
            }),
        });
        sh.threads
            .lock()
            .expect("telemetry thread registry poisoned")
            .push(Arc::clone(&buf));
        buf
    };
}

fn push_event(inner: &mut BufInner, event: Event) {
    if inner.events.len() == inner.events.capacity() {
        // Wholesale flush: the only allocation on the recording side,
        // amortized over a full buffer ("drain time" per the contract).
        shared()
            .overflow
            .lock()
            .expect("telemetry overflow poisoned")
            .append(&mut inner.events);
    }
    inner.events.push(event);
}

/// RAII span: records a Begin event on creation (when tracing is enabled)
/// and the matching End event on drop. `!Send`, so a span always closes
/// on the thread that opened it and per-thread stack discipline holds by
/// construction.
pub struct SpanGuard {
    name: &'static str,
    /// `0` when the guard is inert (tracing disabled at entry).
    span: u64,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro.
    #[inline]
    pub fn enter(name: &'static str, arg_name: &'static str, arg: i64) -> SpanGuard {
        if !crate::tracing_enabled() {
            return SpanGuard {
                name,
                span: 0,
                _not_send: PhantomData,
            };
        }
        Self::enter_recording(name, arg_name, arg)
    }

    #[cold]
    fn enter_recording(name: &'static str, arg_name: &'static str, arg: i64) -> SpanGuard {
        LOCAL.with(|buf| {
            let mut inner = buf.inner.lock().expect("telemetry buffer poisoned");
            inner.seq += 1;
            let seq = inner.seq;
            let span = ((buf.ordinal as u64 + 1) << 40) | seq;
            let parent = inner.stack.last().copied().unwrap_or(0);
            push_event(
                &mut inner,
                Event {
                    name,
                    kind: EventKind::Begin,
                    ts_ns: crate::now_ns(),
                    thread: buf.ordinal,
                    span,
                    parent,
                    seq,
                    arg_name,
                    arg,
                },
            );
            inner.stack.push(span);
            SpanGuard {
                name,
                span,
                _not_send: PhantomData,
            }
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.span == 0 {
            return;
        }
        let span = self.span;
        let name = self.name;
        LOCAL.with(|buf| {
            let mut inner = buf.inner.lock().expect("telemetry buffer poisoned");
            // Unwind the stack to this guard's span. Inner guards leaked
            // across a panic were already popped by their own drops; any
            // remainder here keeps the recorded forest well-formed.
            while let Some(top) = inner.stack.pop() {
                if top == span {
                    break;
                }
            }
            inner.seq += 1;
            let seq = inner.seq;
            let parent = inner.stack.last().copied().unwrap_or(0);
            push_event(
                &mut inner,
                Event {
                    name,
                    kind: EventKind::End,
                    ts_ns: crate::now_ns(),
                    thread: buf.ordinal,
                    span,
                    parent,
                    seq,
                    arg_name: "",
                    arg: 0,
                },
            );
        });
    }
}

/// Drains every recorded event — the overflow list plus all live thread
/// buffers — ordered by timestamp (ties broken by thread, then recording
/// sequence). Call between runs, or after disabling tracing, so a batch
/// holds complete span trees.
pub fn drain() -> Vec<Event> {
    let sh = shared();
    let mut all: Vec<Event> = {
        let mut overflow = sh.overflow.lock().expect("telemetry overflow poisoned");
        std::mem::take(&mut *overflow)
    };
    {
        let threads = sh.threads.lock().expect("telemetry thread registry poisoned");
        for t in threads.iter() {
            let mut inner = t.inner.lock().expect("telemetry buffer poisoned");
            all.append(&mut inner.events);
            // Keep steady-state recording allocation-free after a drain.
            inner.events.reserve(THREAD_BUFFER_CAPACITY);
        }
    }
    all.sort_by_key(|e| (e.ts_ns, e.thread, e.seq));
    all
}

/// Structural summary returned by a successful [`validate_forest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForestSummary {
    /// Events inspected.
    pub events: usize,
    /// Complete spans (Begin/End pairs).
    pub spans: usize,
    /// Spans with no parent.
    pub roots: usize,
    /// Deepest nesting across all threads.
    pub max_depth: usize,
}

/// Checks that a drained batch forms a well-formed span forest: on every
/// thread, Begin/End events nest like parentheses, each span's recorded
/// parent is exactly the span open at its entry, and nothing is left
/// open. Returns a structural summary, or a description of the first
/// violation.
pub fn validate_forest(events: &[Event]) -> Result<ForestSummary, String> {
    let mut by_thread: Vec<(u32, Vec<&Event>)> = Vec::new();
    for e in events {
        match by_thread.iter_mut().find(|(t, _)| *t == e.thread) {
            Some((_, v)) => v.push(e),
            None => by_thread.push((e.thread, vec![e])),
        }
    }
    let mut spans = 0usize;
    let mut roots = 0usize;
    let mut max_depth = 0usize;
    for (thread, mut evs) in by_thread {
        evs.sort_by_key(|e| e.seq);
        let mut stack: Vec<u64> = Vec::new();
        for e in evs {
            match e.kind {
                EventKind::Begin => {
                    let open = stack.last().copied().unwrap_or(0);
                    if e.parent != open {
                        return Err(format!(
                            "span {:#x} '{}' on thread {thread} records parent {:#x} \
                             but the open span is {:#x}",
                            e.span, e.name, e.parent, open
                        ));
                    }
                    if e.parent == 0 {
                        roots += 1;
                    }
                    stack.push(e.span);
                    spans += 1;
                    max_depth = max_depth.max(stack.len());
                }
                EventKind::End => match stack.pop() {
                    Some(top) if top == e.span => {}
                    Some(top) => {
                        return Err(format!(
                            "span '{}' ({:#x}) on thread {thread} closed while {:#x} was \
                             innermost",
                            e.name, e.span, top
                        ));
                    }
                    None => {
                        return Err(format!(
                            "span '{}' ({:#x}) on thread {thread} closed with no span open",
                            e.name, e.span
                        ));
                    }
                },
            }
        }
        if let Some(&open) = stack.last() {
            return Err(format!(
                "{} span(s) left open on thread {thread} (innermost {open:#x})",
                stack.len()
            ));
        }
    }
    Ok(ForestSummary {
        events: events.len(),
        spans,
        roots,
        max_depth,
    })
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Writes a drained batch in the Chrome Trace Event format: a valid JSON
/// array with one duration event (`ph: "B"`/`"E"`) per line, directly
/// loadable in `chrome://tracing` or Perfetto. Timestamps are
/// microseconds with nanosecond precision.
pub fn write_chrome_trace<W: std::io::Write>(events: &[Event], w: &mut W) -> std::io::Result<()> {
    writeln!(w, "[")?;
    for (i, e) in events.iter().enumerate() {
        let mut line = String::with_capacity(128);
        line.push_str("{\"name\":\"");
        escape_json(e.name, &mut line);
        line.push_str("\",\"cat\":\"elivagar\",\"ph\":\"");
        line.push_str(match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
        });
        line.push_str("\",\"ts\":");
        line.push_str(&format!("{:.3}", e.ts_ns as f64 / 1000.0));
        line.push_str(&format!(",\"pid\":1,\"tid\":{}", e.thread));
        if e.kind == EventKind::Begin && !e.arg_name.is_empty() {
            line.push_str(",\"args\":{\"");
            escape_json(e.arg_name, &mut line);
            line.push_str(&format!("\":{}", e.arg));
        } else {
            line.push_str(",\"args\":{\"span\":");
            line.push_str(&format!("{}", e.span));
        }
        line.push('}');
        line.push('}');
        if i + 1 < events.len() {
            line.push(',');
        }
        writeln!(w, "{line}")?;
    }
    writeln!(w, "]")
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Tracing state and buffers are process-global; unit tests that
    /// enable tracing serialize on this lock.
    pub fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_links() {
        let _g = testutil::lock();
        crate::set_tracing(true);
        let _ = drain();
        {
            let _a = crate::span!("outer");
            {
                let _b = crate::span!("inner", candidate = 7usize);
            }
            let _c = crate::span!("sibling");
        }
        crate::set_tracing(false);
        let events = drain();
        assert_eq!(events.len(), 6);
        let summary = validate_forest(&events).expect("well-formed");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.roots, 1);
        assert_eq!(summary.max_depth, 2);
        let inner = events
            .iter()
            .find(|e| e.name == "inner" && e.kind == EventKind::Begin)
            .expect("inner begin");
        let outer = events
            .iter()
            .find(|e| e.name == "outer" && e.kind == EventKind::Begin)
            .expect("outer begin");
        assert_eq!(inner.parent, outer.span);
        assert_eq!(inner.arg_name, "candidate");
        assert_eq!(inner.arg, 7);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = testutil::lock();
        crate::set_tracing(false);
        let _ = drain();
        {
            let _a = crate::span!("ghost");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn guard_leaked_across_panic_keeps_forest_well_formed() {
        let _g = testutil::lock();
        crate::set_tracing(true);
        let _ = drain();
        let result = std::panic::catch_unwind(|| {
            let _a = crate::span!("doomed");
            panic!("injected");
        });
        assert!(result.is_err());
        crate::set_tracing(false);
        let events = drain();
        validate_forest(&events).expect("unwind closed the span");
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn validator_rejects_unclosed_and_misparented_spans() {
        let mk = |name, kind, thread, span, parent, seq| Event {
            name,
            kind,
            ts_ns: seq,
            thread,
            span,
            parent,
            seq,
            arg_name: "",
            arg: 0,
        };
        // Unclosed span.
        let events = [mk("open", EventKind::Begin, 0, 1, 0, 1)];
        assert!(validate_forest(&events).unwrap_err().contains("left open"));
        // Parent link disagrees with the open span.
        let events = [
            mk("a", EventKind::Begin, 0, 1, 0, 1),
            mk("b", EventKind::Begin, 0, 2, 99, 2),
            mk("b", EventKind::End, 0, 2, 1, 3),
            mk("a", EventKind::End, 0, 1, 0, 4),
        ];
        assert!(validate_forest(&events).unwrap_err().contains("parent"));
        // End with nothing open.
        let events = [mk("z", EventKind::End, 0, 5, 0, 1)];
        assert!(validate_forest(&events)
            .unwrap_err()
            .contains("no span open"));
    }

    #[test]
    fn chrome_trace_is_balanced_and_escaped() {
        let mk = |name, kind, seq| Event {
            name,
            kind,
            ts_ns: seq * 1000,
            thread: 3,
            span: 42,
            parent: 0,
            seq,
            arg_name: "candidate",
            arg: -1,
        };
        let events = [
            mk("eval \"x\"\\", EventKind::Begin, 1),
            mk("eval \"x\"\\", EventKind::End, 2),
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\\\"x\\\"\\\\"));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
        assert!(text.contains("\"tid\":3"));
        assert!(text.contains("\"candidate\":-1"));
    }
}
