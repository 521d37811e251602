//! The benchmark's own span recorder.
//!
//! A span wraps one call into a layer's public function. Spans live in
//! memory until the run ends and are then written out as JSON lines. A
//! span's self time is its duration minus the part of it covered by child
//! spans of *other* layers; children of the same layer (the per-candidate
//! calls a fanned-out stage makes on pool threads) are part of their
//! parent's layer, so a parallel stage counts its wall time once.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer every request root span belongs to; its self time is the
/// unattributed remainder (`other_s`).
pub const REQUEST: &str = "request";

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// `0` for a request root.
    pub parent: u64,
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe, in-memory span store shared by the caller and pool tasks.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans (possibly on other threads).
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span whose bounds the caller measured.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Allocates a span id for a span recorded later with [`Recorder::push`].
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds from the recorder's epoch to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time per layer, in seconds. Only spans that start a layer (a root,
/// or a span whose parent is in another layer) are charged; their
/// same-layer descendants are folded in, and the union of the
/// other-layer spans beneath them is subtracted.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let starts_layer = by_id.get(&s.parent).is_none_or(|p| p.layer != s.layer);
        if !starts_layer {
            continue;
        }
        // Walk the same-layer subtree, collecting other-layer children.
        let mut covered: Vec<(u64, u64)> = Vec::new();
        let mut stack = vec![s.id];
        while let Some(id) = stack.pop() {
            for c in children.get(&id).map_or(&[][..], Vec::as_slice) {
                if c.layer == s.layer {
                    stack.push(c.id);
                } else {
                    let start = c.start_ns.clamp(s.start_ns, s.end_ns);
                    covered.push((start, c.end_ns.clamp(start, s.end_ns)));
                }
            }
        }
        let self_ns = s.duration_ns().saturating_sub(union_len(covered));
        *out.entry(s.layer).or_default() += self_ns as f64 * 1e-9;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.request, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer,
            name: layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn self_times_account_for_the_request() {
        // request 0..100: generate 0..10, cnr 10..60 fanned out over two
        // threads (same layer), repcap 60..90; 10 ns are left over.
        let spans = vec![
            span(1, 0, REQUEST, 0, 100),
            span(2, 1, "generate", 0, 10),
            span(3, 1, "cnr", 10, 60),
            span(4, 3, "cnr", 11, 59),
            span(5, 3, "cnr", 12, 58),
            span(6, 1, "repcap", 60, 90),
        ];
        let t = self_seconds(&spans);
        assert!((t["generate"] - 10e-9).abs() < 1e-15);
        assert!((t["cnr"] - 50e-9).abs() < 1e-15);
        assert!((t["repcap"] - 30e-9).abs() < 1e-15);
        assert!((t[REQUEST] - 10e-9).abs() < 1e-15);
        let total: f64 = t.values().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }
}
