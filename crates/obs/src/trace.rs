//! Request-scoped structured tracing: explicit span trees, no TLS.
//!
//! A [`Trace`] is minted once per request (trace id from the wire or
//! derived from the request index) and handed around **explicitly** —
//! there is no thread-local ambient context, so the span tree a request
//! produces is a pure function of the code path it took. Span handles
//! ([`TraceSpan`]) are cheap clonable references into the trace;
//! creation order assigns span ids, so a request whose stages are
//! created sequentially yields a deterministic tree shape regardless of
//! how many pool workers later execute the chunks.
//!
//! Time comes from a [`TraceClock`]: real wall time in production, or a
//! shared virtual nanosecond counter under the fault harness, in which
//! case captured durations are bit-identical across pool widths (only
//! the `thread` ordinal of a span may differ).
//!
//! Completed traces snapshot into an immutable [`TraceData`], which
//! renders as structured JSON (`/debug/traces`) or Chrome
//! `trace_event` JSON (`/debug/traces/chrome`, loadable in
//! `about:tracing` / Perfetto).

use crate::json::escape_json;
use crate::sync::RelaxedU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sentinel for "span still open" in [`SpanRecord::end_ns`].
const OPEN: u64 = u64::MAX;

/// Renders a trace id as the 16-hex-digit wire form used by the
/// `x-emblookup-trace-id` header and `/debug/traces/<id>`.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a wire-form trace id (1–16 hex digits). Returns `None` for
/// empty, oversized, or non-hex input and for the reserved id `0`.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Derives a non-zero trace id deterministically from a request index
/// (splitmix64 finalizer), for clients that did not send one.
pub fn trace_id_from_index(index: u64) -> u64 {
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let id = z ^ (z >> 31);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Small process-wide thread ordinal (1, 2, …) used instead of
/// `std::thread::ThreadId` so span records stay plain `u64`s.
pub(crate) fn thread_ordinal() -> u64 {
    use std::cell::Cell;
    // id allocator: uniqueness, not ordering
    static NEXT: RelaxedU64 = RelaxedU64::new(1);
    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(0) };
    }
    ORDINAL.with(|cell| {
        let v = cell.get();
        if v != 0 {
            return v;
        }
        let v = NEXT.add(1);
        cell.set(v);
        v
    })
}

/// The time source spans stamp their start/end from.
#[derive(Debug, Clone)]
pub enum TraceClock {
    /// Wall time relative to an epoch (normally the trace mint).
    Real(Instant),
    /// A shared virtual nanosecond counter; only explicit advances (the
    /// fault harness's injected latency) move it, so durations are
    /// deterministic.
    Virtual(Arc<RelaxedU64>),
}

impl TraceClock {
    /// A real-time clock anchored now.
    pub fn real() -> Self {
        TraceClock::Real(Instant::now())
    }

    /// A virtual clock over a shared nanosecond counter.
    pub fn virtual_shared(ns: Arc<RelaxedU64>) -> Self {
        TraceClock::Virtual(ns)
    }

    /// Nanoseconds since the clock's epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        match self {
            TraceClock::Real(epoch) => epoch.elapsed().as_nanos() as u64,
            // a late-by-one read only shifts a span timestamp
            TraceClock::Virtual(ns) => ns.get(),
        }
    }
}

/// A span annotation value: unsigned integer or static string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnoValue {
    /// An unsigned integer (counts, milliseconds, …).
    U64(u64),
    /// A static string (rung name, backend name, fault kind, …).
    Str(&'static str),
}

impl From<u64> for AnnoValue {
    fn from(v: u64) -> Self {
        AnnoValue::U64(v)
    }
}

impl From<&'static str> for AnnoValue {
    fn from(v: &'static str) -> Self {
        AnnoValue::Str(v)
    }
}

/// One recorded span: identity, timing, thread, annotations.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, 1-based in creation order; the root span is id 1.
    pub id: u32,
    /// Parent span id; `0` marks the root.
    pub parent: u32,
    /// Registered span name (see `names::`).
    pub name: &'static str,
    /// Start, in clock nanoseconds (`u64::MAX` until a deferred span
    /// begins).
    pub start_ns: u64,
    /// End, in clock nanoseconds (`u64::MAX` while open).
    pub end_ns: u64,
    /// Ordinal of the thread that started the span.
    pub thread: u64,
    /// Annotation `(key, value)` pairs in insertion order.
    pub annotations: Vec<(&'static str, AnnoValue)>,
}

impl SpanRecord {
    /// Wall duration, clamping open/deferred spans to zero-length at
    /// `now_ns`.
    fn duration_ns(&self) -> u64 {
        let start = if self.start_ns == OPEN { self.end_ns } else { self.start_ns };
        self.end_ns.saturating_sub(start)
    }
}

/// A live, in-flight trace: the spine every [`TraceSpan`] handle points
/// into. Span creation and mutation go through one mutex; spans are
/// created sequentially on the request path, so contention is limited
/// to pool workers stamping their own chunk spans.
#[derive(Debug)]
pub struct Trace {
    id: u64,
    clock: TraceClock,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Trace {
    /// Starts a trace with the given wire id and clock.
    pub fn start(id: u64, clock: TraceClock) -> Arc<Trace> {
        Arc::new(Trace { id, clock, spans: Mutex::new(Vec::with_capacity(8)) })
    }

    /// The wire trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        // Per-trace span buffer: short uncontended critical section, only on traced requests
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn new_span(self: &Arc<Trace>, parent: u32, name: &'static str, deferred: bool) -> TraceSpan {
        let (start_ns, thread) = if deferred { (OPEN, 0) } else { (self.clock.now_ns(), thread_ordinal()) };
        let mut spans = self.locked();
        let id = spans.len() as u32 + 1;
        spans.push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns: OPEN,
            thread,
            annotations: Vec::new(),
        });
        drop(spans);
        TraceSpan { trace: Arc::clone(self), id }
    }

    /// Creates and starts the root span. Name-position for lint L003:
    /// `name` must come from `names::`.
    pub fn root(self: &Arc<Trace>, name: &'static str) -> TraceSpan {
        self.new_span(0, name, false)
    }

    /// Snapshots the trace into an immutable [`TraceData`]. Spans still
    /// open are clamped to end now; deferred spans that never began are
    /// recorded as zero-length at their end (or now).
    pub fn snapshot(&self) -> TraceData {
        let now = self.clock.now_ns();
        let mut spans = self.locked().clone();
        for s in &mut spans {
            if s.end_ns == OPEN {
                s.end_ns = now;
            }
            if s.start_ns == OPEN {
                s.start_ns = s.end_ns;
            }
        }
        TraceData { id: self.id, spans }
    }
}

/// A clonable handle onto one span of a [`Trace`]. Handles are **not**
/// RAII guards: a span ends only when [`TraceSpan::finish`] is called
/// (or when the trace is snapshotted, which clamps open spans), so a
/// panic unwinding past a handle leaves an honest open span rather
/// than a fabricated end time.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    trace: Arc<Trace>,
    id: u32,
}

impl TraceSpan {
    /// The owning trace.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// Creates and starts a child span. Name-position for lint L003.
    pub fn child(&self, name: &'static str) -> TraceSpan {
        self.trace.new_span(self.id, name, false)
    }

    /// Creates a child span without starting it; a pool worker later
    /// stamps its start (and thread) via [`TraceSpan::begin`].
    /// Name-position for lint L003.
    pub fn child_deferred(&self, name: &'static str) -> TraceSpan {
        self.trace.new_span(self.id, name, true)
    }

    /// Stamps the start time and executing thread of a deferred span.
    pub fn begin(&self) {
        let now = self.trace.clock.now_ns();
        let thread = thread_ordinal();
        let mut spans = self.trace.locked();
        if let Some(s) = spans.get_mut(self.id as usize - 1) {
            if s.start_ns == OPEN {
                s.start_ns = now;
                s.thread = thread;
            }
        }
    }

    /// Ends the span (first call wins; later calls are no-ops).
    pub fn finish(&self) {
        let now = self.trace.clock.now_ns();
        let mut spans = self.trace.locked();
        if let Some(s) = spans.get_mut(self.id as usize - 1) {
            if s.end_ns == OPEN {
                s.end_ns = now;
            }
        }
    }

    /// Attaches a `(key, value)` annotation to the span.
    pub fn annotate(&self, key: &'static str, value: impl Into<AnnoValue>) {
        let value = value.into();
        let mut spans = self.trace.locked();
        if let Some(s) = spans.get_mut(self.id as usize - 1) {
            s.annotations.push((key, value));
        }
    }
}

/// An immutable, completed span tree ready for storage and export.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// The wire trace id.
    pub id: u64,
    /// All spans, ordered by span id (creation order).
    pub spans: Vec<SpanRecord>,
}

impl TraceData {
    /// Duration of the root span (id 1), or 0 for an empty trace.
    pub fn duration_ns(&self) -> u64 {
        self.spans.first().map_or(0, SpanRecord::duration_ns)
    }

    /// Per-span self time: duration minus the summed durations of
    /// direct children, indexed by span id − 1.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(SpanRecord::duration_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                if let Some(p) = self_ns.get_mut(s.parent as usize - 1) {
                    *p = p.saturating_sub(s.duration_ns());
                }
            }
        }
        self_ns
    }

    /// First annotation value for `key` on the root span.
    pub fn root_annotation(&self, key: &str) -> Option<AnnoValue> {
        self.spans
            .first()?
            .annotations
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// Structured JSON for `/debug/traces`:
    /// `{"trace_id":"…","duration_ns":N,"spans":[…]}`.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::with_capacity(128 + self.spans.len() * 128);
        out.push_str("{\"trace_id\":\"");
        out.push_str(&format_trace_id(self.id));
        out.push_str("\",\"duration_ns\":");
        out.push_str(&self.duration_ns().to_string());
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"thread\":{}",
                s.id,
                s.parent,
                escape_json(s.name),
                s.start_ns,
                s.duration_ns(),
                self_ns.get(i).copied().unwrap_or(0),
                s.thread,
            ));
            out.push_str(",\"annotations\":{");
            for (j, (k, v)) in s.annotations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape_json(k));
                out.push_str("\":");
                match v {
                    AnnoValue::U64(n) => out.push_str(&n.to_string()),
                    AnnoValue::Str(t) => {
                        out.push('"');
                        out.push_str(&escape_json(t));
                        out.push('"');
                    }
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Fixed-point microseconds (`ns / 1000` with 3 decimals) — Chrome
/// `trace_event` wants µs, and decimal-string formatting keeps the
/// export byte-deterministic.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders traces as one Chrome `trace_event` JSON document
/// (`{"traceEvents":[…]}` with `"ph":"X"` complete events), loadable
/// in `about:tracing` or Perfetto. Each trace becomes a `pid`; span
/// threads become `tid`s.
pub fn traces_to_chrome_json(traces: &[TraceData]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, t) in traces.iter().enumerate() {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"emblookup\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":\"{}\"",
                escape_json(s.name),
                micros(if s.start_ns == OPEN { s.end_ns } else { s.start_ns }),
                micros(s.duration_ns()),
                pid + 1,
                s.thread,
                format_trace_id(t.id),
            ));
            for (k, v) in &s.annotations {
                out.push_str(",\"");
                out.push_str(&escape_json(k));
                out.push_str("\":");
                match v {
                    AnnoValue::U64(n) => out.push_str(&n.to_string()),
                    AnnoValue::Str(t) => {
                        out.push('"');
                        out.push_str(&escape_json(t));
                        out.push('"');
                    }
                }
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_roundtrip_and_reserved_zero() {
        assert_eq!(parse_trace_id(&format_trace_id(0xdead_beef)), Some(0xdead_beef));
        assert_eq!(parse_trace_id("0"), None);
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id("11112222333344445"), None);
        assert_ne!(trace_id_from_index(0), 0);
        assert_ne!(trace_id_from_index(1), trace_id_from_index(2));
    }

    #[test]
    fn virtual_clock_builds_deterministic_tree() {
        let ns = Arc::new(RelaxedU64::new(0));
        let trace = Trace::start(7, TraceClock::virtual_shared(Arc::clone(&ns)));
        let root = trace.root("train.total");
        let child = root.child("train.mining");
        ns.add(5_000);
        child.annotate("visited", 42u64);
        child.finish();
        ns.add(1_000);
        root.finish();
        let data = trace.snapshot();
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.spans[0].id, 1);
        assert_eq!(data.spans[1].parent, 1);
        assert_eq!(data.duration_ns(), 6_000);
        assert_eq!(data.spans[1].end_ns - data.spans[1].start_ns, 5_000);
        // self time: root = 6000 - 5000
        assert_eq!(data.self_times_ns(), vec![1_000, 5_000]);
        let json = data.to_json();
        assert!(json.contains("\"trace_id\":\"0000000000000007\""));
        assert!(json.contains("\"visited\":42"));
    }

    #[test]
    fn deferred_spans_begin_late_and_open_spans_clamp() {
        let ns = Arc::new(RelaxedU64::new(0));
        let trace = Trace::start(9, TraceClock::virtual_shared(Arc::clone(&ns)));
        let root = trace.root("train.total");
        let chunk = root.child_deferred("train.mining");
        ns.add(100);
        chunk.begin();
        ns.add(50);
        chunk.finish();
        chunk.finish(); // idempotent
        let never_begun = root.child_deferred("train.triplet");
        let data = trace.snapshot(); // root + never_begun still open
        assert_eq!(data.spans[1].start_ns, 100);
        assert_eq!(data.spans[1].end_ns, 150);
        assert!(data.spans[1].thread != 0);
        // clamped: zero-length at snapshot time
        assert_eq!(data.spans[2].start_ns, data.spans[2].end_ns);
        assert_eq!(data.spans[0].end_ns, 150);
        drop(never_begun);
    }

    #[test]
    fn chrome_export_is_complete_events() {
        let ns = Arc::new(RelaxedU64::new(0));
        let trace = Trace::start(3, TraceClock::virtual_shared(ns.clone()));
        let root = trace.root("train.total");
        ns.add(2_500);
        root.finish();
        let chrome = traces_to_chrome_json(&[trace.snapshot()]);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"dur\":2.500"));
        assert!(chrome.contains("\"trace_id\":\"0000000000000003\""));
    }
}
