//! Structured stage events and pluggable sinks.
//!
//! Instrumented code emits [`Event`]s (span start/end, point events with
//! fields); whatever [`Subscriber`] is installed renders them. Nothing is
//! emitted — and nearly nothing is paid — when no subscriber is set.

use crate::json::escape_json;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// What an [`Event`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span began.
    SpanStart,
    /// A span finished (carries its duration).
    SpanEnd,
    /// A point-in-time structured event.
    Point,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl FieldValue {
    fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) if v.is_finite() => v.to_string(),
            FieldValue::F64(_) => "null".to_string(),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => format!("\"{}\"", escape_json(v)),
        }
    }
}

macro_rules! from_field {
    ($($t:ty => $variant:ident as $cast:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}
from_field!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured observability event.
#[derive(Debug)]
pub struct Event<'a> {
    /// Dotted stage name, e.g. `train.epoch`.
    pub name: &'a str,
    /// Span lifecycle or point event.
    pub kind: EventKind,
    /// Duration in nanoseconds for [`EventKind::SpanEnd`].
    pub duration_ns: Option<u64>,
    /// Attached key/value fields.
    pub fields: &'a [(&'a str, FieldValue)],
}

/// A sink for [`Event`]s. Implementations must be cheap and non-blocking
/// where possible: events fire from instrumented library code.
pub trait Subscriber: Send + Sync {
    /// Handles one event.
    fn on_event(&self, event: &Event<'_>);
}

static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Installs the global subscriber (replacing any previous one).
pub fn set_subscriber(sub: Arc<dyn Subscriber>) {
    *SUBSCRIBER.write().unwrap_or_else(PoisonError::into_inner) = Some(sub);
}

/// Removes the global subscriber.
pub fn clear_subscriber() {
    *SUBSCRIBER.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Sends an event to the installed subscriber, if any.
pub fn emit(event: &Event<'_>) {
    // Uncontended read lock; None is the common case and returns at once.
    if let Some(sub) = SUBSCRIBER.read().unwrap_or_else(PoisonError::into_inner).as_ref() {
        sub.on_event(event);
    }
}

/// Emits a point event with fields.
///
/// ```
/// emblookup_obs::event("train.epoch", &[("epoch", 3usize.into()), ("loss", 0.12.into())]);
/// ```
pub fn event(name: &str, fields: &[(&str, FieldValue)]) {
    emit(&Event { name, kind: EventKind::Point, duration_ns: None, fields });
}

/// Installs subscribers from the environment:
///
/// * `EMBLOOKUP_OBS=stderr` — pretty-printed stage events on stderr;
/// * `EMBLOOKUP_OBS_JSON=<path>` — JSON-lines event log appended to a file.
///
/// Both may be set at once. Returns `true` when any subscriber was
/// installed.
pub fn init_from_env() -> bool {
    let mut subs: Vec<Arc<dyn Subscriber>> = Vec::new();
    if std::env::var("EMBLOOKUP_OBS").is_ok_and(|v| v == "stderr" || v == "1") {
        subs.push(Arc::new(StderrSubscriber));
    }
    if let Ok(path) = std::env::var("EMBLOOKUP_OBS_JSON") {
        match JsonLinesSubscriber::create(&path) {
            Ok(s) => subs.push(Arc::new(s)),
            Err(e) => eprintln!("[obs] cannot open EMBLOOKUP_OBS_JSON={path}: {e}"),
        }
    }
    match subs.len() {
        0 => false,
        1 => {
            #[expect(clippy::expect_used, reason = "this branch only runs when len() == 1")]
            set_subscriber(subs.pop().expect("one subscriber"));
            true
        }
        _ => {
            set_subscriber(Arc::new(MultiSubscriber { subs }));
            true
        }
    }
}

/// Fans one event out to several subscribers.
pub struct MultiSubscriber {
    subs: Vec<Arc<dyn Subscriber>>,
}

impl Subscriber for MultiSubscriber {
    fn on_event(&self, event: &Event<'_>) {
        for s in &self.subs {
            s.on_event(event);
        }
    }
}

/// Human-readable one-line-per-event printer on stderr.
pub struct StderrSubscriber;

impl Subscriber for StderrSubscriber {
    fn on_event(&self, event: &Event<'_>) {
        // span starts are noise at stderr verbosity; ends carry the timing
        if event.kind == EventKind::SpanStart {
            return;
        }
        let mut line = format!("[obs] {}", event.name);
        for (k, v) in event.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        if let Some(ns) = event.duration_ns {
            line.push_str(&format!(" ({})", crate::fmt::fmt_nanos(ns)));
        }
        eprintln!("{line}");
    }
}

/// Appends one JSON object per event to a file.
pub struct JsonLinesSubscriber {
    out: Mutex<BufWriter<File>>,
}

impl JsonLinesSubscriber {
    /// Creates (truncating) the output file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonLinesSubscriber {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Subscriber for JsonLinesSubscriber {
    fn on_event(&self, event: &Event<'_>) {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut line = format!(
            "{{\"ts_unix_ms\":{ts_ms},\"name\":\"{}\",\"kind\":\"{}\"",
            escape_json(event.name),
            event.kind.as_str()
        );
        if let Some(ns) = event.duration_ns {
            line.push_str(&format!(",\"duration_ns\":{ns}"));
        }
        if !event.fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in event.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("\"{}\":{}", escape_json(k), v.to_json()));
            }
            line.push('}');
        }
        line.push('}');
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // per-line flush: the log must survive a crashed experiment
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Captures events in memory — the test harness's subscriber.
#[derive(Default)]
pub struct CollectingSubscriber {
    events: Mutex<Vec<OwnedEvent>>,
}

/// An owned copy of an [`Event`], as captured by [`CollectingSubscriber`].
#[derive(Debug, Clone)]
pub struct OwnedEvent {
    /// Event name.
    pub name: String,
    /// Event kind.
    pub kind: EventKind,
    /// Duration for span ends.
    pub duration_ns: Option<u64>,
    /// Fields rendered with [`FieldValue`]'s `Display`.
    pub fields: Vec<(String, String)>,
}

impl CollectingSubscriber {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// All captured events, in order.
    pub fn events(&self) -> Vec<OwnedEvent> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Number of captured events matching `name` and `kind`.
    pub fn count(&self, name: &str, kind: EventKind) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|e| e.name == name && e.kind == kind)
            .count()
    }
}

impl Subscriber for CollectingSubscriber {
    fn on_event(&self, event: &Event<'_>) {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(OwnedEvent {
            name: event.name.to_string(),
            kind: event.kind,
            duration_ns: event.duration_ns,
            fields: event
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_subscriber_sees_events_in_order() {
        let sub = Arc::new(CollectingSubscriber::new());
        set_subscriber(sub.clone());
        event("a", &[("x", 1u64.into())]);
        event("b", &[]);
        event("a", &[("x", 2u64.into())]);
        clear_subscriber();
        event("after-clear", &[]);
        let names: Vec<String> = sub.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, ["a", "b", "a"]);
        assert_eq!(sub.count("a", EventKind::Point), 2);
        assert_eq!(sub.events()[0].fields, vec![("x".to_string(), "1".to_string())]);
    }

    #[test]
    fn json_lines_subscriber_writes_valid_lines() {
        let dir = std::env::temp_dir().join(format!("obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sub = JsonLinesSubscriber::create(&path).unwrap();
        sub.on_event(&Event {
            name: "stage.\"quoted\"",
            kind: EventKind::SpanEnd,
            duration_ns: Some(1234),
            fields: &[("loss", FieldValue::F64(0.5)), ("tag", FieldValue::Str("a\nb".into()))],
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let line = text.lines().next().unwrap();
        assert!(line.contains("\"duration_ns\":1234"), "{line}");
        assert!(line.contains("stage.\\\"quoted\\\""), "{line}");
        assert!(line.contains("a\\nb"), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
