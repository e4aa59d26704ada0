//! # emblookup-obs
//!
//! Zero-dependency observability substrate for the EmbLookup workspace:
//! a `metrics`/`tracing`/`hdrhistogram`-flavoured toolkit implemented on
//! std only, so the workspace keeps building offline.
//!
//! * **Metrics** — [`MetricsRegistry`] names atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed [`Histogram`]s (p50/p90/p99/max,
//!   count/sum). Resolve a handle once, then record lock-free; the
//!   process-global registry is [`global()`].
//! * **Names** — every metric and span name is a [`names::Name`]
//!   constant; registration takes a `Name`, and only this crate builds
//!   one.
//! * **Spans** — [`Span::enter(names::INDEX_BUILD)`](Span::enter) RAII
//!   guards time a stage into the global histogram of the same name.
//! * **Exporters** — a [`MetricsSnapshot`] renders to Prometheus text
//!   ([`MetricsSnapshot::to_prometheus`]) or an aligned table
//!   ([`MetricsSnapshot::render_table`]).
//! * **Traces** — a request-scoped [`Trace`] builds a span tree through
//!   explicitly threaded [`TraceSpan`] handles (no thread-locals);
//!   span ids are allocated in creation order so the tree shape is
//!   deterministic, and [`TraceClock`] can share a virtual-nanosecond
//!   counter with a deadline clock for bit-identical capture under
//!   fault injection. Completed [`TraceData`] lands in the fixed-size
//!   overwrite-oldest [`FlightRecorder`] ring; a [`TailSampler`]
//!   promotes traces judged interesting after the fact (slow, shed,
//!   degraded, error, panic — [`Trigger`]) into per-class retained
//!   buffers, and [`TraceHub`] bundles both behind one `publish()`.
//!   Export as JSON ([`TraceData::to_json`]) or Chrome `trace_event`
//!   ([`traces_to_chrome_json`]); [`Histogram`] exemplars link a
//!   `/metrics` percentile line back to the trace id that produced it.
//!
//! ```
//! use emblookup_obs::{self as obs, names};
//!
//! let lookups = obs::global().histogram(names::LOOKUP_LATENCY);
//! {
//!     let _stage = obs::Span::enter(names::INDEX_BUILD);
//!     // ... build ...
//! }
//! lookups.record(12_345); // nanoseconds, lock-free
//! let snap = obs::global().snapshot();
//! assert!(snap.histogram("index.build").unwrap().count >= 1);
//! println!("{}", snap.render_table());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod fmt;
pub mod names;
pub mod ring;
pub mod sample;
#[expect(clippy::disallowed_types, reason = "the one module that may name std::sync::atomic")]
pub mod sync;
pub mod trace;
mod hist;
mod json;
mod registry;
mod span;

pub use fmt::{fmt_duration, fmt_nanos};
pub use hist::{Exemplar, Histogram, HistogramSnapshot};
pub use json::escape_json;
pub use registry::{global, Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use ring::FlightRecorder;
pub use sample::{RetainedTrace, TailSampler, TraceHub, Trigger};
pub use span::Span;
pub use trace::{
    format_trace_id, parse_trace_id, trace_id_from_index, traces_to_chrome_json, AnnoValue,
    SpanRecord, Trace, TraceClock, TraceData, TraceSpan,
};
