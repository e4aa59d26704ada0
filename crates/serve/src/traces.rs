//! The server's trace store: the most recent completed traces plus the
//! tail-sampled ones, behind one mutex.
//!
//! Every request publishes its complete span tree once, before its
//! response is written, and publication waits for the lock rather than
//! dropping the trace — so a client that saw an answer can always fetch
//! its trace. The decision to *retain* a trace runs at publication, when
//! the outcome is known (tail, not head, sampling): a trace whose
//! request was slow, shed, degraded, errored or panicked ([`Trigger`])
//! is kept while one of its classes has room, first come first kept, at
//! most [`TRACE_RETAIN_PER_TRIGGER`] per class. Until a class fills the
//! decision depends only on the request's own outcome, which keeps it
//! deterministic under the virtual-time fault harness. Readers copy
//! `Arc`s under the lock and render JSON after releasing it.

use crate::server::lock;
use emblookup_obs::{
    format_trace_id, names, traces_to_chrome_json, Counter, Histogram, MetricsRegistry, TraceData,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Recent traces kept: every request's span tree lands here, displacing
/// the oldest.
const TRACE_RING_CAP: usize = 256;
/// Tail-sampled traces retained per trigger class; total retention is
/// bounded at five times this.
const TRACE_RETAIN_PER_TRIGGER: usize = 8;
/// Under the adaptive slow threshold, every this-many-th publication
/// re-reads it from the `serve.latency` histogram.
const SLOW_REFRESH_EVERY: u64 = 64;

/// Why a trace was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// Request latency reached the slow-trace threshold (decided by
    /// [`Traces::publish`] itself).
    Slow,
    /// Request was refused by admission control (`429`).
    Shed,
    /// Request was answered by a lower ladder rung (flat / q-gram).
    Degraded,
    /// Request failed (`400` / `500` / `504`).
    Error,
    /// Request panicked and the panic was contained.
    Panic,
}

impl Trigger {
    /// Every trigger class, in display order.
    const ALL: [Trigger; 5] =
        [Trigger::Slow, Trigger::Shed, Trigger::Degraded, Trigger::Error, Trigger::Panic];

    /// Stable lower-case name used in `/debug/traces` output.
    fn name(self) -> &'static str {
        match self {
            Trigger::Slow => "slow",
            Trigger::Shed => "shed",
            Trigger::Degraded => "degraded",
            Trigger::Error => "error",
            Trigger::Panic => "panic",
        }
    }
}

/// Everything behind the store's one lock.
struct Store {
    /// The last [`TRACE_RING_CAP`] published traces, oldest first.
    recent: VecDeque<Arc<TraceData>>,
    /// Retained traces in publication order, each with its triggers in
    /// [`Trigger::ALL`] order.
    retained: Vec<(Arc<TraceData>, Vec<Trigger>)>,
    /// Retained traces per trigger class, indexed by `Trigger as usize`.
    per_class: [usize; 5],
    /// Publications so far; paces the adaptive threshold's refresh.
    published: u64,
    /// Slow-trace threshold in clock nanoseconds.
    slow_ns: u64,
}

/// The server's trace store (see the module doc).
pub(crate) struct Traces {
    store: Mutex<Store>,
    /// `true` when no `slow_trace_ms` was configured and the threshold
    /// follows twice the latency p99.
    adaptive: bool,
    latency: Arc<Histogram>,
    recorded: Arc<Counter>,
    retained: Arc<Counter>,
}

impl Traces {
    /// An empty store. The slow threshold is `slow_trace_ms` or, at `0`,
    /// twice the p99 of `registry`'s `serve.latency`, re-read on every
    /// 64th publication (nothing is slow before the first).
    pub(crate) fn new(slow_trace_ms: u64, registry: &MetricsRegistry) -> Self {
        let adaptive = slow_trace_ms == 0;
        let slow_ns = if adaptive { u64::MAX } else { slow_trace_ms.saturating_mul(1_000_000) };
        Traces {
            store: Mutex::new(Store {
                recent: VecDeque::with_capacity(TRACE_RING_CAP),
                retained: Vec::new(),
                per_class: [0; 5],
                published: 0,
                slow_ns,
            }),
            adaptive,
            latency: registry.histogram(names::SERVE_LATENCY),
            recorded: registry.counter(names::TRACE_RECORDED),
            retained: registry.counter(names::TRACE_RETAINED),
        }
    }

    /// Publishes a completed trace: it joins the recent ones, and is
    /// retained when its classes — `triggers` plus [`Trigger::Slow`] if
    /// its duration reaches the threshold — include one with room.
    pub(crate) fn publish(&self, data: TraceData, triggers: &[Trigger]) {
        let trace = Arc::new(data);
        let kept = {
            let mut store = lock(&self.store);
            store.published += 1;
            if self.adaptive && store.published.is_multiple_of(SLOW_REFRESH_EVERY) {
                let p99 = self.latency.snapshot().p99();
                store.slow_ns = if p99 == 0 { u64::MAX } else { p99.saturating_mul(2) };
            }
            let slow = trace.duration_ns() >= store.slow_ns;
            let classes: Vec<Trigger> = Trigger::ALL
                .into_iter()
                .filter(|&t| if t == Trigger::Slow { slow } else { triggers.contains(&t) })
                .collect();
            if store.recent.len() == TRACE_RING_CAP {
                store.recent.pop_front();
            }
            store.recent.push_back(Arc::clone(&trace));
            let kept = classes
                .iter()
                .any(|&t| store.per_class[t as usize] < TRACE_RETAIN_PER_TRIGGER);
            if kept {
                for &t in &classes {
                    store.per_class[t as usize] += 1;
                }
                store.retained.push((trace, classes));
            }
            kept
        };
        self.recorded.inc();
        if kept {
            self.retained.inc();
        }
    }

    /// `GET /debug/traces`: retained traces with their triggers, sorted
    /// by id, plus the sorted ids of the recent ones.
    pub(crate) fn listing_json(&self) -> String {
        let (mut retained, mut ids) = {
            let store = lock(&self.store);
            (store.retained.clone(), store.recent.iter().map(|t| t.id).collect::<Vec<u64>>())
        };
        // Stable, so equal ids keep publication order.
        retained.sort_by_key(|(t, _)| t.id);
        ids.sort_unstable();
        let retained: Vec<String> = retained.iter().map(|(t, tr)| entry_json(t, tr)).collect();
        let ids: Vec<String> = ids.iter().map(|&id| format!("\"{}\"", format_trace_id(id))).collect();
        format!("{{\"retained\":[{}],\"recent\":[{}]}}", retained.join(","), ids.join(","))
    }

    /// `GET /debug/traces/chrome`: the retained traces, sorted by id, as
    /// one Chrome `trace_event` document.
    pub(crate) fn chrome_json(&self) -> String {
        let mut retained: Vec<Arc<TraceData>> =
            lock(&self.store).retained.iter().map(|(t, _)| Arc::clone(t)).collect();
        retained.sort_by_key(|t| t.id);
        let traces: Vec<TraceData> = retained.iter().map(|t| TraceData::clone(t)).collect();
        traces_to_chrome_json(&traces)
    }

    /// `GET /debug/traces/<id>`: the newest trace with wire id `id`,
    /// with its triggers if it was retained, or `None` when no held
    /// trace has that id.
    pub(crate) fn find_json(&self, id: u64) -> Option<String> {
        let (trace, triggers) = {
            let store = lock(&self.store);
            // The recent traces are the newest publications, so a match
            // there is newer than any retained-only one.
            match store.recent.iter().rev().find(|t| t.id == id) {
                Some(t) => {
                    let triggers = store
                        .retained
                        .iter()
                        .find(|(r, _)| Arc::ptr_eq(r, t))
                        .map_or_else(Vec::new, |(_, triggers)| triggers.clone());
                    (Arc::clone(t), triggers)
                }
                None => store.retained.iter().rev().find(|(r, _)| r.id == id).cloned()?,
            }
        };
        Some(entry_json(&trace, &triggers))
    }
}

/// One trace as `{"triggers":[…],"trace":{…}}`.
fn entry_json(trace: &TraceData, triggers: &[Trigger]) -> String {
    let names: Vec<String> = triggers.iter().map(|t| format!("\"{}\"", t.name())).collect();
    format!("{{\"triggers\":[{}],\"trace\":{}}}", names.join(","), trace.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_obs::{Trace, TraceClock};

    fn trace(id: u64) -> TraceData {
        TraceData { id, spans: Vec::new() }
    }

    /// A one-span trace whose root was open for `ns` virtual nanoseconds.
    fn timed_trace(id: u64, ns: u64) -> TraceData {
        let clock = Arc::new(emblookup_obs::sync::RelaxedU64::new(0));
        let t = Trace::start(id, TraceClock::virtual_shared(Arc::clone(&clock)));
        let root = t.root(names::SPAN_SERVE_REQUEST.as_str());
        clock.add(ns);
        root.finish();
        t.snapshot()
    }

    fn store(slow_trace_ms: u64) -> (Traces, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        (Traces::new(slow_trace_ms, &registry), registry)
    }

    fn retained_ids(traces: &Traces) -> Vec<u64> {
        let mut ids: Vec<u64> = lock(&traces.store).retained.iter().map(|(t, _)| t.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn recent_keeps_the_newest_ring_cap_traces() {
        let (traces, registry) = store(0);
        for id in 1..=(TRACE_RING_CAP as u64 + 10) {
            traces.publish(trace(id), &[]);
        }
        let recent: Vec<u64> = lock(&traces.store).recent.iter().map(|t| t.id).collect();
        assert_eq!(recent, (11..=TRACE_RING_CAP as u64 + 10).collect::<Vec<u64>>());
        assert!(traces.find_json(11).is_some());
        assert!(traces.find_json(10).is_none(), "the oldest traces are displaced");
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::TRACE_RECORDED.as_str()), Some(TRACE_RING_CAP as u64 + 10));
        assert_eq!(snap.counter(names::TRACE_RETAINED.as_str()), Some(0));
    }

    #[test]
    fn retention_is_first_come_per_class_and_rides_a_class_with_room() {
        let (traces, registry) = store(0);
        let cap = TRACE_RETAIN_PER_TRIGGER as u64;
        traces.publish(trace(1000), &[]);
        for id in 0..cap {
            traces.publish(trace(id), &[Trigger::Degraded]);
        }
        traces.publish(trace(100), &[Trigger::Degraded]);
        traces.publish(trace(101), &[Trigger::Degraded, Trigger::Panic]);
        for id in 102..102 + cap - 1 {
            traces.publish(trace(id), &[Trigger::Panic]);
        }
        traces.publish(trace(200), &[Trigger::Panic, Trigger::Degraded]);
        let mut want: Vec<u64> = (0..cap).collect();
        want.push(101);
        want.extend(102..102 + cap - 1);
        assert_eq!(retained_ids(&traces), want, "no trigger, or only full classes: not retained");
        assert_eq!(
            registry.snapshot().counter(names::TRACE_RETAINED.as_str()),
            Some(2 * cap)
        );
        assert!(traces.find_json(100).is_some_and(|j| j.starts_with("{\"triggers\":[]")));
    }

    #[test]
    fn triggers_deduplicate_in_display_order_and_slow_is_decided_here() {
        let (traces, _) = store(5);
        traces.publish(timed_trace(1, 5_000_000), &[Trigger::Error, Trigger::Shed, Trigger::Error]);
        traces.publish(timed_trace(2, 4_999_999), &[]);
        let found = traces.find_json(1).unwrap_or_default();
        assert!(found.starts_with("{\"triggers\":[\"slow\",\"shed\",\"error\"],"), "{found}");
        assert_eq!(retained_ids(&traces), vec![1], "under the threshold is not slow");
    }

    #[test]
    fn adaptive_threshold_follows_latency_p99_from_the_64th_publication() {
        let (traces, registry) = store(0);
        let latency = registry.histogram(names::SERVE_LATENCY);
        for _ in 0..100 {
            latency.record(1_000_000);
        }
        for id in 1..SLOW_REFRESH_EVERY {
            traces.publish(timed_trace(id, 1_000_000_000), &[]);
        }
        assert!(retained_ids(&traces).is_empty(), "nothing is slow before the first refresh");
        traces.publish(timed_trace(SLOW_REFRESH_EVERY, 1_000_000), &[]);
        traces.publish(timed_trace(SLOW_REFRESH_EVERY + 1, 10_000_000), &[]);
        assert_eq!(retained_ids(&traces), vec![SLOW_REFRESH_EVERY + 1]);
    }

    #[test]
    fn find_returns_the_newest_trace_with_an_id() {
        let (traces, _) = store(0);
        traces.publish(timed_trace(7, 1), &[Trigger::Error]);
        traces.publish(timed_trace(7, 2), &[]);
        let found = traces.find_json(7).unwrap_or_default();
        assert!(found.starts_with("{\"triggers\":[],"), "the newer, unretained one: {found}");
        assert!(found.contains("\"duration_ns\":2"), "{found}");
        // Once the ring has moved on, the retained copy is the newest held.
        for id in 100..100 + TRACE_RING_CAP as u64 {
            traces.publish(trace(id), &[]);
        }
        let found = traces.find_json(7).unwrap_or_default();
        assert!(found.starts_with("{\"triggers\":[\"error\"],"), "{found}");
    }
}
