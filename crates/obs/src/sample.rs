//! Tail sampling: promote *interesting* traces out of the lossy flight
//! recorder into a retained buffer.
//!
//! The decision runs at request completion, when the outcome is known
//! — the defining property of tail (vs head) sampling. A trace is
//! promoted when the request was slow, shed, degraded, errored, or
//! panicked ([`Trigger`]); each trigger class keeps up to a fixed
//! number of traces, so total retained memory stays bounded at
//! `5 × per_trigger_cap` trees. Retention is first-come within a
//! class: as long as no class is saturated, the decision depends only
//! on the request's own outcome, which keeps sampling deterministic
//! under the virtual-time fault harness.

use crate::ring::FlightRecorder;
use crate::trace::TraceData;
use crate::{names, Counter, MetricsRegistry};
use std::sync::{Arc, Mutex, PoisonError};

/// Why a trace was promoted to the retained buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Request latency exceeded the slow-trace threshold.
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
    pub const ALL: [Trigger; 5] =
        [Trigger::Slow, Trigger::Shed, Trigger::Degraded, Trigger::Error, Trigger::Panic];

    /// Stable lower-case name used in `/debug/traces` output.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::Slow => "slow",
            Trigger::Shed => "shed",
            Trigger::Degraded => "degraded",
            Trigger::Error => "error",
            Trigger::Panic => "panic",
        }
    }

    fn index(self) -> usize {
        match self {
            Trigger::Slow => 0,
            Trigger::Shed => 1,
            Trigger::Degraded => 2,
            Trigger::Error => 3,
            Trigger::Panic => 4,
        }
    }
}

/// A retained trace plus the trigger classes that promoted it.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The complete span tree.
    pub trace: Arc<TraceData>,
    /// Deduplicated triggers, in [`Trigger::ALL`] order.
    pub triggers: Vec<Trigger>,
}

/// The retained-trace buffer behind tail sampling.
#[derive(Debug)]
pub struct TailSampler {
    per_trigger_cap: usize,
    retained: Mutex<Vec<RetainedTrace>>,
}

impl TailSampler {
    /// Creates a sampler keeping up to `per_trigger_cap` traces per
    /// trigger class (min 1).
    pub(crate) fn new(per_trigger_cap: usize) -> Self {
        TailSampler { per_trigger_cap: per_trigger_cap.max(1), retained: Mutex::new(Vec::new()) }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Vec<RetainedTrace>> {
        // Tail-sampler reservoir: touched once per completed request, after the response is built
        self.retained.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers a completed trace with the triggers its request hit.
    /// Returns `true` when the trace was retained — i.e. at least one
    /// of its trigger classes still had room.
    pub(crate) fn offer(&self, trace: Arc<TraceData>, triggers: &[Trigger]) -> bool {
        let triggers: Vec<Trigger> =
            Trigger::ALL.iter().copied().filter(|t| triggers.contains(t)).collect();
        if triggers.is_empty() {
            return false;
        }
        let mut retained = self.locked();
        let mut counts = [0usize; 5];
        for r in retained.iter() {
            for t in &r.triggers {
                counts[t.index()] += 1;
            }
        }
        if triggers.iter().all(|t| counts[t.index()] >= self.per_trigger_cap) {
            return false;
        }
        retained.push(RetainedTrace { trace, triggers });
        true
    }

    /// All retained traces, sorted by trace id for stable output.
    pub fn retained(&self) -> Vec<RetainedTrace> {
        let mut out = self.locked().clone();
        out.sort_by_key(|r| r.trace.id);
        out
    }

    /// Finds a retained trace by wire id.
    pub(crate) fn find(&self, id: u64) -> Option<RetainedTrace> {
        self.locked().iter().find(|r| r.trace.id == id).cloned()
    }
}

/// The per-server tracing hub: always-on flight recorder + tail
/// sampler + the `trace.*` counters, published to in one call at
/// request completion.
#[derive(Debug)]
pub struct TraceHub {
    /// The always-on ring of recent traces.
    pub recorder: FlightRecorder,
    /// The retained (tail-sampled) buffer.
    pub sampler: TailSampler,
    recorded: Arc<Counter>,
    retained: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl TraceHub {
    /// Creates a hub with the given ring capacity and per-trigger
    /// retention cap, counting into `registry`'s `trace.*` counters.
    pub fn new(ring_cap: usize, per_trigger_cap: usize, registry: &MetricsRegistry) -> Self {
        TraceHub {
            recorder: FlightRecorder::new(ring_cap),
            sampler: TailSampler::new(per_trigger_cap),
            recorded: registry.counter(names::TRACE_RECORDED),
            retained: registry.counter(names::TRACE_RETAINED),
            dropped: registry.counter(names::TRACE_DROPPED),
        }
    }

    /// Publishes a completed trace: always offered to the flight
    /// recorder, promoted to the retained buffer when `triggers` is
    /// non-empty and its class has room. Returns the shared trace for
    /// further use (e.g. exemplar linking).
    pub fn publish(&self, data: TraceData, triggers: &[Trigger]) -> Arc<TraceData> {
        let trace = Arc::new(data);
        if self.recorder.record(Arc::clone(&trace)) {
            self.recorded.inc();
        } else {
            self.dropped.inc();
        }
        if self.sampler.offer(Arc::clone(&trace), triggers) {
            self.retained.inc();
        }
        trace
    }

    /// Looks a trace up by id: retained buffer first (with triggers),
    /// then the flight recorder (no triggers).
    pub fn find(&self, id: u64) -> Option<RetainedTrace> {
        self.sampler
            .find(id)
            .or_else(|| self.recorder.find(id).map(|trace| RetainedTrace { trace, triggers: Vec::new() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> Arc<TraceData> {
        Arc::new(TraceData { id, spans: Vec::new() })
    }

    #[test]
    fn offers_promote_per_trigger_and_respect_caps() {
        let sampler = TailSampler::new(2);
        assert!(!sampler.offer(trace(1), &[]), "no trigger, no promotion");
        assert!(sampler.offer(trace(2), &[Trigger::Slow]));
        assert!(sampler.offer(trace(3), &[Trigger::Slow]));
        assert!(!sampler.offer(trace(4), &[Trigger::Slow]), "class saturated");
        // a saturated class piggybacks on a class with room
        assert!(sampler.offer(trace(5), &[Trigger::Slow, Trigger::Panic]));
        assert!(sampler.offer(trace(6), &[Trigger::Panic]), "panic class has one slot left");
        assert!(!sampler.offer(trace(7), &[Trigger::Panic, Trigger::Slow]), "both saturated");
        assert!(sampler.find(3).is_some());
        assert!(sampler.find(4).is_none());
        let ids: Vec<u64> = sampler.retained().iter().map(|r| r.trace.id).collect();
        assert_eq!(ids, vec![2, 3, 5, 6], "retained list sorts by trace id");
    }

    #[test]
    fn triggers_deduplicate_in_stable_order() {
        let sampler = TailSampler::new(4);
        sampler.offer(trace(1), &[Trigger::Error, Trigger::Slow, Trigger::Error]);
        let r = sampler.find(1).unwrap();
        assert_eq!(r.triggers, vec![Trigger::Slow, Trigger::Error]);
    }

    #[test]
    fn hub_counts_recorded_and_retained() {
        let registry = MetricsRegistry::new();
        let hub = TraceHub::new(8, 2, &registry);
        hub.publish(TraceData { id: 1, spans: Vec::new() }, &[]);
        hub.publish(TraceData { id: 2, spans: Vec::new() }, &[Trigger::Shed]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::TRACE_RECORDED.as_str()), Some(2));
        assert_eq!(snap.counter(names::TRACE_RETAINED.as_str()), Some(1));
        assert_eq!(snap.counter(names::TRACE_DROPPED.as_str()), Some(0));
        assert!(hub.find(2).is_some_and(|r| r.triggers == vec![Trigger::Shed]));
        assert!(hub.find(1).is_some_and(|r| r.triggers.is_empty()), "ring fallback");
        assert!(hub.find(99).is_none());
    }
}
