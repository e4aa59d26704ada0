//! Metric handles and the registry that names them.
//!
//! The registry's map is guarded by a mutex, but it is touched only at
//! *registration* time: callers resolve an `Arc` handle once (at service
//! construction, before any hot loop) and then operate on plain atomics.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::sync::RelaxedU64;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: RelaxedU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.value.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.add(n);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.get()
    }
}

/// Last-write-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: RelaxedU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.set(v.to_bits());
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.get())
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named metrics, either process-global ([`global`]) or local (tests,
/// per-experiment isolation).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map, recovered from poisoning — a panic elsewhere must not
    /// take metrics registration down with it.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        // Registration-time lock: callers resolve a handle once and cache it; the hot path never re-enters
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get-or-create the counter `name`. Resolve once, then use the
    /// returned handle — it never touches the registry lock again.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.locked();
        // Name interned once per metric at registration, not per increment
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.locked();
        // Name interned once per metric at registration, not per increment
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.locked();
        // Name interned once per metric at registration, not per increment
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry, created on first use.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

/// Point-in-time copy of a registry's metrics (see the `export` module
/// for Prometheus/JSON renderings).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, ascending by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, or `None` when absent.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, or `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The snapshot of histogram `name`, or `None` when absent.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().counter("x"), Some(4));
    }

    #[test]
    fn counters_survive_concurrent_increments() {
        let reg = MetricsRegistry::new();
        let threads = 8;
        let per_thread = 50_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = reg.counter("hits");
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("hits"), Some(threads * per_thread));
    }

    #[test]
    fn gauge_holds_last_write() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("temp");
        g.set(1.5);
        g.set(-3.25);
        assert_eq!(reg.snapshot().gauge("temp"), Some(-3.25));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("b");
        reg.counter("a");
        reg.counter("c");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
