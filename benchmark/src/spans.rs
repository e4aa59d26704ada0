//! The harness's own spans: recorded in memory around every call it
//! makes into a layer, written out when the run ends.
//!
//! The program already has a tracing subsystem (`emblookup_obs::Trace`);
//! it is deliberately not used here. The benchmark measures each layer
//! from outside, so a change to the program's own tracing can never move
//! or redefine the numbers it is judged by.

use crate::json::{self, Object};
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent": the span is the root of its request.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same [`Tracer`]'s span list.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log owned by one thread.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    /// All tracers of a run share `epoch`, so their timestamps compare.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's log, re-basing its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once, and a
/// child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many, and the median duration and self time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub self_p50_us: f64,
    /// Sum of self time over all spans of this name, in milliseconds.
    pub self_total_ms: f64,
}

/// Aggregates a span log by name.
pub fn layer_table(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerStat> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.duration_ns());
        entry.1.push(*self_ns);
    }
    by_name
        .into_iter()
        .map(|(name, (mut durs, mut selfs))| {
            let self_total_ms = selfs.iter().sum::<u64>() as f64 / 1e6;
            durs.sort_unstable();
            let stat = LayerStat {
                count: durs.len(),
                p50_us: stats::percentile(&durs, 50.0) / 1e3,
                p99_us: stats::percentile(&durs, 99.0) / 1e3,
                self_p50_us: stats::percentile_of(&mut selfs, 50.0) / 1e3,
                self_total_ms,
            };
            (name, stat)
        })
        .collect()
}

/// At most this many requests per workload are written to `trace.json`;
/// the aggregates above always use every span.
pub const TRACE_FILE_REQUESTS: u64 = 500;

/// Serializes the first [`TRACE_FILE_REQUESTS`] requests of a span log:
/// `{"workload":…,"spans":[{"id","parent","request","name","start_ns","dur_ns","self_ns"}]}`
/// with `parent` `-1` for a root.
pub fn trace_json(workload: &str, spans: &[SpanRec]) -> String {
    let selfs = self_times_ns(spans);
    let first = spans.iter().map(|s| s.request).min().unwrap_or(0);
    let rows = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.request - first < TRACE_FILE_REQUESTS)
        .map(|(i, s)| {
            let parent = if s.parent == ROOT {
                "-1".to_string()
            } else {
                s.parent.to_string()
            };
            Object::new()
                .int("id", i as u64)
                .raw("parent", &parent)
                .int("request", s.request)
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("dur_ns", s.duration_ns())
                .int("self_ns", selfs[i])
                .finish()
        });
    Object::new()
        .str("workload", workload)
        .int("spans_recorded", spans.len() as u64)
        .raw("spans", &json::array(rows))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, ROOT),
            span("embed", 10, 40, 0),
            span("search", 40, 90, 0),
            span("kernel", 50, 70, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn overlapping_and_escaping_children_are_clipped() {
        let spans = vec![
            span("request", 100, 200, ROOT),
            // two shard searches running in parallel: covered once
            span("shard", 110, 160, 0),
            span("shard", 120, 170, 0),
            // a child that outlives its parent only counts inside it
            span("late", 190, 260, 0),
            // a child entirely outside covers nothing
            span("stray", 300, 400, 0),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 60 - 10);
        assert_eq!(selfs[1], 50);
        assert_eq!(selfs[3], 70);
    }

    #[test]
    fn tracer_links_parents_and_survives_a_merge() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("request", ROOT, 7);
        let got = a.scope("embed", root, 7, || 42);
        a.end(root);
        assert_eq!(got, 42);
        let mut b = Tracer::new(epoch);
        let r2 = b.begin("request", ROOT, 8);
        b.scope("embed", r2, 8, || ());
        b.end(r2);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[1].parent, 0);
        assert_eq!(a.spans[2].parent, ROOT);
        assert_eq!(a.spans[3].parent, 2);
        assert!(a.spans[0].end_ns >= a.spans[1].end_ns);
        let table = layer_table(&a.spans);
        assert_eq!(table["request"].count, 2);
        assert_eq!(table["embed"].count, 2);
        assert!(table["request"].self_p50_us <= table["request"].p50_us);
    }

    #[test]
    fn trace_file_is_valid_json_and_capped() {
        let mut spans = Vec::new();
        for r in 0..(TRACE_FILE_REQUESTS + 10) {
            let base = spans.len() as u32;
            spans.push(SpanRec {
                name: "request",
                start_ns: r * 10,
                end_ns: r * 10 + 9,
                parent: ROOT,
                request: r + 100,
            });
            spans.push(SpanRec {
                name: "embed",
                start_ns: r * 10 + 1,
                end_ns: r * 10 + 4,
                parent: base,
                request: r + 100,
            });
        }
        let doc = trace_json("single_small", &spans);
        let v = json::parse(&doc).expect("trace.json parses");
        let rows = v.get("spans").and_then(json::Val::as_arr).unwrap();
        assert_eq!(rows.len() as u64, 2 * TRACE_FILE_REQUESTS);
        assert_eq!(
            rows[0].get("parent").and_then(json::Val::as_f64),
            Some(-1.0)
        );
        assert_eq!(
            rows[0].get("self_ns").and_then(json::Val::as_f64),
            Some(6.0)
        );
        assert_eq!(rows[1].get("parent").and_then(json::Val::as_f64), Some(0.0));
    }
}
