//! Simulated remote lookup endpoints (Wikidata API, SearX metasearch).
//!
//! Remote services dominate the paper's slow end of Table V: their cost is
//! round-trip latency plus rate limits (Wikidata allows five parallel
//! queries per IP). We model that cost deterministically on a virtual
//! clock instead of doing network I/O: `lookup_batch_timed` returns the
//! inner (alias-aware, server-side) match results plus the latency the
//! real endpoint would have charged. Results are deterministic and the
//! harness never sleeps.

use emblookup_kg::{Candidate, LookupService};
use std::time::Duration;

/// Latency/rate-limit model of a remote endpoint.
#[derive(Debug, Clone, Copy)]
pub struct RemoteCostModel {
    /// Round-trip time charged per request.
    pub rtt: Duration,
    /// Server-side processing time charged per request.
    pub server_time: Duration,
    /// Maximum concurrent in-flight requests (rate limit).
    pub max_concurrency: usize,
}

impl RemoteCostModel {
    /// Wikidata API-style: moderate RTT, strict concurrency of 5.
    pub fn wikidata() -> Self {
        RemoteCostModel {
            rtt: Duration::from_millis(60),
            server_time: Duration::from_millis(25),
            max_concurrency: 5,
        }
    }

    /// SearX metasearch-style: aggregates ~70 engines, so far slower
    /// per request, small concurrency.
    pub fn searx() -> Self {
        RemoteCostModel {
            rtt: Duration::from_millis(90),
            server_time: Duration::from_millis(140),
            max_concurrency: 4,
        }
    }

    /// Latency charged for one request.
    pub(crate) fn per_request(&self) -> Duration {
        self.rtt + self.server_time
    }

    /// Virtual elapsed time for `n` requests issued as fast as the rate
    /// limit allows (perfect pipelining within the concurrency budget).
    pub(crate) fn batch_elapsed(&self, n: usize) -> Duration {
        if n == 0 {
            return Duration::ZERO;
        }
        let waves = n.div_ceil(self.max_concurrency.max(1)) as u32;
        self.per_request() * waves
    }
}

/// Wraps a local matcher as a simulated remote endpoint.
///
/// The inner service is alias-aware in the presets (remote KG endpoints
/// resolve aliases server-side), which is why remote services keep decent
/// accuracy on semantic lookups while paying heavily in latency.
pub struct RemoteService<S: LookupService> {
    inner: S,
    /// Cost model applied to every request.
    pub cost: RemoteCostModel,
    name: String,
}

impl<S: LookupService> RemoteService<S> {
    /// Wraps `inner` under the given cost model and display name.
    pub fn new(inner: S, cost: RemoteCostModel, name: impl Into<String>) -> Self {
        RemoteService { inner, cost, name: name.into() }
    }
}

impl<S: LookupService> LookupService for RemoteService<S> {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        self.inner.lookup(q, k)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn lookup_batch_timed(&self, queries: &[&str], k: usize) -> (Vec<Vec<Candidate>>, Duration) {
        let (out, compute) = self.inner.lookup_batch_timed(queries, k);
        (out, compute + self.cost.batch_elapsed(queries.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ExactMatchService;
    use emblookup_kg::{generate, SynthKgConfig};

    /// Answers nothing and charges a fixed compute time per batch.
    struct Charged(Duration);

    impl LookupService for Charged {
        fn lookup(&self, _q: &str, _k: usize) -> Vec<Candidate> {
            Vec::new()
        }
        fn name(&self) -> &str {
            "charged"
        }
        fn lookup_batch_timed(&self, queries: &[&str], _k: usize) -> (Vec<Vec<Candidate>>, Duration) {
            (vec![Vec::new(); queries.len()], self.0)
        }
    }

    #[test]
    fn per_request_latency_is_charged() {
        // the charge is the inner service's batch time plus the modeled
        // latency of the rate-limited requests
        let compute = Duration::from_micros(1234);
        let cost = RemoteCostModel::wikidata();
        let remote = RemoteService::new(Charged(compute), cost, "Wikidata API");
        // one request, and twelve: three waves at concurrency 5
        for n in [1, 12] {
            let queries = vec!["q"; n];
            let (out, t) = remote.lookup_batch_timed(&queries, 5);
            assert_eq!(out.len(), n);
            assert_eq!(t, compute + cost.batch_elapsed(n), "n = {n}");
        }
        assert_eq!(cost.batch_elapsed(1), cost.per_request());
        assert_eq!(cost.batch_elapsed(12), cost.per_request() * 3);
    }

    #[test]
    fn rate_limit_shapes_batch_time() {
        let model = RemoteCostModel::wikidata();
        // 10 requests at concurrency 5 -> 2 waves
        assert_eq!(model.batch_elapsed(10), model.per_request() * 2);
        assert_eq!(model.batch_elapsed(11), model.per_request() * 3);
        assert_eq!(model.batch_elapsed(0), Duration::ZERO);
    }

    #[test]
    fn results_pass_through_unchanged() {
        let s = generate(SynthKgConfig::tiny(17));
        let inner = ExactMatchService::new(&s.kg, true);
        let remote = RemoteService::new(
            ExactMatchService::new(&s.kg, true),
            RemoteCostModel::searx(),
            "SearX",
        );
        let label = s.kg.label(s.persons[0]).to_string();
        let a = inner.lookup(&label, 5);
        let b = remote.lookup(&label, 5);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].entity, b[0].entity);
    }

    #[test]
    fn alias_aware_remote_resolves_aliases() {
        let s = generate(SynthKgConfig::tiny(18));
        let remote = RemoteService::new(
            ExactMatchService::new(&s.kg, true),
            RemoteCostModel::wikidata(),
            "Wikidata API",
        );
        let e = s.kg.entities().next().unwrap();
        let alias = &e.aliases[0];
        let hits = remote.lookup(alias, 5);
        assert!(hits.iter().any(|c| c.entity == e.id));
    }
}
