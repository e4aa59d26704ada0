//! Lookup-result caching — every real annotation system caches its lookup
//! responses (bbw explicitly caches SearX answers), since table corpora
//! repeat mentions heavily (a popular country appears in thousands of
//! rows). Wrapping a service in [`CachedService`] models that, and the
//! timed path charges only cache misses.

use emblookup_kg::{Candidate, LookupService};
use emblookup_obs::Counter;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Memoizing wrapper around any [`LookupService`].
///
/// The cache key is `(query, k)`; hits cost nothing on the virtual clock.
/// Hit/miss counters are plain relaxed counters; only the memo table
/// itself sits behind a mutex.
pub struct CachedService<S: LookupService> {
    inner: S,
    // one short critical section per query, amortized by hits
    cache: Mutex<HashMap<(String, usize), Vec<Candidate>>>,
    name: String,
    hits: Counter,
    misses: Counter,
}

impl<S: LookupService> CachedService<S> {
    /// Wraps `inner` with an unbounded memo cache.
    pub fn new(inner: S) -> Self {
        let name = format!("{} (cached)", inner.name());
        CachedService {
            inner,
            cache: Mutex::new(HashMap::new()),
            name,
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    /// The memo table, recovered from poisoning: a panicking inner
    /// service must not wedge every later lookup.
    fn table(&self) -> MutexGuard<'_, HashMap<(String, usize), Vec<Candidate>>> {
        // the memo-cache baseline is a locked table by design; the
        // contention is part of what it measures
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: LookupService> LookupService for CachedService<S> {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        // the memo map needs an owned key for insert
        let key = (q.to_string(), k);
        if let Some(hit) = self.table().get(&key) {
            self.hits.inc();
            return hit.clone();
        }
        self.misses.inc();
        let result = self.inner.lookup(q, k);
        self.table().insert(key, result.clone());
        result
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn lookup_timed(&self, q: &str, k: usize) -> (Vec<Candidate>, Duration) {
        // the memo map needs an owned key for insert
        let key = (q.to_string(), k);
        if let Some(hit) = self.table().get(&key) {
            self.hits.inc();
            return (hit.clone(), Duration::ZERO);
        }
        self.misses.inc();
        let (result, elapsed) = self.inner.lookup_timed(q, k);
        self.table().insert(key, result.clone());
        (result, elapsed)
    }

    fn lookup_batch_timed(&self, queries: &[&str], k: usize) -> (Vec<Vec<Candidate>>, Duration) {
        let mut total = Duration::ZERO;
        let mut out = Vec::with_capacity(queries.len());
        for q in queries {
            let (hits, t) = self.lookup_timed(q, k);
            total += t;
            out.push(hits);
        }
        (out, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{RemoteCostModel, RemoteService};
    use crate::scan::ExactMatchService;
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn repeated_queries_hit_the_cache() {
        let s = generate(SynthKgConfig::tiny(30));
        let svc = CachedService::new(ExactMatchService::new(&s.kg, false));
        let label = s.kg.label(s.cities[0]).to_string();
        let a = svc.lookup(&label, 5);
        let b = svc.lookup(&label, 5);
        assert_eq!(a, b);
        assert_eq!(svc.stats(), (1, 1));
    }

    #[test]
    fn cache_eliminates_remote_latency_on_hits() {
        let s = generate(SynthKgConfig::tiny(31));
        let remote = RemoteService::new(
            ExactMatchService::new(&s.kg, true),
            RemoteCostModel::wikidata(),
            "Wikidata API",
        );
        let svc = CachedService::new(remote);
        let label = s.kg.label(s.persons[0]).to_string();
        let (_, first) = svc.lookup_timed(&label, 5);
        let (_, second) = svc.lookup_timed(&label, 5);
        assert!(first >= Duration::from_millis(80));
        assert_eq!(second, Duration::ZERO);
    }

    #[test]
    fn different_k_is_a_different_key() {
        let s = generate(SynthKgConfig::tiny(32));
        let svc = CachedService::new(ExactMatchService::new(&s.kg, false));
        let label = s.kg.label(s.cities[1]).to_string();
        let _ = svc.lookup(&label, 3);
        let _ = svc.lookup(&label, 7);
        assert_eq!(svc.stats(), (0, 2));
    }

    #[test]
    fn batch_charges_only_misses() {
        let s = generate(SynthKgConfig::tiny(33));
        let remote = RemoteService::new(
            ExactMatchService::new(&s.kg, true),
            RemoteCostModel::wikidata(),
            "Wikidata API",
        );
        let svc = CachedService::new(remote);
        let label = s.kg.label(s.films[0]).to_string();
        let queries = vec![label.as_str(); 10];
        let (_, elapsed) = svc.lookup_batch_timed(&queries, 5, );
        // 1 miss + 9 hits: roughly one remote round trip, not ten
        assert!(elapsed < Duration::from_millis(200), "{elapsed:?}");
        let (hits, misses) = svc.stats();
        assert_eq!((hits, misses), (9, 1));
    }
}
