//! The lookup-service interface of the paper (§II): `lookup(q, k)` returns
//! a candidate set of entities for an entity mention.
//!
//! Both EmbLookup and every baseline implement this trait, so annotation
//! systems can swap lookup implementations transparently — the paper's
//! central experimental manipulation.

use crate::model::EntityId;
use std::time::{Duration, Instant};

/// A candidate entity with its service-specific relevance score.
/// Higher scores are better; services normalize internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Matched entity.
    pub entity: EntityId,
    /// Relevance score (service-specific scale, higher = more relevant).
    pub score: f32,
}

/// `lookup(q, k)` — the fundamental operation underpinning semantic table
/// annotation (paper §II).
pub trait LookupService: Sync {
    /// Returns up to `k` candidate entities for mention `q`, best first.
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate>;

    /// Human-readable service name for reports.
    fn name(&self) -> &str;

    /// Bulk lookup of many mentions; the default loops sequentially.
    /// Services with a fast batched path (EmbLookup) override this.
    fn lookup_batch(&self, queries: &[&str], k: usize) -> Vec<Vec<Candidate>> {
        queries.iter().map(|q| self.lookup(q, k)).collect()
    }

    /// [`LookupService::lookup_batch`] and the time charged for it. Local
    /// services report the call's measured wall time; simulated remote
    /// services add their modeled network latency, which is how the
    /// speedup tables account for rate-limited endpoints without real
    /// network traffic.
    fn lookup_batch_timed(&self, queries: &[&str], k: usize) -> (Vec<Vec<Candidate>>, Duration) {
        let start = Instant::now();
        let out = self.lookup_batch(queries, k);
        (out, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::KnowledgeGraph;

    /// Exact-match toy service for trait default testing.
    struct Exact<'a>(&'a KnowledgeGraph);

    impl LookupService for Exact<'_> {
        fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
            self.0
                .find_exact(q)
                .iter()
                .take(k)
                .map(|&entity| Candidate { entity, score: 1.0 })
                .collect()
        }
        fn name(&self) -> &str {
            "exact"
        }
    }

    #[test]
    fn defaults_work() {
        let mut kg = KnowledgeGraph::new();
        let t = kg.add_type("t", None);
        let id = kg.add_entity("Berlin", vec![], vec![t]);
        let svc = Exact(&kg);
        let (batch, total) = svc.lookup_batch_timed(&["berlin", "nope"], 3);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0][0].entity, id);
        assert_eq!(batch[0].len(), 1);
        assert!(batch[1].is_empty());
        assert!(total < Duration::from_secs(1));
    }

    /// Counts the calls that reach each of its two lookup paths.
    #[derive(Default)]
    struct Counting {
        /// `(lookup calls, lookup_batch calls)`.
        calls: std::sync::Mutex<(usize, usize)>,
    }

    impl LookupService for Counting {
        fn lookup(&self, _q: &str, _k: usize) -> Vec<Candidate> {
            self.calls.lock().unwrap().0 += 1;
            Vec::new()
        }
        fn name(&self) -> &str {
            "counting"
        }
        fn lookup_batch(&self, queries: &[&str], _k: usize) -> Vec<Vec<Candidate>> {
            self.calls.lock().unwrap().1 += 1;
            vec![Vec::new(); queries.len()]
        }
    }

    #[test]
    fn batch_timed_times_one_batch_call() {
        // a service's own batch path is the one the timed bulk lookup runs
        let svc = Counting::default();
        let (out, _) = svc.lookup_batch_timed(&["a", "b", "c"], 2);
        assert_eq!(out.len(), 3);
        assert_eq!(*svc.calls.lock().unwrap(), (0, 1));
    }
}
