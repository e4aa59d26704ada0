//! [`AnnIndex`]: the one search interface every index in this crate sits
//! behind, so callers pick a backend once at build time and never name
//! it again.

use crate::topk::Neighbor;
use crate::vectors::VectorSet;
use emblookup_pool::Pool;
use std::cell::Cell;

/// A built nearest-neighbour index over a fixed set of vectors.
///
/// For a fixed kernel variant a search is a pure function of
/// `(index, query, k)`: `search_batch` returns, at any `threads`, exactly
/// what per-query [`AnnIndex::search_counted`] returns.
pub trait AnnIndex: Send + Sync {
    /// Stable lower-case backend name — the `<backend>` of the
    /// `ann.<backend>.{searches,visited_nodes}` counters.
    fn name(&self) -> &'static str;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when no vectors are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True index size in bytes: payload vectors or codes plus whatever
    /// auxiliary structure queries need.
    fn nbytes(&self) -> usize;

    /// `k` nearest neighbours of `query`, ascending by distance, plus how
    /// many stored vectors/codes the search examined.
    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64);

    /// Searches many queries, preserving order. `threads == 1` stays on
    /// the calling thread; larger values fan the batch out over the
    /// persistent compute pool (the GPU-surrogate bulk path of the
    /// speedup tables).
    fn search_batch(&self, queries: &VectorSet, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        let n = queries.len();
        if n == 0 {
            return Vec::new();
        }
        let search = |i: usize| {
            let _mark = BatchQuery::enter();
            self.search_counted(queries.get(i), k).0
        };
        let threads = threads.max(1).min(n);
        if threads == 1 {
            return (0..n).map(search).collect();
        }
        // each result is written to its own slot, so output is
        // bit-identical across thread counts
        Pool::global().parallel_map(n, batch_grain(n, threads), search)
    }
}

/// Pool chunk size for an `n`-query batch at `threads`: two chunks per
/// thread so an idle thread can take a chunk a slow one has not reached.
pub(crate) fn batch_grain(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 2).max(1)
}

std::thread_local! {
    /// True while this thread answers one query of a `search_batch`.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as answering one query of a batch until dropped,
/// then restores the mark it found — also when the query panics.
struct BatchQuery {
    outer: bool,
}

impl BatchQuery {
    fn enter() -> Self {
        BatchQuery { outer: IN_BATCH.replace(true) }
    }
}

impl Drop for BatchQuery {
    fn drop(&mut self) {
        IN_BATCH.set(self.outer);
    }
}

/// The pool one query's flat scan may split over: the global pool, or
/// none for a query of a `search_batch`, whose queries already fill the
/// pool — so a batch never forks inside its own tasks.
pub(crate) fn scan_pool() -> Option<&'static Pool> {
    (!IN_BATCH.get()).then(Pool::global)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_batch_query_marks_its_thread_until_it_returns_or_panics() {
        assert!(scan_pool().is_some());
        {
            let _outer = BatchQuery::enter();
            assert!(scan_pool().is_none());
            drop(BatchQuery::enter());
            assert!(scan_pool().is_none(), "a nested query must not clear the outer mark");
        }
        assert!(scan_pool().is_some());
        let panicked = std::panic::catch_unwind(|| {
            let _mark = BatchQuery::enter();
            panic!("a query panicked")
        });
        assert!(panicked.is_err());
        assert!(scan_pool().is_some(), "a panicking query must not leave its thread marked");
    }
}
