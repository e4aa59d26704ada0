//! [`AnnIndex`]: the one search interface every index in this crate sits
//! behind, so callers pick a backend once at build time and never name
//! it again.

use crate::topk::Neighbor;
use crate::vectors::VectorSet;

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
        let search = |i: usize| self.search_counted(queries.get(i), k).0;
        let threads = threads.max(1).min(n);
        if threads == 1 {
            return (0..n).map(search).collect();
        }
        // each result is written to its own slot, so output is
        // bit-identical across thread counts
        emblookup_pool::Pool::global().parallel_map(n, batch_grain(n, threads), search)
    }
}

/// Pool chunk size for an `n`-query batch at `threads`: two chunks per
/// thread so an idle thread can take a chunk a slow one has not reached.
pub(crate) fn batch_grain(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 2).max(1)
}
