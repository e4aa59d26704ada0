//! Exact brute-force nearest-neighbour index ("IndexFlatL2" in FAISS
//! terms) — the EL-NC configuration of the paper, and the ground truth for
//! the recall experiments of Figure 4.

use crate::index::AnnIndex;
use crate::topk::{Neighbor, TopK};
use crate::vectors::{sq_l2, VectorSet};

/// Exact L2 index scanning every stored vector per query.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    vectors: VectorSet,
}

impl FlatIndex {
    /// Builds the index by taking ownership of the vectors.
    pub fn new(vectors: VectorSet) -> Self {
        FlatIndex { vectors }
    }

    /// Index size in bytes (the full-precision 256 B/vector of the paper
    /// for 64-d embeddings).
    pub fn nbytes(&self) -> usize {
        self.vectors.nbytes()
    }

    /// Borrows the underlying vectors (used as recall ground truth).
    #[cfg(test)]
    pub(crate) fn vectors(&self) -> &VectorSet {
        &self.vectors
    }

    /// Exact `k` nearest neighbours of `query` by squared L2 distance,
    /// sorted ascending. Returns fewer than `k` hits only when the index
    /// holds fewer than `k` vectors.
    ///
    /// # Panics
    /// Panics if `query.len()` differs from the index dimension.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(
            query.len(),
            self.vectors.dim(),
            "query dim {} != index dim {}",
            query.len(),
            self.vectors.dim()
        );
        if self.vectors.is_empty() || k == 0 {
            return Vec::new();
        }
        crate::metrics::flat_searches().inc();
        crate::metrics::flat_visited().add(self.vectors.len() as u64);
        let mut tk = TopK::new(k.min(self.vectors.len()));
        for (i, v) in self.vectors.iter().enumerate() {
            tk.push(i, sq_l2(query, v));
        }
        tk.into_sorted()
    }
}

impl AnnIndex for FlatIndex {
    fn name(&self) -> &'static str {
        "flat"
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    fn nbytes(&self) -> usize {
        self.vectors.nbytes()
    }

    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        (self.search(query, k), self.vectors.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_index() -> FlatIndex {
        let mut vs = VectorSet::new(2);
        for x in 0..4 {
            for y in 0..4 {
                vs.push(&[x as f32, y as f32]);
            }
        }
        FlatIndex::new(vs)
    }

    #[test]
    fn nearest_is_self() {
        let idx = grid_index();
        let hits = idx.search(&[2.0, 3.0], 1);
        assert_eq!(hits[0].dist, 0.0);
        assert_eq!(idx.vectors().get(hits[0].index), &[2.0, 3.0]);
    }

    #[test]
    fn returns_sorted_k() {
        let idx = grid_index();
        let hits = idx.search(&[0.1, 0.1], 5);
        assert_eq!(hits.len(), 5);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(idx.vectors().get(hits[0].index), &[0.0, 0.0]);
    }

    #[test]
    fn k_larger_than_index() {
        let idx = grid_index();
        let hits = idx.search(&[0.0, 0.0], 100);
        assert_eq!(hits.len(), 16);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new(VectorSet::new(2));
        assert!(idx.search(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn batch_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut vs = VectorSet::new(8);
        for _ in 0..200 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vs.push(&v);
        }
        let idx = FlatIndex::new(vs);
        let mut queries = VectorSet::new(8);
        for _ in 0..17 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            queries.push(&v);
        }
        let seq = idx.search_batch(&queries, 5, 1);
        for threads in [1usize, 4] {
            let par = idx.search_batch(&queries, 5, threads);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(par.iter()) {
                let ia: Vec<usize> = a.iter().map(|n| n.index).collect();
                let ib: Vec<usize> = b.iter().map(|n| n.index).collect();
                assert_eq!(ia, ib, "ids differ at {threads} threads");
                // distances must be bit-identical, not just close: every
                // thread count runs the same kernel on the same slots
                let da: Vec<u32> = a.iter().map(|n| n.dist.to_bits()).collect();
                let db: Vec<u32> = b.iter().map(|n| n.dist.to_bits()).collect();
                assert_eq!(da, db, "dists differ at {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "query dim")]
    fn dim_mismatch_panics() {
        grid_index().search(&[1.0], 1);
    }
}
