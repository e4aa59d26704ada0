//! Exact brute-force nearest-neighbour index ("IndexFlatL2" in FAISS
//! terms) — the EL-NC configuration of the paper, and the ground truth for
//! the recall experiments of Figure 4.

use crate::index::AnnIndex;
use crate::kernels;
use crate::topk::Neighbor;
use crate::vectors::VectorSet;
use emblookup_pool::Pool;

/// Rows above which one query's scan is split over the pool, one chunk
/// per thread. A split saves half the scan and pays two thread wake-ups
/// (≈ 20 µs each across the benchmark host's 2 vCPUs), so it pays once a
/// scan holds several times that: ≈ 100 µs at the ≈ 12 ns a 64-d row
/// costs out of cache. Paired in-process runs at width 2: 4 096 rows lost
/// (p50 37 → 43 µs), 6 144 rows won (83 → 50 µs), 19 060 rows won in
/// 80–98 % of pairs (≈ 300 → 225 µs).
pub(crate) const GRAIN: usize = 8_192;

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
    /// holds fewer than `k` vectors. Rows are scored in blocks through
    /// [`kernels::sq_l2_block`], bit-equal to [`crate::sq_l2`] per row; an
    /// index above 8 192 rows is scanned on every pool thread, with the
    /// same hits in the same order.
    ///
    /// # Panics
    /// Panics if `query.len()` differs from the index dimension.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_on(query, k, crate::index::scan_pool())
    }

    /// [`FlatIndex::search`], split over `pool` when one is given.
    pub(crate) fn search_on(&self, query: &[f32], k: usize, pool: Option<&Pool>) -> Vec<Neighbor> {
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
        let (dim, rows) = (self.vectors.dim(), self.vectors.flat());
        crate::scan::top_k(self.vectors.len(), k, pool.map(|pool| (pool, GRAIN)), |lo, out| {
            kernels::sq_l2_block(query, &rows[lo * dim..], out);
        })
    }

    /// The scan [`FlatIndex::search`] replaced: one [`crate::sq_l2`] and
    /// one push per row.
    #[cfg(test)]
    pub(crate) fn search_reference(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut tk = crate::topk::TopK::new(k.min(self.vectors.len()));
        for (i, v) in self.vectors.iter().enumerate() {
            tk.push(i, crate::sq_l2(query, v));
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

    /// `n` rows in `[-1, 1)` with `+∞` / `−∞` rows at 5 and `n / 3` and
    /// a NaN row at 3 and `n / 2 + 1`. In `shape` 0, row 0's value (a query)
    /// repeats every 509 rows and on both sides of every boundary a split
    /// into 2 or 4 chunks draws; in shape 1 a NaN row opens each of those
    /// chunks, in shape 2 row 0 is a NaN.
    fn awkward_set(n: usize, shape: usize) -> VectorSet {
        const DIM: usize = 8;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut rows: Vec<f32> = (0..n * DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tied: Vec<f32> = rows[..DIM].to_vec();
        let nan = [f32::NAN; DIM];
        let mut at = |i: usize, v: &[f32]| rows[i * DIM..(i + 1) * DIM].copy_from_slice(v);
        for chunks in [2, 4] {
            let len = n.div_ceil(chunks);
            for b in (len..n).step_by(len) {
                match shape {
                    0 => {
                        at(b - 1, &tied);
                        at(b, &tied);
                    }
                    1 => at(b, &nan),
                    _ => {}
                }
            }
        }
        if shape == 0 {
            for i in (0..n).step_by(509) {
                at(i, &tied);
            }
        }
        at(3, &nan);
        at(n / 2 + 1, &nan);
        if shape == 2 {
            at(0, &nan);
        }
        at(5, &[f32::INFINITY; DIM]);
        at(n / 3, &[f32::NEG_INFINITY; DIM]);
        VectorSet::from_flat(DIM, rows)
    }

    #[test]
    fn a_split_scan_equals_the_per_row_scan() {
        // ids, distance bits and order at every width, around the grain
        // and well above it, for k of 1 to past n — usize::MAX included,
        // which no chunk may reserve or multiply as it stands
        let pools = [1, 2, 4].map(Pool::with_threads);
        for n in [GRAIN - 1, GRAIN, GRAIN + 1, 3 * GRAIN + 7] {
            for shape in 0..3 {
                let idx = FlatIndex::new(awkward_set(n, shape));
                let queries = [idx.vectors().get(509).to_vec(), vec![0.25; 8], vec![-0.5; 8]];
                for q in &queries {
                    for k in [1, 10, n, n + 5, usize::MAX] {
                        let bits = |hits: Vec<Neighbor>| hits.iter().map(|h| (h.index, h.dist.to_bits())).collect::<Vec<_>>();
                        let want = bits(idx.search_reference(q, k));
                        if k >= n {
                            let has = |p: fn(f32) -> bool| want.iter().any(|&(_, b)| p(f32::from_bits(b)));
                            assert!(has(f32::is_nan) && has(f32::is_infinite), "n {n}: no NaN or infinite row");
                        }
                        assert_eq!(bits(idx.search(q, k)), want, "n {n} k {k} global pool");
                        for pool in &pools {
                            let got = bits(idx.search_on(q, k, Some(pool)));
                            assert_eq!(got, want, "n {n} shape {shape} k {k} width {}", pool.threads());
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "query dim")]
    fn dim_mismatch_panics() {
        grid_index().search(&[1.0], 1);
    }
}
