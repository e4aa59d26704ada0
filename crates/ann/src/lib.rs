//! # emblookup-ann
//!
//! Similarity search and vector compression for the EmbLookup reproduction
//! — the FAISS stand-in. Provides the exact flat index (EL-NC), product
//! quantization (EL, §III-D) and PQ-fused HNSW — the three backends the
//! pipeline builds, all searched through the one [`AnnIndex`] trait — plus
//! PCA (the Figure 5 compression baseline), k-means, and a MinHash LSH
//! used by the Table V baseline.
//!
//! [`IvfIndex`] and the standalone [`HnswIndex`] search remain only for
//! `benchmark/src/probes.rs` and `ann_bench`, which build them by name;
//! they go once the benchmark stops naming them. The HNSW graph builder
//! stays either way: it is the graph under [`HnswPqIndex`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod flat;
pub mod hnsw;
pub mod hnsw_pq;
mod index;
pub mod ivf;
#[expect(unsafe_code, reason = "the SIMD kernels behind runtime feature dispatch")]
pub mod kernels;
mod kmeans;
pub mod lsh;
mod metrics;
pub mod pca;
pub mod pq;
mod scan;
mod sq8;
pub mod topk;
pub mod vectors;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use hnsw_pq::{HnswPqConfig, HnswPqIndex};
pub use index::AnnIndex;
pub use ivf::{IvfConfig, IvfIndex};
pub use lsh::{LshConfig, MinHashLsh};
pub use pca::Pca;
pub use pq::{PqConfig, PqIndex};
pub use topk::Neighbor;
pub use vectors::{sq_l2, VectorSet};

/// Seeded property tests: case `seed` draws its inputs from
/// `StdRng::seed_from_u64(seed)` and names the seed when it fails.
#[cfg(test)]
mod properties {
    use crate::flat::FlatIndex;
    use crate::pq::{PqConfig, ProductQuantizer};
    use crate::topk::TopK;
    use crate::vectors::{sq_l2, VectorSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cases() -> impl Iterator<Item = (u64, StdRng)> {
        (0..32).map(|seed| (seed, StdRng::seed_from_u64(seed)))
    }

    /// `len` floats uniform in `[-10, 10)`.
    fn floats(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
    }

    fn vec_set(rng: &mut StdRng, n: usize, dim: usize) -> VectorSet {
        VectorSet::from_flat(dim, floats(rng, n * dim))
    }

    const SMALL_PQ: PqConfig = PqConfig { m: 2, ks: 8, kmeans_iters: 4, seed: 0 };

    #[test]
    fn flat_search_first_hit_is_global_min() {
        for (seed, mut rng) in cases() {
            let idx = FlatIndex::new(vec_set(&mut rng, 30, 4));
            let q = floats(&mut rng, 4);
            let best = idx.search(&q, 1)[0].dist;
            for v in idx.vectors().iter() {
                assert!(sq_l2(&q, v) >= best - 1e-4, "seed {seed}: {v:?} is nearer than {best}");
            }
        }
    }

    #[test]
    fn flat_search_results_are_distinct() {
        for (seed, mut rng) in cases() {
            let idx = FlatIndex::new(vec_set(&mut rng, 25, 3));
            let hits = idx.search(&floats(&mut rng, 3), 10);
            let mut indices: Vec<usize> = hits.iter().map(|h| h.index).collect();
            indices.sort_unstable();
            indices.dedup();
            assert_eq!(indices.len(), hits.len(), "seed {seed}: {hits:?}");
        }
    }

    #[test]
    fn topk_keeps_true_minimum() {
        for (seed, mut rng) in cases() {
            let dists: Vec<f32> =
                (0..rng.gen_range(1..50)).map(|_| rng.gen_range(0.0f32..100.0)).collect();
            let k = rng.gen_range(1..10);
            let mut tk = TopK::new(k);
            for (i, &d) in dists.iter().enumerate() {
                tk.push(i, d);
            }
            let hits = tk.into_sorted();
            let true_min = dists.iter().copied().fold(f32::INFINITY, f32::min);
            assert_eq!(hits[0].dist, true_min, "seed {seed}: k {k} over {dists:?}");
            assert_eq!(hits.len(), k.min(dists.len()), "seed {seed}");
        }
    }

    #[test]
    fn pq_codes_are_in_range() {
        for (seed, mut rng) in cases() {
            let set = vec_set(&mut rng, 40, 8);
            let pq = ProductQuantizer::train(&set, SMALL_PQ);
            for v in set.iter() {
                let code = pq.encode(v);
                assert_eq!(code.len(), 2, "seed {seed}");
                assert!(code.iter().all(|&c| c < 8), "seed {seed}: {code:?}");
            }
        }
    }

    #[test]
    fn pq_decode_encode_is_idempotent() {
        // encoding a decoded (centroid) vector must return the same code
        for (seed, mut rng) in cases() {
            let set = vec_set(&mut rng, 40, 8);
            let pq = ProductQuantizer::train(&set, SMALL_PQ);
            let code = pq.encode(set.get(0));
            assert_eq!(pq.encode(&pq.decode(&code)), code, "seed {seed}");
        }
    }
}
