//! # emblookup-ann
//!
//! Similarity search and vector compression for the EmbLookup reproduction
//! — the FAISS stand-in. Provides the exact flat index (EL-NC), product
//! quantization (EL, §III-D), IVF-Flat, HNSW and PQ-fused HNSW — all
//! searched through the one [`AnnIndex`] trait — plus PCA (the Figure 5
//! compression baseline), k-means, and a MinHash LSH used by the Table V
//! baseline.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod flat;
pub mod hnsw;
pub mod hnsw_pq;
mod index;
pub mod ivf;
#[allow(unsafe_code)]
pub mod kernels;
pub mod kmeans;
pub mod lsh;
mod metrics;
pub mod pca;
pub mod pq;
mod sq8;
pub mod topk;
pub mod vectors;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use hnsw_pq::{HnswPqConfig, HnswPqIndex};
pub use index::AnnIndex;
pub use ivf::{IvfConfig, IvfIndex};
pub use kmeans::{KMeans, KMeansConfig};
pub use lsh::{LshConfig, MinHashLsh};
pub use pca::Pca;
pub use pq::{PqConfig, PqIndex, ProductQuantizer};
pub use topk::{Neighbor, TopK};
pub use vectors::{sq_l2, VectorSet};

// Property tests need the external `proptest` crate, unavailable in
// offline builds; enable with `--features proptest-tests` when vendored.
#[cfg(all(test, feature = "proptest-tests"))]
mod proptests {
    use crate::flat::FlatIndex;
    use crate::pq::{PqConfig, ProductQuantizer};
    use crate::topk::TopK;
    use crate::vectors::{sq_l2, VectorSet};
    use proptest::prelude::*;

    fn vec_set(n: usize, dim: usize) -> impl Strategy<Value = VectorSet> {
        proptest::collection::vec(-10.0f32..10.0, n * dim)
            .prop_map(move |data| VectorSet::from_flat(dim, data))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn flat_search_first_hit_is_global_min(set in vec_set(30, 4), q in proptest::collection::vec(-10.0f32..10.0, 4)) {
            let idx = FlatIndex::new(set.clone());
            let hits = idx.search(&q, 1);
            let best = hits[0].dist;
            for v in set.iter() {
                prop_assert!(sq_l2(&q, v) >= best - 1e-4);
            }
        }

        #[test]
        fn flat_search_results_are_distinct(set in vec_set(25, 3), q in proptest::collection::vec(-10.0f32..10.0, 3)) {
            let idx = FlatIndex::new(set);
            let hits = idx.search(&q, 10);
            let mut indices: Vec<usize> = hits.iter().map(|h| h.index).collect();
            indices.sort_unstable();
            indices.dedup();
            prop_assert_eq!(indices.len(), hits.len());
        }

        #[test]
        fn topk_keeps_true_minimum(dists in proptest::collection::vec(0.0f32..100.0, 1..50), k in 1usize..10) {
            let mut tk = TopK::new(k);
            for (i, &d) in dists.iter().enumerate() {
                tk.push(i, d);
            }
            let hits = tk.into_sorted();
            let true_min = dists.iter().cloned().fold(f32::INFINITY, f32::min);
            prop_assert_eq!(hits[0].dist, true_min);
            prop_assert_eq!(hits.len(), k.min(dists.len()));
        }

        #[test]
        fn pq_codes_are_in_range(set in vec_set(40, 8)) {
            let pq = ProductQuantizer::train(&set, PqConfig { m: 2, ks: 8, kmeans_iters: 4, seed: 0 });
            for v in set.iter() {
                let code = pq.encode(v);
                prop_assert_eq!(code.len(), 2);
                for &c in &code {
                    prop_assert!((c as usize) < 8);
                }
            }
        }

        #[test]
        fn pq_decode_encode_is_idempotent(set in vec_set(40, 8)) {
            // encoding a decoded (centroid) vector must return the same code
            let pq = ProductQuantizer::train(&set, PqConfig { m: 2, ks: 8, kmeans_iters: 4, seed: 0 });
            let code = pq.encode(set.get(0));
            let rec = pq.decode(&code);
            prop_assert_eq!(pq.encode(&rec), code);
        }
    }
}
