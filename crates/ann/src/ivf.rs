//! IVF-Flat: inverted-file index with a k-means coarse quantizer.
//!
//! FAISS's workhorse accelerator: vectors are bucketed by nearest coarse
//! centroid; a query scans only the `nprobe` closest buckets. EmbLookup is
//! "modular and could accommodate either exact or approximate similarity
//! search" (§III-C); this is the approximate non-compressed option.

use crate::index::AnnIndex;
use crate::kernels::sq_l2;
use crate::kmeans::{KMeans, KMeansConfig};
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;

/// Configuration for [`IvfIndex::build`].
#[derive(Debug, Clone, Copy)]
pub struct IvfConfig {
    /// Number of coarse clusters (inverted lists).
    pub nlist: usize,
    /// Number of lists scanned per query.
    pub nprobe: usize,
    /// k-means iterations for the coarse quantizer.
    pub kmeans_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig { nlist: 64, nprobe: 8, kmeans_iters: 15, seed: 0 }
    }
}

/// Inverted-file index over full-precision vectors.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    coarse: KMeans,
    /// For each list: the original indices of its member vectors.
    lists: Vec<Vec<u32>>,
    vectors: VectorSet,
    nprobe: usize,
}

impl IvfIndex {
    /// Builds the index, training the coarse quantizer on the data itself.
    ///
    /// # Panics
    /// Panics on empty data or `nprobe == 0`.
    pub fn build(vectors: VectorSet, config: IvfConfig) -> Self {
        assert!(!vectors.is_empty(), "IVF over empty data");
        assert!(config.nprobe > 0, "nprobe must be positive");
        let nlist = config.nlist.min(vectors.len()).max(1);
        let span = emblookup_obs::Span::enter(emblookup_obs::names::INDEX_BUILD_QUANTIZER);
        let coarse = KMeans::fit(
            &vectors,
            KMeansConfig {
                k: nlist,
                max_iters: config.kmeans_iters,
                seed: config.seed,
            },
        );
        drop(span);
        let mut lists = vec![Vec::new(); nlist];
        for (i, v) in vectors.iter().enumerate() {
            let (c, _) = coarse.assign(v);
            lists[c].push(i as u32);
        }
        IvfIndex {
            coarse,
            lists,
            vectors,
            nprobe: config.nprobe.min(nlist),
        }
    }

    /// Number of inverted lists.
    #[cfg(test)]
    pub(crate) fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Exact byte size of the stored index: the full-precision vectors
    /// plus the coarse centroids and the inverted-list postings (`u32`
    /// row ids).
    pub fn nbytes(&self) -> usize {
        let postings: usize =
            self.lists.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<u32>();
        self.vectors.nbytes() + self.coarse.centroids().nbytes() + postings
    }

    /// Approximate `k` nearest neighbours scanning `nprobe` lists.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_counted(query, k).0
    }
}

impl AnnIndex for IvfIndex {
    fn name(&self) -> &'static str {
        "ivf"
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    fn nbytes(&self) -> usize {
        // the inherent method (inherent wins path resolution)
        IvfIndex::nbytes(self)
    }

    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        if self.vectors.is_empty() || k == 0 {
            return (Vec::new(), 0);
        }
        // rank lists by centroid distance
        let mut order: Vec<(usize, f32)> = self
            .coarse
            .centroids()
            .iter()
            .enumerate()
            .map(|(c, cent)| (c, sq_l2(query, cent)))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut tk = TopK::new(k.min(self.vectors.len()));
        let mut visited = 0u64;
        for &(list, _) in order.iter().take(self.nprobe) {
            visited += self.lists[list].len() as u64;
            for &i in &self.lists[list] {
                tk.push(i as usize, sq_l2(query, self.vectors.get(i as usize)));
            }
        }
        crate::metrics::ivf_searches().inc();
        crate::metrics::ivf_visited().add(visited);
        (tk.into_sorted(), visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vs.push(&v);
        }
        vs
    }

    #[test]
    fn probing_all_lists_is_exact() {
        let data = random_set(300, 8, 1);
        let flat = FlatIndex::new(data.clone());
        let ivf = IvfIndex::build(
            data.clone(),
            IvfConfig { nlist: 10, nprobe: 10, kmeans_iters: 10, seed: 0 },
        );
        for q in random_set(10, 8, 2).iter() {
            let truth: Vec<usize> = flat.search(q, 5).iter().map(|n| n.index).collect();
            let got: Vec<usize> = ivf.search(q, 5).iter().map(|n| n.index).collect();
            assert_eq!(truth, got);
        }
    }

    #[test]
    fn partial_probe_has_reasonable_recall() {
        let data = random_set(500, 8, 3);
        let flat = FlatIndex::new(data.clone());
        let ivf = IvfIndex::build(
            data.clone(),
            IvfConfig { nlist: 20, nprobe: 5, kmeans_iters: 10, seed: 0 },
        );
        let queries = random_set(20, 8, 4);
        let mut recall = 0.0;
        for q in queries.iter() {
            let truth: Vec<usize> = flat.search(q, 10).iter().map(|n| n.index).collect();
            let got: Vec<usize> = ivf.search(q, 10).iter().map(|n| n.index).collect();
            recall += truth.iter().filter(|i| got.contains(i)).count() as f64 / 10.0;
        }
        recall /= 20.0;
        assert!(recall > 0.5, "recall@10 with nprobe 5/20 too low: {recall}");
    }

    #[test]
    fn every_vector_lands_in_exactly_one_list() {
        let data = random_set(100, 4, 5);
        let ivf = IvfIndex::build(data, IvfConfig::default());
        let total: usize = ivf.lists.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tiny_input_clamps_nlist() {
        let data = random_set(3, 4, 6);
        let ivf = IvfIndex::build(
            data,
            IvfConfig { nlist: 64, nprobe: 8, kmeans_iters: 5, seed: 0 },
        );
        assert!(ivf.nlist() <= 3);
        assert_eq!(ivf.search(&[0.0; 4], 3).len(), 3);
    }
}
