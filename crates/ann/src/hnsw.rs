//! Hierarchical Navigable Small World graphs (Malkov & Yashunin) — the
//! index behind nmslib, one of the approximate-search libraries the paper
//! evaluates against FAISS (§III-C).
//!
//! Standard construction: every vector gets a random level from a
//! geometric distribution; search descends greedily from the top layer and
//! runs a beam search (`ef`) on layer 0. Neighbour lists are pruned to `m`
//! (2`m` on layer 0) with the paper's diversity heuristic (Algorithm 4):
//! a candidate is kept only if it is closer to the node than to every
//! already-kept neighbour, which preserves the inter-cluster bridges that
//! plain nearest-`m` pruning severs on clustered data.
// lint: hot-path

use crate::index::AnnIndex;
use crate::kernels::sq_l2;
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Configuration for [`HnswIndex::build`].
#[derive(Debug, Clone, Copy)]
pub struct HnswConfig {
    /// Max neighbours per node per layer (layer 0 keeps `2m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search.
    pub ef_search: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 12, ef_construction: 64, ef_search: 48, seed: 0 }
    }
}

/// Max-heap entry ordered by distance (for result pruning).
#[derive(PartialEq)]
pub(crate) struct Far(pub(crate) f32, pub(crate) u32);
impl Eq for Far {}
impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Far {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Min-heap entry (via reversed ordering) for the candidate frontier.
#[derive(PartialEq)]
pub(crate) struct Near(pub(crate) f32, pub(crate) u32);
impl Eq for Near {}
impl PartialOrd for Near {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Near {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0)
    }
}

/// An HNSW graph over a vector collection.
pub struct HnswIndex {
    vectors: VectorSet,
    /// `links[node][layer]` = neighbour ids.
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
    config: HnswConfig,
}

impl HnswIndex {
    /// Builds the graph by inserting every vector.
    ///
    /// # Panics
    /// Panics on an empty collection or zero `m`.
    pub fn build(vectors: VectorSet, config: HnswConfig) -> Self {
        assert!(!vectors.is_empty(), "HNSW over empty data");
        assert!(config.m >= 1, "HNSW m must be >= 1");
        let n = vectors.len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let level_mult = 1.0 / (config.m as f64).ln().max(0.1);

        let mut index = HnswIndex {
            vectors,
            links: Vec::with_capacity(n),
            entry: 0,
            max_level: 0,
            config,
        };
        // node 0 seeds the graph at level 0
        index.links.push(vec![Vec::new()]);
        for node in 1..n as u32 {
            let level = ((-rng.gen_range(f64::EPSILON..1.0).ln()) * level_mult) as usize;
            index.insert(node, level);
        }
        index
    }

    fn insert(&mut self, node: u32, level: usize) {
        self.links.push(vec![Vec::new(); level + 1]);
        let query = self.vectors.get(node as usize).to_vec();
        let mut current = self.entry;

        // greedy descent through layers above the node's level
        let top = self.max_level;
        for layer in ((level + 1)..=top).rev() {
            current = self.greedy_step(&query, current, layer);
        }
        // beam search + connect on layers min(level, top)..=0
        for layer in (0..=level.min(top)).rev() {
            let (candidates, _) =
                self.search_layer(&query, current, layer, self.config.ef_construction);
            let max_links = self.layer_cap(layer);
            let scored: Vec<(f32, u32)> = candidates
                .iter()
                .map(|n| (n.dist, n.index as u32))
                .collect();
            let selected = self.select_diverse(scored, max_links);
            for &peer in &selected {
                self.links[node as usize][layer].push(peer);
                self.links[peer as usize][layer].push(node);
                self.prune(peer, layer);
            }
            if let Some(best) = candidates.first() {
                current = best.index as u32;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = node;
        }
    }

    fn layer_cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Re-prunes `node`'s neighbour list on `layer` to its cap with the
    /// diversity heuristic.
    fn prune(&mut self, node: u32, layer: usize) {
        let cap = self.layer_cap(layer);
        if self.links[node as usize][layer].len() <= cap {
            return;
        }
        let base = self.vectors.get(node as usize).to_vec();
        let scored: Vec<(f32, u32)> = self.links[node as usize][layer]
            .iter()
            .map(|&p| (sq_l2(&base, self.vectors.get(p as usize)), p))
            .collect();
        self.links[node as usize][layer] = self.select_diverse(scored, cap);
    }

    /// Neighbour-selection heuristic (Malkov & Yashunin, Algorithm 4):
    /// candidates arrive scored by distance to the base point, are taken
    /// in ascending order, and are kept only when closer to the base
    /// than to every already-kept neighbour, so each kept edge covers a
    /// distinct direction. Skipped candidates backfill remaining
    /// capacity (`keepPrunedConnections`), keeping degree — and
    /// therefore graph connectivity — high.
    fn select_diverse(&self, mut scored: Vec<(f32, u32)>, cap: usize) -> Vec<u32> {
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.dedup_by_key(|&mut (_, p)| p);
        let mut kept: Vec<u32> = Vec::with_capacity(cap);
        let mut skipped: Vec<u32> = Vec::new();
        for &(d, c) in &scored {
            if kept.len() >= cap {
                break;
            }
            let cv = self.vectors.get(c as usize);
            let dominated = kept
                .iter()
                .any(|&k| sq_l2(cv, self.vectors.get(k as usize)) < d);
            if dominated {
                skipped.push(c);
            } else {
                kept.push(c);
            }
        }
        for c in skipped {
            if kept.len() >= cap {
                break;
            }
            kept.push(c);
        }
        kept
    }

    /// One greedy hop-to-local-minimum pass on a layer.
    fn greedy_step(&self, query: &[f32], start: u32, layer: usize) -> u32 {
        let mut current = start;
        let mut best = sq_l2(query, self.vectors.get(current as usize));
        loop {
            let mut improved = false;
            for &peer in self
                .links[current as usize]
                .get(layer)
                .map(Vec::as_slice)
                .unwrap_or(&[])
            {
                let d = sq_l2(query, self.vectors.get(peer as usize));
                if d < best {
                    best = d;
                    current = peer;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Beam search on one layer; returns up to `ef` nearest (ascending)
    /// plus the number of distinct nodes visited.
    fn search_layer(
        &self,
        query: &[f32],
        start: u32,
        layer: usize,
        ef: usize,
    ) -> (Vec<Neighbor>, usize) {
        let d0 = sq_l2(query, self.vectors.get(start as usize));
        let mut visited: HashSet<u32> = HashSet::from([start]);
        let mut frontier: BinaryHeap<Near> = BinaryHeap::from([Near(d0, start)]);
        let mut results: BinaryHeap<Far> = BinaryHeap::from([Far(d0, start)]);

        while let Some(Near(d, node)) = frontier.pop() {
            let worst = results.peek().map(|f| f.0).unwrap_or(f32::INFINITY);
            if d > worst && results.len() >= ef {
                break;
            }
            for &peer in self
                .links[node as usize]
                .get(layer)
                .map(Vec::as_slice)
                .unwrap_or(&[])
            {
                if !visited.insert(peer) {
                    continue;
                }
                let dp = sq_l2(query, self.vectors.get(peer as usize));
                let worst = results.peek().map(|f| f.0).unwrap_or(f32::INFINITY);
                if results.len() < ef || dp < worst {
                    frontier.push(Near(dp, peer));
                    results.push(Far(dp, peer));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<Neighbor> = results
            .into_iter()
            .map(|Far(d, n)| Neighbor { index: n as usize, dist: d })
            .collect();
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        (out, visited.len())
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// True index size in bytes: the raw vectors plus the graph
    /// adjacency payload (neighbour ids across every layer).
    pub fn nbytes(&self) -> usize {
        self.vectors.nbytes() + self.links_nbytes()
    }

    /// Adjacency payload alone (u32 neighbour ids, all layers).
    pub fn links_nbytes(&self) -> usize {
        self.links
            .iter()
            .flat_map(|layers| layers.iter())
            .map(|l| l.len() * std::mem::size_of::<u32>())
            .sum()
    }

    /// Decomposes the graph for reuse by the PQ-fused variant:
    /// `(vectors, links, entry, max_level, config)`.
    pub(crate) fn into_parts(
        self,
    ) -> (VectorSet, Vec<Vec<Vec<u32>>>, u32, usize, HnswConfig) {
        (self.vectors, self.links, self.entry, self.max_level, self.config)
    }

    /// Approximate `k` nearest neighbours, ascending by distance.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_counted(query, k).0
    }
}

impl AnnIndex for HnswIndex {
    fn name(&self) -> &'static str {
        "hnsw"
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    fn nbytes(&self) -> usize {
        // the inherent method (inherent wins path resolution)
        HnswIndex::nbytes(self)
    }

    /// The count is the graph nodes visited on the base layer.
    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        if k == 0 {
            return (Vec::new(), 0);
        }
        let k = k.min(self.vectors.len());
        let mut current = self.entry;
        for layer in (1..=self.max_level).rev() {
            current = self.greedy_step(query, current, layer);
        }
        let ef = self.config.ef_search.max(k);
        let (mut found, visited) = self.search_layer(query, current, 0, ef);
        crate::metrics::hnsw_searches().inc();
        crate::metrics::hnsw_visited().add(visited as u64);
        found.truncate(k);
        // found may contain duplicates only if links were inconsistent;
        // TopK re-validation keeps the contract tight
        let mut tk = TopK::new(k);
        for n in found {
            tk.push(n.index, n.dist);
        }
        (tk.into_sorted(), visited as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

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
    fn finds_self_as_nearest() {
        let data = random_set(500, 8, 1);
        let hnsw = HnswIndex::build(data.clone(), HnswConfig::default());
        for i in (0..500).step_by(37) {
            let hits = hnsw.search(data.get(i), 1);
            assert_eq!(hits[0].dist, 0.0, "vector {i} did not find itself");
        }
    }

    #[test]
    fn recall_at_10_is_high() {
        let data = random_set(1000, 8, 2);
        let flat = FlatIndex::new(data.clone());
        let hnsw = HnswIndex::build(data.clone(), HnswConfig::default());
        let queries = random_set(30, 8, 3);
        let mut recall = 0.0;
        for q in queries.iter() {
            let truth: Vec<usize> = flat.search(q, 10).iter().map(|n| n.index).collect();
            let got: Vec<usize> = hnsw.search(q, 10).iter().map(|n| n.index).collect();
            recall += truth.iter().filter(|i| got.contains(i)).count() as f64 / 10.0;
        }
        recall /= 30.0;
        assert!(recall > 0.85, "HNSW recall@10 too low: {recall}");
    }

    #[test]
    fn results_are_sorted_and_distinct() {
        let data = random_set(300, 4, 4);
        let hnsw = HnswIndex::build(data.clone(), HnswConfig::default());
        let hits = hnsw.search(data.get(0), 20);
        assert!(hits.len() <= 20);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<usize> = hits.iter().map(|n| n.index).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), hits.len());
    }

    #[test]
    fn single_vector_graph() {
        let mut vs = VectorSet::new(3);
        vs.push(&[1.0, 2.0, 3.0]);
        let hnsw = HnswIndex::build(vs, HnswConfig::default());
        let hits = hnsw.search(&[1.0, 2.0, 3.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = random_set(200, 6, 5);
        let a = HnswIndex::build(data.clone(), HnswConfig::default());
        let b = HnswIndex::build(data.clone(), HnswConfig::default());
        let q = data.get(17);
        let ia: Vec<usize> = a.search(q, 5).iter().map(|n| n.index).collect();
        let ib: Vec<usize> = b.search(q, 5).iter().map(|n| n.index).collect();
        assert_eq!(ia, ib);
    }

    #[test]
    fn k_zero_is_empty() {
        let data = random_set(50, 4, 6);
        let hnsw = HnswIndex::build(data.clone(), HnswConfig::default());
        assert!(hnsw.search(data.get(0), 0).is_empty());
    }
}
