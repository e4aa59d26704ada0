//! PQ-fused HNSW traversal (kANNolo-style, arXiv:2501.06121).
//!
//! The plain [`HnswIndex`] scores every beam
//! candidate with an exact `sq_l2` against full-precision vectors. This
//! variant fuses product quantization into the traversal instead:
//!
//! 1. **Build**: construct the standard HNSW graph, then re-number all
//!    nodes in BFS order from the entry point over layer 0 and store the
//!    PQ codes in that graph-adjacency order, so a beam expansion reads
//!    codes that are adjacent in memory.
//! 2. **Search**: one ADC distance table per query; greedy descent is
//!    scored with [`crate::kernels::adc`] and the layer-0 beam stages
//!    each node's unvisited peers contiguously and scores them with one
//!    [`crate::kernels::adc_block`] call against the shared table.
//! 3. **Re-rank**: the final `ef` frontier goes through an exact
//!    re-ranking tail against the raw vectors, so reported distances
//!    are true squared L2, not ADC estimates.
//!
//! Determinism matches the rest of the crate: for a fixed kernel
//! variant, a search is a pure function of `(index, query, k)` — the
//! batched path and any pool width return bit-identical results.
// lint: hot-path

use crate::hnsw::{Far, HnswConfig, HnswIndex, Near};
use crate::index::{batch_grain, AnnIndex};
use crate::kernels;
use crate::pq::{PqConfig, ProductQuantizer};
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;
use std::collections::BinaryHeap;

/// Configuration for [`HnswPqIndex::build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HnswPqConfig {
    /// Graph parameters (construction and `ef_search`).
    pub hnsw: HnswConfig,
    /// Quantizer parameters for the traversal codes.
    pub pq: PqConfig,
}

/// Per-search scratch reused across queries: the ADC table, the visited
/// bitset, the unvisited-peer staging buffer for four-lane ADC scoring,
/// and the two beam heaps. Contents never survive a query (everything is
/// cleared or overwritten), so reuse cannot affect results — it only
/// removes the per-query allocations.
#[derive(Default)]
struct Scratch {
    table: Vec<f32>,
    visited: Vec<u64>,
    peers: Vec<u32>,
    peer_codes: Vec<u8>,
    peer_dists: Vec<f32>,
    frontier: BinaryHeap<Near>,
    results: BinaryHeap<Far>,
    pool: BinaryHeap<Far>,
}

std::thread_local! {
    /// Single-query searches reuse one scratch per thread; batch search
    /// threads its own per-chunk scratch through the pool instead.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Exact re-ranking tail: scores each candidate id against the raw
/// vectors with the dispatched kernel and keeps the `k` nearest.
/// Candidates may arrive in any order; ties and final order are fixed by
/// [`TopK`].
fn exact_rerank<I>(raw: &VectorSet, query: &[f32], candidates: I, k: usize) -> Vec<Neighbor>
where
    I: IntoIterator<Item = usize>,
{
    let mut tk = TopK::new(k);
    for i in candidates {
        tk.push(i, kernels::sq_l2(query, raw.get(i)));
    }
    tk.into_sorted()
}

/// HNSW graph whose traversal is scored with batched ADC over PQ codes
/// stored in graph-adjacency (BFS) order.
pub struct HnswPqIndex {
    quantizer: ProductQuantizer,
    /// Raw vectors in BFS order, kept for the exact re-rank tail.
    raw: VectorSet,
    /// PQ codes in BFS order, `m` bytes per node.
    codes: Vec<u8>,
    /// Layer-0 adjacency as CSR over BFS ids: neighbours of node `i`
    /// are `edges[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    edges: Vec<u32>,
    /// Upper-layer links for the few nodes that have them, sorted by
    /// BFS id: `(node, links-per-layer starting at layer 1)`.
    upper: Vec<(u32, Vec<Vec<u32>>)>,
    /// BFS id → original vector id.
    orig: Vec<u32>,
    max_level: usize,
    ef_search: usize,
}

impl HnswPqIndex {
    /// Cap on PQ training sample size; beyond it every `stride`-th
    /// vector trains the codebooks (deterministic, order-preserving).
    const MAX_TRAIN: usize = 16_384;

    /// Builds the graph on `data`, trains the quantizer, and lays codes
    /// out in graph-adjacency order.
    ///
    /// # Panics
    /// Panics on empty data, zero `m`, or PQ parameters that do not
    /// divide the dimension (see [`ProductQuantizer::train`]).
    pub fn build(data: &VectorSet, config: HnswPqConfig) -> Self {
        let graph = HnswIndex::build(data.clone(), config.hnsw);
        let (vectors, links, entry, max_level, hnsw_cfg) = graph.into_parts();
        let n = vectors.len();

        // BFS from the entry point over layer 0 defines the new id
        // order; unreachable nodes (possible in degenerate graphs)
        // append in original-id order to keep the permutation total.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut newid: Vec<u32> = vec![u32::MAX; n];
        order.push(entry);
        newid[entry as usize] = 0;
        let mut head = 0;
        while head < order.len() {
            let node = order[head] as usize;
            head += 1;
            for &p in &links[node][0] {
                if newid[p as usize] == u32::MAX {
                    newid[p as usize] = order.len() as u32;
                    order.push(p);
                }
            }
        }
        for v in 0..n as u32 {
            if newid[v as usize] == u32::MAX {
                newid[v as usize] = order.len() as u32;
                order.push(v);
            }
        }

        let quantizer = if n <= Self::MAX_TRAIN {
            ProductQuantizer::train(&vectors, config.pq)
        } else {
            let stride = n.div_ceil(Self::MAX_TRAIN);
            let mut sample = VectorSet::new(vectors.dim());
            for i in (0..n).step_by(stride) {
                sample.push(vectors.get(i));
            }
            ProductQuantizer::train(&sample, config.pq)
        };

        let mut raw = VectorSet::new(vectors.dim());
        let mut codes = Vec::with_capacity(n * quantizer.m());
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        let mut upper: Vec<(u32, Vec<Vec<u32>>)> = Vec::new();
        offsets.push(0u32);
        for (pos, &old) in order.iter().enumerate() {
            let v = vectors.get(old as usize);
            raw.push(v);
            codes.extend_from_slice(&quantizer.encode(v));
            for &p in &links[old as usize][0] {
                edges.push(newid[p as usize]);
            }
            offsets.push(edges.len() as u32);
            if links[old as usize].len() > 1 {
                let layers: Vec<Vec<u32>> = links[old as usize][1..]
                    .iter()
                    .map(|l| l.iter().map(|&p| newid[p as usize]).collect())
                    .collect();
                upper.push((pos as u32, layers));
            }
        }

        HnswPqIndex {
            quantizer,
            raw,
            codes,
            offsets,
            edges,
            upper,
            orig: order,
            max_level,
            ef_search: hnsw_cfg.ef_search,
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.quantizer
    }

    /// True index size in bytes: PQ codes + codebooks + graph adjacency
    /// (layer-0 CSR and upper links) + id map + the raw vectors the
    /// exact re-rank tail retains.
    pub fn nbytes(&self) -> usize {
        let u32s = std::mem::size_of::<u32>();
        let upper_payload: usize = self
            .upper
            .iter()
            .map(|(_, layers)| layers.iter().map(|l| l.len() * u32s).sum::<usize>())
            .sum();
        self.codes.len()
            + self.quantizer.codebook_nbytes()
            + (self.offsets.len() + self.edges.len() + self.orig.len()) * u32s
            + upper_payload
            + self.raw.nbytes()
    }

    /// Graph-plus-codes footprint without the re-rank vectors — the
    /// part the compressed traversal actually touches.
    pub fn traversal_nbytes(&self) -> usize {
        self.nbytes() - self.raw.nbytes()
    }

    #[inline]
    fn code(&self, node: usize) -> &[u8] {
        let m = self.quantizer.m();
        &self.codes[node * m..(node + 1) * m]
    }

    /// Upper-layer neighbours of `node` at `layer` (≥ 1), empty when
    /// the node does not reach that layer.
    fn upper_links(&self, node: u32, layer: usize) -> &[u32] {
        match self.upper.binary_search_by_key(&node, |&(id, _)| id) {
            Ok(i) => self.upper[i]
                .1
                .get(layer - 1)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
            Err(_) => &[],
        }
    }

    /// Approximate `k` nearest neighbours, ascending by exact distance
    /// (the frontier is re-ranked against the raw vectors).
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_counted(query, k).0
    }

    /// The search body: ADC-scored descent + beam, exact re-rank tail.
    /// Returns the hits (original ids) and the visited-node count.
    fn search_with_scratch(&self, query: &[f32], k: usize, scratch: &mut Scratch) -> (Vec<Neighbor>, u64) {
        if k == 0 || self.raw.is_empty() {
            return (Vec::new(), 0);
        }
        crate::metrics::hnswpq_searches().inc();
        let ks = self.quantizer.ks();
        let m = self.quantizer.m();
        self.quantizer.distance_table_into(query, &mut scratch.table);
        let table = scratch.table.as_slice();

        // greedy ADC descent through the upper layers
        let mut current: u32 = 0; // BFS renumbering puts the entry at 0
        let mut dcur = kernels::adc(table, ks, self.code(0));
        for layer in (1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                for &p in self.upper_links(current, layer) {
                    let d = kernels::adc(table, ks, self.code(p as usize));
                    if d < dcur {
                        dcur = d;
                        current = p;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // layer-0 beam, unvisited peers scored four codes per ADC call
        let n = self.raw.len();
        scratch.visited.clear();
        scratch.visited.resize(n.div_ceil(64), 0);
        let mut visited_count: u64 = 1;
        scratch.visited[current as usize / 64] |= 1 << (current as usize % 64);
        let ef = self.ef_search.max(k);
        // The re-rank pool is wider than the beam: ADC mis-ranking can
        // push a true neighbour past the beam's `ef` cutoff, but every
        // node the beam *scores* is remembered in an ADC top-`R` pool
        // for the exact re-rank tail (kANNolo's re-rank factor). The
        // extra pool pushes cost ~nothing — those nodes were scored
        // anyway — and decouple traversal width from re-rank width.
        let pool_cap = ef.max(4 * k);
        let mut frontier = std::mem::take(&mut scratch.frontier);
        let mut results = std::mem::take(&mut scratch.results);
        let mut pool = std::mem::take(&mut scratch.pool);
        frontier.clear();
        results.clear();
        pool.clear();
        frontier.push(Near(dcur, current));
        results.push(Far(dcur, current));
        pool.push(Far(dcur, current));

        while let Some(Near(d, node)) = frontier.pop() {
            let worst = results.peek().map(|f| f.0).unwrap_or(f32::INFINITY);
            if d > worst && results.len() >= ef {
                break;
            }
            let (lo, hi) = (self.offsets[node as usize] as usize, self.offsets[node as usize + 1] as usize);
            scratch.peers.clear();
            scratch.peer_codes.clear();
            for &p in &self.edges[lo..hi] {
                let (w, b) = (p as usize / 64, 1u64 << (p as usize % 64));
                if scratch.visited[w] & b == 0 {
                    scratch.visited[w] |= b;
                    scratch.peers.push(p);
                    scratch.peer_codes.extend_from_slice(self.code(p as usize));
                }
            }
            visited_count += scratch.peers.len() as u64;
            // one block-ADC kernel call scores every unvisited peer of
            // this node; staging the codes contiguously costs an m-byte
            // copy per peer and amortizes the dispatch over the block
            scratch.peer_dists.clear();
            scratch.peer_dists.resize(scratch.peers.len(), 0.0);
            kernels::adc_block(table, ks, m, &scratch.peer_codes, &mut scratch.peer_dists);
            for (&peer, &dp) in scratch.peers.iter().zip(&scratch.peer_dists) {
                if pool.len() < pool_cap {
                    pool.push(Far(dp, peer));
                } else if dp < pool.peek().map(|f| f.0).unwrap_or(f32::INFINITY) {
                    pool.push(Far(dp, peer));
                    pool.pop();
                }
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
        crate::metrics::hnswpq_visited().add(visited_count);

        // exact re-rank of the ADC top-`R` pool, then map BFS ids back
        // to original vector ids
        let pool_ids = pool.drain().map(|Far(_, id)| id as usize);
        let mut hits = exact_rerank(&self.raw, query, pool_ids, k);
        for h in &mut hits {
            h.index = self.orig[h.index] as usize;
        }
        // return the heap storage to the scratch for the next query
        scratch.frontier = frontier;
        scratch.results = results;
        scratch.pool = pool;
        (hits, visited_count)
    }
}

impl AnnIndex for HnswPqIndex {
    fn name(&self) -> &'static str {
        "hnswpq"
    }

    fn len(&self) -> usize {
        self.raw.len()
    }

    fn nbytes(&self) -> usize {
        // the inherent method (inherent wins path resolution)
        HnswPqIndex::nbytes(self)
    }

    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        SCRATCH.with(|s| self.search_with_scratch(query, k, &mut s.borrow_mut()))
    }

    /// Batch search; `threads > 1` fans queries out over the persistent
    /// pool with one scratch (ADC table + bitset) per chunk. Results are
    /// bit-identical to the single-query path at any width.
    fn search_batch(&self, queries: &VectorSet, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        let n = queries.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = threads.max(1).min(n);
        let run = |scratch: &mut Scratch, i: usize| {
            self.search_with_scratch(queries.get(i), k, scratch).0
        };
        if threads == 1 {
            let mut scratch = Scratch::default();
            return (0..n).map(|i| run(&mut scratch, i)).collect();
        }
        emblookup_pool::Pool::global().parallel_map_with(
            n,
            batch_grain(n, threads),
            Scratch::default,
            run,
        )
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

    fn fixture_config() -> HnswPqConfig {
        // quantized traversal needs a wider beam than exact HNSW: the
        // ADC estimate mis-ranks near-ties, and the exact re-rank can
        // only fix what the frontier contains
        HnswPqConfig {
            hnsw: HnswConfig { ef_search: 96, ..HnswConfig::default() },
            pq: PqConfig { m: 4, ks: 16, kmeans_iters: 10, seed: 0 },
        }
    }

    #[test]
    fn finds_self_as_nearest_with_exact_distance() {
        let data = random_set(600, 16, 1);
        let idx = HnswPqIndex::build(&data, fixture_config());
        for i in (0..600).step_by(53) {
            let hits = idx.search(data.get(i), 1);
            assert_eq!(hits[0].index, i, "vector {i} did not find itself");
            assert_eq!(hits[0].dist, 0.0, "re-ranked distance must be exact");
        }
    }

    #[test]
    fn recall_at_10_regression_on_600_entity_fixture() {
        // the seeded 600-entity fixture of the acceptance criteria:
        // ADC-guided traversal + exact re-rank must stay close to flat
        let data = random_set(600, 16, 2);
        let flat = FlatIndex::new(data.clone());
        let idx = HnswPqIndex::build(&data, fixture_config());
        let queries = random_set(30, 16, 3);
        let mut recall = 0.0;
        for q in queries.iter() {
            let truth: Vec<usize> = flat.search(q, 10).iter().map(|n| n.index).collect();
            let got: Vec<usize> = idx.search(q, 10).iter().map(|n| n.index).collect();
            recall += truth.iter().filter(|i| got.contains(i)).count() as f64 / 10.0;
        }
        recall /= 30.0;
        assert!(recall > 0.85, "HnswPq recall@10 too low: {recall}");
    }

    #[test]
    fn batch_is_bit_identical_across_widths() {
        let data = random_set(500, 16, 4);
        let idx = HnswPqIndex::build(&data, fixture_config());
        let queries = random_set(23, 16, 5);
        let seq = idx.search_batch(&queries, 7, 1);
        for threads in [1usize, 4] {
            let par = idx.search_batch(&queries, 7, threads);
            for (a, b) in seq.iter().zip(&par) {
                let ia: Vec<usize> = a.iter().map(|n| n.index).collect();
                let ib: Vec<usize> = b.iter().map(|n| n.index).collect();
                assert_eq!(ia, ib, "ids differ at {threads} threads");
                let da: Vec<u32> = a.iter().map(|n| n.dist.to_bits()).collect();
                let db: Vec<u32> = b.iter().map(|n| n.dist.to_bits()).collect();
                assert_eq!(da, db, "dists differ at {threads} threads");
            }
        }
        // batch must also equal the single-query path exactly
        for (q, hits) in queries.iter().zip(&seq) {
            assert_eq!(hits, &idx.search(q, 7));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = random_set(300, 16, 6);
        let a = HnswPqIndex::build(&data, fixture_config());
        let b = HnswPqIndex::build(&data, fixture_config());
        let q = data.get(17);
        assert_eq!(a.search(q, 5), b.search(q, 5));
    }

    #[test]
    fn single_vector_graph() {
        let mut vs = VectorSet::new(4);
        vs.push(&[1.0, 2.0, 3.0, 4.0]);
        let idx = HnswPqIndex::build(
            &vs,
            HnswPqConfig {
                hnsw: HnswConfig::default(),
                pq: PqConfig { m: 2, ks: 1, kmeans_iters: 2, seed: 0 },
            },
        );
        let hits = idx.search(&[1.0, 2.0, 3.0, 4.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn k_zero_is_empty() {
        let data = random_set(50, 8, 7);
        let idx = HnswPqIndex::build(
            &data,
            HnswPqConfig {
                hnsw: HnswConfig::default(),
                pq: PqConfig { m: 2, ks: 8, kmeans_iters: 3, seed: 0 },
            },
        );
        assert!(idx.search(data.get(0), 0).is_empty());
    }

    #[test]
    fn nbytes_accounts_for_codes_graph_and_rerank_vectors() {
        let data = random_set(400, 16, 8);
        let idx = HnswPqIndex::build(&data, fixture_config());
        // raw re-rank vectors alone are a strict lower bound, and the
        // traversal footprint (codes + graph) must be non-trivial
        assert!(idx.nbytes() > data.nbytes());
        assert!(idx.traversal_nbytes() >= 400 * 4, "codes missing from accounting");
        assert_eq!(idx.nbytes() - idx.traversal_nbytes(), data.nbytes());
    }
}
