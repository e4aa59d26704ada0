//! PQ-fused HNSW traversal (kANNolo-style, arXiv:2501.06121).
//!
//! The plain [`HnswIndex`] scores every beam
//! candidate with an exact `sq_l2` against full-precision vectors. This
//! variant fuses product quantization into the traversal instead:
//!
//! 1. **Build**: construct the standard HNSW graph, then re-number all
//!    nodes in BFS order from the entry point over layer 0 and store the
//!    PQ codes in that graph-adjacency order, so a beam expansion reads
//!    codes that are adjacent in memory. Layer 0 is stored as one
//!    fixed-width, line-aligned row of `2m` ids per node, padded with the
//!    sentinel id `n`, so where a node's neighbours lie is known from its
//!    id alone.
//! 2. **Search**: one ADC distance table per query; greedy descent is
//!    scored with [`crate::kernels::adc`] and the layer-0 beam — one
//!    sorted candidate buffer, the `retset` of NSG/DiskANN — scores each
//!    node's unvisited peers where their codes lie with one
//!    [`crate::kernels::adc_gather`] call against the shared table. A
//!    peer admitted to the beam has its neighbour row prefetched
//!    ([`crate::kernels::prefetch`]) then, one step before it is expanded.
//! 3. **Re-rank**: the buffer's ADC top-`max(ef, 4k)` is re-scored
//!    against the rows kept at one byte a dimension (`sq8.rs`, one
//!    gathered kernel call for the pool) and the `k` nearest by that
//!    score are returned. The raw `f32` rows are not kept: reported
//!    distances are the 8-bit estimate of squared L2 — far tighter than
//!    ADC, but an estimate (bound at [`HnswPqIndex::search`]). The
//!    standalone [`HnswIndex`] is the graph that returns exact distances.
//!
//! Determinism matches the rest of the crate: for a fixed kernel
//! variant, a search is a pure function of `(index, query, k)` — the
//! batched path and any pool width return bit-identical results.

use crate::hnsw::{HnswConfig, HnswIndex};
use crate::index::{batch_grain, AnnIndex};
use crate::kernels;
use crate::pq::{PqConfig, ProductQuantizer};
use crate::sq8::{LineAligned, Sq8Rows};
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;

/// Configuration for [`HnswPqIndex::build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HnswPqConfig {
    /// Graph parameters (construction and `ef_search`).
    pub hnsw: HnswConfig,
    /// Quantizer parameters for the traversal codes.
    pub pq: PqConfig,
}

/// Per-search scratch reused across queries: the ADC table, the query
/// shifted onto the re-rank store's grid, the visited bitset, a list of
/// ids and their scores (the expanded node's unvisited peers and their
/// ADC distances, then the pool and its 8-bit distances), and the
/// [`Beam`]'s buffer. Contents never survive a query (everything is
/// cleared or overwritten), so reuse cannot affect results — it only
/// removes the per-query allocations.
#[derive(Default)]
struct Scratch {
    table: Vec<f32>,
    shifted: Vec<f32>,
    visited: Vec<u64>,
    peers: Vec<u32>,
    peer_dists: Vec<f32>,
    cands: Vec<(f32, u32)>,
}

/// Top bit of a [`Beam`] entry's id: the node's peers have been scored.
/// [`HnswPqIndex::build`] keeps every BFS id below it.
const EXPANDED: u32 = 1 << 31;

/// The layer-0 beam and the re-rank pool in one buffer: `(ADC distance,
/// BFS id)` sorted ascending by `total_cmp`, equal keys in arrival order,
/// at most `cap` entries. The first `min(ef, len)` are the beam — what a
/// results heap bounded at `ef` would hold — and all of them the pool the
/// re-rank reads. An entry only ever moves to a higher rank, so one
/// pushed past rank `ef` never re-enters the beam: exactly the entries a
/// separate frontier heap would pop only to stop on.
struct Beam<'a> {
    cands: &'a mut Vec<(f32, u32)>,
    ef: usize,
    cap: usize,
    /// No entry below this rank is unexpanded.
    cursor: usize,
}

impl<'a> Beam<'a> {
    /// A beam of width `ef` in a buffer of `cap`, holding the entry point.
    fn start(cands: &'a mut Vec<(f32, u32)>, ef: usize, cap: usize, dist: f32, id: u32) -> Self {
        cands.clear();
        cands.reserve(cap);
        cands.push((dist, id));
        Beam { cands, ef, cap, cursor: 0 }
    }

    /// The nearest beam entry not yet expanded, marked expanded — or
    /// `None` once every entry of the beam is, which ends the search.
    fn next_unexpanded(&mut self) -> Option<u32> {
        let width = self.ef.min(self.cands.len());
        while self.cursor < width {
            let entry = &mut self.cands[self.cursor];
            if entry.1 & EXPANDED == 0 {
                entry.1 |= EXPANDED;
                return Some(entry.1 & !EXPANDED);
            }
            self.cursor += 1;
        }
        None
    }

    /// Offers a scored node and returns the rank it was admitted at. A
    /// full buffer admits it only when strictly nearer than its last entry
    /// (a bounded heap's rule), which it drops.
    fn offer(&mut self, dist: f32, id: u32) -> Option<usize> {
        if self.cands.len() >= self.cap {
            if self.cands.last().is_some_and(|last| dist.total_cmp(&last.0).is_ge()) {
                return None;
            }
            self.cands.pop();
        }
        let rank = self.cands.partition_point(|e| e.0.total_cmp(&dist).is_le());
        self.cands.insert(rank, (dist, id));
        self.cursor = self.cursor.min(rank);
        Some(rank)
    }

    /// Every entry's id, nearest first: the re-rank pool.
    fn pool(&self) -> impl Iterator<Item = u32> + '_ {
        self.cands.iter().map(|&(_, id)| id & !EXPANDED)
    }
}

std::thread_local! {
    /// Searches on the calling thread reuse one scratch per thread; a
    /// batch fanned out over the pool threads its own per-chunk scratch.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// HNSW graph whose traversal is scored with batched ADC over PQ codes
/// stored in graph-adjacency (BFS) order.
pub struct HnswPqIndex {
    quantizer: ProductQuantizer,
    /// The vectors at one byte a dimension, in BFS order: what the pool
    /// is re-ranked against.
    rerank: Sq8Rows,
    /// PQ codes in BFS order, `m` bytes per node.
    codes: Vec<u8>,
    /// Layer-0 adjacency over BFS ids: node `i`'s neighbours are row `i`
    /// of `width` ids, a node with fewer links padded with the sentinel
    /// `len()` at the row's end. The rows start on a cache line.
    rows: LineAligned<u32>,
    /// Ids a row holds: the graph's layer-0 cap, `2m`.
    width: usize,
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
    /// Panics on empty data, 2³¹ vectors or more, zero `m`, or PQ
    /// parameters that do not divide the dimension (see
    /// `ProductQuantizer::train`).
    pub fn build(data: &VectorSet, config: HnswPqConfig) -> Self {
        Self::from_graph(HnswIndex::build(data.clone(), config.hnsw), config.pq)
    }

    /// Trains the quantizer on a finished graph's vectors and lays graph
    /// and codes out in BFS order.
    fn from_graph(graph: HnswIndex, pq: PqConfig) -> Self {
        let (vectors, links, entry, max_level, hnsw_cfg) = graph.into_parts();
        let n = vectors.len();
        assert!(n < EXPANDED as usize, "HnswPq holds at most 2^31 - 1 vectors, got {n}");

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
            ProductQuantizer::train(&vectors, pq)
        } else {
            let stride = n.div_ceil(Self::MAX_TRAIN);
            let mut sample = VectorSet::new(vectors.dim());
            for i in (0..n).step_by(stride) {
                sample.push(vectors.get(i));
            }
            ProductQuantizer::train(&sample, pq)
        };

        let codes = quantizer.encode_rows(n, |pos| vectors.get(order[pos] as usize));
        let rerank = Sq8Rows::encode(vectors.dim(), n, |pos| vectors.get(order[pos] as usize));
        let width = 2 * hnsw_cfg.m;
        let mut rows = LineAligned::new(n * width, n as u32);
        let mut upper: Vec<(u32, Vec<Vec<u32>>)> = Vec::new();
        for (pos, &old) in order.iter().enumerate() {
            let layer0 = &links[old as usize][0];
            assert!(layer0.len() <= width, "node {old} has {} layer-0 links, more than 2m = {width}", layer0.len());
            for (slot, &p) in rows.as_mut_slice()[pos * width..].iter_mut().zip(layer0) {
                *slot = newid[p as usize];
            }
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
            rerank,
            codes,
            rows,
            width,
            upper,
            orig: order,
            max_level,
            ef_search: hnsw_cfg.ef_search,
        }
    }

    /// Number of indexed vectors.
    pub(crate) fn len(&self) -> usize {
        self.orig.len()
    }

    /// True when no vectors are indexed.
    pub(crate) fn is_empty(&self) -> bool {
        self.orig.is_empty()
    }

    /// True index size in bytes: PQ codes + codebooks + graph adjacency
    /// (layer-0 rows and upper links) + id map + the 8-bit rows (and their
    /// grid) the re-rank reads. Alignment slack is not counted.
    pub fn nbytes(&self) -> usize {
        let u32s = std::mem::size_of::<u32>();
        let upper_payload: usize = self
            .upper
            .iter()
            .map(|(_, layers)| layers.iter().map(|l| l.len() * u32s).sum::<usize>())
            .sum();
        self.codes.len()
            + self.quantizer.codebook_nbytes()
            + (self.rows.as_slice().len() + self.orig.len()) * u32s
            + upper_payload
            + self.rerank.nbytes()
    }

    /// Graph-plus-codes footprint without the re-rank store — the
    /// part the compressed traversal actually touches.
    #[cfg(test)]
    pub(crate) fn traversal_nbytes(&self) -> usize {
        self.nbytes() - self.rerank.nbytes()
    }

    #[inline]
    fn code(&self, node: usize) -> &[u8] {
        let m = self.quantizer.m();
        &self.codes[node * m..(node + 1) * m]
    }

    /// Layer-0 row of `node`: its neighbours, then the sentinel `len()`
    /// up to `width` ids.
    #[inline]
    fn row(&self, node: u32) -> &[u32] {
        &self.rows.as_slice()[node as usize * self.width..][..self.width]
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

    /// Approximate `k` nearest neighbours, ascending by distance.
    ///
    /// The distances are estimates: squared L2 to the vector as the
    /// re-rank store holds it, each dimension rounded onto a 256-level
    /// grid of step `s_j` = 1/255 of that dimension's range over the
    /// indexed vectors. For a hit at true squared distance `d` the
    /// reported value is within `√d · ‖s‖ + ‖s‖² / 4` of `d`; a dimension
    /// constant over the index adds nothing.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_counted(query, k).0
    }

    /// The search body: ADC-scored descent + beam, 8-bit re-rank tail.
    /// Returns the hits (original ids) and the visited-node count.
    fn search_with_scratch(&self, query: &[f32], k: usize, scratch: &mut Scratch) -> (Vec<Neighbor>, u64) {
        if k == 0 || self.is_empty() {
            return (Vec::new(), 0);
        }
        // a search returns at most `len()` hits, whatever `k` asks for
        let k = k.min(self.len());
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

        // layer-0 beam, a node's unvisited peers scored in one ADC call
        let n = self.len();
        scratch.visited.clear();
        scratch.visited.resize((n + 1).div_ceil(64), 0);
        // the padding id `n` counts as visited from the start, so the
        // filter below drops it and `adc_gather` never sees it
        scratch.visited[n / 64] |= 1 << (n % 64);
        let mut visited_count: u64 = 1;
        scratch.visited[current as usize / 64] |= 1 << (current as usize % 64);
        let ef = self.ef_search.max(k);
        // The re-rank pool is wider than the beam: ADC mis-ranking can
        // push a true neighbour past the beam's `ef` cutoff, but every
        // node the beam *scores* is remembered in the ADC top-`R` for the
        // re-rank tail (kANNolo's re-rank factor): the buffer's
        // entries past rank `ef` cost ~nothing to keep — those nodes were
        // scored anyway — and decouple traversal width from re-rank
        // width. No node is scored twice, so `n` slots always suffice.
        let cap = ef.max(4usize.saturating_mul(k)).min(n);
        let mut beam = Beam::start(&mut scratch.cands, ef, cap, dcur, current);

        while let Some(node) = beam.next_unexpanded() {
            let edges = self.row(node);
            // visited filter without a branch on the bit (set for ~70 %
            // of edges, in no learnable pattern): every neighbour is
            // written to the next slot, kept only if its bit was clear
            scratch.peers.resize(edges.len(), 0);
            let mut unvisited = 0;
            for &p in edges {
                let (w, b) = (p as usize / 64, 1u64 << (p as usize % 64));
                scratch.peers[unvisited] = p;
                unvisited += usize::from(scratch.visited[w] & b == 0);
                scratch.visited[w] |= b;
            }
            scratch.peers.truncate(unvisited);
            visited_count += unvisited as u64;
            // one kernel call scores every unvisited peer of this node
            // where its code lies, amortizing the dispatch over the block
            scratch.peer_dists.resize(unvisited, 0.0);
            kernels::adc_gather(table, ks, m, &self.codes, &scratch.peers, &mut scratch.peer_dists);
            for (&peer, &dp) in scratch.peers.iter().zip(&scratch.peer_dists) {
                // a peer that enters the beam will be expanded unless
                // pushed out first: start its row's miss now
                if beam.offer(dp, peer).is_some_and(|rank| rank < ef) {
                    kernels::prefetch(self.row(peer));
                }
            }
        }
        crate::metrics::hnswpq_visited().add(visited_count);

        // re-rank of the ADC top-`R` pool — one kernel call scores it
        // against the 8-bit rows, ties and final order are `TopK`'s — then
        // map BFS ids back to original vector ids
        scratch.peers.clear();
        scratch.peers.extend(beam.pool());
        scratch.peer_dists.resize(scratch.peers.len(), 0.0);
        self.rerank.prepare(query, &mut scratch.shifted);
        self.rerank.score(&scratch.shifted, &scratch.peers, &mut scratch.peer_dists);
        let mut tk = TopK::new(k);
        for (&id, &dist) in scratch.peers.iter().zip(&scratch.peer_dists) {
            tk.push(self.orig[id as usize] as usize, dist);
        }
        (tk.into_sorted(), visited_count)
    }
}

impl AnnIndex for HnswPqIndex {
    fn name(&self) -> &'static str {
        "hnswpq"
    }

    fn len(&self) -> usize {
        self.orig.len()
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
        if threads == 1 {
            return (0..n).map(|i| self.search_counted(queries.get(i), k).0).collect();
        }
        emblookup_pool::Pool::global().parallel_map_with(
            n,
            batch_grain(n, threads),
            Scratch::default,
            |scratch, i| self.search_with_scratch(queries.get(i), k, scratch).0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::hnsw::{Far, Near};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    /// Exact re-ranking tail: scores each candidate (an original id)
    /// against the raw vectors and keeps the `k` nearest. Candidates may
    /// arrive in any order; ties and final order are fixed by [`TopK`].
    fn exact_rerank(raw: &VectorSet, query: &[f32], candidates: impl Iterator<Item = usize>, k: usize) -> Vec<Neighbor> {
        let mut tk = TopK::new(k);
        for i in candidates {
            tk.push(i, kernels::sq_l2(query, raw.get(i)));
        }
        tk.into_sorted()
    }

    impl HnswPqIndex {
        /// Layer-0 neighbours of `node`: its row without the padding.
        fn neighbours(&self, node: u32) -> &[u32] {
            let row = self.row(node);
            &row[..row.iter().position(|&p| p as usize == self.len()).unwrap_or(row.len())]
        }

        /// The search as it was before the one-buffer beam and the 8-bit
        /// re-rank store, kept as the oracle: a frontier min-heap, a
        /// results max-heap of `ef`, a pool max-heap of `max(ef, 4k)`,
        /// each unvisited peer's code copied side by side and scored with
        /// `adc_block`, and the pool re-ranked exactly against `raw` — the
        /// vectors the index was built on, which it no longer holds.
        /// Outside exact ADC ties (where a heap's pick among equal keys is
        /// arbitrary) it expands the same nodes in the same order as
        /// [`HnswPqIndex::search_with_scratch`]. Returns the hits, the
        /// visited count and the pool (original ids, in no order).
        fn search_reference(&self, raw: &VectorSet, query: &[f32], k: usize) -> (Vec<Neighbor>, u64, Vec<usize>) {
            if k == 0 || self.is_empty() {
                return (Vec::new(), 0, Vec::new());
            }
            let ks = self.quantizer.ks();
            let m = self.quantizer.m();
            let table = self.quantizer.distance_table(query);
            let table = table.as_slice();

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
            let n = self.len();
            let mut visited = vec![0u64; n.div_ceil(64)];
            let mut visited_count: u64 = 1;
            visited[current as usize / 64] |= 1 << (current as usize % 64);
            let ef = self.ef_search.max(k);
            let pool_cap = ef.max(4 * k);
            let (mut peers, mut staged_codes, mut peer_dists) = (Vec::new(), Vec::new(), Vec::new());
            let mut frontier = BinaryHeap::from([Near(dcur, current)]);
            let mut results = BinaryHeap::from([Far(dcur, current)]);
            let mut pool = BinaryHeap::from([Far(dcur, current)]);

            while let Some(Near(d, node)) = frontier.pop() {
                let worst = results.peek().map(|f| f.0).unwrap_or(f32::INFINITY);
                if d > worst && results.len() >= ef {
                    break;
                }
                peers.clear();
                staged_codes.clear();
                for &p in self.neighbours(node) {
                    let (w, b) = (p as usize / 64, 1u64 << (p as usize % 64));
                    if visited[w] & b == 0 {
                        visited[w] |= b;
                        peers.push(p);
                        staged_codes.extend_from_slice(self.code(p as usize));
                    }
                }
                visited_count += peers.len() as u64;
                peer_dists.clear();
                peer_dists.resize(peers.len(), 0.0);
                kernels::adc_block(table, ks, m, &staged_codes, &mut peer_dists);
                for (&peer, &dp) in peers.iter().zip(&peer_dists) {
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

            // exact re-rank of the ADC top-`R` pool, by original vector id
            let pool_ids: Vec<usize> = pool.drain().map(|Far(_, id)| self.orig[id as usize] as usize).collect();
            let hits = exact_rerank(raw, query, pool_ids.iter().copied(), k.min(n));
            (hits, visited_count, pool_ids)
        }

        /// The run-time traversal under the reference's re-rank: the pool
        /// [`HnswPqIndex::search_with_scratch`] scored last (it is what the
        /// scratch's id list still holds), re-ranked exactly against `raw`.
        /// What differs from `search_reference` is then the beam alone.
        fn search_exact(&self, raw: &VectorSet, query: &[f32], k: usize) -> (Vec<Neighbor>, u64, Vec<usize>) {
            let mut scratch = Scratch::default();
            let (_, visited) = self.search_with_scratch(query, k, &mut scratch);
            let pool: Vec<usize> = scratch.peers.iter().map(|&id| self.orig[id as usize] as usize).collect();
            (exact_rerank(raw, query, pool.iter().copied(), k.min(self.len())), visited, pool)
        }
    }

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
    fn build_over_the_reference_graph_is_the_same_index() {
        // random rows, and every row three times (exact ties everywhere)
        for (n, copies) in [(700usize, 1usize), (900, 3)] {
            let base = random_set(n / copies, 16, 31);
            let mut data = VectorSet::new(16);
            for i in 0..n {
                data.push(base.get(i % base.len()));
            }
            let config = HnswPqConfig {
                hnsw: HnswConfig { m: 6, ef_construction: 32, ef_search: 32, seed: 3 },
                pq: PqConfig { m: 4, ks: 16, kmeans_iters: 5, seed: 3 },
            };
            let fast = HnswPqIndex::build(&data, config);
            let slow = HnswPqIndex::from_graph(HnswIndex::build_batched_reference(data.clone(), config.hnsw), config.pq);
            assert_eq!(fast.orig, slow.orig, "copies {copies}");
            assert_eq!(fast.rows.as_slice(), slow.rows.as_slice(), "copies {copies}");
            assert_eq!(fast.upper, slow.upper, "copies {copies}");
            assert_eq!(fast.max_level, slow.max_level, "copies {copies}");
            // the pooled block encode is the per-row encode, in BFS order
            let per_row: Vec<u8> =
                fast.orig.iter().flat_map(|&old| fast.quantizer.encode(data.get(old as usize))).collect();
            assert_eq!(fast.codes, per_row, "copies {copies}");
            assert_eq!(fast.codes, slow.codes, "copies {copies}");
        }
    }

    fn fixture_config() -> HnswPqConfig {
        // quantized traversal needs a wider beam than exact HNSW: the
        // ADC estimate mis-ranks near-ties, and the re-rank can only fix
        // what the frontier contains
        HnswPqConfig {
            hnsw: HnswConfig { ef_search: 96, ..HnswConfig::default() },
            pq: PqConfig { m: 4, ks: 16, kmeans_iters: 10, seed: 0 },
        }
    }

    /// `‖s‖` of the grid the re-rank store must have laid over `data`,
    /// worked out here from the rows: `s_j` = 1/255 of dimension `j`'s
    /// range.
    fn grid_step_norm(data: &VectorSet) -> f32 {
        let mut norm_sq = 0.0f32;
        for j in 0..data.dim() {
            let (lo, hi) = data.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), v| (lo.min(v[j]), hi.max(v[j])));
            norm_sq += ((hi - lo) / 255.0).powi(2);
        }
        norm_sq.sqrt()
    }

    /// How far a reported distance may lie from the true squared distance
    /// `d` (the bound documented at [`HnswPqIndex::search`]), with 1 % for
    /// the float arithmetic on both sides.
    fn estimate_bound(d: f32, step_norm: f32) -> f32 {
        1.01 * (d.sqrt() * step_norm + step_norm * step_norm / 4.0) + 1e-6
    }

    #[test]
    fn finds_self_as_nearest_within_the_store_bound() {
        let data = random_set(600, 16, 1);
        let idx = HnswPqIndex::build(&data, fixture_config());
        let step_norm = grid_step_norm(&data);
        for i in (0..600).step_by(53) {
            let hits = idx.search(data.get(i), 1);
            assert_eq!(hits[0].index, i, "vector {i} did not find itself");
            // not 0.0 any more: the row is held on an 8-bit grid
            assert!(hits[0].dist <= estimate_bound(0.0, step_norm), "self-distance {} of vector {i}", hits[0].dist);
        }
    }

    #[test]
    fn recall_at_10_regression_on_600_entity_fixture() {
        // the seeded 600-entity fixture of the acceptance criteria:
        // ADC-guided traversal + 8-bit re-rank must stay close to flat
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
    fn nbytes_accounts_for_codes_graph_and_rerank_rows() {
        let data = random_set(400, 16, 8);
        let idx = HnswPqIndex::build(&data, fixture_config());
        // the traversal footprint (codes + graph) must be non-trivial, and
        // the re-rank store is a byte a dimension plus its grid — a
        // quarter of the raw rows, which are no longer held
        assert!(idx.traversal_nbytes() >= 400 * 4, "codes missing from accounting");
        assert_eq!(idx.nbytes() - idx.traversal_nbytes(), 400 * 16 + 16 * 8);
        assert!(idx.nbytes() - idx.traversal_nbytes() < data.nbytes() / 3);
        // codes + codebooks + (id map + n rows of 2m ids) + upper links + re-rank store
        let two_m = 2 * fixture_config().hnsw.m;
        let upper: usize = idx.upper.iter().flat_map(|(_, layers)| layers).map(Vec::len).sum();
        let pq = fixture_config().pq;
        assert_eq!(
            idx.nbytes(),
            400 * pq.m + idx.quantizer.codebook_nbytes() + (400 + 400 * two_m) * 4 + upper * 4 + 400 * 16 + 16 * 8
        );
    }

    /// Runs the index against `search_reference` on `queries` at every
    /// `k` of `ks`: equal hits, visited count and pool, and no padding id
    /// in any of them.
    fn assert_matches_the_reference(idx: &HnswPqIndex, data: &VectorSet, queries: &VectorSet, ks: &[usize], case: &str) {
        let n = idx.len();
        for &k in ks {
            for q in queries.iter() {
                let case = format!("{case} k {k}");
                let (want, visited, mut pool) = idx.search_reference(data, q, k);
                let (got, got_visited, mut got_pool) = idx.search_exact(data, q, k);
                assert_eq!(got_visited, visited, "{case}: visited counts differ");
                assert!(got_visited as usize <= n, "{case}: {got_visited} visited of {n} nodes");
                pool.sort_unstable();
                got_pool.sort_unstable();
                assert!(got_pool == pool, "{case}: pools differ");
                assert!(got_pool.iter().all(|&id| id < n), "{case}: padding id in the pool");
                assert_same_hits(&got, &want, &case);
                let run = idx.search(q, k);
                assert_eq!(run.len(), k.min(n), "{case}");
                assert!(run.iter().chain(&got).all(|h| h.index < n), "{case}: padding id in the hits");
            }
        }
    }

    #[test]
    fn padded_rows_search_like_the_reference() {
        // every graph of at most 2m nodes pads every row; at 2m + 1 a node
        // may link to all others
        let config = |n: usize| HnswPqConfig {
            hnsw: HnswConfig::default(),
            pq: PqConfig { m: 4, ks: n.min(16), kmeans_iters: 4, seed: 0 },
        };
        let two_m = 2 * HnswConfig::default().m;
        for n in [1usize, 2, 5, two_m, two_m + 1] {
            let data = random_set(n, 16, 50 + n as u64);
            let idx = HnswPqIndex::build(&data, config(n));
            assert_eq!(idx.width, two_m);
            if n <= two_m {
                assert!((0..n as u32).all(|i| idx.row(i).contains(&(n as u32))), "n {n}: a row without padding");
            }
            let mut queries = random_set(6, 16, 60 + n as u64);
            queries.push(data.get(n - 1));
            assert_matches_the_reference(&idx, &data, &queries, &[1, 10, n], &format!("n {n}"));
        }
    }

    #[test]
    fn full_rows_search_like_the_reference() {
        // 2 000 rows in 20 tight clusters: every node fills its 2m links
        let centres = random_set(20, 16, 70);
        let mut rng = StdRng::seed_from_u64(71);
        let mut data = VectorSet::new(16);
        for i in 0..2_000 {
            let v: Vec<f32> = centres.get(i % 20).iter().map(|&c| c + rng.gen_range(-0.05..0.05)).collect();
            data.push(&v);
        }
        let idx = HnswPqIndex::build(&data, oracle_config());
        assert!(idx.rows.as_slice().iter().all(|&p| (p as usize) < 2_000), "a padded row");
        let mut queries = random_set(12, 16, 72);
        for i in (0..2_000).step_by(400) {
            queries.push(data.get(i));
        }
        assert_matches_the_reference(&idx, &data, &queries, &[1, 10, 2_000], "clustered");
    }

    /// `ks = 256` so the traversal takes the SIMD arm of `adc_gather`
    /// where there is one, and so that no two of a few thousand random
    /// vectors share a code: ADC distances are tie-free.
    fn oracle_config() -> HnswPqConfig {
        HnswPqConfig {
            hnsw: HnswConfig::default(),
            pq: PqConfig { m: 8, ks: 256, kmeans_iters: 4, seed: 0 },
        }
    }

    /// Same hits up to what no search defines: distance lists equal to the
    /// bit, ids equal wherever a distance differs from both its neighbours
    /// (inside a run of equal exact distances the order is the re-rank's
    /// arrival order, which is not part of the contract).
    fn assert_same_hits(got: &[Neighbor], want: &[Neighbor], case: &str) {
        let bits = |hits: &[Neighbor]| hits.iter().map(|h| h.dist.to_bits()).collect::<Vec<u32>>();
        let d = bits(got);
        assert!(d == bits(want), "{case}: distance lists differ");
        for i in 0..d.len() {
            let alone = (i == 0 || d[i - 1] != d[i]) && d.get(i + 1) != Some(&d[i]);
            assert!(!alone || got[i].index == want[i].index, "{case}: ids differ at rank {i}");
        }
    }

    #[test]
    fn sq8_rerank_reads_the_pool_the_exact_rerank_read() {
        // The traversal is the reference's: on tie-free data it visits as
        // many nodes and hands its re-rank the same pool, so under the
        // reference's exact re-rank it returns the reference's hits.
        for (n, dim, seed) in [(2_000usize, 16usize, 20u64), (3_000, 64, 21)] {
            let data = random_set(n, dim, seed);
            let mut idx = HnswPqIndex::build(&data, oracle_config());
            let mut queries = random_set(24, dim, seed + 100);
            for i in (0..n).step_by(n / 6) {
                queries.push(data.get(i));
            }
            // `R > ef` at (8, 10), (8, 40), (64, 40); `R == ef` elsewhere
            for ef_search in [8usize, 64] {
                idx.ef_search = ef_search;
                for k in [1usize, 10, 40, n + 5] {
                    let case = format!("n {n} dim {dim} ef {ef_search} k {k}");
                    for q in queries.iter() {
                        let (want, visited, mut pool) = idx.search_reference(&data, q, k);
                        let (got, got_visited, mut got_pool) = idx.search_exact(&data, q, k);
                        assert_eq!(got_visited, visited, "{case}: visited sets differ");
                        pool.sort_unstable();
                        got_pool.sort_unstable();
                        assert!(got_pool == pool, "{case}: pools differ");
                        assert_eq!(got.len(), k.min(n), "{case}");
                        // a short list of random distances has no ties:
                        // there the id lists are equal outright
                        assert!(k > 40 || got == want, "{case}: hits differ");
                        assert_same_hits(&got, &want, &case);
                    }
                    for threads in [1usize, 4] {
                        let batch = idx.search_batch(&queries, k, threads);
                        for (q, got) in queries.iter().zip(&batch) {
                            assert!(got == &idx.search(q, k), "{case}: batch at {threads} threads != single");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sq8_distances_stay_inside_their_bound() {
        // tie-free rows, and every row three times over
        let base = random_set(400, 64, 41);
        let mut tripled = VectorSet::new(64);
        for i in 0..1_200 {
            tripled.push(base.get(i % 400));
        }
        for (data, what) in [(random_set(3_000, 64, 40), "random"), (tripled, "tripled")] {
            let idx = HnswPqIndex::build(&data, oracle_config());
            let step_norm = grid_step_norm(&data);
            let mut queries = random_set(40, 64, 42);
            for i in (0..data.len()).step_by(data.len() / 6) {
                queries.push(data.get(i));
            }
            let (mut kept, mut asked) = (0usize, 0usize);
            for q in queries.iter() {
                let got = idx.search(q, 10);
                assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist), "{what}: not ascending");
                for h in &got {
                    let d = kernels::sq_l2(q, data.get(h.index));
                    let off = (h.dist - d).abs();
                    assert!(off <= estimate_bound(d, step_norm), "{what}: reported {} for a true {d}", h.dist);
                }
                // overlap@10 with the exact re-rank of the same pool, by
                // distance: which of three equal copies comes back is
                // arbitrary on both sides
                let (exact, _, _) = idx.search_exact(&data, q, 10);
                let kth = exact[exact.len() - 1].dist;
                kept += got.iter().filter(|h| kernels::sq_l2(q, data.get(h.index)) <= kth).count();
                asked += exact.len();
            }
            assert!(kept * 100 >= asked * 95, "{what}: overlap@10 with the exact re-rank {kept}/{asked}");
        }
    }

    #[test]
    fn one_buffer_beam_keeps_the_search_under_exact_ties() {
        // Every vector three times over — the KGs' duplicate labels: equal
        // ADC keys and equal exact distances everywhere. Which of three
        // equal keys a heap surfaces is arbitrary and a sorted buffer
        // takes them in arrival order (and the heaps still expand a copy
        // that ties with the beam's worst after it fell out of the beam,
        // the buffer does not), so the routes differ, and at a beam narrow
        // enough for one copy to decide what is found so may the answers
        // (on this data: 1 search in 240, at `ef = 10`). What must hold is
        // that this stays rare and costs no recall. Both sides re-rank
        // exactly here: the beams are what is compared.
        let base = random_set(400, 16, 30);
        let mut data = VectorSet::new(16);
        for i in 0..1_200 {
            data.push(base.get(i % 400));
        }
        // which copy comes back is arbitrary on both sides: ids are
        // compared as "copy of base vector"
        let copy_of = |hits: Vec<Neighbor>| -> Vec<Neighbor> {
            hits.into_iter().map(|h| Neighbor { index: h.index % 400, ..h }).collect()
        };
        let flat = FlatIndex::new(data.clone());
        let mut idx = HnswPqIndex::build(&data, oracle_config());
        let queries = random_set(40, 16, 31);
        let (mut searches, mut parted) = (0usize, 0usize);
        let (mut found, mut found_ref) = (0usize, 0usize);
        for ef_search in [8usize, 64] {
            idx.ef_search = ef_search;
            for k in [1usize, 10, 40] {
                for q in queries.iter() {
                    let got = copy_of(idx.search_exact(&data, q, k).0);
                    let want = copy_of(idx.search_reference(&data, q, k).0);
                    searches += 1;
                    if got.iter().map(|h| h.dist.to_bits()).eq(want.iter().map(|h| h.dist.to_bits())) {
                        assert_same_hits(&got, &want, &format!("ef {ef_search} k {k}"));
                    } else {
                        parted += 1;
                    }
                    // recall by distance, for the same reason
                    let truth = flat.search(q, k);
                    let kth = truth[truth.len() - 1].dist;
                    found += got.iter().filter(|h| h.dist <= kth).count();
                    found_ref += want.iter().filter(|h| h.dist <= kth).count();
                }
            }
        }
        assert!(parted * 50 <= searches, "{parted} of {searches} searches returned other distances");
        assert!(found * 200 >= found_ref * 199, "recall {found} against the reference's {found_ref}");
    }

    #[test]
    fn beam_buffer_orders_admits_and_expands_like_the_heaps() {
        let ids = |b: &Beam| b.pool().collect::<Vec<u32>>();

        // the cursor is lowered by an insert below it
        let mut cands = Vec::new();
        let mut beam = Beam::start(&mut cands, 4, 4, 5.0, 0);
        assert_eq!(beam.next_unexpanded(), Some(0));
        assert_eq!(beam.offer(7.0, 1), Some(1));
        assert_eq!(beam.offer(6.0, 2), Some(1), "admitted at the rank it was inserted at");
        assert_eq!(beam.next_unexpanded(), Some(2));
        assert_eq!(beam.cursor, 1);
        assert_eq!(beam.offer(1.0, 3), Some(0));
        assert_eq!(beam.cursor, 0);
        assert_eq!(ids(&beam), [3, 0, 2, 1]);
        assert_eq!(beam.next_unexpanded(), Some(3));
        assert_eq!(beam.next_unexpanded(), Some(1), "expanded entries are skipped, not re-expanded");
        assert_eq!(beam.next_unexpanded(), None);

        // a full buffer rejects an equal key and drops its last entry for
        // a nearer one; equal keys below the last keep arrival order
        assert_eq!(beam.offer(7.0, 4), None, "rejected");
        assert_eq!(ids(&beam), [3, 0, 2, 1]);
        assert_eq!(beam.offer(5.0, 5), Some(2), "after the equal key already there");
        assert_eq!(ids(&beam), [3, 0, 5, 2]);

        // an entry pushed past rank `ef` is pool, never beam again
        let mut cands = Vec::new();
        let mut beam = Beam::start(&mut cands, 2, 4, 5.0, 0);
        beam.offer(6.0, 1);
        beam.offer(7.0, 2);
        assert_eq!(beam.next_unexpanded(), Some(0));
        beam.offer(4.0, 3); // pushes the unexpanded 1 from rank 1 to rank 2
        assert_eq!(ids(&beam), [3, 0, 1, 2]);
        assert_eq!(beam.next_unexpanded(), Some(3));
        assert_eq!(beam.next_unexpanded(), None, "rank 2 is outside a beam of 2");

        // fewer candidates than the beam is wide: all expanded, all pooled
        let mut cands = Vec::new();
        let mut beam = Beam::start(&mut cands, 10, 40, 2.0, 7);
        beam.offer(1.0, 8);
        assert_eq!(beam.next_unexpanded(), Some(8));
        assert_eq!(beam.next_unexpanded(), Some(7));
        assert_eq!(beam.next_unexpanded(), None);
        assert_eq!(ids(&beam), [8, 7]);
    }
}
