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
//!
//! # Build
//!
//! Nodes are inserted in deterministic batches (after ParlayANN's
//! batched insertion). Levels are drawn in id order; a batch is the next
//! run of ids, at most `BATCH_CAP` and at most as many as the graph
//! already holds, ended before any node that would raise the top layer —
//! that node goes alone, so the entry point moves when it would one node
//! at a time. Phase 1 plans each batch node (descent, layer searches, its
//! own lists) against the graph as the batch found it, nodes in parallel;
//! phase 2 groups the reverse edges by the list they go to, in node
//! order, and each touched list takes its group and is re-pruned once,
//! lists in parallel. The graph is a function of the vectors and the
//! config alone, at any pool width. It is, link for link, what the
//! textbook pieces build on that schedule (the `#[cfg(test)]` oracle
//! `build_batched_reference`, pinned by `build_is_the_reference_graph`),
//! and at batches of one it is the textbook insertion loop
//! (`build_reference`, pinned by
//! `one_node_batches_are_the_serial_reference_graph`). DESIGN.md §10
//! *Build* has the argument. What the `Builder` drops is work whose
//! result is already known:
//!
//! * one `SearchScratch` per thread and one `Selection` per pool chunk —
//!   visited nodes are an epoch-stamped array, not a hash set, and both
//!   heaps and every list the selection works in are cleared, not
//!   re-allocated;
//! * every edge remembers its length. `sq_l2` is bitwise symmetric, so the
//!   distance the inserting search measured from the new node to a peer
//!   *is* the distance a re-prune of that peer's list would measure back;
//! * a list remembers how its last selection went: its ids are stored
//!   kept-first, backfilled next, pushed-since last (`ListMemo`), and a
//!   re-prune re-evaluates only the dominance checks a new edge can have
//!   changed (see `Selection::run`).
//!
//! Phase 1's searches and query-time searches share that per-thread
//! scratch.

use crate::index::AnnIndex;
use crate::kernels::sq_l2;
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;
use emblookup_obs::names;
use emblookup_pool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

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

/// `links[node][layer]` = neighbour ids.
pub(crate) type Links = Vec<Vec<Vec<u32>>>;

/// An HNSW graph over a vector collection.
pub struct HnswIndex {
    vectors: VectorSet,
    links: Links,
    entry: u32,
    max_level: usize,
    config: HnswConfig,
}

/// Working memory of [`search_layer`], reused from one search to the next
/// on its thread — by the build's phase 1 and at query time. A search
/// starts by clearing it, so reuse cannot affect results.
#[derive(Default)]
struct SearchScratch {
    /// `stamps[v] == epoch` ⇔ node `v` was reached by the current search.
    stamps: Vec<u32>,
    epoch: u32,
    frontier: BinaryHeap<Near>,
    results: BinaryHeap<Far>,
    /// What the last search found: up to `ef` nearest, ascending.
    found: Vec<(f32, u32)>,
}

impl SearchScratch {
    /// Starts a search over `n` nodes with nothing visited: a new epoch
    /// instead of a cleared array (cleared only when the epoch wraps).
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.frontier.clear();
        self.results.clear();
    }
}

std::thread_local! {
    /// Searches on this thread — the caller's, or a pool worker's under
    /// `search_batch` or a build's phase 1 — share one scratch.
    static SCRATCH: std::cell::RefCell<SearchScratch> = std::cell::RefCell::new(SearchScratch::default());
}

/// Neighbours of `node` on `layer`, none when it does not reach it.
#[inline]
fn peers(links: &Links, node: u32, layer: usize) -> &[u32] {
    links[node as usize].get(layer).map_or(&[], Vec::as_slice)
}

/// One greedy hop-to-local-minimum pass on a layer.
fn greedy_step(vectors: &VectorSet, links: &Links, query: &[f32], start: u32, layer: usize) -> u32 {
    let mut current = start;
    let mut best = sq_l2(query, vectors.get(current as usize));
    loop {
        let mut improved = false;
        for &peer in peers(links, current, layer) {
            let d = sq_l2(query, vectors.get(peer as usize));
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

/// Beam search on one layer: leaves up to `ef` nearest in `s.found`
/// (ascending, equal distances in the results heap's order) and returns
/// the number of distinct nodes visited.
fn search_layer(
    vectors: &VectorSet,
    links: &Links,
    query: &[f32],
    start: u32,
    layer: usize,
    ef: usize,
    s: &mut SearchScratch,
) -> usize {
    s.begin(vectors.len());
    let epoch = s.epoch;
    let d0 = sq_l2(query, vectors.get(start as usize));
    s.stamps[start as usize] = epoch;
    let mut visited = 1;
    s.frontier.push(Near(d0, start));
    s.results.push(Far(d0, start));

    while let Some(Near(d, node)) = s.frontier.pop() {
        let worst = s.results.peek().map_or(f32::INFINITY, |f| f.0);
        if d > worst && s.results.len() >= ef {
            break;
        }
        for &peer in peers(links, node, layer) {
            if std::mem::replace(&mut s.stamps[peer as usize], epoch) == epoch {
                continue;
            }
            visited += 1;
            let dp = sq_l2(query, vectors.get(peer as usize));
            let worst = s.results.peek().map_or(f32::INFINITY, |f| f.0);
            if s.results.len() < ef || dp < worst {
                s.frontier.push(Near(dp, peer));
                s.results.push(Far(dp, peer));
                if s.results.len() > ef {
                    s.results.pop();
                }
            }
        }
    }
    s.found.clear();
    s.found.extend(s.results.drain().map(|Far(d, n)| (d, n)));
    s.found.sort_by(|a, b| a.0.total_cmp(&b.0));
    visited
}

/// How an edge came to be in its list, as far as the list's last
/// selection is concerned.
#[derive(Clone, Copy, PartialEq)]
enum Origin {
    /// Passed the diversity check of the last selection.
    Kept,
    /// Failed it — some kept edge dominates this one — and was taken back
    /// to fill the list.
    Backfilled,
    /// Pushed since; no selection has seen it.
    New,
}

/// What the build remembers about one neighbour list beside its ids. The
/// ids are stored in selection order, so an edge's [`Origin`] is its
/// position: the first `kept` were kept (ascending by distance), those up
/// to `selected` backfilled (ascending too), the rest pushed since.
#[derive(Clone, Default)]
struct ListMemo {
    /// Distance from the list's owner to each neighbour, parallel to the
    /// ids.
    dists: Vec<f32>,
    kept: usize,
    selected: usize,
}

impl ListMemo {
    fn origin(&self, position: usize) -> Origin {
        if position < self.kept {
            Origin::Kept
        } else if position < self.selected {
            Origin::Backfilled
        } else {
            Origin::New
        }
    }
}

/// Most nodes one batch inserts against one state of the graph.
const BATCH_CAP: usize = 256;

/// Least number of touched lists worth a pool task in phase 2: a re-prune
/// costs a few microseconds, a task's wake-ups tens.
const RELINK_GRAIN: usize = 32;

/// Every list a neighbour selection works in.
#[derive(Default)]
struct Selection {
    /// Input of [`Selection::run`].
    scored: Vec<(f32, u32, Origin)>,
    kept: Vec<(f32, u32, Origin)>,
    skipped: Vec<(f32, u32, Origin)>,
}

impl Selection {
    /// Neighbour-selection heuristic (Malkov & Yashunin, Algorithm 4)
    /// over `self.scored`, written to `ids` and `memo` with at most `cap`
    /// edges: candidates arrive scored by distance to the list's owner,
    /// are taken in ascending order, and are kept only when closer to the
    /// owner than to every already-kept neighbour, so each kept edge
    /// covers a distinct direction. Skipped candidates backfill remaining
    /// capacity (`keepPrunedConnections`), keeping degree — and therefore
    /// graph connectivity — high. Ids in `scored` are distinct.
    ///
    /// A candidate's [`Origin`] says which of its checks the list's last
    /// selection already made. Until this walk demotes an edge that
    /// selection kept, the kept set is the old kept edges walked so far
    /// plus new ones, so: a backfilled edge is still dominated (by the
    /// same kept edge, which sorts before it now as it did then); a kept
    /// edge can only be dominated by a *new* one; a new edge gets every
    /// check. After the first demotion everything does. Every answer is
    /// the one the full check would give.
    fn run(&mut self, vectors: &VectorSet, cap: usize, ids: &mut Vec<u32>, memo: &mut ListMemo) {
        // stable: equal distances stay kept-, backfilled-, new-first
        self.scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.kept.clear();
        self.skipped.clear();
        let mut memo_holds = true;
        for &(d, c, origin) in &self.scored {
            if self.kept.len() >= cap {
                break;
            }
            let cv = vectors.get(c as usize);
            let dominated = (memo_holds && origin == Origin::Backfilled)
                || self.kept.iter().any(|&(_, k, kept_origin)| {
                    (!memo_holds || origin == Origin::New || kept_origin == Origin::New)
                        && sq_l2(cv, vectors.get(k as usize)) < d
                });
            if dominated {
                memo_holds &= origin != Origin::Kept;
                self.skipped.push((d, c, origin));
            } else {
                self.kept.push((d, c, origin));
            }
        }
        let backfill = (cap - self.kept.len()).min(self.skipped.len());
        ids.clear();
        memo.dists.clear();
        for &(d, p, _) in self.kept.iter().chain(&self.skipped[..backfill]) {
            ids.push(p);
            memo.dists.push(d);
        }
        memo.kept = self.kept.len();
        memo.selected = ids.len();
    }
}

/// One new node's lists as phase 1 selected them, indexed by layer.
type Plan = Vec<(Vec<u32>, ListMemo)>;

/// The reverse edge `peer → node` on `layer`, of length `d`, waiting for
/// phase 2.
struct Edge {
    peer: u32,
    layer: usize,
    node: u32,
    d: f32,
}

/// The graph under construction: the links as the finished index holds
/// them and what each list remembers.
struct Builder<'a> {
    vectors: &'a VectorSet,
    config: HnswConfig,
    links: Links,
    /// `memo[node][layer]` describes `links[node][layer]`.
    memo: Vec<Vec<ListMemo>>,
    entry: u32,
    max_level: usize,
}

impl Builder<'_> {
    fn layer_cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Inserts the batch `nodes` in two phases. Phase 1 plans every node
    /// — greedy descent, layer searches, its own lists — against the
    /// graph as it stands, in parallel. Phase 2 adds the reverse edges:
    /// grouped by the list they go to, in node order, each touched list
    /// takes its group and is re-pruned once, lists in parallel, written
    /// back in order. Both phases read only what the batch found, so the
    /// graph is the same at any pool width.
    fn insert_batch(&mut self, pool: &Pool, nodes: Range<u32>, levels: &[usize]) {
        let plans = pool.parallel_map_with(nodes.len(), 1, Selection::default, |selection, i| {
            let node = nodes.start + i as u32;
            SCRATCH.with(|search| self.plan(node, levels[node as usize], &mut search.borrow_mut(), selection))
        });
        let mut edges = Vec::new();
        for (node, plan) in nodes.zip(plans) {
            for (layer, (ids, memo)) in plan.into_iter().enumerate() {
                edges.extend(ids.iter().zip(&memo.dists).map(|(&peer, &d)| Edge { peer, layer, node, d }));
                self.links[node as usize][layer] = ids;
                self.memo[node as usize][layer] = memo;
            }
        }
        // stable: a list's group stays in node order
        edges.sort_by_key(|e| (e.peer, e.layer));
        let groups: Vec<&[Edge]> = edges.chunk_by(|a, b| (a.peer, a.layer) == (b.peer, b.layer)).collect();
        let pruned =
            pool.parallel_map_with(groups.len(), RELINK_GRAIN, Selection::default, |selection, g| {
                self.relink(groups[g], selection)
            });
        for (group, list) in groups.into_iter().zip(pruned) {
            let (peer, layer) = (group[0].peer as usize, group[0].layer);
            let (ids, memo) = (&mut self.links[peer][layer], &mut self.memo[peer][layer]);
            match list {
                Some((pruned_ids, pruned_memo)) => {
                    *ids = pruned_ids;
                    *memo = pruned_memo;
                }
                None => {
                    for e in group {
                        ids.push(e.node);
                        memo.dists.push(e.d);
                    }
                }
            }
        }
    }

    /// Phase 1 for one node: its lists on every layer it shares with the
    /// graph, selected from what the layer searches find.
    fn plan(&self, node: u32, level: usize, search: &mut SearchScratch, selection: &mut Selection) -> Plan {
        let vectors = self.vectors;
        let query = vectors.get(node as usize);
        let mut current = self.entry;
        // greedy descent through layers above the node's level
        let top = self.max_level;
        for layer in ((level + 1)..=top).rev() {
            current = greedy_step(vectors, &self.links, query, current, layer);
        }
        // beam search + selection on layers min(level, top)..=0
        let mut plan: Plan = vec![(Vec::new(), ListMemo::default()); level.min(top) + 1];
        for layer in (0..=level.min(top)).rev() {
            search_layer(vectors, &self.links, query, current, layer, self.config.ef_construction, search);
            selection.scored.clear();
            selection.scored.extend(search.found.iter().map(|&(d, p)| (d, p, Origin::New)));
            let (ids, memo) = &mut plan[layer];
            selection.run(vectors, self.layer_cap(layer), ids, memo);
            if let Some(&(_, best)) = search.found.first() {
                current = best;
            }
        }
        plan
    }

    /// Phase 2 for one list: the edges `group` adds to it (one list's, in
    /// node order; each edge's length was measured from its node, which
    /// is the same number), re-pruned once to the list's cap with the
    /// diversity heuristic. `None` when they fit: they are pushed as
    /// they are.
    fn relink(&self, group: &[Edge], selection: &mut Selection) -> Option<(Vec<u32>, ListMemo)> {
        let (peer, layer) = (group[0].peer as usize, group[0].layer);
        let (ids, memo) = (&self.links[peer][layer], &self.memo[peer][layer]);
        let cap = self.layer_cap(layer);
        if ids.len() + group.len() <= cap {
            return None;
        }
        selection.scored.clear();
        for (position, (&p, &dp)) in ids.iter().zip(&memo.dists).enumerate() {
            selection.scored.push((dp, p, memo.origin(position)));
        }
        selection.scored.extend(group.iter().map(|e| (e.d, e.node, Origin::New)));
        let mut pruned = (Vec::with_capacity(cap), ListMemo::default());
        selection.run(self.vectors, cap, &mut pruned.0, &mut pruned.1);
        Some(pruned)
    }
}

impl HnswIndex {
    /// Builds the graph by inserting every vector, in batches on the
    /// global pool.
    ///
    /// # Panics
    /// Panics on an empty collection or zero `m`.
    pub fn build(vectors: VectorSet, config: HnswConfig) -> Self {
        Self::build_in_batches(vectors, config, BATCH_CAP, Pool::global())
    }

    /// The build with batches of at most `cap` nodes; at `cap = 1` it is
    /// the one-node-at-a-time insertion loop.
    fn build_in_batches(vectors: VectorSet, config: HnswConfig, cap: usize, pool: &Pool) -> Self {
        assert!(!vectors.is_empty(), "HNSW over empty data");
        assert!(config.m >= 1, "HNSW m must be >= 1");
        let n = vectors.len();
        let _span = emblookup_obs::Span::enter(names::INDEX_BUILD_GRAPH);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let level_mult = 1.0 / (config.m as f64).ln().max(0.1);
        // node 0 seeds the graph at level 0; the rest draw in id order
        let levels: Vec<usize> = std::iter::once(0)
            .chain((1..n).map(|_| ((-rng.gen_range(f64::EPSILON..1.0).ln()) * level_mult) as usize))
            .collect();

        let mut builder = Builder {
            vectors: &vectors,
            config,
            links: levels.iter().map(|&level| vec![Vec::new(); level + 1]).collect(),
            memo: levels.iter().map(|&level| vec![ListMemo::default(); level + 1]).collect(),
            entry: 0,
            max_level: 0,
        };
        let mut next = 1;
        while next < n {
            // a node that raises the top layer goes alone, so the entry
            // point moves when it would one node at a time
            let raises = levels[next] > builder.max_level;
            let end = if raises {
                next + 1
            } else {
                let limit = n.min(next + cap.min(next));
                (next..limit).find(|&i| levels[i] > builder.max_level).unwrap_or(limit)
            };
            builder.insert_batch(pool, next as u32..end as u32, &levels);
            if raises {
                builder.max_level = levels[next];
                builder.entry = next as u32;
            }
            next = end;
        }
        let Builder { links, entry, max_level, .. } = builder;
        HnswIndex { vectors, links, entry, max_level, config }
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
    pub(crate) fn into_parts(self) -> (VectorSet, Links, u32, usize, HnswConfig) {
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
            current = greedy_step(&self.vectors, &self.links, query, current, layer);
        }
        let ef = self.config.ef_search.max(k);
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let visited = search_layer(&self.vectors, &self.links, query, current, 0, ef, scratch);
            crate::metrics::hnsw_searches().inc();
            crate::metrics::hnsw_visited().add(visited as u64);
            // found may contain duplicates only if links were inconsistent;
            // TopK re-validation keeps the contract tight
            let mut tk = TopK::new(k);
            for &(dist, node) in scratch.found.iter().take(k) {
                tk.push(node as usize, dist);
            }
            (tk.into_sorted(), visited as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use std::collections::HashSet;

    /// The build as it was before the [`Builder`], kept as the oracle:
    /// a hash-set visited list and fresh heaps per search, every re-prune
    /// re-measuring every edge and re-running every dominance check.
    impl HnswIndex {
        pub(crate) fn build_reference(vectors: VectorSet, config: HnswConfig) -> Self {
            let n = vectors.len();
            let mut rng = StdRng::seed_from_u64(config.seed);
            let level_mult = 1.0 / (config.m as f64).ln().max(0.1);
            let mut index = HnswIndex { vectors, links: Vec::with_capacity(n), entry: 0, max_level: 0, config };
            index.links.push(vec![Vec::new()]);
            for node in 1..n as u32 {
                let level = ((-rng.gen_range(f64::EPSILON..1.0).ln()) * level_mult) as usize;
                index.insert_reference(node, level);
            }
            index
        }

        fn insert_reference(&mut self, node: u32, level: usize) {
            self.links.push(vec![Vec::new(); level + 1]);
            let query = self.vectors.get(node as usize).to_vec();
            let mut current = self.entry;
            let top = self.max_level;
            for layer in ((level + 1)..=top).rev() {
                current = greedy_step(&self.vectors, &self.links, &query, current, layer);
            }
            for layer in (0..=level.min(top)).rev() {
                let candidates =
                    self.search_layer_reference(&query, current, layer, self.config.ef_construction);
                let max_links = self.layer_cap_reference(layer);
                let selected = self.select_diverse_reference(candidates.clone(), max_links);
                for &peer in &selected {
                    self.links[node as usize][layer].push(peer);
                    self.links[peer as usize][layer].push(node);
                    self.prune_reference(peer, layer);
                }
                if let Some(&(_, best)) = candidates.first() {
                    current = best;
                }
            }
            if level > self.max_level {
                self.max_level = level;
                self.entry = node;
            }
        }

        /// The batched build's oracle, in the textbook pieces above: each
        /// batch's nodes are planned one after another against the graph
        /// as the batch found it, then every touched list takes its new
        /// edges in node order and is pruned once.
        pub(crate) fn build_batched_reference(vectors: VectorSet, config: HnswConfig) -> Self {
            let n = vectors.len();
            let mut rng = StdRng::seed_from_u64(config.seed);
            let level_mult = 1.0 / (config.m as f64).ln().max(0.1);
            let levels: Vec<usize> = std::iter::once(0)
                .chain((1..n).map(|_| ((-rng.gen_range(f64::EPSILON..1.0).ln()) * level_mult) as usize))
                .collect();
            let mut index = HnswIndex { vectors, links: Vec::with_capacity(n), entry: 0, max_level: 0, config };
            index.links.push(vec![Vec::new()]);
            let mut next = 1;
            while next < n {
                let mut end = next + 1;
                if levels[next] <= index.max_level {
                    while end < n && end - next < BATCH_CAP.min(next) && levels[end] <= index.max_level {
                        end += 1;
                    }
                }
                // every plan is made before any list changes
                let plans: Vec<Vec<Vec<u32>>> = (next..end).map(|node| index.plan_reference(node, levels[node])).collect();
                let mut touched = Vec::new();
                for (node, plan) in (next..end).zip(plans) {
                    let mut lists = vec![Vec::new(); levels[node] + 1];
                    for (layer, selected) in plan.into_iter().enumerate() {
                        for &peer in &selected {
                            index.links[peer as usize][layer].push(node as u32);
                            touched.push((peer, layer));
                        }
                        lists[layer] = selected;
                    }
                    index.links.push(lists);
                }
                touched.sort_unstable();
                touched.dedup();
                for (peer, layer) in touched {
                    index.prune_reference(peer, layer);
                }
                if levels[next] > index.max_level {
                    index.max_level = levels[next];
                    index.entry = next as u32;
                }
                next = end;
            }
            index
        }

        /// One node's selected lists, indexed by layer, against the
        /// graph as it stands.
        fn plan_reference(&self, node: usize, level: usize) -> Vec<Vec<u32>> {
            let query = self.vectors.get(node);
            let mut current = self.entry;
            let top = self.max_level;
            for layer in ((level + 1)..=top).rev() {
                current = greedy_step(&self.vectors, &self.links, query, current, layer);
            }
            let mut plan = vec![Vec::new(); level.min(top) + 1];
            for layer in (0..=level.min(top)).rev() {
                let candidates = self.search_layer_reference(query, current, layer, self.config.ef_construction);
                plan[layer] = self.select_diverse_reference(candidates.clone(), self.layer_cap_reference(layer));
                if let Some(&(_, best)) = candidates.first() {
                    current = best;
                }
            }
            plan
        }

        fn layer_cap_reference(&self, layer: usize) -> usize {
            if layer == 0 {
                self.config.m * 2
            } else {
                self.config.m
            }
        }

        fn prune_reference(&mut self, node: u32, layer: usize) {
            let cap = self.layer_cap_reference(layer);
            if self.links[node as usize][layer].len() <= cap {
                return;
            }
            let base = self.vectors.get(node as usize).to_vec();
            let scored: Vec<(f32, u32)> = self.links[node as usize][layer]
                .iter()
                .map(|&p| (sq_l2(&base, self.vectors.get(p as usize)), p))
                .collect();
            self.links[node as usize][layer] = self.select_diverse_reference(scored, cap);
        }

        fn select_diverse_reference(&self, mut scored: Vec<(f32, u32)>, cap: usize) -> Vec<u32> {
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

        fn search_layer_reference(&self, query: &[f32], start: u32, layer: usize, ef: usize) -> Vec<(f32, u32)> {
            let d0 = sq_l2(query, self.vectors.get(start as usize));
            let mut visited: HashSet<u32> = HashSet::from([start]);
            let mut frontier: BinaryHeap<Near> = BinaryHeap::from([Near(d0, start)]);
            let mut results: BinaryHeap<Far> = BinaryHeap::from([Far(d0, start)]);
            while let Some(Near(d, node)) = frontier.pop() {
                let worst = results.peek().map(|f| f.0).unwrap_or(f32::INFINITY);
                if d > worst && results.len() >= ef {
                    break;
                }
                for &peer in peers(&self.links, node, layer) {
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
            let mut out: Vec<(f32, u32)> = results.into_iter().map(|Far(d, n)| (d, n)).collect();
            out.sort_by(|a, b| a.0.total_cmp(&b.0));
            out
        }
    }

    fn clustered_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let centres = random_set(8, dim, seed ^ 0xC1);
        let mut vs = VectorSet::new(dim);
        for _ in 0..n {
            let c = centres.get(rng.gen_range(0..8));
            let v: Vec<f32> = c.iter().map(|x| x + rng.gen_range(-0.05..0.05)).collect();
            vs.push(&v);
        }
        vs
    }

    /// Every vector three times over: duplicate labels are what the KGs have.
    fn tripled_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let base = random_set(n.div_ceil(3), dim, seed);
        let mut vs = VectorSet::new(dim);
        for i in 0..n {
            vs.push(base.get(i % base.len()));
        }
        vs
    }

    /// Coordinates from `{0, 0.5, 1}`: an exact distance tie at every decision.
    fn grid_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(0..3u32) as f32 * 0.5).collect();
            vs.push(&v);
        }
        vs
    }

    /// Every case of the identity tests: four kinds of data, five sizes,
    /// four list caps.
    fn for_each_case(mut check: impl FnMut(&str, VectorSet, HnswConfig)) {
        type Make = fn(usize, usize, u64) -> VectorSet;
        let sets: [(&str, Make); 4] =
            [("random", random_set), ("clustered", clustered_set), ("tripled", tripled_set), ("grid", grid_set)];
        for (name, make) in sets {
            for n in [1usize, 2, 33, 500, 3000] {
                for m in [1usize, 2, 4, 16] {
                    let data = make(n, 6, n as u64 + m as u64);
                    let config = HnswConfig { m, ef_construction: 24.max(2 * m), ef_search: 16, seed: 7 };
                    check(&format!("{name} n {n} m {m}"), data, config);
                }
            }
        }
    }

    fn assert_same_graph(fast: &HnswIndex, slow: &HnswIndex, case: &str) {
        assert_eq!(fast.entry, slow.entry, "{case}");
        assert_eq!(fast.max_level, slow.max_level, "{case}");
        assert!(fast.links == slow.links, "{case}: links differ");
    }

    #[test]
    fn build_is_the_reference_graph() {
        for_each_case(|case, data, config| {
            let fast = HnswIndex::build(data.clone(), config);
            assert_same_graph(&fast, &HnswIndex::build_batched_reference(data, config), case);
        });
    }

    #[test]
    fn one_node_batches_are_the_serial_reference_graph() {
        let pool = Pool::global();
        for_each_case(|case, data, config| {
            let fast = HnswIndex::build_in_batches(data.clone(), config, 1, pool);
            assert_same_graph(&fast, &HnswIndex::build_reference(data, config), case);
        });
    }

    #[test]
    fn build_is_the_same_graph_at_every_pool_width() {
        let data = clustered_set(3000, 6, 11);
        let config = HnswConfig { m: 4, ef_construction: 24, ef_search: 16, seed: 7 };
        let one = HnswIndex::build_in_batches(data.clone(), config, BATCH_CAP, &Pool::with_threads(1));
        for threads in [2, 4] {
            let wide = HnswIndex::build_in_batches(data.clone(), config, BATCH_CAP, &Pool::with_threads(threads));
            assert_same_graph(&wide, &one, &format!("{threads} threads"));
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
