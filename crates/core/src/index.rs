//! The entity embedding index (§III-C/D).
//!
//! Every entity's primary label is embedded once; lookups embed the query
//! and retrieve nearest neighbours from the exact flat index (EL-NC), a
//! product-quantized index (EL, 8 B/entity at defaults), a PCA-compressed
//! flat index (the Figure 5 alternative), or the PQ-fused HNSW graph the
//! served workloads run.

use crate::config::Compression;
use crate::model::EmbLookupModel;
use emblookup_ann::{
    AnnIndex, FlatIndex, HnswConfig, HnswPqConfig, HnswPqIndex, Neighbor, Pca, PqIndex, VectorSet,
};
use emblookup_kg::{EntityId, KnowledgeGraph};
use emblookup_obs::names;

/// Index over entity embeddings with one of the supported backends.
pub struct EntityIndex {
    ids: Vec<EntityId>,
    index: Box<dyn AnnIndex>,
    /// True when several rows map to one entity (alias indexing): results
    /// must then be deduplicated by entity.
    multi_row: bool,
}

/// Flat index over PCA-projected vectors; queries are projected on the
/// way in.
struct PcaFlat {
    pca: Pca,
    flat: FlatIndex,
}

impl AnnIndex for PcaFlat {
    fn name(&self) -> &'static str {
        "pca"
    }

    fn len(&self) -> usize {
        self.flat.len()
    }

    /// Projected vectors plus the mean/component rows needed to project
    /// queries.
    fn nbytes(&self) -> usize {
        self.flat.nbytes() + self.pca.nbytes()
    }

    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        self.flat.search_counted(&self.pca.project(query), k)
    }
}

/// The index rows of `kg` under `model`: one embedded label per entity,
/// plus — when the model indexes aliases (§III-C option: higher storage,
/// higher alias recall) — one row per alias mapping back to the same
/// entity id.
pub(crate) fn embed_rows(
    model: &EmbLookupModel,
    kg: &KnowledgeGraph,
    threads: usize,
) -> (Vec<EntityId>, VectorSet) {
    let mut labels: Vec<&str> = kg.entities().map(|e| e.label.as_str()).collect();
    let mut ids: Vec<EntityId> = kg.entities().map(|e| e.id).collect();
    if model.config().index_aliases {
        for e in kg.entities() {
            for alias in &e.aliases {
                labels.push(alias.as_str());
                ids.push(e.id);
            }
        }
    }
    let _span = emblookup_obs::Span::enter(names::INDEX_BUILD_EMBED);
    let mut vectors = VectorSet::new(model.dim());
    for v in &model.embed_batch(&labels, threads) {
        vectors.push(v);
    }
    (ids, vectors)
}

/// Sets the `index.entities` / `index.nbytes` gauges: the size of the
/// index a build just finished, whole or summed over its shards.
pub(crate) fn publish_size(rows: usize, nbytes: usize) {
    emblookup_obs::global().gauge(names::INDEX_ENTITIES).set(rows as f64);
    emblookup_obs::global().gauge(names::INDEX_NBYTES).set(nbytes as f64);
}

impl EntityIndex {
    /// Embeds every entity label with `model` and builds the index.
    ///
    /// `threads` parallelizes the bulk embedding step.
    ///
    /// # Panics
    /// Panics on an empty knowledge graph, or when a PQ configuration is
    /// incompatible with the model dimension.
    pub fn build(
        model: &EmbLookupModel,
        kg: &KnowledgeGraph,
        compression: Compression,
        threads: usize,
    ) -> Self {
        assert!(kg.num_entities() > 0, "indexing an empty knowledge graph");
        let _span = emblookup_obs::Span::enter(names::INDEX_BUILD);
        let (ids, vectors) = embed_rows(model, kg, threads);
        let index = Self::from_vectors(ids, vectors, compression);
        publish_size(index.len(), index.nbytes());
        index
    }

    /// Builds the index from precomputed embeddings (used by the benches
    /// to reuse one embedding pass across several compression settings).
    pub fn from_vectors(ids: Vec<EntityId>, vectors: VectorSet, compression: Compression) -> Self {
        assert_eq!(ids.len(), vectors.len(), "id/vector count mismatch");
        let multi_row = {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.windows(2).any(|w| w[0] == w[1])
        };
        let index: Box<dyn AnnIndex> = match compression {
            Compression::None => Box::new(FlatIndex::new(vectors)),
            Compression::Pq { m, ks } => {
                Box::new(PqIndex::build(&vectors, Compression::pq_config(m, ks, 0xC0DE)))
            }
            Compression::Pca { k } => {
                let pca = Pca::fit(&vectors, k, 0xC0DE);
                let flat = FlatIndex::new(pca.project_set(&vectors));
                Box::new(PcaFlat { pca, flat })
            }
            Compression::HnswPq { m, ef_search, pq_m, pq_ks } => Box::new(HnswPqIndex::build(
                &vectors,
                HnswPqConfig {
                    hnsw: HnswConfig {
                        m,
                        ef_search,
                        ef_construction: ef_search.max(2 * m),
                        seed: 0xC0DE,
                    },
                    pq: Compression::pq_config(pq_m, pq_ks, 0xC0DE),
                },
            )),
        };
        EntityIndex { ids, index, multi_row }
    }

    /// Number of indexed entities.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entities are indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Byte size of the stored index, matching the storage comparisons of
    /// the evaluation. Every backend reports its true footprint: payload
    /// vectors or codes plus whatever auxiliary structure queries need
    /// (codebooks, projection matrices, centroids, posting or neighbour
    /// lists).
    pub fn nbytes(&self) -> usize {
        self.index.nbytes()
    }

    /// Stable lower-case name of the active ANN backend.
    pub fn backend_name(&self) -> &'static str {
        self.index.name()
    }

    /// `k` nearest entities to a query embedding, ascending by distance.
    /// With alias indexing, an entity reachable through several rows is
    /// returned once at its best distance.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(EntityId, f32)> {
        self.search_counted(query, k).0
    }

    /// [`EntityIndex::search`] that also records the backend's name and
    /// visited count as `backend`/`visited` annotations on `span`.
    pub fn search_traced(
        &self,
        query: &[f32],
        k: usize,
        span: &emblookup_obs::TraceSpan,
    ) -> Vec<(EntityId, f32)> {
        let (hits, visited) = self.search_counted(query, k);
        span.annotate("backend", self.index.name());
        span.annotate("visited", visited);
        hits
    }

    fn search_counted(&self, query: &[f32], k: usize) -> (Vec<(EntityId, f32)>, u64) {
        let mut fetch = self.fetch(k);
        let mut visited = 0;
        loop {
            let (rows, more) = self.index.search_counted(query, fetch);
            visited += more;
            if let Some(hits) = self.settle(rows, fetch, k) {
                return (hits, visited);
            }
            fetch = fetch.saturating_mul(2);
        }
    }

    /// Batch search across `threads` threads.
    pub fn search_batch(
        &self,
        queries: &VectorSet,
        k: usize,
        threads: usize,
    ) -> Vec<Vec<(EntityId, f32)>> {
        let fetch = self.fetch(k);
        self.index
            .search_batch(queries, fetch, threads)
            .into_iter()
            .zip(queries.iter())
            .map(|(rows, query)| {
                self.settle(rows, fetch, k).unwrap_or_else(|| self.search_counted(query, k).0)
            })
            .collect()
    }

    /// Rows to fetch first for `k` entities: alias rows are over-fetched
    /// so that `k` distinct entities usually survive deduplication.
    fn fetch(&self, k: usize) -> usize {
        if self.multi_row {
            k.saturating_mul(3)
        } else {
            k
        }
    }

    /// The entities of `rows`, a search for `fetch` rows, or `None` when
    /// one entity's alias rows crowded others out: fewer than `k` distinct
    /// entities came back although the backend filled the fetch and some
    /// rows went unseen, so a wider fetch can find more.
    fn settle(&self, rows: Vec<Neighbor>, fetch: usize, k: usize) -> Option<Vec<(EntityId, f32)>> {
        let filled = rows.len() == fetch && fetch < self.ids.len();
        let hits = self.to_entities(rows, k);
        (hits.len() == k || !filled).then_some(hits)
    }

    /// Maps row hits to entities, keeping each entity's first (best) row.
    fn to_entities(&self, rows: Vec<Neighbor>, k: usize) -> Vec<(EntityId, f32)> {
        let mapped = rows.into_iter().map(|n| (self.ids[n.index], n.dist));
        if !self.multi_row {
            return mapped.collect();
        }
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(k.min(mapped.len()));
        for (id, d) in mapped {
            if seen.insert(id) {
                out.push((id, d));
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_vectors(n: usize, dim: usize) -> (Vec<EntityId>, VectorSet) {
        let mut vs = VectorSet::new(dim);
        let ids = (0..n as u32).map(EntityId).collect();
        for i in 0..n {
            // unique per-vector offset prevents accidental duplicates
            let v: Vec<f32> = (0..dim)
                .map(|j| ((i * 7 + j * 3) % 13) as f32 / 13.0 + i as f32 * 1e-3)
                .collect();
            vs.push(&v);
        }
        (ids, vs)
    }

    #[test]
    fn flat_index_returns_self_first() {
        let (ids, vs) = toy_vectors(50, 8);
        let q = vs.get(10).to_vec();
        let idx = EntityIndex::from_vectors(ids, vs, Compression::None);
        let hits = idx.search(&q, 3);
        assert_eq!(hits[0].0, EntityId(10));
        assert_eq!(hits[0].1, 0.0);
    }

    #[test]
    fn pq_index_is_much_smaller() {
        let (ids, vs) = toy_vectors(300, 64);
        let flat = EntityIndex::from_vectors(ids.clone(), vs.clone(), Compression::None);
        let pq = EntityIndex::from_vectors(ids, vs, Compression::Pq { m: 8, ks: 16 });
        assert_eq!(flat.nbytes(), 300 * 256);
        assert!(pq.nbytes() < flat.nbytes() / 4, "pq {} vs flat {}", pq.nbytes(), flat.nbytes());
    }

    #[test]
    fn pca_index_projects_queries() {
        let (ids, vs) = toy_vectors(80, 16);
        let q = vs.get(5).to_vec();
        let idx = EntityIndex::from_vectors(ids, vs, Compression::Pca { k: 4 });
        let hits = idx.search(&q, 5);
        assert_eq!(hits.len(), 5);
        // the query projects exactly onto its own stored projection
        assert!(hits[0].1 < 1e-6, "distance {}", hits[0].1);
        assert!(hits.iter().any(|&(id, _)| id == EntityId(5)));
    }

    #[test]
    fn batch_matches_single() {
        let (ids, vs) = toy_vectors(60, 8);
        let idx = EntityIndex::from_vectors(ids, vs.clone(), Compression::None);
        let mut queries = VectorSet::new(8);
        for i in 0..9 {
            queries.push(vs.get(i * 5));
        }
        let batch = idx.search_batch(&queries, 4, 3);
        for (i, hits) in batch.iter().enumerate() {
            let single = idx.search(queries.get(i), 4);
            assert_eq!(*hits, single);
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_ids_panic() {
        let (_, vs) = toy_vectors(10, 4);
        let _ = EntityIndex::from_vectors(vec![EntityId(0)], vs, Compression::None);
    }

    #[test]
    fn traced_and_batch_search_match_plain_search_on_every_backend() {
        use emblookup_obs::{AnnoValue, Trace, TraceClock};
        let compressions = [
            Compression::None,
            Compression::Pq { m: 4, ks: 16 },
            Compression::Pca { k: 4 },
            Compression::HnswPq { m: 8, ef_search: 64, pq_m: 4, pq_ks: 16 },
        ];
        for compression in compressions {
            // second pass: two rows per entity, the alias-indexed layout
            for multi_row in [false, true] {
                let (mut ids, vs) = toy_vectors(120, 8);
                if multi_row {
                    ids = (0..120u32).map(|i| EntityId(i / 2)).collect();
                }
                let q = vs.get(11).to_vec();
                let mut queries = VectorSet::new(8);
                for i in 0..9 {
                    queries.push(vs.get(i * 13));
                }
                let idx = EntityIndex::from_vectors(ids, vs, compression);
                let case = format!("backend {} multi_row {multi_row}", idx.backend_name());

                let trace = Trace::start(1, TraceClock::real());
                let root = trace.root(emblookup_obs::names::SPAN_STAGE_SEARCH);
                let traced = idx.search_traced(&q, 5, &root);
                assert_eq!(traced, idx.search(&q, 5), "{case}");
                root.finish();
                let data = trace.snapshot();
                assert_eq!(
                    data.root_annotation("backend"),
                    Some(AnnoValue::Str(idx.backend_name())),
                );
                assert!(
                    matches!(data.root_annotation("visited"), Some(AnnoValue::U64(v)) if v > 0),
                    "{case} must report visited > 0"
                );

                for threads in [1, 2] {
                    let batch = idx.search_batch(&queries, 5, threads);
                    assert_eq!(batch.len(), queries.len());
                    for (hits, query) in batch.iter().zip(queries.iter()) {
                        assert_eq!(*hits, idx.search(query, 5), "{case} threads {threads}");
                    }
                }

                // a `k` no index can fill is cut to what it holds — never
                // reserved, multiplied or added to as it stands
                for k in [121, 1 << 40, usize::MAX] {
                    let all = idx.search(&q, k);
                    assert_eq!(all.len(), if multi_row { 60 } else { 120 }, "{case} k {k}");
                    assert!(all.windows(2).all(|w| w[0].1 <= w[1].1), "{case} k {k}");
                }
            }
        }
    }
}

#[cfg(test)]
mod alias_index_tests {
    use super::*;

    #[test]
    fn duplicate_ids_are_deduped_in_search() {
        let mut vs = VectorSet::new(2);
        // entity 0 has two rows (label + alias), entity 1 has one
        vs.push(&[0.0, 0.0]);
        vs.push(&[0.1, 0.0]);
        vs.push(&[5.0, 5.0]);
        let ids = vec![EntityId(0), EntityId(0), EntityId(1)];
        let idx = EntityIndex::from_vectors(ids, vs, Compression::None);
        let hits = idx.search(&[0.05, 0.0], 3);
        // entity 0 appears once, at its best distance
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, EntityId(0));
        assert_eq!(hits[1].0, EntityId(1));
        let entities: Vec<EntityId> = hits.iter().map(|&(e, _)| e).collect();
        let mut dedup = entities.clone();
        dedup.dedup();
        assert_eq!(entities, dedup);
    }

    /// One entity with 40 rows nearest the query and 20 single-row
    /// entities behind it: the first fetch (3k rows) holds one entity, so
    /// the search widens until it has `k`.
    fn crowded(dim: usize) -> (Vec<EntityId>, VectorSet) {
        let mut vs = VectorSet::new(dim);
        let mut ids = Vec::new();
        for i in 0..60u32 {
            let (id, x) = if i < 40 { (0, i as f32 * 1e-3) } else { (i - 39, 1.0 + i as f32 * 0.1) };
            let mut v = vec![0.0; dim];
            v[0] = x;
            vs.push(&v);
            ids.push(EntityId(id));
        }
        (ids, vs)
    }

    #[test]
    fn alias_rows_do_not_crowd_out_entities() {
        let (ids, vs) = crowded(4);
        let mut queries = VectorSet::new(4);
        queries.push(&[0.0; 4]);
        for compression in [Compression::None, Compression::Pq { m: 2, ks: 16 }] {
            let idx = EntityIndex::from_vectors(ids.clone(), vs.clone(), compression);
            for k in [10, 21] {
                let hits = idx.search(&[0.0; 4], k);
                assert_eq!(hits.len(), k.min(21), "{} k {k}", idx.backend_name());
                assert_eq!(hits[0].0, EntityId(0), "{}", idx.backend_name());
                assert_eq!(idx.search_batch(&queries, k, 2)[0], hits, "{}", idx.backend_name());
            }
        }
    }

    #[test]
    fn batch_dedups_too() {
        let mut vs = VectorSet::new(2);
        vs.push(&[0.0, 0.0]);
        vs.push(&[0.1, 0.0]);
        vs.push(&[5.0, 5.0]);
        let ids = vec![EntityId(0), EntityId(0), EntityId(1)];
        let idx = EntityIndex::from_vectors(ids, vs, Compression::None);
        let mut queries = VectorSet::new(2);
        queries.push(&[0.0, 0.0]);
        let batch = idx.search_batch(&queries, 3, 2);
        assert_eq!(batch[0].len(), 2);
    }
}

#[cfg(test)]
mod hnswpq_backend_tests {
    use super::*;

    #[test]
    fn hnswpq_backend_finds_exact_matches() {
        let mut vs = VectorSet::new(4);
        let mut ids = Vec::new();
        for i in 0..200u32 {
            let f = i as f32;
            vs.push(&[f.sin(), f.cos(), f * 0.01, 1.0]);
            ids.push(EntityId(i));
        }
        let idx = EntityIndex::from_vectors(
            ids,
            vs.clone(),
            Compression::HnswPq { m: 8, ef_search: 64, pq_m: 4, pq_ks: 16 },
        );
        // the re-rank scores the row as held on its 8-bit grid: the
        // self-distance is an estimate of 0 — at most the sum over
        // dimensions of (range / 255 / 2)², here 2² + 2² + 2² + 0 over
        // 510² — and the constant fourth dimension adds nothing
        let hits = idx.search(vs.get(17), 1);
        assert_eq!(hits[0].0, EntityId(17));
        assert!(hits[0].1 <= 12.0 / (510.0 * 510.0), "self-distance {}", hits[0].1);
    }

    #[test]
    fn hnswpq_nbytes_is_below_flat_at_dim_64() {
        let mut vs = VectorSet::new(64);
        let ids: Vec<EntityId> = (0..300u32).map(EntityId).collect();
        for i in 0..300 {
            let v: Vec<f32> = (0..64).map(|j| ((i * 5 + j * 3) % 17) as f32 + i as f32 * 1e-3).collect();
            vs.push(&v);
        }
        let flat = EntityIndex::from_vectors(ids.clone(), vs.clone(), Compression::None);
        let hp = EntityIndex::from_vectors(
            ids,
            vs,
            Compression::HnswPq { m: 8, ef_search: 48, pq_m: 8, pq_ks: 16 },
        );
        // no raw row is retained: a byte a dimension for the re-rank (a
        // quarter of flat), and codes + graph + id map must fit in the rest
        assert!(hp.nbytes() > flat.nbytes() / 4, "hp {} vs flat {}", hp.nbytes(), flat.nbytes());
        assert!(hp.nbytes() < flat.nbytes(), "hp {} vs flat {}", hp.nbytes(), flat.nbytes());
    }
}
