//! Hash-partitioned entity shards for scatter-gather serving.
//!
//! The serving layer's horizontal scaling unit: the entity set is split
//! at build time into `N` disjoint shards by a deterministic mix-hash of
//! the entity id, each shard backed by its own [`EntityIndex`]. A lookup
//! searches every live shard for its own top-k and merges the per-shard
//! lists with [`merge_topk`] — distances ordered by `total_cmp` with a
//! stable tie-break on entity id, so the merged result is a pure
//! function of the per-shard results regardless of gather order, pool
//! width, or which subset of shards answered (partial results under
//! shard ejection stay deterministic too).
//!
//! Shards are id-disjoint by construction, so the merge needs no
//! cross-shard deduplication; alias indexing (several rows per entity)
//! keeps all of an entity's rows on one shard because the hash keys on
//! the entity id, never the row.

use crate::config::Compression;
use crate::index::{embed_rows, publish_size, EntityIndex};
use crate::model::EmbLookupModel;
use emblookup_ann::VectorSet;
use emblookup_kg::{EntityId, KnowledgeGraph};
use emblookup_obs::names;

/// Deterministic shard assignment: a splitmix64-style finalizer over the
/// entity id, reduced mod `num_shards`. Dense sequential ids (the synth
/// KG default) spread evenly instead of striping.
pub fn shard_of(id: EntityId, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0, "shard_of with zero shards");
    let mut x = (u64::from(id.0)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % num_shards as u64) as usize
}

/// `N` id-disjoint [`EntityIndex`] shards built from one embedding pass.
pub struct ShardedIndex {
    shards: Vec<EntityIndex>,
}

impl ShardedIndex {
    /// Embeds every entity label once with `model`, partitions the rows
    /// by [`shard_of`], and builds one backend per shard.
    ///
    /// Shards whose row count is too small to train the configured
    /// compression (PQ/IVF codebooks need at least as many vectors as
    /// centroids) fall back to the exact flat backend for that shard
    /// only — partitioning never makes a shard less accurate than the
    /// unsharded index.
    ///
    /// Reported as one index: one `index.build` span around the whole
    /// build, and the `index.entities` / `index.nbytes` gauges set to the
    /// totals over the shards.
    ///
    /// # Panics
    /// Panics on an empty knowledge graph or `num_shards == 0`.
    pub fn build(
        model: &EmbLookupModel,
        kg: &KnowledgeGraph,
        compression: Compression,
        num_shards: usize,
        threads: usize,
    ) -> Self {
        assert!(num_shards > 0, "sharding into zero shards");
        assert!(kg.num_entities() > 0, "sharding an empty knowledge graph");
        let span = emblookup_obs::Span::enter(names::INDEX_BUILD)
            .field("entities", kg.num_entities() as u64)
            .field("backend", compression.name())
            .field("shards", num_shards as u64);
        // alias rows hash on the entity id, so they stay on their
        // entity's shard
        let (ids, vectors) = embed_rows(model, kg, threads);
        // each shard is a pure function of its rows, so the shards are
        // built side by side (a shard's own fork-joins nest in this one)
        let shards = emblookup_pool::Pool::global().parallel_map(num_shards, 1, |shard| {
            let (shard_ids, shard_vecs) = shard_rows(&ids, &vectors, num_shards, shard);
            let per_shard = fit_compression(compression, shard_ids.len());
            EntityIndex::from_vectors(shard_ids, shard_vecs, per_shard)
        });
        let sharded = ShardedIndex { shards };
        publish_size(sharded.len(), sharded.nbytes());
        drop(span);
        sharded
    }

    /// One shard holding everything: an already-built index served
    /// through the scatter-gather interface as it is, with no
    /// re-embedding and no partition.
    pub fn single(index: EntityIndex) -> Self {
        ShardedIndex { shards: vec![index] }
    }

    /// Number of shards (fixed at build time).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's index.
    ///
    /// # Panics
    /// Panics when `shard >= num_shards()`.
    pub fn shard(&self, shard: usize) -> &EntityIndex {
        &self.shards[shard]
    }

    /// Total indexed rows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(EntityIndex::len).sum()
    }

    /// True when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte size of the stored index: [`EntityIndex::nbytes`] summed over
    /// the shards.
    pub fn nbytes(&self) -> usize {
        self.shards.iter().map(EntityIndex::nbytes).sum()
    }

    /// Searches every shard sequentially and merges: the reference
    /// scatter-gather result the serving layer's pooled fan-out must
    /// reproduce byte-for-byte.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(EntityId, f32)> {
        let per_shard: Vec<Vec<(EntityId, f32)>> =
            self.shards.iter().map(|s| s.search(query, k)).collect();
        merge_topk(&per_shard, k)
    }
}

/// The rows [`shard_of`] assigns to `shard`, in row order.
fn shard_rows(
    ids: &[EntityId],
    vectors: &VectorSet,
    num_shards: usize,
    shard: usize,
) -> (Vec<EntityId>, VectorSet) {
    let mut shard_ids = Vec::new();
    let mut shard_vecs = VectorSet::new(vectors.dim());
    for (row, id) in ids.iter().enumerate() {
        if shard_of(*id, num_shards) == shard {
            shard_ids.push(*id);
            shard_vecs.push(vectors.get(row));
        }
    }
    (shard_ids, shard_vecs)
}

/// Per-shard compression choice: falls back to the exact flat backend
/// when the shard is too small to train the configured codebooks.
fn fit_compression(compression: Compression, rows: usize) -> Compression {
    let min_rows = match compression {
        Compression::None | Compression::Pca { .. } => 1,
        Compression::Pq { ks, .. } => ks,
        Compression::Ivf { nlist, .. } => nlist,
        Compression::Hnsw { .. } => 2,
        Compression::HnswPq { pq_ks, .. } => pq_ks,
    };
    if rows < min_rows.max(1) {
        Compression::None
    } else {
        compression
    }
}

/// Deterministic top-k merge of per-shard hit lists — owned `Vec`s or
/// borrowed slices: ascending distance under `total_cmp`, ties broken by
/// entity id. Shards are id-disjoint, so no deduplication is needed.
pub fn merge_topk<L: AsRef<[(EntityId, f32)]>>(per_shard: &[L], k: usize) -> Vec<(EntityId, f32)> {
    let mut all: Vec<(EntityId, f32)> = per_shard.iter().flat_map(AsRef::as_ref).copied().collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, dim: usize) -> (Vec<EntityId>, VectorSet) {
        let mut vs = VectorSet::new(dim);
        let ids = (0..n as u32).map(EntityId).collect();
        for i in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|j| ((i * 7 + j * 3) % 13) as f32 / 13.0 + i as f32 * 1e-3)
                .collect();
            vs.push(&v);
        }
        (ids, vs)
    }

    fn sharded_from(ids: &[EntityId], vs: &VectorSet, num_shards: usize) -> ShardedIndex {
        let shards = (0..num_shards)
            .map(|shard| {
                let (ids, vecs) = shard_rows(ids, vs, num_shards, shard);
                EntityIndex::from_vectors(ids, vecs, Compression::None)
            })
            .collect();
        ShardedIndex { shards }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 5, 8] {
            for id in 0..500u32 {
                let s = shard_of(EntityId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(EntityId(id), n), "assignment must be pure");
            }
        }
    }

    #[test]
    fn partition_covers_every_entity_exactly_once() {
        let (ids, vs) = toy(200, 8);
        let sharded = sharded_from(&ids, &vs, 4);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.len(), 200);
        // every shard got a meaningful slice of a 200-entity set
        for s in 0..4 {
            assert!(sharded.shard(s).len() > 10, "degenerate shard {s}");
        }
    }

    #[test]
    fn sharded_search_matches_unsharded_flat_exactly() {
        let (ids, vs) = toy(120, 8);
        let global = EntityIndex::from_vectors(ids.clone(), vs.clone(), Compression::None);
        let sharded = sharded_from(&ids, &vs, 3);
        for probe in [0usize, 17, 63, 119] {
            let q = vs.get(probe).to_vec();
            let want = global.search(&q, 10);
            let got = sharded.search(&q, 10);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0, "probe {probe}: exact merge must match flat scan");
                assert!((g.1 - w.1).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn merge_topk_orders_by_distance_then_id() {
        let a = vec![(EntityId(5), 0.5f32), (EntityId(1), 0.9)];
        let b = vec![(EntityId(3), 0.5f32), (EntityId(2), 0.1)];
        let merged = merge_topk(&[a, b], 3);
        assert_eq!(
            merged,
            vec![(EntityId(2), 0.1), (EntityId(3), 0.5), (EntityId(5), 0.5)]
        );
    }

    #[test]
    fn merge_topk_is_gather_order_independent() {
        let a = vec![(EntityId(5), 0.5f32), (EntityId(1), 0.9)];
        let b = vec![(EntityId(3), 0.5f32), (EntityId(2), 0.1)];
        let ab = merge_topk(&[a.clone(), b.clone()], 4);
        let ba = merge_topk(&[b.as_slice(), a.as_slice()], 4);
        assert_eq!(ab, ba, "owned and borrowed lists merge alike");
    }

    #[test]
    fn small_shards_fall_back_to_flat() {
        assert_eq!(
            fit_compression(Compression::Pq { m: 8, ks: 256 }, 40),
            Compression::None
        );
        assert_eq!(
            fit_compression(Compression::Pq { m: 8, ks: 16 }, 40),
            Compression::Pq { m: 8, ks: 16 }
        );
        assert_eq!(fit_compression(Compression::None, 0), Compression::None);
    }
}
