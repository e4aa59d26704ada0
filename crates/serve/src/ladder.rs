//! The graceful-degradation ladder.
//!
//! When the deadline budget runs short — or the primary backend errors
//! or poisons its answer — the server steps down a rung instead of
//! failing the request:
//!
//! 1. **full** — the trained PQ/ANN index (normal operation).
//! 2. **flat** — exact flat search over a capped candidate set of
//!    entity-label embeddings, built once at startup.
//! 3. **qgram** — q-gram Jaccard string similarity over the capped
//!    label set; needs no embedding at all, so it also rescues
//!    requests whose budget can't afford the encode stage.
//!
//! Every rung is deterministic: flat search is exact, and the q-gram
//! rung breaks score ties by entity id, so responses are bit-identical
//! across pool widths and repeat runs.

use emblookup_ann::{FlatIndex, VectorSet};
use emblookup_core::EmbLookupModel;
use emblookup_kg::{EntityId, KnowledgeGraph};
use emblookup_text::distance::qgram_jaccard;

/// Which rung of the ladder answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// The trained PQ/ANN index.
    Full,
    /// Exact flat search on the capped candidate set.
    Flat,
    /// Q-gram string similarity on the capped label set.
    Qgram,
}

impl Rung {
    /// Stable lower-case name used in responses and metric mapping.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::Flat => "flat",
            Rung::Qgram => "qgram",
        }
    }
}

/// Startup-built fallback structures backing the flat and q-gram rungs.
#[derive(Debug)]
pub(crate) struct Ladder {
    flat: FlatIndex,
    flat_ids: Vec<EntityId>,
    labels: Vec<(EntityId, String)>,
    qgram_q: usize,
}

impl Ladder {
    /// Embeds the first `cap` entity labels with the trained model and
    /// builds the fallback index plus the label table. `cap` bounds
    /// both memory and worst-case fallback latency.
    pub(crate) fn build(model: &EmbLookupModel, kg: &KnowledgeGraph, cap: usize) -> Self {
        let take = kg.num_entities().min(cap);
        let mut flat_ids = Vec::with_capacity(take);
        let mut labels = Vec::with_capacity(take);
        for entity in kg.entities().take(take) {
            flat_ids.push(entity.id);
            labels.push((entity.id, entity.label.clone()));
        }
        let refs: Vec<&str> = labels.iter().map(|(_, l)| l.as_str()).collect();
        // threads = 1: the fallback set is small and sequential
        // embedding keeps startup independent of pool configuration.
        let embedded = model.embed_batch(&refs, 1);
        let mut vectors = VectorSet::new(model.dim().max(1));
        for v in &embedded {
            vectors.push(v);
        }
        Ladder {
            flat: FlatIndex::new(vectors),
            flat_ids,
            labels,
            qgram_q: 3,
        }
    }

    /// Exact flat search over the capped set; scores are negated
    /// squared L2 distances (higher = better), matching the full rung's
    /// score convention.
    pub(crate) fn flat_search(&self, query_emb: &[f32], k: usize) -> Vec<(EntityId, f32)> {
        self.flat
            .search(query_emb, k)
            .into_iter()
            .map(|n| (self.flat_ids[n.index], -n.dist))
            .collect()
    }

    /// Q-gram Jaccard similarity search over the capped label set;
    /// scores are similarities in `[0, 1]`. Ties break by entity id so
    /// the ordering is total and reproducible.
    pub(crate) fn qgram_search(&self, q: &str, k: usize) -> Vec<(EntityId, f32)> {
        let mut scored: Vec<(EntityId, f32)> = self
            .labels
            .iter()
            .map(|(id, label)| (*id, qgram_jaccard(q, label, self.qgram_q) as f32))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_core::{EmbLookup, EmbLookupConfig};
    use emblookup_kg::{generate, SynthKgConfig};

    fn small_service() -> &'static (EmbLookup, KnowledgeGraph) {
        use std::sync::OnceLock;
        static SHARED: OnceLock<(EmbLookup, KnowledgeGraph)> = OnceLock::new();
        SHARED.get_or_init(|| {
            let synth = generate(SynthKgConfig::tiny(41));
            let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::tiny(41));
            (service, synth.kg)
        })
    }

    #[test]
    fn build_respects_cap() {
        let (service, kg) = small_service();
        let ladder = Ladder::build(service.model(), kg, 5);
        let covered = 5.min(kg.num_entities());
        assert!(covered > 0);
        assert_eq!((ladder.flat_ids.len(), ladder.labels.len()), (covered, covered));
    }

    #[test]
    fn flat_search_returns_scored_candidates() {
        let (service, kg) = small_service();
        let ladder = Ladder::build(service.model(), kg, 64);
        let emb = service.model().embed(kg.label(EntityId(0)));
        let hits = ladder.flat_search(&emb, 3);
        assert!(!hits.is_empty() && hits.len() <= 3);
        // scores descend (less-negative first)
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn qgram_search_ranks_exact_label_first() {
        let (service, kg) = small_service();
        let ladder = Ladder::build(service.model(), kg, 64);
        let label = kg.label(EntityId(2)).to_string();
        let hits = ladder.qgram_search(&label, 5);
        assert_eq!(hits[0].0, EntityId(2), "exact label must win the q-gram rung");
        assert!((hits[0].1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn qgram_search_is_deterministic() {
        let (service, kg) = small_service();
        let ladder = Ladder::build(service.model(), kg, 64);
        let a = ladder.qgram_search("germoney", 10);
        let b = ladder.qgram_search("germoney", 10);
        assert_eq!(a, b);
    }
}
