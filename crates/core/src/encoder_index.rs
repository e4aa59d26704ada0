//! A lookup service backed by an arbitrary [`StringEncoder`] — the harness
//! of Table VII, which swaps the embedding algorithm (word2vec, fastText,
//! BERT-mini, LSTM, EmbLookup) under an otherwise identical pipeline.
//!
//! Lives in `emblookup-core` (not `emblookup-embed`) because it composes
//! an encoder with an ANN index: the layer DAG (lint rule L005) keeps
//! `embed` below `ann`, and only `core` may see both.

use emblookup_ann::{FlatIndex, VectorSet};
use emblookup_embed::StringEncoder;
use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService};

/// Flat nearest-neighbour index over entity-label embeddings produced by
/// any [`StringEncoder`].
pub struct EncoderIndex<E: StringEncoder> {
    encoder: E,
    ids: Vec<EntityId>,
    index: FlatIndex,
    name: String,
}

impl<E: StringEncoder> EncoderIndex<E> {
    /// Embeds every entity label of `kg` with `encoder` and indexes them.
    ///
    /// # Panics
    /// Panics on an empty knowledge graph.
    pub fn build(encoder: E, kg: &KnowledgeGraph) -> Self {
        assert!(kg.num_entities() > 0, "indexing an empty knowledge graph");
        let name = encoder.name().to_string();
        let mut vectors = VectorSet::new(encoder.dim());
        let mut ids = Vec::with_capacity(kg.num_entities());
        for e in kg.entities() {
            vectors.push(&encoder.embed(&e.label));
            ids.push(e.id);
        }
        EncoderIndex {
            encoder,
            ids,
            index: FlatIndex::new(vectors),
            name,
        }
    }
}

impl<E: StringEncoder + Sync> LookupService for EncoderIndex<E> {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        let emb = self.encoder.embed(q);
        self.index
            .search(&emb, k)
            .into_iter()
            .map(|n| Candidate {
                entity: self.ids[n.index],
                score: -n.dist,
            })
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_embed::{Corpus, FastText, FastTextConfig};
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn fasttext_index_resolves_exact_labels() {
        let s = generate(SynthKgConfig::tiny(7));
        let corpus = Corpus::from_kg(&s.kg);
        let ft = FastText::train(
            &corpus,
            FastTextConfig { dim: 16, buckets: 1 << 11, epochs: 5, ..Default::default() },
        );
        let svc = EncoderIndex::build(ft, &s.kg);
        assert_eq!(svc.name(), "fastText");
        let mut hits = 0;
        for e in s.kg.entities().take(20) {
            if svc.lookup(&e.label, 5).iter().any(|c| c.entity == e.id) {
                hits += 1;
            }
        }
        assert!(hits >= 16, "only {hits}/20 exact labels resolved");
    }
}
