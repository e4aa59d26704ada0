//! The mention catalog baseline services share: the list of searchable
//! surface forms and the entities they belong to.

use emblookup_kg::{EntityId, KnowledgeGraph};
use emblookup_text::tokenize::normalize;

/// A searchable surface form (label or alias) paired with its entity.
#[derive(Debug, Clone)]
pub(crate) struct CatalogEntry {
    /// Normalized surface form.
    pub(crate) mention: String,
    /// Owning entity.
    pub(crate) entity: EntityId,
}

/// Flat catalog of surface forms extracted from a knowledge graph.
///
/// Local baselines index only primary labels by default (the paper points
/// out that including aliases inflates an ElasticSearch index from 63 MB to
/// 790 MB); pass `include_aliases = true` to model alias-aware services.
#[derive(Debug, Clone, Default)]
pub(crate) struct MentionCatalog {
    entries: Vec<CatalogEntry>,
}

impl MentionCatalog {
    /// Builds the catalog from a graph.
    pub(crate) fn from_kg(kg: &KnowledgeGraph, include_aliases: bool) -> Self {
        let mut entries = Vec::with_capacity(kg.num_entities());
        for e in kg.entities() {
            entries.push(CatalogEntry {
                mention: normalize(&e.label),
                entity: e.id,
            });
            if include_aliases {
                for alias in &e.aliases {
                    entries.push(CatalogEntry {
                        mention: normalize(alias),
                        entity: e.id,
                    });
                }
            }
        }
        MentionCatalog { entries }
    }

    /// All entries.
    pub(crate) fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Number of indexed surface forms.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total bytes of the stored mention strings (index-size reports).
    pub(crate) fn nbytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.mention.len() + std::mem::size_of::<EntityId>())
            .sum()
    }
}

/// Converts scored `(entity, score)` pairs into a deduplicated top-k
/// candidate list, best score first. An entity reachable through several
/// surface forms keeps its best score.
pub(crate) fn rank_candidates(
    mut scored: Vec<(EntityId, f32)>,
    k: usize,
) -> Vec<emblookup_kg::Candidate> {
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(k.min(scored.len()));
    for (entity, score) in scored {
        if seen.insert(entity) {
            out.push(emblookup_kg::Candidate { entity, score });
            if out.len() == k {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn label_only_vs_alias_catalog_sizes() {
        let s = generate(SynthKgConfig::tiny(1));
        let labels = MentionCatalog::from_kg(&s.kg, false);
        let full = MentionCatalog::from_kg(&s.kg, true);
        assert_eq!(labels.len(), s.kg.num_entities());
        assert!(full.len() > labels.len() * 2);
        assert!(full.nbytes() > labels.nbytes());
    }

    #[test]
    fn mentions_are_normalized() {
        let s = generate(SynthKgConfig::tiny(2));
        let catalog = MentionCatalog::from_kg(&s.kg, false);
        for e in catalog.entries() {
            assert_eq!(e.mention, normalize(&e.mention));
        }
    }

    #[test]
    fn rank_dedups_and_sorts() {
        let hits = rank_candidates(
            vec![
                (EntityId(1), 0.5),
                (EntityId(2), 0.9),
                (EntityId(1), 0.8),
                (EntityId(3), 0.1),
            ],
            2,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].entity, EntityId(2));
        assert_eq!(hits[1].entity, EntityId(1));
        assert_eq!(hits[1].score, 0.8);
    }

    #[test]
    fn rank_handles_empty() {
        assert!(rank_candidates(vec![], 5).is_empty());
    }
}
