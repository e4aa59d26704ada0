//! Meta-search-style entity matching (the SearX-backed lookup bbw used).
//!
//! Web meta-search resolves aliases and token reorderings well (the
//! underlying engines index redirects and alternative names) but does
//! *not* perform character-level fuzzy matching on entity names — a typo
//! in a rare proper noun simply misses. This matcher models that: exact
//! match over token-sorted, normalized surface forms, aliases included.

use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService};
use emblookup_text::tokenize::normalize;
use std::collections::HashMap;

/// Alias-aware exact matcher over token-sorted keys.
pub struct MetaSearchService {
    index: HashMap<String, Vec<EntityId>>,
    name: String,
}

impl MetaSearchService {
    /// Indexes every label and alias under its token-sorted key.
    pub fn new(kg: &KnowledgeGraph) -> Self {
        let mut index: HashMap<String, Vec<EntityId>> = HashMap::new();
        for e in kg.entities() {
            for surface in std::iter::once(&e.label).chain(e.aliases.iter()) {
                index.entry(Self::key(surface)).or_default().push(e.id);
            }
        }
        #[expect(clippy::iter_over_hash_type, reason = "each list is sorted in place, independently of the others")]
        for list in index.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        MetaSearchService { index, name: "MetaSearch".into() }
    }

    fn key(s: &str) -> String {
        let mut tokens: Vec<&str> = s.split_whitespace().collect();
        tokens.sort_unstable();
        normalize(&tokens.join(" "))
    }
}

impl LookupService for MetaSearchService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        self.index
            .get(&Self::key(q))
            .into_iter()
            .flatten()
            .take(k)
            .map(|&entity| Candidate { entity, score: 1.0 })
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};
    use emblookup_text::NoiseKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn resolves_aliases_and_reorderings_but_not_typos() {
        let s = generate(SynthKgConfig::tiny(25));
        let svc = MetaSearchService::new(&s.kg);
        let person = s
            .kg
            .entities()
            .find(|e| e.label.contains(' ') && !e.aliases.is_empty())
            .unwrap();

        // exact
        assert!(svc.lookup(&person.label, 5).iter().any(|c| c.entity == person.id));
        // token reordering
        let reversed: Vec<&str> = person.label.split(' ').rev().collect();
        assert!(svc
            .lookup(&reversed.join(" "), 5)
            .iter()
            .any(|c| c.entity == person.id));
        // alias
        assert!(svc
            .lookup(&person.aliases[0], 5)
            .iter()
            .any(|c| c.entity == person.id));
        // but a single character typo misses entirely
        let mut rng = StdRng::seed_from_u64(1);
        let typo = emblookup_text::apply_noise(&person.label, NoiseKind::SubstituteChar, &mut rng);
        assert!(svc.lookup(&typo, 5).is_empty(), "typo {typo:?} unexpectedly matched");
    }

    #[test]
    fn unknown_queries_return_empty() {
        let s = generate(SynthKgConfig::tiny(26));
        let svc = MetaSearchService::new(&s.kg);
        assert!(svc.lookup("entirely unknown thing", 5).is_empty());
        assert!(svc.lookup("", 5).is_empty());
    }
}
