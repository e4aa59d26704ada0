//! LSH lookup service: MinHash over character q-grams for candidate
//! generation, Levenshtein re-ranking — the "LSH variant optimized for
//! Levenshtein distance" baseline of Table V.

use crate::catalog::{rank_candidates, MentionCatalog};
use emblookup_ann::lsh::{hash_feature, LshConfig, MinHashLsh};
use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService};
use emblookup_text::distance::{levenshtein_bounded, qgrams};
use emblookup_text::tokenize::normalize;

/// MinHash-LSH candidate generation + edit-distance re-ranking.
pub struct LshService {
    catalog: MentionCatalog,
    lsh: MinHashLsh,
    q: usize,
    name: String,
}

impl LshService {
    /// Builds the LSH tables over the q-gram sets of the graph's primary
    /// labels.
    pub fn new(kg: &KnowledgeGraph, config: LshConfig) -> Self {
        let catalog = MentionCatalog::from_kg(kg, false);
        let q = 3;
        let mut lsh = MinHashLsh::new(config);
        for (i, e) in catalog.entries().iter().enumerate() {
            lsh.insert(i as u32, &Self::features(&e.mention, q));
        }
        LshService { catalog, lsh, q, name: "LSH".into() }
    }

    fn features(s: &str, q: usize) -> Vec<u64> {
        qgrams(s, q).iter().map(|g| hash_feature(g)).collect()
    }
}

impl LookupService for LshService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        let qn = normalize(q);
        let candidates = self.lsh.candidates(&Self::features(&qn, self.q));
        // bounded re-rank: the LSH filter exists to avoid full scans, so
        // candidates beyond a few edits are discarded early
        let scored: Vec<(EntityId, f32)> = candidates
            .into_iter()
            .filter_map(|i| {
                let entry = &self.catalog.entries()[i as usize];
                levenshtein_bounded(&qn, &entry.mention, 4)
                    .map(|d| (entry.entity, -(d as f32)))
            })
            .collect();
        rank_candidates(scored, k)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn exact_label_is_found() {
        let s = generate(SynthKgConfig::tiny(13));
        let svc = LshService::new(&s.kg, LshConfig::default());
        let e = s.kg.entities().nth(2).unwrap();
        let hits = svc.lookup(&e.label, 5);
        assert!(hits.iter().any(|c| c.entity == e.id));
        assert_eq!(hits[0].score, 0.0); // zero edit distance, negated
    }

    #[test]
    fn recall_degrades_gracefully_not_catastrophically() {
        // LSH is a candidate filter: some typos fall out of every band —
        // that is exactly the accuracy gap Table V shows for LSH.
        let s = generate(SynthKgConfig::tiny(14));
        let svc = LshService::new(&s.kg, LshConfig { bands: 24, rows: 2, seed: 0 });
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let mut found = 0;
        let total = 20;
        for e in s.kg.entities().take(total) {
            let noisy = emblookup_text::apply_noise(
                &e.label,
                emblookup_text::NoiseKind::DropChar,
                &mut rng,
            );
            if svc.lookup(&noisy, 10).iter().any(|c| c.entity == e.id) {
                found += 1;
            }
        }
        assert!(found >= total / 2, "LSH recovered only {found}/{total}");
    }

    #[test]
    fn unrelated_query_returns_few_or_none() {
        let s = generate(SynthKgConfig::tiny(15));
        let svc = LshService::new(&s.kg, LshConfig { bands: 8, rows: 6, seed: 0 });
        let hits = svc.lookup("qqqqqqzzzzzz", 10);
        assert!(hits.len() < 5);
    }
}
