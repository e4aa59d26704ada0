//! Scan-based lookup services: exact match, full Levenshtein scan, q-gram
//! Jaccard scan and the FuzzyWuzzy-style token matcher — the "implement
//! the similarity metric from scratch" family of the paper's related work.

use crate::catalog::{rank_candidates, MentionCatalog};
use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService};
use emblookup_text::distance::{levenshtein_bounded, qgram_jaccard, token_set_ratio};
use emblookup_text::tokenize::normalize;
use std::collections::{BTreeMap, HashMap};

/// Exact-match lookup over a normalized hash index.
pub struct ExactMatchService {
    index: HashMap<String, Vec<EntityId>>,
    name: String,
}

impl ExactMatchService {
    /// Builds the hash index from the catalog.
    pub fn new(kg: &KnowledgeGraph, include_aliases: bool) -> Self {
        let catalog = MentionCatalog::from_kg(kg, include_aliases);
        let mut index: HashMap<String, Vec<EntityId>> = HashMap::new();
        for e in catalog.entries() {
            index.entry(e.mention.clone()).or_default().push(e.entity);
        }
        ExactMatchService { index, name: "ExactMatch".into() }
    }
}

impl LookupService for ExactMatchService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        self.index
            .get(&normalize(q))
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

/// Full Levenshtein scan with a per-candidate early-exit bound — the
/// "optimized Levenshtein distance module" used by SemTab submissions.
pub struct LevenshteinService {
    catalog: MentionCatalog,
    /// Maximum edit distance considered a match.
    pub max_edits: usize,
    name: String,
}

impl LevenshteinService {
    /// Builds the service; `max_edits` bounds the scan (default-style 3).
    pub fn new(kg: &KnowledgeGraph, include_aliases: bool, max_edits: usize) -> Self {
        LevenshteinService {
            catalog: MentionCatalog::from_kg(kg, include_aliases),
            max_edits,
            name: "Levenshtein".into(),
        }
    }
}

impl LookupService for LevenshteinService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        let q = normalize(q);
        let mut scored = Vec::new();
        for e in self.catalog.entries() {
            if let Some(d) = levenshtein_bounded(&q, &e.mention, self.max_edits) {
                scored.push((e.entity, -(d as f32)));
            }
        }
        rank_candidates(scored, k)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// q-gram lookup: Jaccard similarity of padded character q-grams,
/// pre-filtered through an inverted q-gram index.
pub struct QGramService {
    catalog: MentionCatalog,
    inverted: HashMap<String, Vec<u32>>,
    q: usize,
    name: String,
}

impl QGramService {
    /// Builds the inverted q-gram index (`q = 3` is the classic setting).
    pub fn new(kg: &KnowledgeGraph, include_aliases: bool, q: usize) -> Self {
        let catalog = MentionCatalog::from_kg(kg, include_aliases);
        let mut inverted: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, e) in catalog.entries().iter().enumerate() {
            let mut grams = emblookup_text::distance::qgrams(&e.mention, q);
            grams.sort_unstable();
            grams.dedup();
            for g in grams {
                inverted.entry(g).or_default().push(i as u32);
            }
        }
        QGramService { catalog, inverted, q, name: "q-gram".into() }
    }
}

impl LookupService for QGramService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        let qn = normalize(q);
        let mut grams = emblookup_text::distance::qgrams(&qn, self.q);
        grams.sort_unstable();
        grams.dedup();
        // candidate pre-filter: any shared q-gram
        // BTreeMap: candidate order escapes into scoring
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for g in &grams {
            if let Some(list) = self.inverted.get(g) {
                for &i in list {
                    *counts.entry(i).or_default() += 1;
                }
            }
        }
        let scored: Vec<(EntityId, f32)> = counts
            .keys()
            .map(|&i| {
                let entry = &self.catalog.entries()[i as usize];
                let sim = qgram_jaccard(&qn, &entry.mention, self.q) as f32;
                (entry.entity, sim)
            })
            .collect();
        rank_candidates(scored, k)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// FuzzyWuzzy-style lookup: token-set ratio over a full catalog scan.
pub struct FuzzyWuzzyService {
    catalog: MentionCatalog,
    name: String,
}

impl FuzzyWuzzyService {
    /// Builds the scan service.
    pub fn new(kg: &KnowledgeGraph, include_aliases: bool) -> Self {
        FuzzyWuzzyService {
            catalog: MentionCatalog::from_kg(kg, include_aliases),
            name: "FuzzyWuzzy".into(),
        }
    }
}

impl LookupService for FuzzyWuzzyService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        let qn = normalize(q);
        let scored: Vec<(EntityId, f32)> = self
            .catalog
            .entries()
            .iter()
            .map(|e| (e.entity, token_set_ratio(&qn, &e.mention) as f32))
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
    use emblookup_kg::{generate, SynthKg, SynthKgConfig};
    use emblookup_text::NoiseKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synth() -> SynthKg {
        generate(SynthKgConfig::tiny(4))
    }

    #[test]
    fn exact_hits_only_exact() {
        let s = synth();
        let svc = ExactMatchService::new(&s.kg, false);
        let e = s.kg.entities().next().unwrap();
        let hits = svc.lookup(&e.label, 5);
        assert!(hits.iter().any(|c| c.entity == e.id));
        // one char typo breaks exact match
        let mut broken = e.label.clone();
        broken.push('x');
        assert!(svc.lookup(&broken, 5).is_empty());
    }

    #[test]
    fn levenshtein_tolerates_typos() {
        let s = synth();
        let svc = LevenshteinService::new(&s.kg, false, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let e = s.kg.entities().next().unwrap();
        let noisy = emblookup_text::apply_noise(&e.label, NoiseKind::SubstituteChar, &mut rng);
        let hits = svc.lookup(&noisy, 5);
        assert!(
            hits.iter().any(|c| c.entity == e.id),
            "typo {noisy:?} of {:?} not matched",
            e.label
        );
    }

    #[test]
    fn qgram_tolerates_typos() {
        let s = synth();
        let svc = QGramService::new(&s.kg, false, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let e = s.kg.entities().nth(3).unwrap();
        let noisy = emblookup_text::apply_noise(&e.label, NoiseKind::DropChar, &mut rng);
        let hits = svc.lookup(&noisy, 5);
        assert!(hits.iter().any(|c| c.entity == e.id));
    }

    #[test]
    fn fuzzywuzzy_handles_token_reorder() {
        let s = synth();
        let svc = FuzzyWuzzyService::new(&s.kg, false);
        let person = s.persons[0];
        let label = s.kg.label(person);
        let reversed: Vec<&str> = label.split(' ').rev().collect();
        let hits = svc.lookup(&reversed.join(" "), 5);
        assert!(hits.iter().any(|c| c.entity == person));
    }

    #[test]
    fn alias_lookup_fails_without_alias_index() {
        let s = synth();
        let svc = LevenshteinService::new(&s.kg, false, 2);
        // find an entity whose alias is syntactically far from the label
        let target = s
            .kg
            .entities()
            .find(|e| {
                e.aliases.iter().any(|a| {
                    emblookup_text::distance::levenshtein(&e.label.to_lowercase(), &a.to_lowercase()) > 4
                })
            })
            .expect("no far alias in tiny KG");
        let alias = target
            .aliases
            .iter()
            .find(|a| {
                emblookup_text::distance::levenshtein(
                    &target.label.to_lowercase(),
                    &a.to_lowercase(),
                ) > 4
            })
            .unwrap();
        let hits = svc.lookup(alias, 5);
        assert!(
            !hits.iter().any(|c| c.entity == target.id),
            "label-only index unexpectedly resolved alias {alias:?}"
        );
        // but the alias-aware index resolves it
        let svc_full = ExactMatchService::new(&s.kg, true);
        let hits = svc_full.lookup(alias, 5);
        assert!(hits.iter().any(|c| c.entity == target.id));
    }

    #[test]
    fn all_scan_services_bound_k() {
        let s = synth();
        let services: Vec<Box<dyn LookupService>> = vec![
            Box::new(ExactMatchService::new(&s.kg, false)),
            Box::new(LevenshteinService::new(&s.kg, false, 5)),
            Box::new(QGramService::new(&s.kg, false, 3)),
            Box::new(FuzzyWuzzyService::new(&s.kg, false)),
        ];
        for svc in &services {
            let hits = svc.lookup(s.kg.label(s.cities[0]), 3);
            assert!(hits.len() <= 3, "{} returned {}", svc.name(), hits.len());
        }
    }

    #[test]
    fn empty_query_is_safe() {
        let s = synth();
        let svc = QGramService::new(&s.kg, false, 3);
        let _ = svc.lookup("", 5);
        let svc = FuzzyWuzzyService::new(&s.kg, false);
        let _ = svc.lookup("", 5);
    }
}
