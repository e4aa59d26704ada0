//! Syntactic lookup operations hosted on the ElasticLike engine.
//!
//! Table V compares EmbLookup "against optimized implementations of these
//! operations [exact match, q-gram, Levenshtein] in Elastic Search": the
//! engine's inverted index generates candidates and the requested metric
//! scores them. This mirrors running `fuzzy`/`term` queries on a real
//! ElasticSearch rather than hand-rolled scans.

use crate::catalog::{rank_candidates, MentionCatalog};
use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService};
use emblookup_text::distance::{levenshtein_bounded, qgram_jaccard, qgrams};
use emblookup_text::tokenize::normalize;
use std::collections::HashMap;

/// Which metric the engine applies to its candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticOp {
    /// Term query: exact normalized match.
    Exact,
    /// q-gram Jaccard similarity (`q = 3`).
    QGram,
    /// Bounded Levenshtein distance (fuzziness 3).
    Levenshtein,
}

impl ElasticOp {
    /// Display name matching the paper's Table V rows.
    pub fn label(&self) -> &'static str {
        match self {
            ElasticOp::Exact => "Exact Match",
            ElasticOp::QGram => "q-gram",
            ElasticOp::Levenshtein => "Levenshtein",
        }
    }
}

/// Candidate generation through a trigram inverted index, scoring by the
/// chosen metric.
pub struct ElasticOpService {
    catalog: MentionCatalog,
    inverted: HashMap<String, Vec<u32>>,
    op: ElasticOp,
    name: String,
}

impl ElasticOpService {
    /// Builds the trigram candidate index over the catalog.
    pub fn new(kg: &KnowledgeGraph, include_aliases: bool, op: ElasticOp) -> Self {
        let catalog = MentionCatalog::from_kg(kg, include_aliases);
        let mut inverted: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, e) in catalog.entries().iter().enumerate() {
            let mut grams = qgrams(&e.mention, 3);
            grams.sort_unstable();
            grams.dedup();
            for g in grams {
                inverted.entry(g).or_default().push(i as u32);
            }
        }
        ElasticOpService {
            catalog,
            inverted,
            name: op.label().to_string(),
            op,
        }
    }

    /// Entries sharing at least `min_shared` trigrams with the query.
    fn candidates(&self, q: &str, min_shared: u32) -> Vec<u32> {
        let mut grams = qgrams(q, 3);
        grams.sort_unstable();
        grams.dedup();
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for g in &grams {
            if let Some(list) = self.inverted.get(g) {
                for &i in list {
                    *counts.entry(i).or_default() += 1;
                }
            }
        }
        // sorted before it escapes: callers must not inherit hash
        // iteration order
        let mut out: Vec<u32> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_shared)
            .map(|(i, _)| i)
            .collect();
        out.sort_unstable();
        out
    }
}

impl LookupService for ElasticOpService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        let qn = normalize(q);
        let scored: Vec<(EntityId, f32)> = match self.op {
            ElasticOp::Exact => self
                .candidates(&qn, 1)
                .into_iter()
                .filter_map(|i| {
                    let e = &self.catalog.entries()[i as usize];
                    (e.mention == qn).then_some((e.entity, 1.0))
                })
                .collect(),
            ElasticOp::QGram => self
                .candidates(&qn, 1)
                .into_iter()
                .map(|i| {
                    let e = &self.catalog.entries()[i as usize];
                    (e.entity, qgram_jaccard(&qn, &e.mention, 3) as f32)
                })
                .collect(),
            ElasticOp::Levenshtein => self
                .candidates(&qn, 1)
                .into_iter()
                .filter_map(|i| {
                    let e = &self.catalog.entries()[i as usize];
                    levenshtein_bounded(&qn, &e.mention, 3).map(|d| (e.entity, -(d as f32)))
                })
                .collect(),
        };
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
    use emblookup_text::NoiseKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synth() -> emblookup_kg::SynthKg {
        generate(SynthKgConfig::tiny(21))
    }

    #[test]
    fn exact_op_matches_only_exact() {
        let s = synth();
        let svc = ElasticOpService::new(&s.kg, false, ElasticOp::Exact);
        let e = s.kg.entities().next().unwrap();
        assert!(svc.lookup(&e.label, 5).iter().any(|c| c.entity == e.id));
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = emblookup_text::apply_noise(&e.label, NoiseKind::SubstituteChar, &mut rng);
        assert!(svc.lookup(&noisy, 5).is_empty());
    }

    #[test]
    fn levenshtein_op_tolerates_typos() {
        let s = synth();
        let svc = ElasticOpService::new(&s.kg, false, ElasticOp::Levenshtein);
        let mut rng = StdRng::seed_from_u64(2);
        let e = s.kg.entities().nth(5).unwrap();
        let noisy = emblookup_text::apply_noise(&e.label, NoiseKind::DropChar, &mut rng);
        assert!(svc.lookup(&noisy, 5).iter().any(|c| c.entity == e.id));
    }

    #[test]
    fn qgram_op_scores_by_jaccard() {
        let s = synth();
        let svc = ElasticOpService::new(&s.kg, false, ElasticOp::QGram);
        let e = s.kg.entities().nth(8).unwrap();
        let hits = svc.lookup(&e.label, 5);
        assert_eq!(hits[0].entity, e.id);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn names_match_paper_rows() {
        let s = synth();
        for (op, name) in [
            (ElasticOp::Exact, "Exact Match"),
            (ElasticOp::QGram, "q-gram"),
            (ElasticOp::Levenshtein, "Levenshtein"),
        ] {
            assert_eq!(ElasticOpService::new(&s.kg, false, op).name(), name);
        }
    }
}
