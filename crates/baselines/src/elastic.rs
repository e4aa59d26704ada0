//! "ElasticLike": a local full-text engine modeled on how ElasticSearch
//! serves fuzzy entity lookups — a weighted combination of word-level and
//! trigram-level BM25 (the paper cites exactly this setup), with the usual
//! inverted-index architecture.

use crate::catalog::{rank_candidates, MentionCatalog};
use emblookup_kg::{Candidate, EntityId, KnowledgeGraph, LookupService};
use emblookup_text::distance::qgrams;
use emblookup_text::tokenize::{normalize, words};
use std::collections::{BTreeMap, HashMap};

/// BM25 hyperparameters.
const K1: f64 = 1.2;
const B: f64 = 0.75;
/// Weight of the word-level score vs the trigram score.
const WORD_WEIGHT: f64 = 0.6;

#[derive(Debug, Default)]
struct Bm25Index {
    /// term → (doc id, term frequency) postings
    postings: HashMap<String, Vec<(u32, u32)>>,
    doc_len: Vec<u32>,
    avg_len: f64,
}

impl Bm25Index {
    fn build<F>(docs: usize, mut terms_of: F) -> Self
    where
        F: FnMut(usize) -> Vec<String>,
    {
        let mut index = Bm25Index {
            postings: HashMap::new(),
            doc_len: vec![0; docs],
            avg_len: 0.0,
        };
        for doc in 0..docs {
            let terms = terms_of(doc);
            index.doc_len[doc] = terms.len() as u32;
            // BTreeMap: postings must be built in a stable term order
            let mut tf: BTreeMap<String, u32> = BTreeMap::new();
            for t in terms {
                *tf.entry(t).or_default() += 1;
            }
            for (term, f) in tf {
                index.postings.entry(term).or_default().push((doc as u32, f));
            }
        }
        let total: u64 = index.doc_len.iter().map(|&l| l as u64).sum();
        index.avg_len = total as f64 / docs.max(1) as f64;
        index
    }

    /// BM25 scores of all documents matching at least one query term.
    fn score(&self, terms: &[String]) -> HashMap<u32, f64> {
        let n = self.doc_len.len() as f64;
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for term in terms {
            let Some(postings) = self.postings.get(term) else { continue };
            let df = postings.len() as f64;
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for &(doc, tf) in postings {
                let dl = self.doc_len[doc as usize] as f64;
                let tf = tf as f64;
                let s = idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / self.avg_len));
                *scores.entry(doc).or_default() += s;
            }
        }
        scores
    }

    fn nbytes(&self) -> usize {
        self.postings
            .iter()
            .map(|(term, postings)| term.len() + postings.len() * 8)
            .sum::<usize>()
            + self.doc_len.len() * 4
    }
}

/// Local search engine over entity mentions with word + trigram BM25.
pub struct ElasticLikeService {
    catalog: MentionCatalog,
    word_index: Bm25Index,
    trigram_index: Bm25Index,
    name: String,
}

impl ElasticLikeService {
    /// Builds both inverted indexes from the catalog.
    pub fn new(kg: &KnowledgeGraph, include_aliases: bool) -> Self {
        let catalog = MentionCatalog::from_kg(kg, include_aliases);
        let n = catalog.len();
        let word_index = Bm25Index::build(n, |doc| words(&catalog.entries()[doc].mention));
        let trigram_index = Bm25Index::build(n, |doc| qgrams(&catalog.entries()[doc].mention, 3));
        ElasticLikeService {
            catalog,
            word_index,
            trigram_index,
            name: "ElasticLike".into(),
        }
    }

    /// Approximate index size in bytes (both inverted indexes + catalog),
    /// for the storage comparison of §IV-D.
    pub fn nbytes(&self) -> usize {
        self.word_index.nbytes() + self.trigram_index.nbytes() + self.catalog.nbytes()
    }
}

impl LookupService for ElasticLikeService {
    fn lookup(&self, q: &str, k: usize) -> Vec<Candidate> {
        let qn = normalize(q);
        let word_scores = self.word_index.score(&words(&qn));
        let tri_scores = self.trigram_index.score(&qgrams(&qn, 3));
        // BTreeMap: the collected sequence below escapes into ranking
        let mut combined: BTreeMap<u32, f64> = BTreeMap::new();
        #[expect(clippy::iter_over_hash_type, reason = "at most one term per document per loop: every sum is the same in any order")]
        for (doc, s) in word_scores {
            *combined.entry(doc).or_default() += WORD_WEIGHT * s;
        }
        #[expect(clippy::iter_over_hash_type, reason = "at most one term per document per loop: every sum is the same in any order")]
        for (doc, s) in tri_scores {
            *combined.entry(doc).or_default() += (1.0 - WORD_WEIGHT) * s;
        }
        let scored: Vec<(EntityId, f32)> = combined
            .into_iter()
            .map(|(doc, s)| (self.catalog.entries()[doc as usize].entity, s as f32))
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
    use emblookup_text::NoiseKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_label_ranks_first() {
        let s = generate(SynthKgConfig::tiny(9));
        let svc = ElasticLikeService::new(&s.kg, false);
        let e = s.kg.entities().nth(7).unwrap();
        let hits = svc.lookup(&e.label, 5);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].entity, e.id, "exact label not ranked first");
    }

    #[test]
    fn trigram_leg_catches_typos() {
        let s = generate(SynthKgConfig::tiny(10));
        let svc = ElasticLikeService::new(&s.kg, false);
        let mut rng = StdRng::seed_from_u64(3);
        let mut found = 0;
        let total = 20;
        for e in s.kg.entities().take(total) {
            let noisy =
                emblookup_text::apply_noise(&e.label, NoiseKind::SubstituteChar, &mut rng);
            let hits = svc.lookup(&noisy, 10);
            if hits.iter().any(|c| c.entity == e.id) {
                found += 1;
            }
        }
        assert!(found >= total * 7 / 10, "only {found}/{total} typos recovered");
    }

    #[test]
    fn index_size_grows_with_aliases() {
        let s = generate(SynthKgConfig::tiny(11));
        let small = ElasticLikeService::new(&s.kg, false);
        let big = ElasticLikeService::new(&s.kg, true);
        assert!(big.nbytes() > small.nbytes());
    }

    #[test]
    fn empty_and_oov_queries_are_safe() {
        let s = generate(SynthKgConfig::tiny(12));
        let svc = ElasticLikeService::new(&s.kg, false);
        assert!(svc.lookup("", 5).is_empty());
        let _ = svc.lookup("zzzzqqqq", 5);
    }
}
