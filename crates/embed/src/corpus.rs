//! Training corpus derived from a knowledge graph.
//!
//! The paper bootstraps semantic similarity by training fastText on
//! "entity names and their synonyms" (§III-B). We verbalize the KG into
//! token sentences: label/alias co-occurrence sentences tie an entity's
//! surface forms together, and fact sentences tie related entities together.

use emblookup_kg::{KnowledgeGraph, Object};
use emblookup_text::tokenize::words;
use std::collections::HashMap;

/// A tokenized training corpus with an integer vocabulary.
#[derive(Debug, Default)]
pub struct Corpus {
    /// Sentences as sequences of vocabulary ids.
    pub sentences: Vec<Vec<u32>>,
    vocab: Vec<String>,
    index: HashMap<String, u32>,
    counts: Vec<u64>,
}

impl Corpus {
    /// Builds the corpus from a knowledge graph.
    ///
    /// Three sentence families:
    ///
    /// 1. **Surface/context**: every surface form (label *and* each alias)
    ///    paired with the entity's context — its type name and up to three
    ///    neighbour labels. Shared contexts are what align skip-gram
    ///    *input* vectors, so this family is what makes an alias land near
    ///    its label in embedding space.
    /// 2. **Label/alias pairs**: direct co-occurrence of the two forms.
    /// 3. **Fact verbalizations**: `subject property object`, with the
    ///    subject's surface form sampled from label ∪ aliases so aliases
    ///    inherit the label's relational contexts.
    pub fn from_kg(kg: &KnowledgeGraph) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut corpus = Corpus::default();
        for e in kg.entities() {
            let label_tokens = words(&e.label);
            // context tokens: type names + a few neighbour labels
            let mut context: Vec<String> = e
                .types
                .iter()
                .flat_map(|&t| words(kg.type_name(t)))
                .collect();
            for n in kg.neighbors(e.id).into_iter().take(3) {
                context.extend(words(kg.label(n)));
            }
            // 1. surface/context sentences
            let surface_context = |surface_tokens: Vec<String>, corpus: &mut Corpus| {
                let mut sent = surface_tokens;
                sent.extend(context.iter().cloned());
                corpus.add_sentence(sent);
            };
            surface_context(label_tokens.clone(), &mut corpus);
            for alias in &e.aliases {
                surface_context(words(alias), &mut corpus);
            }
            // 2. label/alias pair sentences
            for alias in &e.aliases {
                let mut sent = label_tokens.clone();
                sent.extend(words(alias));
                corpus.add_sentence(sent);
            }
        }
        // 3. fact sentences with alias-substituted subjects
        for fact in kg.facts() {
            if let Object::Entity(obj) = fact.object {
                let subject = kg.entity(fact.subject);
                let surface = if !subject.aliases.is_empty() && rng.gen_bool(0.5) {
                    &subject.aliases[rng.gen_range(0..subject.aliases.len())]
                } else {
                    &subject.label
                };
                let mut sent = words(surface);
                sent.extend(words(kg.property_name(fact.property)));
                sent.extend(words(kg.label(obj)));
                corpus.add_sentence(sent);
            }
        }
        corpus
    }

    /// Adds one tokenized sentence, interning tokens into the vocabulary.
    pub fn add_sentence(&mut self, tokens: Vec<String>) {
        if tokens.is_empty() {
            return;
        }
        let ids = tokens.into_iter().map(|t| self.intern(t)).collect();
        self.sentences.push(ids);
    }

    fn intern(&mut self, token: String) -> u32 {
        if let Some(&id) = self.index.get(&token) {
            self.counts[id as usize] += 1;
            return id;
        }
        let id = self.vocab.len() as u32;
        self.index.insert(token.clone(), id);
        self.vocab.push(token);
        self.counts.push(1);
        id
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Token string for a vocabulary id.
    pub fn token(&self, id: u32) -> &str {
        &self.vocab[id as usize]
    }

    /// Vocabulary id of a token, if present.
    #[cfg(test)]
    pub(crate) fn id_of(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Corpus frequency of a vocabulary id.
    pub(crate) fn count(&self, id: u32) -> u64 {
        self.counts[id as usize]
    }

    /// All token counts (for negative-sampling tables).
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of tokens across all sentences.
    #[cfg(test)]
    pub(crate) fn num_tokens(&self) -> usize {
        self.sentences.iter().map(Vec::len).sum()
    }

    /// Iterates `(center, context)` skip-gram pairs with the given window.
    pub(crate) fn pairs(&self, window: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.sentences.iter().flat_map(move |sent| {
            sent.iter().enumerate().flat_map(move |(i, &center)| {
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(sent.len());
                (lo..hi)
                    .filter(move |&j| j != i)
                    .map(move |j| (center, sent[j]))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emblookup_kg::{generate, SynthKgConfig};

    #[test]
    fn kg_corpus_ties_labels_to_aliases() {
        let s = generate(SynthKgConfig::tiny(1));
        let corpus = Corpus::from_kg(&s.kg);
        assert!(corpus.vocab_size() > 50);
        assert!(corpus.sentences.len() >= s.kg.num_entities());
        // first label token of entity 0 must be in vocabulary
        let e0 = s.kg.entities().next().unwrap();
        let tok = words(&e0.label).remove(0);
        assert!(corpus.id_of(&tok).is_some());
    }

    #[test]
    fn pairs_respect_window() {
        let mut c = Corpus::default();
        c.add_sentence(vec!["a".into(), "b".into(), "c".into(), "d".into()]);
        let pairs: Vec<(u32, u32)> = c.pairs(1).collect();
        // each interior token pairs with both neighbours; ends with one
        assert_eq!(pairs.len(), 2 + 2 + 2); // a-b, b-a, b-c, c-b, c-d, d-c
    }

    #[test]
    fn counts_accumulate() {
        let mut c = Corpus::default();
        c.add_sentence(vec!["x".into(), "x".into(), "y".into()]);
        let x = c.id_of("x").unwrap();
        assert_eq!(c.count(x), 2);
        assert_eq!(c.num_tokens(), 3);
    }

    #[test]
    fn empty_sentences_are_dropped() {
        let mut c = Corpus::default();
        c.add_sentence(vec![]);
        assert!(c.sentences.is_empty());
    }
}
