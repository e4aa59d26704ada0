//! word2vec (skip-gram with negative sampling) — a Table VII baseline.
//!
//! Whole-word vectors only: a token outside the training vocabulary
//! contributes nothing to the string embedding, which is exactly why the
//! paper finds word2vec collapses under typos (F-score 0.72 → 0.29).

use crate::corpus::Corpus;
use crate::encoder::StringEncoder;
use crate::sgns::{NegativeSampler, SgnsModel};
use emblookup_text::tokenize::words;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Skip-gram window.
const WINDOW: usize = 4;
/// Negative samples per pair.
const NEGATIVES: usize = 5;
/// SGD learning rate.
const LR: f32 = 0.05;

/// Training configuration for [`Word2Vec::train`].
#[derive(Debug, Clone, Copy)]
pub struct Word2VecConfig {
    /// Embedding dimension (paper-scale default 64).
    pub dim: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Word2VecConfig { dim: 64, epochs: 5, seed: 0 }
    }
}

/// Trained word2vec model.
pub struct Word2Vec {
    model: SgnsModel,
    vocab: HashMap<String, u32>,
}

impl Word2Vec {
    /// Trains skip-gram over the corpus.
    ///
    /// # Panics
    /// Panics on an empty corpus.
    pub fn train(corpus: &Corpus, config: Word2VecConfig) -> Self {
        assert!(corpus.vocab_size() > 0, "word2vec over empty corpus");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut model = SgnsModel::new(corpus.vocab_size(), corpus.vocab_size(), config.dim, &mut rng);
        let sampler = NegativeSampler::new(corpus.counts());
        let mut negs = vec![0u32; NEGATIVES];
        for _ in 0..config.epochs {
            for (center, context) in corpus.pairs(WINDOW) {
                for n in &mut negs {
                    *n = sampler.sample(&mut rng);
                }
                model.train_pair(&[center], context, &negs, LR);
            }
        }
        let vocab = (0..corpus.vocab_size() as u32)
            .map(|id| (corpus.token(id).to_string(), id))
            .collect();
        Word2Vec { model, vocab }
    }
}

impl StringEncoder for Word2Vec {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    /// Mean of the in-vocabulary token vectors; out-of-vocabulary tokens
    /// (misspellings!) are silently dropped, so a fully-OOV string embeds
    /// to zero.
    fn embed(&self, s: &str) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim()];
        let mut hit = 0usize;
        for token in words(s) {
            if let Some(&id) = self.vocab.get(&token) {
                let v = self.model.embed_features(&[id]);
                for (a, x) in acc.iter_mut().zip(v) {
                    *a += x;
                }
                hit += 1;
            }
        }
        if hit > 0 {
            let inv = 1.0 / hit as f32;
            for a in &mut acc {
                *a *= inv;
            }
        }
        acc
    }

    fn name(&self) -> &'static str {
        "word2vec"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_corpus() -> Corpus {
        let mut c = Corpus::default();
        // "germany" and "deutschland" share the context "europe";
        // "tokyo" and "japan" share "asia" — shared contexts are what
        // aligns skip-gram *input* vectors.
        for _ in 0..50 {
            c.add_sentence(vec!["germany".into(), "europe".into()]);
            c.add_sentence(vec!["deutschland".into(), "europe".into()]);
            c.add_sentence(vec!["germany".into(), "deutschland".into()]);
            c.add_sentence(vec!["tokyo".into(), "asia".into()]);
            c.add_sentence(vec!["japan".into(), "asia".into()]);
            c.add_sentence(vec!["tokyo".into(), "japan".into()]);
        }
        c
    }

    fn cos(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (na * nb + 1e-9)
    }

    #[test]
    fn cooccurring_words_are_closer() {
        let w2v = Word2Vec::train(
            &toy_corpus(),
            Word2VecConfig { dim: 16, epochs: 20, ..Default::default() },
        );
        let g = w2v.embed("germany");
        let d = w2v.embed("deutschland");
        let t = w2v.embed("tokyo");
        assert!(cos(&g, &d) > cos(&g, &t), "{} <= {}", cos(&g, &d), cos(&g, &t));
    }

    #[test]
    fn oov_embeds_to_zero() {
        let w2v = Word2Vec::train(&toy_corpus(), Word2VecConfig { dim: 8, epochs: 1, ..Default::default() });
        // the typo makes the token OOV — word2vec's known weakness
        let v = w2v.embed("germani");
        assert!(v.iter().all(|&x| x == 0.0));
        assert!(w2v.embed("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn multiword_is_mean_of_tokens() {
        let w2v = Word2Vec::train(&toy_corpus(), Word2VecConfig { dim: 8, epochs: 1, ..Default::default() });
        let g = w2v.embed("germany");
        let j = w2v.embed("japan");
        let both = w2v.embed("germany japan");
        for i in 0..8 {
            assert!((both[i] - (g[i] + j[i]) / 2.0).abs() < 1e-5);
        }
    }
}
