//! Character-LSTM string encoder — the "LSTM" row of Table VII.
//!
//! Trained with the same triplet objective as EmbLookup (anchor = label,
//! positive = alias or typo, negative = another entity's label) but with a
//! recurrent encoder instead of the CNN+fastText fusion.

use crate::encoder::StringEncoder;
use emblookup_tensor::nn::Lstm;
use emblookup_tensor::optim::Adam;
use emblookup_tensor::{loss, Bindings, Graph, ParamStore, Tensor, Var};
use emblookup_text::{Alphabet, OneHotEncoder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Triplet-loss margin.
const MARGIN: f32 = 0.5;
/// Adam learning rate.
const LR: f32 = 0.01;

/// Training configuration for [`LstmEncoder::train`].
#[derive(Debug, Clone)]
pub struct LstmEncoderConfig {
    /// Hidden width = output embedding dimension.
    pub hidden: usize,
    /// Maximum characters consumed per string.
    pub max_len: usize,
    /// Epochs over the triplet list.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LstmEncoderConfig {
    fn default() -> Self {
        LstmEncoderConfig {
            hidden: 64,
            max_len: 24,
            epochs: 3,
            batch: 16,
            seed: 0,
        }
    }
}

/// Trained character-LSTM encoder.
pub struct LstmEncoder {
    store: ParamStore,
    lstm: Lstm,
    onehot: OneHotEncoder,
    config: LstmEncoderConfig,
}

impl LstmEncoder {
    /// Trains the encoder on `(anchor, positive)` pairs; negatives are
    /// sampled from `negatives` (typically all entity labels).
    ///
    /// # Panics
    /// Panics when `pairs` or `negatives` is empty.
    pub fn train(
        pairs: &[(String, String)],
        negatives: &[String],
        config: LstmEncoderConfig,
    ) -> Self {
        assert!(!pairs.is_empty(), "LSTM encoder without training pairs");
        assert!(!negatives.is_empty(), "LSTM encoder without negatives");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let onehot = OneHotEncoder::new(Alphabet::default_lookup(), config.max_len);
        let in_dim = onehot.rows();
        let lstm = Lstm::new(&mut store, "lstm", in_dim, config.hidden, &mut rng);
        let mut optimizer = Adam::new(LR);

        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch) {
                let mut g = Graph::new();
                let mut b = Bindings::new();
                let mut losses = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let (anchor, positive) = &pairs[i];
                    let Some(negative) = negatives.choose(&mut rng) else { continue };
                    let ea = encode_seq(&mut g, &mut b, &store, &lstm, &onehot, anchor);
                    let ep = encode_seq(&mut g, &mut b, &store, &lstm, &onehot, positive);
                    let en = encode_seq(&mut g, &mut b, &store, &lstm, &onehot, negative);
                    losses.push(loss::triplet(&mut g, ea, ep, en, MARGIN));
                }
                let total = loss::batch_mean(&mut g, &losses);
                g.backward(total);
                optimizer.step(&mut store, &g, &b);
            }
        }
        LstmEncoder { store, lstm, onehot, config }
    }
}

/// Runs the LSTM over a string's one-hot character sequence on `g`,
/// returning the final hidden state.
fn encode_seq(
    g: &mut Graph,
    b: &mut Bindings,
    store: &ParamStore,
    lstm: &Lstm,
    onehot: &OneHotEncoder,
    s: &str,
) -> Var {
    let alphabet = onehot.alphabet();
    let rows = onehot.rows();
    let mut steps: Vec<Var> = Vec::new();
    for c in s.chars().take(onehot.max_len) {
        let mut v = vec![0.0f32; rows];
        v[alphabet.pos(c)] = 1.0;
        steps.push(g.leaf(Tensor::vector(&v)));
    }
    if steps.is_empty() {
        // empty string: single zero step keeps shapes valid
        steps.push(g.leaf(Tensor::zeros(&[rows])));
    }
    lstm.encode(g, b, store, &steps)
}

impl StringEncoder for LstmEncoder {
    fn dim(&self) -> usize {
        self.config.hidden
    }

    fn embed(&self, s: &str) -> Vec<f32> {
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let h = encode_seq(&mut g, &mut b, &self.store, &self.lstm, &self.onehot, s);
        g.value(h).data().to_vec()
    }

    fn name(&self) -> &'static str {
        "LSTM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // inlined from emblookup_ann to keep `embed` below `ann` in the
    // layer DAG (lint rule L005)
    fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn tiny_config() -> LstmEncoderConfig {
        LstmEncoderConfig {
            hidden: 12,
            max_len: 10,
            epochs: 8,
            batch: 4,
            ..Default::default()
        }
    }

    #[test]
    fn learns_to_pull_alias_pairs_together() {
        let pairs = vec![
            ("germany".to_string(), "deutschland".to_string()),
            ("germany".to_string(), "germani".to_string()),
            ("tokyo".to_string(), "tokio".to_string()),
            ("france".to_string(), "frankreich".to_string()),
        ];
        let negatives: Vec<String> = ["zanzibar", "quorn", "melbourne", "xylophone"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let enc = LstmEncoder::train(&pairs, &negatives, tiny_config());
        let g = enc.embed("germany");
        let gt = enc.embed("germani");
        let z = enc.embed("zanzibar");
        assert!(
            sq_l2(&g, &gt) < sq_l2(&g, &z),
            "typo not closer than negative: {} vs {}",
            sq_l2(&g, &gt),
            sq_l2(&g, &z)
        );
    }

    #[test]
    fn embed_handles_empty_and_weird_strings() {
        let pairs = vec![("a".to_string(), "ab".to_string())];
        let negatives = vec!["zzz".to_string()];
        let enc = LstmEncoder::train(&pairs, &negatives, LstmEncoderConfig {
            hidden: 6,
            epochs: 1,
            ..tiny_config()
        });
        assert_eq!(enc.embed("").len(), 6);
        assert_eq!(enc.embed("日本語🙂").len(), 6);
        assert!(enc.embed("x".repeat(500).as_str()).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let pairs = vec![("ab".to_string(), "abc".to_string())];
        let negatives = vec!["xyz".to_string()];
        let e1 = LstmEncoder::train(&pairs, &negatives, tiny_config());
        let e2 = LstmEncoder::train(&pairs, &negatives, tiny_config());
        assert_eq!(e1.embed("ab"), e2.embed("ab"));
    }
}
