//! # emblookup-embed
//!
//! Trainable string and word encoders for the EmbLookup reproduction:
//! the fastText-style subword model that powers EmbLookup's semantic leg,
//! plus the word2vec, character-LSTM and BERT-mini baselines of the
//! paper's Table VII. All models are trained from scratch on a corpus
//! verbalized from the knowledge graph — no pre-trained checkpoints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bert_mini;
pub mod corpus;
pub mod encoder;
pub mod fasttext;
pub mod lstm_encoder;
pub mod sgns;
pub mod word2vec;

pub use bert_mini::{BertMini, BertMiniConfig};
pub use corpus::Corpus;
pub use encoder::StringEncoder;
pub use fasttext::{FastText, FastTextConfig};
pub use lstm_encoder::{LstmEncoder, LstmEncoderConfig};
pub use word2vec::{Word2Vec, Word2VecConfig};
