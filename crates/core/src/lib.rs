//! # emblookup-core
//!
//! The paper's primary contribution: **EmbLookup**, an embedding-based
//! entity-lookup service for knowledge graphs (Abuoda et al., ICDE 2022).
//!
//! The pipeline: mentions are embedded by a CNN (syntactic leg) fused with
//! a frozen fastText model (semantic leg) through a two-layer MLP, trained
//! with triplet loss on mined `(anchor, positive, negative)` string
//! triplets — aliases, synthetic typos, and same-type labels as positives.
//! Entity embeddings are optionally compressed with product quantization
//! (256 B → 8 B per entity) and served from a nearest-neighbour index.
//!
//! ```no_run
//! use emblookup_core::{EmbLookup, EmbLookupConfig};
//! use emblookup_kg::{generate, LookupService, SynthKgConfig};
//!
//! let synth = generate(SynthKgConfig::small(42));
//! let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(42));
//! let hits = service.lookup("germany", 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod encoder_index;
pub mod errors;
pub mod index;
pub mod mining;
pub mod model;
pub mod service;
pub mod shards;
pub mod trainer;

pub use config::{Compression, EmbLookupConfig, LossKind};
pub use encoder_index::EncoderIndex;
pub use errors::TrainError;
pub use index::EntityIndex;
pub use mining::{mine_triplets, MiningConfig, Triplet, TripletFamily};
pub use model::{EmbLookupModel, EncodeScratch};
pub use service::{num_threads, EmbLookup};
pub use shards::{merge_topk, shard_of, ShardedIndex};
pub use trainer::{train, EpochStats, TrainReport};
