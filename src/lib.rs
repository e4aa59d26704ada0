//! # EmbLookup
//!
//! A full Rust reproduction of *"Accelerating Entity Lookups in Knowledge
//! Graphs Through Embeddings"* (Abuoda, Thirumuruganathan, Aboulnaga —
//! ICDE 2022), including every substrate the paper depends on: a minimal
//! deep-learning stack, a knowledge-graph store with synthetic Wikidata /
//! DBPedia-style generators, similarity search with product quantization,
//! baseline lookup services, and the semantic-table-annotation systems of
//! the evaluation.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `emblookup-core` | the EmbLookup model, trainer, index, service |
//! | [`kg`] | `emblookup-kg` | knowledge graphs, synthetic generators, `LookupService` |
//! | [`text`] | `emblookup-text` | one-hot encoding, string distances, noise |
//! | [`embed`] | `emblookup-embed` | fastText, word2vec, LSTM, BERT-mini encoders |
//! | [`ann`] | `emblookup-ann` | flat/PQ/PCA/PQ-fused HNSW/LSH similarity search |
//! | [`baselines`] | `emblookup-baselines` | competing lookup services |
//! | [`semtab`] | `emblookup-semtab` | tables, datasets, CEA/CTA/EA/DR tasks, systems |
//! | [`serve`] | `emblookup-serve` | hardened HTTP serving: admission control, deadlines, degradation ladder |
//! | [`tensor`] | `emblookup-tensor` | tensors, autograd, layers, optimizers |
//!
//! ## Quick start
//!
//! ```no_run
//! use emblookup::prelude::*;
//!
//! let synth = generate(SynthKgConfig::small(42));
//! let service = EmbLookup::train_on(&synth.kg, EmbLookupConfig::fast(42));
//! for hit in service.lookup("germoney", 5) {
//!     println!("{} ({:.3})", synth.kg.label(hit.entity), hit.score);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use emblookup_ann as ann;
pub use emblookup_baselines as baselines;
pub use emblookup_core as core;
pub use emblookup_embed as embed;
pub use emblookup_kg as kg;
pub use emblookup_obs as obs;
pub use emblookup_semtab as semtab;
pub use emblookup_serve as serve;
pub use emblookup_tensor as tensor;
pub use emblookup_text as text;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use emblookup_core::{Compression, EmbLookup, EmbLookupConfig};
    pub use emblookup_kg::{
        generate, Candidate, EntityId, KnowledgeGraph, LookupService, SynthKgConfig,
    };
    pub use emblookup_semtab::{generate_dataset, run_cea_cta, DatasetConfig, TaskReport};
}
