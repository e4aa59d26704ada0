//! # emblookup-kg
//!
//! Knowledge-graph substrate for the EmbLookup reproduction: the
//! `⟨E, T, P, F⟩` store of the paper's formalization, alias-formation rules
//! (abbreviations, formal long forms, pseudo-translations, historical
//! variants), and deterministic synthetic graph generators standing in for
//! the Wikidata and DBPedia dumps that cannot ship with the repository.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aliases;
pub mod lookup;
pub mod model;
pub mod names;
pub mod serialize;
pub mod synth;

pub use lookup::{Candidate, LookupService};
pub use model::{Entity, EntityId, Fact, KnowledgeGraph, Object, PropertyId, TypeId};
pub use serialize::{kg_from_bytes, kg_to_bytes};
pub use synth::{generate, KgFlavor, SynthKg, SynthKgConfig};
