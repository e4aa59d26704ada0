//! # emblookup-baselines
//!
//! The competing lookup services of the paper's evaluation (Table V):
//! exact match, Levenshtein scan, q-gram, FuzzyWuzzy-style token matching,
//! an ElasticSearch-like word+trigram BM25 engine, MinHash LSH, and
//! simulated remote endpoints (Wikidata API, SearX) with deterministic
//! latency/rate-limit cost models. All implement
//! [`emblookup_kg::LookupService`] so annotation systems can swap them for
//! EmbLookup transparently.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
pub mod elastic;
pub mod elastic_ops;
pub mod lsh_service;
pub mod metasearch;
pub mod remote;
pub mod scan;

pub use elastic::ElasticLikeService;
pub use elastic_ops::{ElasticOp, ElasticOpService};
pub use lsh_service::LshService;
pub use metasearch::MetaSearchService;
pub use remote::{RemoteCostModel, RemoteService};
pub use scan::{ExactMatchService, FuzzyWuzzyService, LevenshteinService, QGramService};
