//! # emblookup-bench
//!
//! Experiment harness regenerating every table and figure of the paper.
//! See `src/bin/repro.rs` for the table/figure reproductions and
//! `benches/` for the micro-benchmarks (run on the in-tree [`micro`]
//! runner so the workspace needs no external bench framework).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod micro;
