//! # emblookup-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (`src/bin/repro.rs` → `repro_full.md` → EXPERIMENTS.md), the paper's
//! claims as a table of checks on them ([`claims`]), and the ANN
//! scale tiers (`src/bin/ann_bench.rs` → `BENCH_ann.json`). End-to-end and
//! per-layer latencies are `benchmark/`'s, not this crate's.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod claims;
mod experiments;
pub mod harness;
pub mod report;
