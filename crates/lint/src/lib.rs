//! # emblookup-lint
//!
//! In-tree static analysis for the two invariants of the EmbLookup
//! workspace that neither rustc nor clippy checks:
//!
//! * **L005** ([`check_manifests`]): every manifest edge
//!   (`[dependencies]` and `[dev-dependencies]`) flows down the declared
//!   layer DAG (DESIGN.md §1.1).
//! * **L006** ([`Snapshot`], [`diff`]): the public API of every library
//!   crate matches the checked-in `API.lock`.
//!
//! The API snapshot reads every file under `crates/*/src` and `src/`
//! with a minimal Rust lexer and a tolerant item-level parser, so
//! comments, string literals and `#[cfg(test)]` items never count as
//! surface. [`Workspace`] loads the manifests and sources once and runs
//! both rules; the `emblookup-lint` binary drives it from
//! `scripts/ci.sh`.
//!
//! Everything else is carried by a type or by clippy: metric names are
//! `emblookup_obs::names::Name`s, float discipline is `clippy::float_cmp`
//! plus `disallowed-methods` in `clippy.toml`, and `scripts/ci.sh` greps
//! for task markers without a reference. CONTRIBUTING.md ("Static
//! analysis") maps each retired rule id to its replacement.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod api;
mod cargo;
mod layers;
mod lexer;
mod parser;
mod source;
mod walk;
mod workspace;

pub use api::{diff, Snapshot, LOCK_FILE};
pub use cargo::{parse_manifest, Manifest};
pub use layers::check_manifests;
pub use source::Violation;
pub use walk::find_root;
pub use workspace::Workspace;
