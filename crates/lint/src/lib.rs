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
//! The API snapshot is read from rustdoc's JSON, not from the source:
//! [`Workspace::load`] runs `cargo +nightly doc`, JSON output, into
//! `target/emblookup-lint` and renders each crate's reachable public
//! items, so what rustc exports is what is locked. A missing nightly or a
//! rustdoc `format_version` the renderer does not read is an error, never
//! a skipped check. `scripts/ci.sh` runs the `emblookup-lint` binary.
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
mod rustdoc;
mod workspace;

pub use api::{diff, Snapshot, LOCK_FILE};
pub use cargo::{parse_manifest, Manifest};
pub use layers::check_manifests;
pub use workspace::{find_root, Workspace};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`L005` or `L006`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}
