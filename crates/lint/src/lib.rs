//! # emblookup-lint
//!
//! In-tree static analysis for the EmbLookup workspace, built on a
//! minimal Rust lexer ([`lexer`]) and a tolerant item-level parser
//! ([`parser`]). It checks only what the compiler and clippy cannot:
//!
//! * **Per-file** ([`engine`]): metric-name provenance from
//!   `emblookup_obs::names` (L003), task-marker hygiene (L004) and float
//!   discipline — NaN-hazardous `==`/`partial_cmp` patterns (L007).
//! * **Workspace-level** ([`workspace`]): crate-layering conformance
//!   against the declared layer DAG (L005, [`layers`]) and public-API
//!   drift gating against the checked-in `API.lock` (L006, [`api`]),
//!   fed by the [`cargo`] manifest reader and [`parser`] item extractor.
//!
//! Panic-freedom, `unsafe` documentation, atomics confinement and
//! hash-order iteration are clippy lints set in the workspace
//! `Cargo.toml` and `clippy.toml` (CONTRIBUTING.md maps each retired
//! rule id to its replacement).
//!
//! Allow-directive suppression is applied centrally by [`workspace`]
//! so stale directives can be audited.
//!
//! The `emblookup-lint` binary walks `crates/*/src` and `src/`
//! ([`walk`]), renders text or golden-stable JSON ([`report`]) and
//! explains any rule via `--explain Lxxx` (from the
//! [`rules::RULE_DOCS`] table). It is wired into `scripts/ci.sh` as a
//! hard gate (with `--api-check`).
//!
//! See CONTRIBUTING.md ("Static analysis") for the rule catalog, the
//! `// lint: allow(Lxxx) reason` escape-hatch policy and the
//! `--api-bless` workflow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod cargo;
pub mod engine;
pub mod facts;
pub mod layers;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod walk;
pub mod workspace;

pub use engine::{classify, obs_name_registry, FileClass, NameRegistry, SourceFile, Violation};
pub use facts::FileFacts;
pub use workspace::{Report, Workspace};

/// Lints a single in-memory source file against the obs name registry —
/// the entry point the fixture tests use. Runs the per-file passes
/// (L003, L004, L007); the workspace passes need manifests and a lockfile
/// and run through [`Workspace`].
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    SourceFile::parse(path, src).check(&obs_name_registry())
}
