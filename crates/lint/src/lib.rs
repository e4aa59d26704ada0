//! # emblookup-lint
//!
//! In-tree static analysis for the EmbLookup workspace, built on a
//! minimal Rust lexer ([`lexer`]) and a tolerant item-level parser
//! ([`parser`]). Two families of passes:
//!
//! * **Per-file** ([`engine`]): panic-freedom in library code (L001),
//!   lock/allocation bans in `// lint: hot-path` modules (L002),
//!   metric-name provenance from `emblookup_obs::names` (L003),
//!   task-marker hygiene (L004), float discipline — NaN-hazardous
//!   `==`/`partial_cmp` patterns (L007) — and confinement of
//!   `std::sync::atomic` to `crates/obs/src/sync.rs` (L011).
//! * **Workspace-level** ([`workspace`]): crate-layering conformance
//!   against the declared layer DAG (L005, [`layers`]) and public-API
//!   drift gating against the checked-in `API.lock` (L006, [`api`]),
//!   fed by the [`cargo`] manifest reader and [`parser`] item extractor.
//! * **Interprocedural** ([`rules`]): a workspace call graph
//!   ([`callgraph`]) with a propagated effect lattice ([`effects`])
//!   drives determinism analysis (L008), lock-order/pool-interaction
//!   discipline (L009), transitive hot-path effect gating (L010) and
//!   deadline propagation from serve request handlers to every
//!   reachable blocking site (L012), with diagnostics that print the
//!   offending call chain.
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
pub mod callgraph;
pub mod cargo;
pub mod effects;
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
/// (L001–L004, L007, L011); the workspace passes need manifests and a lockfile
/// and run through [`Workspace`].
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    SourceFile::parse(path, src).check(&obs_name_registry())
}
