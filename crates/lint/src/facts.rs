//! Per-file analysis facts — everything the workspace passes need,
//! decoupled from the token stream.
//!
//! [`FileFacts::extract`] runs every per-file pass once (raw rule
//! violations, `emblookup_*::` references, public API items) and the
//! workspace driver ([`crate::workspace`]) then works purely on facts:
//! central allow suppression, the stale-allow audit and the L005/L006
//! checks never touch a [`SourceFile`] again.

use crate::engine::{AllowDecl, FileClass, NameRegistry, SourceFile, Violation};
use crate::parser::{crate_refs, public_items, ApiItem, CrateRef};

/// The complete analysis output for one source file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub rel: String,
    /// Path relative to the owning crate's `src/` (API provenance).
    pub src_rel: String,
    /// Owning package name (dash form); empty when the file sits
    /// outside any workspace manifest.
    pub krate: String,
    /// Library or binary code.
    pub class: FileClass,
    /// Allow directives in declaration order.
    pub allows: Vec<AllowDecl>,
    /// Raw per-file violations (no allow suppression applied).
    pub raw: Vec<Violation>,
    /// `emblookup_*::` source references (L005 input).
    pub refs: Vec<CrateRef>,
    /// Public API items (L006 snapshot input).
    pub api: Vec<ApiItem>,
}

impl FileFacts {
    /// Runs every per-file pass over `src`.
    pub fn extract(
        rel: &str,
        src_rel: &str,
        krate: &str,
        src: &str,
        registry: &NameRegistry,
    ) -> FileFacts {
        let sf = SourceFile::parse(rel, src);
        FileFacts {
            rel: rel.to_string(),
            src_rel: src_rel.to_string(),
            krate: krate.to_string(),
            class: sf.class,
            allows: sf.allow_decls().to_vec(),
            raw: sf.check_raw(registry),
            refs: crate_refs(&sf),
            api: public_items(&sf),
        }
    }

    /// Convenience for fixture tests: extracts facts from an in-memory
    /// source string with an empty metric-name registry, taking the
    /// file name as `src_rel`.
    pub fn fixture(rel: &str, krate: &str, src: &str) -> FileFacts {
        let name = rel.rsplit('/').next().unwrap_or(rel);
        FileFacts::extract(rel, name, krate, src, &NameRegistry::new())
    }

    /// True when an allow directive for `rule` covers `line`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|d| d.covers(rule, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_collects_all_fact_kinds() {
        let src = "\
use emblookup_kg::Candidate;

pub fn f(x: f32) -> bool {
    // lint: allow(L007) fixture reason
    x == 0.5
}
";
        let f = FileFacts::extract(
            "crates/demo/src/lib.rs",
            "lib.rs",
            "emblookup-demo",
            src,
            &NameRegistry::new(),
        );
        assert_eq!(f.class, FileClass::Lib);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.refs.len(), 1, "{:?}", f.refs);
        assert!(!f.api.is_empty());
        // raw L007 for the comparison is present even though allowed —
        // the workspace pass suppresses centrally and audits usage
        assert!(f.raw.iter().any(|v| v.rule == "L007"), "{:?}", f.raw);
        assert!(f.allowed("L007", 5));
    }
}
