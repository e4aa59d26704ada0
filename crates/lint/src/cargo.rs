//! A minimal `Cargo.toml` reader — just enough TOML to recover each
//! workspace member's package name and its `[dependencies]` /
//! `[dev-dependencies]` keys with line numbers. No external TOML crate:
//! the workspace builds offline, and manifest structure here is plain
//! `key = value` lines under bracketed table headers.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One dependency edge read from a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Dep {
    /// Package name as written (`emblookup-kg`, `rand`).
    pub(crate) name: String,
    /// 1-based line of the entry inside the manifest.
    pub(crate) line: u32,
    /// True for `[dev-dependencies]` entries.
    pub(crate) dev: bool,
}

/// One parsed workspace-member manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// `[package] name`.
    pub(crate) name: String,
    /// Workspace-relative manifest path (`crates/ann/Cargo.toml`).
    pub(crate) path: String,
    /// Workspace-relative directory of the package (`crates/ann`, or
    /// `.` for the root package).
    pub(crate) dir: PathBuf,
    /// Declared dependencies, normal and dev.
    pub(crate) deps: Vec<Dep>,
}

/// Parses one manifest's text. Returns `None` when no `[package]`
/// section exists (e.g. a virtual workspace manifest).
pub fn parse_manifest(path: &str, dir: &Path, text: &str) -> Option<Manifest> {
    let mut name = None;
    let mut deps = Vec::new();
    let mut table = String::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(t) = line.strip_prefix('[') {
            table = t.trim_end_matches(']').trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        match table.as_str() {
            "package" if key == "name" => {
                name = Some(value.trim().trim_matches('"').to_string());
            }
            "dependencies" | "dev-dependencies" => {
                // `foo = { … }`, `foo.workspace = true`, `foo = "1.0"`
                let dep_name = key.split('.').next().unwrap_or(key).trim().to_string();
                deps.push(Dep {
                    name: dep_name,
                    line: n as u32 + 1,
                    dev: table == "dev-dependencies",
                });
            }
            _ => {}
        }
    }
    Some(Manifest {
        name: name?,
        path: path.to_string(),
        dir: dir.to_path_buf(),
        deps,
    })
}

/// Reads every workspace-member manifest under `root`: the root package
/// (`Cargo.toml`) plus each `crates/*/Cargo.toml`.
pub(crate) fn read_manifests(root: &Path) -> io::Result<Vec<Manifest>> {
    let mut dirs = vec![PathBuf::from(".")];
    if root.join("crates").is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(root.join("crates"))?.filter_map(|e| Some(e.ok()?.path())).collect();
        members.sort();
        dirs.extend(members.iter().filter_map(|d| d.strip_prefix(root).ok().map(Path::to_path_buf)));
    }
    let mut out = Vec::new();
    for dir in dirs.iter().filter(|d| root.join(d).join("Cargo.toml").is_file()) {
        let path = dir.join("Cargo.toml").to_string_lossy().replace('\\', "/").trim_start_matches("./").to_string();
        let text = fs::read_to_string(root.join(&path))?;
        out.extend(parse_manifest(&path, dir, &text));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_name_and_dep_lines() {
        let text = "\
[package]
name = \"emblookup-demo\"
version = \"0.1.0\"

[features]
extra = []

[dependencies]
emblookup-kg.workspace = true
rand = { path = \"../rand\" }

[dev-dependencies]
emblookup-text.workspace = true
";
        let m = parse_manifest("crates/demo/Cargo.toml", Path::new("crates/demo"), text)
            .expect("manifest");
        assert_eq!(m.name, "emblookup-demo");
        let names: Vec<(&str, bool)> =
            m.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            vec![("emblookup-kg", false), ("rand", false), ("emblookup-text", true)]
        );
        // line numbers point at the entries, not the table headers
        assert_eq!(m.deps[0].line, 9);
    }

    #[test]
    fn virtual_manifest_without_package_is_skipped() {
        let text = "[workspace]\nmembers = [\"crates/*\"]\n";
        assert!(parse_manifest("Cargo.toml", Path::new("."), text).is_none());
    }

    #[test]
    fn feature_and_bench_tables_are_not_dependencies() {
        let text = "[package]\nname = \"x\"\n[[bench]]\nname = \"b\"\n[features]\nfoo = []\n";
        let m = parse_manifest("Cargo.toml", Path::new("."), text).expect("manifest");
        assert!(m.deps.is_empty());
    }
}
