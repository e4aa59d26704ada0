//! Workspace traversal: finds the `.rs` files the API snapshot covers —
//! `crates/*/src/**` and the root package's `src/**`. Integration-test
//! directories (`crates/*/tests`, `tests/`) and `target/` are out of
//! scope: they have no library surface.
//!
//! The walk is cycle-proof: symlinked directories are skipped outright
//! (lintable code is checked in directly, never behind a link) and
//! recursion depth is capped, so a `src/loop -> src` symlink or a
//! pathological directory tree cannot hang the linter.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Maximum directory nesting below each `src/` root. Real module trees
/// are a handful of levels deep; anything beyond this is a runaway.
const MAX_DEPTH: usize = 32;

/// Locates the workspace root: walks up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All lintable `.rs` files under `root`, workspace-relative, sorted.
pub(crate) fn lintable_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out, 0)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out, 0)?;
    }
    for p in &mut out {
        if let Ok(rel) = p.strip_prefix(root) {
            *p = rel.to_path_buf();
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>, depth: usize) -> io::Result<()> {
    if depth > MAX_DEPTH {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        // symlink_metadata does not follow links, so a `loop -> ..`
        // symlink is seen as a link, not as the directory it points at
        let meta = fs::symlink_metadata(&path)?;
        if meta.file_type().is_symlink() {
            continue;
        }
        if meta.is_dir() {
            collect_rs(&path, out, depth + 1)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a throwaway workspace skeleton; cleaned up on drop.
    struct TempWs(PathBuf);

    impl TempWs {
        fn new(tag: &str) -> TempWs {
            let dir = std::env::temp_dir()
                .join(format!("emblookup-lint-walk-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(dir.join("crates/a/src/nested")).unwrap();
            fs::create_dir_all(dir.join("crates/a/tests")).unwrap();
            fs::create_dir_all(dir.join("src")).unwrap();
            fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
            fs::write(dir.join("crates/a/src/lib.rs"), "pub fn a() {}\n").unwrap();
            fs::write(dir.join("crates/a/src/nested/x.rs"), "pub fn x() {}\n").unwrap();
            fs::write(dir.join("crates/a/src/notes.txt"), "not rust\n").unwrap();
            fs::write(dir.join("crates/a/tests/it.rs"), "#[test] fn t() {}\n").unwrap();
            fs::write(dir.join("src/main.rs"), "fn main() {}\n").unwrap();
            TempWs(dir)
        }
    }

    impl Drop for TempWs {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn find_root_walks_up_from_nested_dirs() {
        let ws = TempWs::new("findroot");
        let nested = ws.0.join("crates/a/src/nested");
        assert_eq!(find_root(&nested), Some(ws.0.clone()));
        assert_eq!(find_root(&ws.0), Some(ws.0.clone()));
    }

    #[test]
    fn find_root_fails_outside_a_workspace() {
        let stray = std::env::temp_dir()
            .join(format!("emblookup-lint-noroot-{}", std::process::id()));
        fs::create_dir_all(&stray).unwrap();
        assert_eq!(find_root(&stray), None);
        let _ = fs::remove_dir_all(&stray);
    }

    #[test]
    fn lintable_files_cover_src_trees_and_skip_tests_dirs() {
        let ws = TempWs::new("files");
        let files = lintable_files(&ws.0).unwrap();
        assert_eq!(
            files,
            vec![
                PathBuf::from("crates/a/src/lib.rs"),
                PathBuf::from("crates/a/src/nested/x.rs"),
                PathBuf::from("src/main.rs"),
            ]
        );
    }

    #[cfg(unix)]
    #[test]
    fn symlink_cycles_do_not_hang_the_walk() {
        let ws = TempWs::new("symlink");
        // crates/a/src/loop -> crates/a/src — unbounded without the guard
        std::os::unix::fs::symlink(ws.0.join("crates/a/src"), ws.0.join("crates/a/src/loop"))
            .unwrap();
        let files = lintable_files(&ws.0).unwrap();
        assert_eq!(files.len(), 3, "{files:?}");
    }

    #[test]
    fn depth_cap_bounds_pathological_nesting() {
        let ws = TempWs::new("depth");
        let mut deep = ws.0.join("crates/a/src");
        for _ in 0..(MAX_DEPTH + 4) {
            deep = deep.join("d");
        }
        fs::create_dir_all(&deep).unwrap();
        fs::write(deep.join("too_deep.rs"), "pub fn f() {}\n").unwrap();
        let files = lintable_files(&ws.0).unwrap();
        assert!(
            !files.iter().any(|f| f.ends_with("too_deep.rs")),
            "beyond-cap files must be ignored: {files:?}"
        );
    }
}
