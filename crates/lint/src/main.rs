//! `emblookup-lint` CLI: loads the workspace (rustdoc's JSON built first by
//! `cargo +nightly doc`), checks the layer DAG (L005) and the public API
//! against `API.lock` (L006), and reports violations. Exit code 0 = clean,
//! 1 = violations, 2 = usage, IO or rustdoc error (a missing nightly too).
//!
//! ```text
//! emblookup-lint [--root DIR] [--api-bless]
//! ```
//!
//! * `--root DIR` checks the workspace at `DIR` instead of the one
//!   enclosing the current directory.
//! * `--api-bless` regenerates `API.lock` from the current tree and
//!   exits; commit the result to acknowledge an API change.

#![forbid(unsafe_code)]

use emblookup_lint::{find_root, Workspace, LOCK_FILE};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "emblookup-lint [--root DIR] [--api-bless]\n\
    Checks crate layering (L005) and public-API drift against API.lock (L006).\n\
    `--api-bless` rewrites API.lock from the current tree instead.";

fn run() -> Result<ExitCode, String> {
    let mut root = None;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(args.next().ok_or("--root requires a directory")?)),
            "--api-bless" => bless = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_root(&cwd).ok_or("no workspace root found (run inside the repo or pass --root)")?
        }
    };
    let ws = Workspace::load(&root)?;
    let lock_path = root.join(LOCK_FILE);

    if bless {
        let text = ws.api.render();
        std::fs::write(&lock_path, &text)
            .map_err(|e| format!("writing {}: {e}", lock_path.display()))?;
        let items = text.lines().filter(|l| !l.is_empty() && !l.starts_with(['#', '['])).count();
        println!("emblookup-lint: blessed {LOCK_FILE} ({items} public items)");
        return Ok(ExitCode::SUCCESS);
    }

    let lock_text = std::fs::read_to_string(&lock_path).map_err(|e| {
        format!("reading {}: {e} (run `emblookup-lint --api-bless` to create it)", lock_path.display())
    })?;
    let violations = ws.check(&lock_text);
    for v in &violations {
        println!("{}:{}: {}: {}", v.file, v.line, v.rule, v.message);
    }
    let count = |rule: &str| violations.iter().filter(|v| v.rule == rule).count();
    println!(
        "emblookup-lint: L005 {}, L006 {} — {} crates checked, {} violation{}",
        count("L005"),
        count("L006"),
        ws.crates,
        violations.len(),
        if violations.len() == 1 { "" } else { "s" },
    );
    Ok(if violations.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("emblookup-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}
