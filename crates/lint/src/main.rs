//! `emblookup-lint` CLI: loads the workspace model, runs every pass and
//! reports violations. Exit code 0 = clean, 1 = violations, 2 =
//! usage/IO error.
//!
//! ```text
//! emblookup-lint [--root DIR] [--format text|json]
//!                [--api-check | --api-bless]
//! emblookup-lint --explain Lxxx
//! ```
//!
//! * `--api-check` additionally diffs the current public-API snapshot
//!   against the checked-in `API.lock` (rule L006).
//! * `--api-bless` regenerates `API.lock` from the current tree and
//!   exits; commit the result to acknowledge an API change.
//! * `--explain Lxxx` prints the rule's rationale, an offending example
//!   and the escape-hatch policy from the in-source rule-doc table.
//!
//! Advisory warnings (the stale-allow audit) are printed after the
//! violations and never affect the exit code.
//!
//! # JSON output schema (`--format json`)
//!
//! One line, stable field order (goldenable):
//!
//! ```json
//! {"violations":[
//!    {"file":"crates/x/src/lib.rs","line":3,"rule":"L003",
//!     "message":"…","suggestion":"…"}],
//!  "warnings":[],
//!  "files_checked":42,
//!  "rule_counts":{"L003":1,"L004":0,"L005":0,"L006":0,"L007":0}}
//! ```
//!
//! `violations` is sorted by (file, line, rule); `suggestion` appears
//! only on violations that carry one (L003 literals with a registered
//! constant); `warnings` holds the advisory stale-allow audit;
//! `rule_counts` always lists every catalog rule, zeros included, in
//! catalog order.

#![forbid(unsafe_code)]

use emblookup_lint::{api, obs_name_registry, report, rules, walk, workspace, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    json: bool,
    api_check: bool,
    api_bless: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        api_check: false,
        api_bless: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--api-check" => opts.api_check = true,
            "--api-bless" => opts.api_bless = true,
            "--explain" => {
                let v = args.next().ok_or("--explain requires a rule id (e.g. L007)")?;
                opts.explain = Some(v);
            }
            "--help" | "-h" => {
                println!(
                    "emblookup-lint [--root DIR] [--format text|json] [--api-check | --api-bless] | --explain Lxxx\n\
                     Repo-specific lints: L003 metric names, L004 TODO hygiene, L005 crate layering,\n\
                     L006 API drift (API.lock), L007 float discipline. The rest is clippy's\n\
                     (workspace Cargo.toml [workspace.lints.clippy] and clippy.toml).\n\
                     `--explain Lxxx` prints any rule's rationale, example and escape-hatch policy."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.api_check && opts.api_bless {
        return Err("--api-check and --api-bless are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    if let Some(id) = &opts.explain {
        return match rules::explain(id) {
            Some(text) => {
                println!("{text}");
                Ok(ExitCode::SUCCESS)
            }
            None => Err(format!(
                "unknown rule `{id}`; known rules: {}",
                rules::RULE_DOCS.iter().map(|d| d.id).collect::<Vec<_>>().join(", ")
            )),
        };
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let root = match opts.root {
        Some(r) => r,
        None => walk::find_root(&cwd)
            .ok_or("no workspace root found (run inside the repo or pass --root)")?,
    };
    let registry = obs_name_registry();
    let ws = Workspace::load(&root, &registry)?;

    if opts.api_bless {
        let snapshot = ws.api_snapshot();
        let lock_path = root.join(api::LOCK_FILE);
        std::fs::write(&lock_path, snapshot.render())
            .map_err(|e| format!("writing {}: {e}", lock_path.display()))?;
        println!(
            "emblookup-lint: blessed {} ({} crates, {} public items)",
            api::LOCK_FILE,
            snapshot.sections.len(),
            snapshot.sections.values().map(|s| s.len()).sum::<usize>()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let report = ws.check();
    let mut violations = report.violations;
    let warnings = report.warnings;
    if opts.api_check {
        let lock_path = root.join(api::LOCK_FILE);
        let lock_text = std::fs::read_to_string(&lock_path).map_err(|e| {
            format!(
                "reading {}: {e} (run `emblookup-lint --api-bless` to create it)",
                lock_path.display()
            )
        })?;
        violations.extend(api::diff(&lock_text, &ws.api_snapshot()));
        workspace::sort(&mut violations);
    }

    if opts.json {
        println!("{}", report::render_json(&violations, &warnings, ws.files.len()));
    } else {
        for v in &violations {
            println!("{}:{}: {}: {}", v.file, v.line, v.rule, v.message);
        }
        for w in &warnings {
            println!("{}:{}: warning: {}", w.file, w.line, w.message);
        }
        println!("emblookup-lint: {}", report::render_rule_summary(&violations));
        println!(
            "emblookup-lint: {} files checked, {} violation{}, {} warning{}{}",
            ws.files.len(),
            violations.len(),
            if violations.len() == 1 { "" } else { "s" },
            warnings.len(),
            if warnings.len() == 1 { "" } else { "s" },
            if opts.api_check { " (API.lock checked)" } else { "" }
        );
    }

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
