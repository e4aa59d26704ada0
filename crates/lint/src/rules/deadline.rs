//! L012 — deadline propagation: every function reachable from a
//! `crates/serve` request handler that blocks (a `BLOCKS` seed or a
//! pool fan-out: `parallel_map*`, `scatter*`) must either receive a
//! deadline-bearing parameter (`DeadlineClock`, or a param named
//! `clock`/`deadline`) or be dominated by a deadline check
//! (`.expired()`, `.remaining_ms()`, a `DeadlineClock::…`
//! construction) earlier in the caller chain.
//!
//! The analysis is a may-unguarded reachability pass over the call
//! graph: handlers (`handle_*` in `emblookup-serve`) start unguarded;
//! an edge at call line L stays unguarded only when the caller has no
//! deadline param and no deadline check at or before L. A blocking
//! site in an unguarded-reachable function that is not itself
//! dominated is a violation, reported with the handler→…→site witness
//! chain (file:line per hop).

use crate::callgraph::{CallGraph, POOLWAIT_NAMES};
use crate::effects::BLOCKS;
use crate::engine::Violation;
use std::collections::VecDeque;

fn guarded_at(g: &CallGraph, i: usize, line: u32) -> bool {
    let fact = &g.nodes[i].fact;
    fact.deadline_param || fact.deadline_checks.iter().any(|&l| l <= line)
}

/// Renders the unguarded call chain from the nearest handler to node
/// `i`: `` `handler` (file:line) → … → `leaf` ``.
fn chain(g: &CallGraph, parent: &[Option<(usize, u32)>], i: usize) -> String {
    let mut path = vec![i];
    let mut cur = i;
    while let Some((p, _)) = parent[cur] {
        path.push(p);
        cur = p;
        if path.len() > 12 {
            break;
        }
    }
    path.reverse();
    let mut parts = Vec::with_capacity(path.len());
    for (k, &n) in path.iter().enumerate() {
        match path.get(k + 1).and_then(|&next| parent[next]) {
            Some((_, call_line)) => parts.push(format!(
                "`{}` ({}:{})",
                g.nodes[n].fact.name, g.nodes[n].file, call_line
            )),
            None => parts.push(format!("`{}`", g.nodes[n].fact.name)),
        }
    }
    parts.join(" → ")
}

/// Checks deadline propagation from serve request handlers.
pub fn check(g: &CallGraph) -> Vec<Violation> {
    let n = g.nodes.len();
    let mut unguarded = vec![false; n];
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, node) in g.nodes.iter().enumerate() {
        if node.krate == "emblookup-serve" && node.fact.name.starts_with("handle_") {
            unguarded[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for (ci, cands) in g.resolved[i].iter().enumerate() {
            let call = &g.nodes[i].fact.calls[ci];
            if guarded_at(g, i, call.line) {
                continue;
            }
            for &j in cands {
                if j == i || unguarded[j] {
                    continue;
                }
                unguarded[j] = true;
                parent[j] = Some((i, call.line));
                queue.push_back(j);
            }
        }
    }

    let mut out = Vec::new();
    for (i, _) in unguarded.iter().enumerate().filter(|(_, &u)| u) {
        let node = &g.nodes[i];
        let mut sites: Vec<(u32, String)> = node
            .fact
            .seeds
            .iter()
            .filter(|s| s.effect == BLOCKS)
            .map(|s| (s.line, s.what.clone()))
            .collect();
        for c in &node.fact.calls {
            if POOLWAIT_NAMES.contains(&c.name.as_str()) {
                sites.push((c.line, format!("`{}(…)` blocks on pool fan-out", c.name)));
            }
        }
        sites.sort();
        sites.dedup();
        for (line, what) in sites {
            if guarded_at(g, i, line) {
                continue;
            }
            out.push(Violation {
                file: node.file.clone(),
                line,
                rule: "L012".to_string(),
                message: format!(
                    "`{}` blocks without a deadline budget ({}:{}: {what}) and is reachable \
                     from a serve request handler: {} — pass a `DeadlineClock` parameter down \
                     the chain or dominate the site with a deadline check",
                    node.fact.name,
                    node.file,
                    line,
                    chain(g, &parent, i),
                ),
                suggestion: None,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::FileFacts;

    fn run(files: Vec<FileFacts>) -> Vec<Violation> {
        let mut names: Vec<String> = files.iter().map(|f| f.krate.clone()).collect();
        names.sort();
        names.dedup();
        let manifests: Vec<_> = names
            .iter()
            .map(|k| {
                let dir = format!("crates/{}", k.trim_start_matches("emblookup-"));
                let mut text = format!("[package]\nname = \"{k}\"\n[dependencies]\n");
                for other in &names {
                    if other != k {
                        text.push_str(&format!("{other}.workspace = true\n"));
                    }
                }
                crate::cargo::parse_manifest(
                    &format!("{dir}/Cargo.toml"),
                    std::path::Path::new(&dir),
                    &text,
                )
                .expect("fixture manifest")
            })
            .collect();
        let g = CallGraph::build(&manifests, &files);
        check(&g)
    }

    #[test]
    fn golden_unbudgeted_blocking_chain_is_flagged() {
        let serve = "\
use emblookup_pool::drain;
pub fn handle_lookup(req: u32) -> u32 { stage(req) }
pub fn stage(req: u32) -> u32 { drain(req) }
";
        let pool = "\
pub fn drain(req: u32) -> u32 { rx.recv(); req }
";
        let v = run(vec![
            FileFacts::fixture("crates/serve/src/server.rs", "emblookup-serve", serve),
            FileFacts::fixture("crates/pool/src/lib.rs", "emblookup-pool", pool),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "L012");
        assert_eq!(
            v[0].message,
            "`drain` blocks without a deadline budget (crates/pool/src/lib.rs:1: `.recv()` \
             blocks on a channel) and is reachable from a serve request handler: \
             `handle_lookup` (crates/serve/src/server.rs:2) → `stage` \
             (crates/serve/src/server.rs:3) → `drain` — pass a `DeadlineClock` parameter \
             down the chain or dominate the site with a deadline check",
        );
    }

    #[test]
    fn deadline_parameter_satisfies_the_contract() {
        let serve = "\
use emblookup_pool::drain;
pub fn handle_lookup(req: u32) -> u32 { stage(req) }
pub fn stage(req: u32) -> u32 { drain(req) }
";
        let pool = "\
pub fn drain(req: u32, clock: &DeadlineClock) -> u32 { rx.recv(); req }
";
        let v = run(vec![
            FileFacts::fixture("crates/serve/src/server.rs", "emblookup-serve", serve),
            FileFacts::fixture("crates/pool/src/lib.rs", "emblookup-pool", pool),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn dominating_deadline_check_guards_downstream_edges() {
        let serve = "\
use emblookup_pool::drain;
pub fn handle_lookup(req: u32, clock: &DeadlineClock) -> u32 {
    if clock.expired() { return 0; }
    drain(req)
}
pub fn handle_bulk(req: u32) -> u32 {
    drain(req)
}
";
        let pool = "\
pub fn drain(req: u32) -> u32 { rx.recv(); req }
";
        let v = run(vec![
            FileFacts::fixture("crates/serve/src/server.rs", "emblookup-serve", serve),
            FileFacts::fixture("crates/pool/src/lib.rs", "emblookup-pool", pool),
        ]);
        // reachable unguarded through handle_bulk, guarded through
        // handle_lookup — the may-analysis keeps the unguarded path
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`handle_bulk`"), "{}", v[0].message);
    }

    #[test]
    fn golden_clockless_handler_to_scatter_chain_is_flagged() {
        // the shape of the real request path: handler → stage → the
        // shard scatter on the global pool, with no clock anywhere
        let serve = "\
pub fn handle_lookup(req: u32) -> u32 { search_stage(req) }
pub fn search_stage(req: u32) -> u32 { scatter_shards(req) }
pub fn scatter_shards(req: u32) -> u32 { Pool::global().scatter(2, |i| i); req }
";
        let v = run(vec![FileFacts::fixture(
            "crates/serve/src/server.rs",
            "emblookup-serve",
            serve,
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(
            v[0].message,
            "`scatter_shards` blocks without a deadline budget (crates/serve/src/server.rs:3: \
             `scatter(…)` blocks on pool fan-out) and is reachable from a serve request \
             handler: `handle_lookup` (crates/serve/src/server.rs:1) → `search_stage` \
             (crates/serve/src/server.rs:2) → `scatter_shards` — pass a `DeadlineClock` \
             parameter down the chain or dominate the site with a deadline check",
        );
    }

    #[test]
    fn non_handler_roots_are_not_checked() {
        let serve = "\
pub fn accept_loop(req: u32) -> u32 { rx.recv(); req }
";
        let v = run(vec![FileFacts::fixture(
            "crates/serve/src/server.rs",
            "emblookup-serve",
            serve,
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
