//! L009 — lock discipline: a workspace-wide lock-acquisition-order
//! graph with cycle detection, and detection of guards held across
//! pool submission / fan-out / blocking calls (deadlock risk with the
//! bounded injector).

use crate::callgraph::{CallGraph, POOLWAIT_NAMES};
use crate::effects::{lock_key, Effects, BLOCKS, POOLWAIT};
use crate::engine::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// Names that block the calling thread directly at the call site.
/// `Condvar::wait` / `wait_timeout` are deliberately absent: in std
/// they exist only on `Condvar`, which *requires* the guard and
/// releases it while waiting (the canonical pool idle loop).
const BLOCKING_NAMES: &[&str] = &["recv", "recv_timeout", "sleep"];

struct Edge {
    file: String,
    line: u32,
    /// Extra chain text for interprocedural edges.
    via: Option<String>,
}

/// Runs both L009 families over the graph.
pub fn check(g: &CallGraph, fx: &Effects) -> Vec<Violation> {
    let mut out = order_cycles(g, fx);
    out.extend(held_across_pool(g, fx));
    out
}

/// Family (a): builds the lock-order graph (edge `A → B` = `B` acquired
/// while `A` is held, locally or through a call chain) and reports each
/// cycle once.
fn order_cycles(g: &CallGraph, fx: &Effects) -> Vec<Violation> {
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (i, node) in g.nodes.iter().enumerate() {
        // local: nested acquisitions in one body
        for a in &node.fact.acquires {
            let to = lock_key(&node.krate, &a.key);
            for h in &a.held {
                let from = lock_key(&node.krate, h);
                if from == to {
                    continue;
                }
                edges.entry((from, to.clone())).or_insert_with(|| Edge {
                    file: node.file.clone(),
                    line: a.line,
                    via: None,
                });
            }
        }
        // interprocedural: a call made with guards held reaches a callee
        // that transitively acquires
        for (ci, cands) in g.resolved[i].iter().enumerate() {
            let call = &node.fact.calls[ci];
            if call.held.is_empty() {
                continue;
            }
            for &j in cands {
                if j == i {
                    continue;
                }
                for key in &fx.acquires[j] {
                    for h in &call.held {
                        let from = lock_key(&node.krate, h);
                        if from == *key {
                            continue;
                        }
                        edges.entry((from, key.clone())).or_insert_with(|| Edge {
                            file: node.file.clone(),
                            line: call.line,
                            via: Some(fx.acq_chain(g, j, key)),
                        });
                    }
                }
            }
        }
    }

    // adjacency + cycle search: for each edge a→b, a path b →* a closes
    // a cycle; report it only from its lexicographically smallest key
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (a, b) in edges.keys() {
        let Some(path) = shortest_path(&adj, b, a) else { continue };
        // cycle keys: a → b → … → a
        let mut cycle: Vec<String> = Vec::with_capacity(path.len() + 1);
        cycle.push(a.clone());
        cycle.extend(path.iter().map(|s| s.to_string()));
        let min = cycle.iter().min().cloned().unwrap_or_default();
        if min != *a {
            continue; // reported from the canonical start
        }
        // canonical form for dedup (rotation-invariant by min start)
        let mut canon = cycle.clone();
        canon.pop();
        canon.sort();
        if !reported.insert(canon) {
            continue;
        }
        let e = &edges[&(a.clone(), b.clone())];
        let mut msg = format!(
            "lock-order cycle: {} — `{}` is acquired while `{}` is held at {}:{}",
            cycle.join(" → "),
            b,
            a,
            e.file,
            e.line
        );
        if let Some(via) = &e.via {
            msg.push_str(&format!(" via {via}"));
        }
        // cite the closing edges too, so every hop has a location
        for w in cycle.windows(2).skip(1) {
            if let Some(e2) = edges.get(&(w[0].clone(), w[1].clone())) {
                msg.push_str(&format!(
                    "; `{}` then `{}` at {}:{}",
                    w[0], w[1], e2.file, e2.line
                ));
                if let Some(via) = &e2.via {
                    msg.push_str(&format!(" via {via}"));
                }
            }
        }
        out.push(Violation {
            file: e.file.clone(),
            line: e.line,
            rule: "L009".to_string(),
            message: msg,
            suggestion: None,
        });
    }
    out
}

fn shortest_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    seen.insert(from);
    while let Some(x) = queue.pop_front() {
        if x == to {
            // rebuild from → … → to
            let mut path = vec![x];
            let mut cur = x;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &y in adj.get(x).into_iter().flatten() {
            if seen.insert(y) {
                prev.insert(y, x);
                queue.push_back(y);
            }
        }
    }
    None
}

/// Family (b): a guard held across a pool fan-out or a blocking call.
/// The caller of a fan-out helps run its chunks (and any other queued
/// chunk), so a chunk that needs the held lock deadlocks against it.
fn held_across_pool(g: &CallGraph, fx: &Effects) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, node) in g.nodes.iter().enumerate() {
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for (ci, cands) in g.resolved[i].iter().enumerate() {
            let call = &node.fact.calls[ci];
            if call.held.is_empty() {
                continue;
            }
            let held = call.held.join("`, `");
            if POOLWAIT_NAMES.contains(&call.name.as_str()) {
                if seen_lines.insert(call.line) {
                    out.push(Violation {
                        file: node.file.clone(),
                        line: call.line,
                        rule: "L009".to_string(),
                        message: format!(
                            "in `{}`, lock guard `{held}` is held across pool call \
                             `{}(…)` — the caller blocks here while the chunks it waits \
                             for may need the lock; drop the guard first",
                            node.fact.name, call.name
                        ),
                        suggestion: None,
                    });
                }
                continue;
            }
            if BLOCKING_NAMES.contains(&call.name.as_str()) {
                if seen_lines.insert(call.line) {
                    out.push(Violation {
                        file: node.file.clone(),
                        line: call.line,
                        rule: "L009".to_string(),
                        message: format!(
                            "in `{}`, lock guard `{held}` is held across blocking call \
                             `{}(…)`; drop the guard first",
                            node.fact.name, call.name
                        ),
                        suggestion: None,
                    });
                }
                continue;
            }
            for &j in cands {
                if j == i {
                    continue;
                }
                let bad = fx.effects[j] & (BLOCKS | POOLWAIT);
                if bad != 0 && seen_lines.insert(call.line) {
                    let bit = if bad & POOLWAIT != 0 { POOLWAIT } else { BLOCKS };
                    out.push(Violation {
                        file: node.file.clone(),
                        line: call.line,
                        rule: "L009".to_string(),
                        message: format!(
                            "in `{}`, lock guard `{held}` is held across `{}(…)`, which \
                             transitively {}: {}",
                            node.fact.name,
                            call.name,
                            crate::effects::bit_name(bit),
                            fx.chain(g, j, bit)
                        ),
                        suggestion: None,
                    });
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::propagate;
    use crate::facts::FileFacts;

    fn run(files: Vec<FileFacts>) -> (Vec<Violation>, CallGraph) {
        // every fixture crate depends on every other, so method
        // over-approximation sees the whole fixture workspace
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
        let fx = propagate(&g);
        (check(&g, &fx), g)
    }

    #[test]
    fn golden_local_lock_order_cycle() {
        let src = "\
pub struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    pub fn forward(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
    pub fn backward(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }
}
";
        let (v, _) = run(vec![FileFacts::fixture("crates/obs/src/lib.rs", "emblookup-obs", src)]);
        let cycles: Vec<&Violation> =
            v.iter().filter(|x| x.message.contains("lock-order cycle")).collect();
        assert_eq!(cycles.len(), 1, "{v:?}");
        let m = &cycles[0].message;
        assert!(m.contains("emblookup-obs::a") && m.contains("emblookup-obs::b"), "{m}");
        assert!(m.contains("crates/obs/src/lib.rs:3") || m.contains("crates/obs/src/lib.rs:4"), "{m}");
    }

    #[test]
    fn cross_crate_cycle_via_call_chain_cites_both_hops() {
        let obs = "\
pub struct Reg { names: std::sync::Mutex<u32> }
impl Reg {
    pub fn publish(&self, s: &Sink) { let g = self.names.lock(); s.flush(); }
}
";
        let serve = "\
pub struct Sink { buf: std::sync::Mutex<u32> }
impl Sink {
    pub fn flush(&self) { let g = self.buf.lock(); }
    pub fn drain(&self, r: &emblookup_obs::Reg) { let g = self.buf.lock(); r.rename(); }
}
";
        let obs2 = "\
impl Reg {
    pub fn rename(&self) { let g = self.names.lock(); }
}
";
        let (v, _) = run(vec![
            FileFacts::fixture("crates/obs/src/lib.rs", "emblookup-obs", obs),
            FileFacts::fixture("crates/obs/src/reg2.rs", "emblookup-obs", obs2),
            FileFacts::fixture("crates/serve/src/lib.rs", "emblookup-serve", serve),
        ]);
        let cycles: Vec<&Violation> =
            v.iter().filter(|x| x.message.contains("lock-order cycle")).collect();
        assert_eq!(cycles.len(), 1, "{v:?}");
        let m = &cycles[0].message;
        assert!(m.contains("emblookup-obs::names") && m.contains("emblookup-serve::buf"), "{m}");
        // interprocedural edges carry the acquisition chain
        assert!(m.contains("via"), "{m}");
    }

    #[test]
    fn golden_guard_held_across_scatter() {
        // the one pool call on the serve request path, directly and
        // through a callee (which prints the chain down to the call)
        let src = "\
pub fn gather(pool: &Pool, breakers: &std::sync::Mutex<u32>) {
    let g = breakers.lock();
    pool.scatter(4, |i| search(i));
}
pub fn search(i: usize) {}
pub fn fan_out(pool: &Pool) { pool.scatter(4, |i| search(i)); }
pub fn record(pool: &Pool, breakers: &std::sync::Mutex<u32>) {
    let g = breakers.lock();
    fan_out(pool);
}
";
        let (v, _) = run(vec![FileFacts::fixture("crates/serve/src/lib.rs", "emblookup-serve", src)]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(
            v[0].message,
            "in `gather`, lock guard `breakers` is held across pool call `scatter(…)` — the \
             caller blocks here while the chunks it waits for may need the lock; drop the \
             guard first"
        );
        assert_eq!(v[1].line, 9);
        assert_eq!(
            v[1].message,
            "in `record`, lock guard `breakers` is held across `fan_out(…)`, which \
             transitively waits-on-pool: `fan_out` (crates/serve/src/lib.rs:6: `scatter(…)`)"
        );
    }

    #[test]
    fn golden_guard_held_across_scatter_grained() {
        // the grain-taking sibling is the call `scatter_shards` makes; a
        // fan-out under its grain runs inline, but the caller cannot
        // know that, so the guard rule is the same
        let src = "\
pub fn gather(pool: &Pool, breakers: &std::sync::Mutex<u32>) {
    let g = breakers.lock();
    pool.scatter_grained(2, 8, |i| search(i));
}
pub fn search(i: usize) {}
";
        let (v, _) = run(vec![FileFacts::fixture("crates/serve/src/lib.rs", "emblookup-serve", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(
            v[0].message,
            "in `gather`, lock guard `breakers` is held across pool call `scatter_grained(…)` — \
             the caller blocks here while the chunks it waits for may need the lock; drop the \
             guard first"
        );
    }

    #[test]
    fn guard_dropped_before_scatter_is_clean() {
        let src = "\
pub fn dispatch(pool: &Pool, state: &std::sync::Mutex<u32>) {
    let g = state.lock();
    drop(g);
    pool.scatter(2, |_| work());
}
pub fn work() {}
";
        let (v, _) = run(vec![FileFacts::fixture("crates/core/src/lib.rs", "emblookup-core", src)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn guard_held_across_transitively_blocking_callee_prints_chain() {
        let kg = "pub fn settle() { std::thread::sleep(d); }\n";
        let core = "\
use emblookup_kg::settle;
pub fn update(state: &std::sync::Mutex<u32>) {
    let g = state.lock();
    settle();
}
";
        let (v, _) = run(vec![
            FileFacts::fixture("crates/kg/src/lib.rs", "emblookup-kg", kg),
            FileFacts::fixture("crates/core/src/lib.rs", "emblookup-core", core),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        let m = &v[0].message;
        assert!(m.contains("transitively blocks"), "{m}");
        assert!(m.contains("`settle` (crates/kg/src/lib.rs:1"), "chain with file:line — {m}");
    }

    #[test]
    fn consumed_guard_chain_is_not_held_across_scatter() {
        // `.lock().unwrap().take()` drops the guard at the end of the
        // statement — nothing is held when the pool call follows
        let src = "\
pub fn relay(slot: &std::sync::Mutex<Option<u32>>, pool: &Pool) {
    let v = slot.lock().unwrap().take();
    pool.scatter(2, |_| work(v));
}
pub fn work(v: Option<u32>) {}
";
        let (v, _) = run(vec![FileFacts::fixture("crates/core/src/lib.rs", "emblookup-core", src)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_chain_still_counts_as_held_guard() {
        // `.lock().unwrap()` (no consuming method) binds a live guard
        let src = "\
pub fn relay(slot: &std::sync::Mutex<u32>, pool: &Pool) {
    let g = slot.lock().unwrap();
    pool.scatter(2, |_| work());
}
pub fn work() {}
";
        let (v, _) = run(vec![FileFacts::fixture("crates/core/src/lib.rs", "emblookup-core", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("held across"), "{}", v[0].message);
    }

    #[test]
    fn condvar_wait_timeout_under_guard_is_not_blocking() {
        // the canonical pool idle loop: the condvar *requires* the
        // guard and releases it while parked
        let src = "\
pub fn park(done: &std::sync::Mutex<bool>, cv: &std::sync::Condvar) {
    let guard = done.lock().unwrap();
    let _ = cv.wait_timeout(guard, d);
}
";
        let (v, _) = run(vec![FileFacts::fixture("crates/pool/src/lib.rs", "emblookup-pool", src)]);
        assert!(v.is_empty(), "{v:?}");
    }
}
