//! The effect lattice propagated over the call graph.
//!
//! Each function gets a bitset of effects; a call edge joins the
//! callee's bits into the caller (set union — the lattice join), and a
//! worklist iterates to the least fixed point. Recursion is handled
//! naturally: a cycle's members converge on the union of the cycle's
//! seeds. Every `(function, bit)` pair keeps one **witness** — the
//! local seed or the call that first introduced the bit — so
//! diagnostics can print a concrete chain from any function down to the
//! line that causes the effect (DESIGN.md §1.2).
//!
//! Alongside the effect bits, the same fixed point computes each
//! function's *transitive lock-acquisition set* (which lock keys it may
//! take, directly or through callees), the substrate of the L009
//! cross-crate lock-order graph.

use crate::callgraph::{CallGraph, POOLWAIT_NAMES};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Allocates on the heap (the L002 vocabulary: `format!`,
/// `.to_string()`, `.to_owned()`, `Box::new`, `String::from`).
pub const ALLOC: u8 = 1 << 0;
/// Acquires a `Mutex`/`RwLock`.
pub const LOCKS: u8 = 1 << 1;
/// Blocks the calling thread (`sleep`, channel `recv`, `join()`).
pub const BLOCKS: u8 = 1 << 2;
/// May panic (`unwrap`/`expect`/`panic!`/`unreachable!`/…).
pub const PANICS: u8 = 1 << 3;
/// Produces results whose order depends on unordered iteration or
/// thread interleaving (an L008 determinism hazard).
pub const NONDET: u8 = 1 << 4;
/// Waits for pool fan-out to complete (the `parallel_map` and
/// `scatter` families): the caller blocks, helping, until every chunk has run.
pub const POOLWAIT: u8 = 1 << 5;

/// Human-readable name of a single effect bit.
pub fn bit_name(bit: u8) -> &'static str {
    match bit {
        ALLOC => "allocates",
        LOCKS => "locks",
        BLOCKS => "blocks",
        PANICS => "panics",
        NONDET => "nondeterministic-order",
        POOLWAIT => "waits-on-pool",
        _ => "unknown",
    }
}

/// Why a function carries an effect bit: a local seed, or a call to a
/// callee that carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// Seeded in the function body.
    Local {
        /// 1-based line of the seed.
        line: u32,
        /// Seed description.
        what: String,
    },
    /// Inherited through a call.
    Call {
        /// 1-based line of the call site.
        line: u32,
        /// Callee node index.
        callee: usize,
    },
}

/// Fixed-point result over a [`CallGraph`].
pub struct Effects {
    /// `effects[node]` — the node's effect bitset.
    pub effects: Vec<u8>,
    /// One witness per `(node, bit)`; key is `(node, bit)`.
    pub witness: BTreeMap<(usize, u8), Witness>,
    /// Transitive lock-acquisition keys per node (crate-qualified).
    pub acquires: Vec<BTreeSet<String>>,
    /// For each `(node, key)` in the transitive set: the local line or
    /// call that introduces it.
    pub acq_witness: BTreeMap<(usize, String), Witness>,
}

const ALL_BITS: [u8; 6] = [ALLOC, LOCKS, BLOCKS, PANICS, NONDET, POOLWAIT];

/// Crate-qualified lock key for a file-local receiver ident.
pub fn lock_key(krate: &str, ident: &str) -> String {
    format!("{krate}::{ident}")
}

/// Propagates seeds over the graph to the least fixed point.
pub fn propagate(g: &CallGraph) -> Effects {
    let n = g.nodes.len();
    let mut effects = vec![0u8; n];
    let mut witness: BTreeMap<(usize, u8), Witness> = BTreeMap::new();
    let mut acquires: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut acq_witness: BTreeMap<(usize, String), Witness> = BTreeMap::new();

    // reverse edges: callee -> callers (for worklist re-queueing)
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, per_call) in g.resolved.iter().enumerate() {
        for cands in per_call {
            for &j in cands {
                if !callers[j].contains(&i) {
                    callers[j].push(i);
                }
            }
        }
    }

    // seed pass
    for (i, node) in g.nodes.iter().enumerate() {
        // a `lock(…)` call that resolves to a workspace-defined helper
        // carries that helper's own effects (and its allow directives)
        // through the call edge; the call-site idiom seed only stands
        // in when resolution fails
        let mut resolved_lock_lines: BTreeSet<u32> = BTreeSet::new();
        for (ci, c) in node.fact.calls.iter().enumerate() {
            if c.name == "lock" && !c.is_method && !g.resolved[i][ci].is_empty() {
                resolved_lock_lines.insert(c.line);
            }
        }
        for s in &node.fact.seeds {
            if s.effect == LOCKS
                && s.what.starts_with("`lock(…)`")
                && resolved_lock_lines.contains(&s.line)
            {
                continue;
            }
            if effects[i] & s.effect == 0 {
                effects[i] |= s.effect;
                witness.insert((i, s.effect), Witness::Local { line: s.line, what: s.what.clone() });
            }
        }
        for a in &node.fact.acquires {
            let key = lock_key(&node.krate, &a.key);
            if acquires[i].insert(key.clone()) {
                acq_witness.insert(
                    (i, key),
                    Witness::Local { line: a.line, what: "lock acquired here".to_string() },
                );
            }
        }
        for c in &node.fact.calls {
            if POOLWAIT_NAMES.contains(&c.name.as_str()) && effects[i] & POOLWAIT == 0 {
                effects[i] |= POOLWAIT;
                witness.insert(
                    (i, POOLWAIT),
                    Witness::Local { line: c.line, what: format!("`{}(…)`", c.name) },
                );
            }
        }
    }

    // worklist to fixed point
    let mut queue: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(i) = queue.pop() {
        queued[i] = false;
        // join callee facts into i
        let mut new_bits = effects[i];
        let mut new_keys: Vec<(String, Witness)> = Vec::new();
        for (ci, cands) in g.resolved[i].iter().enumerate() {
            let call = &g.nodes[i].fact.calls[ci];
            for &j in cands {
                if j == i {
                    continue;
                }
                let missing = effects[j] & !new_bits;
                if missing != 0 {
                    new_bits |= missing;
                    for &b in &ALL_BITS {
                        if missing & b != 0 {
                            witness
                                .entry((i, b))
                                .or_insert(Witness::Call { line: call.line, callee: j });
                        }
                    }
                }
                for k in &acquires[j] {
                    if !acquires[i].contains(k) {
                        new_keys.push((k.clone(), Witness::Call { line: call.line, callee: j }));
                    }
                }
            }
        }
        let mut changed = new_bits != effects[i];
        effects[i] = new_bits;
        for (k, w) in new_keys {
            if acquires[i].insert(k.clone()) {
                acq_witness.entry((i, k)).or_insert(w);
                changed = true;
            }
        }
        if changed {
            for c in callers[i].clone() {
                if !queued[c] {
                    queued[c] = true;
                    queue.push(c);
                }
            }
        }
    }

    Effects { effects, witness, acquires, acq_witness }
}

impl Effects {
    /// Renders the witness chain for `(node, bit)` as
    /// `` `fn` (file:line) → … → `leaf` (file:line: what) ``, capped at
    /// 12 hops.
    pub fn chain(&self, g: &CallGraph, mut node: usize, bit: u8) -> String {
        let mut hops: Vec<String> = Vec::new();
        let mut seen = BTreeSet::new();
        for _ in 0..12 {
            if !seen.insert(node) {
                hops.push("…".to_string());
                break;
            }
            let nd = &g.nodes[node];
            match self.witness.get(&(node, bit)) {
                Some(Witness::Local { line, what }) => {
                    hops.push(format!("`{}` ({}:{}: {what})", nd.fact.name, nd.file, line));
                    break;
                }
                Some(Witness::Call { line, callee }) => {
                    hops.push(format!("`{}` ({}:{})", nd.fact.name, nd.file, line));
                    node = *callee;
                }
                None => {
                    hops.push(format!("`{}` ({}:{})", nd.fact.name, nd.file, nd.fact.line));
                    break;
                }
            }
        }
        hops.join(" → ")
    }

    /// Renders the chain from `node` to where lock `key` is acquired.
    pub fn acq_chain(&self, g: &CallGraph, mut node: usize, key: &str) -> String {
        let mut hops: Vec<String> = Vec::new();
        let mut seen = BTreeSet::new();
        for _ in 0..12 {
            if !seen.insert(node) {
                hops.push("…".to_string());
                break;
            }
            let nd = &g.nodes[node];
            match self.acq_witness.get(&(node, key.to_string())) {
                Some(Witness::Local { line, .. }) => {
                    hops.push(format!(
                        "`{}` ({}:{}: acquires `{key}`)",
                        nd.fact.name, nd.file, line
                    ));
                    break;
                }
                Some(Witness::Call { line, callee }) => {
                    hops.push(format!("`{}` ({}:{})", nd.fact.name, nd.file, line));
                    node = *callee;
                }
                None => {
                    hops.push(format!("`{}` ({}:{})", nd.fact.name, nd.file, nd.fact.line));
                    break;
                }
            }
        }
        hops.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::facts::FileFacts;

    fn graph(files: &[FileFacts]) -> CallGraph {
        let manifests: Vec<_> = files
            .iter()
            .map(|f| {
                let dir = format!("crates/{}", f.krate.trim_start_matches("emblookup-"));
                crate::cargo::parse_manifest(
                    &format!("{dir}/Cargo.toml"),
                    std::path::Path::new(&dir),
                    &format!("[package]\nname = \"{}\"\n", f.krate),
                )
                .expect("fixture manifest")
            })
            .collect();
        CallGraph::build(&manifests, files)
    }

    #[test]
    fn effects_propagate_transitively_across_crates() {
        let a = FileFacts::fixture(
            "crates/kg/src/lib.rs",
            "emblookup-kg",
            "pub fn leaf() { let s = format!(\"x\"); }\n",
        );
        let b = FileFacts::fixture(
            "crates/core/src/lib.rs",
            "emblookup-core",
            "use emblookup_kg::leaf;\npub fn mid() { leaf(); }\npub fn top() { mid(); }\n",
        );
        let g = graph(&[a, b]);
        let fx = propagate(&g);
        let top = g.nodes.iter().position(|n| n.fact.name == "top").unwrap();
        assert!(fx.effects[top] & ALLOC != 0, "ALLOC must reach `top` two hops up");
        let chain = fx.chain(&g, top, ALLOC);
        assert!(chain.contains("`top`") && chain.contains("`mid`") && chain.contains("`leaf`"), "{chain}");
        assert!(chain.contains("crates/kg/src/lib.rs"), "{chain}");
    }

    #[test]
    fn recursion_converges() {
        let a = FileFacts::fixture(
            "crates/kg/src/lib.rs",
            "emblookup-kg",
            "pub fn even(n: u32) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u32) -> bool { if n == 0 { let s = format!(\"x\"); false } else { even(n - 1) } }\n",
        );
        let g = graph(&[a]);
        let fx = propagate(&g);
        for n in 0..g.nodes.len() {
            assert!(fx.effects[n] & ALLOC != 0, "cycle member missing ALLOC");
        }
    }

    #[test]
    fn transitive_acquires_cross_function_boundaries() {
        let a = FileFacts::fixture(
            "crates/obs/src/lib.rs",
            "emblookup-obs",
            "pub struct R { inner: std::sync::Mutex<u32> }\n\
             impl R {\n  pub fn bump(&self) { let g = self.inner.lock(); }\n}\n\
             pub fn touch(r: &R) { r.bump(); }\n",
        );
        let g = graph(&[a]);
        let fx = propagate(&g);
        let touch = g.nodes.iter().position(|n| n.fact.name == "touch").unwrap();
        assert!(
            fx.acquires[touch].contains("emblookup-obs::inner"),
            "{:?}",
            fx.acquires[touch]
        );
    }
}
