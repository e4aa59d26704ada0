//! Workspace call graph: per-function fact extraction and call
//! resolution — the substrate of the interprocedural rules
//! (L008–L010, [`crate::rules`]) and the effect lattice
//! ([`crate::effects`]).
//!
//! # Extraction ([`scan_fns`])
//!
//! A single forward pass over a file's significant tokens tracks the
//! `impl`/`trait`/`fn` context stack and records, per function:
//!
//! * **calls** — free calls (`helper(…)`), path calls
//!   (`emblookup_ann::flat::search(…)`, `Type::method(…)`) and method
//!   calls (`recv.method(…)`), each with the set of lock guards held at
//!   the call site;
//! * **effect seeds** — local sources of the effect bits in
//!   [`crate::effects`]: panic sites (the L001 set), allocation sites
//!   (the L002 set), lock acquisitions, blocking calls. A seed covered
//!   by a justified leaf allow (`allow(L001)` for panics,
//!   `allow(L002)` for allocations/locks) is *not* recorded: the allow
//!   asserts the effect is acceptable, and transitive callers inherit
//!   that acceptance;
//! * **lock acquisitions** — `x.lock()`, `lock(&x)` (the pool idiom)
//!   and `x.read()`/`x.write()` on names declared as `RwLock`, with
//!   guard lifetimes tracked by brace depth, statement end (temporary
//!   guards) and explicit `drop(g)`;
//! * **determinism sites** — `HashMap`/`HashSet` iteration whose order
//!   escapes (unsorted `collect`, float `fold`/`sum`, `for`-loop bodies
//!   pushing into ordered sinks or emitting metrics), plus float
//!   accumulation through atomic bit-casts.
//!
//! # Resolution ([`CallGraph::build`])
//!
//! Calls resolve to candidate nodes by name, narrowed by the L005
//! machinery: qualified `emblookup_x::…` paths go to that crate,
//! `Type::method` and bare names consult the file's
//! [`crate::parser::ImportMap`], `self.method()` resolves precisely via
//! the enclosing `impl` type, and unqualified method calls
//! over-approximate to *every* same-named method in the caller's crate
//! and its manifest dependency closure — except names in
//! [`STD_METHODS`], which are overwhelmingly `std` and would otherwise
//! drown the graph in false edges (they still resolve through the
//! precise paths). Operator overloads (`a + b`) are invisible to the
//! scanner; their effects must be seeded in named functions.

use crate::cargo::Manifest;
use crate::engine::SourceFile;
use crate::facts::FileFacts;
use crate::lexer::TokenKind;
use std::collections::{BTreeSet, HashMap, HashSet};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// Callee identifier (last path segment / method name).
    pub name: String,
    /// Leading path segment for path calls (`emblookup_ann::flat::f` →
    /// `emblookup_ann`; `Type::new` → `Type`); empty for bare and
    /// method calls.
    pub qual: String,
    /// Receiver identifier for method calls (`self`, a local, or the
    /// last field of a field chain); empty otherwise.
    pub recv: String,
    /// True for `.name(…)` method calls.
    pub is_method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// Lock keys (receiver idents) held at this call site.
    pub held: Vec<String>,
}

/// A local effect source (see the bit constants in [`crate::effects`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    /// Single effect bit.
    pub effect: u8,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description (`".unwrap()"`, "`format!`", …).
    pub what: String,
}

/// One lock acquisition, with the guards already held at that point —
/// the raw material of the L009 lock-order graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockAcq {
    /// File-local lock key: the receiver ident (`registry` for
    /// `self.registry.lock()`). Crate-qualified by the effect pass.
    pub key: String,
    /// 1-based line.
    pub line: u32,
    /// Keys already held when acquiring.
    pub held: Vec<String>,
}

/// One site where unordered-container iteration order (or thread-order
/// float accumulation) escapes — an L008 determinism hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetSite {
    /// 1-based line.
    pub line: u32,
    /// Description of the escaping order.
    pub what: String,
}

/// Everything the interprocedural passes need to know about one
/// function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, empty for free functions.
    pub self_ty: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the function sits in a test region.
    pub is_test: bool,
    /// Call sites in source order.
    pub calls: Vec<CallFact>,
    /// Local effect seeds.
    pub seeds: Vec<Seed>,
    /// Lock acquisitions.
    pub acquires: Vec<LockAcq>,
    /// Determinism hazards.
    pub det_sites: Vec<DetSite>,
    /// `(rule, decl line)` of allow directives consumed by seed
    /// suppression — the stale-allow audit must count these as used
    /// even though no central violation ever matches them.
    pub seed_allows: Vec<(String, u32)>,
    /// True when the signature carries a deadline-bearing parameter or
    /// return (`DeadlineClock`, or a param named `clock`/`deadline`) —
    /// the L012 budget contract.
    pub deadline_param: bool,
    /// Lines of deadline checks/constructions in the body
    /// (`.expired()`, `.remaining_ms()`, `DeadlineClock::new`, …); a
    /// site at line L is deadline-dominated when a check precedes it.
    pub deadline_checks: Vec<u32>,
}

/// Method names that resolve only through the precise paths
/// (`self.x()` with a matching impl, `Type::x(…)`), never by blind
/// name match across the dependency closure: they are ubiquitous `std`
/// vocabulary, and over-approximating them would connect every
/// container touch to every same-named workspace method.
pub const STD_METHODS: &[&str] = &[
    "all", "and_then", "any", "append", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "binary_search", "binary_search_by", "borrow", "bytes", "chars", "checked_add", "checked_mul",
    "checked_sub", "chunks", "chunks_exact", "clear", "clone", "cloned", "cmp", "collect",
    "compare_exchange", "compare_exchange_weak", "contains", "contains_key", "copied", "count",
    "dedup", "drain", "drop", "ends_with", "entry", "enumerate", "eq", "err", "expect", "extend",
    "fetch_add", "fetch_max", "fetch_min", "fetch_or", "fetch_sub", "filter", "filter_map",
    "find", "find_map", "first", "flat_map", "flatten", "fmt", "fold", "for_each", "from_bits",
    "get", "get_mut", "get_or_insert_with", "hash", "insert", "into", "into_iter", "is_empty",
    "is_err", "is_finite", "is_nan", "is_none", "is_ok", "is_some", "iter", "iter_mut", "join",
    "keys", "last", "len", "lines", "load", "lock", "map", "map_err", "max", "max_by",
    "max_by_key", "min", "min_by", "min_by_key", "mul_add", "ne", "next", "notify_all",
    "notify_one", "ok", "or_default", "or_else", "or_insert", "or_insert_with", "parse",
    "partial_cmp", "position", "pop", "position_max", "powf", "powi", "product", "push",
    "push_str", "read", "recv", "recv_timeout", "remove", "replace", "reserve", "resize",
    "retain", "rev", "rposition", "saturating_add", "saturating_sub", "send", "skip",
    "skip_while", "sort", "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by",
    "sort_unstable_by_key", "split", "split_whitespace", "splitn", "starts_with", "step_by",
    "store", "strip_prefix", "strip_suffix", "sum", "swap", "take", "take_while", "to_bits",
    "to_lowercase", "to_owned", "to_string", "to_uppercase", "to_vec", "total_cmp", "trim",
    "try_into", "unwrap", "unwrap_or", "unwrap_or_default", "unwrap_or_else", "values",
    "values_mut", "wait", "wait_timeout", "windows", "wrapping_add", "write", "zip",
];

/// The pool's blocking entry points — exactly its public fork-join
/// calls: the caller blocks until the parallel work completes (the
/// `POOLWAIT` effect). `scatter_grained` is the one on the serve request
/// path.
pub const POOLWAIT_NAMES: &[&str] =
    &["parallel_map", "parallel_map_with", "scatter", "scatter_grained"];

/// Method names that constitute a deadline check for L012: calling any
/// of these on a clock dominates the rest of the function body.
pub const DEADLINE_METHODS: &[&str] = &[
    "deterministic_remaining_ms",
    "elapsed_ms",
    "expired",
    "frac_remaining",
    "remaining_ms",
    "virtual_elapsed_ms",
];

const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "Some", "Ok", "Err", "assert",
    "debug_assert", "matches", "vec", "write", "writeln",
];

use crate::effects::{ALLOC, BLOCKS, LOCKS, PANICS};

struct Guard {
    binding: String,
    key: String,
    depth: i32,
    /// Temporary guard (no `let`): dies at the end of the statement.
    stmt_only: bool,
}

struct FnCtx {
    fact: FnFact,
    body_depth: i32,
    guards: Vec<Guard>,
    /// `(binding, det_sites index)` of unsorted collects pending
    /// sort-absorption resolution at function close.
    pending_collects: Vec<(String, DetSite)>,
    sorted_names: HashSet<String>,
    saw_float_bits: Option<u32>,
    saw_atomic_rmw: Option<u32>,
}

/// Scans one file into per-function facts. Test functions are included
/// (marked `is_test`) so callers can decide; the graph builder skips
/// them.
pub fn scan_fns(sf: &SourceFile) -> Vec<FnFact> {
    Scanner::new(sf).run()
}

struct Scanner<'a> {
    sf: &'a SourceFile,
    sig: Vec<usize>,
    rwlock_names: HashSet<String>,
    unordered: HashSet<String>,
    out: Vec<FnFact>,
    fn_stack: Vec<FnCtx>,
    ty_stack: Vec<(String, i32)>,
    /// `(sig index of the opening brace, type name)` of impl/trait
    /// headers seen but not yet entered.
    pending_ty: Vec<(usize, String)>,
    depth: i32,
}

impl<'a> Scanner<'a> {
    fn new(sf: &'a SourceFile) -> Self {
        let toks = sf.tokens();
        let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut s = Scanner {
            sf,
            sig,
            rwlock_names: HashSet::new(),
            unordered: HashSet::new(),
            out: Vec::new(),
            fn_stack: Vec::new(),
            ty_stack: Vec::new(),
            pending_ty: Vec::new(),
            depth: 0,
        };
        s.prescan_declared_names();
        s
    }

    fn txt(&self, s: usize) -> &str {
        match self.sig.get(s) {
            Some(&j) => &self.sf.tokens()[j].text,
            None => "",
        }
    }

    fn line(&self, s: usize) -> u32 {
        self.sig.get(s).map(|&j| self.sf.tokens()[j].line).unwrap_or(0)
    }

    fn is_ident(&self, s: usize) -> bool {
        self.sig.get(s).is_some_and(|&j| self.sf.tokens()[j].kind == TokenKind::Ident)
    }

    fn kind(&self, s: usize) -> Option<TokenKind> {
        self.sig.get(s).map(|&j| self.sf.tokens()[j].kind)
    }

    /// Collects idents declared as `RwLock` / `HashMap` / `HashSet`
    /// (`name: Ty<…>` annotations and `let name = Ty::new()` inits) in
    /// a backward walk bounded by expression-boundary tokens.
    fn prescan_declared_names(&mut self) {
        for s in 0..self.sig.len() {
            let target = match self.txt(s) {
                "RwLock" => 0u8,
                "HashMap" | "HashSet" => 1u8,
                _ => continue,
            };
            let mut j = s;
            let mut name = None;
            for _ in 0..8 {
                if j == 0 {
                    break;
                }
                j -= 1;
                match self.txt(j) {
                    ")" | "(" | "{" | "}" | ";" | "," | "-" => break,
                    ":" | "=" => {
                        // `name: Ty` / `name = Ty::new()`; skip a second
                        // `:` of a `::` path (`x = foo::HashMap…` is not
                        // a declaration we model)
                        if j >= 1 && self.is_ident(j - 1) && self.txt(j.wrapping_sub(2)) != ":" {
                            name = Some(self.txt(j - 1).to_string());
                        }
                        break;
                    }
                    _ => {}
                }
            }
            if let Some(n) = name {
                if target == 0 {
                    self.rwlock_names.insert(n);
                } else {
                    self.unordered.insert(n);
                }
            }
        }
    }

    fn held_keys(&self) -> Vec<String> {
        let Some(ctx) = self.fn_stack.last() else { return Vec::new() };
        let mut keys: Vec<String> = Vec::new();
        for g in &ctx.guards {
            if !keys.contains(&g.key) {
                keys.push(g.key.clone());
            }
        }
        keys
    }

    /// Start (sig index) of the receiver path ending at the ident just
    /// before the `.` of a method call at `s` (`self.a.b.method(` →
    /// index of `self`).
    fn path_start(&self, mut j: usize) -> usize {
        loop {
            if j >= 2 && self.txt(j - 1) == "." && self.is_ident(j - 2) {
                j -= 2;
            } else if j >= 3
                && self.txt(j - 1) == ":"
                && self.txt(j - 2) == ":"
                && self.is_ident(j - 3)
            {
                j -= 3;
            } else {
                return j;
            }
        }
    }

    /// `let [mut] b = <expr at j>` / `if let Ok(b) = <expr at j>` →
    /// the binding name, if the expression is directly let-bound.
    fn let_binding(&self, j: usize) -> String {
        if j < 2 || self.txt(j - 1) != "=" {
            return String::new();
        }
        let b = j - 2;
        if self.is_ident(b) && (self.txt(b.wrapping_sub(1)) == "let" || self.txt(b.wrapping_sub(1)) == "mut") {
            return self.txt(b).to_string();
        }
        // `Ok(g)` / `Some(g)` patterns
        if self.txt(b) == ")" && b >= 3 && self.is_ident(b - 1) && self.txt(b - 2) == "(" {
            return self.txt(b - 1).to_string();
        }
        String::new()
    }

    /// For an expression starting at sig index `j`, when the statement
    /// is `let [mut] name: Ty<…> = <expr>`, returns `(name, Ty)` — the
    /// binding and the head ident of its type annotation.
    fn let_annotation(&self, j: usize) -> Option<(String, String)> {
        if j == 0 || self.txt(j - 1) != "=" {
            return None;
        }
        let mut k = j - 1;
        for _ in 0..24 {
            if k == 0 {
                return None;
            }
            k -= 1;
            match self.txt(k) {
                "let" => {
                    let mut b = k + 1;
                    if self.txt(b) == "mut" {
                        b += 1;
                    }
                    if self.is_ident(b) && self.txt(b + 1) == ":" && self.is_ident(b + 2) {
                        return Some((self.txt(b).to_string(), self.txt(b + 2).to_string()));
                    }
                    return None;
                }
                ";" | "{" | "}" => return None,
                _ => {}
            }
        }
        None
    }

    /// Matching close of the group opened at sig index `open`.
    fn match_close(&self, open: usize, oc: &str, cc: &str) -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while k < self.sig.len() {
            let t = self.txt(k);
            if t == oc {
                depth += 1;
            } else if t == cc {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            k += 1;
        }
        self.sig.len().saturating_sub(1)
    }

    fn seed(&mut self, effect: u8, line: u32, what: &str) {
        // a justified leaf allow (L001 for panics, L002 for
        // allocations/locks) also absolves transitive callers
        let gate = match effect {
            PANICS => "L001",
            ALLOC | LOCKS => "L002",
            _ => "",
        };
        if !gate.is_empty() && self.sf.allowed(gate, line) {
            let decl =
                self.sf.allow_decls().iter().find(|d| d.covers(gate, line)).map(|d| d.line);
            if let (Some(decl_line), Some(ctx)) = (decl, self.fn_stack.last_mut()) {
                let entry = (gate.to_string(), decl_line);
                if !ctx.fact.seed_allows.contains(&entry) {
                    ctx.fact.seed_allows.push(entry);
                }
            }
            return;
        }
        if let Some(ctx) = self.fn_stack.last_mut() {
            ctx.fact.seeds.push(Seed { effect, line, what: what.to_string() });
        }
    }

    /// True when the method chain continuing after the acquisition call
    /// (whose argument list closes at sig index `close`) consumes the
    /// guard: `.lock().unwrap_or_else(…).take()` binds the *taken
    /// value*, not the guard, which dies at the end of the statement.
    /// Only the poison adapters (`unwrap` / `expect` / `unwrap_or_else`)
    /// preserve the guard through a chain.
    fn chain_consumes_guard(&self, mut close: usize) -> bool {
        loop {
            if self.txt(close + 1) != "." || !self.is_ident(close + 2) {
                return false;
            }
            let m = self.txt(close + 2);
            if !matches!(m, "unwrap" | "expect" | "unwrap_or_else") || self.txt(close + 3) != "("
            {
                return true;
            }
            close = self.match_close(close + 3, "(", ")");
        }
    }

    fn acquire(&mut self, key: String, line: u32, binding: String, stmt_only: bool) {
        let held = self.held_keys();
        let depth = self.depth;
        if let Some(ctx) = self.fn_stack.last_mut() {
            ctx.fact.acquires.push(LockAcq { key: key.clone(), line, held });
            ctx.guards.push(Guard { binding, key, depth, stmt_only });
        }
    }

    fn close_fn(&mut self) {
        let Some(mut ctx) = self.fn_stack.pop() else { return };
        for (binding, site) in std::mem::take(&mut ctx.pending_collects) {
            if binding.is_empty() || !ctx.sorted_names.contains(&binding) {
                ctx.fact.det_sites.push(site);
            }
        }
        if let (Some(_), Some(line)) = (ctx.saw_float_bits, ctx.saw_atomic_rmw) {
            ctx.fact.det_sites.push(DetSite {
                line,
                what: "float accumulation through atomic bit-casts: merge order depends on \
                       thread interleaving"
                    .to_string(),
            });
        }
        self.out.push(ctx.fact);
    }

    fn run(mut self) -> Vec<FnFact> {
        let mut s = 0usize;
        while s < self.sig.len() {
            let t = self.txt(s).to_string();
            // enter a pending impl/trait body
            if let Some(pos) = self.pending_ty.iter().position(|&(b, _)| b == s) {
                let (_, ty) = self.pending_ty.remove(pos);
                self.ty_stack.push((ty, self.depth + 1));
            }
            match t.as_str() {
                "{" => self.depth += 1,
                "}" => {
                    self.depth -= 1;
                    while self.ty_stack.last().is_some_and(|&(_, d)| d > self.depth) {
                        self.ty_stack.pop();
                    }
                    while self.fn_stack.last().is_some_and(|c| c.body_depth > self.depth) {
                        self.close_fn();
                    }
                    if let Some(ctx) = self.fn_stack.last_mut() {
                        let d = self.depth;
                        ctx.guards.retain(|g| g.depth <= d);
                    }
                }
                ";" => {
                    if let Some(ctx) = self.fn_stack.last_mut() {
                        ctx.guards.retain(|g| !g.stmt_only);
                    }
                }
                "impl" | "trait" => {
                    if let Some((brace, ty)) = self.scan_type_header(s) {
                        self.pending_ty.push((brace, ty));
                    }
                }
                "fn" if self.is_ident(s + 1) => {
                    self.enter_fn(s);
                }
                "for" => {
                    self.scan_for_loop(s);
                }
                _ => {
                    if self.kind(s) == Some(TokenKind::Ident) && !self.fn_stack.is_empty() {
                        self.scan_ident(s);
                    }
                }
            }
            s += 1;
        }
        while !self.fn_stack.is_empty() {
            self.close_fn();
        }
        self.out
    }

    /// Parses an `impl`/`trait` header at `s`, returning the sig index
    /// of its opening brace and the self-type name.
    fn scan_type_header(&self, s: usize) -> Option<(usize, String)> {
        let mut k = s + 1;
        let mut angle = 0i32;
        let mut first_ty = String::new();
        let mut for_ty = String::new();
        let mut after_for = false;
        let mut prev = String::new();
        while k < self.sig.len() {
            let t = self.txt(k);
            match t {
                "<" => angle += 1,
                ">" if prev != "-" && prev != "=" => angle -= 1,
                "{" if angle <= 0 => {
                    let ty = if !for_ty.is_empty() { for_ty } else { first_ty };
                    if ty.is_empty() {
                        return None;
                    }
                    return Some((k, ty));
                }
                ";" | "}" if angle <= 0 => return None,
                "for" if angle <= 0 => after_for = true,
                "where" if angle <= 0 => after_for = false,
                _ => {
                    if angle <= 0 && self.is_ident(k) && t != "dyn" && t != "mut" {
                        if after_for && for_ty.is_empty() {
                            for_ty = t.to_string();
                        } else if first_ty.is_empty() {
                            first_ty = t.to_string();
                        }
                    }
                }
            }
            prev = t.to_string();
            k += 1;
        }
        None
    }

    fn enter_fn(&mut self, s: usize) {
        let name = self.txt(s + 1).to_string();
        let line = self.line(s);
        let is_test = self.sig.get(s).is_some_and(|&j| self.sf.in_test(j));
        // find the body `{` (or `;` — bodyless trait decls get no node),
        // extracting deadline-bearing params on the way through the
        // signature
        let mut k = s + 2;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut prev = String::new();
        let mut deadline_param = false;
        while k < self.sig.len() {
            let t = self.txt(k);
            match t {
                "(" => paren += 1,
                ")" => paren -= 1,
                "<" => angle += 1,
                ">" if prev != "-" && prev != "=" => angle -= 1,
                "{" if paren <= 0 && angle <= 0 => break,
                ";" if paren <= 0 && angle <= 0 => return,
                "DeadlineClock" => deadline_param = true,
                ":" if matches!(prev.as_str(), "clock" | "deadline") => deadline_param = true,
                _ => {}
            }
            prev = t.to_string();
            k += 1;
        }
        if k >= self.sig.len() {
            return;
        }
        let self_ty = self.ty_stack.last().map(|(t, _)| t.clone()).unwrap_or_default();
        self.fn_stack.push(FnCtx {
            fact: FnFact {
                name,
                self_ty,
                line,
                is_test,
                calls: Vec::new(),
                seeds: Vec::new(),
                acquires: Vec::new(),
                det_sites: Vec::new(),
                seed_allows: Vec::new(),
                deadline_param,
                deadline_checks: Vec::new(),
            },
            // the `{` itself is processed by the main loop, so the body
            // runs at depth + 1
            body_depth: self.depth + 1,
            guards: Vec::new(),
            pending_collects: Vec::new(),
            sorted_names: HashSet::new(),
            saw_float_bits: None,
            saw_atomic_rmw: None,
        });
    }

    /// Handles one identifier token inside a function body: call facts,
    /// effect seeds, guard bookkeeping, determinism sites.
    fn scan_ident(&mut self, s: usize) {
        let name = self.txt(s).to_string();
        let line = self.line(s);
        let next = self.txt(s + 1).to_string();
        let in_test = self.fn_stack.last().is_some_and(|c| c.fact.is_test);

        // float-atomic tracking (function-scoped flags)
        if name == "to_bits" || name == "from_bits" {
            if let Some(ctx) = self.fn_stack.last_mut() {
                ctx.saw_float_bits.get_or_insert(line);
            }
        }
        if name.starts_with("fetch_") || name.starts_with("compare_exchange") {
            if let Some(ctx) = self.fn_stack.last_mut() {
                ctx.saw_atomic_rmw.get_or_insert(line);
            }
        }

        // macro seeds
        if next == "!" {
            match name.as_str() {
                "panic" | "unreachable" | "todo" | "unimplemented" if !in_test => {
                    self.seed(PANICS, line, &format!("`{name}!`"));
                }
                "format" if !in_test => {
                    self.seed(ALLOC, line, "`format!` allocates");
                }
                _ => {}
            }
            return;
        }
        if next != "(" {
            // sort-absorption bookkeeping happens on `.sort*(` below
            return;
        }
        let prev = self.txt(s.wrapping_sub(1)).to_string();

        if prev == "." {
            self.scan_method_call(s, &name, line, in_test);
        } else if prev != "fn" && !CALL_KEYWORDS.contains(&name.as_str()) {
            self.scan_free_call(s, &name, line, in_test);
        }
    }

    fn scan_method_call(&mut self, s: usize, name: &str, line: u32, in_test: bool) {
        let recv = if self.is_ident(s.wrapping_sub(2)) {
            self.txt(s - 2).to_string()
        } else {
            String::new()
        };
        let held = self.held_keys();
        if let Some(ctx) = self.fn_stack.last_mut() {
            ctx.fact.calls.push(CallFact {
                name: name.to_string(),
                qual: String::new(),
                recv: recv.clone(),
                is_method: true,
                line,
                held,
            });
            if name.starts_with("sort") && !recv.is_empty() {
                ctx.sorted_names.insert(recv.clone());
            }
        }
        if in_test {
            return;
        }
        if DEADLINE_METHODS.contains(&name) {
            if let Some(ctx) = self.fn_stack.last_mut() {
                ctx.fact.deadline_checks.push(line);
            }
        }
        match name {
            "unwrap" | "expect" => self.seed(PANICS, line, &format!("`.{name}()` can panic")),
            "to_string" | "to_owned" => {
                self.seed(ALLOC, line, &format!("`.{name}()` allocates"))
            }
            "clone" if self.unordered.contains(recv.as_str()) => {}
            "lock" => {
                self.seed(LOCKS, line, "`.lock()` acquires a mutex");
                let consumed = self.chain_consumes_guard(self.match_close(s + 1, "(", ")"));
                let binding = if consumed {
                    String::new()
                } else {
                    self.let_binding(self.path_start(s.wrapping_sub(2)))
                };
                let stmt_only = binding.is_empty();
                let key = if recv.is_empty() { "anon".to_string() } else { recv.clone() };
                self.acquire(key, line, binding, stmt_only);
            }
            "read" | "write" if self.rwlock_names.contains(recv.as_str()) => {
                self.seed(LOCKS, line, &format!("`.{name}()` acquires an RwLock"));
                let consumed = self.chain_consumes_guard(self.match_close(s + 1, "(", ")"));
                let binding = if consumed {
                    String::new()
                } else {
                    self.let_binding(self.path_start(s.wrapping_sub(2)))
                };
                let stmt_only = binding.is_empty();
                self.acquire(recv.clone(), line, binding, stmt_only);
            }
            "recv" | "recv_timeout" => {
                self.seed(BLOCKS, line, &format!("`.{name}()` blocks on a channel"))
            }
            "join" if self.txt(s + 2) == ")" => {
                self.seed(BLOCKS, line, "`.join()` blocks until completion")
            }
            _ => {}
        }
        // determinism: unordered-container iteration escaping in a chain
        if ITER_METHODS.contains(&name) && self.unordered.contains(recv.as_str()) && !in_test {
            self.scan_iter_chain(s, &recv, line);
        }
    }

    fn scan_free_call(&mut self, s: usize, name: &str, line: u32, in_test: bool) {
        // full path: walk back over `seg::…::name`
        let start = self.path_start(s);
        let qual = if start < s { self.txt(start).to_string() } else { String::new() };
        let held = self.held_keys();
        if let Some(ctx) = self.fn_stack.last_mut() {
            ctx.fact.calls.push(CallFact {
                name: name.to_string(),
                qual: qual.clone(),
                recv: String::new(),
                is_method: false,
                line,
                held,
            });
        }
        if in_test {
            return;
        }
        // constructing a deadline clock (`DeadlineClock::new(…)`,
        // `DeadlineClock::with_virtual_ns(…)`) dominates like a check
        if qual == "DeadlineClock" {
            if let Some(ctx) = self.fn_stack.last_mut() {
                ctx.fact.deadline_checks.push(line);
            }
        }
        match name {
            "sleep" => self.seed(BLOCKS, line, "`sleep` blocks the thread"),
            "new" if qual == "Box" => self.seed(ALLOC, line, "`Box::new` allocates"),
            "from" if qual == "String" => self.seed(ALLOC, line, "`String::from` allocates"),
            // explicit guard release: `drop(g)`
            "drop" if self.is_ident(s + 2) && self.txt(s + 3) == ")" => {
                let g = self.txt(s + 2).to_string();
                if let Some(ctx) = self.fn_stack.last_mut() {
                    ctx.guards.retain(|x| x.binding != g);
                }
            }
            "lock" if qual.is_empty() || qual == "self" || qual == "crate" => {
                // the pool idiom: `let g = lock(&self.injector);`
                self.seed(LOCKS, line, "`lock(…)` acquires a mutex");
                let close = self.match_close(s + 1, "(", ")");
                let mut key = String::new();
                for k in s + 2..close {
                    if self.is_ident(k) {
                        key = self.txt(k).to_string();
                    }
                }
                if key.is_empty() {
                    key = "anon".to_string();
                }
                let consumed = self.chain_consumes_guard(close);
                let binding = if consumed {
                    String::new()
                } else {
                    self.let_binding(self.path_start(s))
                };
                let stmt_only = binding.is_empty();
                self.acquire(key, line, binding, stmt_only);
            }
            _ => {}
        }
    }

    /// Classifies the method chain hanging off an unordered-container
    /// iteration at `s` (the iter-method ident).
    fn scan_iter_chain(&mut self, s: usize, recv: &str, line: u32) {
        let mut k = self.match_close(s + 1, "(", ")");
        let chain_start = s;
        let mut methods: Vec<(String, usize)> = Vec::new(); // (name, sig idx)
        loop {
            if self.txt(k + 1) == "." && self.is_ident(k + 2) && self.txt(k + 3) == "(" {
                methods.push((self.txt(k + 2).to_string(), k + 2));
                k = self.match_close(k + 3, "(", ")");
            } else if self.txt(k + 1) == "." && self.is_ident(k + 2) && self.txt(k + 3) == ":" {
                // turbofish: `.collect::<T>()`
                methods.push((self.txt(k + 2).to_string(), k + 2));
                let mut j = k + 3;
                while j < self.sig.len() && self.txt(j) != "(" {
                    j += 1;
                }
                k = self.match_close(j, "(", ")");
            } else {
                break;
            }
        }
        let chain_end = k;
        let float_evidence = (chain_start..=chain_end).any(|j| {
            let t = self.txt(j);
            (self.kind(j) == Some(TokenKind::Number)
                && (t.contains('.') || t.ends_with("f32") || t.ends_with("f64")))
                || ((t == "f32" || t == "f64") && {
                    let p = self.txt(j.wrapping_sub(1));
                    p == "as" || p == "<"
                })
        });
        for (m, idx) in &methods {
            match m.as_str() {
                "collect" => {
                    // `.collect::<HashMap…>()` and friends keep the data
                    // unordered-by-design; order does not escape
                    let tf = self.txt(idx + 2);
                    let tf2 = self.txt(idx + 4);
                    let target = if tf == ":" { tf2 } else { "" };
                    if matches!(target, "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet") {
                        return;
                    }
                    let expr_start = self.path_start(chain_start.wrapping_sub(2));
                    let mut binding = self.let_binding(expr_start);
                    // `let x: HashMap<…> = ….collect()` — annotated
                    // target instead of a turbofish
                    if let Some((name, ty)) = self.let_annotation(expr_start) {
                        if matches!(
                            ty.as_str(),
                            "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet"
                        ) {
                            return;
                        }
                        if binding.is_empty() {
                            binding = name;
                        }
                    }
                    let site = DetSite {
                        line,
                        what: format!(
                            "iteration order of `{recv}` (HashMap/HashSet) escapes into a \
                             collected sequence; sort the result or use a BTree container"
                        ),
                    };
                    if let Some(ctx) = self.fn_stack.last_mut() {
                        ctx.pending_collects.push((binding, site));
                    }
                    return;
                }
                "sum" | "fold" => {
                    if float_evidence {
                        let site = DetSite {
                            line,
                            what: format!(
                                "float `{m}` over `{recv}` (HashMap/HashSet) iteration: \
                                 accumulation order is nondeterministic"
                            ),
                        };
                        if let Some(ctx) = self.fn_stack.last_mut() {
                            ctx.fact.det_sites.push(site);
                        }
                    }
                    return;
                }
                "for_each" => {
                    let open = self.match_close(*idx + 1, "(", ")");
                    let body_has_sink = (*idx..=open).any(|j| {
                        matches!(self.txt(j), "push" | "extend" | "counter" | "gauge" | "histogram")
                    });
                    if body_has_sink {
                        let site = DetSite {
                            line,
                            what: format!(
                                "`for_each` over `{recv}` (HashMap/HashSet) feeds an \
                                 order-sensitive sink"
                            ),
                        };
                        if let Some(ctx) = self.fn_stack.last_mut() {
                            ctx.fact.det_sites.push(site);
                        }
                    }
                    return;
                }
                // order-insensitive terminals
                "count" | "len" | "max" | "min" | "all" | "any" | "max_by_key" | "min_by_key"
                | "max_by" | "min_by" | "find" | "position" => return,
                _ => {}
            }
        }
    }

    /// `for pat in [&][mut] path { body }` over an unordered container.
    fn scan_for_loop(&mut self, s: usize) {
        if self.fn_stack.is_empty() || self.txt(s.wrapping_sub(1)) == "." {
            return;
        }
        if self.fn_stack.last().is_some_and(|c| c.fact.is_test) {
            return;
        }
        // find `in` at paren depth 0 within a short window
        let mut k = s + 1;
        let mut paren = 0i32;
        let mut found_in = None;
        while k < self.sig.len() && k < s + 24 {
            match self.txt(k) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" => break,
                "in" if paren <= 0 => {
                    found_in = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(mut j) = found_in else { return };
        j += 1;
        while matches!(self.txt(j), "&" | "mut") {
            j += 1;
        }
        // path idents: `m` / `self.counts` — the loop must iterate the
        // container directly (method chains are handled by the chain
        // scanner)
        let mut last = String::new();
        while self.is_ident(j) {
            last = self.txt(j).to_string();
            if self.txt(j + 1) == "." && self.is_ident(j + 2) && self.txt(j + 3) != "(" {
                j += 2;
            } else {
                j += 1;
                break;
            }
        }
        if last.is_empty() || !self.unordered.contains(&last) || self.txt(j) != "{" {
            return;
        }
        let line = self.line(s);
        let close = self.match_close(j, "{", "}");
        let mut sink = None;
        for b in j..=close {
            if self.txt(b + 1) == "(" && self.txt(b.wrapping_sub(1)) == "." {
                match self.txt(b) {
                    "push" | "extend" => {
                        sink = Some("builds an ordered sequence (`push`/`extend`)");
                        break;
                    }
                    "counter" | "gauge" | "histogram" | "record" | "observe" => {
                        sink = Some("emits metrics/traces in iteration order");
                        break;
                    }
                    _ => {}
                }
            }
            if self.txt(b) == "return" {
                sink = Some("returns early based on iteration order");
                break;
            }
        }
        if let Some(why) = sink {
            let site = DetSite {
                line,
                what: format!(
                    "`for` over `{last}` (HashMap/HashSet) {why}; iterate a sorted view instead"
                ),
            };
            if let Some(ctx) = self.fn_stack.last_mut() {
                ctx.fact.det_sites.push(site);
            }
        }
    }
}

/// One function in the workspace call graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Owning package (dash form).
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// True when the file carries `// lint: hot-path`.
    pub hot: bool,
    /// The function's extracted facts.
    pub fact: FnFact,
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// All non-test library functions.
    pub nodes: Vec<Node>,
    /// `resolved[node][call_index]` → candidate callee node indices.
    pub resolved: Vec<Vec<Vec<usize>>>,
}

fn dash(underscore: &str) -> String {
    underscore.replace('_', "-")
}

impl CallGraph {
    /// Builds the graph over extracted file facts, using the manifests'
    /// dependency edges to bound method over-approximation.
    pub fn build(manifests: &[Manifest], files: &[FileFacts]) -> CallGraph {
        // transitive (non-dev) dependency closure per workspace crate
        let member: HashSet<&str> = manifests.iter().map(|m| m.name.as_str()).collect();
        let direct: HashMap<&str, Vec<&str>> = manifests
            .iter()
            .map(|m| {
                let deps: Vec<&str> = m
                    .deps
                    .iter()
                    .filter(|d| !d.dev && member.contains(d.name.as_str()))
                    .map(|d| d.name.as_str())
                    .collect();
                (m.name.as_str(), deps)
            })
            .collect();
        let mut closure: HashMap<String, BTreeSet<String>> = HashMap::new();
        for m in manifests {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut stack = vec![m.name.as_str()];
            while let Some(k) = stack.pop() {
                if !seen.insert(k.to_string()) {
                    continue;
                }
                for d in direct.get(k).into_iter().flatten() {
                    stack.push(d);
                }
            }
            closure.insert(m.name.clone(), seen);
        }

        let mut nodes = Vec::new();
        let mut file_of_node: Vec<usize> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            if f.krate.is_empty() || f.class != crate::engine::FileClass::Lib {
                continue;
            }
            for fact in &f.fns {
                if fact.is_test {
                    continue;
                }
                nodes.push(Node {
                    krate: f.krate.clone(),
                    file: f.rel.clone(),
                    hot: f.hot_path,
                    fact: fact.clone(),
                });
                file_of_node.push(fi);
            }
        }

        let mut by_free: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_method: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_ty_method: HashMap<(String, String, String), Vec<usize>> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.fact.self_ty.is_empty() {
                by_free.entry((n.krate.clone(), n.fact.name.clone())).or_default().push(i);
            } else {
                by_method.entry((n.krate.clone(), n.fact.name.clone())).or_default().push(i);
                by_ty_method
                    .entry((n.krate.clone(), n.fact.self_ty.clone(), n.fact.name.clone()))
                    .or_default()
                    .push(i);
            }
        }

        let empty_closure = BTreeSet::new();
        let mut resolved: Vec<Vec<Vec<usize>>> = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let f = &files[file_of_node[i]];
            let deps = closure.get(&n.krate).unwrap_or(&empty_closure);
            let mut per_call = Vec::with_capacity(n.fact.calls.len());
            for c in &n.fact.calls {
                per_call.push(resolve_call(
                    c,
                    n,
                    f,
                    deps,
                    &by_free,
                    &by_method,
                    &by_ty_method,
                ));
            }
            resolved.push(per_call);
        }
        CallGraph { nodes, resolved }
    }
}

#[allow(clippy::too_many_arguments)] // internal resolver over prebuilt index maps
fn resolve_call(
    c: &CallFact,
    n: &Node,
    f: &FileFacts,
    deps: &BTreeSet<String>,
    by_free: &HashMap<(String, String), Vec<usize>>,
    by_method: &HashMap<(String, String), Vec<usize>>,
    by_ty_method: &HashMap<(String, String, String), Vec<usize>>,
) -> Vec<usize> {
    let free = |k: &str| -> Vec<usize> {
        by_free.get(&(k.to_string(), c.name.clone())).cloned().unwrap_or_default()
    };
    let methods = |k: &str| -> Vec<usize> {
        by_method.get(&(k.to_string(), c.name.clone())).cloned().unwrap_or_default()
    };
    let ty_methods = |k: &str, ty: &str| -> Vec<usize> {
        by_ty_method
            .get(&(k.to_string(), ty.to_string(), c.name.clone()))
            .cloned()
            .unwrap_or_default()
    };

    if !c.qual.is_empty() {
        let q = c.qual.as_str();
        if q.starts_with("emblookup_") || q == "rand" {
            let k = dash(q);
            let mut out = free(&k);
            if out.is_empty() {
                out = methods(&k);
            }
            return out;
        }
        if matches!(q, "self" | "crate" | "super") {
            let mut out = free(&n.krate);
            if out.is_empty() {
                out = methods(&n.krate);
            }
            return out;
        }
        if q.chars().next().is_some_and(|ch| ch.is_uppercase()) {
            // `Type::method` — imports narrow the crate, else the
            // caller's crate, else the precise match anywhere in the
            // dependency closure
            if let Some(kr) = f.imports.names.get(q) {
                let k = dash(kr);
                let mut out = ty_methods(&k, q);
                if out.is_empty() {
                    out = methods(&k);
                }
                return out;
            }
            let own = ty_methods(&n.krate, q);
            if !own.is_empty() {
                return own;
            }
            let mut out = Vec::new();
            for k in deps {
                out.extend(ty_methods(k, q));
            }
            return out;
        }
        // lowercase module qualifier: `flat::search(…)`
        if let Some(kr) = f.imports.names.get(q) {
            let k = dash(kr);
            let mut out = free(&k);
            if out.is_empty() {
                out = methods(&k);
            }
            return out;
        }
        return free(&n.krate);
    }

    if c.is_method {
        // `self.method()` resolves precisely through the enclosing impl
        if c.recv == "self" && !n.fact.self_ty.is_empty() {
            let own = ty_methods(&n.krate, &n.fact.self_ty);
            if !own.is_empty() {
                return own;
            }
        }
        // conservative over-approximation: any same-named method in the
        // caller's crate or its dependency closure — except ubiquitous
        // std vocabulary
        if STD_METHODS.contains(&c.name.as_str()) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for k in deps {
            out.extend(methods(k));
        }
        out.sort_unstable();
        out.dedup();
        return out;
    }

    // bare free call: same-crate free fns, then `use`-imported names,
    // then glob imports
    let own = free(&n.krate);
    if !own.is_empty() {
        return own;
    }
    if let Some(kr) = f.imports.names.get(&c.name) {
        return free(&dash(kr));
    }
    for g in &f.imports.globs {
        let out = free(&dash(g));
        if !out.is_empty() {
            return out;
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<FnFact> {
        scan_fns(&SourceFile::parse("crates/demo/src/lib.rs", src))
    }

    #[test]
    fn free_method_and_path_calls_are_recorded() {
        let src = r#"
            pub fn a() { helper(); emblookup_kg::load("x"); v.score(3); Pool::global(); }
        "#;
        let f = fns(src);
        assert_eq!(f.len(), 1);
        let calls: Vec<(&str, &str, bool)> = f[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qual.as_str(), c.is_method))
            .collect();
        assert!(calls.contains(&("helper", "", false)));
        assert!(calls.contains(&("load", "emblookup_kg", false)));
        assert!(calls.contains(&("score", "", true)));
        assert!(calls.contains(&("global", "Pool", false)));
    }

    #[test]
    fn impl_context_sets_self_ty() {
        let src = r#"
            pub struct Index;
            impl Index {
                pub fn search(&self) { self.score(); }
            }
            impl Scorer for Index {
                fn rank(&self) {}
            }
        "#;
        let f = fns(src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.self_ty == "Index"), "{f:?}");
    }

    #[test]
    fn seeds_cover_panics_allocs_locks_blocks() {
        let src = r#"
            pub fn f(m: &std::sync::Mutex<u32>) {
                let v = Some(1).unwrap();
                let s = format!("x{v}");
                let b = Box::new(3);
                let g = m.lock();
                std::thread::sleep(d);
            }
        "#;
        let f = fns(src);
        let bits: Vec<u8> = f[0].seeds.iter().map(|s| s.effect).collect();
        assert!(bits.contains(&PANICS));
        assert!(bits.contains(&ALLOC));
        assert!(bits.contains(&LOCKS));
        assert!(bits.contains(&BLOCKS));
    }

    #[test]
    fn leaf_allow_suppresses_the_seed() {
        let src = r#"
            pub fn f() {
                // lint: allow(L001) in-bounds by construction
                let v = xs.get(0).unwrap();
            }
        "#;
        let f = fns(src);
        assert!(f[0].seeds.iter().all(|s| s.effect != PANICS), "{:?}", f[0].seeds);
    }

    #[test]
    fn guard_is_held_across_calls_until_scope_or_drop() {
        let src = r#"
            pub fn f(&self) {
                let g = self.state.lock();
                self.refresh();
                drop(g);
                self.publish();
            }
        "#;
        let f = fns(src);
        let refresh = f[0].calls.iter().find(|c| c.name == "refresh").unwrap();
        assert_eq!(refresh.held, vec!["state".to_string()]);
        let publish = f[0].calls.iter().find(|c| c.name == "publish").unwrap();
        assert!(publish.held.is_empty(), "drop(g) must release the guard");
    }

    #[test]
    fn nested_acquisition_records_held_set() {
        let src = r#"
            pub fn f(&self) {
                let a = self.first.lock();
                {
                    let b = self.second.lock();
                }
                let c = self.third.lock();
            }
        "#;
        let f = fns(src);
        let acq: Vec<(&str, Vec<String>)> =
            f[0].acquires.iter().map(|a| (a.key.as_str(), a.held.clone())).collect();
        assert_eq!(acq[0], ("first", vec![]));
        assert_eq!(acq[1], ("second", vec!["first".to_string()]));
        // the inner scope released `second`; only `first` is held
        assert_eq!(acq[2], ("third", vec!["first".to_string()]));
    }

    #[test]
    fn unordered_collect_without_sort_is_a_det_site() {
        let src = r#"
            use std::collections::HashMap;
            pub fn ids(counts: &HashMap<u32, u32>) -> Vec<u32> {
                counts.keys().copied().collect()
            }
        "#;
        let f = fns(src);
        assert_eq!(f[0].det_sites.len(), 1, "{:?}", f[0].det_sites);
    }

    #[test]
    fn sorted_collect_is_absorbed() {
        let src = r#"
            use std::collections::HashMap;
            pub fn ids(counts: &HashMap<u32, u32>) -> Vec<u32> {
                let mut v: Vec<u32> = Vec::new();
                let mut ks = counts.keys().copied().collect();
                ks.sort_unstable();
                ks
            }
        "#;
        let f = fns(src);
        assert!(f[0].det_sites.is_empty(), "{:?}", f[0].det_sites);
    }

    #[test]
    fn collect_back_into_map_is_absorbed() {
        let src = r#"
            use std::collections::{HashMap, HashSet};
            pub fn invert(m: &HashMap<u32, u32>) -> HashSet<u32> {
                m.values().copied().collect::<HashSet<u32>>()
            }
        "#;
        let f = fns(src);
        assert!(f[0].det_sites.is_empty(), "{:?}", f[0].det_sites);
    }

    #[test]
    fn float_sum_over_unordered_is_a_det_site() {
        let src = r#"
            use std::collections::HashMap;
            pub fn total(w: &HashMap<u32, f32>) -> f32 {
                w.values().map(|x| *x as f64).sum()
            }
        "#;
        let f = fns(src);
        assert_eq!(f[0].det_sites.len(), 1, "{:?}", f[0].det_sites);
    }

    #[test]
    fn for_loop_push_over_unordered_is_a_det_site() {
        let src = r#"
            use std::collections::HashSet;
            pub fn gather(seen: &HashSet<u32>) -> Vec<u32> {
                let mut out = Vec::new();
                for s in seen {
                    out.push(*s);
                }
                out
            }
        "#;
        let f = fns(src);
        assert_eq!(f[0].det_sites.len(), 1, "{:?}", f[0].det_sites);
    }

    #[test]
    fn int_count_over_unordered_is_clean() {
        let src = r#"
            use std::collections::HashMap;
            pub fn n(m: &HashMap<u32, u32>) -> usize { m.keys().count() }
            pub fn s(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }
        "#;
        let f = fns(src);
        assert!(f.iter().all(|x| x.det_sites.is_empty()), "{f:?}");
    }

    #[test]
    fn deadline_params_and_checks_are_extracted() {
        let src = r#"
            pub fn stage(clock: &DeadlineClock) -> bool { clock.expired() }
            pub fn named(deadline: u64) -> u64 { deadline }
            pub fn fresh() { let c = DeadlineClock::new(50, false); }
            pub fn bare(x: u32) -> u32 { x }
        "#;
        let f = fns(src);
        assert!(f[0].deadline_param);
        assert_eq!(f[0].deadline_checks.len(), 1);
        assert!(f[1].deadline_param, "a `deadline:` param counts");
        assert!(!f[2].deadline_param);
        assert_eq!(f[2].deadline_checks.len(), 1, "construction dominates like a check");
        assert!(!f[3].deadline_param);
        assert!(f[3].deadline_checks.is_empty());
    }

    #[test]
    fn test_fns_are_marked() {
        let src = r#"
            pub fn lib() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        let f = fns(src);
        assert_eq!(f.len(), 2);
        assert!(!f[0].is_test);
        assert!(f[1].is_test);
        assert!(f[1].seeds.is_empty(), "test fns seed no effects");
    }
}
