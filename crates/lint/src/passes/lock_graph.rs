//! R11 — `lock-graph-acyclic`.
//!
//! R4 (PR 4) checked nested `.lock()` acquisitions *within one function*
//! against a hand-declared hierarchy, which is exactly the check that
//! cannot see the real deadlocks: a cycle assembled across two functions
//! (or two crates) through ordinary calls. This pass *infers* the global
//! lock-acquisition graph instead. For every function in the
//! lock-bearing crates (`served`, `store`) it records which
//! locks the function acquires directly (receiver of `.lock()` /
//! `.lock_unpoisoned()`, with guard lifetimes tracked the way R4 did:
//! block-scoped for `let`-bound guards, statement-scoped for
//! temporaries); a fixpoint over the call graph then propagates "may
//! acquire" sets through call edges, so holding `a` while calling a
//! function that (transitively) takes `b` contributes the edge `a → b`.
//! Any cycle in the resulting digraph — including the self-edge of a
//! re-entrant acquisition — is denied, with each edge's witness call
//! path in the message.
//!
//! The declared hierarchy (`state → queue`) is no longer an input: it is
//! a *theorem* this pass re-derives (the edge exists and sits in an
//! acyclic graph) rather than an axiom a maintainer must keep in sync.

use crate::callgraph::Workspace;
use crate::engine::{Finding, Severity, SourceFile};
use crate::lexer::TokKind;
use crate::passes::Pass;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose mutexes participate in the global lock graph.
const SCOPE: &[&str] = &["crates/served/src/", "crates/store/src/"];

/// The lock-graph acyclicity pass. See the module docs.
pub struct LockGraphAcyclic;

/// One lock currently considered held at a point in the scan.
struct Held {
    name: String,
    /// Brace depth at acquisition: popped when the scan leaves the block.
    depth: i32,
    /// Temporary guard (not `let`-bound): popped at end of statement.
    stmt_scoped: bool,
}

/// If code token `j` is the method ident of a lock acquisition —
/// `recv.lock(` or `recv.lock_unpoisoned(` — returns the receiver's last
/// identifier (`shared.state.lock()` → `state`).
pub(crate) fn lock_receiver(file: &SourceFile, j: usize) -> Option<String> {
    if !(file.is_ident(j, "lock") || file.is_ident(j, "lock_unpoisoned")) {
        return None;
    }
    if !(j >= 2 && file.is_punct(j - 1, '.') && file.is_punct(j + 1, '(')) {
        return None;
    }
    (file.tok(j - 2).kind == TokKind::Ident).then(|| file.ct(j - 2).to_string())
}

/// Whether the lock expression whose `lock` ident sits at `j` is bound by
/// a `let` (guard lives to end of block) rather than used as a temporary
/// (guard dropped at end of statement). Walks the receiver chain
/// backwards to its head, then looks for a `=` binding.
pub(crate) fn is_let_bound(file: &SourceFile, j: usize) -> bool {
    let mut k = j - 1; // the '.' before lock
    loop {
        if k == 0 {
            return false;
        }
        if file.is_punct(k, '.') && k >= 1 && file.tok(k - 1).kind == TokKind::Ident {
            if k >= 2 && file.is_punct(k - 2, '.') {
                k -= 2;
                continue;
            }
            k -= 1; // chain head ident
            break;
        }
        return false;
    }
    if k == 0 {
        return false;
    }
    if !file.is_punct(k - 1, '=') {
        return false;
    }
    // `==`, `!=`, `<=`, `>=` are comparisons, not bindings.
    !(k >= 2
        && (file.is_punct(k - 2, '=')
            || file.is_punct(k - 2, '!')
            || file.is_punct(k - 2, '<')
            || file.is_punct(k - 2, '>')))
}

/// Per-function lock behaviour extracted by the scanner.
#[derive(Default)]
struct FnLocks {
    /// Every acquisition: `(lock name, token)`.
    direct: Vec<(String, usize)>,
    /// Nested acquisition: `(held, acquired, token)`.
    nest: Vec<(String, String, usize)>,
    /// Resolved call made while holding locks: `(held names, site)`.
    calls_under: Vec<(Vec<String>, usize)>,
}

/// How a lock entered a function's may-acquire summary.
#[derive(Clone, Copy)]
enum How {
    /// Acquired directly in this function at this token.
    Direct(usize),
    /// Acquired somewhere below this call site.
    Via(usize),
}

/// One edge of the inferred lock graph, with its witness.
struct Edge {
    /// File index of the acquisition that creates the edge.
    file: usize,
    /// Token of that acquisition (finding anchor).
    tok: usize,
    /// Human description: where and through which calls.
    desc: String,
}

/// The inferred lock graph, shared by the pass and `--graph dot`.
fn infer(ws: &Workspace) -> BTreeMap<(String, String), Edge> {
    let in_scope = |f: usize| {
        let p = ws.file_of(f).path.as_str();
        SCOPE.iter().any(|s| p.starts_with(s))
    };
    let n = ws.symbols.fns.len();
    let mut infos: Vec<FnLocks> = Vec::with_capacity(n);
    for f in 0..n {
        infos.push(if in_scope(f) && !ws.symbols.fns[f].in_test {
            scan_fn(ws, f)
        } else {
            FnLocks::default()
        });
    }
    // May-acquire summaries, propagated to a fixpoint over call edges.
    let mut summary: Vec<BTreeMap<String, How>> = infos
        .iter()
        .map(|i| {
            i.direct
                .iter()
                .map(|(l, t)| (l.clone(), How::Direct(*t)))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for (s, site) in ws.graph.sites.iter().enumerate() {
            let add: Vec<String> = summary[site.callee]
                .keys()
                .filter(|l| !summary[site.caller].contains_key(*l))
                .cloned()
                .collect();
            for l in add {
                summary[site.caller].insert(l, How::Via(s));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Edge set: direct nesting plus calls made under a lock.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (f, info) in infos.iter().enumerate() {
        let def = &ws.symbols.fns[f];
        let file = &ws.files[def.file];
        for (h, a, tok) in &info.nest {
            edges.entry((h.clone(), a.clone())).or_insert_with(|| Edge {
                file: def.file,
                tok: *tok,
                desc: format!(
                    "`{a}` acquired at {}:{} in `{}` while `{h}` is held",
                    file.path,
                    file.tok(*tok).line,
                    def.display(),
                ),
            });
        }
        for (held, s) in &info.calls_under {
            let callee = ws.graph.sites[*s].callee;
            let call_line = ws.graph.sites[*s].line;
            let locks: Vec<String> = summary[callee].keys().cloned().collect();
            for lock in locks {
                let (chain, acq_fn, acq_tok) = trace(ws, &summary, callee, &lock);
                for h in held {
                    edges.entry((h.clone(), lock.clone())).or_insert_with(|| {
                        let acq_file = &ws.files[ws.symbols.fns[acq_fn].file];
                        Edge {
                            file: ws.symbols.fns[acq_fn].file,
                            tok: acq_tok,
                            desc: format!(
                                "`{lock}` acquired at {}:{} via the call path `{}` → {} \
                                 (call at {}:{}) while `{h}` is held",
                                acq_file.path,
                                acq_file.tok(acq_tok).line,
                                def.display(),
                                chain.join(" → "),
                                file.path,
                                call_line,
                            ),
                        }
                    });
                }
            }
        }
    }
    edges
}

/// Follows a summary's provenance down to the direct acquisition:
/// returns the callee display-name chain, the acquiring fn, and the
/// acquisition token.
fn trace(
    ws: &Workspace,
    summary: &[BTreeMap<String, How>],
    mut f: usize,
    lock: &str,
) -> (Vec<String>, usize, usize) {
    let mut chain = Vec::new();
    for _ in 0..64 {
        chain.push(ws.symbols.fns[f].display());
        match summary[f].get(lock) {
            Some(How::Direct(tok)) => return (chain, f, *tok),
            Some(How::Via(s)) => f = ws.graph.sites[*s].callee,
            None => break,
        }
    }
    let fallback = ws.symbols.fns[f].body.map(|(o, _)| o).unwrap_or(0);
    (chain, f, fallback)
}

/// Scans one function body, tracking guard lifetimes the way R4 did.
fn scan_fn(ws: &Workspace, f: usize) -> FnLocks {
    let def = &ws.symbols.fns[f];
    let mut info = FnLocks::default();
    let Some((open, close)) = def.body else {
        return info;
    };
    let file = ws.file_of(f);
    let site_at: BTreeMap<usize, usize> = ws.graph.out[f]
        .iter()
        .map(|&s| (ws.graph.sites[s].tok, s))
        .collect();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    while j <= close && j < file.n_code() {
        if let Some(&(_, nc)) = def.nested.iter().find(|&&(ns, nc)| ns <= j && j <= nc) {
            j = nc + 1;
            continue;
        }
        if file.in_test(file.tok(j).start) {
            j += 1;
            continue;
        }
        if file.is_punct(j, '{') {
            depth += 1;
        } else if file.is_punct(j, '}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
        } else if file.is_punct(j, ';') {
            held.retain(|h| !(h.stmt_scoped && h.depth >= depth));
        } else if let Some(name) = lock_receiver(file, j) {
            // `self.lock()` inside the mutex-wrapper impl is the
            // acquisition primitive itself, not a named workspace lock.
            if name != "self" {
                for h in &held {
                    info.nest.push((h.name.clone(), name.clone(), j));
                }
                info.direct.push((name.clone(), j));
                held.push(Held {
                    name,
                    depth,
                    stmt_scoped: !is_let_bound(file, j),
                });
            }
        } else if let Some(&s) = site_at.get(&j) {
            if !held.is_empty() {
                info.calls_under
                    .push((held.iter().map(|h| h.name.clone()).collect(), s));
            }
        }
        j += 1;
    }
    info
}

/// The inferred lock-graph edges as `(from, to, witness)` triples —
/// exposed for `ccp-lint --graph`.
pub fn lock_edges(ws: &Workspace) -> Vec<(String, String, String)> {
    infer(ws)
        .into_iter()
        .map(|((a, b), e)| (a, b, e.desc))
        .collect()
}

impl Pass for LockGraphAcyclic {
    fn name(&self) -> &'static str {
        "lock-graph-acyclic"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "the inferred global lock-acquisition graph over served/store (direct \
         nesting plus locks taken by callees while a lock is held) must stay acyclic"
    }

    fn scope(&self) -> &'static [&'static str] {
        SCOPE
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let edges = infer(ws);
        let mut nodes: BTreeSet<&String> = BTreeSet::new();
        for (a, b) in edges.keys() {
            nodes.insert(a);
            nodes.insert(b);
        }
        let mut out = Vec::new();
        // Self-edges: re-entrant acquisition.
        for ((a, b), e) in &edges {
            if a == b {
                let file = &ws.files[e.file];
                out.push(file.finding(
                    self.name(),
                    self.severity(),
                    e.tok,
                    format!(
                        "lock `{a}` can be re-acquired while already held: {} — \
                         std::sync::Mutex self-deadlocks on re-entry",
                        e.desc
                    ),
                ));
            }
        }
        // Proper cycles: DFS from each node (sorted), reporting each
        // cycle once, keyed by its smallest rotation.
        let adj: BTreeMap<&String, Vec<&String>> = nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    edges
                        .keys()
                        .filter(|(a, b)| a == n && b != a)
                        .map(|(_, b)| b)
                        .collect(),
                )
            })
            .collect();
        let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
        for &start in &nodes {
            // BFS from each successor of `start` back to `start`.
            for &succ in adj.get(start).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(mut path) = shortest_path(&adj, succ, start) {
                    path.pop(); // last node == start; the ring closes implicitly
                    let mut cycle: Vec<String> =
                        std::iter::once(start.clone()).chain(path).collect();
                    // Normalize rotation: start at the smallest node.
                    let min_at = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| n.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min_at);
                    if !seen_cycles.insert(cycle.clone()) {
                        continue;
                    }
                    let mut descs = Vec::new();
                    let mut anchor: Option<&Edge> = None;
                    for w in 0..cycle.len() {
                        let from = &cycle[w];
                        let to = &cycle[(w + 1) % cycle.len()];
                        if let Some(e) = edges.get(&(from.clone(), to.clone())) {
                            descs.push(e.desc.clone());
                            anchor = Some(e); // last edge closes the cycle
                        }
                    }
                    if let Some(e) = anchor {
                        let file = &ws.files[e.file];
                        let ring = cycle
                            .iter()
                            .chain(std::iter::once(&cycle[0]))
                            .cloned()
                            .collect::<Vec<_>>()
                            .join(" → ");
                        out.push(file.finding(
                            self.name(),
                            self.severity(),
                            e.tok,
                            format!(
                                "lock-acquisition cycle `{ring}` in the inferred global \
                                 lock graph: {} — two threads interleaving these paths \
                                 deadlock",
                                descs.join("; "),
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Shortest node path `from → … → to` over `adj` (BFS), excluding the
/// starting node from the returned list.
fn shortest_path(
    adj: &BTreeMap<&String, Vec<&String>>,
    from: &String,
    to: &String,
) -> Option<Vec<String>> {
    let mut prev: BTreeMap<&String, &String> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    let mut seen: BTreeSet<&String> = BTreeSet::new();
    seen.insert(from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n.clone()];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p.clone());
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &m in adj.get(n).map(Vec::as_slice).unwrap_or(&[]) {
            if seen.insert(m) {
                prev.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(specs: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(
            specs
                .iter()
                .map(|(p, s)| SourceFile::analyze(*p, *s))
                .collect(),
        );
        LockGraphAcyclic.check(&ws)
    }

    #[test]
    fn sanctioned_one_way_nesting_is_acyclic() {
        let hits = findings(&[(
            "crates/served/src/server.rs",
            "fn a(s: &S) { let st = s.state.lock_unpoisoned(); s.queue.lock_unpoisoned().push(1); }\n\
             fn b(s: &S) { let st = s.state.lock_unpoisoned(); let q = s.queue.lock_unpoisoned(); }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn cross_function_cycle_is_caught_with_witness() {
        let hits = findings(&[(
            "crates/served/src/server.rs",
            "fn ab(s: &S) { let a = s.alpha.lock_unpoisoned(); take_beta(s); }\n\
             fn take_beta(s: &S) { let b = s.beta.lock_unpoisoned(); }\n\
             fn ba(s: &S) { let b = s.beta.lock_unpoisoned(); take_alpha(s); }\n\
             fn take_alpha(s: &S) { let a = s.alpha.lock_unpoisoned(); }\n",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(
            hits[0].message.contains("alpha → beta → alpha"),
            "{}",
            hits[0].message
        );
        assert!(
            hits[0].message.contains("via the call path"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn reentrant_acquisition_through_a_call_is_a_self_edge() {
        let hits = findings(&[(
            "crates/served/src/server.rs",
            "fn outer(c: &C) { let g = c.grid.lock_unpoisoned(); helper(c); }\n\
             fn helper(c: &C) { c.grid.lock_unpoisoned().push(1); }\n",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("re-entry"), "{}", hits[0].message);
    }

    #[test]
    fn statement_scoped_guards_do_not_hold_across_calls() {
        let hits = findings(&[(
            "crates/served/src/server.rs",
            "fn a(s: &S) { s.alpha.lock_unpoisoned().touch(); take_beta(s); }\n\
             fn take_beta(s: &S) { s.beta.lock_unpoisoned().touch(); take_alpha(s); }\n\
             fn take_alpha(s: &S) { s.alpha.lock_unpoisoned().touch(); }\n",
        )]);
        // Every guard is a temporary dropped at the semicolon *before*
        // the next call — wait: `take_alpha` is called while `beta`'s
        // temporary is live? No: `.touch()` ends the statement, then the
        // call happens. No lock is held across any call.
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn direct_inverted_nesting_in_two_functions_is_a_cycle() {
        let hits = findings(&[(
            "crates/store/src/tiered.rs",
            "fn one(c: &C) { let g = c.grid.lock_unpoisoned(); let s = c.store.lock_unpoisoned(); }\n\
             fn two(c: &C) { let s = c.store.lock_unpoisoned(); let g = c.grid.lock_unpoisoned(); }\n",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(
            hits[0].message.contains("grid → store → grid"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn out_of_scope_crates_contribute_no_locks() {
        let hits = findings(&[(
            "crates/sim/src/sweep.rs",
            "fn a(s: &S) { let x = s.alpha.lock().unwrap(); b(s); }\n\
             fn b(s: &S) { let y = s.beta.lock().unwrap(); a(s); }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
