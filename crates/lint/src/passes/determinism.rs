//! R10 — `deterministic-core-transitive`.
//!
//! The deterministic cores (`compress`, `cache`, `cpp`, `schemes`,
//! `sim`, and the layers they replay through: `workgen`, `trace`,
//! `pipeline`, `mem`) promise seeded, byte-identical replay: a resumed sweep must
//! equal an uninterrupted one, and every proptest failure must replay
//! from its seed. R5 guards this textually (no `Instant::now` *written
//! in* a core file); this pass guards it transitively: no *path* from
//! the cores' public API to a nondeterminism source anywhere in the
//! workspace. Sources are wall-clock reads (`Instant::now`,
//! `SystemTime::now`), entropy-seeded RNG (`thread_rng`,
//! `from_entropy`), and iteration-order-unstable hashing (`HashMap` /
//! `HashSet` / `RandomState` — std's `RandomState` salts per process, so
//! any iteration order leaks nondeterminism into whatever consumes it).
//!
//! `catch_unwind` does not isolate nondeterminism the way it isolates
//! panics, so this pass follows isolated edges too.

use crate::callgraph::Workspace;
use crate::engine::{Finding, Severity};
use crate::lexer::TokKind;
use crate::passes::Pass;

/// Crates whose public API anchors the determinism guarantee.
const CORE_PREFIXES: &[&str] = &[
    "crates/compress/src/",
    "crates/cache/src/",
    "crates/cpp/src/",
    "crates/schemes/src/",
    "crates/sim/src/",
    "crates/workgen/src/",
    "crates/trace/src/",
    "crates/pipeline/src/",
    "crates/mem/src/",
];

/// The transitive determinism pass. See the module docs.
pub struct DeterministicCoreTransitive;

/// Whether a function anchors the determinism guarantee: public API of a
/// core crate's library (binaries are drivers and may time things).
fn is_entry(ws: &Workspace, f: usize) -> bool {
    let d = &ws.symbols.fns[f];
    if !d.is_pub || d.in_test {
        return false;
    }
    let path = ws.files[d.file].path.as_str();
    CORE_PREFIXES.iter().any(|p| path.starts_with(p)) && !path.contains("/src/bin/")
}

/// Classifies the nondeterminism source at code token `j`, if any:
/// `(what, kind, tokens consumed)`.
fn source_at(file: &crate::engine::SourceFile, j: usize) -> Option<(String, &'static str)> {
    if file.tok(j).kind != TokKind::Ident {
        return None;
    }
    let text = file.ct(j);
    match text {
        "Instant" | "SystemTime" => {
            (file.is_punct(j + 1, ':') && file.is_punct(j + 2, ':') && file.is_ident(j + 3, "now"))
                .then(|| (format!("{text}::now"), "wall-clock"))
        }
        "thread_rng" | "from_entropy" => file
            .is_punct(j + 1, '(')
            .then(|| (text.to_string(), "entropy-seeded RNG")),
        "HashMap" | "HashSet" | "RandomState" => Some((
            text.to_string(),
            "iteration-order-unstable hashing (per-process RandomState salt)",
        )),
        _ => None,
    }
}

impl Pass for DeterministicCoreTransitive {
    fn name(&self) -> &'static str {
        "deterministic-core-transitive"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "no call path from the deterministic cores' public API \
         (compress/cache/cpp/schemes/sim/workgen/trace/pipeline/mem) to wall-clock, \
         entropy RNG, or hash-order \
         nondeterminism"
    }

    fn scope(&self) -> &'static [&'static str] {
        CORE_PREFIXES
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let entries: Vec<usize> = (0..ws.symbols.fns.len())
            .filter(|&f| is_entry(ws, f))
            .collect();
        let reach = ws.reach(&entries, true);
        let mut out = Vec::new();
        for f in 0..ws.symbols.fns.len() {
            if !reach.reached(f) || ws.symbols.fns[f].in_test {
                continue;
            }
            let def = &ws.symbols.fns[f];
            let Some((open, close)) = def.body else {
                continue;
            };
            let file = ws.file_of(f);
            let witness = reach.witness(ws, f);
            let mut j = open + 1;
            while j < close && j < file.n_code() {
                if let Some(&(_, nc)) = def.nested.iter().find(|&&(ns, nc)| ns <= j && j <= nc) {
                    j = nc + 1;
                    continue;
                }
                if file.in_test(file.tok(j).start) {
                    j += 1;
                    continue;
                }
                if let Some((what, kind)) = source_at(file, j) {
                    out.push(file.finding(
                        self.name(),
                        self.severity(),
                        j,
                        format!(
                            "`{what}` ({kind}) is reachable from deterministic-core public \
                             API (call path: {witness} → `{what}`); seeded replay and resume \
                             byte-identity break — thread the value in from the driver, or \
                             allow with a justification proving it never feeds replayed state"
                        ),
                    ));
                }
                j += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SourceFile;

    fn findings(specs: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(
            specs
                .iter()
                .map(|(p, s)| SourceFile::analyze(*p, *s))
                .collect(),
        );
        DeterministicCoreTransitive.check(&ws)
    }

    #[test]
    fn transitive_wallclock_is_flagged_with_witness() {
        let hits = findings(&[(
            "crates/compress/src/lib.rs",
            "pub fn compress_line() { stamp(); }\n\
             fn stamp() { let t = Instant::now(); }\n",
        )]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert!(
            hits[0]
                .message
                .contains("compress_line → stamp → `Instant::now`"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn unreachable_and_test_sources_pass() {
        let hits = findings(&[(
            "crates/cache/src/lib.rs",
            "pub fn access() {}\n\
             fn dead_timer() { let t = Instant::now(); }\n\
             #[cfg(test)]\nmod tests { pub fn t() { let m = HashMap::new(); } }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn rng_and_hashmap_sources_are_classified() {
        let hits = findings(&[(
            "crates/sim/src/lib.rs",
            "pub fn run() { let r = thread_rng(); let m: HashMap<u32, u32> = HashMap::new(); }\n",
        )]);
        assert_eq!(hits.len(), 3, "{hits:?}"); // thread_rng + 2 HashMap tokens
        assert!(hits
            .iter()
            .any(|f| f.message.contains("entropy-seeded RNG")));
        assert!(hits
            .iter()
            .any(|f| f.message.contains("hash-order") || f.message.contains("RandomState")));
    }

    #[test]
    fn driver_binaries_may_time_things() {
        let hits = findings(&[(
            "crates/sim/src/bin/repro.rs",
            "pub fn main_loop() { let t = Instant::now(); }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
