//! The per-file workspace rules. Each one guards an invariant an
//! earlier PR established by hand; see `DESIGN.md` §9 for the rationale
//! behind every rule and the suppression syntax.
//!
//! Rules are lexical, not type-aware: they trade soundness-in-the-limit
//! for zero dependencies and total robustness, and lean on inline
//! `ccp-lint: allow(…)` suppressions (each carrying a one-line
//! justification) where the approximation is conservative.
//!
//! Two former rules now live in [`crate::passes`] as interprocedural
//! passes: R2 `no-panic-in-service-path` follows the call graph from
//! serving entry points instead of scanning whole crates, and R4
//! `lock-order` became R11 `lock-graph-acyclic`, which *infers* the
//! global lock graph instead of checking per-function nesting against a
//! declared hierarchy.

use crate::engine::{Finding, Rule, Severity, SourceFile};
use crate::lexer::TokKind;

/// All shipped per-file rules, in documentation order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoStringlyErrors),
        Box::new(AtomicJsonWrites),
        Box::new(NoWallclockInSim),
        Box::new(NoLossyCastInHotPath),
        Box::new(NoNarrowCounters),
        Box::new(NoUnboundedReads),
        Box::new(NoDynSchemeInHotPath),
    ]
}

/// Paths every rule ignores even when its own scope matches.
pub(crate) const GLOBAL_EXCLUDES: &[&str] = &["crates/compat/", "crates/lint/tests/fixtures/"];

fn globally_excluded(path: &str) -> bool {
    under(path, GLOBAL_EXCLUDES)
}

/// True when `path` lies under any of `dirs`.
fn under(path: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| path.starts_with(d))
}

// ---------------------------------------------------------------------------
// R1: no-stringly-errors
// ---------------------------------------------------------------------------

/// R1 — `Result<_, String>` is banned outside `crates/compat`: PR 2
/// introduced the typed [`SimError`] taxonomy precisely because stringly
/// errors cannot be classified for retry/exit-code decisions.
///
/// [`SimError`]: ../../ccp_errors/enum.SimError.html
pub struct NoStringlyErrors;

impl Rule for NoStringlyErrors {
    fn name(&self) -> &'static str {
        "no-stringly-errors"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "ban Result<_, String>: use ccp_errors::SimError / SimResult (PR 2 error taxonomy)"
    }
    fn applies(&self, path: &str) -> bool {
        !globally_excluded(path)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for k in 0..file.n_code() {
            if !file.is_ident(k, "Result") || !file.is_punct(k + 1, '<') {
                continue;
            }
            if let Some(err_arg) = second_generic_arg(file, k + 1) {
                if err_arg.len() == 1 && file.is_ident(err_arg[0], "String") {
                    out.push(file.finding(
                        self.name(),
                        self.severity(),
                        k,
                        "`Result<_, String>` is stringly-typed; return \
                         `ccp_errors::SimResult<_>` (a typed `SimError`) so callers can \
                         classify the failure",
                    ));
                }
            }
        }
        out
    }
}

/// Token indices (into `file.code`) of the second top-level generic
/// argument of the `<…>` list opening at code index `open`. `None` when
/// the construct does not look like a two-argument generic list (bounded
/// scan; comparison expressions bail out on `;`/`{`).
fn second_generic_arg(file: &SourceFile, open: usize) -> Option<Vec<usize>> {
    let mut depth = 0i32;
    let mut args: Vec<Vec<usize>> = vec![Vec::new()];
    let limit = (open + 256).min(file.n_code());
    for j in open..limit {
        if file.is_punct(j, '<') {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if file.is_punct(j, '>') {
            // `->` inside a generic list (fn types): the `>` is glued to a
            // preceding `-`; don't let it close the list.
            let arrow =
                j > 0 && file.is_punct(j - 1, '-') && file.tok(j - 1).end == file.tok(j).start;
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return (args.len() == 2).then(|| args.swap_remove(1));
                }
            }
        } else if file.is_punct(j, '(') || file.is_punct(j, '[') {
            depth += 1;
        } else if file.is_punct(j, ')') || file.is_punct(j, ']') {
            depth -= 1;
        } else if file.is_punct(j, ';') || file.is_punct(j, '{') {
            return None; // not a generic list after all
        }
        if depth == 1 && file.is_punct(j, ',') {
            args.push(Vec::new());
            continue;
        }
        if let Some(last) = args.last_mut() {
            last.push(j);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// R3: atomic-json-writes
// ---------------------------------------------------------------------------

/// R3 — durable artifacts must be written via the atomic temp-then-rename
/// helpers (`ccp_sim::json::write_atomic` / `write_atomic_bytes`, PR 2):
/// a function that both creates a file directly and mentions a
/// `.json`/`.jsonl` path — or a `.ccpz` store entry — can tear its output
/// on a crash, which is exactly what the content-addressed disk tier that
/// resumable sweeps write exists to prevent. Direct file creation
/// without artifact evidence is still surfaced (at warn) because the path
/// may arrive from a caller.
pub struct AtomicJsonWrites;

impl Rule for AtomicJsonWrites {
    fn name(&self) -> &'static str {
        "atomic-json-writes"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "JSON and .ccpz artifacts go through write_atomic's temp-then-rename, never a \
         bare File::create / fs::write"
    }
    fn applies(&self, path: &str) -> bool {
        // json.rs hosts write_atomic itself — the one sanctioned call site.
        !globally_excluded(path) && !self.scope().contains(&path)
    }
    fn scope(&self) -> &'static [&'static str] {
        &["crates/sim/src/json.rs"]
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for k in 0..file.n_code() {
            if file.in_test(file.tok(k).start) {
                continue;
            }
            // `File::create(`  |  `fs::write(`  (any path prefix).
            let creates = (file.is_ident(k, "File")
                && file.is_punct(k + 1, ':')
                && file.is_punct(k + 2, ':')
                && file.is_ident(k + 3, "create")
                && file.is_punct(k + 4, '('))
                || (file.is_ident(k, "fs")
                    && file.is_punct(k + 1, ':')
                    && file.is_punct(k + 2, ':')
                    && file.is_ident(k + 3, "write")
                    && file.is_punct(k + 4, '('));
            if !creates {
                continue;
            }
            let artifact_nearby = enclosing_fn_mentions_artifact(file, k);
            let (severity, message) = if artifact_nearby {
                (
                    Severity::Deny,
                    "direct file creation in a function handling `.json`/`.jsonl`/`.ccpz` \
                     paths — a crash here tears the artifact; use \
                     `ccp_sim::json::write_atomic` / `write_atomic_bytes` \
                     (temp-then-rename)",
                )
            } else {
                (
                    Severity::Warn,
                    "direct file creation bypasses the atomic temp-then-rename discipline; \
                     route JSON artifacts through `ccp_sim::json::write_atomic`, or allow \
                     with a justification naming the non-JSON format",
                )
            };
            out.push(file.finding(self.name(), severity, k, message));
        }
        out
    }
}

/// Whether the innermost `fn` containing code token `k` (or the whole
/// file, outside any fn) contains a string literal mentioning `.json` or
/// `.ccpz` (the store's content-addressed entry extension).
fn enclosing_fn_mentions_artifact(file: &SourceFile, k: usize) -> bool {
    let range = file
        .fns
        .iter()
        .filter(|f| f.body_open <= k && k <= f.body_close)
        .min_by_key(|f| f.body_close - f.body_open)
        .map(|f| (f.body_open, f.body_close))
        .unwrap_or((0, file.n_code().saturating_sub(1)));
    (range.0..=range.1).any(|j| {
        j < file.n_code()
            && file.tok(j).kind == TokKind::Str
            && (file.ct(j).contains(".json") || file.ct(j).contains(".ccpz"))
    })
}

// ---------------------------------------------------------------------------
// R5: no-wallclock-in-sim
// ---------------------------------------------------------------------------

/// R5 — the deterministic simulation cores (`compress`, `cache`, `cpp`,
/// `workgen`) must not read wall-clock time: resumed sweeps are verified
/// byte-identical to uninterrupted ones, and a single `Instant::now()`
/// in a core breaks that reproducibility. Drivers (`sim` binaries,
/// `served`, `bench`) are deliberately out of scope.
pub struct NoWallclockInSim;

impl Rule for NoWallclockInSim {
    fn name(&self) -> &'static str {
        "no-wallclock-in-sim"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "ban SystemTime::now/Instant::now in the deterministic cores \
         (compress/cache/cpp/workgen)"
    }
    fn applies(&self, path: &str) -> bool {
        !globally_excluded(path) && under(path, self.scope())
    }
    fn scope(&self) -> &'static [&'static str] {
        &[
            "crates/compress/",
            "crates/cache/",
            "crates/cpp/",
            "crates/workgen/",
        ]
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for k in 0..file.n_code() {
            let clock = (file.is_ident(k, "SystemTime") || file.is_ident(k, "Instant"))
                && file.is_punct(k + 1, ':')
                && file.is_punct(k + 2, ':')
                && file.is_ident(k + 3, "now");
            if clock {
                out.push(file.finding(
                    self.name(),
                    self.severity(),
                    k,
                    format!(
                        "`{}::now` in a deterministic core breaks seeded reproducibility \
                         (resume byte-identity, proptest replay); thread time in from the \
                         driver if needed",
                        file.ct(k)
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// R6: no-lossy-cast-in-hot-path
// ---------------------------------------------------------------------------

/// R6 — truncating `as u16` / `as u32` casts in the word-packing code of
/// `compress`/`cpp` silently drop the very bits the paper's compression
/// predicates (§3: 18 uniform high bits for small values, 17 shared high
/// bits for pointers) exist to check. Packing must go through the
/// checked predicates ([`compress`]/[`classify`]) or carry a
/// justification proving the bits are dead.
///
/// [`compress`]: ../../ccp_compress/fn.compress.html
/// [`classify`]: ../../ccp_compress/fn.classify.html
pub struct NoLossyCastInHotPath;

impl Rule for NoLossyCastInHotPath {
    fn name(&self) -> &'static str {
        "no-lossy-cast-in-hot-path"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "flag as u16 / as u32 truncations in compress/cpp word-packing: use the checked \
         compression predicates or justify"
    }
    fn applies(&self, path: &str) -> bool {
        !globally_excluded(path) && under(path, self.scope())
    }
    fn scope(&self) -> &'static [&'static str] {
        &[
            "crates/compress/src/",
            "crates/cpp/src/",
            "crates/schemes/src/",
        ]
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for k in 0..file.n_code() {
            if file.in_test(file.tok(k).start) {
                continue;
            }
            if file.is_ident(k, "as")
                && (file.is_ident(k + 1, "u16") || file.is_ident(k + 1, "u32"))
            {
                out.push(file.finding(
                    self.name(),
                    self.severity(),
                    k,
                    format!(
                        "`as {}` here can truncate a word without consulting the 18/17 \
                         high-bit compression predicates; use `u32::from`/`u16::try_from` \
                         or the checked compress()/classify() path, or allow with a \
                         justification",
                        file.ct(k + 1)
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// R7: no-narrow-counters
// ---------------------------------------------------------------------------

/// R7 — scalar event-counter fields in `*Stats` / `*Meter` structs must
/// be `u64`. Resolution of the counter-width audit that accompanied the
/// hot-path overhaul: a long `ccp-workgen` stream replays well past 2³²
/// events, and a `u32` counter wraps silently — the run completes, the
/// numbers are just wrong. Only bare `u8`/`u16`/`u32` field types are
/// flagged (a `Vec<u32>` payload is not a counter).
pub struct NoNarrowCounters;

/// Struct-name suffixes the rule treats as counter carriers.
const COUNTER_STRUCT_SUFFIXES: &[&str] = &["Stats", "Meter"];

impl Rule for NoNarrowCounters {
    fn name(&self) -> &'static str {
        "no-narrow-counters"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn describe(&self) -> &'static str {
        "counter fields in *Stats / *Meter structs must be u64: u32 wraps silently on \
         long workgen runs"
    }
    fn applies(&self, path: &str) -> bool {
        !globally_excluded(path)
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for k in 0..file.n_code() {
            if file.in_test(file.tok(k).start) || !file.is_ident(k, "struct") {
                continue;
            }
            let sname = file.ct(k + 1);
            if !COUNTER_STRUCT_SUFFIXES.iter().any(|s| sname.ends_with(s)) {
                continue;
            }
            // Find the body `{`; a `;` first means a unit/tuple struct.
            let mut open = k + 2;
            while open < file.n_code() && !file.is_punct(open, '{') && !file.is_punct(open, ';') {
                open += 1;
            }
            if open >= file.n_code() || file.is_punct(open, ';') {
                continue;
            }
            let mut depth = 0i32;
            let mut j = open;
            while j < file.n_code() {
                if file.is_punct(j, '{') {
                    depth += 1;
                } else if file.is_punct(j, '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1
                    && file.is_punct(j, ':')
                    && (file.is_ident(j + 1, "u8")
                        || file.is_ident(j + 1, "u16")
                        || file.is_ident(j + 1, "u32"))
                    && (file.is_punct(j + 2, ',') || file.is_punct(j + 2, '}'))
                {
                    out.push(file.finding(
                        self.name(),
                        self.severity(),
                        j + 1,
                        format!(
                            "`{}` counter field in `{sname}` wraps silently once a long \
                             workgen run passes 2^{} events; count in u64 (widening is \
                             free on the hot path), or allow with a justification naming \
                             the bound",
                            file.ct(j + 1),
                            match file.ct(j + 1) {
                                "u8" => "8",
                                "u16" => "16",
                                _ => "32",
                            },
                        ),
                    ));
                }
                j += 1;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// R8: no-unbounded-reads
// ---------------------------------------------------------------------------

/// R8 — socket reads in the serving stack (`served`) must be bounded.
/// The server must survive a peer that stalls mid-frame; that only holds
/// if every `TcpStream` read path either sets a read timeout (the poll-slice
/// idiom: short `set_read_timeout`, loop on `WouldBlock`/`TimedOut`
/// checking shutdown/deadline flags) or goes non-blocking. A file that
/// mentions `TcpStream` and performs read calls without ever calling
/// `set_read_timeout` / `set_nonblocking` can hang a thread forever on a
/// silent peer — exactly the failure the watchdog exists to catch.
///
/// File-granular on purpose: the stream is typically configured once at
/// accept/connect and read elsewhere in the same module, so demanding a
/// per-call bound would flag every correct call site.
pub struct NoUnboundedReads;

/// `std::io::Read` / `BufRead` method names that block on the peer.
const READ_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "read_until",
    "fill_buf",
];

impl Rule for NoUnboundedReads {
    fn name(&self) -> &'static str {
        "no-unbounded-reads"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "TcpStream read paths in served must bound reads via \
         set_read_timeout or set_nonblocking (a stalled peer must never hang a thread)"
    }
    fn applies(&self, path: &str) -> bool {
        !globally_excluded(path) && under(path, self.scope())
    }
    fn scope(&self) -> &'static [&'static str] {
        &["crates/served/src/"]
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let live = |k: usize| !file.in_test(file.tok(k).start);
        let mentions_tcp = (0..file.n_code()).any(|k| live(k) && file.is_ident(k, "TcpStream"));
        if !mentions_tcp {
            return Vec::new();
        }
        let bounded = (0..file.n_code()).any(|k| {
            live(k) && (file.is_ident(k, "set_read_timeout") || file.is_ident(k, "set_nonblocking"))
        });
        if bounded {
            return Vec::new();
        }
        let mut out = Vec::new();
        for k in 0..file.n_code() {
            if !live(k) || file.tok(k).kind != TokKind::Ident {
                continue;
            }
            let text = file.ct(k);
            if READ_METHODS.contains(&text)
                && k > 0
                && file.is_punct(k - 1, '.')
                && file.is_punct(k + 1, '(')
            {
                out.push(file.finding(
                    self.name(),
                    self.severity(),
                    k,
                    format!(
                        "`{text}` in a file handling `TcpStream` that never calls \
                         `set_read_timeout`/`set_nonblocking`: a peer that stalls mid-frame \
                         hangs this thread forever; bound the read with the poll-slice idiom \
                         (short read timeout, retry on WouldBlock/TimedOut, check shutdown)"
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// R9: no-dyn-scheme-in-hot-path
// ---------------------------------------------------------------------------

/// R9 — `dyn CompressionScheme` is banned in the replay hot path
/// (`compress`, `cpp`, `cache`). The schemes subsystem keeps each word
/// predicate inlined into its line loop by monomorphizing: a hierarchy
/// is generic over its scheme, and the scheme is resolved to a concrete
/// type exactly once, at construction (`build_design_scheme`). A trait
/// object on the per-access path would reintroduce an indirect call per
/// word — the very overhead the hot-path overhaul removed — and defeat
/// the `BASE_SENSITIVE` const-folding the CPP scheme relies on. Boxing a
/// scheme is fine *outside* these crates (the sim factory does it after
/// monomorphization); inside them, dispatch must be static.
pub struct NoDynSchemeInHotPath;

impl Rule for NoDynSchemeInHotPath {
    fn name(&self) -> &'static str {
        "no-dyn-scheme-in-hot-path"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn describe(&self) -> &'static str {
        "ban dyn CompressionScheme in compress/cpp/cache: schemes are monomorphized at \
         construction; a trait object adds an indirect call per replayed word"
    }
    fn applies(&self, path: &str) -> bool {
        !globally_excluded(path) && under(path, self.scope())
    }
    fn scope(&self) -> &'static [&'static str] {
        &[
            "crates/compress/src/",
            "crates/cpp/src/",
            "crates/cache/src/",
        ]
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let mut out = Vec::new();
        for k in 0..file.n_code() {
            if file.in_test(file.tok(k).start) {
                continue;
            }
            if file.is_ident(k, "dyn") && file.is_ident(k + 1, "CompressionScheme") {
                out.push(
                    file.finding(
                        self.name(),
                        self.severity(),
                        k,
                        "`dyn CompressionScheme` on a replay path: schemes must stay \
                     monomorphized (generic parameter resolved at construction); a trait \
                     object costs an indirect call per word and blocks the BASE_SENSITIVE \
                     const-fold"
                            .to_string(),
                    ),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_source;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src, &all_rules()).findings
    }

    #[test]
    fn r1_flags_stringly_results_only() {
        let hits = run(
            "crates/sim/src/lib.rs",
            "fn a() -> Result<Args, String> { x }\n\
             fn b() -> Result<Vec<String>, SimError> { x }\n\
             fn c() -> SimResult<String> { x }\n\
             fn d(x: Result<(), String>) {}\n",
        );
        let r1: Vec<_> = hits
            .iter()
            .filter(|f| f.rule == "no-stringly-errors")
            .collect();
        assert_eq!(r1.len(), 2, "{hits:?}");
        assert_eq!(r1[0].line, 1);
        assert_eq!(r1[1].line, 4);
    }

    #[test]
    fn r1_skips_compat_and_comments() {
        assert!(run(
            "crates/compat/rand/src/lib.rs",
            "fn a() -> Result<A, String> {}"
        )
        .is_empty());
        assert!(run(
            "crates/sim/src/x.rs",
            "// returns Result<A, String>\nfn a() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn r3_deny_with_json_evidence_warn_without() {
        let deny = run(
            "crates/sim/src/report.rs",
            "fn save() { let f = File::create(\"out.json\"); }",
        );
        assert_eq!(deny.len(), 1);
        assert_eq!(deny[0].severity, Severity::Deny);
        let warn = run(
            "crates/trace/src/serialize.rs",
            "fn save(p: &Path) { let f = File::create(p); }",
        );
        assert_eq!(warn.len(), 1);
        assert_eq!(warn[0].severity, Severity::Warn);
        // fs::write of a .jsonl checkpoint: flagged too.
        let deny2 = run(
            "crates/sim/src/checkpoint.rs",
            "fn ck() { fs::write(path, b\"x\"); let p = \"ck.jsonl\"; }",
        );
        assert!(deny2.iter().any(|f| f.severity == Severity::Deny));
        // The helper file itself is sanctioned.
        assert!(run(
            "crates/sim/src/json.rs",
            "fn write_atomic() { fs::write(tmp, s); let n = \".json\"; }"
        )
        .is_empty());
    }

    #[test]
    fn r3_treats_ccpz_store_entries_as_artifacts() {
        let deny = run(
            "crates/store/src/x.rs",
            "fn spill(dir: &Path, key: u64) { \
             let p = dir.join(format!(\"{key:016x}.ccpz\")); \
             let f = File::create(&p); }",
        );
        assert!(
            deny.iter()
                .any(|f| f.rule == "atomic-json-writes" && f.severity == Severity::Deny),
            "{deny:?}"
        );
    }

    #[test]
    fn r5_flags_wallclock_in_cores_only() {
        let hits = run(
            "crates/workgen/src/stream.rs",
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); }",
        );
        assert_eq!(
            hits.iter()
                .filter(|f| f.rule == "no-wallclock-in-sim")
                .count(),
            2
        );
        assert!(run(
            "crates/served/src/client.rs",
            "fn f() { let t = Instant::now(); }"
        )
        .is_empty());
    }

    #[test]
    fn r6_flags_truncating_casts_outside_tests() {
        let src = "\
fn pack(v: u32) -> u16 { (v as u16) & MASK }
#[cfg(test)]
mod tests { fn t() { let x = 3i32 as u32; } }
";
        let hits = run("crates/compress/src/lib.rs", src);
        let r6: Vec<_> = hits
            .iter()
            .filter(|f| f.rule == "no-lossy-cast-in-hot-path")
            .collect();
        assert_eq!(r6.len(), 1);
        assert_eq!(r6[0].severity, Severity::Warn);
        assert!(run("crates/cache/src/lib.rs", "fn f(v: u64) { v as u32; }").is_empty());
    }

    #[test]
    fn r7_flags_narrow_counters_in_stats_and_meter_structs() {
        let src = "\
pub struct QueueStats {
    pub hits: u32,
    pub misses: u64,
    pub depth: u16,
}
pub struct FlowMeter { pub packets: u32 }
ccp_mem::counters! {
    /// Declared through the macro: still a counter struct.
    #[derive(Debug, Default)]
    pub struct XStats { pub ok: u64, pub wraps: u32 }
}
";
        let hits = run("crates/served/src/metrics.rs", src);
        let r7: Vec<_> = hits
            .iter()
            .filter(|f| f.rule == "no-narrow-counters")
            .collect();
        assert_eq!(r7.len(), 4, "{r7:?}");
        assert!(r7.iter().all(|f| f.severity == Severity::Warn));
        assert_eq!(r7[0].line, 2);
        assert_eq!(r7[1].line, 4);
        assert_eq!(r7[2].line, 6);
        assert_eq!(r7[3].line, 10);
    }

    #[test]
    fn r7_ignores_non_counter_structs_and_non_scalar_fields() {
        // Struct name without the Stats/Meter suffix: out of scope.
        assert!(run("crates/cache/src/x.rs", "pub struct Line { pub tag: u32 }").is_empty());
        // Vec<u32> payloads and u64 counters are fine; so are tests.
        let src = "\
pub struct HistStats {
    pub buckets: Vec<u32>,
    pub total: u64,
}
#[cfg(test)]
mod tests { struct TinyStats { n: u32 } }
";
        let hits = run("crates/cache/src/stats.rs", src);
        assert!(
            hits.iter().all(|f| f.rule != "no-narrow-counters"),
            "{hits:?}"
        );
    }

    #[test]
    fn r8_flags_unbounded_tcp_reads_in_scope_only() {
        // TcpStream + reads, no timeout anywhere: every read call flagged.
        let src = "\
fn serve(mut s: TcpStream) {
    let mut buf = [0u8; 64];
    s.read(&mut buf);
    s.read_exact(&mut buf);
}
";
        let hits = run("crates/served/src/conn.rs", src);
        let r8: Vec<_> = hits
            .iter()
            .filter(|f| f.rule == "no-unbounded-reads")
            .collect();
        assert_eq!(r8.len(), 2, "{hits:?}");
        assert!(r8.iter().all(|f| f.severity == Severity::Deny));
        // Same file in an out-of-scope crate: silent.
        assert!(run("crates/trace/src/conn.rs", src).is_empty());
    }

    #[test]
    fn r8_accepts_bounded_reads_and_non_socket_files() {
        // One set_read_timeout anywhere in the file bounds every read.
        let ok = run(
            "crates/served/src/client.rs",
            "fn pump(s: TcpStream) { s.set_read_timeout(Some(POLL)); \
             let mut b = [0u8; 8]; s.read(&mut b); }",
        );
        assert!(ok.iter().all(|f| f.rule != "no-unbounded-reads"), "{ok:?}");
        // set_nonblocking counts as a bound too (accept loops).
        let nb = run(
            "crates/served/src/server.rs",
            "fn accept(l: TcpListener, s: TcpStream) { s.set_nonblocking(true); \
             let mut b = vec![]; s.read_to_end(&mut b); }",
        );
        assert!(nb.iter().all(|f| f.rule != "no-unbounded-reads"), "{nb:?}");
        // Reads in a file that never touches TcpStream (e.g. disk I/O) pass.
        let disk = run(
            "crates/served/src/cache.rs",
            "fn load(mut f: File) { let mut s = String::new(); f.read_to_string(&mut s); }",
        );
        assert!(
            disk.iter().all(|f| f.rule != "no-unbounded-reads"),
            "{disk:?}"
        );
        // Test code is exempt even when unbounded.
        let test_only = run(
            "crates/served/src/client.rs",
            "struct TcpStream;\n#[cfg(test)]\nmod tests { fn t(mut s: super::TcpStream) { \
             let mut b = [0u8; 4]; s.read(&mut b); } }",
        );
        assert!(
            test_only.iter().all(|f| f.rule != "no-unbounded-reads"),
            "{test_only:?}"
        );
    }

    #[test]
    fn r9_flags_dyn_scheme_only_in_hot_path_crates() {
        let src = "fn f(s: &dyn CompressionScheme) {}\n\
                   fn g(b: Box<dyn CompressionScheme>) {}\n\
                   fn h<S: CompressionScheme>(s: S) {}\n";
        let hot = run("crates/cpp/src/level.rs", src);
        let r9: Vec<_> = hot
            .iter()
            .filter(|f| f.rule == "no-dyn-scheme-in-hot-path")
            .collect();
        assert_eq!(r9.len(), 2, "{hot:?}");

        // The sim factory boxes *after* monomorphization — out of scope.
        let cold = run("crates/sim/src/lib.rs", src);
        assert!(
            cold.iter().all(|f| f.rule != "no-dyn-scheme-in-hot-path"),
            "{cold:?}"
        );

        // Test code is exempt, like every other rule.
        let test_only = run(
            "crates/cache/src/stats.rs",
            "#[cfg(test)]\nmod tests { fn t(s: &dyn CompressionScheme) {} }\n",
        );
        assert!(
            test_only
                .iter()
                .all(|f| f.rule != "no-dyn-scheme-in-hot-path"),
            "{test_only:?}"
        );
    }

    #[test]
    fn suppressions_silence_and_count() {
        let src =
            "fn f() { let t = Instant::now(); } // ccp-lint: allow(no-wallclock-in-sim) — test\n";
        let out = lint_source("crates/workgen/src/x.rs", src, &all_rules());
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
    }

    #[test]
    fn unused_suppressions_are_findings() {
        let src = "fn f() {} // ccp-lint: allow(no-wallclock-in-sim) — stale\n";
        let out = lint_source("crates/workgen/src/x.rs", src, &all_rules());
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, crate::engine::UNUSED_SUPPRESSION);
        assert_eq!(out.findings[0].severity, Severity::Warn);
        assert_eq!(out.suppressed, 0);
        // …and can themselves be allowed, on the same comment.
        let src =
            "fn f() {} // ccp-lint: allow(no-wallclock-in-sim, unused-suppression) — pinned\n";
        let out = lint_source("crates/workgen/src/x.rs", src, &all_rules());
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed, 1);
    }
}
