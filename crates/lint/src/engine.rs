//! The analysis engine: per-file token analysis (code tokens, `#[cfg(test)]`
//! regions, function spans, inline suppressions), rule dispatch with path
//! scoping, and the workspace walker.
//!
//! ## Suppressions
//!
//! A violation is silenced with an inline comment naming the rule:
//!
//! ```text
//! let g = m.lock().unwrap(); // ccp-lint: allow(no-panic-in-service-path) — poisoning recovered upstream
//! ```
//!
//! A trailing comment suppresses its own line; a comment on a line of its
//! own suppresses itself and the next line. Several rules may be listed:
//! `allow(rule-a, rule-b)`. Suppressions are counted and reported so a
//! corpus of silent exemptions can't grow unnoticed — and an `allow`
//! entry that suppresses *nothing* is itself a finding
//! ([`UNUSED_SUPPRESSION`]): when the violation it excused is fixed or
//! moves, the stale exemption must be deleted, not left as a standing
//! hole.

use crate::lexer::{lex, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The engine-internal meta rule: an `allow(…)` entry that silenced no
/// finding in the run. Warn-level — promoted by `--deny warnings`, which
/// is how CI runs.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// How severe a finding is, and whether it fails the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory by default; promoted to failing by `--deny warnings`.
    Warn,
    /// Always fails the lint run.
    Deny,
}

impl Severity {
    /// Lower-case label used in reports (`warn` / `deny`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (kebab-case, e.g. `no-stringly-errors`).
    pub rule: &'static str,
    /// Whether this instance fails the run.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Finding {
    /// `path:line:col: severity[rule]: message` — the one-line human form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}[{}]: {}",
            self.path,
            self.line,
            self.col,
            self.severity.label(),
            self.rule,
            self.message
        )
    }
}

/// A lexed and pre-analyzed source file, shared by every rule.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The (lossily decoded) source text.
    pub src: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens — what rules scan.
    pub code: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items (attribute included).
    pub test_regions: Vec<(usize, usize)>,
    /// Spans of `fn` bodies, in source order (nested fns listed too).
    pub fns: Vec<FnSpan>,
    /// Every `ccp-lint: allow(…)` comment, in source order.
    pub allows: Vec<AllowComment>,
}

/// One `ccp-lint: allow(…)` comment and the line range it covers.
#[derive(Debug, Clone)]
pub struct AllowComment {
    /// 1-based line of the comment itself (where unused-suppression
    /// findings anchor).
    pub line: u32,
    /// 1-based byte column of the comment.
    pub col: u32,
    /// The rule names listed, in written order.
    pub rules: Vec<String>,
    /// First covered line (the comment's own).
    pub first: u32,
    /// Last covered line (own line, plus the next for standalone comments).
    pub last: u32,
}

/// One `fn` item: its name and the code-token range of its body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index into [`SourceFile::code`] of the body's opening `{`.
    pub body_open: usize,
    /// Index into [`SourceFile::code`] of the body's closing `}` (or the
    /// last token if unterminated).
    pub body_close: usize,
}

impl SourceFile {
    /// Lexes and analyzes one file. Total for arbitrary content.
    pub fn analyze(path: impl Into<String>, src: impl Into<String>) -> SourceFile {
        let src = src.into();
        let tokens = lex(&src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            path: path.into(),
            src,
            tokens,
            code,
            test_regions: Vec::new(),
            fns: Vec::new(),
            allows: Vec::new(),
        };
        file.find_test_regions();
        file.find_fns();
        file.find_allows();
        file
    }

    /// The text of code token `k` (an index into [`SourceFile::code`]).
    pub fn ct(&self, k: usize) -> &str {
        let t = &self.tokens[self.code[k]];
        &self.src[t.start..t.end]
    }

    /// The token behind code index `k`.
    pub fn tok(&self, k: usize) -> &Token {
        &self.tokens[self.code[k]]
    }

    /// Number of code tokens.
    pub fn n_code(&self) -> usize {
        self.code.len()
    }

    /// The kind of code token `k`, or `None` past the end.
    pub fn tok_kind(&self, k: usize) -> Option<TokKind> {
        (k < self.code.len()).then(|| self.tok(k).kind)
    }

    /// Whether code token `k` is an identifier with exactly this text.
    pub fn is_ident(&self, k: usize, text: &str) -> bool {
        k < self.code.len() && self.tok(k).kind == TokKind::Ident && self.ct(k) == text
    }

    /// Whether code token `k` is the single punctuation byte `p`.
    pub fn is_punct(&self, k: usize, p: char) -> bool {
        k < self.code.len()
            && self.tok(k).kind == TokKind::Punct
            && self.src.as_bytes()[self.tok(k).start] == p as u8
    }

    /// Whether byte offset `at` falls inside a `#[cfg(test)]` region.
    pub fn in_test(&self, at: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// A [`Finding`] at code token `k`.
    pub fn finding(
        &self,
        rule: &'static str,
        severity: Severity,
        k: usize,
        message: impl Into<String>,
    ) -> Finding {
        let t = self.tok(k);
        Finding {
            rule,
            severity,
            path: self.path.clone(),
            line: t.line,
            col: t.col,
            message: message.into(),
        }
    }

    /// Whether `rule` is suppressed on `line` by an inline allow comment.
    pub fn suppressed(&self, line: u32, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|a| line >= a.first && line <= a.last && a.rules.iter().any(|r| r == rule))
    }

    /// Marks `#[cfg(test)]` (and `#![cfg(test)]`, and `cfg(all(test, …))`)
    /// items. An attribute whose first path segment is `cfg` and whose
    /// arguments mention `test` without a `not` marks the item that
    /// follows — through any further attributes, up to the matching `}`
    /// of its body or the terminating `;`. The heuristic is deliberately
    /// conservative: over-marking skips lint checks in a region, it never
    /// invents findings.
    fn find_test_regions(&mut self) {
        let mut regions = Vec::new();
        let mut k = 0usize;
        while k < self.n_code() {
            if !self.is_punct(k, '#') {
                k += 1;
                continue;
            }
            let attr_start_byte = self.tok(k).start;
            let mut j = k + 1;
            let inner = self.is_punct(j, '!');
            if inner {
                j += 1;
            }
            if !self.is_punct(j, '[') {
                k += 1;
                continue;
            }
            let (is_test_attr, after_attr) = self.scan_attr(j);
            if !is_test_attr {
                k = after_attr.max(k + 1);
                continue;
            }
            if inner {
                // `#![cfg(test)]`: everything from here on is test code.
                regions.push((attr_start_byte, self.src.len()));
                break;
            }
            // Skip any further attributes on the same item.
            let mut j = after_attr;
            while self.is_punct(j, '#') && self.is_punct(j + 1, '[') {
                let (_, next) = self.scan_attr(j + 1);
                j = next;
            }
            // Find the item's extent: first `{` (brace-matched) or `;` at
            // paren/bracket depth 0.
            let mut depth = 0i32;
            let end_byte = loop {
                if j >= self.n_code() {
                    break self.src.len();
                }
                if self.is_punct(j, '(') || self.is_punct(j, '[') {
                    depth += 1;
                } else if self.is_punct(j, ')') || self.is_punct(j, ']') {
                    depth -= 1;
                } else if depth == 0 && self.is_punct(j, ';') {
                    break self.tok(j).end;
                } else if depth == 0 && self.is_punct(j, '{') {
                    break self.tok(self.match_brace(j)).end;
                }
                j += 1;
            };
            regions.push((attr_start_byte, end_byte));
            k += 1;
        }
        self.test_regions = regions;
    }

    /// Scans an attribute starting at its `[` (code index). Returns
    /// whether it is a `cfg`-with-`test` attribute and the code index just
    /// past the closing `]`.
    fn scan_attr(&self, open: usize) -> (bool, usize) {
        let mut depth = 0i32;
        let mut j = open;
        let first_ident = if open + 1 < self.n_code() && self.tok(open + 1).kind == TokKind::Ident {
            self.ct(open + 1).to_string()
        } else {
            String::new()
        };
        let mut saw_test = false;
        let mut saw_not = false;
        while j < self.n_code() {
            if self.is_punct(j, '[') || self.is_punct(j, '(') {
                depth += 1;
            } else if self.is_punct(j, ']') || self.is_punct(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if self.tok(j).kind == TokKind::Ident {
                match self.ct(j) {
                    "test" => saw_test = true,
                    "not" => saw_not = true,
                    _ => {}
                }
            }
            j += 1;
        }
        let is_test = first_ident == "cfg" && saw_test && !saw_not;
        (is_test, j + 1)
    }

    /// Index (into `code`) of the `}` matching the `{` at `open`; the last
    /// token when unterminated.
    fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.n_code() {
            if self.is_punct(j, '{') {
                depth += 1;
            } else if self.is_punct(j, '}') {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.n_code().saturating_sub(1)
    }

    /// Records every `fn` item with a body. The body is the first `{` at
    /// paren/bracket depth 0 after the signature (`;`-terminated trait
    /// methods have none and are skipped).
    fn find_fns(&mut self) {
        let mut fns = Vec::new();
        for k in 0..self.n_code() {
            if !self.is_ident(k, "fn") {
                continue;
            }
            let Some(name_k) = (k + 1 < self.n_code()).then_some(k + 1) else {
                continue;
            };
            if self.tok(name_k).kind != TokKind::Ident {
                continue;
            }
            let name = self.ct(name_k).to_string();
            let mut depth = 0i32;
            let mut j = name_k + 1;
            let open = loop {
                if j >= self.n_code() {
                    break None;
                }
                if self.is_punct(j, '(') || self.is_punct(j, '[') {
                    depth += 1;
                } else if self.is_punct(j, ')') || self.is_punct(j, ']') {
                    depth -= 1;
                } else if depth == 0 && self.is_punct(j, ';') {
                    break None; // bodiless (trait signature / extern)
                } else if depth == 0 && self.is_punct(j, '{') {
                    break Some(j);
                }
                j += 1;
            };
            if let Some(open) = open {
                fns.push(FnSpan {
                    name,
                    body_open: open,
                    body_close: self.match_brace(open),
                });
            }
        }
        self.fns = fns;
    }

    /// Parses `ccp-lint: allow(rule-a, rule-b)` comments into
    /// [`AllowComment`] records.
    fn find_allows(&mut self) {
        let mut allows = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            let text = &self.src[t.start..t.end];
            // Doc comments describe the syntax; they never invoke it.
            if ["///", "//!", "/**", "/*!"]
                .iter()
                .any(|d| text.starts_with(d))
            {
                continue;
            }
            let Some(rules) = parse_allow(text) else {
                continue;
            };
            // Trailing comment → own line; standalone → own line + next.
            let standalone = !self.tokens[..i].iter().any(|p| {
                p.line == t.line && !matches!(p.kind, TokKind::LineComment | TokKind::BlockComment)
            });
            allows.push(AllowComment {
                line: t.line,
                col: t.col,
                rules,
                first: t.line,
                last: t.line + u32::from(standalone),
            });
        }
        self.allows = allows;
    }
}

/// Extracts rule names from a `ccp-lint: allow(…)` comment, or `None`.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let at = comment.find("ccp-lint:")?;
    let rest = comment[at + "ccp-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    // Rule names are kebab-case idents; anything else (e.g. the `<rule>`
    // placeholder in prose explaining the syntax) is not an allow.
    let well_formed = |r: &String| {
        r.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
    };
    (!rules.is_empty() && rules.iter().all(well_formed)).then_some(rules)
}

/// A single rule: a name, a default severity, a path scope, and a checker.
pub trait Rule {
    /// Kebab-case rule name (what `allow(…)` refers to).
    fn name(&self) -> &'static str;
    /// Default severity of this rule's findings.
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and documentation.
    fn describe(&self) -> &'static str;
    /// Whether the rule runs on this workspace-relative path.
    fn applies(&self, path: &str) -> bool;
    /// Workspace paths (directory prefixes or files) that
    /// [`Rule::applies`] names, whether it scopes the rule to them or
    /// carves them out. Every one must exist in the linted workspace, so
    /// deleting a crate cannot leave a rule silently scoped to nothing.
    fn scope(&self) -> &'static [&'static str] {
        &[]
    }
    /// Scans one analyzed file and returns raw findings (suppressions are
    /// applied by the engine).
    fn check(&self, file: &SourceFile) -> Vec<Finding>;
}

/// The outcome of linting some set of files.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Surviving findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by inline `allow` comments.
    pub suppressed: usize,
    /// Files scanned.
    pub files: usize,
}

impl Outcome {
    /// Findings at [`Severity::Deny`].
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Findings at [`Severity::Warn`].
    pub fn warn_count(&self) -> usize {
        self.findings.len() - self.deny_count()
    }

    /// Whether the run fails: any deny finding, or any finding at all
    /// under `--deny warnings`.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        if deny_warnings {
            !self.findings.is_empty()
        } else {
            self.deny_count() > 0
        }
    }
}

/// Lints a set of analyzed files as one workspace: per-file rules, then
/// whole-program passes over the linked [`Workspace`], then suppression
/// with per-entry usage tracking — any `allow(…)` entry that silenced
/// nothing becomes an [`UNUSED_SUPPRESSION`] finding (itself allowable
/// with `allow(unused-suppression)` on the same comment).
///
/// The single core behind [`lint_source`], [`lint_tree`], and the
/// fixture harness. Findings are globally sorted by
/// `(path, line, rule, col, message)` so human and `--json` output are
/// byte-stable across runs.
pub fn lint_files(
    files: Vec<SourceFile>,
    rules: &[Box<dyn Rule>],
    passes: &[Box<dyn crate::passes::Pass>],
) -> Outcome {
    let n_files = files.len();
    let mut raw: Vec<Finding> = Vec::new();
    for file in &files {
        for rule in rules {
            if rule.applies(&file.path) {
                raw.extend(rule.check(file));
            }
        }
    }
    let ws = crate::callgraph::Workspace::build(files);
    for pass in passes {
        raw.extend(pass.check(&ws));
    }
    let files = &ws.files;
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    // Apply suppressions, recording which (file, allow, rule) entries fire.
    let mut used: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        let Some(&fi) = by_path.get(f.path.as_str()) else {
            findings.push(f);
            continue;
        };
        let mut hit = false;
        for (ai, allow) in files[fi].allows.iter().enumerate() {
            if f.line < allow.first || f.line > allow.last {
                continue;
            }
            for (ri, r) in allow.rules.iter().enumerate() {
                if r == f.rule {
                    used.insert((fi, ai, ri));
                    hit = true;
                }
            }
        }
        if hit {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    // Unused entries are findings. `allow(unused-suppression)` entries are
    // exempt from the check (they are consumed by the meta round below).
    for (fi, file) in files.iter().enumerate() {
        for (ai, allow) in file.allows.iter().enumerate() {
            for (ri, r) in allow.rules.iter().enumerate() {
                if r == UNUSED_SUPPRESSION || used.contains(&(fi, ai, ri)) {
                    continue;
                }
                let meta = Finding {
                    rule: UNUSED_SUPPRESSION,
                    severity: Severity::Warn,
                    path: file.path.clone(),
                    line: allow.line,
                    col: allow.col,
                    message: format!(
                        "`allow({r})` suppresses nothing — the violation it excused is \
                         gone (or the rule name is wrong); delete the comment"
                    ),
                };
                if file.suppressed(meta.line, UNUSED_SUPPRESSION) {
                    suppressed += 1;
                } else {
                    findings.push(meta);
                }
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, a.col, &a.message)
            .cmp(&(&b.path, b.line, b.rule, b.col, &b.message))
    });
    Outcome {
        findings,
        suppressed,
        files: n_files,
    }
}

/// Lints one in-memory source under a (possibly virtual) path: rules
/// only, no whole-program passes.
pub fn lint_source(path: &str, src: &str, rules: &[Box<dyn Rule>]) -> Outcome {
    lint_files(vec![SourceFile::analyze(path, src)], rules, &[])
}

/// Directories never scanned: build output, VCS, the offline dependency
/// stand-ins (foreign idiom by design), and the lint fixture corpus
/// (deliberate violations).
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "crates/compat",
    "crates/lint/tests/fixtures",
];

/// Collects every `.rs` file under `root`, sorted, skipping [`SKIP_DIRS`].
pub fn walk(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk_into(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk_into(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.iter().any(|s| rel == *s) || rel.starts_with('.') {
                continue;
            }
            walk_into(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints every source file under `root` as one workspace: per-file
/// `rules` plus whole-program `passes`.
pub fn lint_tree(
    root: &Path,
    rules: &[Box<dyn Rule>],
    passes: &[Box<dyn crate::passes::Pass>],
) -> std::io::Result<Outcome> {
    let mut files = Vec::new();
    for path in walk(root)? {
        let bytes = std::fs::read(&path)?;
        let src = String::from_utf8_lossy(&bytes);
        files.push(SourceFile::analyze(rel_path(root, &path), src));
    }
    Ok(lint_files(files, rules, passes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_mod_and_fn() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::analyze("a.rs", src);
        assert_eq!(f.test_regions.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(f.in_test(unwrap_at));
        assert!(!f.in_test(src.find("live2").unwrap()));
        assert!(!f.in_test(0));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = SourceFile::analyze("a.rs", "#[cfg(not(test))]\nfn live() {}\n");
        assert!(f.test_regions.is_empty());
        let f = SourceFile::analyze(
            "a.rs",
            "#[cfg_attr(test, allow(dead_code))]\nfn live() {}\n",
        );
        assert!(f.test_regions.is_empty());
        let f = SourceFile::analyze("a.rs", "#[cfg(all(test, unix))]\nmod t {}\n");
        assert_eq!(f.test_regions.len(), 1);
    }

    #[test]
    fn inner_cfg_test_marks_rest_of_file() {
        let f = SourceFile::analyze("a.rs", "fn a() {}\n#![cfg(test)]\nfn b() {}\n");
        assert!(!f.in_test(0));
        assert!(f.in_test(f.src.find("fn b").unwrap()));
    }

    #[test]
    fn fn_spans_found_with_generics_and_where() {
        let src = "fn f<T: Into<Vec<u8>>>(x: [u8; 3]) -> bool where T: Send { x.len() > 0 }\ntrait T { fn sig(&self); }\n";
        let f = SourceFile::analyze("a.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "f");
    }

    #[test]
    fn suppression_trailing_and_standalone() {
        let src = "\
fn a() { x.y(); } // ccp-lint: allow(rule-x) — justified
// ccp-lint: allow(rule-y, rule-z)
fn b() {}
fn c() {}
";
        let f = SourceFile::analyze("a.rs", src);
        assert!(f.suppressed(1, "rule-x"));
        assert!(!f.suppressed(2, "rule-x"));
        assert!(f.suppressed(2, "rule-y"));
        assert!(f.suppressed(3, "rule-y"));
        assert!(f.suppressed(3, "rule-z"));
        assert!(!f.suppressed(4, "rule-y"));
    }

    #[test]
    fn parse_allow_forms() {
        assert_eq!(
            parse_allow("// ccp-lint: allow(a-b)"),
            Some(vec!["a-b".to_string()])
        );
        assert_eq!(
            parse_allow("/* ccp-lint: allow(x, y) trailing */"),
            Some(vec!["x".to_string(), "y".to_string()])
        );
        assert_eq!(parse_allow("// ccp-lint: allow()"), None);
        assert_eq!(parse_allow("// plain comment"), None);
        assert_eq!(parse_allow("// ccp-lint: deny(a)"), None);
    }

    #[test]
    fn suppression_in_string_literal_is_inert() {
        let src = "fn a() { let s = \"// ccp-lint: allow(rule-x)\"; }\n";
        let f = SourceFile::analyze("a.rs", src);
        assert!(!f.suppressed(1, "rule-x"));
    }
}
