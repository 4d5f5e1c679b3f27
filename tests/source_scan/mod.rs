//! The scanner for the two workspace source rules no rustc or clippy lint
//! states (DESIGN.md §9): **R1**, no `Result<_, String>` (a `SimError` class
//! tags exit codes and the wire protocol), and **R7**, every scalar field of a
//! `*Stats` or `*Meter` struct is `u64` (long streams pass 2³² events). Both
//! walk the identifiers and punctuation left once every comment and string or
//! char literal is blanked to spaces, newlines kept, so they see code only and
//! lines hold.
//!
//! `tests/source_rules.rs` runs the rules over the tree, `tests/lexer_props.rs`
//! holds the scanner's properties, and the root package's unit tests hold its
//! cases; each includes this file.

use std::path::Path;

/// Skipped: the stand-ins for registry crates follow those crates' idiom.
pub const EXCLUDED: &str = "crates/compat/";

/// Whether the rules check the file at workspace-relative path `rel`.
pub fn in_scope(rel: &str) -> bool {
    !rel.starts_with(EXCLUDED)
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// How many bytes from `b[i]` on satisfy `p`.
fn run(b: &[u8], i: usize, p: impl Fn(u8) -> bool) -> usize {
    b[i..].iter().take_while(|&&c| p(c)).count()
}

/// `src` with every comment and string or char literal replaced by spaces,
/// newlines kept: the same length, and every line where it was.
pub fn blank(src: &str) -> String {
    let b = src.as_bytes();
    let (mut out, mut i) = (b.to_vec(), 0);
    while i < b.len() {
        let end = literal_end(b, i);
        for c in out[i..end].iter_mut().filter(|c| **c != b'\n') {
            *c = b' ';
        }
        // Identifiers go whole: a string prefix counts only where one starts.
        i = end.max(i + run(b, i, is_ident).max(1));
    }
    String::from_utf8(out).expect("blanking replaces whole characters")
}

/// The end of the comment or literal that starts at `b[i]`, or `i` for code.
/// Unterminated ones run to the end of the text.
fn literal_end(b: &[u8], i: usize) -> usize {
    match (b[i], b.get(i + 1).copied()) {
        (b'/', Some(b'/')) => i + run(b, i, |c| c != b'\n'),
        (b'/', Some(b'*')) => comment_end(b, i + 2),
        (b'"', _) => quoted(b, i + 1, b'"'),
        (b'\'', _) => char_end(b, i),
        (b'b', Some(b'\'')) if char_end(b, i + 1) > i + 1 => char_end(b, i + 1),
        (b'r' | b'b' | b'c', next) => {
            // `r`, `b`, `c`, `br` and `cr` prefixes; raw ones take hashes.
            let letters = 1 + usize::from(b[i] != b'r' && next == Some(b'r'));
            let raw = b[i + letters - 1] == b'r';
            let hashes = run(b, i + letters, |c| raw && c == b'#');
            let open = i + letters + hashes;
            match b.get(open) {
                Some(b'"') if raw => (open + 1..b.len())
                    .find(|&k| b[k] == b'"' && run(b, k + 1, |c| c == b'#') >= hashes)
                    .map_or(b.len(), |k| k + 1 + hashes),
                Some(b'"') => quoted(b, open + 1, b'"'),
                _ => i, // an identifier, raw ones (`r#fn`) included
            }
        }
        _ => i,
    }
}

/// The end of a block comment whose body starts at `k`; comments nest.
fn comment_end(b: &[u8], mut k: usize) -> usize {
    while k < b.len() && !b[k..].starts_with(b"*/") {
        let nested = b[k..].starts_with(b"/*");
        k = if nested { comment_end(b, k + 2) } else { k + 1 };
    }
    (k + 2).min(b.len())
}

/// The end of an escape-aware literal whose body starts at `k`.
fn quoted(b: &[u8], mut k: usize, quote: u8) -> usize {
    while k < b.len() && b[k] != quote {
        k += if b[k] == b'\\' { 2 } else { 1 };
    }
    (k + 1).min(b.len())
}

/// The end of the char literal opening at `b[i] == '\''`, or `i` for a
/// lifetime, a label or a lone quote.
fn char_end(b: &[u8], i: usize) -> usize {
    let width = match b.get(i + 1) {
        Some(b'\\') => return quoted(b, i + 1, b'\''),
        Some(b'\'') => 0,
        _ => run(b, i + 1, is_ident).max(1),
    };
    match b.get(i + 1 + width) {
        Some(b'\'') => i + 2 + width,
        _ => i,
    }
}

/// The identifier runs and single punctuation characters of blanked text,
/// each with its 1-based line.
pub fn tokens(code: &str) -> Vec<(&str, u32)> {
    let b = code.as_bytes();
    let (mut out, mut line, mut i) = (Vec::new(), 1, 0);
    while i < b.len() {
        let len = run(b, i, is_ident).max(1);
        if !b[i].is_ascii_whitespace() && b[i] != 0x0b {
            out.push((&code[i..i + len], line));
        }
        line += u32::from(b[i] == b'\n');
        i += len;
    }
    out
}

/// The tokens of the second top-level argument of the generic list that
/// opens at `t[open]`. `None` when the list has another arity, does not
/// close within 256 tokens, or meets `;`/`{` first (a comparison, not a list).
fn second_generic_arg<'a>(t: &[(&'a str, u32)], open: usize) -> Option<Vec<&'a str>> {
    let (mut depth, mut args) = (0, vec![Vec::new()]);
    for j in open..(open + 256).min(t.len()) {
        let closes = t[j].0 == ">" && t[j - 1].0 != "-"; // not a fn type's `->`
        let opens = matches!(t[j].0, "<" | "(" | "[");
        depth += i32::from(opens) - i32::from(closes || matches!(t[j].0, ")" | "]"));
        match t[j].0 {
            ";" | "{" => return None,
            "<" if depth == 1 => {}
            "," if depth == 1 => args.push(Vec::new()),
            _ if closes && depth == 0 => {
                // A trailing comma leaves an empty last argument.
                let trailing = args.len() > 1 && args.last().is_some_and(Vec::is_empty);
                return (args.len() - usize::from(trailing) == 2).then(|| args.swap_remove(1));
            }
            _ => args.last_mut()?.push(t[j].0),
        }
    }
    None
}

/// Every R1 and R7 finding in one file, as `(rule, line, message)`.
pub fn check(src: &str) -> Vec<(&'static str, u32, String)> {
    let code = blank(src);
    let t = tokens(&code);
    let is = |k: usize, s: &str| t.get(k).is_some_and(|x| x.0 == s);
    let mut out = Vec::new();
    for k in 0..t.len() {
        let stringly = || second_generic_arg(&t, k + 1) == Some(vec!["String"]);
        if is(k, "Result") && is(k + 1, "<") && stringly() {
            let msg = "`Result<_, String>` erases the error class; return `SimResult<_>`";
            out.push(("R1", t[k].1, msg.to_string()));
        }
        let name = t.get(k + 1).map_or("", |x| x.0);
        if !is(k, "struct") || !(name.ends_with("Stats") || name.ends_with("Meter")) {
            continue;
        }
        // The braced body; a `;` first means a unit or tuple struct.
        let body = (k + 2..t.len()).find(|&j| is(j, "{") || is(j, ";"));
        let Some(open) = body.filter(|&j| is(j, "{")) else {
            continue;
        };
        let mut depth = 0;
        let close = (open..t.len()).find(|&j| {
            depth += i32::from(is(j, "{")) - i32::from(is(j, "}"));
            depth == 0
        });
        let close = close.unwrap_or(t.len() - 1);
        for j in open + 1..close {
            let ty = ["u8", "u16", "u32"].into_iter().find(|ty| is(j + 1, ty));
            if let Some(ty) = ty.filter(|_| is(j, ":") && (is(j + 2, ",") || j + 2 == close)) {
                let msg = format!("`{ty}` counter in `{name}` wraps silently; count in u64");
                out.push(("R7", t[j + 1].1, msg));
            }
        }
    }
    out
}

/// The path from `root` of every `.rs` file under `dir`, skipping `target`
/// and hidden directories.
pub fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable workspace") {
        let path = entry.expect("readable workspace").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            walk(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            out.push(rel.display().to_string());
        }
    }
}
