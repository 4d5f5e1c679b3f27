//! Properties of the blanking pass and token walk in `source_scan`.
//!
//! Both run over whatever bytes a workspace file happens to contain, so the
//! contract is totality: on arbitrary input they never panic, blanking keeps
//! the text's length and every newline, and the tokens are sound slices of
//! it. The last property pins what keeps the rules quiet where they must be:
//! identifiers inside strings and comments are invisible.

#[allow(
    dead_code,
    reason = "the tree walk is used by tests/source_rules.rs only"
)]
mod source_scan;

use proptest::prelude::*;
use source_scan::{blank, check, tokens};

/// The token walk's whitespace: ASCII whitespace plus vertical tab, which
/// rustc also skips but `is_ascii_whitespace` omits.
fn is_scan_whitespace(c: char) -> bool {
    c.is_ascii_whitespace() || c == '\u{b}'
}

/// Where a token of `code` starts.
fn offset(code: &str, tok: &str) -> usize {
    tok.as_ptr() as usize - code.as_ptr() as usize
}

/// Byte soup biased toward the scanner's tricky territory: quotes, hashes,
/// slashes, backslashes, and raw multi-byte/continuation bytes.
fn spicy_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            4 => any::<u8>(),
            1 => Just(b'"'),
            1 => Just(b'\''),
            1 => Just(b'#'),
            1 => Just(b'/'),
            1 => Just(b'*'),
            1 => Just(b'\\'),
            1 => Just(b'r'),
            1 => Just(0xE2u8), // common UTF-8 lead byte (em-dash family)
        ],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totality and soundness on arbitrary byte soup: blanking and the rules
    /// never panic; blanking keeps the length and every newline and turns
    /// other bytes only into spaces; every token is non-empty, in order,
    /// sliced at char boundaries, and only whitespace lies between tokens.
    #[test]
    fn lexer_is_total_with_sound_spans(bytes in spicy_bytes()) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let (code, _) = (blank(&src), check(&src));
        prop_assert_eq!(code.len(), src.len());
        for (s, c) in src.bytes().zip(code.bytes()) {
            prop_assert!(c == s || (c == b' ' && s != b'\n'), "{:?} blanked to {:?}", src, code);
        }
        let mut prev_end = 0usize;
        for (tok, _) in tokens(&code) {
            let start = offset(&code, tok);
            prop_assert!(start >= prev_end, "tokens overlap or go backwards");
            prop_assert!(!tok.is_empty(), "empty token");
            for gap in code[prev_end..start].chars() {
                prop_assert!(is_scan_whitespace(gap), "{gap:?} fell between tokens");
            }
            prev_end = start + tok.len();
        }
        for tail in code[prev_end..].chars() {
            prop_assert!(is_scan_whitespace(tail), "trailing {tail:?} was dropped");
        }
    }

    /// Each token's line matches an independent recount of the newlines
    /// before it in the source.
    #[test]
    fn line_numbers_match_a_recount(bytes in spicy_bytes()) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let code = blank(&src);
        for (tok, line) in tokens(&code) {
            let before = src.as_bytes()[..offset(&code, tok)].iter().filter(|&&b| b == b'\n');
            prop_assert_eq!(line as usize, 1 + before.count(), "line drifted from newline count");
        }
    }

    /// An identifier inside a string literal or a comment is blanked; the
    /// same identifier in code is a token.
    #[test]
    fn strings_and_comments_hide_identifiers(
        letters in prop::collection::vec(0u8..26, 3..10),
        container in 0u32..4,
    ) {
        let payload: String = letters.iter().map(|&b| char::from(b'h' + (b % 13))).collect();
        let src = match container {
            0 => format!("let x = \"{payload}\";\n"),
            1 => format!("let x = 1; // {payload}\n"),
            2 => format!("/* outer /* {payload} */ still */ let x = 1;\n"),
            _ => format!("let x = r#\"{payload}\"#;\n"),
        };
        let seen = |src: &str| tokens(&blank(src)).iter().any(|t| t.0 == payload);
        prop_assert!(!seen(&src), "{:?} leaked out of {:?}", payload, src);
        prop_assert!(seen(&format!("fn demo() {{ let {payload} = 1; }}\n")));
    }
}
