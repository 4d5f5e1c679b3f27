//! Cases for the blanking pass and token walk of `source_scan`, run as unit
//! tests of the root package, which includes this file by path.

use crate::source_scan::{blank, tokens};

/// The tokens left in `src` after blanking, a newline at each line break.
fn code(src: &str) -> String {
    let blanked = blank(src);
    let toks = tokens(&blanked);
    let mut out = toks.first().map_or(String::new(), |t| t.0.to_string());
    for w in toks.windows(2) {
        out += if w[1].1 > w[0].1 { "\n" } else { " " };
        out += w[1].0;
    }
    out
}

mod tests {
    use super::*;

    #[test]
    fn idents_puncts_numbers() {
        assert_eq!(code("let x = a.unwrap();"), "let x = a . unwrap ( ) ;");
    }

    #[test]
    fn strings_swallow_code_like_text() {
        let src = r#"let s = "x.unwrap() // not code";"#;
        assert_eq!(code(src), "let s = ;");
        assert!(!blank(src).contains("unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r##"let s = r#"a "quoted" .unwrap()"# ; next"##;
        assert_eq!(code(src), "let s = ; next");
    }

    #[test]
    fn byte_and_c_strings() {
        let src = r##"b"bytes" c"cstr" br"raw" cr#"c"#"##;
        assert_eq!(blank(src).trim(), "", "{src:?}");
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(code("a /* outer /* inner */ still */ b"), "a b");
    }

    #[test]
    fn line_comments_stop_at_newline() {
        assert_eq!(code("a // unwrap() here\nb"), "a\nb");
        assert_eq!(tokens(&blank("a // c\nb"))[1], ("b", 2));
    }

    /// A quote opens a char literal only where one closes; a lifetime or a
    /// label stays code.
    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(code(r"<'a> 'x' '\n' 'static b'z'"), "< ' a > ' static");
        assert_eq!(code(r"'{' '\'' 'é' 'outer: loop"), "' outer : loop");
    }

    /// `r#fn` is an identifier, not a raw string: it stays code.
    #[test]
    fn raw_identifier_keeps_prefix() {
        assert_eq!(code("r#fn r#type normal"), "r # fn r # type normal");
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_fields() {
        let got = code("1..2 3.5 0xFF_u32 x.0");
        assert_eq!(got, "1 . . 2 3 . 5 0xFF_u32 x . 0");
    }

    #[test]
    fn unterminated_constructs_run_to_eof() {
        for src in ["\"never closed", "r#\"also open", "/* open", "'\\", "b\"x"] {
            assert_eq!(blank(src).trim(), "", "{src:?}");
        }
    }

    #[test]
    fn multibyte_utf8_stays_whole() {
        let src = "let héllo = \"ωorld\"; // caféine";
        assert_eq!(blank(src).len(), src.len());
        assert_eq!(code(src), "let héllo = ;");
    }

    /// Each token is the slice of the blanked text where it stands, at a
    /// 1-based byte column of its line.
    #[test]
    fn columns_are_one_based_bytes() {
        let text = blank("ab cd\n  ef");
        let at: Vec<(u32, usize)> = tokens(&text)
            .iter()
            .map(|&(tok, line)| {
                let start = tok.as_ptr() as usize - text.as_ptr() as usize;
                (
                    line,
                    start - text[..start].rfind('\n').map_or(0, |n| n + 1) + 1,
                )
            })
            .collect();
        assert_eq!(at, [(1, 1), (1, 4), (2, 3)]);
    }
}
