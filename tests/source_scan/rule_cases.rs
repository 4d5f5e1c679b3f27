//! Cases for R1 and R7 in `source_scan`, run as unit tests of the root
//! package, which includes this file by path.

use crate::source_scan::check;

/// The lines where `rule` flags `src`.
fn lines(rule: &str, src: &str) -> Vec<u32> {
    check(src)
        .into_iter()
        .filter(|f| f.0 == rule)
        .map(|f| f.1)
        .collect()
}

mod tests {
    use super::*;
    use crate::source_scan::in_scope;

    #[test]
    fn r1_flags_stringly_results_only() {
        let src = "\
//! R1: `Result<_, String>` is denied; typed errors and `String` on the
//! Ok side pass.

fn bad_parse(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| \"not a number\".to_string())
}

fn typed(s: &str) -> Result<u32, SimError> {
    s.parse().map_err(|_| SimError::spec(\"not a number\"))
}

fn string_is_the_payload() -> Result<String, std::io::Error> {
    Ok(String::new())
}

fn not_a_result(map: BTreeMap<String, Vec<String>>) -> usize {
    map.len()
}
fn a() -> Result<Args, String> { x }
fn b() -> Result<Vec<String>, SimError> { x }
fn c() -> SimResult<String> { x }
fn d(x: Result<(), String>) {}
fn e(f: Result<fn(u8) -> u32, String>) {}
fn g() -> io::Result<String> { x }
fn h() -> Result<
    u32,
    String,
> { x }
";
        assert_eq!(lines("R1", src), [4, 19, 22, 23, 25]);
    }

    #[test]
    fn r1_skips_compat_and_comments() {
        assert!(!in_scope("crates/compat/rand/src/lib.rs"));
        assert!(in_scope("crates/sim/src/lib.rs"));
        assert_eq!(
            lines("R1", "// returns Result<A, String>\nfn a() {}\n"),
            [0; 0]
        );
        assert_eq!(lines("R1", "    /// -> Result<A, String>\n"), [0; 0]);
        assert_eq!(lines("R1", "/* Result<A, String> */\n"), [0; 0]);
        assert_eq!(
            lines("R1", "const S: &str = \"Result<A, String>\";\n"),
            [0; 0]
        );
    }

    #[test]
    fn r7_flags_narrow_counters_in_stats_and_meter_structs() {
        let src = "\
//! R7: scalar u8/u16/u32 fields in `*Stats` / `*Meter` structs are
//! flagged; u64 counters, non-scalar payloads and structs outside the
//! naming convention pass.

pub struct WrapStats {
    pub hits: u32,
    pub misses: u64,
    pub retries: u16,
}

pub struct DropMeter {
    pub dropped: u32,
}
pub struct FlowMeter { pub packets: u32 }
ccp_mem::counters! {
    /// Declared through the macro: still a counter struct.
    #[derive(Debug, Default)]
    pub struct XStats { pub ok: u64, pub wraps: u8 }
}
";
        assert_eq!(lines("R7", src), [6, 8, 12, 14, 18]);
    }

    /// Test code has no exemption: `TinyStats` and `OtherStats` are flagged.
    #[test]
    fn r7_ignores_non_counter_structs_and_non_scalar_fields() {
        let src = "\
pub struct SafeStats {
    pub events: u64,
    pub histogram: Vec<u32>,
    pub pairs: BTreeMap<u32, u64>,
    pub nested: Option<Inner<u32>>,
}

pub struct LineState {
    pub tag: u32,
}

pub struct TupleStats(u32);

#[cfg(test)]
mod tests {
    struct TinyStats {
        n: u32,
    }
}

#[cfg(test)]
struct OtherStats {
    n: u16,
}

// pub struct CommentStats { n: u32 }
const DOC: &str = \"pub struct StringStats { n: u32 }\";
";
        assert_eq!(lines("R7", src), [17, 23]);
    }
}
