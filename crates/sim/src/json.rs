//! A minimal JSON emitter/parser for experiment results and stored stats.
//!
//! The approved dependency set includes `serde` but no JSON backend, and
//! the experiment outputs are simple (strings, numbers, arrays, flat
//! objects), so a small value tree with a spec-compliant writer — plus a
//! recursive-descent reader for stored stats payloads — keeps the `repro
//! --json` and `repro sweep --store` features dependency-free.
//!
//! File output goes through [`write_atomic`]: contents land in a sibling
//! temporary file first and are moved into place with `rename`, so a crash
//! mid-write can never leave a torn half-written report or store entry.

use ccp_errors::{SimError, SimResult};
use ccp_mem::Counters;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares a counter struct that [`counters_to_json`] and
/// [`counters_from_json`] encode, for crates that reach the codec here.
pub use ccp_mem::counters;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integral values print without a trailing ".0".
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the subset the writer emits: no exponent
    /// loss concerns beyond `f64`, strings with the standard escapes).
    ///
    /// The parser also sits on a network boundary (`ccp-served` reads
    /// requests off a TCP socket with it), so it must *reject* rather than
    /// panic or recurse unboundedly on adversarial input: nesting deeper
    /// than [`MAX_DEPTH`] and numbers that overflow `f64` to ±∞ are
    /// reported as [`SimError::Corrupt`].
    pub fn parse(text: &str) -> SimResult<Json> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(SimError::corrupt(
                "json",
                format!("trailing bytes at offset {}", p.pos),
            ));
        }
        Ok(v)
    }

    /// The number, if this is a finite numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Maximum container nesting depth the parser accepts. Recursive descent
/// consumes native stack per level; unbounded `[[[[…` from an untrusted
/// peer must fail cleanly, not overflow the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> SimError {
        SimError::corrupt("json", format!("{} at offset {}", detail.into(), self.pos))
    }

    fn enter(&mut self) -> SimResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> SimResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> SimResult<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> SimResult<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> SimResult<Json> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // Only ASCII bytes were consumed above, so the slice is valid
        // UTF-8; lossy conversion keeps this total without an `expect`.
        let s = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        match s.parse::<f64>() {
            // `"1e999".parse::<f64>()` is Ok(inf): overflowing literals
            // must be rejected, not smuggled in as ±∞ (the writer never
            // emits them, and ∞ round-trips as null).
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err(format!("non-finite number {s:?}"))),
            Err(_) => Err(self.err(format!("bad number {s:?}"))),
        }
    }

    fn string(&mut self) -> SimResult<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let Some(c) = rest.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> SimResult<Json> {
        self.enter()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> SimResult<Json> {
        self.enter()?;
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temporary file which is then `rename`d into place, so readers (and
/// crash recovery) only ever observe the old file or the complete new one,
/// never a torn prefix.
pub fn write_atomic(path: &Path, contents: &str) -> SimResult<()> {
    write_atomic_bytes(path, contents.as_bytes())
}

/// Byte-level twin of [`write_atomic`] for binary artifacts (e.g. the
/// entries of the on-disk result store). Each call writes its own temp
/// file, so concurrent writers of one path each rename a whole payload.
pub fn write_atomic_bytes(path: &Path, contents: &[u8]) -> SimResult<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let pstr = path.display().to_string();
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| SimError::corrupt("path", format!("no file name in {pstr:?}")))?;
    let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}.{n}", std::process::id()));
    #[expect(
        clippy::disallowed_methods,
        reason = "the temp half of the temp-then-rename write"
    )]
    std::fs::write(&tmp, contents).map_err(|e| SimError::io(tmp.display().to_string(), &e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        SimError::io(&pstr, &e)
    })?;
    Ok(())
}

impl std::fmt::Display for Json {
    /// Serializes to a compact JSON string.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

/// Renders a counter struct as a JSON object keyed by field name, nested
/// counter structs as nested objects. Counters are `u64 < 2^53` in
/// practice, so the `f64` value tree is exact.
pub fn counters_to_json(c: &dyn Counters) -> Json {
    let mut root = Json::Obj(BTreeMap::new());
    c.visit(&mut Vec::new(), &mut |path, v| {
        let mut node = &mut root;
        for name in path {
            node = match node {
                Json::Obj(map) => map
                    .entry(name.to_string())
                    .or_insert_with(|| Json::Obj(BTreeMap::new())),
                other => other,
            };
        }
        *node = Json::from(v);
    });
    root
}

/// Parses JSON produced by [`counters_to_json`] back to exact counters.
/// Every counter must be present as an exact integer; a missing one is
/// [`SimError::Corrupt`] naming its dotted path (`hierarchy.l2.reads`).
pub fn counters_from_json<C: Counters + Default>(j: &Json) -> SimResult<C> {
    let mut c = C::default();
    let mut missing = None;
    c.visit_mut(&mut Vec::new(), &mut |path, v| {
        let node = path.iter().try_fold(j, |node, name| node.get(name));
        match node.and_then(Json::as_u64) {
            Some(n) => *v = n,
            None => {
                missing.get_or_insert_with(|| path.join("."));
            }
        }
    });
    match missing {
        None => Ok(c),
        Some(path) => Err(SimError::corrupt(
            "stats",
            format!("missing counter {path:?}"),
        )),
    }
}

/// Converts a [`crate::experiments::NormalizedFigure`] to JSON.
pub fn normalized_figure_json(f: &crate::experiments::NormalizedFigure) -> Json {
    Json::obj([
        ("title", Json::from(f.title.clone())),
        (
            "designs",
            Json::Arr(f.designs.iter().map(|d| Json::from(d.clone())).collect()),
        ),
        (
            "rows",
            Json::Arr(
                f.rows
                    .iter()
                    .map(|(b, vals)| {
                        Json::obj([
                            ("benchmark", Json::from(b.clone())),
                            (
                                "values",
                                Json::Arr(vals.iter().map(|&v| Json::from(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "averages",
            Json::Arr(f.averages().into_iter().map(Json::from).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(j.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_nest() {
        let j = Json::obj([
            ("name", Json::from("x")),
            ("vals", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
        ]);
        assert_eq!(j.to_string(), r#"{"name":"x","vals":[1,2.5]}"#);
    }

    #[test]
    fn object_keys_are_sorted() {
        let j = Json::obj([("zeta", Json::Null), ("alpha", Json::Null)]);
        assert_eq!(j.to_string(), r#"{"alpha":null,"zeta":null}"#);
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let j = Json::obj([
            ("name", Json::from("a\"b\\c\nd")),
            ("vals", Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5)])),
            ("flag", Json::Bool(false)),
            ("gap", Json::Null),
            ("big", Json::from(123_456_789_012_345_u64)),
        ]);
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(
            parsed.get("big").unwrap().as_u64(),
            Some(123_456_789_012_345)
        );
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(parsed.get("flag").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("vals").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "\"oops", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let e = Json::parse("nope").unwrap_err();
        assert_eq!(e.class(), "corrupt");
    }

    #[test]
    fn parse_rejects_pathological_depth_and_numbers() {
        // Nesting at the limit parses; one past it is a clean error.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&deep).is_err());
        // A torrent of openers with no closers (the cheap DoS shape).
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        // Overflowing literals must not smuggle in ±∞.
        for bad in ["1e999", "-1e999", "1e, "] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let j = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\t\" ] } ").unwrap();
        assert_eq!(
            j.get("k").unwrap().as_arr().unwrap()[1].as_str(),
            Some("A\t")
        );
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("ccp-json-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        // No stray temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_of_one_path_each_land_a_whole_payload() {
        let dir = std::env::temp_dir().join(format!("ccp-json-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.ccpz");
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 64 << 10]).collect();
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|s| {
            for p in &payloads {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..16 {
                        write_atomic_bytes(path, p).unwrap();
                    }
                });
            }
        });
        let got = std::fs::read(&path).unwrap();
        assert!(payloads.contains(&got), "torn write of {} bytes", got.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn normalized_figure_roundtrips_structure() {
        let f = crate::experiments::NormalizedFigure {
            title: "t".into(),
            designs: vec!["BC".into(), "CPP".into()],
            rows: vec![("b1".into(), vec![1.0, 0.9])],
        };
        let s = normalized_figure_json(&f).to_string();
        assert!(s.contains(r#""designs":["BC","CPP"]"#));
        assert!(s.contains(r#""averages":[1,0.9]"#));
    }
}
