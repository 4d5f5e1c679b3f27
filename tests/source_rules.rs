//! R1 and R7 (DESIGN.md §9) over every in-scope `.rs` file of the workspace.
//! The scanner is `source_scan`; its cases are unit tests of the root package.

mod source_scan;

use source_scan::{check, in_scope, walk};
use std::path::Path;

#[test]
fn workspace_sources_keep_r1_and_r7() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut rels = Vec::new();
    walk(root, root, &mut rels);
    rels.sort();
    rels.retain(|r| in_scope(r));
    assert!(rels.len() > 80, "only {} sources in scope", rels.len());
    let mut report = Vec::new();
    for rel in &rels {
        let src = std::fs::read(root.join(rel)).expect("readable source");
        for (rule, line, msg) in check(&String::from_utf8_lossy(&src)) {
            report.push(format!("{rel}:{line}: {rule}: {msg}"));
        }
    }
    assert!(report.is_empty(), "\n{}", report.join("\n"));
}

/// One violation of each rule appended to a real file: found, and nothing else.
#[test]
fn seeded_violations_in_real_files_are_found() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in ["crates/sim/src/lib.rs", "crates/cache/src/lib.rs"] {
        let mut src = std::fs::read_to_string(root.join(rel)).expect("readable source");
        let n = u32::try_from(src.lines().count()).expect("a short file");
        src += "fn x() -> Result<(), String> { Ok(()) }\npub struct SeededStats { pub n: u32 }\n";
        let got: Vec<(&str, u32)> = check(&src).into_iter().map(|f| (f.0, f.1)).collect();
        assert_eq!(got, [("R1", n + 1), ("R7", n + 2)], "{rel}");
    }
}
