//! Golden-fixture check of the stats serialization: three benchmarks'
//! full [`ccp_cache::stats::HierarchyStats`] renderings are pinned in
//! `tests/expected_stats/*.json` (the same fixture pattern ccp-lint uses
//! for its rule corpus), one file per benchmark × compression scheme. Any
//! change to the engine's counted events, the workload generator, a
//! scheme's predicate, or the JSON rendering shows up here as a diff —
//! regenerate with
//! `cargo run --release -p ccp-sim --bin repro -- difftest --render-goldens crates/sim/tests/expected_stats`
//! after auditing that the drift is intended.

use ccp_schemes::SchemeKind;
use ccp_sim::difftest::{golden_fixture_name, golden_stats_doc_scheme, GOLDEN_BENCHMARKS};
use ccp_trace::benchmark_by_name;
use std::path::{Path, PathBuf};

fn fixture_path(name: &str, scheme: SchemeKind) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/expected_stats"))
        .join(golden_fixture_name(name, scheme))
}

#[test]
fn golden_stats_match_pinned_fixtures() {
    for name in GOLDEN_BENCHMARKS {
        let bench = benchmark_by_name(name).expect("golden benchmark registered");
        for scheme in SchemeKind::ALL {
            let path = fixture_path(name, scheme);
            let pinned = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
            let fresh = golden_stats_doc_scheme(&bench, scheme);
            assert_eq!(
                pinned.trim_end(),
                fresh,
                "{name}/{} stats drifted from {}\n\
                 (regenerate with `repro difftest --render-goldens crates/sim/tests/expected_stats` after auditing)",
                scheme.name(),
                path.display()
            );
        }
    }
}

#[test]
fn golden_fixtures_are_valid_json_with_expected_fields() {
    for name in GOLDEN_BENCHMARKS {
        for scheme in SchemeKind::ALL {
            let path = fixture_path(name, scheme);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
            let doc = ccp_sim::json::Json::parse(&text)
                .unwrap_or_else(|e| panic!("{}: not valid JSON: {e}", path.display()));
            for key in ["benchmark", "scheme", "budget", "seed", "mem_ops", "stats"] {
                assert!(
                    doc.get(key).is_some(),
                    "{}: missing field {key}",
                    path.display()
                );
            }
            let stats = doc.get("stats").expect("stats object");
            for key in [
                "l1",
                "l2",
                "mem_bus",
                "l1_l2_bus",
                "promotions",
                "tag_overhead_bits",
            ] {
                assert!(
                    stats.get(key).is_some(),
                    "{}: stats missing {key}",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn golden_fixtures_differ_across_schemes() {
    // The per-scheme fixtures exist to pin *different* behavior; if two
    // schemes render byte-identical stats on every golden benchmark, the
    // scheme axis is dead plumbing and the fixtures are redundant.
    for name in GOLDEN_BENCHMARKS {
        // Compare only the stats sub-objects — the envelope differs by
        // construction (it names the scheme).
        let stats: Vec<String> = SchemeKind::ALL
            .iter()
            .map(|&s| {
                let text = std::fs::read_to_string(fixture_path(name, s))
                    .unwrap_or_else(|e| panic!("missing fixture for {name}/{}: {e}", s.name()));
                let doc = ccp_sim::json::Json::parse(&text).expect("valid fixture");
                doc.get("stats").expect("stats object").to_string()
            })
            .collect();
        let mut unique = stats.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            stats.len(),
            "{name}: some schemes pinned identical stats"
        );
    }
}
