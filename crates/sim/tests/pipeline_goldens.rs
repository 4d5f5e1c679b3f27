//! Golden-fixture check of the out-of-order pipeline: the full `RunStats`
//! of every golden benchmark × design × {paper, halved miss penalty} cell
//! is pinned in `tests/expected_pipeline/*.json`, and a seeded corner
//! corpus of random programs under non-paper pipeline configurations is
//! pinned by fingerprint in `tests/expected_pipeline/corners.txt`, as is
//! every conventional design (BC, BCC, HAC, BCP, SPT, VC) on the golden
//! benchmarks and three synthetic streams in
//! `tests/expected_pipeline/hierarchies.txt`. Any
//! change to the pipeline's timing, its CPI-stack or Figure 14/15
//! accounting, or the hierarchy it drives shows up here as a diff —
//! regenerate with
//! `cargo run --release -p ccp-sim --bin repro -- difftest --render-goldens crates/sim/tests/expected_stats`
//! (which writes both fixture directories) after auditing that the drift
//! is intended.

use ccp_cache::DesignKind;
use ccp_sim::difftest::GOLDEN_BENCHMARKS;
use ccp_sim::pipeline_goldens::{
    corner_table, hierarchy_table, pipeline_fixture_name, pipeline_golden_doc, CORNER_FILE,
    HIERARCHY_FILE,
};
use ccp_trace::benchmark_by_name;
use std::path::{Path, PathBuf};

fn fixture_path(file: &str) -> PathBuf {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/expected_pipeline"
    ))
    .join(file)
}

fn pinned(file: &str) -> String {
    let path = fixture_path(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pipeline fixture {}: {e}", path.display()))
}

#[test]
fn paper_cells_match_pinned_fixtures() {
    for name in GOLDEN_BENCHMARKS {
        let bench = benchmark_by_name(name).expect("golden benchmark registered");
        for design in DesignKind::ALL {
            for halved in [false, true] {
                let file = pipeline_fixture_name(name, design, halved);
                let fresh = pipeline_golden_doc(&bench, design, halved);
                assert_eq!(
                    pinned(&file).trim_end(),
                    fresh,
                    "{file}: pipeline stats drifted \
                     (regenerate with `repro difftest --render-goldens crates/sim/tests/expected_stats` after auditing)"
                );
            }
        }
    }
}

fn assert_table_pinned(file: &str, fresh: &str) {
    let pinned = pinned(file);
    for (p, f) in pinned.lines().zip(fresh.lines()) {
        assert_eq!(p, f, "run drifted from {file}");
    }
    assert_eq!(pinned.lines().count(), fresh.lines().count());
}

#[test]
fn corner_corpus_matches_pinned_fingerprints() {
    assert_table_pinned(CORNER_FILE, &corner_table());
}

#[test]
fn conventional_hierarchies_match_pinned_fingerprints() {
    assert_table_pinned(HIERARCHY_FILE, &hierarchy_table());
}
