//! Crash-safe JSONL sweep checkpoints.
//!
//! A checkpoint file holds one header line describing the sweep grid
//! (budget, seed, penalty variant, designs, workloads — everything that
//! determines cell *results*; worker-thread count is deliberately
//! excluded so a resume may use different parallelism and still reproduce
//! the run bit-for-bit) followed by one JSON line per completed cell with
//! its full [`RunStats`]. Every update rewrites the file through
//! [`crate::json::write_atomic`], so a kill at any instant leaves either
//! the previous consistent snapshot or the new one — never a torn file.
//!
//! `repro sweep --resume <checkpoint>` loads the completed cells, skips
//! them, and finishes the remaining grid; failed cells are not recorded
//! and therefore re-run.

use crate::json::{counters_from_json, counters_to_json, write_atomic, Json};
use crate::sweep::SweepConfig;
use ccp_cache::DesignKind;
use ccp_errors::{SimError, SimResult};
use ccp_pipeline::RunStats;
use std::path::{Path, PathBuf};

const VERSION: u64 = 1;

/// One completed cell restored from (or recorded to) a checkpoint.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Workload full name.
    pub workload: String,
    /// Design short name.
    pub design: String,
    /// Attempts the cell consumed when it originally ran.
    pub attempts: u32,
    /// The cell's results.
    pub stats: RunStats,
}

/// An open checkpoint: the sweep-identity header plus every completed
/// cell, mirrored to disk on each [`Checkpoint::record`].
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    header_line: String,
    records: Vec<CellRecord>,
}

impl Checkpoint {
    /// Opens a checkpoint for the given sweep grid.
    ///
    /// With `resume` set, an existing file is loaded — its header must
    /// describe the same grid ([`SimError::Corrupt`] otherwise) — and its
    /// completed cells become [`Checkpoint::completed`]. Without `resume`,
    /// any existing file is replaced by a fresh snapshot.
    pub fn open(
        path: &Path,
        config: &SweepConfig,
        workloads: &[String],
        designs: &[DesignKind],
        resume: bool,
    ) -> SimResult<Checkpoint> {
        let header = header_json(config, workloads, designs);
        let header_line = header.to_string();
        let mut cp = Checkpoint {
            path: path.to_path_buf(),
            header_line,
            records: Vec::new(),
        };
        if resume && path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| SimError::io(path.display().to_string(), &e))?;
            let lines: Vec<&str> = text.lines().collect();
            let first = lines
                .first()
                .ok_or_else(|| SimError::corrupt("checkpoint", "empty file"))?;
            let on_disk = Json::parse(first)
                .map_err(|e| SimError::corrupt("checkpoint header", e.to_string()))?;
            if on_disk != header {
                return Err(SimError::corrupt(
                    "checkpoint",
                    format!(
                        "header does not match this sweep (checkpoint {on_disk} vs sweep {header})"
                    ),
                ));
            }
            for (i, line) in lines.iter().enumerate().skip(1) {
                if line.trim().is_empty() {
                    continue;
                }
                match Json::parse(line).and_then(|j| cell_from_json(&j)) {
                    Ok(rec) => cp.records.push(rec),
                    // A torn trailing line (interrupted mid-append) is
                    // expected crash debris: drop it and re-run that cell.
                    Err(e) => {
                        if i + 1 == lines.len() {
                            break;
                        }
                        return Err(SimError::corrupt(
                            "checkpoint",
                            format!("record line {}: {e}", i + 1),
                        ));
                    }
                }
            }
        } else {
            cp.flush()?;
        }
        Ok(cp)
    }

    /// Cells already completed (restored on resume plus any recorded since
    /// this checkpoint was opened).
    pub fn completed(&self) -> &[CellRecord] {
        &self.records
    }

    /// Records a completed cell and atomically rewrites the file.
    pub fn record(
        &mut self,
        workload: &str,
        design: &str,
        attempts: u32,
        stats: &RunStats,
    ) -> SimResult<()> {
        self.records.push(CellRecord {
            workload: workload.to_string(),
            design: design.to_string(),
            attempts,
            stats: stats.clone(),
        });
        self.flush()
    }

    fn flush(&self) -> SimResult<()> {
        let mut out = String::with_capacity(256 * (self.records.len() + 1));
        out.push_str(&self.header_line);
        out.push('\n');
        for rec in &self.records {
            out.push_str(&cell_to_json(rec).to_string());
            out.push('\n');
        }
        write_atomic(&self.path, &out)
    }
}

fn header_json(config: &SweepConfig, workloads: &[String], designs: &[DesignKind]) -> Json {
    Json::obj([
        ("v", Json::from(VERSION)),
        ("kind", Json::from("sweep")),
        ("budget", Json::from(config.budget as u64)),
        ("seed", Json::from(config.seed)),
        ("halved", Json::Bool(config.halved_miss_penalty)),
        ("scheme", Json::from(config.scheme.clone())),
        (
            "designs",
            Json::Arr(designs.iter().map(|d| Json::from(d.name())).collect()),
        ),
        (
            "workloads",
            Json::Arr(workloads.iter().map(|w| Json::from(w.clone())).collect()),
        ),
    ])
}

fn cell_to_json(rec: &CellRecord) -> Json {
    Json::obj([
        ("workload", Json::from(rec.workload.clone())),
        ("design", Json::from(rec.design.clone())),
        ("attempts", Json::from(rec.attempts as u64)),
        ("stats", stats_to_json(&rec.stats)),
    ])
}

fn cell_from_json(j: &Json) -> SimResult<CellRecord> {
    let field = |key: &str| {
        j.get(key)
            .ok_or_else(|| SimError::corrupt("checkpoint cell", format!("missing {key:?}")))
    };
    Ok(CellRecord {
        workload: field("workload")?
            .as_str()
            .ok_or_else(|| SimError::corrupt("checkpoint cell", "workload not a string"))?
            .to_string(),
        design: field("design")?
            .as_str()
            .ok_or_else(|| SimError::corrupt("checkpoint cell", "design not a string"))?
            .to_string(),
        attempts: field("attempts")?
            .as_u64()
            .ok_or_else(|| SimError::corrupt("checkpoint cell", "attempts not an integer"))?
            as u32,
        stats: stats_from_json(field("stats")?)?,
    })
}

/// Serializes full [`RunStats`] (every counter the report and figure
/// pipelines read) to JSON through the [`Counters`](ccp_mem::Counters)
/// codec.
pub fn stats_to_json(s: &RunStats) -> Json {
    counters_to_json(s)
}

/// Parses JSON produced by [`stats_to_json`] back to exact [`RunStats`].
pub fn stats_from_json(j: &Json) -> SimResult<RunStats> {
    counters_from_json(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_cell_source_scheme;
    use ccp_mem::Counters;
    use ccp_schemes::SchemeKind;
    use ccp_trace::{benchmark_by_name, BenchSource};

    fn sample_stats() -> RunStats {
        let b = benchmark_by_name("health").unwrap();
        let src = BenchSource::new(b, 1_500, 3);
        run_cell_source_scheme(&src, DesignKind::Cpp, SchemeKind::Cpp, false)
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ccp-checkpoint-{tag}-{}.jsonl", std::process::id()))
    }

    fn grid() -> (SweepConfig, Vec<String>, Vec<DesignKind>) {
        let cfg = SweepConfig::new(1_500, 3);
        (
            cfg,
            vec!["health".into()],
            vec![DesignKind::Bc, DesignKind::Cpp],
        )
    }

    /// `RunStats` with every counter set to a different value.
    fn distinct_stats() -> RunStats {
        let mut s = RunStats::default();
        let mut next = 0;
        s.visit_mut(&mut Vec::new(), &mut |_, v| {
            next += 1;
            *v = next;
        });
        s
    }

    #[test]
    fn stats_roundtrip_is_exact() {
        for s in [sample_stats(), distinct_stats()] {
            let j = stats_to_json(&s);
            let back = stats_from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
            assert_eq!(format!("{s:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn missing_counter_error_names_its_path() {
        let s = distinct_stats();
        let l2_reads = format!("\"reads\":{},", s.hierarchy.l2.reads);
        let text = stats_to_json(&s).to_string().replacen(&l2_reads, "", 1);
        let e = stats_from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert_eq!(e.class(), "corrupt");
        assert!(e.to_string().contains("\"hierarchy.l2.reads\""), "{e}");
    }

    #[test]
    fn record_then_resume_restores_cells() {
        let path = temp_path("resume");
        let (cfg, wl, ds) = grid();
        let s = sample_stats();
        {
            let mut cp = Checkpoint::open(&path, &cfg, &wl, &ds, false).unwrap();
            cp.record("health", "BC", 1, &s).unwrap();
            cp.record("health", "CPP", 2, &s).unwrap();
        }
        let cp = Checkpoint::open(&path, &cfg, &wl, &ds, true).unwrap();
        assert_eq!(cp.completed().len(), 2);
        assert_eq!(cp.completed()[1].design, "CPP");
        assert_eq!(cp.completed()[1].attempts, 2);
        assert_eq!(cp.completed()[0].stats.cycles, s.cycles);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_mismatch_is_corrupt() {
        let path = temp_path("mismatch");
        let (cfg, wl, ds) = grid();
        Checkpoint::open(&path, &cfg, &wl, &ds, false).unwrap();
        let mut other = cfg.clone();
        other.seed = 99;
        let e = Checkpoint::open(&path, &other, &wl, &ds, true).unwrap_err();
        assert_eq!(e.class(), "corrupt");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_dropped() {
        let path = temp_path("torn");
        let (cfg, wl, ds) = grid();
        let s = sample_stats();
        {
            let mut cp = Checkpoint::open(&path, &cfg, &wl, &ds, false).unwrap();
            cp.record("health", "BC", 1, &s).unwrap();
        }
        // Emulate a kill mid-append: a truncated record on the last line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"workload\":\"health\",\"design\":\"CP");
        std::fs::write(&path, &text).unwrap();
        let cp = Checkpoint::open(&path, &cfg, &wl, &ds, true).unwrap();
        assert_eq!(cp.completed().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn without_resume_existing_file_is_replaced() {
        let path = temp_path("fresh");
        let (cfg, wl, ds) = grid();
        let s = sample_stats();
        {
            let mut cp = Checkpoint::open(&path, &cfg, &wl, &ds, false).unwrap();
            cp.record("health", "BC", 1, &s).unwrap();
        }
        let cp = Checkpoint::open(&path, &cfg, &wl, &ds, false).unwrap();
        assert!(cp.completed().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
