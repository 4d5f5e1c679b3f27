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

use crate::json::{write_atomic, Json};
use crate::sweep::SweepConfig;
use ccp_cache::DesignKind;
use ccp_errors::{SimError, SimResult};
use ccp_pipeline::{CpiStack, LoadSources, RunStats};
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
/// pipelines read) to JSON. All counters are `u64 < 2^53`, so the `f64`
/// value tree is exact.
pub fn stats_to_json(s: &RunStats) -> Json {
    let traffic = |t: &ccp_mem::TrafficMeter| {
        Json::obj([
            ("in_halfwords", Json::from(t.in_halfwords)),
            ("out_halfwords", Json::from(t.out_halfwords)),
            ("in_transactions", Json::from(t.in_transactions)),
            ("out_transactions", Json::from(t.out_transactions)),
        ])
    };
    let level = |l: &ccp_cache::LevelStats| {
        Json::obj([
            ("reads", Json::from(l.reads)),
            ("writes", Json::from(l.writes)),
            ("read_misses", Json::from(l.read_misses)),
            ("write_misses", Json::from(l.write_misses)),
            ("prefetch_buffer_hits", Json::from(l.prefetch_buffer_hits)),
            ("affiliated_hits", Json::from(l.affiliated_hits)),
            ("partial_line_misses", Json::from(l.partial_line_misses)),
            ("victim_hits", Json::from(l.victim_hits)),
        ])
    };
    let h = &s.hierarchy;
    Json::obj([
        ("cycles", Json::from(s.cycles)),
        ("instructions", Json::from(s.instructions)),
        ("loads", Json::from(s.loads)),
        ("stores", Json::from(s.stores)),
        ("forwarded_loads", Json::from(s.forwarded_loads)),
        ("branch_mispredicts", Json::from(s.branch_mispredicts)),
        ("branches", Json::from(s.branches)),
        ("icache_misses", Json::from(s.icache_misses)),
        ("miss_cycles", Json::from(s.miss_cycles)),
        ("ready_len_sum", Json::from(s.ready_len_sum)),
        (
            "cpi_stack",
            Json::obj([
                ("busy", Json::from(s.cpi_stack.busy)),
                ("frontend", Json::from(s.cpi_stack.frontend)),
                ("memory", Json::from(s.cpi_stack.memory)),
                ("core", Json::from(s.cpi_stack.core)),
            ]),
        ),
        (
            "load_sources",
            Json::obj([
                ("l1", Json::from(s.load_sources.l1)),
                ("l1_affiliated", Json::from(s.load_sources.l1_affiliated)),
                ("l1_prefetch", Json::from(s.load_sources.l1_prefetch)),
                ("l2", Json::from(s.load_sources.l2)),
                ("memory", Json::from(s.load_sources.memory)),
            ]),
        ),
        (
            "hierarchy",
            Json::obj([
                ("l1", level(&h.l1)),
                ("l2", level(&h.l2)),
                ("mem_bus", traffic(&h.mem_bus)),
                ("l1_l2_bus", traffic(&h.l1_l2_bus)),
                ("prefetches_issued", Json::from(h.prefetches_issued)),
                ("prefetches_discarded", Json::from(h.prefetches_discarded)),
                ("promotions", Json::from(h.promotions)),
                ("parked_lines", Json::from(h.parked_lines)),
                (
                    "compressibility_evictions",
                    Json::from(h.compressibility_evictions),
                ),
                ("tag_overhead_bits", Json::from(h.tag_overhead_bits)),
            ]),
        ),
    ])
}

/// Parses JSON produced by [`stats_to_json`] back to exact [`RunStats`].
pub fn stats_from_json(j: &Json) -> SimResult<RunStats> {
    fn u(j: &Json, key: &str) -> SimResult<u64> {
        j.get(key).and_then(Json::as_u64).ok_or_else(|| {
            SimError::corrupt("checkpoint stats", format!("missing counter {key:?}"))
        })
    }
    fn traffic(j: &Json, key: &str) -> SimResult<ccp_mem::TrafficMeter> {
        let t = j
            .get(key)
            .ok_or_else(|| SimError::corrupt("checkpoint stats", format!("missing {key:?}")))?;
        Ok(ccp_mem::TrafficMeter {
            in_halfwords: u(t, "in_halfwords")?,
            out_halfwords: u(t, "out_halfwords")?,
            in_transactions: u(t, "in_transactions")?,
            out_transactions: u(t, "out_transactions")?,
        })
    }
    fn level(j: &Json, key: &str) -> SimResult<ccp_cache::LevelStats> {
        let l = j
            .get(key)
            .ok_or_else(|| SimError::corrupt("checkpoint stats", format!("missing {key:?}")))?;
        Ok(ccp_cache::LevelStats {
            reads: u(l, "reads")?,
            writes: u(l, "writes")?,
            read_misses: u(l, "read_misses")?,
            write_misses: u(l, "write_misses")?,
            prefetch_buffer_hits: u(l, "prefetch_buffer_hits")?,
            affiliated_hits: u(l, "affiliated_hits")?,
            partial_line_misses: u(l, "partial_line_misses")?,
            victim_hits: u(l, "victim_hits")?,
        })
    }
    let cpi = j
        .get("cpi_stack")
        .ok_or_else(|| SimError::corrupt("checkpoint stats", "missing cpi_stack"))?;
    let ls = j
        .get("load_sources")
        .ok_or_else(|| SimError::corrupt("checkpoint stats", "missing load_sources"))?;
    let h = j
        .get("hierarchy")
        .ok_or_else(|| SimError::corrupt("checkpoint stats", "missing hierarchy"))?;
    Ok(RunStats {
        cycles: u(j, "cycles")?,
        instructions: u(j, "instructions")?,
        loads: u(j, "loads")?,
        stores: u(j, "stores")?,
        forwarded_loads: u(j, "forwarded_loads")?,
        branch_mispredicts: u(j, "branch_mispredicts")?,
        branches: u(j, "branches")?,
        icache_misses: u(j, "icache_misses")?,
        miss_cycles: u(j, "miss_cycles")?,
        ready_len_sum: u(j, "ready_len_sum")?,
        cpi_stack: CpiStack {
            busy: u(cpi, "busy")?,
            frontend: u(cpi, "frontend")?,
            memory: u(cpi, "memory")?,
            core: u(cpi, "core")?,
        },
        load_sources: LoadSources {
            l1: u(ls, "l1")?,
            l1_affiliated: u(ls, "l1_affiliated")?,
            l1_prefetch: u(ls, "l1_prefetch")?,
            l2: u(ls, "l2")?,
            memory: u(ls, "memory")?,
        },
        hierarchy: ccp_cache::HierarchyStats {
            l1: level(h, "l1")?,
            l2: level(h, "l2")?,
            mem_bus: traffic(h, "mem_bus")?,
            l1_l2_bus: traffic(h, "l1_l2_bus")?,
            prefetches_issued: u(h, "prefetches_issued")?,
            prefetches_discarded: u(h, "prefetches_discarded")?,
            promotions: u(h, "promotions")?,
            parked_lines: u(h, "parked_lines")?,
            compressibility_evictions: u(h, "compressibility_evictions")?,
            tag_overhead_bits: u(h, "tag_overhead_bits")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_cell_source_scheme;
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

    #[test]
    fn stats_roundtrip_is_exact() {
        let s = sample_stats();
        let j = stats_to_json(&s);
        let back = stats_from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(format!("{s:?}"), format!("{back:?}"));
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
