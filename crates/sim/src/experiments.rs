//! One function per table/figure of the paper's evaluation (§4).
//!
//! Each returns a typed result plus a `render()` into the same rows the
//! paper plots; `EXPERIMENTS.md` records our measured values against the
//! paper's.

use crate::report::{f2, pct, render_table};
use crate::sweep::Sweep;
use ccp_cache::{DesignKind, HierarchyConfig, LatencyConfig};
use ccp_compress::profile::ValueProfile;
use ccp_pipeline::{PipelineConfig, RunStats};
use ccp_trace::{all_benchmarks, profile_source_values};
use ccp_workgen::{SynthSource, WorkgenSpec};
use serde::Serialize;

/// The Amdahl speedup of the enhanced (halved-penalty) machine used for
/// Figure 14.
pub const S_ENHANCED: f64 = 2.0;

// ---------------------------------------------------------------- Figure 3

/// One bar of Figure 3: the classification of all dynamically accessed
/// values of a benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Benchmark full name.
    pub benchmark: String,
    /// Fraction of accesses that were small values.
    pub small: f64,
    /// Fraction that were same-chunk pointers.
    pub pointer: f64,
    /// Total compressible fraction.
    pub compressible: f64,
}

/// Figure 3: profiles every benchmark's dynamically accessed values under
/// the compression scheme (paper: ≈ 59% compressible on average).
pub fn figure3(budget: usize, seed: u64) -> Vec<Fig3Row> {
    all_benchmarks()
        .iter()
        .map(|b| {
            let t = b.trace(budget, seed);
            let mut p = ValueProfile::new();
            profile_source_values(&t, |v, a| p.record(v, a));
            Fig3Row {
                benchmark: b.full_name(),
                small: p.small_fraction(),
                pointer: p.pointer_fraction(),
                compressible: p.compressible_fraction(),
            }
        })
        .collect()
}

/// Renders Figure 3 as a table (plus the suite average the paper quotes).
pub fn render_figure3(rows: &[Fig3Row]) -> String {
    let headers = vec![
        "benchmark".to_string(),
        "small".to_string(),
        "pointer".to_string(),
        "compressible".to_string(),
    ];
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                pct(r.small),
                pct(r.pointer),
                pct(r.compressible),
            ]
        })
        .collect();
    let avg = rows.iter().map(|r| r.compressible).sum::<f64>() / rows.len().max(1) as f64;
    table.push(vec![
        "average".into(),
        pct(rows.iter().map(|r| r.small).sum::<f64>() / rows.len().max(1) as f64),
        pct(rows.iter().map(|r| r.pointer).sum::<f64>() / rows.len().max(1) as f64),
        pct(avg),
    ]);
    format!(
        "Figure 3: dynamically accessed values by compressibility class\n{}",
        render_table(&headers, &table)
    )
}

// ---------------------------------------------------------------- Figure 9

/// Figure 9: the baseline processor configuration table, verbatim.
pub fn figure9() -> String {
    let p = PipelineConfig::paper();
    let l = LatencyConfig::paper();
    let bc = HierarchyConfig::paper(DesignKind::Bc);
    let rows: Vec<Vec<String>> = vec![
        vec!["Issue width".into(), format!("{} issue, OO", p.issue_width)],
        vec!["IFQ size".into(), format!("{} instr.", p.ifq_size)],
        vec!["Branch Predictor".into(), "Bimod".into()],
        vec!["RUU size".into(), format!("{} entry", p.ruu_size)],
        vec!["LD/ST Queue".into(), format!("{} entry", p.lsq_size)],
        vec![
            "Func. units".into(),
            format!(
                "{} ALUs, {} Mult/Div, {} Mem ports, {} FALU, {} FMult/FDiv",
                p.n_ialu, p.n_imuldiv, p.n_memports, p.n_falu, p.n_fmuldiv
            ),
        ],
        vec!["I-cache hit latency".into(), "1 cycle".into()],
        vec!["I-cache miss latency".into(), "10 cycles".into()],
        vec![
            "L1 D-cache hit latency".into(),
            format!("{} cycle", l.l1_hit),
        ],
        vec![
            "L1 D-cache miss latency".into(),
            format!("{} cycles", l.l2_hit),
        ],
        vec![
            "Memory access latency".into(),
            format!("{} cycles (L2 cache miss latency)", l.memory),
        ],
        vec![
            "L1 D-cache".into(),
            format!(
                "{} KB, {}-way, {} B lines",
                bc.l1.size_bytes() / 1024,
                bc.l1.assoc(),
                bc.l1.line_bytes()
            ),
        ],
        vec![
            "L2 cache".into(),
            format!(
                "{} KB, {}-way, {} B lines",
                bc.l2.size_bytes() / 1024,
                bc.l2.assoc(),
                bc.l2.line_bytes()
            ),
        ],
    ];
    format!(
        "Figure 9: baseline experimental setup\n{}",
        render_table(&["Parameter".into(), "Value".into()], &rows)
    )
}

// ------------------------------------------------- Figures 10-13 (shared)

/// A normalized comparison figure: one row per benchmark, one column per
/// design, all values relative to BC = 100%.
#[derive(Debug, Clone, Serialize)]
pub struct NormalizedFigure {
    /// Figure title.
    pub title: String,
    /// Column designs.
    pub designs: Vec<String>,
    /// `(benchmark, ratio per design)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl NormalizedFigure {
    /// Column averages (arithmetic mean of the per-benchmark ratios, as the
    /// paper's "on average" numbers are).
    pub fn averages(&self) -> Vec<f64> {
        let n = self.rows.len().max(1) as f64;
        (0..self.designs.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect()
    }

    /// The average ratio for one design.
    pub fn average_of(&self, design: DesignKind) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "figures are only queried for their own designs"
        )]
        let c = self
            .designs
            .iter()
            .position(|d| d == design.name())
            .expect("design in figure");
        self.averages()[c]
    }

    /// Renders the figure as grouped horizontal bars (terminal rendition
    /// of the paper's plot style).
    pub fn render_bars(&self) -> String {
        format!(
            "{}\n{}",
            self.title,
            crate::report::render_bars(&self.rows, &self.designs, 40)
        )
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let mut headers = vec!["benchmark".to_string()];
        headers.extend(self.designs.clone());
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(b, vals)| {
                let mut r = vec![b.clone()];
                r.extend(vals.iter().map(|v| pct(*v)));
                r
            })
            .collect();
        let mut avg = vec!["average".to_string()];
        avg.extend(self.averages().iter().map(|v| pct(*v)));
        rows.push(avg);
        format!("{}\n{}", self.title, render_table(&headers, &rows))
    }
}

fn normalized_figure<F: Fn(&RunStats) -> f64 + Copy>(
    sweep: &Sweep,
    title: &str,
    metric: F,
) -> NormalizedFigure {
    let designs = sweep.designs.clone();
    let rows = sweep
        .benchmarks
        .iter()
        .map(|b| {
            let base = metric(sweep.cell(b, DesignKind::Bc)).max(f64::MIN_POSITIVE);
            let vals = designs
                .iter()
                .map(|&d| metric(sweep.cell(b, d)) / base)
                .collect();
            (b.clone(), vals)
        })
        .collect();
    NormalizedFigure {
        title: title.to_string(),
        designs: designs.iter().map(|d| d.name().to_string()).collect(),
        rows,
    }
}

/// Figure 10: L2↔memory traffic normalized to BC.
pub fn figure10(sweep: &Sweep) -> NormalizedFigure {
    normalized_figure(sweep, "Figure 10: memory traffic (normalized to BC)", |s| {
        s.hierarchy.memory_traffic_halfwords() as f64
    })
}

/// Figure 11: execution time (cycles) normalized to BC.
pub fn figure11(sweep: &Sweep) -> NormalizedFigure {
    normalized_figure(sweep, "Figure 11: execution time (normalized to BC)", |s| {
        s.cycles as f64
    })
}

/// Figure 12: L1 data-cache misses normalized to BC.
pub fn figure12(sweep: &Sweep) -> NormalizedFigure {
    normalized_figure(
        sweep,
        "Figure 12: L1 cache misses (normalized to BC)",
        |s| s.hierarchy.l1.misses() as f64,
    )
}

/// Figure 13: L2 cache misses normalized to BC.
pub fn figure13(sweep: &Sweep) -> NormalizedFigure {
    normalized_figure(
        sweep,
        "Figure 13: L2 cache misses (normalized to BC)",
        |s| s.hierarchy.l2.misses() as f64,
    )
}

// --------------------------------------------------------------- Figure 14

/// Figure 14: the *importance* of cache misses — the fraction of execution
/// directly depending on them, estimated via Amdahl's law from a run with
/// miss penalties halved (`S_enhanced = 2`, paper §4.4):
///
/// `Fraction_enhanced = S_enh (1 - 1/S_overall) / (S_enh - 1)`.
pub fn figure14(normal: &Sweep, halved: &Sweep) -> NormalizedFigure {
    let designs = normal.designs.clone();
    let rows = normal
        .benchmarks
        .iter()
        .map(|b| {
            let vals = designs
                .iter()
                .map(|&d| {
                    let t_old = normal.cell(b, d).cycles as f64;
                    let t_new = halved.cell(b, d).cycles as f64;
                    let s_overall = (t_old / t_new).max(1.0);
                    S_ENHANCED * (1.0 - 1.0 / s_overall) / (S_ENHANCED - 1.0)
                })
                .collect();
            (b.clone(), vals)
        })
        .collect();
    NormalizedFigure {
        title: "Figure 14: importance of cache misses (fraction of directly \
                dependent instructions)"
            .to_string(),
        designs: designs.iter().map(|d| d.name().to_string()).collect(),
        rows,
    }
}

// --------------------------------------------------------------- Figure 15

/// One row of Figure 15: average ready-queue length during cycles with an
/// outstanding miss, CPP vs HAC.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15Row {
    /// Benchmark full name.
    pub benchmark: String,
    /// HAC's average ready-queue length in miss cycles.
    pub hac: f64,
    /// CPP's average ready-queue length in miss cycles.
    pub cpp: f64,
    /// CPP's increase over HAC (the paper reports up to ~78%).
    pub increase: f64,
}

/// Figure 15: ready-queue length comparison (CPP over HAC).
pub fn figure15(sweep: &Sweep) -> Vec<Fig15Row> {
    sweep
        .benchmarks
        .iter()
        .map(|b| {
            let hac = sweep.cell(b, DesignKind::Hac).avg_ready_in_miss_cycles();
            let cpp = sweep.cell(b, DesignKind::Cpp).avg_ready_in_miss_cycles();
            let increase = if hac > 0.0 { cpp / hac - 1.0 } else { 0.0 };
            Fig15Row {
                benchmark: b.clone(),
                hac,
                cpp,
                increase,
            }
        })
        .collect()
}

/// Renders Figure 15.
pub fn render_figure15(rows: &[Fig15Row]) -> String {
    let headers = vec![
        "benchmark".to_string(),
        "HAC ready-q".to_string(),
        "CPP ready-q".to_string(),
        "increase".to_string(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.benchmark.clone(), f2(r.hac), f2(r.cpp), pct(r.increase)])
        .collect();
    format!(
        "Figure 15: average ready-queue length in outstanding-miss cycles\n{}",
        render_table(&headers, &table)
    )
}

// ------------------------------------------- Compressibility sweep (new)

/// One point of the workgen compressibility sweep.
#[derive(Debug, Clone, Serialize)]
pub struct CompressSweepPoint {
    /// Requested small-value fraction at this point.
    pub small_fraction: f64,
    /// Compressible fraction actually measured over every accessed value.
    pub measured_compressible: f64,
    /// BC memory traffic in half-words.
    pub bc_traffic: u64,
    /// CPP memory traffic in half-words.
    pub cpp_traffic: u64,
    /// CPP traffic normalized to BC (< 1 = CPP advantage).
    pub normalized_traffic: f64,
    /// CPP L1 misses normalized to BC.
    pub normalized_l1_misses: f64,
}

/// The compressibility sweep: holds `base`'s address and mix models fixed
/// and sweeps the small-value fraction from 0 to `1 - pointer_fraction`
/// across `points` evenly spaced settings, measuring CPP's traffic and
/// miss advantage over BC at each. Because workgen draws addresses and
/// values from independent sub-generators, every point replays the *same*
/// address stream — the curve isolates the value distribution, the one
/// variable the paper's scheme exploits. Functional (timing-free) cache
/// simulation keeps 1M-reference points cheap; points run in parallel.
pub fn compressibility_sweep(
    base: &WorkgenSpec,
    points: usize,
    budget: u64,
    seed: u64,
    threads: usize,
) -> Vec<CompressSweepPoint> {
    assert!(points >= 2, "a sweep needs at least two points");
    let top = 1.0 - base.value.pointer_fraction;
    let fractions: Vec<f64> = (0..points)
        .map(|i| top * i as f64 / (points - 1) as f64)
        .collect();
    crate::sweep::parallel_map(&fractions, threads, |&small| {
        let mut spec = *base;
        spec.value.small_fraction = small;
        let source = SynthSource::new(spec, seed, budget);
        let mut profile = ValueProfile::new();
        profile_source_values(&source, |v, a| profile.record(v, a));
        let mut bc = crate::build_design(DesignKind::Bc);
        let bc_stats = crate::fastsim::run_functional_source(&source, bc.as_mut(), 0);
        let mut cpp = crate::build_design(DesignKind::Cpp);
        let cpp_stats = crate::fastsim::run_functional_source(&source, cpp.as_mut(), 0);
        let bc_traffic = bc_stats.hierarchy.memory_traffic_halfwords();
        let cpp_traffic = cpp_stats.hierarchy.memory_traffic_halfwords();
        let bc_misses = bc_stats.hierarchy.l1.misses();
        let cpp_misses = cpp_stats.hierarchy.l1.misses();
        CompressSweepPoint {
            small_fraction: small,
            measured_compressible: profile.compressible_fraction(),
            bc_traffic,
            cpp_traffic,
            normalized_traffic: cpp_traffic as f64 / (bc_traffic as f64).max(f64::MIN_POSITIVE),
            normalized_l1_misses: cpp_misses as f64 / (bc_misses as f64).max(f64::MIN_POSITIVE),
        }
    })
}

/// Renders the compressibility sweep as a table.
pub fn render_compressibility_sweep(base: &WorkgenSpec, rows: &[CompressSweepPoint]) -> String {
    let headers = vec![
        "small req.".to_string(),
        "compressible".to_string(),
        "BC traffic".to_string(),
        "CPP traffic".to_string(),
        "CPP/BC traffic".to_string(),
        "CPP/BC L1 miss".to_string(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f2(r.small_fraction),
                pct(r.measured_compressible),
                r.bc_traffic.to_string(),
                r.cpp_traffic.to_string(),
                pct(r.normalized_traffic),
                pct(r.normalized_l1_misses),
            ]
        })
        .collect();
    format!(
        "Compressibility sweep: CPP vs BC as value compressibility rises\n\
         (workload {base}, address/op streams identical across rows)\n{}",
        render_table(&headers, &table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepConfig};

    fn small_sweep(budget: usize) -> Sweep {
        let mut cfg = SweepConfig::new(budget, 3);
        cfg.workloads = vec!["health".into(), "129.compress".into()];
        cfg.threads = 4;
        run_sweep(&cfg).expect("sweep")
    }

    #[test]
    fn figure3_covers_all_benchmarks_and_is_plausible() {
        let rows = figure3(5_000, 1);
        assert_eq!(rows.len(), 14);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.compressible), "{r:?}");
            assert!((r.small + r.pointer - r.compressible).abs() < 1e-9);
        }
        let avg = rows.iter().map(|r| r.compressible).sum::<f64>() / 14.0;
        assert!((0.3..=0.9).contains(&avg), "avg {avg}");
    }

    #[test]
    fn figure9_mentions_every_parameter() {
        let s = figure9();
        for needle in [
            "4 issue",
            "16 instr.",
            "Bimod",
            "8 entry",
            "100 cycles",
            "64 B lines",
            "128 B lines",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }

    #[test]
    fn figures_10_to_13_have_unit_bc_columns() {
        let sweep = small_sweep(3_000);
        for fig in [
            figure10(&sweep),
            figure11(&sweep),
            figure12(&sweep),
            figure13(&sweep),
        ] {
            let bc_col = fig.designs.iter().position(|d| d == "BC").unwrap();
            for (b, vals) in &fig.rows {
                assert!(
                    (vals[bc_col] - 1.0).abs() < 1e-9,
                    "{b} BC normalization broken in {}",
                    fig.title
                );
            }
            assert!(!fig.render().is_empty());
        }
    }

    #[test]
    fn figure11_bcc_equals_bc() {
        let sweep = small_sweep(3_000);
        let fig = figure11(&sweep);
        let bcc = fig.average_of(DesignKind::Bcc);
        assert!((bcc - 1.0).abs() < 1e-9, "BCC must match BC timing");
    }

    #[test]
    fn figure14_fractions_in_range() {
        let mut cfg = SweepConfig::new(5_000, 3);
        cfg.workloads = vec!["mcf".into()];
        cfg.threads = 4;
        let normal = run_sweep(&cfg).expect("sweep");
        cfg.halved_miss_penalty = true;
        let halved = run_sweep(&cfg).expect("sweep");
        let fig = figure14(&normal, &halved);
        for (_, vals) in &fig.rows {
            for &v in vals {
                assert!((0.0..=1.0).contains(&v), "fraction {v} out of range");
            }
        }
    }

    #[test]
    fn normalized_figure_bars_render() {
        let f = NormalizedFigure {
            title: "t".into(),
            designs: vec!["BC".into(), "CPP".into()],
            rows: vec![("b".into(), vec![1.0, 0.8])],
        };
        let bars = f.render_bars();
        assert!(bars.contains('█'));
        assert!(bars.contains("80.0%"));
        assert!((f.average_of(DesignKind::Cpp) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn compressibility_sweep_traffic_falls_as_values_compress() {
        let base = WorkgenSpec::parse("addr=uniform,ptr=0.0,footprint=16384").unwrap();
        let rows = compressibility_sweep(&base, 5, 120_000, 3, 2);
        assert_eq!(rows.len(), 5);
        // Endpoints bracket the requested range and measurements track it.
        assert!(rows[0].small_fraction == 0.0 && rows[4].small_fraction == 1.0);
        assert!(rows[0].measured_compressible < 0.05);
        assert!(rows[4].measured_compressible > 0.95);
        // The acceptance criterion: CPP's normalized traffic decreases
        // monotonically (within noise) as compressibility rises, and the
        // fully-compressible end shows a real advantage.
        for w in rows.windows(2) {
            assert!(
                w[1].normalized_traffic <= w[0].normalized_traffic + 0.02,
                "traffic ratio rose: {} -> {}",
                w[0].normalized_traffic,
                w[1].normalized_traffic
            );
        }
        assert!(rows[4].normalized_traffic < rows[0].normalized_traffic - 0.05);
        assert!(!render_compressibility_sweep(&base, &rows).is_empty());
    }

    #[test]
    fn figure15_rows_cover_sweep() {
        let sweep = small_sweep(3_000);
        let rows = figure15(&sweep);
        assert_eq!(rows.len(), 2);
        assert!(!render_figure15(&rows).is_empty());
    }
}
