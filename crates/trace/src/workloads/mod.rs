//! The benchmark suite: fourteen generators matching the paper's workload
//! table (eight Olden pointer programs, three SPECint95, three SPECint2000).
//!
//! Each generator is deterministic under a seed and scales to an
//! instruction budget. The suite-level properties the paper relies on are
//! reproduced per benchmark (DESIGN.md §5): pointer-dense Olden codes with
//! bump-allocated heaps (shared 17-bit prefixes), small scalar fields,
//! occasional incompressible payloads; `compress` as the low-compressibility
//! outlier; `li` cons-cell churn as the high outlier.

pub mod olden;
pub mod spec;

use crate::Trace;

/// Which benchmark suite a workload imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Olden pointer-intensive benchmarks.
    Olden,
    /// SPECint95.
    Spec95,
    /// SPECint2000.
    Spec2000,
}

impl Suite {
    /// Display prefix used in the paper's figures.
    pub fn prefix(self) -> &'static str {
        match self {
            Suite::Olden => "olden",
            Suite::Spec95 => "spec95",
            Suite::Spec2000 => "spec2000",
        }
    }
}

/// A registered benchmark generator.
#[derive(Clone, Copy)]
pub struct Benchmark {
    /// Short name (e.g. `"health"`).
    pub name: &'static str,
    /// Suite it imitates.
    pub suite: Suite,
    /// Generator entry point: `(instruction_budget, seed) → trace`.
    pub generate: fn(usize, u64) -> Trace,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Benchmark({})", self.full_name())
    }
}

impl Benchmark {
    /// `suite.name`, the spelling used in the paper's figures.
    pub fn full_name(&self) -> String {
        format!("{}.{}", self.suite.prefix(), self.name)
    }

    /// Runs the generator.
    pub fn trace(&self, budget: usize, seed: u64) -> Trace {
        (self.generate)(budget, seed)
    }
}

/// All fourteen benchmarks in the paper's presentation order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "bisort",
            suite: Suite::Olden,
            generate: olden::bisort,
        },
        Benchmark {
            name: "em3d",
            suite: Suite::Olden,
            generate: olden::em3d,
        },
        Benchmark {
            name: "health",
            suite: Suite::Olden,
            generate: olden::health,
        },
        Benchmark {
            name: "mst",
            suite: Suite::Olden,
            generate: olden::mst,
        },
        Benchmark {
            name: "perimeter",
            suite: Suite::Olden,
            generate: olden::perimeter,
        },
        Benchmark {
            name: "power",
            suite: Suite::Olden,
            generate: olden::power,
        },
        Benchmark {
            name: "treeadd",
            suite: Suite::Olden,
            generate: olden::treeadd,
        },
        Benchmark {
            name: "tsp",
            suite: Suite::Olden,
            generate: olden::tsp,
        },
        Benchmark {
            name: "099.go",
            suite: Suite::Spec95,
            generate: spec::go,
        },
        Benchmark {
            name: "129.compress",
            suite: Suite::Spec95,
            generate: spec::compress,
        },
        Benchmark {
            name: "130.li",
            suite: Suite::Spec95,
            generate: spec::li,
        },
        Benchmark {
            name: "181.mcf",
            suite: Suite::Spec2000,
            generate: spec::mcf,
        },
        Benchmark {
            name: "197.parser",
            suite: Suite::Spec2000,
            generate: spec::parser,
        },
        Benchmark {
            name: "300.twolf",
            suite: Suite::Spec2000,
            generate: spec::twolf,
        },
    ]
}

/// Finds a benchmark by name (case-insensitive) among the paper's
/// fourteen. Accepts the full paper spelling
/// (`"spec2000.181.mcf"`), the suite-local name (`"181.mcf"`), or the bare
/// program name (`"mcf"`).
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    let lower = name.to_ascii_lowercase();
    all_benchmarks().into_iter().find(|b| {
        let full = b.full_name().to_ascii_lowercase();
        let short = b.name.to_ascii_lowercase();
        let bare = short.rsplit('.').next().unwrap_or(&short);
        full == lower || short == lower || bare == lower
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSource;

    #[test]
    fn fourteen_benchmarks_registered() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 14);
        assert_eq!(all.iter().filter(|b| b.suite == Suite::Olden).count(), 8);
        assert_eq!(all.iter().filter(|b| b.suite == Suite::Spec95).count(), 3);
        assert_eq!(all.iter().filter(|b| b.suite == Suite::Spec2000).count(), 3);
    }

    #[test]
    fn names_are_unique() {
        let all = all_benchmarks();
        let mut names: Vec<_> = all.iter().map(|b| b.full_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn lookup_by_short_and_full_name() {
        assert!(benchmark_by_name("health").is_some());
        assert!(benchmark_by_name("olden.health").is_some());
        assert!(benchmark_by_name("OLDEN.HEALTH").is_some());
        assert!(benchmark_by_name("300.twolf").is_some());
        assert!(benchmark_by_name("nonexistent").is_none());
    }

    #[test]
    fn every_generator_respects_budget_and_validates() {
        for b in all_benchmarks() {
            let t = b.trace(4000, 42);
            assert!(
                t.len() >= 4000,
                "{} produced only {} instructions",
                b.full_name(),
                t.len()
            );
            assert!(
                t.len() < 4000 + 4000, // at most one extra outer iteration
                "{} overshot the budget wildly: {}",
                b.full_name(),
                t.len()
            );
            t.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.full_name()));
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for b in all_benchmarks() {
            let t1 = b.trace(2000, 7);
            let t2 = b.trace(2000, 7);
            assert_eq!(t1.len(), t2.len(), "{}", b.full_name());
            for (a, b_) in t1.insts.iter().zip(t2.insts.iter()) {
                assert_eq!(a, b_);
            }
        }
    }

    #[test]
    fn seeds_change_traces() {
        let b = benchmark_by_name("mst").unwrap();
        let t1 = b.trace(3000, 1);
        let t2 = b.trace(3000, 2);
        let same = t1
            .insts
            .iter()
            .zip(t2.insts.iter())
            .all(|(a, b)| a.op() == b.op());
        assert!(!same, "different seeds should differ somewhere");
    }

    #[test]
    fn every_generator_has_plausible_mix() {
        for b in all_benchmarks() {
            let t = b.trace(20_000, 11);
            let m = t.mix();
            let total = m.total() as f64;
            let loads = m.loads as f64 / total;
            let stores = m.stores as f64 / total;
            let branches = m.branches as f64 / total;
            assert!(
                (0.10..=0.45).contains(&loads),
                "{}: load fraction {loads:.2}",
                b.full_name()
            );
            assert!(
                (0.01..=0.30).contains(&stores),
                "{}: store fraction {stores:.2}",
                b.full_name()
            );
            assert!(
                (0.03..=0.35).contains(&branches),
                "{}: branch fraction {branches:.2}",
                b.full_name()
            );
        }
    }
}
