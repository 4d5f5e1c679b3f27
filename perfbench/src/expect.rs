//! Recorded expectations: one fingerprint per operation per seed.
//!
//! No golden pins the pipeline's `RunStats` yet, so these tables are the
//! only pin the benchmark has for them. A fingerprint is FNV-1a over the
//! `Debug` rendering of the full statistics struct, folded to 32 bits:
//! every counter feeds it, so any changed counter changes the fingerprint.
//!
//! File format (`expect/<workload>.txt`): `#` comment lines, one
//! `config <text>` line naming the settings the fingerprints were taken
//! under, then one line per seed: the seed followed by the operations'
//! fingerprints in the workload's fixed operation order, as hex.

use ccp_errors::{SimError, SimResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The 32-bit fingerprint of a statistics value's `Debug` form.
pub fn fingerprint<T: std::fmt::Debug>(stats: &T) -> u32 {
    let h = ccp_store::fnv1a(format!("{stats:?}").as_bytes());
    (h ^ (h >> 32)) as u32
}

/// A parsed expectations table.
#[derive(Debug, Default)]
pub struct Expectations {
    config: String,
    seeds: BTreeMap<u64, Vec<u32>>,
}

impl Expectations {
    /// Parses a table. Malformed lines are a bug in the committed file,
    /// not input from outside the program, so they panic.
    pub fn parse(text: &str) -> Expectations {
        let mut e = Expectations::default();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(cfg) = line.strip_prefix("config ") {
                e.config = cfg.to_string();
                continue;
            }
            let mut parts = line.split_whitespace();
            let seed: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .expect("expectation line starts with a seed");
            let fps = parts
                .map(|h| u32::from_str_radix(h, 16).expect("fingerprint is hex"))
                .collect();
            e.seeds.insert(seed, fps);
        }
        e
    }

    /// The fingerprints recorded for `seed` under `config`, if any.
    pub fn for_seed(&self, config: &str, seed: u64) -> Option<&[u32]> {
        if self.config != config {
            return None;
        }
        self.seeds.get(&seed).map(Vec::as_slice)
    }

    /// Renders a table in the parsed format.
    pub fn render(header: &str, config: &str, rows: &BTreeMap<u64, Vec<u32>>) -> String {
        let mut s = String::new();
        for h in header.lines() {
            let _ = writeln!(s, "# {h}");
        }
        let _ = writeln!(s, "config {config}");
        for (seed, fps) in rows {
            let _ = write!(s, "{seed}");
            for fp in fps {
                let _ = write!(s, " {fp:08x}");
            }
            s.push('\n');
        }
        s
    }
}

/// Checks each operation's fingerprint against the recorded one when the
/// seed has a record, and in every case against the first fingerprint the
/// same operation produced in this run (repeated passes and the traced
/// pass must reproduce it).
pub struct Checker<'a> {
    recorded: Option<&'a [u32]>,
    first: Vec<Option<u32>>,
}

impl<'a> Checker<'a> {
    pub fn new(recorded: Option<&'a [u32]>, ops: usize) -> Self {
        Checker {
            recorded: recorded.filter(|r| r.len() == ops),
            first: vec![None; ops],
        }
    }

    pub fn verified(&self) -> bool {
        self.recorded.is_some()
    }

    /// `Ok` when operation `idx` produced the expected fingerprint.
    pub fn check(&mut self, idx: usize, fp: u32) -> SimResult<()> {
        if let Some(r) = self.recorded {
            if r[idx] != fp {
                return Err(mismatch(format!(
                    "fingerprint {fp:08x}, recorded {:08x}",
                    r[idx]
                )));
            }
        }
        match self.first[idx] {
            None => {
                self.first[idx] = Some(fp);
                Ok(())
            }
            Some(f) if f == fp => Ok(()),
            Some(f) => Err(mismatch(format!(
                "fingerprint {fp:08x}, earlier in this run {f:08x}"
            ))),
        }
    }
}

fn mismatch(detail: String) -> SimError {
    SimError::invariant("expectation", detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Record;
    use ccp_cache::DesignKind;
    use ccp_schemes::SchemeKind;
    use ccp_trace::benchmark_by_name;

    fn cell() -> ccp_pipeline::RunStats {
        let trace = benchmark_by_name("perimeter").unwrap().trace(3_000, 2);
        ccp_sim::sweep::run_cell_source_scheme(&trace, DesignKind::Cpp, SchemeKind::Cpp, false)
    }

    #[test]
    fn table_roundtrips() {
        let mut rows = BTreeMap::new();
        rows.insert(3, vec![1, 0xdead_beef]);
        let text = Expectations::render("a\nb", "budget=5", &rows);
        let e = Expectations::parse(&text);
        assert_eq!(e.for_seed("budget=5", 3), Some(&[1, 0xdead_beef][..]));
        assert_eq!(e.for_seed("budget=6", 3), None);
        assert_eq!(e.for_seed("budget=5", 4), None);
    }

    #[test]
    fn perturbed_expected_counter_is_a_failed_operation() {
        let stats = cell();
        let mut expected = stats.clone();
        expected.hierarchy.l1.read_misses += 1;
        let recorded = [fingerprint(&expected)];
        let mut checker = Checker::new(Some(&recorded), 1);
        let mut record = Record::default();
        let verdict = checker.check(0, fingerprint(&stats));
        record.check(verdict.is_ok(), || "perturbed".into());
        assert_eq!((record.attempted, record.failed), (1, 1));

        let recorded = [fingerprint(&stats)];
        let mut checker = Checker::new(Some(&recorded), 1);
        assert!(checker.check(0, fingerprint(&cell())).is_ok());
    }

    #[test]
    fn unrecorded_seed_still_catches_drift_between_passes() {
        let mut checker = Checker::new(None, 1);
        assert!(!checker.verified());
        assert!(checker.check(0, 7).is_ok());
        assert!(checker.check(0, 7).is_ok());
        assert!(checker.check(0, 8).is_err());
    }
}
