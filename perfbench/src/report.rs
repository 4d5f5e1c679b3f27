//! Result records: named metrics with units, operation counts, provenance,
//! and the one-line JSON summary the benchmark ends with.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the number measures on this workload, printed beside it.
    pub about: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Record {
    pub metrics: Vec<Metric>,
    /// Operations attempted (cells, replays, requests, checks).
    pub attempted: u64,
    /// Operations that failed their correctness check or did not complete.
    pub failed: u64,
    /// Seeds without recorded expectations are checked only for
    /// self-consistency; the run says so instead of passing silently.
    pub unverified: Vec<String>,
    /// `key=value` provenance fields, printed as one JSON object.
    pub provenance: Vec<(String, String)>,
    /// Human-readable lines printed before the summary.
    pub notes: Vec<String>,
}

impl Record {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, about: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            about: about.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn prov(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Counts one checked operation; `ok == false` counts it as failed and
    /// prints `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = why();
            if self.failed <= 20 {
                eprintln!("FAILED: {msg}");
            }
        }
    }

    /// Merges another record's counts, metrics and notes into this one.
    pub fn absorb(&mut self, other: Record) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unverified.extend(other.unverified);
        self.provenance.extend(other.provenance);
        self.notes.extend(other.notes);
    }

    /// Prints the human-readable report, the provenance line, and the
    /// summary JSON as the last line of standard output.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            println!(
                "{:<40} {:>16} {:<8} {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.about
            );
        }
        for u in &self.unverified {
            println!("unverified: {u}");
        }
        println!(
            "operations: attempted={} failed={}",
            self.attempted, self.failed
        );
        println!("provenance {}", json_object(&self.provenance));
        println!("{}", self.summary_json());
    }

    pub fn summary_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit the measurement has (`Display` for
/// `f64` is the shortest exact round-trip form). Non-finite values, which
/// JSON cannot carry, become `null`.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_object(pairs: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": \"{}\"", escape(k), escape(v));
    }
    s.push('}');
    s
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Smallest value of `v` (0 for an empty slice).
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `v` (sorted copy; 0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` in `[0, 100]` of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Interquartile range over median — the spread of repeated measurements
/// that every result record carries.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (percentile(v, 75.0) - percentile(v, 25.0)) / m
}

/// Peak resident set size of this process, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × i64 each)
    // followed by fourteen `long`s, the first of which is `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage { fields: [0; 18] };
    // SAFETY: `u` is a writable, correctly sized and aligned `struct
    // rusage` for 64-bit Linux, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return f64::NAN;
    }
    u.fields[4] as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn summary_has_exactly_the_four_keys() {
        let mut r = Record::default();
        r.metric("setup_s", 0.5, "s", "");
        r.check(true, String::new);
        assert_eq!(
            r.summary_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
