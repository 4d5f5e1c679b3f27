//! Suite-level checks of the value-compressibility spread the paper's
//! Figure 3 depends on (average ≈ 59% compressible, `li` high,
//! `compress` low).

use ccp_compress::profile::ValueProfile;
use ccp_trace::{all_benchmarks, profile_source_values};

fn profile_of(name: &str, budget: usize) -> ValueProfile {
    let b = ccp_trace::benchmark_by_name(name).expect(name);
    let t = b.trace(budget, 1);
    let mut p = ValueProfile::new();
    profile_source_values(&t, |v, a| p.record(v, a));
    p
}

#[test]
fn average_compressibility_is_paper_like() {
    // The paper measures ~59% on average; our synthetic suite should land
    // in the same region (±15 points keeps the comparative shape intact).
    let mut total = 0.0;
    let mut n = 0;
    for b in all_benchmarks() {
        let t = b.trace(30_000, 1);
        let mut p = ValueProfile::new();
        profile_source_values(&t, |v, a| p.record(v, a));
        println!(
            "{:22} small={:5.1}% ptr={:5.1}% comp={:5.1}%",
            b.full_name(),
            100.0 * p.small_fraction(),
            100.0 * p.pointer_fraction(),
            100.0 * p.compressible_fraction()
        );
        total += p.compressible_fraction();
        n += 1;
    }
    let avg = total / n as f64;
    assert!(
        (0.44..=0.75).contains(&avg),
        "suite average compressibility {avg:.2} out of the paper-like band"
    );
}

#[test]
fn li_is_a_high_compressibility_outlier() {
    let li = profile_of("130.li", 30_000);
    assert!(
        li.compressible_fraction() > 0.80,
        "li should be pointer/small dominated, got {:.2}",
        li.compressible_fraction()
    );
}

#[test]
fn compress_is_the_low_outlier() {
    let c = profile_of("129.compress", 30_000);
    assert!(
        c.compressible_fraction() < 0.45,
        "compress should be the low outlier, got {:.2}",
        c.compressible_fraction()
    );
    let li = profile_of("130.li", 30_000);
    assert!(li.compressible_fraction() > c.compressible_fraction() + 0.3);
}

#[test]
fn pointer_programs_have_pointer_compressible_values() {
    for name in ["health", "treeadd", "perimeter", "197.parser"] {
        let p = profile_of(name, 30_000);
        assert!(
            p.pointer_fraction() > 0.10,
            "{name}: pointer fraction {:.2} too low for a pointer benchmark",
            p.pointer_fraction()
        );
    }
}

#[test]
fn small_value_programs_are_small_dominated() {
    for name in ["099.go", "300.twolf"] {
        let p = profile_of(name, 30_000);
        assert!(
            p.small_fraction() > 0.40,
            "{name}: small fraction {:.2} too low",
            p.small_fraction()
        );
    }
}
