//! Reproduces the measurement behind the paper's Figure 3: classify every
//! dynamically accessed value of every benchmark as a compressible small
//! value, a compressible same-chunk pointer, or incompressible.
//!
//! ```text
//! cargo run --release --example value_profile [budget]
//! ```

use ccp::compress::profile::ValueProfile;
use ccp::prelude::*;
use ccp::trace::profile_source_values;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("budget must be a number"))
        .unwrap_or(100_000);

    println!("value compressibility per benchmark ({budget} instructions each)\n");
    println!(
        "{:22} {:>8} {:>9} {:>14}",
        "benchmark", "small", "pointer", "compressible"
    );
    let mut total = ValueProfile::new();
    for bench in all_benchmarks() {
        let trace = bench.trace(budget, 1);
        let mut p = ValueProfile::new();
        profile_source_values(&trace, |v, a| p.record(v, a));
        total.merge(&p);
        println!(
            "{:22} {:>7.1}% {:>8.1}% {:>13.1}%",
            bench.full_name(),
            100.0 * p.small_fraction(),
            100.0 * p.pointer_fraction(),
            100.0 * p.compressible_fraction()
        );
    }
    println!(
        "\noverall: {:.1}% of dynamically accessed values compress to 16 bits",
        100.0 * total.compressible_fraction()
    );
    println!("(the paper measures ~59% on its Olden/SPEC95/SPEC2000 mix)");
}
