//! Reproduces Figure 6: speedup of `WLO-SLP` over the original
//! (single-precision) floating-point version, on XENTIUM (soft float) and
//! ST240 (hardware float).
//!
//! Usage: `cargo run --release -p slpwlo-bench --bin fig6 [--csv]`

use slpwlo_bench::harness::sweep;
use slpwlo_bench::report;
use slpwlo_driver::Error;
use slpwlo_kernels::paper_benchmarks;
use slpwlo_targets::{st240, xentium};

fn main() -> Result<(), Error> {
    let csv = std::env::args().any(|a| a == "--csv");
    let constraints: Vec<f64> = (1..=9).map(|i| -5.0 * i as f64).collect(); // -5..-45
    let targets = vec![xentium(), st240()];
    let mut all = Vec::new();
    for bench in paper_benchmarks() {
        eprintln!("fig6: sweeping {} ...", bench.name);
        all.extend(sweep(&bench, &targets, &constraints)?);
    }
    // Order by target first (figure 6 has one panel per target).
    all.sort_by(|a, b| a.target.cmp(&b.target).then(a.bench.cmp(&b.bench)));
    if csv {
        print!("{}", report::csv(&all));
    } else {
        print!("{}", report::fig6_text(&all));
    }
    Ok(())
}
