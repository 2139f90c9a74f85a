//! Bench regenerating Figure 6.
//!
//! Prints the reproduced float-vs-fixed speedups once (soft-float XENTIUM
//! and hardware-float ST240), then benchmarks the float-baseline path
//! (lowering plus cycle simulation) through the driver.
//!
//! Run with: `cargo bench -p slpwlo-bench --bench fig6_float`

use slpwlo_bench::harness::{optimizer_for, sweep};
use slpwlo_bench::{report, Micro};
use slpwlo_driver::{Error, FlowKind};
use slpwlo_kernels::paper_benchmarks;
use slpwlo_targets::{st240, xentium};

fn print_reproduction() -> Result<(), Error> {
    let constraints: Vec<f64> = vec![-5.0, -15.0, -25.0, -35.0, -45.0];
    let targets = vec![xentium(), st240()];
    let mut all = Vec::new();
    for bench in paper_benchmarks() {
        all.extend(sweep(&bench, &targets, &constraints)?);
    }
    all.sort_by(|a, b| a.target.cmp(&b.target).then(a.bench.cmp(&b.bench)));
    println!("\n--- Figure 6 reproduction ---");
    println!("{}", report::fig6_text(&all));
    Ok(())
}

fn main() -> Result<(), Error> {
    print_reproduction()?;
    let mut m = Micro::for_bench("fig6");
    for bench in paper_benchmarks() {
        let float = optimizer_for(&bench)?
            .target(xentium())
            .flow(FlowKind::Float);
        m.bench(
            &format!("fig6_lower_and_simulate_float/{}", bench.name),
            || {
                float
                    .run()
                    .expect("float flow cannot be infeasible")
                    .cycles_simd
            },
        );
    }
    m.finish().expect("write bench JSON");
    Ok(())
}
