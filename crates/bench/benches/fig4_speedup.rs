//! Bench regenerating Figure 4 data points.
//!
//! Prints the reproduced speedup series once (representative constraint
//! grid), then benchmarks the cost of producing one figure cell — both
//! flows end-to-end on one (kernel, target, constraint) triple, with the
//! per-kernel analyses amortized the way `Optimizer::sweep` amortizes
//! them.
//!
//! Run with: `cargo bench -p slpwlo-bench --bench fig4_speedup`

use slpwlo_bench::harness::{optimizer_for, sweep};
use slpwlo_bench::{report, Micro};
use slpwlo_driver::{Error, FlowKind};
use slpwlo_kernels::paper_benchmarks;
use slpwlo_targets::{all_targets, xentium};

fn print_reproduction() -> Result<(), Error> {
    let constraints: Vec<f64> = [-5.0, -20.0, -40.0, -60.0, -80.0, -95.0].to_vec();
    let targets = all_targets();
    let mut all = Vec::new();
    for bench in paper_benchmarks() {
        all.extend(sweep(&bench, &targets, &constraints)?);
    }
    println!("\n--- Figure 4 reproduction (condensed grid) ---");
    println!("{}", report::fig4_text(&all));
    Ok(())
}

fn main() -> Result<(), Error> {
    print_reproduction()?;
    let mut m = Micro::for_bench("fig4");
    for bench in paper_benchmarks() {
        // One Optimizer per benchmark: the once-per-kernel analyses run
        // once; `run_with` switches the flow per call.
        let opt = optimizer_for(&bench)?
            .target(xentium())
            .constraint_db(-40.0);
        m.bench(&format!("fig4_point_both_flows/{}", bench.name), || {
            let a = opt.run_with(FlowKind::WloSlp).expect("feasible point");
            let b = opt.run_with(FlowKind::WloFirst).expect("feasible point");
            (a.cycles_simd, b.cycles_simd)
        });
    }
    m.finish().expect("write bench JSON");
    Ok(())
}
