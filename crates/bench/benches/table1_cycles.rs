//! Bench regenerating Table I.
//!
//! Prints the reproduced FIR cycle-count table once, then benchmarks the
//! per-cell cost on each of the three targets of the table.
//!
//! Run with: `cargo bench -p slpwlo-bench --bench table1_cycles`

use slpwlo_bench::harness::{optimizer_for, sweep};
use slpwlo_bench::{report, Micro};
use slpwlo_driver::{Error, FlowKind};
use slpwlo_kernels::paper_benchmarks;
use slpwlo_targets::{st240, vex, xentium};

fn print_reproduction() -> Result<(), Error> {
    let constraints: Vec<f64> = vec![-5.0, -15.0, -25.0, -35.0, -45.0, -55.0, -65.0];
    let targets = vec![xentium(), st240(), vex(4)];
    let fir = paper_benchmarks().remove(0);
    let pts = sweep(&fir, &targets, &constraints)?;
    println!(
        "\n--- Table I reproduction (FIR SIMD cycles, N = {}) ---",
        fir.activations
    );
    println!("{}", report::table1_text(&pts));
    Ok(())
}

fn main() -> Result<(), Error> {
    print_reproduction()?;
    let fir = paper_benchmarks().remove(0);
    let mut m = Micro::for_bench("table1");
    let mut opt = optimizer_for(&fir)?.constraint_db(-35.0);
    for target in [xentium(), st240(), vex(4)] {
        let name = target.name.clone();
        opt = opt.target(target);
        m.bench(&format!("table1_fir_cell/{name}"), || {
            let a = opt.run_with(FlowKind::WloSlp).expect("feasible point");
            let b = opt.run_with(FlowKind::WloFirst).expect("feasible point");
            (a.cycles_simd, b.cycles_simd)
        });
    }
    m.finish().expect("write bench JSON");
    Ok(())
}
