//! The scientific core check: specifications produced by the flows,
//! when executed **bit-accurately**, honour the accuracy constraint the
//! analytical model promised. Runs through the `Optimizer` driver.

use slpwlo::accuracy::measure_noise;
use slpwlo::kernels::{paper_benchmarks, Workload};
use slpwlo::targets::xentium;
use slpwlo::{Error, FlowKind, Optimizer};

/// Model-vs-silicon margin: the analytical noise model linearises
/// quantization; 4 dB covers its bias on these kernels (validated per
/// crate in `slpwlo-accuracy`).
const MARGIN_DB: f64 = 4.0;

fn workload_for(name: &str, n: usize) -> Workload {
    match name {
        "CONV" => Workload::image_rows(64, n / 64, 0xC0),
        _ => Workload::white(1, n, 0xAB),
    }
}

#[test]
fn wlo_slp_specs_validate_bit_accurately() -> Result<(), Error> {
    for bench in paper_benchmarks() {
        let workload = workload_for(bench.name, bench.activations as usize);
        let reports = Optimizer::for_kernel(bench.kernel.clone())?
            .target(xentium())
            .flow(FlowKind::WloSlp)
            .sweep(&[-25.0, -55.0])?;
        for report in reports {
            let db = report.constraint_db.expect("sweep sets the constraint");
            let spec = report.spec.as_ref().expect("fixed-point flow has a spec");
            let measured = measure_noise(&report.kernel, spec, &workload.inputs);
            assert!(
                measured.db <= db + MARGIN_DB,
                "{} at {db} dB: measured {:.1} dB (predicted {:.1})",
                bench.name,
                measured.db,
                report.noise_db.expect("fixed-point flow predicts noise")
            );
        }
    }
    Ok(())
}

#[test]
fn wlo_first_specs_validate_bit_accurately() -> Result<(), Error> {
    for bench in paper_benchmarks() {
        let workload = workload_for(bench.name, bench.activations as usize);
        let db = -35.0;
        let report = Optimizer::for_kernel(bench.kernel.clone())?
            .target(xentium())
            .constraint_db(db)
            .flow(FlowKind::WloFirst)
            .run()?;
        let spec = report.spec.as_ref().expect("fixed-point flow has a spec");
        let measured = measure_noise(&report.kernel, spec, &workload.inputs);
        assert!(
            measured.db <= db + MARGIN_DB,
            "{}: measured {:.1} dB (predicted {:.1})",
            bench.name,
            measured.db,
            report.noise_db.expect("fixed-point flow predicts noise")
        );
    }
    Ok(())
}

#[test]
fn model_tracks_simulation_across_wl() {
    use slpwlo::accuracy::AccuracyEvaluator;
    use slpwlo::fixedpoint::range::determine_ranges;
    use slpwlo::fixedpoint::FixedPointSpec;
    // Uniform word lengths on FIR-64: predicted vs measured within the
    // margin at each width.
    let bench = &paper_benchmarks()[0];
    let ranges = determine_ranges(&bench.kernel);
    let eval = slpwlo::accuracy::AnalyticalEvaluator::new(&bench.kernel);
    let workload = Workload::white(1, 4096, 0x11);
    for wl in [12, 16, 24] {
        let spec = FixedPointSpec::from_ranges(&bench.kernel, &ranges, wl);
        let predicted = eval.noise_db(&spec);
        let measured = measure_noise(&bench.kernel, &spec, &workload.inputs).db;
        assert!(
            (predicted - measured).abs() <= MARGIN_DB,
            "wl {wl}: predicted {predicted:.1} vs measured {measured:.1}"
        );
    }
}
