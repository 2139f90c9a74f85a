//! The machine-program interpreter is a bit-exact mirror of the
//! reference fixed-point simulation.
//!
//! For the paper's three benchmarks at several word lengths — and for
//! the non-uniform specifications the WLO-SLP flow produces — the
//! lowered scalar *and* SIMD machine programs, executed by
//! `slpwlo_sim::execute_fixed`, must reproduce `simulate_fixed`'s
//! outputs bit for bit. This is the golden-reference loop every C
//! back-end is validated against.

mod common;

use common::simd_program;
use slpwlo::accuracy::simulate::simulate_fixed;
use slpwlo::core::{lower_scalar, prepare, wlo_first_flow_checked};
use slpwlo::core::{wlo_slp_flow_checked, BenefitKind, PassArtifact};
use slpwlo::core::{SchedKind, TabuOptions};
use slpwlo::fixedpoint::range::determine_ranges;
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::ir::Kernel;
use slpwlo::kernels::{conv3x3, fir64, iir10, Workload};
use slpwlo::sim::execute_fixed;
use slpwlo::targets::{vex, xentium};
use std::convert::Infallible;

fn benchmarks() -> Vec<(Kernel, Workload)> {
    vec![
        (fir64(), Workload::white(1, 256, 11)),
        (iir10(), Workload::sine_mix(1, 256)),
        (conv3x3(), Workload::image_rows(64, 12, 5)),
    ]
}

fn assert_bit_identical(label: &str, reference: &[Vec<f64>], got: &[Vec<f64>]) {
    assert_eq!(reference.len(), got.len(), "{label}: output arity");
    for (o, (r, g)) in reference.iter().zip(got).enumerate() {
        assert_eq!(r.len(), g.len(), "{label}: output {o} length");
        for (n, (a, b)) in r.iter().zip(g).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: output {o} sample {n}: reference {a:e} vs interpreter {b:e}"
            );
        }
    }
}

#[test]
fn interpreter_matches_simulate_fixed_on_uniform_specs() {
    for (kernel, workload) in benchmarks() {
        let ranges = determine_ranges(&kernel);
        for wl in [12, 16, 24, 32] {
            let spec = FixedPointSpec::from_ranges(&kernel, &ranges, wl);
            let reference = simulate_fixed(&kernel, &spec, &workload.inputs);
            for target in [xentium(), vex(4)] {
                let scalar = lower_scalar(&kernel, &spec, &target);
                let got = execute_fixed(&scalar, &workload.inputs).expect("scalar program runs");
                assert_bit_identical(
                    &format!("{} scalar wl={wl} on {}", kernel.name(), target.name),
                    &reference,
                    &got,
                );
                let simd = simd_program(&kernel, &spec, &target);
                let got = execute_fixed(&simd, &workload.inputs).expect("simd program runs");
                assert_bit_identical(
                    &format!("{} simd wl={wl} on {}", kernel.name(), target.name),
                    &reference,
                    &got,
                );
            }
        }
    }
}

#[test]
fn interpreter_matches_simulate_fixed_on_flow_specs() {
    // Non-uniform specifications (per-node word lengths chosen by the
    // search) exercise the mismatched-lane scaling paths.
    for (kernel, workload) in benchmarks() {
        let prep = prepare(kernel.clone());
        let target = xentium();
        let (benefit, sched) = (BenefitKind::default(), SchedKind::List);
        let tabu = TabuOptions::default();
        for db in [-25.0, -55.0] {
            let ok = &mut |_: PassArtifact<'_>| Ok::<(), Infallible>(());
            let joint = wlo_slp_flow_checked(&prep, &target, db, benefit, sched, ok).unwrap();
            let reference = simulate_fixed(&kernel, &joint.spec, &workload.inputs);
            for prog in [&joint.simd, &joint.scalar] {
                let got = execute_fixed(prog, &workload.inputs).expect("program runs");
                assert_bit_identical(
                    &format!("{} wlo-slp at {db} dB", kernel.name()),
                    &reference,
                    &got,
                );
            }
            let first =
                wlo_first_flow_checked(&prep, &target, db, &tabu, benefit, sched, ok).unwrap();
            let reference = simulate_fixed(&kernel, &first.spec, &workload.inputs);
            for prog in [&first.simd, &first.scalar] {
                let got = execute_fixed(prog, &workload.inputs).expect("program runs");
                assert_bit_identical(
                    &format!("{} wlo-first at {db} dB", kernel.name()),
                    &reference,
                    &got,
                );
            }
        }
    }
}

#[test]
fn simd_and_scalar_programs_agree_with_each_other() {
    // Vectorization must be semantics-preserving: both lowerings of the
    // same spec produce identical streams.
    let (kernel, workload) = benchmarks().remove(0);
    let ranges = determine_ranges(&kernel);
    let spec = FixedPointSpec::from_ranges(&kernel, &ranges, 16);
    let target = xentium();
    let scalar = execute_fixed(&lower_scalar(&kernel, &spec, &target), &workload.inputs).unwrap();
    let simd = execute_fixed(&simd_program(&kernel, &spec, &target), &workload.inputs).unwrap();
    assert_bit_identical("fir64 simd-vs-scalar", &scalar, &simd);
}
