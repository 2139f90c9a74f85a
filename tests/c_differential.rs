//! Compile-and-execute differential validation of the C back-ends.
//!
//! For the paper's three benchmarks, the emitted scalar fixed-point C
//! and the emitted SIMD C (over the portable macro fallback) are
//! compiled with `cc -std=c99 -Wall -Werror` and executed; their output
//! streams must be bit-identical to the bit-accurate reference
//! simulation (`simulate_fixed`) under the same specification.
//!
//! The harness needs a C compiler on `PATH` (`cc`). Without one the
//! tests skip with a notice — set `SLPWLO_REQUIRE_CC=1` (CI does) to
//! turn a missing compiler into a failure.

mod common;

use common::{assert_bit_identical, cc_available, compile_and_run, simd_program};
use slpwlo::accuracy::simulate::simulate_fixed;
use slpwlo::codegen::{emit_fixed_c, emit_intrinsics_header, emit_simd_c};
use slpwlo::core::{lower_scalar, prepare, wlo_slp_flow_checked, BenefitKind, MachineProgram};
use slpwlo::fixedpoint::range::determine_ranges;
use slpwlo::fixedpoint::{FixedPointSpec, QFormat, SpecKey};
use slpwlo::ir::parser::parse_kernel;
use slpwlo::ir::{ExprNode, Kernel};
use slpwlo::kernels::{conv3x3, fir64, iir10, Workload};
use slpwlo::targets::{xentium, SchedKind};

fn check_both_backends(
    tag: &str,
    kernel: &Kernel,
    spec: &FixedPointSpec,
    scalar: &MachineProgram,
    simd: &MachineProgram,
    workload: &Workload,
) {
    let target = xentium();
    let reference = simulate_fixed(kernel, spec, &workload.inputs);
    let outputs = kernel.outputs().len();

    let fixed = emit_fixed_c(scalar).expect("scalar C emits");
    let got = compile_and_run(
        &format!("{tag}_fixed"),
        &fixed,
        None,
        kernel.name(),
        workload,
        outputs,
    );
    assert_bit_identical(&format!("{tag} scalar C"), &reference, &got);

    let simd_c = emit_simd_c(simd, &target.name).expect("SIMD C emits");
    let header = emit_intrinsics_header(&target);
    let got = compile_and_run(
        &format!("{tag}_simd"),
        &simd_c,
        Some(("slpwlo_simd_xentium.h", &header)),
        kernel.name(),
        workload,
        outputs,
    );
    assert_bit_identical(&format!("{tag} SIMD C"), &reference, &got);
}

#[test]
fn compiled_c_matches_simulation_on_uniform_specs() {
    if !cc_available() {
        return;
    }
    let benches: Vec<(Kernel, Workload)> = vec![
        (fir64(), Workload::white(1, 128, 11)),
        (iir10(), Workload::sine_mix(1, 128)),
        (conv3x3(), Workload::image_rows(48, 8, 5)),
    ];
    let target = xentium();
    for (kernel, workload) in &benches {
        let ranges = determine_ranges(kernel);
        for wl in [12, 16, 24, 32] {
            let spec = FixedPointSpec::from_ranges(kernel, &ranges, wl);
            let scalar = lower_scalar(kernel, &spec, &target);
            let simd = simd_program(kernel, &spec, &target);
            check_both_backends(
                &format!("{}_wl{}", kernel.name(), wl),
                kernel,
                &spec,
                &scalar,
                &simd,
                workload,
            );
        }
    }
}

#[test]
fn compiled_c_matches_simulation_on_flow_specs() {
    if !cc_available() {
        return;
    }
    let benches: Vec<(Kernel, Workload)> = vec![
        (fir64(), Workload::white(1, 128, 23)),
        (iir10(), Workload::sine_mix(1, 128)),
        (conv3x3(), Workload::image_rows(48, 8, 7)),
    ];
    let target = xentium();
    for (kernel, workload) in &benches {
        let prep = prepare(kernel.clone());
        let flow = wlo_slp_flow_checked(
            &prep,
            &target,
            -40.0,
            BenefitKind::default(),
            SchedKind::List,
            &mut |_| Ok::<(), std::convert::Infallible>(()),
        )
        .unwrap();
        check_both_backends(
            &format!("{}_wloslp", kernel.name()),
            kernel,
            &flow.spec,
            &flow.scalar,
            &flow.simd,
            workload,
        );
    }
}

/// Regression for the UB-prone `x << n` path: a kernel whose scalings
/// include a *left* shift of negative-valued intermediates (coarse
/// multiply format re-aligned onto a finer accumulation grid). The
/// emitted C must use the multiplication-based `slpwlo_shl` and stay
/// bit-exact on negative data.
#[test]
fn negative_value_left_shift_path_is_well_defined() {
    if !cc_available() {
        return;
    }
    let src = r#"
kernel negshift {
    input x range [-1, 1];
    output y;
    var t;
    var u;
    t = x * -0.8125;
    u = t + -0.1875;
    y = u;
}
"#;
    let kernel = parse_kernel(src).unwrap();
    let ranges = determine_ranges(&kernel);
    let mut spec = FixedPointSpec::from_ranges(&kernel, &ranges, 16);
    // Make the multiply coarse and the addition fine: the add's operand
    // alignment becomes a left shift, applied to negative products.
    for (id, node) in kernel.exprs() {
        match node {
            ExprNode::Bin(slpwlo::ir::BinOp::Mul, ..) => {
                spec.set_format(SpecKey::Expr(id), QFormat::new(1, 7));
            }
            ExprNode::Bin(slpwlo::ir::BinOp::Add, ..) => {
                spec.set_format(SpecKey::Expr(id), QFormat::new(2, 14));
            }
            _ => {}
        }
    }
    let target = xentium();
    let scalar = lower_scalar(&kernel, &spec, &target);
    let c = emit_fixed_c(&scalar).expect("emits");
    assert!(
        c.contains("slpwlo_shl("),
        "expected a left-alignment through slpwlo_shl:\n{c}"
    );
    // All-negative inputs keep every intermediate negative.
    let workload = Workload {
        inputs: vec![(0..64).map(|i| -1.0 + (i as f64) * 0.01).collect()],
    };
    let reference = simulate_fixed(&kernel, &spec, &workload.inputs);
    let got = compile_and_run("negshift_fixed", &c, None, "negshift", &workload, 1);
    assert_bit_identical("negshift scalar C", &reference, &got);
    // And the interpreter agrees too.
    let vm = slpwlo::sim::execute_fixed(&scalar, &workload.inputs).unwrap();
    assert_bit_identical("negshift interpreter", &reference, &vm);
}

/// Regression for index wrapping: an affine index that leaves
/// `[0, len)` must address the same element in C as the Euclidean
/// (`rem_euclid`) semantics of the reference executor and the machine
/// interpreter — via `slpwlo_idx`, never out-of-bounds UB.
#[test]
fn out_of_range_indices_wrap_like_the_reference() {
    if !cc_available() {
        return;
    }
    use slpwlo::ir::{IndexExpr, KernelBuilder};
    // acc = sum over i of dl[i - 1]: index -1..2 on a 4-element array,
    // wrapping to dl[3] at i = 0.
    let mut b = KernelBuilder::new("wrapix");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let dl = b.array("dl", 4);
    let acc = b.var("acc");
    let xv = b.read_input(x);
    b.shift_in(dl, xv);
    let z = b.constf(0.0);
    b.assign(acc, z);
    let i = b.begin_for(4);
    let l = b.load_ix(dl, IndexExpr::affine(i, 1, -1));
    let av = b.read_var(acc);
    let s = b.add(av, l);
    b.assign(acc, s);
    b.end_for(i);
    let r = b.read_var(acc);
    b.set_output(y, r);
    let kernel = b.finish();

    let ranges = determine_ranges(&kernel);
    let spec = FixedPointSpec::from_ranges(&kernel, &ranges, 16);
    let scalar = lower_scalar(&kernel, &spec, &xentium());
    let c = emit_fixed_c(&scalar).expect("emits");
    assert!(
        c.contains("slpwlo_idx("),
        "out-of-range index must be wrapped:\n{c}"
    );
    let workload = Workload::white(1, 64, 31);
    let reference = simulate_fixed(&kernel, &spec, &workload.inputs);
    let got = compile_and_run("wrapix_fixed", &c, None, "wrapix", &workload, 1);
    assert_bit_identical("wrapix scalar C", &reference, &got);
    let vm = slpwlo::sim::execute_fixed(&scalar, &workload.inputs).unwrap();
    assert_bit_identical("wrapix interpreter", &reference, &vm);
}
