//! Regression tests for legal-but-unusual kernels the fuzz generator
//! surfaced — each case here once panicked, miscompiled, or was refused
//! somewhere in the pipeline. The whole chain (range analysis → spec →
//! scalar+SIMD lowering → machine interpreter vs reference simulation)
//! must stay bit-exact and panic-free on all of them.

mod common;

use common::simd_program;
use slpwlo::accuracy::simulate::simulate_fixed;
use slpwlo::codegen::{emit_fixed_c, emit_simd_c};
use slpwlo::core::lower_scalar;
use slpwlo::fixedpoint::range::{determine_ranges, RangeMethod, DIVERGENCE_BOUND, SIM_MARGIN};
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::ir::builder::KernelBuilder;
use slpwlo::ir::types::IndexExpr;
use slpwlo::ir::{IrError, Kernel};
use slpwlo::kernels::Workload;
use slpwlo::sim::execute_fixed;
use slpwlo::targets::{vex, xentium, TargetModel};

/// Full-chain check: both lowerings execute and match the reference
/// bitwise, and both C backends emit successfully.
fn assert_whole_chain(kernel: &Kernel, wl: i32) {
    let workload = Workload::white(kernel.inputs().len(), 48, 0xED6E ^ wl as u64);
    let ranges = determine_ranges(kernel);
    let spec = FixedPointSpec::from_ranges(kernel, &ranges, wl);
    let reference = simulate_fixed(kernel, &spec, &workload.inputs);
    for target in [xentium(), vex(4)] {
        let scalar = lower_scalar(kernel, &spec, &target);
        let got = execute_fixed(&scalar, &workload.inputs).expect("scalar runs");
        assert_streams(kernel, wl, &target, "scalar", &reference, &got);
        let simd = simd_program(kernel, &spec, &target);
        let got = execute_fixed(&simd, &workload.inputs).expect("simd runs");
        assert_streams(kernel, wl, &target, "simd", &reference, &got);
        emit_fixed_c(&scalar).expect("scalar C emits");
        emit_simd_c(&simd, &target.name).expect("SIMD C emits");
    }
}

fn assert_streams(
    kernel: &Kernel,
    wl: i32,
    target: &TargetModel,
    which: &str,
    reference: &[Vec<f64>],
    got: &[Vec<f64>],
) {
    for (o, (r, g)) in reference.iter().zip(got).enumerate() {
        for (n, (a, b)) in r.iter().zip(g).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {which} wl={wl} on {}: output {o} sample {n}: {a:e} vs {b:e}",
                kernel.name(),
                target.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Builder/validation edges: structured errors instead of panics
// ---------------------------------------------------------------------------

#[test]
fn empty_param_table_is_a_typed_error() {
    let mut b = KernelBuilder::new("k");
    assert!(matches!(
        b.try_param("c", vec![]),
        Err(IrError::EmptyTable { kind: "param", .. })
    ));
}

#[test]
fn zero_length_array_is_a_typed_error() {
    let mut b = KernelBuilder::new("k");
    assert!(matches!(
        b.try_array("a", 0),
        Err(IrError::EmptyTable { kind: "array", .. })
    ));
}

#[test]
fn zero_trip_loop_is_a_typed_error() {
    let mut b = KernelBuilder::new("k");
    assert!(matches!(b.try_begin_for(0), Err(IrError::ZeroTripLoop)));
}

#[test]
fn crossed_loops_are_a_typed_error() {
    let mut b = KernelBuilder::new("k");
    let i = b.try_begin_for(2).unwrap();
    let _j = b.try_begin_for(2).unwrap();
    assert!(matches!(b.try_end_for(i), Err(IrError::LoopNesting(_))));
}

#[test]
fn out_of_range_output_is_a_typed_error() {
    let mut b = KernelBuilder::new("k");
    b.output("y");
    let c = b.constf(0.5);
    assert!(matches!(
        b.try_set_output(3, c),
        Err(IrError::OutputOutOfRange { index: 3, count: 1 })
    ));
}

#[test]
fn unset_output_fails_validation() {
    let mut b = KernelBuilder::new("k");
    let x = b.input("x", -1.0, 1.0);
    b.output("y");
    let _ = b.read_input(x);
    assert!(matches!(b.try_finish(), Err(IrError::OutputUnset(_))));
}

// ---------------------------------------------------------------------------
// Legal-but-unusual shapes: whole chain stays exact
// ---------------------------------------------------------------------------

/// A zero-tap accumulator: `acc = 0; y = acc` — no arithmetic at all.
#[test]
fn zero_tap_accumulator() {
    let mut b = KernelBuilder::new("zerotap");
    let _x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let acc = b.var("acc");
    let z = b.constf(0.0);
    b.assign(acc, z);
    let r = b.read_var(acc);
    b.set_output(y, r);
    let k = b.finish();
    assert_whole_chain(&k, 16);
}

/// Fan-out-only kernel: one value copied to two outputs untouched.
#[test]
fn fan_out_only_nodes() {
    let mut b = KernelBuilder::new("fanout");
    let x = b.input("x", -1.0, 1.0);
    let y0 = b.output("y0");
    let y1 = b.output("y1");
    let t = b.var("t");
    let xv = b.read_input(x);
    b.assign(t, xv);
    let r0 = b.read_var(t);
    b.set_output(y0, r0);
    let r1 = b.read_var(t);
    b.set_output(y1, r1);
    let k = b.finish();
    assert_whole_chain(&k, 16);
}

/// Pure identity: output = input, no vars, no state.
#[test]
fn identity_kernel() {
    let mut b = KernelBuilder::new("ident");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let xv = b.read_input(x);
    b.set_output(y, xv);
    let k = b.finish();
    assert_whole_chain(&k, 12);
}

/// Constant output next to an unused input.
#[test]
fn constant_output_kernel() {
    let mut b = KernelBuilder::new("constout");
    let _x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let c = b.constf(0.4375);
    b.set_output(y, c);
    let k = b.finish();
    assert_whole_chain(&k, 16);
}

// ---------------------------------------------------------------------------
// Regressions for pipeline bugs the fuzzer found (by fuzz seed)
// ---------------------------------------------------------------------------

/// Seed 0: the product of two covering variable storage formats can
/// exceed 64 bits; both C backends must fall back to the exact 128-bit
/// `slpwlo_mul_shr` helper instead of refusing (or truncating).
#[test]
fn wide_variable_product_stays_exact() {
    // acc over a big range (iwl grows) times a [-1,1] variable.
    let mut b = KernelBuilder::new("wideprod");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let c = b.param("c", vec![0.9375, 0.875, -0.9375, 0.8125]);
    let acc = b.var("acc");
    let t = b.var("t");
    let xv = b.read_input(x);
    b.assign(t, xv);
    let z = b.constf(0.0);
    b.assign(acc, z);
    // Accumulate 12 taps of ~1: acc range ~ [-12, 12] (iwl ~ 5).
    let i = b.begin_for(12);
    let cv = b.load_param_ix(c, IndexExpr::affine(i, 1, 0));
    let av = b.read_var(acc);
    let s = b.add(av, cv);
    b.assign(acc, s);
    b.end_for(i);
    let a2 = b.read_var(acc);
    let t2 = b.read_var(t);
    let m = b.mul(a2, t2);
    b.set_output(y, m);
    let k = b.finish();
    for wl in [16, 24, 32] {
        assert_whole_chain(&k, wl);
    }
}

/// Seed 10: interval range analysis declared convergence before stored
/// values finished propagating through a delay line, producing unsound
/// (too-narrow) ranges for `dl[k]` reads of a still-filling line.
#[test]
fn delay_line_propagation_ranges_are_sound() {
    let mut b = KernelBuilder::new("dlprop");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let dl = b.array("dl", 4);
    let v = b.var("v");
    let big = b.constf(0.9453125);
    b.shift_in(dl, big);
    // Index -1 wraps to dl[3], the slot that fills last.
    let l = b.load(dl, -1);
    b.assign(v, l);
    let xv = b.read_input(x);
    let r = b.read_var(v);
    let s = b.add(r, xv);
    b.set_output(y, s);
    let k = b.finish();
    let ranges = determine_ranges(&k);
    assert_eq!(ranges.method, RangeMethod::Interval);
    // The load's range must cover the stored constant once the line has
    // filled (four activations in).
    let (load_id, _) = k
        .exprs()
        .find(|(_, n)| matches!(n, slpwlo::ir::ExprNode::LoadArray(..)))
        .expect("kernel loads the line");
    let iv = ranges.expr(load_id);
    assert!(
        iv.hi >= 0.9453125,
        "load range [{}, {}] must cover the propagated store",
        iv.lo,
        iv.hi
    );
    assert_whole_chain(&k, 16);
}

/// Seed 16: a vectorized load whose lane indices may wrap must lower as
/// a gather (the single-base-pointer VLOAD cannot express Euclidean
/// wrapping); previously the SIMD C emitter refused such programs.
#[test]
fn wrapping_vector_loads_fall_back_to_gather() {
    let mut b = KernelBuilder::new("wrapvec");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let c = b.param("c", vec![0.25, -0.5, 0.125, 0.0625]);
    let dl = b.array("dl", 4);
    let acc = b.var("acc");
    let xv = b.read_input(x);
    b.shift_in(dl, xv);
    let z = b.constf(0.0);
    b.assign(acc, z);
    // Offset -1: lane indices -1..2 wrap at i = 0.
    let i = b.begin_for(4);
    let cv = b.load_param_ix(c, IndexExpr::affine(i, 1, 0));
    let lv = b.load_ix(dl, IndexExpr::affine(i, 1, -1));
    let m = b.mul(cv, lv);
    let av = b.read_var(acc);
    let s = b.add(av, m);
    b.assign(acc, s);
    b.end_for(i);
    let r = b.read_var(acc);
    b.set_output(y, r);
    let mut k = b.finish();
    slpwlo::ir::unroll::unroll(&mut k, i, 4).unwrap();
    assert_whole_chain(&k, 12);
}

/// Seed 24: consecutive blocks sharing an outer loop (an unrolled inner
/// loop plus its remainder) must interleave per outer iteration in the
/// machine program and the generated C, not run their nests back to
/// back.
#[test]
fn shared_outer_loops_interleave() {
    let mut b = KernelBuilder::new("sharedloop");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let c = b.param(
        "c",
        vec![
            -0.0546875,
            -0.0546875,
            -0.3125,
            -0.33203125,
            0.09375,
            0.9453125,
            -0.234375,
        ],
    );
    let acc = b.var("acc");
    let z = b.constf(0.0);
    b.assign(acc, z);
    let outer = b.begin_for(2);
    let inner = b.begin_for(7);
    let cv = b.load_param_ix(c, IndexExpr::affine(inner, 1, 0));
    let av = b.read_var(acc);
    let s = b.add(av, cv);
    b.assign(acc, s);
    b.end_for(inner);
    b.end_for(outer);
    let xv = b.read_input(x);
    let r = b.read_var(acc);
    let s2 = b.add(r, xv);
    b.set_output(y, s2);
    let mut k = b.finish();
    // Unroll the *inner* loop by 4: 7 = 4 + 3 leaves a remainder block
    // sharing the outer loop with the unrolled loop block.
    slpwlo::ir::unroll::unroll(&mut k, inner, 4).unwrap();
    for wl in [12, 16, 32] {
        assert_whole_chain(&k, wl);
    }
}

/// Seed 1: three or more SLP groups can form a dependency cycle that no
/// pairwise conflict check sees; selection must refuse the closing
/// group, and lowering's coarsened topological sort must not panic.
#[test]
fn multi_group_dependency_cycles_are_refused() {
    let src = r#"
kernel gk1 {
    input x0 range [-1, 1];
    output y0;
    output y1;
    var v1;
    v1 = 0.0 + 0.0;
    y0 = 0.0 + 0.0 * 0.0;
    y1 = 0.0 * v1;
}
"#;
    let k = slpwlo::ir::parser::parse_kernel(src).unwrap();
    assert_whole_chain(&k, 16);
}

/// Seed 224 (4096-seed corpus): a delay line whose shift expression read
/// the line's *own* taps through a product — quadratic self-feedback.
/// Interval analysis rightly diverges and falls back to simulation,
/// whose f64 run overflows to infinity; spec construction used to panic
/// on the non-finite range. The measurement is now clamped to the
/// divergence bound: range analysis and spec construction stay
/// panic-free and every format is finite (the generator itself no
/// longer emits self-referential shifts, so this pins the clamping
/// backstop for hand-written kernels).
#[test]
fn divergent_feedback_ranges_are_clamped_finite() {
    let src = r#"
kernel gk224 {
    input x0 range [-1, 1];
    output y0;
    array dl1[2];
    shiftin dl1 <- (dl1[1] + 0.50390625) * (x0 + dl1[-1]);
    y0 = -0.4375 * dl1[0];
}
"#;
    let k = slpwlo::ir::parser::parse_kernel(src).unwrap();
    let ranges = determine_ranges(&k);
    assert!(
        matches!(ranges.method, RangeMethod::Simulation { .. }),
        "divergent feedback must fall back to simulated ranges"
    );
    for iv in ranges.exprs.iter().flatten().chain(&ranges.arrays) {
        assert!(
            iv.lo.is_finite() && iv.hi.is_finite(),
            "clamped measurement must be finite, got {iv:?}"
        );
        assert!(
            iv.magnitude() <= DIVERGENCE_BOUND * SIM_MARGIN,
            "clamp must bound the measurement: {iv:?}"
        );
    }
    // Spec construction must not panic; the resulting formats are huge
    // but finite.
    let spec = FixedPointSpec::from_ranges(&k, &ranges, 32);
    let _ = spec;
}

/// A divergent kernel can go one step beyond ±inf: `inf - inf` is NaN,
/// which the simulation's recording layer must sanitize (NaN has no
/// sign, so it widens to the full representable range before the
/// divergence clamp bounds it) rather than panic on.
#[test]
fn nan_producing_feedback_ranges_are_clamped_finite() {
    let src = r#"
kernel gknan {
    input x0 range [-1, 1];
    output y0;
    array dl1[2];
    shiftin dl1 <- dl1[0] + dl1[0] + x0;
    y0 = dl1[0] - dl1[1];
}
"#;
    let k = slpwlo::ir::parser::parse_kernel(src).unwrap();
    let ranges = determine_ranges(&k);
    for iv in ranges.exprs.iter().flatten().chain(&ranges.arrays) {
        assert!(
            iv.lo.is_finite() && iv.hi.is_finite(),
            "clamped measurement must be finite, got {iv:?}"
        );
    }
    let _ = FixedPointSpec::from_ranges(&k, &ranges, 32);
}

/// Which range method each registered benchmark takes: interval
/// propagation converges on the feed-forward kernels and diverges on
/// the feedback ones, which must fall back to simulation.
#[test]
fn benchmark_range_methods() {
    let expected = [
        ("FIR", true),
        ("IIR", false),
        ("CONV", true),
        ("DOT", true),
        ("MATVEC", true),
        ("BIQUAD", false),
        ("CFIR", true),
        ("POLY", true),
    ];
    let benches = slpwlo::kernels::all_benchmarks();
    let names: Vec<_> = benches.iter().map(|b| b.name).collect();
    let expected_names: Vec<_> = expected.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, expected_names, "every benchmark has an expectation");
    for (bench, (_, interval)) in benches.iter().zip(expected) {
        let method = determine_ranges(&bench.kernel).method;
        if interval {
            assert_eq!(method, RangeMethod::Interval, "{}", bench.name);
        } else {
            assert!(
                matches!(method, RangeMethod::Simulation { .. }),
                "{}: expected simulation, got {method:?}",
                bench.name
            );
        }
    }
}
