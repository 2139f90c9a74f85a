//! Golden-file snapshots of the emitted C.
//!
//! Two kernels are snapshotted: FIR-8 through the full WLO-SLP flow
//! (non-uniform formats, the paper's pipeline) and dot-product-256 on a
//! uniform 16-bit specification (the longest reduction in the suite —
//! loop-heavy code with large coefficient tables). The emitted
//! artifacts are stable across refactors; any intentional change to the
//! back-ends shows up as a reviewable diff under `tests/golden/` (see
//! its README). Regenerate with:
//!
//! ```sh
//! SLPWLO_UPDATE_GOLDEN=1 cargo test --test golden_c
//! ```

mod common;

use slpwlo::codegen::{emit_fixed_c, emit_simd_c};
use slpwlo::core::{
    lower_scalar, prepare, wlo_slp_flow_checked, BenefitKind, FlowResult, Prepared,
};
use slpwlo::fixedpoint::range::determine_ranges;
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::ir::parser::parse_kernel;
use slpwlo::kernels::dot_product256;
use slpwlo::targets::{xentium, SchedKind};
use std::path::Path;

const FIR8: &str = r#"
kernel fir8 {
    input x range [-1, 1];
    output y;
    param c[8] = { 0.11, -0.23, 0.31, 0.17, -0.05, 0.27, -0.13, 0.07 };
    array dl[8];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..8 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

fn check_golden(name: &str, produced: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("SLPWLO_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, produced).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with SLPWLO_UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        expected, produced,
        "emitted {name} drifted from its golden snapshot; if the change \
         is intentional, regenerate with SLPWLO_UPDATE_GOLDEN=1 and review the diff"
    );
}

/// FIR-8 through the joint flow on XENTIUM at -40 dB, with the library
/// defaults.
fn fir8_flow() -> (Prepared, FlowResult) {
    let prep = prepare(parse_kernel(FIR8).unwrap());
    let flow = wlo_slp_flow_checked(
        &prep,
        &xentium(),
        -40.0,
        BenefitKind::default(),
        SchedKind::List,
        &mut |_| Ok::<(), std::convert::Infallible>(()),
    )
    .unwrap();
    (prep, flow)
}

#[test]
fn fir8_scalar_c_matches_golden() {
    let (prep, flow) = fir8_flow();
    let scalar = lower_scalar(&prep.kernel, &flow.spec, &xentium());
    let c = emit_fixed_c(&scalar).expect("scalar C emits");
    check_golden("fir8_fixed.c", &c);
}

#[test]
fn fir8_simd_c_matches_golden() {
    let (_, flow) = fir8_flow();
    let c = emit_simd_c(&flow.simd, "XENTIUM").expect("SIMD C emits");
    check_golden("fir8_simd.c", &c);
}

/// Uniform 16-bit specification for dot-product-256 (no search: the
/// snapshot must stay byte-stable under optimizer evolution and
/// exercise the loop/table emission paths instead).
fn dot256_setup() -> (slpwlo::ir::Kernel, FixedPointSpec) {
    let kernel = dot_product256();
    let ranges = determine_ranges(&kernel);
    let spec = FixedPointSpec::from_ranges(&kernel, &ranges, 16);
    (kernel, spec)
}

#[test]
fn dot256_scalar_c_matches_golden() {
    let (kernel, spec) = dot256_setup();
    let scalar = lower_scalar(&kernel, &spec, &xentium());
    let c = emit_fixed_c(&scalar).expect("scalar C emits");
    check_golden("dot256_fixed.c", &c);
}

#[test]
fn dot256_simd_c_matches_golden() {
    let (kernel, spec) = dot256_setup();
    let simd = common::simd_program(&kernel, &spec, &xentium());
    let c = emit_simd_c(&simd, "XENTIUM").expect("SIMD C emits");
    check_golden("dot256_simd.c", &c);
}
