//! SIMD C emission over the abstract macro API.
//!
//! Renders the lowered (vectorized) machine program as a compilable
//! C99 translation unit: the same storage declarations and
//! `<kernel>_step` driver as the scalar back-end, with every vector
//! operation expressed through the abstract macro vocabulary
//! (`VLOAD2/4`, `VADD2/4`, `VMUL2/4`, `VSH2/4`, `VSAT2/4`, `PACK2/4`,
//! `SPLAT2/4`, `UNPACK`) implemented per target by
//! [`crate::intrinsics::emit_intrinsics_header`]. Scaling amounts and
//! saturation bounds are compile-time immediates — exactly the explicit
//! alignment information the paper's fig. 2 discussion is about — so
//! the emitted program is executable with the portable fallback and
//! bit-exact against the reference simulation.

use crate::emit::{emit_step, emit_storage};
use crate::error::CodegenError;
use slpwlo_core::MachineProgram;
use std::fmt::Write as _;

/// Emits the SIMD C of a lowered program over the abstract macro API.
///
/// `target_name` selects the generated `slpwlo_simd_<target>.h` macro
/// implementation header (see
/// [`crate::intrinsics::emit_intrinsics_header`]).
pub fn emit_simd_c(program: &MachineProgram, target_name: &str) -> Result<String, CodegenError> {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "/* {} — SIMD C over the abstract macro API */",
        program.name
    );
    let _ = writeln!(s, "/* target: {target_name} */");
    let _ = writeln!(
        s,
        "#include \"slpwlo_simd_{}.h\"\n",
        target_name.to_lowercase().replace('-', "_")
    );
    emit_storage(&mut s, program)?;
    let _ = writeln!(s);
    emit_step(&mut s, program)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_core::{extract_on_spec, lower_fixed, MachineProgram, PassCtx, SchedKind};
    use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions};
    use slpwlo_fixedpoint::FixedPointSpec;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_slp::BenefitKind;
    use slpwlo_targets::{xentium, CycleCache};

    fn program() -> MachineProgram {
        let src = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var t0;
    var t1;
    shiftin dl <- x;
    t0 = c[0] * dl[0] + c[1] * dl[1];
    t1 = c[2] * dl[2] + c[3] * dl[3];
    y = t0 + t1;
}
"#;
        // The WLO-First extraction over a frozen 16-bit spec: this test is
        // about C emission of vector programs, not about whether the
        // end-to-end flow's scheduler guard finds packing profitable on
        // this tiny kernel (it does not), so the flow layer is bypassed.
        let kernel = parse_kernel(src).unwrap();
        let target = xentium();
        let ranges = determine_ranges(&kernel, &RangeOptions::default());
        let spec = FixedPointSpec::from_ranges(&kernel, &ranges, 16);
        let costs = CycleCache::new(&target);
        let mut ctx = PassCtx::new(costs, BenefitKind::default(), SchedKind::List, false);
        let blocks = extract_on_spec(&kernel, &spec, &mut ctx);
        lower_fixed(&kernel, &spec, &target, &blocks)
    }

    #[test]
    fn emits_vector_macros() {
        let c = emit_simd_c(&program(), "XENTIUM").unwrap();
        assert!(c.contains("VMUL2("), "{c}");
        assert!(c.contains("VLOAD2("), "{c}");
        assert!(c.contains("#include \"slpwlo_simd_xentium.h\""), "{c}");
    }

    #[test]
    fn emits_complete_step_driver() {
        let c = emit_simd_c(&program(), "XENTIUM").unwrap();
        assert!(c.contains("void f_step(double x_in, double *y_out)"), "{c}");
        assert!(c.contains("*y_out = ldexp("), "{c}");
        assert!(c.contains("static"), "storage must be declared:\n{c}");
    }

    /// Every symbol the emitted code references is declared: virtual
    /// registers are defined before use and never redefined. The C
    /// emitters number registers positionally off the op list, so this
    /// SSA discipline is exactly the machine-program well-formedness
    /// `slpwlo_verify::verify_program` proves (operands strictly
    /// backwards, ordered by dependence paths, one definition per
    /// variable per block) — the old text-scanning checker that lived
    /// here is now that library pass.
    #[test]
    fn registers_are_ssa_like() {
        let p = program();
        slpwlo_verify::verify_program(&p, &xentium()).unwrap();
        // And the program is a real one, not a vacuous pass.
        assert!(p.blocks.iter().map(|b| b.ops.len()).sum::<usize>() >= 8);
    }

    #[test]
    fn scaling_immediates_are_explicit() {
        // Alignment shifts and saturation bounds appear as compile-time
        // immediates, never as undeclared `s<idx>`/`lane<idx>` symbols.
        let c = emit_simd_c(&program(), "XENTIUM").unwrap();
        for bad in ["addr", " s0)", "lane0"] {
            assert!(!c.contains(bad), "undeclared symbol `{bad}` in:\n{c}");
        }
    }
}
