//! Scalar fixed-point C emission.
//!
//! Renders the *scalar* lowered machine program as a self-contained,
//! compilable C99 translation unit: quantized coefficient tables, state
//! arrays and variables as integer storage at the specification's
//! container widths, a small well-defined shift/saturate runtime, and a
//! complete `<kernel>_step` driver whose arithmetic reproduces the
//! bit-accurate reference simulation exactly.

use crate::emit::{emit_step, emit_storage, RUNTIME_HELPERS};
use crate::error::CodegenError;
use slpwlo_core::MachineProgram;
use std::fmt::Write as _;

/// Emits the scalar fixed-point C implementation of a lowered program.
///
/// The program must be a fixed-point lowering (`lower_scalar` /
/// `lower_fixed`); floating-point lowerings carry no executable
/// semantics and yield [`CodegenError::Unsupported`].
pub fn emit_fixed_c(program: &MachineProgram) -> Result<String, CodegenError> {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "/* {} — fixed-point C generated by slpwlo */",
        program.name
    );
    let _ = writeln!(
        s,
        "/* bit-exact against the slpwlo fixed-point simulation */"
    );
    let _ = writeln!(s, "#include <stdint.h>");
    let _ = writeln!(s, "#include <math.h>\n");
    s.push_str(RUNTIME_HELPERS);
    let _ = writeln!(s);
    emit_storage(&mut s, program)?;
    let _ = writeln!(s);
    emit_step(&mut s, program)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_core::lower_scalar;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_fixedpoint::FixedPointSpec;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::xentium;

    const SRC: &str = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    fn emit(wl: i32) -> String {
        let k = parse_kernel(SRC).unwrap();
        let r = determine_ranges(&k);
        let spec = FixedPointSpec::from_ranges(&k, &r, wl);
        emit_fixed_c(&lower_scalar(&k, &spec, &xentium())).unwrap()
    }

    #[test]
    fn uses_container_types() {
        let c16 = emit(16);
        assert!(c16.contains("static int16_t dl[4];"), "{c16}");
        assert!(c16.contains("static const int16_t c[4]"), "{c16}");
        let c32 = emit(32);
        assert!(c32.contains("static int32_t dl[4];"), "{c32}");
    }

    #[test]
    fn quantizes_coefficients() {
        let c = emit(16);
        // c[0] = 0.4 at param format <0,16>: round(0.4 * 65536) = 26214.
        assert!(c.contains("26214"), "{c}");
    }

    #[test]
    fn emits_loop_structure_and_scalings() {
        let c = emit(16);
        assert!(c.contains("for (int i0 = 0; i0 < 4; i0++)"), "{c}");
        assert!(
            c.contains("slpwlo_shr("),
            "must contain scaling shifts:\n{c}"
        );
        assert!(c.contains("_step(double x_in, double *y_out)"), "{c}");
    }

    #[test]
    fn delay_line_shift_emitted() {
        let c = emit(16);
        assert!(c.contains("dl[k] = dl[k-1]"), "{c}");
        assert!(c.contains("dl[0] = (int16_t)"), "{c}");
    }

    #[test]
    fn no_raw_shift_operators_outside_the_runtime() {
        // `x << n` on negative values is UB and `x >> n` implementation-
        // defined: generated arithmetic must go through the helpers.
        // The runtime block itself uses unsigned shifts only.
        let c = emit(16);
        let body = c.split("_step(").nth(1).expect("step function present");
        assert!(!body.contains("<<"), "raw left shift in step body:\n{body}");
        assert!(
            !body.contains(">>"),
            "raw right shift in step body:\n{body}"
        );
    }

    #[test]
    fn int64_immediates_use_the_portable_macro() {
        // `{q}L` would silently truncate on LLP64 platforms where
        // `long` is 32 bits; immediates must go through INT64_C.
        let c = emit(16);
        assert!(c.contains("INT64_C("), "{c}");
        for line in c.lines() {
            if line.contains("slpwlo_sat(") || line.contains("INT64_C(") {
                assert!(
                    !line.trim_end().ends_with("L;"),
                    "suffix-L literal in: {line}"
                );
            }
        }
    }

    #[test]
    fn float_programs_are_rejected() {
        let k = parse_kernel(SRC).unwrap();
        let prog = slpwlo_core::lower_float(&k);
        let err = emit_fixed_c(&prog).unwrap_err();
        assert!(matches!(err, CodegenError::Unsupported(_)), "{err}");
    }

    #[test]
    fn invalid_word_length_is_reported_not_miscast() {
        // A non-positive storage width must surface as a structured
        // error instead of silently emitting int8_t.
        let k = parse_kernel(SRC).unwrap();
        let r = determine_ranges(&k);
        let mut spec = FixedPointSpec::from_ranges(&k, &r, 16);
        spec.set_format(
            slpwlo_fixedpoint::SpecKey::Array(slpwlo_ir::ArrayId(0)),
            slpwlo_fixedpoint::QFormat::new(1, -2),
        );
        let err = emit_fixed_c(&lower_scalar(&k, &spec, &xentium())).unwrap_err();
        assert!(
            matches!(err, CodegenError::InvalidWordLength { wl: -1, .. }),
            "{err}"
        );
    }
}
