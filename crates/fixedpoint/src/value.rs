//! Bit-accurate fixed-point scalar values.

use crate::format::QFormat;
use crate::quantize::{OverflowMode, QuantizeMode};

/// A fixed-point value: a raw two's-complement integer plus its format.
///
/// All arithmetic is performed exactly on the raw integers (with `i128`
/// intermediates) and re-quantized explicitly, which is what the generated
/// fixed-point C code does with shifts and casts — this type *is* the
/// executable semantics of that code.
///
/// # Example
///
/// ```
/// use slpwlo_fixedpoint::{FxValue, QFormat};
/// use slpwlo_fixedpoint::quantize::{OverflowMode, QuantizeMode};
///
/// let q = QFormat::new(1, 15);
/// let a = FxValue::from_f64(0.5, q, QuantizeMode::Truncate, OverflowMode::Saturate);
/// let b = FxValue::from_f64(0.25, q, QuantizeMode::Truncate, OverflowMode::Saturate);
/// let sum = a.add(b, q, QuantizeMode::Truncate, OverflowMode::Saturate);
/// assert_eq!(sum.to_f64(), 0.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FxValue {
    raw: i64,
    fmt: QFormat,
}

impl FxValue {
    /// The zero value in the given format.
    pub fn zero(fmt: QFormat) -> Self {
        FxValue { raw: 0, fmt }
    }

    /// Quantizes a float into the format.
    pub fn from_f64(x: f64, fmt: QFormat, mode: QuantizeMode, ovf: OverflowMode) -> Self {
        let scaled = x * crate::format::pow2(fmt.fwl);
        let q = match mode {
            QuantizeMode::Truncate => scaled.floor(),
            QuantizeMode::Round => (scaled + 0.5).floor(),
        };
        let raw = clamp_raw(q as i128, fmt, ovf);
        FxValue { raw, fmt }
    }

    /// The raw integer.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The format.
    pub fn format(self) -> QFormat {
        self.fmt
    }

    /// The denoted real value `raw * 2^-fwl`.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * crate::format::pow2(-self.fmt.fwl)
    }

    /// Re-quantizes into another format (alignment shift plus
    /// truncation/rounding plus overflow handling) — the semantics of an
    /// explicit scaling operation in generated code.
    pub fn requantize(self, to: QFormat, mode: QuantizeMode, ovf: OverflowMode) -> Self {
        let raw = requantize_raw(self.raw as i128, self.fmt.fwl, to, mode, ovf);
        FxValue { raw, fmt: to }
    }

    /// Exact addition followed by re-quantization to `out`.
    pub fn add(self, rhs: FxValue, out: QFormat, mode: QuantizeMode, ovf: OverflowMode) -> Self {
        self.linear(rhs, out, mode, ovf, false)
    }

    /// Exact subtraction followed by re-quantization to `out`.
    pub fn sub(self, rhs: FxValue, out: QFormat, mode: QuantizeMode, ovf: OverflowMode) -> Self {
        self.linear(rhs, out, mode, ovf, true)
    }

    fn linear(
        self,
        rhs: FxValue,
        out: QFormat,
        mode: QuantizeMode,
        ovf: OverflowMode,
        negate: bool,
    ) -> Self {
        // Align both operands on the finer grid, add exactly, re-quantize.
        let f = self.fmt.fwl.max(rhs.fmt.fwl);
        let a = (self.raw as i128) << (f - self.fmt.fwl).max(0);
        let b = (rhs.raw as i128) << (f - rhs.fmt.fwl).max(0);
        let sum = if negate { a - b } else { a + b };
        let raw = requantize_raw(sum, f, out, mode, ovf);
        FxValue { raw, fmt: out }
    }

    /// Exact multiplication followed by re-quantization to `out`.
    pub fn mul(self, rhs: FxValue, out: QFormat, mode: QuantizeMode, ovf: OverflowMode) -> Self {
        let prod = self.raw as i128 * rhs.raw as i128; // grid 2^-(fa+fb)
        let raw = requantize_raw(prod, self.fmt.fwl + rhs.fmt.fwl, out, mode, ovf);
        FxValue { raw, fmt: out }
    }

    /// Exact negation followed by re-quantization to `out`.
    pub fn neg(self, out: QFormat, mode: QuantizeMode, ovf: OverflowMode) -> Self {
        let raw = requantize_raw(-(self.raw as i128), self.fmt.fwl, out, mode, ovf);
        FxValue { raw, fmt: out }
    }
}

/// Re-quantizes a raw value on grid `2^-from_fwl` to format `to`.
fn requantize_raw(
    raw: i128,
    from_fwl: i32,
    to: QFormat,
    mode: QuantizeMode,
    ovf: OverflowMode,
) -> i64 {
    let shift = from_fwl - to.fwl;
    let v = if shift > 0 {
        // Discarding bits: truncate (arithmetic right shift = floor) or
        // round (add half step first).
        let s = shift.min(126) as u32;
        match mode {
            QuantizeMode::Truncate => raw >> s,
            QuantizeMode::Round => (raw + (1i128 << (s - 1))) >> s,
        }
    } else {
        // Gaining bits: exact left shift.
        raw << ((-shift).min(126) as u32)
    };
    clamp_raw(v, to, ovf)
}

fn clamp_raw(v: i128, fmt: QFormat, ovf: OverflowMode) -> i64 {
    let max = fmt.max_raw() as i128;
    let min = fmt.min_raw() as i128;
    match ovf {
        OverflowMode::Saturate => v.clamp(min, max) as i64,
        OverflowMode::Wrap => {
            let span = max - min + 1;
            (((v - min).rem_euclid(span)) + min) as i64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: QuantizeMode = QuantizeMode::Truncate;
    const R: QuantizeMode = QuantizeMode::Round;
    const S: OverflowMode = OverflowMode::Saturate;
    const W: OverflowMode = OverflowMode::Wrap;

    #[test]
    fn roundtrip_exact_values() {
        let q = QFormat::new(1, 15);
        for &x in &[0.0, 0.5, -0.25, 0.75, -1.0] {
            let v = FxValue::from_f64(x, q, T, S);
            assert_eq!(v.to_f64(), x, "value {x} should be exact in Q1.15");
        }
    }

    #[test]
    fn truncation_floors() {
        let q = QFormat::new(1, 2); // step 0.25
        let v = FxValue::from_f64(0.3, q, T, S);
        assert_eq!(v.to_f64(), 0.25);
        let v = FxValue::from_f64(-0.3, q, T, S);
        assert_eq!(v.to_f64(), -0.5, "truncation floors toward -inf");
    }

    #[test]
    fn rounding_rounds_to_nearest() {
        let q = QFormat::new(1, 2);
        assert_eq!(FxValue::from_f64(0.3, q, R, S).to_f64(), 0.25);
        assert_eq!(FxValue::from_f64(0.4, q, R, S).to_f64(), 0.5);
        assert_eq!(FxValue::from_f64(-0.3, q, R, S).to_f64(), -0.25);
    }

    #[test]
    fn saturation_clamps() {
        let q = QFormat::new(1, 15);
        let v = FxValue::from_f64(1.0, q, T, S);
        assert_eq!(v.to_f64(), q.max_value());
        let v = FxValue::from_f64(-2.0, q, T, S);
        assert_eq!(v.to_f64(), -1.0);
    }

    #[test]
    fn wrap_wraps() {
        let q = QFormat::new(1, 3); // raws -8..7
        let v = FxValue::from_f64(1.125, q, T, W); // raw 9 -> wraps to -7
        assert_eq!(v.raw(), -7);
    }

    #[test]
    fn addition_with_alignment() {
        let qa = QFormat::new(1, 15);
        let qb = QFormat::new(2, 8);
        let out = QFormat::new(2, 12);
        let a = FxValue::from_f64(0.5, qa, T, S);
        let b = FxValue::from_f64(1.25, qb, T, S);
        let s = a.add(b, out, T, S);
        assert_eq!(s.to_f64(), 1.75);
    }

    #[test]
    fn multiplication_exact_then_quantized() {
        let q = QFormat::new(1, 15);
        let a = FxValue::from_f64(0.5, q, T, S);
        let b = FxValue::from_f64(-0.25, q, T, S);
        let out = QFormat::new(1, 15);
        let p = a.mul(b, out, T, S);
        assert_eq!(p.to_f64(), -0.125);
        // Full-precision output grid is 2^-30; quantizing to 2^-4 truncates.
        let coarse = QFormat::new(1, 4);
        let p = a.mul(b, coarse, T, S);
        assert_eq!(p.to_f64(), -0.125);
        let c = FxValue::from_f64(0.3, q, T, S);
        let p2 = c.mul(c, coarse, T, S); // 0.09 -> floor to 0.0625
        assert_eq!(p2.to_f64(), 0.0625);
    }

    #[test]
    fn negation() {
        let q = QFormat::new(1, 15);
        let a = FxValue::from_f64(0.5, q, T, S);
        assert_eq!(a.neg(q, T, S).to_f64(), -0.5);
        // Negating the minimum saturates.
        let m = FxValue::from_f64(-1.0, q, T, S);
        assert_eq!(m.neg(q, T, S).to_f64(), q.max_value());
    }

    #[test]
    fn requantize_matches_shift_semantics() {
        let fine = QFormat::new(1, 15);
        let coarse = QFormat::new(1, 7);
        let v = FxValue::from_f64(0.1234, fine, T, S);
        let r = v.requantize(coarse, T, S);
        let expected = ((v.raw() >> 8) as f64) * 2f64.powi(-7);
        assert_eq!(r.to_f64(), expected);
        // Re-quantizing to a finer grid is exact.
        let back = r.requantize(fine, T, S);
        assert_eq!(back.to_f64(), r.to_f64());
    }

    #[test]
    fn truncation_error_bounded_by_step() {
        let q = QFormat::new(1, 12);
        let mut x = -0.999;
        while x < 1.0 {
            let v = FxValue::from_f64(x, q, T, S);
            let e = v.to_f64() - x;
            assert!(e <= 0.0 && e > -q.step() - 1e-15, "error {e} at {x}");
            x += 0.0137;
        }
    }
}
