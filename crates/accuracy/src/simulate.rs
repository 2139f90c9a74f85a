//! Bit-accurate fixed-point simulation.
//!
//! Executes a kernel under a [`FixedPointSpec`] exactly as the generated
//! fixed-point C code would: additions pre-align operands to the result
//! grid, multiplications compute the exact product then re-quantize,
//! stores quantize to the array storage grid, constants and coefficients
//! are rounded once at "compile time". Comparing against the
//! double-precision reference yields the measured output noise power used
//! to validate the analytical model.

use crate::{SIGNAL_OVERFLOW, SIGNAL_QUANTIZE};
use slpwlo_fixedpoint::quantize::{OverflowMode, QuantizeMode};
use slpwlo_fixedpoint::spec::{FixedPointSpec, SpecKey};
use slpwlo_fixedpoint::{FxValue, QFormat};
use slpwlo_ir::interp::{ExecCtx, Executor, FloatSem, Semantics};
use slpwlo_ir::types::{ArrayId, BinOp, ExprId, InputId, ParamId, UnOp};
use slpwlo_ir::Kernel;

/// Fixed-point value semantics driven by a [`FixedPointSpec`].
#[derive(Debug, Clone)]
pub struct FixedSem<'s> {
    spec: &'s FixedPointSpec,
}

impl<'s> FixedSem<'s> {
    /// Creates the semantics with the paper's signal path (truncation,
    /// saturation).
    pub fn new(spec: &'s FixedPointSpec) -> Self {
        FixedSem { spec }
    }

    fn fmt(&self, e: ExprId) -> QFormat {
        self.spec.format(SpecKey::Expr(e))
    }
}

impl Semantics for FixedSem<'_> {
    type Value = FxValue;

    fn zero(&mut self) -> FxValue {
        FxValue::zero(QFormat::new(1, 30))
    }

    fn constant(&mut self, _c: ExecCtx, e: ExprId, v: f64) -> FxValue {
        // Literals are rounded once at compile time.
        FxValue::from_f64(v, self.fmt(e), QuantizeMode::Round, SIGNAL_OVERFLOW)
    }

    fn input(&mut self, _c: ExecCtx, e: ExprId, _i: InputId, raw: f64) -> FxValue {
        FxValue::from_f64(raw, self.fmt(e), SIGNAL_QUANTIZE, SIGNAL_OVERFLOW)
    }

    fn param(&mut self, _c: ExecCtx, _e: ExprId, p: ParamId, _idx: i64, raw: f64) -> FxValue {
        // Coefficient tables are rounded once at compile time.
        let fmt = self.spec.format(SpecKey::Param(p));
        FxValue::from_f64(raw, fmt, QuantizeMode::Round, SIGNAL_OVERFLOW)
    }

    fn load(&mut self, _c: ExecCtx, _e: ExprId, stored: FxValue) -> FxValue {
        stored
    }

    fn un(&mut self, _c: ExecCtx, e: ExprId, op: UnOp, a: FxValue) -> FxValue {
        match op {
            UnOp::Neg => a.neg(self.fmt(e), SIGNAL_QUANTIZE, SIGNAL_OVERFLOW),
        }
    }

    fn bin(&mut self, _c: ExecCtx, e: ExprId, op: BinOp, a: FxValue, b: FxValue) -> FxValue {
        let out = self.fmt(e);
        match op {
            BinOp::Mul => a.mul(b, out, SIGNAL_QUANTIZE, SIGNAL_OVERFLOW),
            BinOp::Add | BinOp::Sub => {
                // Pre-align each operand to the result grid, keeping its
                // own integer bits (a narrow result IWL must clamp only
                // after the arithmetic). The integer width is capped so
                // the intermediate format stays within a 63-bit raw
                // container: the cap is bookkeeping only — values are
                // bounded by their (<= datapath-wide) producing formats
                // and can never reach it, but without the cap a spec
                // with a large IWL (scaling optimization trades FWL for
                // IWL) overflows the format's raw-bound computation.
                let pre_align =
                    |iwl: i32, fwl: i32| QFormat::new(iwl.clamp(1 - fwl, 62 - fwl), fwl);
                let aa = a.requantize(
                    pre_align(a.format().iwl, out.fwl),
                    SIGNAL_QUANTIZE,
                    OverflowMode::Saturate,
                );
                let bb = b.requantize(
                    pre_align(b.format().iwl, out.fwl),
                    SIGNAL_QUANTIZE,
                    OverflowMode::Saturate,
                );
                match op {
                    BinOp::Add => aa.add(bb, out, SIGNAL_QUANTIZE, SIGNAL_OVERFLOW),
                    BinOp::Sub => aa.sub(bb, out, SIGNAL_QUANTIZE, SIGNAL_OVERFLOW),
                    BinOp::Mul => unreachable!(),
                }
            }
        }
    }

    fn store(&mut self, array: ArrayId, v: FxValue) -> FxValue {
        v.requantize(
            self.spec.format(SpecKey::Array(array)),
            SIGNAL_QUANTIZE,
            SIGNAL_OVERFLOW,
        )
    }

    fn to_f64(&self, v: FxValue) -> f64 {
        v.to_f64()
    }
}

/// Runs the kernel in fixed point and returns `outputs[o][n]`.
pub fn simulate_fixed(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    inputs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    let mut ex = Executor::new(kernel, FixedSem::new(spec));
    ex.run(inputs)
}

/// Result of comparing fixed-point and floating-point runs.
#[derive(Debug, Clone, Copy)]
pub struct NoiseMeasurement {
    /// Mean squared output error (noise power, DC bias included).
    pub power: f64,
    /// `10·log10(power)`; `-inf` for a bit-exact run.
    pub db: f64,
    /// Largest absolute output error observed.
    pub max_abs_error: f64,
    /// Number of output samples compared.
    pub samples: usize,
}

/// Measures the output noise power of `spec` against the double-precision
/// reference on the given input streams.
pub fn measure_noise(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    inputs: &[Vec<f64>],
) -> NoiseMeasurement {
    let fixed = simulate_fixed(kernel, spec, inputs);
    let mut ex = Executor::new(kernel, FloatSem);
    let reference = ex.run(inputs);
    let mut sum2 = 0.0;
    let mut max_abs: f64 = 0.0;
    let mut n = 0usize;
    for (fx, fl) in fixed.iter().zip(&reference) {
        for (a, b) in fx.iter().zip(fl) {
            let e = a - b;
            sum2 += e * e;
            max_abs = max_abs.max(e.abs());
            n += 1;
        }
    }
    let power = if n == 0 { 0.0 } else { sum2 / n as f64 };
    let db = if power > 0.0 {
        10.0 * power.log10()
    } else {
        f64::NEG_INFINITY
    };
    NoiseMeasurement {
        power,
        db,
        max_abs_error: max_abs,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AccuracyEvaluator, AnalyticalEvaluator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_ir::parser::parse_kernel;

    const FIR8: &str = r#"
kernel fir8 {
    input x range [-1, 1];
    output y;
    param c[8] = { 0.11, -0.23, 0.31, 0.17, -0.05, 0.27, -0.13, 0.07 };
    array dl[8];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..8 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn setup(wl: i32) -> (Kernel, FixedPointSpec) {
        let k = parse_kernel(FIR8).unwrap();
        let r = determine_ranges(&k);
        let spec = FixedPointSpec::from_ranges(&k, &r, wl);
        (k, spec)
    }

    #[test]
    fn exact_inputs_are_bit_exact_at_32() {
        // Inputs on a coarse grid + exactly representable coefficients
        // produce zero error at 32 bits. The coefficients stay strictly
        // inside the positive format bound (a value exactly at `2^(iwl-1)`
        // would saturate by one ulp, Q-format's asymmetric range).
        let src = r#"
kernel ma {
    input x range [-1, 1];
    output y;
    array dl[2];
    shiftin dl <- x;
    y = 0.375 * dl[0] + 0.1875 * dl[1];
}
"#;
        let k = parse_kernel(src).unwrap();
        let r = determine_ranges(&k);
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let xs: Vec<f64> = (0..64).map(|i| ((i % 16) as f64 - 8.0) / 8.0).collect();
        let m = measure_noise(&k, &spec, &[xs]);
        assert_eq!(m.power, 0.0, "exact grid data must be bit-exact");
        assert!(m.db.is_infinite() && m.db < 0.0);
    }

    #[test]
    fn measured_noise_grows_as_wl_shrinks() {
        let xs = white_noise(2048, 7);
        let (k, s32) = setup(32);
        let (_, s16) = setup(16);
        let (_, s12) = setup(12);
        let m32 = measure_noise(&k, &s32, std::slice::from_ref(&xs));
        let m16 = measure_noise(&k, &s16, std::slice::from_ref(&xs));
        let m12 = measure_noise(&k, &s12, &[xs]);
        assert!(
            m32.db < m16.db && m16.db < m12.db,
            "{} {} {}",
            m32.db,
            m16.db,
            m12.db
        );
    }

    #[test]
    fn analytical_model_matches_simulation() {
        // The headline validation: predicted vs measured noise power
        // within a few dB across word lengths.
        let xs = white_noise(8192, 42);
        for wl in [12, 16, 20, 24] {
            let (k, spec) = setup(wl);
            let eval = AnalyticalEvaluator::new(&k);
            let predicted = eval.noise_db(&spec);
            let measured = measure_noise(&k, &spec, std::slice::from_ref(&xs)).db;
            let delta = (predicted - measured).abs();
            assert!(
                delta < 4.0,
                "wl={wl}: predicted {predicted:.2} dB vs measured {measured:.2} dB"
            );
        }
    }

    #[test]
    fn saturation_bounds_overflow() {
        // Force a tiny IWL and check outputs stay within format bounds.
        let (k, mut spec) = setup(16);
        // Shrink the accumulator format range: IWL 1 cannot hold sums > 1.
        for (id, node) in k.exprs() {
            if matches!(node, slpwlo_ir::ExprNode::Bin(BinOp::Add, _, _)) {
                spec.set_format(SpecKey::Expr(id), QFormat::new(1, 15));
            }
        }
        let xs = vec![1.0; 64];
        let out = simulate_fixed(&k, &spec, &[xs]);
        for &v in &out[0] {
            assert!(
                (-1.0..1.0).contains(&v),
                "saturated output {v} out of Q1.15 range"
            );
        }
    }

    #[test]
    fn truncation_biases_low() {
        // With truncation the mean error must be negative (DC bias).
        let xs = white_noise(4096, 3);
        let (k, spec) = setup(12);
        let fixed = simulate_fixed(&k, &spec, std::slice::from_ref(&xs));
        let mut ex = Executor::new(&k, FloatSem);
        let reference = ex.run(&[xs]);
        let mean: f64 = fixed[0]
            .iter()
            .zip(&reference[0])
            .map(|(a, b)| a - b)
            .sum::<f64>()
            / fixed[0].len() as f64;
        assert!(mean < 0.0, "truncation bias must be negative, got {mean}");
    }
}
