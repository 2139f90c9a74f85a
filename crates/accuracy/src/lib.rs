//! Accuracy evaluation for fixed-point specifications.
//!
//! Implements the role ID.Fix plays in the paper's flow: an **analytical
//! expression of the system's output noise power as a function of the
//! fixed-point specification** (Menard & Sentieys, DATE 2002), used by the
//! WLO algorithms as their `EVALACC` oracle, plus a **bit-accurate
//! fixed-point simulator** used to validate the analytical model and to
//! measure real SQNR.
//!
//! # Model
//!
//! Every operation instance that discards fractional bits injects a
//! quantization error with known mean and variance
//! ([`slpwlo_fixedpoint::noise_stats`]). For linear time-invariant kernels
//! (all the paper's benchmarks), each error propagates to the output
//! through a fixed impulse response `h`; the output noise power is
//!
//! ```text
//! P = (Σ_src mean_src · G1_src)² + Σ_src var_src · G2_src
//! G1 = Σ h[m]      (DC gain, coherent accumulation of the bias)
//! G2 = Σ h[m]²     (energy gain, incoherent accumulation of the variance)
//! ```
//!
//! `G1`/`G2` are measured **exactly** by injecting unit impulses at every
//! execution instance of every potential noise source and running the
//! floating-point reference ([`gains`]) — no closed-form transfer functions
//! are required, so arbitrary loop structures work. The measurement is done
//! once per kernel; each `EVALACC` afterwards is a cheap dot product, which
//! is what makes the thousands of accuracy queries issued by the joint
//! WLO/SLP algorithms affordable.

pub mod gains;
pub mod incremental;
pub mod model;
pub mod simulate;

pub use gains::{GainOptions, NoiseGains};
pub use incremental::IncrementalEvaluator;
pub use model::{AccuracyEvaluator, AnalyticalEvaluator, EvalOptions};
pub use simulate::{measure_noise, simulate_fixed, NoiseMeasurement};

use slpwlo_fixedpoint::quantize::{OverflowMode, QuantizeMode};

/// Quantization mode of the signal path, in the analytical model and the
/// bit-accurate simulator alike: the paper assumes truncation.
const SIGNAL_QUANTIZE: QuantizeMode = QuantizeMode::Truncate;

/// Overflow handling of the bit-accurate simulator's signal path.
const SIGNAL_OVERFLOW: OverflowMode = OverflowMode::Saturate;
