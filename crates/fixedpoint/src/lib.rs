//! Fixed-point arithmetic substrate for the `slpwlo` tool-chain.
//!
//! Provides everything float-to-fixed-point conversion needs below the
//! optimization algorithms themselves:
//!
//! * [`format::QFormat`] — `<IWL, FWL>` fixed-point formats (ID.Fix
//!   convention: the sign bit is counted inside the integer word length),
//! * [`value::FxValue`] — bit-accurate fixed-point scalars with
//!   truncation/rounding and wrap/saturate overflow handling,
//! * [`interval::Interval`] — interval arithmetic,
//! * [`range`] — dynamic-range determination over kernels (interval
//!   fix-point propagation with a simulation fallback for feedback
//!   systems), i.e. the paper's "IWL determination ... using interval
//!   arithmetic (any alternative method can be used instead)",
//! * [`quantize`] — quantization modes and their noise statistics,
//! * [`spec::FixedPointSpec`] — the fixed-point specification: one format
//!   per operation / array / parameter-table node, with transactional
//!   save/revert as required by the WLO algorithms.

pub mod format;
pub mod interval;
pub mod quantize;
pub mod range;
pub mod spec;
pub mod value;

pub use format::QFormat;
pub use interval::Interval;
pub use quantize::{noise_stats, OverflowMode, QuantizeMode};
pub use range::{determine_ranges, RangeMethod, Ranges};
pub use spec::{FixedPointSpec, SpecKey};
pub use value::FxValue;
