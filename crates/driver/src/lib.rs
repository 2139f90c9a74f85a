//! Unified driver API for the `slpwlo` tool-chain.
//!
//! This crate is the public face of the workspace: a builder-pattern
//! [`Optimizer`] that runs any registered [`CompilationFlow`] — the
//! paper's joint `WLO-SLP` flow, the `WLO-First` baseline, or the
//! floating-point original — on a kernel and returns a unified
//! [`Report`] (fixed-point specification, SIMD and scalar machine
//! programs, cycle counts, speedups, predicted noise).
//!
//! ```
//! use slpwlo_driver::{FlowKind, Optimizer};
//! use slpwlo_targets::xentium;
//!
//! let report = Optimizer::for_source(
//!     "kernel k { input x range [-1, 1]; output y; var t; t = 0.5 * x; y = t; }",
//! )?
//! .target(xentium())
//! .constraint_db(-50.0)
//! .flow(FlowKind::WloSlp)
//! .run()?;
//! println!("{}", report.summary());
//! # Ok::<(), slpwlo_driver::Error>(())
//! ```
//!
//! Every fallible user-input path — parsing, kernel validation, range
//! sanity, builder configuration, constraint feasibility, C export —
//! returns a structured [`Error`] instead of panicking. Constraint
//! sweeps ([`Optimizer::sweep`]) amortize the expensive once-per-kernel
//! analyses across points, which is how the paper's Fig. 4/6 grids are
//! produced.

pub mod error;
pub mod flow;
pub mod optimizer;
pub mod report;

pub use error::Error;
pub use flow::{required_constraint, CompilationFlow, FlowContext, FlowKind, FlowOutput};
pub use optimizer::Optimizer;
pub use report::{ExportedC, Report};
pub use slpwlo_core::{BenefitKind, SelectStats};
pub use slpwlo_verify::{VerifyError, VerifyLevel};
