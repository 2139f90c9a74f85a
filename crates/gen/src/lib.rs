//! Seeded random kernel generation for whole-pipeline differential
//! fuzzing.
//!
//! The paper's evaluation exercises exactly three kernels; trusting the
//! reproduction on *arbitrary* programs needs the standard synthesizing-
//! superoptimizer recipe (Souper, Csmith): generate random well-formed
//! programs from a seed, run every layer of the pipeline differentially,
//! and shrink any failure to a minimal reproducer. This crate provides
//! the three pieces:
//!
//! * [`Plan`] — a shrinkable *recipe* for a kernel (declarations plus a
//!   statement/expression tree), buildable into a validated
//!   [`slpwlo_ir::Kernel`] via [`Plan::build`]. The generator and the
//!   shrinker both operate on plans, never on raw arena kernels, so
//!   every intermediate candidate rebuilds through the ordinary
//!   [`KernelBuilder`](slpwlo_ir::builder::KernelBuilder) + validation
//!   path;
//! * [`KernelGen`] — the deterministic seeded generator:
//!   `KernelGen::with_seed(seed).gen()` emits a well-formed kernel with
//!   configurable shape ([`GenConfig`]): arbitrary DAGs of add/sub/mul
//!   over live-in streams and quantized constants, FIR-like delay lines,
//!   contractive IIR-like feedback, loop nests with partial/full
//!   unrolling, fan-out through variables, and dead-code-free outputs
//!   (every computed value reaches some output);
//! * [`shrink()`] — greedy bisection of a failing plan to a minimal plan
//!   that still fails the caller's predicate.
//!
//! Determinism is total: the same seed yields the same kernel on every
//! platform (the workspace's in-tree `rand` stand-in is deterministic by
//! construction), so a failing fuzz seed printed by CI reproduces
//! locally with no corpus files to ship.

pub mod config;
pub mod generate;
pub mod plan;
pub mod shrink;

pub use config::GenConfig;
pub use generate::KernelGen;
pub use plan::{PExpr, PStmt, Plan};
pub use shrink::shrink;
