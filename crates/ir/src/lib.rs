//! Kernel intermediate representation for the `slpwlo` tool-chain.
//!
//! This crate provides the compiler substrate on which the SLP-aware
//! word-length optimization of El Moussawi & Derrien (DATE 2017) operates.
//! The original work is implemented inside the GeCoS source-to-source C
//! framework; since no such pass ecosystem exists in Rust, this crate builds
//! the required pieces from scratch:
//!
//! * a structured **kernel IR** ([`Kernel`]): scalar variables, constant
//!   parameter tables, state arrays (delay lines / line buffers), counted
//!   loops with affine array indexing, and per-activation inputs/outputs
//!   annotated with value ranges (the "pragma annotations" of the paper),
//! * a **builder API** ([`builder::KernelBuilder`]) and a small textual
//!   **kernel DSL** ([`parser::parse_kernel`]) front-end,
//! * a **loop unrolling** pass ([`unroll`]) used to expose superword level
//!   parallelism exactly as the paper does (FIR/IIR inner loops unrolled by
//!   4, 3x3 convolution fully unrolled),
//! * per-basic-block **data-flow graphs** ([`dfg::Dfg`]) with dependence and
//!   reachability queries — the structure consumed by SLP extraction,
//! * a generic **interpreter** ([`interp`]) over pluggable value semantics,
//!   used both as the floating-point reference and as the engine for
//!   quantization-noise gain analysis and bit-accurate fixed-point
//!   simulation.
//!
//! # Example
//!
//! ```
//! use slpwlo_ir::builder::KernelBuilder;
//!
//! // y[n] = 0.5 * x[n] + 0.25 * x[n-1]
//! let mut b = KernelBuilder::new("tiny_fir");
//! let x = b.input("x", -1.0, 1.0);
//! let y = b.output("y");
//! let line = b.array("line", 2);
//! let xv = b.read_input(x);
//! b.shift_in(line, xv);
//! let c0 = b.constf(0.5);
//! let l0 = b.load(line, 0);
//! let t0 = b.mul(c0, l0);
//! let c1 = b.constf(0.25);
//! let l1 = b.load(line, 1);
//! let t1 = b.mul(c1, l1);
//! let sum = b.add(t0, t1);
//! b.set_output(y, sum);
//! let kernel = b.finish();
//! assert_eq!(kernel.name(), "tiny_fir");
//! ```

pub mod blocks;
pub mod builder;
pub mod cone;
pub mod dfg;
pub mod error;
pub mod interp;
pub mod kernel;
pub mod parser;
pub mod pretty;
pub mod types;
pub mod unroll;

pub use blocks::{Block, BlockId};
pub use builder::KernelBuilder;
pub use cone::ConeIndex;
pub use dfg::{Dfg, DfgNode, NodeId, NodeKind};
pub use error::IrError;
pub use interp::{ExecCtx, Executor, FloatSem, Semantics};
pub use kernel::{Array, ExprNode, Input, Kernel, Output, Param, Stmt, Var};
pub use types::{ArrayId, BinOp, ExprId, IndexExpr, InputId, LoopId, ParamId, UnOp, VarId};
