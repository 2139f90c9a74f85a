//! The paper's contribution: **SLP-aware word-length optimization**.
//!
//! Reproduces the algorithms of El Moussawi & Derrien, *"Superword Level
//! Parallelism aware Word Length Optimization"* (DATE 2017):
//!
//! * [`wlo_slp_sched`] — the joint SLP-aware WLO driver (fig. 1a): nodes
//!   start at the target's maximum word length, basic blocks are visited in
//!   priority order, and the accuracy-aware SLP extraction shrinks exactly
//!   the operations it manages to pack;
//! * [`hooks`] — the accuracy-aware SLP extraction policy (fig. 1c):
//!   candidates that cannot meet the noise budget are eliminated,
//!   candidates that cannot *coexist* within it become conflicts, and
//!   `SETMAXWL` (equation (1)) fires on every selection;
//! * [`scalopt`] — SLP-aware scaling optimization (fig. 1b): equalizes
//!   per-lane scaling amounts inside reused superwords by trading FWL for
//!   IWL, so scalings vectorize instead of forcing unpack/shift/repack;
//! * [`tabu`] — the Tabu-search WLO of Nguyen (EUSIPCO 2011) with the
//!   Menard-style word-length-proportional cost model: the WLO used by the
//!   **`WLO-First`** baseline flow the paper compares against;
//! * [`lower`] — lowering of (kernel, fixed-point spec, SIMD groups) to a
//!   machine program with explicit scalings, packs/unpacks and vector
//!   operations, consumed by the `slpwlo-sim` cycle model and the C
//!   back-ends;
//! * [`flow`] — the end-to-end `WLO-SLP` and `WLO-First` compilation
//!   flows (figures 3 and 5 of the paper).

pub mod flow;
pub mod hooks;
pub mod lower;
pub mod nodes;
pub mod scalopt;
pub mod sched;
pub mod tabu;
pub mod wlo_slp;

pub use flow::{
    extract_on_spec, prepare, wlo_first_flow_checked, wlo_slp_flow_checked, FlowResult,
    PassArtifact, Prepared, ProgramRole,
};
pub use hooks::AccuracyHooks;
pub use lower::{
    block_result_fmts, broadcast_lane, ix_bounds, loop_forest, lower_fixed, lower_float,
    lower_scalar, operand_fmts, product_fmt, result_fmt, ArrayDecl, Loc, LoopNest, MachineBlock,
    MachineProgram, Mop, MopKind, Operand, ParamDecl, ProgramStorage, VarDecl,
};
pub use scalopt::scaling_optimize;
pub use sched::{
    loop_carried_deps, modulo_attempt_cached, modulo_bounds, schedule_block, total_cycles_cached,
    BlockPrices, ModuloAttempt, ModuloSchedule, Schedule,
};
pub use slpwlo_slp::{BenefitKind, PassCtx, SelectStats};
pub use slpwlo_targets::SchedKind;
pub use tabu::{tabu_wlo, TabuOptions};
pub use wlo_slp::{wlo_slp_sched, BlockResult, WloSlpResult};
