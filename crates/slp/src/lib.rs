//! Superword level parallelism (SLP) extraction substrate.
//!
//! Implements the structural machinery of the Liu et al. (PLDI 2012)-style
//! SLP extraction the paper builds on:
//!
//! * SIMD group **candidates**: pairs of isomorphic, independent items
//!   (scalar operations in the first round, previously selected groups in
//!   extension rounds — "the group selection is repeated ... as long as
//!   groups size is supported");
//! * **conflicts**: two candidates sharing an operation or linked by a
//!   cyclic dependency can never both be realised;
//! * **benefit** estimation: superword reuse enabled by a candidate versus
//!   the packing/unpacking cost it incurs;
//! * the iterative **selection loop**, which reads one flow leg's
//!   [`PassCtx`] (target, price cache, benefit kind, scheduler,
//!   equalization flag, accumulated [`SelectStats`]) and calls one
//!   [`SelectHooks`] policy, which screens candidates, answers the
//!   non-structural conflicts and holds the word lengths candidates are
//!   priced at. `slpwlo-core`'s accuracy hooks inject the paper's
//!   accuracy-awareness through it (candidate validation, accuracy
//!   conflicts, `SETMAXWL` on selection);
//! * an **exact per-round selector** ([`BenefitKind::Optimal`], module
//!   [`optimal`]): branch-and-bound over the cycle prices with a greedy
//!   incumbent and deterministic budget fallback;
//! * the frozen-word-length policy [`FrozenWls`]: plain accuracy-*unaware*
//!   extraction, used by the `WLO-First` baseline flow.

pub mod benefit;
pub mod candidate;
pub mod conflict;
pub mod ctx;
pub mod group;
pub mod optimal;
pub mod select;

pub use benefit::{BenefitKind, BenefitModel, CostedBenefit};
pub use candidate::{Candidate, CandidateView, Round};
pub use ctx::PassCtx;
pub use group::{
    closes_cycle, effective_users, fully_independent, mem_status, resolve_producer,
    resolved_operands, MemStatus, SimdGroup,
};
pub use optimal::{exhaustive_best, set_value, SelectStats, EXHAUSTIVE_LIMIT};
#[cfg(test)]
pub use select::NoHooks;
pub use select::{absorb_selected, extract_rounds, run_selection, FrozenWls, SelectHooks};
