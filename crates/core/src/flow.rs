//! End-to-end compilation flows: `WLO-SLP` (fig. 3) vs `WLO-First`
//! (fig. 5).
//!
//! Both flows share the front half of the paper's tool-chain — range
//! analysis, IWL determination, the analytical accuracy model — and the
//! back half — scaling insertion, lowering. They differ exactly where the
//! paper differs:
//!
//! * **`WLO-SLP`** (this paper): joint accuracy-aware SLP extraction and
//!   word-length optimization plus scaling optimization;
//! * **`WLO-First`** (baseline): Tabu-search WLO under the optimistic
//!   word-length-proportional cost model, followed by plain
//!   accuracy-unaware SLP extraction on the frozen specification.

use crate::lower::{lower_fixed, lower_scalar, MachineProgram};
use crate::nodes::{value_format, value_wl};
use crate::tabu::{tabu_wlo, TabuOptions};
use crate::wlo_slp::wlo_slp_sched;
use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator, EvalOptions, IncrementalEvaluator};
use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions, Ranges};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::blocks::collect_blocks;
use slpwlo_ir::dfg::{Dfg, NodeId};
use slpwlo_ir::Kernel;
use slpwlo_slp::{extract_rounds_stats, BenefitKind, CandidateView, SelectHooks, SelectStats};
use slpwlo_targets::{SchedKind, TargetModel};

/// A kernel with its once-per-kernel analyses (ranges, noise gains).
///
/// Constraint sweeps reuse one `Prepared` so the expensive gain
/// measurement runs once.
#[derive(Debug)]
pub struct Prepared {
    /// The kernel under optimization.
    pub kernel: Kernel,
    /// Value ranges of every node.
    pub ranges: Ranges,
    /// The analytical accuracy evaluator (`EVALACC`).
    pub eval: AnalyticalEvaluator,
}

/// Runs the shared front end: range analysis and accuracy-model
/// construction under default [`RangeOptions`] and [`EvalOptions`].
pub fn prepare(kernel: Kernel) -> Prepared {
    let ranges = determine_ranges(&kernel, &RangeOptions::default());
    let eval = AnalyticalEvaluator::new(&kernel, &EvalOptions::default());
    Prepared {
        kernel,
        ranges,
        eval,
    }
}

/// Plain (accuracy-unaware) SLP extraction over a frozen specification,
/// block by block — the `WLO-First` back half's extraction. The spec
/// supplies word lengths for candidate validation *and* the full format
/// context (`current_wl`/`current_fwl`) the cycle-priced benefit model
/// reads; no scaling equalization follows, so mismatched scalings keep
/// their fig. 2 price. `sched` is the scheduler the candidates are priced
/// under (the benefit model relaxes its latency hedge when iterations
/// will overlap); the exact selector's search statistics accumulate into
/// `stats` (untouched under the greedy kinds).
pub fn extract_on_spec_stats(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    target: &TargetModel,
    benefit: BenefitKind,
    sched: SchedKind,
    stats: &mut SelectStats,
) -> Vec<(slpwlo_ir::blocks::Block, Dfg, Vec<slpwlo_slp::SimdGroup>)> {
    struct FrozenSpecHooks<'a> {
        target: &'a TargetModel,
        spec: &'a FixedPointSpec,
        dfg: &'a Dfg,
        sched: SchedKind,
    }
    impl SelectHooks for FrozenSpecHooks<'_> {
        fn validate(&mut self, view: &CandidateView) -> bool {
            view.group.elems.iter().all(|&e| {
                match self.target.container_wl(value_wl(self.spec, self.dfg, e)) {
                    Some(c) => c <= view.elem_wl,
                    None => false,
                }
            })
        }
        fn current_wl(&self, node: NodeId) -> Option<i32> {
            Some(value_wl(self.spec, self.dfg, node))
        }
        fn current_fwl(&self, node: NodeId) -> Option<i32> {
            Some(value_format(self.spec, self.dfg, node).fwl)
        }
        fn sched_kind(&self) -> SchedKind {
            self.sched
        }
    }
    collect_blocks(kernel)
        .into_iter()
        .map(|b| {
            let dfg = Dfg::from_block(kernel, &b);
            let groups = {
                let mut hooks = FrozenSpecHooks {
                    target,
                    spec,
                    dfg: &dfg,
                    sched,
                };
                extract_rounds_stats(&dfg, target, &mut hooks, benefit, stats)
            };
            (b, dfg, groups)
        })
        .collect()
}

/// Why one pass handed this program to the boundary callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramRole {
    /// The final vectorized program of the flow.
    Simd,
    /// The final all-scalar program under the same specification.
    Scalar,
    /// An intermediate lowering the scheduler guard only prices
    /// (verified only at paranoid levels).
    Candidate,
}

/// One artifact crossing a pass boundary inside a flow.
///
/// The flows hand *every* artifact they produce to the boundary
/// callback of [`wlo_slp_flow_checked`] / [`wlo_first_flow_checked`];
/// the callback (typically `slpwlo-verify`'s `verify_boundary`) decides
/// what to do with each. `is_final` distinguishes the artifact a pass
/// commits to from intermediate states worth checking only under
/// paranoid verification.
#[derive(Debug)]
pub enum PassArtifact<'a> {
    /// The kernel entering the flow.
    Kernel {
        /// The kernel.
        kernel: &'a Kernel,
    },
    /// A fixed-point specification with the ranges it must cover.
    Spec {
        /// The kernel the spec formats.
        kernel: &'a Kernel,
        /// The value ranges the spec was derived from.
        ranges: &'a Ranges,
        /// The specification.
        spec: &'a FixedPointSpec,
        /// `false` for the pre-optimization seed spec.
        is_final: bool,
    },
    /// An SLP grouping for one block.
    Groups {
        /// The block's data-flow graph.
        dfg: &'a Dfg,
        /// The selected groups.
        groups: &'a [slpwlo_slp::SimdGroup],
        /// The target the grouping must be realisable on.
        target: &'a TargetModel,
        /// Which block the grouping belongs to.
        block: slpwlo_ir::BlockId,
        /// `false` before the scheduler guard prunes losing packs.
        is_final: bool,
    },
    /// A lowered machine program.
    Program {
        /// The program.
        program: &'a MachineProgram,
        /// The target it is scheduled against.
        target: &'a TargetModel,
        /// Why the flow produced it.
        role: ProgramRole,
        /// The scheduler the flow prices (and will run) the program
        /// under — the verifier audits the matching schedule kind.
        sched: SchedKind,
    },
}

/// The scheduler guard: the benefit model is a per-candidate estimate;
/// the configured scheduler (`sched`) is the arbiter. Every block's
/// selected groups are kept only if the block's vectorized form
/// actually schedules faster than dropping them under the final
/// specification — otherwise the word-length decisions stand (the spec
/// is untouched) but the packs are discarded. Blocks schedule
/// independently, so the per-block greedy is exact; the returned
/// program is the cheapest keep/drop assignment and never slower than
/// the all-scalar lowering of the same spec.
fn prune_unprofitable_groups<E>(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    target: &TargetModel,
    sched: SchedKind,
    blocks: &mut [(slpwlo_ir::blocks::Block, Dfg, Vec<slpwlo_slp::SimdGroup>)],
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<MachineProgram, E> {
    use crate::sched::block_activation_cycles_cached;
    use slpwlo_targets::CycleCache;
    fn candidate<'a>(
        p: &'a MachineProgram,
        target: &'a TargetModel,
        sched: SchedKind,
    ) -> PassArtifact<'a> {
        PassArtifact::Program {
            program: p,
            target,
            role: ProgramRole::Candidate,
            sched,
        }
    }
    // Sorting into document order aligns this list positionally with
    // the lowered program's blocks (lowering emits document order
    // regardless of the input's visit order), so the vectorized and
    // group-free lowerings can be compared block by block — three
    // whole-program lowerings in total, not one per block.
    blocks.sort_by_key(|(b, _, _)| b.id.0);
    let full = lower_fixed(kernel, spec, target, blocks);
    assert_eq!(
        full.blocks.len(),
        blocks.len(),
        "lowering must emit one machine block per source block"
    );
    check(candidate(&full, target, sched))?;
    if blocks.iter().all(|(_, _, g)| g.is_empty()) {
        return Ok(full);
    }
    let bare: Vec<_> = blocks
        .iter()
        .map(|(b, dfg, _)| (b.clone(), dfg.clone(), Vec::new()))
        .collect();
    let none = lower_fixed(kernel, spec, target, &bare);
    check(candidate(&none, target, sched))?;
    // One price cache for every keep/drop comparison: both lowerings of
    // every block draw from the same small set of op queries.
    let costs = CycleCache::new(target);
    let mut pruned = false;
    for (i, (_, _, groups)) in blocks.iter_mut().enumerate() {
        if groups.is_empty() {
            continue;
        }
        // Drop the block's groups only when doing so strictly improves
        // its schedule (ties keep the vector form). Trip-weighted
        // activation cycles, so pipelined steady states are compared on
        // the same footing as sequential iteration costs.
        if block_activation_cycles_cached(&costs, &none.blocks[i], sched)
            < block_activation_cycles_cached(&costs, &full.blocks[i], sched)
        {
            groups.clear();
            pruned = true;
        }
    }
    if !pruned {
        return Ok(full);
    }
    if blocks.iter().all(|(_, _, g)| g.is_empty()) {
        return Ok(none);
    }
    Ok(lower_fixed(kernel, spec, target, blocks))
}

/// Outcome of one flow on one kernel/target/constraint point.
#[derive(Debug)]
pub struct FlowResult {
    /// The final fixed-point specification.
    pub spec: FixedPointSpec,
    /// Lowered SIMD program.
    pub simd: MachineProgram,
    /// Lowered all-scalar program under the same specification.
    pub scalar: MachineProgram,
    /// Number of SIMD groups selected.
    pub group_count: usize,
    /// Predicted output noise power of the final spec (dB).
    pub noise_db: f64,
    /// Exact-selector search statistics (all zeros under the greedy
    /// kinds). Under [`BenefitKind::Optimal`] these always describe the
    /// exact leg's search, even when portfolio arbitration returns the
    /// greedy leg's program.
    pub select: SelectStats,
}

/// Portfolio arbitration for [`BenefitKind::Optimal`]: per-round
/// model-value optimality does not by itself bound the *final* scheduled
/// cycle count (rounds interact through `SETMAXWL`, and the scheduler
/// guard re-prices whole blocks), so the flow also runs the greedy
/// cycle-priced leg end to end and returns whichever program schedules
/// faster — ties go to the exact leg, keeping budget-0 runs bitwise
/// identical to greedy. A greedy win bumps `select.portfolio_fallbacks`;
/// the exact leg's search statistics are carried either way.
fn arbitrate_portfolio<E>(
    exact: FlowResult,
    benefit: BenefitKind,
    target: &TargetModel,
    sched: SchedKind,
    greedy_leg: &mut dyn FnMut(BenefitKind) -> Result<FlowResult, E>,
) -> Result<FlowResult, E> {
    if !matches!(benefit, BenefitKind::Optimal { .. }) {
        return Ok(exact);
    }
    let greedy = greedy_leg(BenefitKind::Cycles)?;
    let costs = slpwlo_targets::CycleCache::new(target);
    let exact_cycles = crate::sched::cycles_per_activation_cached(&costs, &exact.simd, sched);
    let greedy_cycles = crate::sched::cycles_per_activation_cached(&costs, &greedy.simd, sched);
    if greedy_cycles < exact_cycles {
        let mut select = exact.select;
        select.portfolio_fallbacks += 1;
        Ok(FlowResult { select, ..greedy })
    } else {
        Ok(exact)
    }
}

/// The paper's joint flow (`WLO-SLP`, fig. 3).
///
/// The search runs over an [`IncrementalEvaluator`] layered on the
/// prepared analytical model, so each accuracy trial re-walks only the
/// touched noise sources; final reporting still uses the full evaluator.
///
/// `benefit` is the SLP candidate-pricing strategy and `sched` the
/// scheduler kind, which governs both the benefit model's admission
/// hedge and the scheduler-guard pricing. Every artifact the flow
/// produces — the kernel, the optimized spec, each block's grouping
/// before and after the scheduler guard, candidate lowerings and the
/// final SIMD/scalar programs — is handed to the pass-boundary callback
/// `check` before the flow proceeds. An `Err` aborts the flow and
/// surfaces unchanged; instantiate `E` as [`std::convert::Infallible`]
/// for a free no-op.
///
/// Under [`BenefitKind::Optimal`] the flow runs twice — the exact leg
/// and the greedy cycle-priced leg — and the faster-scheduling program
/// wins (ties to the exact leg), so the exact kind never returns a
/// program slower than greedy's; `check` sees both legs' artifacts.
pub fn wlo_slp_flow_checked<E>(
    prep: &Prepared,
    target: &TargetModel,
    constraint_db: f64,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<FlowResult, E> {
    let exact = wlo_slp_flow_once(prep, target, constraint_db, benefit, sched, check)?;
    arbitrate_portfolio(exact, benefit, target, sched, &mut |kind| {
        wlo_slp_flow_once(prep, target, constraint_db, kind, sched, check)
    })
}

fn wlo_slp_flow_once<E>(
    prep: &Prepared,
    target: &TargetModel,
    constraint_db: f64,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<FlowResult, E> {
    check(PassArtifact::Kernel {
        kernel: &prep.kernel,
    })?;
    let eval = IncrementalEvaluator::new(&prep.eval);
    let res = wlo_slp_sched(
        &prep.kernel,
        target,
        &eval,
        constraint_db,
        &prep.ranges,
        benefit,
        sched,
    );
    check(PassArtifact::Spec {
        kernel: &prep.kernel,
        ranges: &prep.ranges,
        spec: &res.spec,
        is_final: true,
    })?;
    let mut blocks: Vec<_> = res
        .blocks
        .into_iter()
        .map(|b| (b.block, b.dfg, b.groups))
        .collect();
    for (b, dfg, groups) in &blocks {
        check(PassArtifact::Groups {
            dfg,
            groups,
            target,
            block: b.id,
            is_final: false,
        })?;
    }
    let simd =
        prune_unprofitable_groups(&prep.kernel, &res.spec, target, sched, &mut blocks, check)?;
    for (b, dfg, groups) in &blocks {
        check(PassArtifact::Groups {
            dfg,
            groups,
            target,
            block: b.id,
            is_final: true,
        })?;
    }
    check(PassArtifact::Program {
        program: &simd,
        target,
        role: ProgramRole::Simd,
        sched,
    })?;
    let group_count = blocks.iter().map(|(_, _, g)| g.len()).sum();
    let scalar = lower_scalar(&prep.kernel, &res.spec, target);
    check(PassArtifact::Program {
        program: &scalar,
        target,
        role: ProgramRole::Scalar,
        sched,
    })?;
    let noise_db = prep.eval.noise_db(&res.spec);
    Ok(FlowResult {
        spec: res.spec,
        simd,
        scalar,
        group_count,
        noise_db,
        select: res.select,
    })
}

/// The baseline flow (`WLO-First`, fig. 5): Tabu WLO first, SLP second,
/// no accuracy awareness in the extraction and no scaling optimization.
/// The frozen Tabu specification is the word-length context of the
/// cycle-priced benefit model. See [`wlo_slp_flow_checked`] for the
/// `benefit`/`sched`/`check` contract (including the two-leg portfolio
/// under [`BenefitKind::Optimal`]). The pre-Tabu seed specification is
/// reported with `is_final: false`.
pub fn wlo_first_flow_checked<E>(
    prep: &Prepared,
    target: &TargetModel,
    constraint_db: f64,
    tabu: &TabuOptions,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<FlowResult, E> {
    let exact = wlo_first_flow_once(prep, target, constraint_db, tabu, benefit, sched, check)?;
    arbitrate_portfolio(exact, benefit, target, sched, &mut |kind| {
        wlo_first_flow_once(prep, target, constraint_db, tabu, kind, sched, check)
    })
}

fn wlo_first_flow_once<E>(
    prep: &Prepared,
    target: &TargetModel,
    constraint_db: f64,
    tabu: &TabuOptions,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<FlowResult, E> {
    check(PassArtifact::Kernel {
        kernel: &prep.kernel,
    })?;
    let mut spec = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
    check(PassArtifact::Spec {
        kernel: &prep.kernel,
        ranges: &prep.ranges,
        spec: &spec,
        is_final: false,
    })?;
    let eval = IncrementalEvaluator::new(&prep.eval);
    tabu_wlo(
        &prep.kernel,
        &mut spec,
        &eval,
        constraint_db,
        &target.scalar_wls,
        tabu,
    );
    check(PassArtifact::Spec {
        kernel: &prep.kernel,
        ranges: &prep.ranges,
        spec: &spec,
        is_final: true,
    })?;
    let mut select = SelectStats::default();
    let mut blocks =
        extract_on_spec_stats(&prep.kernel, &spec, target, benefit, sched, &mut select);
    for (b, dfg, groups) in &blocks {
        check(PassArtifact::Groups {
            dfg,
            groups,
            target,
            block: b.id,
            is_final: false,
        })?;
    }
    let simd = prune_unprofitable_groups(&prep.kernel, &spec, target, sched, &mut blocks, check)?;
    for (b, dfg, groups) in &blocks {
        check(PassArtifact::Groups {
            dfg,
            groups,
            target,
            block: b.id,
            is_final: true,
        })?;
    }
    check(PassArtifact::Program {
        program: &simd,
        target,
        role: ProgramRole::Simd,
        sched,
    })?;
    let group_count = blocks.iter().map(|(_, _, g)| g.len()).sum();
    let scalar = lower_scalar(&prep.kernel, &spec, target);
    check(PassArtifact::Program {
        program: &scalar,
        target,
        role: ProgramRole::Scalar,
        sched,
    })?;
    let noise_db = prep.eval.noise_db(&spec);
    Ok(FlowResult {
        spec,
        simd,
        scalar,
        group_count,
        noise_db,
        select,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::{xentium, CycleCache};
    use std::convert::Infallible;

    const FIR8: &str = r#"
kernel fir8 {
    input x range [-1, 1];
    output y;
    param c[8] = { 0.11, -0.23, 0.31, 0.17, -0.05, 0.27, -0.13, 0.07 };
    array dl[8];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..8 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    #[test]
    fn both_flows_meet_the_constraint() {
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let target = xentium();
        let (benefit, sched) = (BenefitKind::default(), SchedKind::List);
        let tabu = TabuOptions::default();
        for db in [-20.0, -50.0, -80.0] {
            let ok = &mut |_: PassArtifact<'_>| Ok::<(), Infallible>(());
            let a = wlo_slp_flow_checked(&prep, &target, db, benefit, sched, ok).unwrap();
            let b = wlo_first_flow_checked(&prep, &target, db, &tabu, benefit, sched, ok).unwrap();
            assert!(a.noise_db <= db, "WLO-SLP at {db}: {}", a.noise_db);
            assert!(b.noise_db <= db, "WLO-First at {db}: {}", b.noise_db);
        }
    }

    #[test]
    fn wlo_slp_packs_where_it_pays_and_never_where_it_loses() {
        use crate::sched::cycles_per_activation_cached;
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let run = |target: &TargetModel| {
            let res = wlo_slp_flow_checked(
                &prep,
                target,
                -40.0,
                BenefitKind::default(),
                SchedKind::List,
                &mut |_| Ok::<(), Infallible>(()),
            )
            .unwrap();
            let costs = CycleCache::new(target);
            let simd = cycles_per_activation_cached(&costs, &res.simd, SchedKind::List);
            let scalar = cycles_per_activation_cached(&costs, &res.scalar, SchedKind::List);
            (res.group_count, simd, scalar)
        };
        // ST240's single memory port makes FIR's vector loads genuinely
        // profitable: the joint flow must find (and keep) groups there.
        let (groups, simd, scalar) = run(&slpwlo_targets::st240());
        assert!(groups > 0, "joint flow must find groups on ST240 at -40 dB");
        assert!(simd < scalar);
        // On 12-issue XENTIUM this tiny kernel is latency-bound: packing
        // cannot pay, and the scheduler guard must leave the program no
        // slower than its own scalar lowering.
        let (_, simd, scalar) = run(&xentium());
        assert!(
            simd <= scalar,
            "the scheduler guard must never keep a losing pack"
        );
    }

    #[test]
    fn flows_are_deterministic() {
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let target = xentium();
        let run = || {
            wlo_first_flow_checked(
                &prep,
                &target,
                -45.0,
                &TabuOptions::default(),
                BenefitKind::default(),
                SchedKind::List,
                &mut |_| Ok::<(), Infallible>(()),
            )
            .unwrap()
        };
        let (a1, a2) = (run(), run());
        assert_eq!(a1.group_count, a2.group_count);
        assert_eq!(a1.simd.ops_per_activation(), a2.simd.ops_per_activation());
    }
}
