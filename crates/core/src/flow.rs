//! End-to-end compilation flows: `WLO-SLP` (fig. 3) vs `WLO-First`
//! (fig. 5).
//!
//! Both flows share the front half of the paper's tool-chain — range
//! analysis, IWL determination, the analytical accuracy model — and the
//! back half: the scheduler guard over the selected groups, scaling
//! insertion and lowering to the SIMD and scalar programs. The back half
//! is written once (`run_leg`); each public flow supplies only its
//! search. They differ exactly where the paper differs:
//!
//! * **`WLO-SLP`** (this paper): joint accuracy-aware SLP extraction and
//!   word-length optimization plus scaling optimization;
//! * **`WLO-First`** (baseline): Tabu-search WLO under the optimistic
//!   word-length-proportional cost model, followed by plain
//!   accuracy-unaware SLP extraction on the frozen specification.

use crate::lower::{lower_fixed, MachineProgram};
use crate::nodes::{value_format, value_wl};
use crate::sched::BlockPrices;
use crate::tabu::{tabu_wlo, TabuOptions};
use crate::wlo_slp::wlo_slp;
use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator, IncrementalEvaluator};
use slpwlo_fixedpoint::range::{determine_ranges, Ranges};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::blocks::{collect_blocks, Block};
use slpwlo_ir::dfg::Dfg;
use slpwlo_ir::Kernel;
use slpwlo_slp::{extract_rounds, BenefitKind, FrozenWls, PassCtx, SelectStats, SimdGroup};
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

/// Runs the shared front end: range analysis ([`determine_ranges`]) and
/// accuracy-model construction ([`AnalyticalEvaluator::new`]).
pub fn prepare(kernel: Kernel) -> Prepared {
    let ranges = determine_ranges(&kernel);
    let eval = AnalyticalEvaluator::new(&kernel);
    Prepared {
        kernel,
        ranges,
        eval,
    }
}

/// One block with its data-flow graph and selected SIMD groups.
type BlockGroups = (Block, Dfg, Vec<SimdGroup>);

/// Plain (accuracy-unaware) SLP extraction over a frozen specification,
/// block by block — the `WLO-First` back half's extraction: the
/// [`FrozenWls`] policy over the spec's word lengths, which decide
/// candidate validation, and its fractional word lengths, which the
/// cycle-priced benefit model reads too. The context supplies the
/// target, the pricing strategy and the scheduler the candidates are
/// priced under (the benefit model relaxes its latency hedge when
/// iterations will overlap); the flow leaves its `equalize` unset, as
/// no scaling equalization follows, so mismatched scalings keep their
/// fig. 2 price. The exact selector's search statistics accumulate into
/// `ctx.stats` (untouched under the greedy kinds).
pub fn extract_on_spec(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    ctx: &mut PassCtx<'_>,
) -> Vec<BlockGroups> {
    let target = ctx.target;
    collect_blocks(kernel)
        .into_iter()
        .map(|b| {
            let dfg = Dfg::from_block(kernel, &b);
            let wl = |n| value_wl(spec, &dfg, n);
            let fwl = |n| value_format(spec, &dfg, n).fwl;
            let mut hooks = FrozenWls {
                target,
                wl: &wl,
                fwl: Some(&fwl),
            };
            let groups = extract_rounds(ctx, &dfg, &mut hooks);
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
        groups: &'a [SimdGroup],
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
/// the leg's scheduler (`ctx.sched`, priced through the flow's block
/// pricer `prices`) is the arbiter. Every block's selected groups are
/// kept only if the block's vectorized form actually schedules faster
/// than dropping them under the final specification —
/// otherwise the word-length decisions stand (the spec is untouched) but
/// the packs are discarded. Blocks schedule independently, so the
/// per-block greedy is exact; the returned SIMD program is the cheapest
/// keep/drop assignment and never slower than the all-scalar lowering of
/// the same spec, which is returned beside it: the group-free lowering
/// the guard compares against *is* that program.
fn prune_unprofitable_groups<E>(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    ctx: &PassCtx<'_>,
    prices: &mut BlockPrices<'_>,
    blocks: &mut [BlockGroups],
    check: &mut Check<'_, E>,
) -> Result<(MachineProgram, MachineProgram), E> {
    let (target, sched) = (ctx.target, ctx.sched);
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
        return Ok((full.clone(), full));
    }
    let bare: Vec<_> = blocks
        .iter()
        .map(|(b, dfg, _)| (b.clone(), dfg.clone(), Vec::new()))
        .collect();
    let none = lower_fixed(kernel, spec, target, &bare);
    check(candidate(&none, target, sched))?;
    let mut pruned = false;
    for (i, (_, _, groups)) in blocks.iter_mut().enumerate() {
        if groups.is_empty() {
            continue;
        }
        // Drop the block's groups only when doing so strictly improves
        // its schedule (ties keep the vector form). Trip-weighted
        // activation cycles, so pipelined steady states are compared on
        // the same footing as sequential iteration costs.
        if prices.block_cycles(&none.blocks[i], sched) < prices.block_cycles(&full.blocks[i], sched)
        {
            groups.clear();
            pruned = true;
        }
    }
    if !pruned {
        return Ok((full, none));
    }
    if blocks.iter().all(|(_, _, g)| g.is_empty()) {
        return Ok((none.clone(), none));
    }
    Ok((lower_fixed(kernel, spec, target, blocks), none))
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

/// The pass-boundary callback a flow threads through its passes.
type Check<'a, E> = dyn FnMut(PassArtifact<'_>) -> Result<(), E> + 'a;

/// A flow's search: under the leg's context, it reports its specs to
/// the callback and hands the back half the final spec and each block's
/// groups before the scheduler guard. The exact selector's search
/// statistics accumulate in the context.
type Search<'a, E> = dyn FnMut(&mut PassCtx<'_>, &mut Check<'_, E>) -> Result<Searched, E> + 'a;
type Searched = (FixedPointSpec, Vec<BlockGroups>);

/// Runs a flow: one leg, or under [`BenefitKind::Optimal`] up to two legs
/// with portfolio arbitration. Per-round model-value optimality does not
/// by itself bound the *final* scheduled cycle count (rounds interact
/// through `SETMAXWL`, and the scheduler guard re-prices whole blocks),
/// so the flow also runs the greedy cycle-priced leg end to end and
/// returns whichever program schedules faster — ties go to the exact
/// leg, keeping budget-0 runs bitwise identical to greedy. A greedy win
/// bumps `select.portfolio_fallbacks`; the exact leg's search statistics
/// are carried either way. `ctx` is the first leg's context; the greedy
/// leg gets a fresh one differing only in its benefit kind.
///
/// The greedy leg runs only when the exact leg improved a round. A round
/// that improves nothing commits its greedy probe's selection: the
/// search found nothing better, its budget ran out, or the hooks vetoed
/// its set. Each of those replays greedy from the same state, so an exact
/// leg with no improved round *is* the greedy leg, and running that leg
/// again would return the same result bit for bit.
///
/// One block pricer serves both legs' scheduler guards and the
/// comparison, so under modulo scheduling each distinct block is
/// searched once per flow call: the comparison's programs are made of
/// blocks the guards already priced.
fn run_legs<E>(
    prep: &Prepared,
    mut ctx: PassCtx<'_>,
    check: &mut Check<'_, E>,
    search: &mut Search<'_, E>,
) -> Result<FlowResult, E> {
    let mut prices = BlockPrices::new(ctx.target);
    let exact = run_leg(prep, &mut ctx, &mut prices, check, search)?;
    if !matches!(ctx.benefit, BenefitKind::Optimal { .. }) || exact.select.improved == 0 {
        return Ok(exact);
    }
    let mut greedy_ctx = PassCtx::new(ctx.target, BenefitKind::Cycles, ctx.sched, ctx.equalize);
    let greedy = run_leg(prep, &mut greedy_ctx, &mut prices, check, search)?;
    let exact_cycles = prices.program_cycles(&exact.simd, ctx.sched);
    let greedy_cycles = prices.program_cycles(&greedy.simd, ctx.sched);
    if greedy_cycles < exact_cycles {
        let mut select = exact.select;
        select.portfolio_fallbacks += 1;
        Ok(FlowResult { select, ..greedy })
    } else {
        Ok(exact)
    }
}

/// One leg of a flow: the search, then the back half both flows share —
/// the scheduler guard between the pre- and post-guard groupings, the
/// final SIMD and scalar programs, and the predicted noise.
fn run_leg<E>(
    prep: &Prepared,
    ctx: &mut PassCtx<'_>,
    prices: &mut BlockPrices<'_>,
    check: &mut Check<'_, E>,
    search: &mut Search<'_, E>,
) -> Result<FlowResult, E> {
    check(PassArtifact::Kernel {
        kernel: &prep.kernel,
    })?;
    let (spec, mut blocks) = search(ctx, check)?;
    let (target, sched) = (ctx.target, ctx.sched);
    check_groups(&blocks, target, false, check)?;
    let (simd, scalar) =
        prune_unprofitable_groups(&prep.kernel, &spec, ctx, prices, &mut blocks, check)?;
    check_groups(&blocks, target, true, check)?;
    check(PassArtifact::Program {
        program: &simd,
        target,
        role: ProgramRole::Simd,
        sched,
    })?;
    let group_count = blocks.iter().map(|(_, _, g)| g.len()).sum();
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
        select: ctx.stats,
    })
}

/// Hands every block's grouping to the pass-boundary callback.
fn check_groups<E>(
    blocks: &[BlockGroups],
    target: &TargetModel,
    is_final: bool,
    check: &mut Check<'_, E>,
) -> Result<(), E> {
    blocks.iter().try_for_each(|(b, dfg, groups)| {
        check(PassArtifact::Groups {
            dfg,
            groups,
            target,
            block: b.id,
            is_final,
        })
    })
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
/// Under [`BenefitKind::Optimal`] the flow runs the exact leg and, when
/// that leg improved on greedy in some round, the greedy cycle-priced
/// leg too; the faster-scheduling program wins (ties to the exact leg),
/// so the exact kind never returns a program slower than greedy's.
/// `check` sees the artifacts of every leg that runs.
pub fn wlo_slp_flow_checked<E>(
    prep: &Prepared,
    target: &TargetModel,
    constraint_db: f64,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<FlowResult, E> {
    let ctx = PassCtx::new(target, benefit, sched, true);
    run_legs(prep, ctx, check, &mut |ctx, check| {
        let eval = IncrementalEvaluator::new(&prep.eval);
        let res = wlo_slp(ctx, &prep.kernel, &eval, constraint_db, &prep.ranges);
        check(PassArtifact::Spec {
            kernel: &prep.kernel,
            ranges: &prep.ranges,
            spec: &res.spec,
            is_final: true,
        })?;
        let blocks = res.blocks.into_iter().map(|b| (b.block, b.dfg, b.groups));
        Ok((res.spec, blocks.collect()))
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
    let ctx = PassCtx::new(target, benefit, sched, false);
    run_legs(prep, ctx, check, &mut |ctx, check| {
        let mut spec = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
        let mut spec_artifact = |spec: &FixedPointSpec, is_final| {
            check(PassArtifact::Spec {
                kernel: &prep.kernel,
                ranges: &prep.ranges,
                spec,
                is_final,
            })
        };
        spec_artifact(&spec, false)?;
        let eval = IncrementalEvaluator::new(&prep.eval);
        let (kernel, wls) = (&prep.kernel, &target.scalar_wls);
        tabu_wlo(kernel, &mut spec, &eval, constraint_db, wls, tabu);
        spec_artifact(&spec, true)?;
        let blocks = extract_on_spec(&prep.kernel, &spec, ctx);
        Ok((spec, blocks))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::xentium;
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
            let mut prices = BlockPrices::new(target);
            let simd = prices.program_cycles(&res.simd, SchedKind::List);
            let scalar = prices.program_cycles(&res.scalar, SchedKind::List);
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

    #[test]
    fn guard_scalar_program_is_lower_scalar() {
        // The scalar program a leg returns is the guard's group-free
        // lowering (or its only lowering, when nothing was selected);
        // it must be exactly the standalone all-scalar lowering.
        use crate::lower::lower_scalar;
        use slpwlo_targets::{st240, vex};
        let tabu = TabuOptions::default();
        let (benefit, sched) = (BenefitKind::default(), SchedKind::List);
        let ok = &mut |_: PassArtifact<'_>| Ok::<(), Infallible>(());
        for bench in slpwlo_kernels::all_benchmarks() {
            let prep = prepare(bench.kernel);
            for target in [st240(), vex(1), vex(4), xentium()] {
                let joint = wlo_slp_flow_checked(&prep, &target, -40.0, benefit, sched, ok);
                let first =
                    wlo_first_flow_checked(&prep, &target, -40.0, &tabu, benefit, sched, ok);
                for (flow, res) in [("WLO-SLP", joint), ("WLO-First", first)] {
                    let res = res.unwrap();
                    let fresh = lower_scalar(&prep.kernel, &res.spec, &target);
                    assert_eq!(
                        format!("{:?}", res.scalar),
                        format!("{fresh:?}"),
                        "{} on {} under {flow}",
                        bench.name,
                        target.name
                    );
                }
            }
        }
    }

    #[test]
    fn exact_modulo_flow_search_count_is_pinned() {
        // A work counter, not a result: MATVEC on VEX-1 with exact
        // selection and modulo scheduling. Both legs' guards and the
        // portfolio comparison price their blocks through one memo, so
        // each distinct block runs one II search; pricing every
        // comparison afresh took 94 searches. The driver's report then
        // prices the returned SIMD and scalar programs through a fresh
        // pricer of its own, which runs 6 more.
        use crate::sched::searches;
        let prep = prepare(slpwlo_kernels::matvec16x16());
        let target = slpwlo_targets::vex(1);
        let (benefit, sched) = (BenefitKind::optimal(), SchedKind::modulo());
        let ok = &mut |_: PassArtifact<'_>| Ok::<(), Infallible>(());
        let (res, count) = searches::during(|| {
            wlo_slp_flow_checked(&prep, &target, -40.0, benefit, sched, ok).unwrap()
        });
        assert!(res.group_count > 0);
        assert_eq!(count, 11);
        let (_, count) = searches::during(|| {
            let mut prices = BlockPrices::new(&target);
            prices.program_cycles(&res.simd, sched) + prices.program_cycles(&res.scalar, sched)
        });
        assert_eq!(count, 6);
    }

    /// An exact leg that improved no round committed greedy's selection
    /// in every round, so the flow returns it without a greedy leg, and
    /// it is the greedy flow's result: over the 8 suite kernels × ST240,
    /// VEX-1, VEX-4 and XENTIUM × −20…−60 dB × both flows × list and
    /// modulo scheduling, every `Optimal` result with no improved round
    /// has the `Cycles` result's spec, SIMD and scalar programs, noise
    /// bits and group count.
    #[test]
    fn exact_results_that_improved_nothing_are_greedy_results() {
        use slpwlo_targets::{st240, vex};
        let tabu = TabuOptions::default();
        let ok = &mut |_: PassArtifact<'_>| Ok::<(), Infallible>(());
        let (mut unimproved, mut improved) = (0, 0);
        for bench in slpwlo_kernels::all_benchmarks() {
            let prep = prepare(bench.kernel);
            for target in [st240(), vex(1), vex(4), xentium()] {
                for db in [-20.0, -30.0, -40.0, -50.0, -60.0] {
                    for sched in [SchedKind::List, SchedKind::modulo()] {
                        for joint in [true, false] {
                            let mut run = |benefit| {
                                if joint {
                                    wlo_slp_flow_checked(&prep, &target, db, benefit, sched, ok)
                                } else {
                                    wlo_first_flow_checked(
                                        &prep, &target, db, &tabu, benefit, sched, ok,
                                    )
                                }
                                .unwrap()
                            };
                            let exact = run(BenefitKind::optimal());
                            if exact.select.improved > 0 {
                                improved += 1;
                                continue;
                            }
                            unimproved += 1;
                            let greedy = run(BenefitKind::Cycles);
                            let case = format!(
                                "{} on {} at {db} dB, {sched:?}, joint {joint}",
                                bench.name, target.name
                            );
                            assert_eq!(exact.select.portfolio_fallbacks, 0, "{case}");
                            assert_eq!(
                                format!("{:?}", exact.spec),
                                format!("{:?}", greedy.spec),
                                "{case}: spec"
                            );
                            assert_eq!(
                                format!("{:?}", exact.simd),
                                format!("{:?}", greedy.simd),
                                "{case}: SIMD program"
                            );
                            assert_eq!(
                                format!("{:?}", exact.scalar),
                                format!("{:?}", greedy.scalar),
                                "{case}: scalar program"
                            );
                            assert_eq!(
                                exact.noise_db.to_bits(),
                                greedy.noise_db.to_bits(),
                                "{case}: noise"
                            );
                            assert_eq!(exact.group_count, greedy.group_count, "{case}");
                        }
                    }
                }
            }
        }
        assert_eq!((unimproved, improved), (327, 313));
    }

    /// Work counters, not results: the evaluator trials of CFIR's exact,
    /// modulo-scheduled compile on ST240 at -40 dB, for one joint search
    /// and for the whole flow. The exact selector asks a pool pair's
    /// accuracy question only when its probe or search reads the pair,
    /// and the flow runs no greedy leg, as the exact leg improves no
    /// round. Asking every pool pair at round entry and running both
    /// legs took 5 244 and 6 216.
    #[test]
    fn exact_cfir_trial_counts_are_pinned() {
        use crate::hooks::audit::trials_during;
        use crate::wlo_slp::wlo_slp_sched;
        let prep = prepare(slpwlo_kernels::complex_fir32());
        let target = slpwlo_targets::st240();
        let (benefit, sched) = (BenefitKind::optimal(), SchedKind::modulo());
        let ok = &mut |_: PassArtifact<'_>| Ok::<(), Infallible>(());
        let (res, search) = trials_during(|| {
            let eval = IncrementalEvaluator::new(&prep.eval);
            wlo_slp_sched(
                &prep.kernel,
                &target,
                &eval,
                -40.0,
                &prep.ranges,
                benefit,
                sched,
            )
        });
        assert_eq!(res.select.improved, 0);
        let (_, flow) = trials_during(|| {
            wlo_slp_flow_checked(&prep, &target, -40.0, benefit, sched, ok).unwrap()
        });
        assert_eq!((search, flow), (1_507, 1_507));
    }

    /// The pass-artifact order, one token per artifact: the variant,
    /// then `is_final` for specs and groups or the role for programs.
    /// Span attribution in the benchmark depends on this order.
    fn artifact_order(joint: bool, benefit: BenefitKind) -> Vec<String> {
        artifact_order_at(joint, benefit, -40.0)
    }

    /// [`artifact_order`] at constraint `db`.
    fn artifact_order_at(joint: bool, benefit: BenefitKind, db: f64) -> Vec<String> {
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let target = slpwlo_targets::st240();
        let tabu = TabuOptions::default();
        let mut seq = Vec::new();
        let record = &mut |a: PassArtifact<'_>| {
            seq.push(match a {
                PassArtifact::Kernel { .. } => "Kernel".to_string(),
                PassArtifact::Spec { is_final, .. } => format!("Spec/{is_final}"),
                PassArtifact::Groups { is_final, .. } => format!("Groups/{is_final}"),
                PassArtifact::Program { role, .. } => format!("Program/{role:?}"),
            });
            Ok::<(), Infallible>(())
        };
        let sched = SchedKind::List;
        if joint {
            wlo_slp_flow_checked(&prep, &target, db, benefit, sched, record).unwrap();
        } else {
            wlo_first_flow_checked(&prep, &target, db, &tabu, benefit, sched, record).unwrap();
        }
        seq
    }

    #[test]
    fn pass_artifact_order_is_pinned() {
        // One leg of WLO-SLP on FIR8/ST240: the guard lowers twice and
        // keeps the packs, so the final groups follow both candidates.
        const SLP: [&str; 12] = [
            "Kernel",
            "Spec/true",
            "Groups/false",
            "Groups/false",
            "Groups/false",
            "Program/Candidate",
            "Program/Candidate",
            "Groups/true",
            "Groups/true",
            "Groups/true",
            "Program/Simd",
            "Program/Scalar",
        ];
        // WLO-First's greedy leg selects nothing, so the guard lowers
        // once; its exact leg packs and lowers twice.
        const FIRST_GREEDY: [&str; 12] = [
            "Kernel",
            "Spec/false",
            "Spec/true",
            "Groups/false",
            "Groups/false",
            "Groups/false",
            "Program/Candidate",
            "Groups/true",
            "Groups/true",
            "Groups/true",
            "Program/Simd",
            "Program/Scalar",
        ];
        const FIRST_EXACT: [&str; 13] = [
            "Kernel",
            "Spec/false",
            "Spec/true",
            "Groups/false",
            "Groups/false",
            "Groups/false",
            "Program/Candidate",
            "Program/Candidate",
            "Groups/true",
            "Groups/true",
            "Groups/true",
            "Program/Simd",
            "Program/Scalar",
        ];
        let (greedy, exact) = (BenefitKind::default(), BenefitKind::optimal());
        assert_eq!(artifact_order(true, greedy), SLP);
        assert_eq!(artifact_order(true, exact), [SLP, SLP].concat());
        assert_eq!(artifact_order(false, greedy), FIRST_GREEDY);
        assert_eq!(
            artifact_order(false, exact),
            [&FIRST_EXACT[..], &FIRST_GREEDY[..]].concat()
        );
        // At -20 dB WLO-First's exact leg improves no round: like the
        // greedy leg, it selects nothing and the guard lowers once. The
        // flow runs it alone, so its artifacts are one greedy leg's.
        assert_eq!(artifact_order_at(false, greedy, -20.0), FIRST_GREEDY);
        assert_eq!(artifact_order_at(false, exact, -20.0), FIRST_GREEDY);
    }
}
