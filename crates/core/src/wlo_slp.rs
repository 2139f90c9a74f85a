//! The SLP-aware WLO driver — fig. 1a of the paper.
//!
//! 1. Every node of the fixed-point specification starts at the maximum
//!    word length supported by the target (the most accurate natively
//!    implementable spec, and the least SIMD-friendly one).
//! 2. Basic blocks are visited in priority order (their contribution to
//!    execution time), so the accuracy-degradation budget is spent on the
//!    hottest code first.
//! 3. For each block, accuracy-aware SLP extraction runs to fixpoint
//!    (`slpwlo_slp::extract_rounds`, under one set of [`AccuracyHooks`]
//!    per block and one [`PassCtx`] for the whole search, which tells
//!    the benefit model that equalization follows): each selected
//!    group's word lengths shrink per equation (1) (`SETMAXWL`), wider
//!    groups absorb the narrower groups they merge (line 12), and the
//!    loop ends when a pass selects nothing.
//! 4. Scaling optimization (fig. 1b) then equalizes per-lane scaling
//!    amounts inside the block's reused superwords.

use crate::hooks::{AccuracyHooks, TrialMemo};
use crate::scalopt::{scaling_optimize, ScalOptReport};
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_fixedpoint::{FixedPointSpec, Ranges};
use slpwlo_ir::blocks::{blocks_by_priority, Block};
use slpwlo_ir::dfg::Dfg;
use slpwlo_ir::Kernel;
use slpwlo_slp::{extract_rounds, BenefitKind, PassCtx, SelectStats, SimdGroup};
use slpwlo_targets::{SchedKind, TargetModel};

/// Per-block outcome of the joint optimization.
#[derive(Debug)]
pub struct BlockResult {
    /// The source basic block.
    pub block: Block,
    /// Its data-flow graph.
    pub dfg: Dfg,
    /// Selected SIMD groups (final sizes, after extension rounds).
    pub groups: Vec<SimdGroup>,
    /// Scaling-optimization statistics.
    pub scalopt: ScalOptReport,
}

/// Result of the SLP-aware WLO: the fully determined fixed-point
/// specification plus the selected SIMD groups per block.
#[derive(Debug)]
pub struct WloSlpResult {
    /// The optimized specification (meets the constraint by construction).
    pub spec: FixedPointSpec,
    /// Per-block groups, in priority order.
    pub blocks: Vec<BlockResult>,
    /// Exact-selector search statistics accumulated across all rounds of
    /// all blocks (all zeros under the greedy kinds).
    pub select: SelectStats,
}

impl WloSlpResult {
    /// Total number of selected groups across blocks.
    pub fn group_count(&self) -> usize {
        self.blocks.iter().map(|b| b.groups.len()).sum()
    }
}

/// Runs the joint SLP-aware word-length optimization (fig. 1a).
///
/// `constraint_db` is the accuracy constraint: the maximum tolerable
/// output quantization-noise power in dB.
///
/// Every accuracy query inside — candidate validation, pairwise
/// conflicts, `SETMAXWL` selections, scaling equalization — goes through
/// the [`AccuracyEvaluator`] trial protocol, so passing an
/// [`slpwlo_accuracy::IncrementalEvaluator`] makes each query O(touched
/// keys) instead of O(kernel); a plain evaluator falls back to full
/// recomputes with identical results. Validation and conflict answers
/// are memoized against the spec a round opens on, and the memo is kept
/// across rounds and blocks while no round commits a write and no
/// equalization moves the spec, so a repeated question never reaches the
/// evaluator. Conflict questions are asked only for the pairs the
/// selectors read.
///
/// `benefit` is the candidate-pricing strategy. Under
/// [`BenefitKind::Cycles`] the selection loop re-prices live candidates
/// against the *evolving* spec every iteration (the hooks are the
/// word-length oracle), so a pack that is only profitable at shrunk word
/// lengths is admitted in the round where the shrinks happen rather than
/// never or always.
///
/// `sched` is the scheduler the candidates are priced under: when the
/// flow will modulo-schedule in-loop blocks, the cycle-priced benefit
/// model drops its latency-boundedness hedge (overlapped iterations hide
/// pack/extract chain hops), admitting packs sequential issue would
/// reject.
pub fn wlo_slp_sched(
    kernel: &Kernel,
    target: &TargetModel,
    eval: &dyn AccuracyEvaluator,
    constraint_db: f64,
    ranges: &Ranges,
    benefit: BenefitKind,
    sched: SchedKind,
) -> WloSlpResult {
    let mut ctx = PassCtx::new(target, benefit, sched, true);
    wlo_slp(&mut ctx, kernel, eval, constraint_db, ranges)
}

/// [`wlo_slp_sched`] under the caller's context, whose `equalize` must
/// be set: fig. 1b scaling optimization runs after every block's
/// extraction. The returned statistics are the context's after the run.
pub(crate) fn wlo_slp(
    ctx: &mut PassCtx<'_>,
    kernel: &Kernel,
    eval: &dyn AccuracyEvaluator,
    constraint_db: f64,
    ranges: &Ranges,
) -> WloSlpResult {
    let target = ctx.target;
    // Lines 1-3: all nodes at the maximum supported word length.
    let mut spec = FixedPointSpec::from_ranges(kernel, ranges, target.max_wl());
    let mut results = Vec::new();
    let mut memo = TrialMemo::default();

    // Line 4: visit blocks in priority order.
    for block in blocks_by_priority(kernel) {
        let dfg = Dfg::from_block(kernel, &block);

        // Lines 6-14: iterate SLP extraction until no new groups; wider
        // merges supersede the groups they absorbed (line 12). One set of
        // hooks serves every round of the block.
        let mut hooks = AccuracyHooks::new(&dfg, &mut spec, eval, constraint_db)
            .with_memo(std::mem::take(&mut memo));
        let groups = extract_rounds(ctx, &dfg, &mut hooks);
        memo = hooks.into_memo();

        // Line 15: SLP-aware scaling optimization. Only an equalization
        // changes the spec.
        let scalopt = scaling_optimize(&mut spec, &dfg, &groups, eval, constraint_db, target);
        if scalopt.equalized > 0 {
            memo.clear();
        }
        results.push(BlockResult {
            block,
            dfg,
            groups,
            scalopt,
        });
    }
    WloSlpResult {
        spec,
        blocks: results,
        select: ctx.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator};
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::{vex, xentium};

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

    fn run(db: f64, target: &slpwlo_targets::TargetModel) -> (WloSlpResult, AnalyticalEvaluator) {
        let k = parse_kernel(FIR8).unwrap();
        let ranges = determine_ranges(&k);
        let eval = AnalyticalEvaluator::new(&k);
        let res = wlo_slp_sched(
            &k,
            target,
            &eval,
            db,
            &ranges,
            BenefitKind::default(),
            SchedKind::List,
        );
        (res, eval)
    }

    #[test]
    fn constraint_always_met() {
        for db in [-10.0, -30.0, -50.0, -70.0, -90.0] {
            let (res, eval) = run(db, &xentium());
            assert!(
                eval.meets(&res.spec, db),
                "constraint {db} violated: {}",
                eval.noise_db(&res.spec)
            );
        }
    }

    #[test]
    fn loose_constraints_find_more_groups() {
        let (loose, _) = run(-20.0, &xentium());
        let (tight, _) = run(-160.0, &xentium());
        assert!(
            loose.group_count() > tight.group_count(),
            "loose {} vs tight {}",
            loose.group_count(),
            tight.group_count()
        );
        assert_eq!(
            tight.group_count(),
            0,
            "no 16-bit grouping can reach -160 dB"
        );
    }

    #[test]
    fn hot_block_processed_first() {
        let (res, _) = run(-30.0, &xentium());
        // First block in results must be the unrolled loop body (highest
        // priority); it must hold the groups.
        assert!(res.blocks[0].block.in_loop());
        assert!(!res.blocks[0].groups.is_empty());
    }

    #[test]
    fn vex_extends_groups_beyond_pairs_at_loose_constraints() {
        let (res, _) = run(-15.0, &vex(4));
        let max_lanes = res
            .blocks
            .iter()
            .flat_map(|b| b.groups.iter())
            .map(|g| g.lanes())
            .max()
            .unwrap_or(0);
        // 8-bit quads are only admissible when the noise budget is loose;
        // -15 dB tolerates them for this kernel.
        assert!(max_lanes >= 2, "expected grouping, got none");
        // On XENTIUM the same constraint caps at pairs.
        let (resx, _) = run(-15.0, &xentium());
        let max_x = resx
            .blocks
            .iter()
            .flat_map(|b| b.groups.iter())
            .map(|g| g.lanes())
            .max()
            .unwrap_or(0);
        assert!(max_x <= 2);
    }

    #[test]
    fn memoized_answers_equal_fresh_trials() {
        use crate::flow::prepare;
        use crate::hooks::audit::{self, CountingEvaluator, Event};
        use slpwlo_kernels::all_benchmarks;
        use slpwlo_targets::st240;
        use std::cell::Cell;
        use std::rc::Rc;

        const DB: f64 = -40.0;
        let mut conv_xentium_trials = None;
        for bench in all_benchmarks() {
            let prep = Rc::new(prepare(bench.kernel));
            for target in [xentium(), st240(), vex(4)] {
                let hits = Rc::new(Cell::new(0usize));
                let observer = {
                    let (prep, hits) = (Rc::clone(&prep), Rc::clone(&hits));
                    let ctx = format!("{} on {}", bench.name, target.name);
                    move |e: Event<'_>| {
                        if let Event::Answer {
                            spec,
                            meets,
                            hit: true,
                            ..
                        } = e
                        {
                            hits.set(hits.get() + 1);
                            assert_eq!(
                                prep.eval.meets(spec, DB),
                                meets,
                                "{ctx}: stale memo answer"
                            );
                        }
                    }
                };
                let eval = CountingEvaluator::new(&prep.eval);
                let res = audit::observe(observer, || {
                    wlo_slp_sched(
                        &prep.kernel,
                        &target,
                        &eval,
                        DB,
                        &prep.ranges,
                        BenefitKind::default(),
                        SchedKind::List,
                    )
                });
                assert!(prep.eval.meets(&res.spec, DB));
                assert!(
                    hits.get() > 0,
                    "{} on {}: no memo hit",
                    bench.name,
                    target.name
                );
                if bench.name == "CONV" && target.name == xentium().name {
                    conv_xentium_trials = Some(eval.trials.get());
                }
            }
        }
        // Without the memo this search makes 2 835 trials; with the memo
        // and every pair asked eagerly, 233.
        assert_eq!(conv_xentium_trials, Some(105));
    }

    #[test]
    fn groups_shrink_word_lengths_only_where_packed() {
        use crate::nodes::node_key;
        let (res, _) = run(-40.0, &xentium());
        let spec = &res.spec;
        for b in &res.blocks {
            let grouped: Vec<_> = b
                .groups
                .iter()
                .flat_map(|g| g.elems.iter().copied())
                .collect();
            for &n in &grouped {
                if let Some(key) = node_key(&b.dfg, n) {
                    assert!(spec.wl(key) <= 16, "grouped node must be <= 16 bits");
                }
            }
        }
    }
}
