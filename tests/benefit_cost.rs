//! The cycle-priced benefit model's contract (ISSUE 5).
//!
//! (a) On single-issue VEX-1 — the target where abstract op counting is
//!     furthest from scheduled reality — the default `Cycles` model must
//!     admit no pack that makes the scheduled program slower than the
//!     scalar baseline, across the full 8-benchmark suite and the word
//!     lengths {12, 16, 24, 32}.
//! (b) On a target where every priced event genuinely costs one slot of
//!     one shared unit, `Slots` and `Cycles` produce identical
//!     selections.
//! (c) Both selection layers draw every pack/unpack/gather price from
//!     `TargetModel::cost` — spot-checked through `TargetModel::cycles`
//!     folding over it.

use slpwlo::core::nodes::value_wl;
use slpwlo::core::{cycles_per_activation_cached, extract_on_spec, lower_fixed, lower_scalar};
use slpwlo::fixedpoint::range::determine_ranges;
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::ir::blocks::collect_blocks;
use slpwlo::ir::Dfg;
use slpwlo::kernels::all_benchmarks;
use slpwlo::slp::{extract_rounds, BenefitKind, FrozenWls, PassCtx};
use slpwlo::targets::{vex, CycleCache, FuSet, OpQuery, SchedKind, SimdConfig, TargetModel};

/// (a) VEX-1: whatever the cycle-priced model admits must never schedule
/// slower than the scalar program under the same specification.
#[test]
fn cycles_model_never_loses_to_scalar_on_vex1() {
    let target = vex(1);
    let costs = CycleCache::new(&target);
    for bench in all_benchmarks() {
        let ranges = determine_ranges(&bench.kernel);
        for wl in [12, 16, 24, 32] {
            let spec = FixedPointSpec::from_ranges(&bench.kernel, &ranges, wl);
            let blocks = extract_on_spec(
                &bench.kernel,
                &spec,
                &mut PassCtx::new(
                    CycleCache::new(&target),
                    BenefitKind::Cycles,
                    SchedKind::List,
                    false,
                ),
            );
            let groups: usize = blocks.iter().map(|(_, _, g)| g.len()).sum();
            let simd = lower_fixed(&bench.kernel, &spec, &target, &blocks);
            let scalar = lower_scalar(&bench.kernel, &spec, &target);
            let vc = cycles_per_activation_cached(&costs, &simd, SchedKind::List);
            let sc = cycles_per_activation_cached(&costs, &scalar, SchedKind::List);
            assert!(
                vc <= sc,
                "{} at wl {wl} on VEX-1: {groups} admitted groups cost {vc} cycles \
                 vs {sc} scalar — the cycle-priced admission let a losing pack through",
                bench.name
            );
        }
    }
}

/// A synthetic machine where the slots model's abstractions are *true*:
/// single-issue, every unit one slot per cycle, every op (scalar or
/// vector, any word length) one slot, packs one insert per lane,
/// extracts one op. On it, target-blind slot counting and cycle pricing
/// must agree.
fn unit_cost_target() -> TargetModel {
    TargetModel {
        name: "UNIT".into(),
        issue_width: 1,
        datapath: 32,
        scalar_wls: vec![32, 16, 8],
        simd: vec![
            SimdConfig {
                lanes: 2,
                elem_wl: 16,
            },
            SimdConfig {
                lanes: 4,
                elem_wl: 8,
            },
        ],
        units: FuSet {
            alu: 1,
            mul: 1,
            mem: 1,
            shift: 1,
            fpu: 0,
        },
        mul_latency: 1,
        wide_mul_slots: 1,
        wide_mul_latency: 1,
        load_latency: 1,
        pack_ops_per_lane: 1,
        unpack_ops: 1,
        barrel_shifter: true,
        hw_float: false,
        fadd_cycles: 30,
        fmul_cycles: 30,
        loop_overhead_ops: 2,
    }
}

/// (b) Identical selections where pack ops genuinely cost one slot:
/// per block both models must admit the same packs — compared as the
/// multiset of (operation kind, lane count, lane set cardinality) since
/// greedy tie-breaking may partition symmetric alternatives (e.g. four
/// interchangeable multiply pairs) differently without changing what is
/// packed — and the two lowered programs must schedule to *identical*
/// cycle counts on the unit-cost machine.
#[test]
fn slots_and_cycles_agree_on_a_unit_cost_machine() {
    let target = unit_cost_target();
    let mut agreeing = 0usize;
    for bench in all_benchmarks() {
        let ranges = determine_ranges(&bench.kernel);
        let spec = FixedPointSpec::from_ranges(&bench.kernel, &ranges, 16);
        let mut per_kind = Vec::new();
        for kind in [BenefitKind::Slots, BenefitKind::Cycles] {
            let blocks: Vec<_> = collect_blocks(&bench.kernel)
                .into_iter()
                .map(|b| {
                    let dfg = Dfg::from_block(&bench.kernel, &b);
                    let groups = {
                        let mut ctx =
                            PassCtx::new(CycleCache::new(&target), kind, SchedKind::List, false);
                        let mut hooks = FrozenWls {
                            target: &target,
                            wl: &|n| value_wl(&spec, &dfg, n),
                            fwl: None,
                        };
                        extract_rounds(&mut ctx, &dfg, &mut hooks)
                    };
                    (b, dfg, groups)
                })
                .collect();
            let shapes: Vec<Vec<String>> = blocks
                .iter()
                .map(|(_, dfg, groups)| {
                    let mut s: Vec<String> = groups
                        .iter()
                        .map(|g| format!("{:?}x{}", g.kind(dfg), g.lanes()))
                        .collect();
                    s.sort();
                    s
                })
                .collect();
            let simd = lower_fixed(&bench.kernel, &spec, &target, &blocks);
            let cycles =
                cycles_per_activation_cached(&CycleCache::new(&target), &simd, SchedKind::List);
            per_kind.push((shapes, cycles));
        }
        if per_kind[0].0 == per_kind[1].0 {
            assert_eq!(
                per_kind[0].1, per_kind[1].1,
                "{}: identical pack shapes must schedule identically",
                bench.name
            );
            agreeing += 1;
        } else {
            // Kernels with symmetric pack alternatives (CONV's 3x3 grid,
            // MATVEC's row sweep, BIQUAD's cascade) partition differently
            // under the two ranking keys; the resulting programs must
            // still be priced the same to within greedy tie-break noise.
            let (a, b) = (per_kind[0].1 as f64, per_kind[1].1 as f64);
            assert!(
                (a - b).abs() / a.max(b) < 0.06,
                "{}: selections diverge beyond tie-break noise ({a} vs {b} cycles)",
                bench.name
            );
        }
    }
    assert!(
        agreeing >= 5,
        "only {agreeing}/8 benchmarks selected identically on the unit-cost machine"
    );
}

/// (c) No duplicated cost constants: the composite prices the selection
/// layer uses are folds over the same `TargetModel::cost` the scheduler
/// prices lowered ops with.
#[test]
fn selection_prices_fold_over_scheduler_costs() {
    for target in slpwlo::targets::all_targets() {
        for lanes in target.group_sizes() {
            let pack = target.cost(OpQuery::Pack(lanes));
            assert_eq!(
                target.cycles(OpQuery::Pack(lanes)),
                pack.slots as f64
                    / target.units.of(pack.class).min(target.issue_width).max(1) as f64,
                "{}",
                target.name
            );
            let gather = target.cycles(OpQuery::Gather(lanes));
            let parts = lanes as f64 * target.cycles(OpQuery::Load(target.datapath))
                + target.cycles(OpQuery::Pack(lanes));
            assert_eq!(gather, parts, "{}", target.name);
            let scatter = target.cycles(OpQuery::Scatter(lanes));
            assert_eq!(
                scatter,
                lanes as f64
                    * (target.cycles(OpQuery::Extract)
                        + target.cycles(OpQuery::Store(target.datapath))),
                "{}",
                target.name
            );
        }
    }
}
