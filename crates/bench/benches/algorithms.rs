//! Micro-benchmarks of the individual algorithm stages: accuracy
//! evaluation (`EVALACC`), noise-gain analysis, the whole front end
//! (ranges + gains), SLP candidate rounds,
//! Tabu WLO, the joint WLO-SLP search (greedy on CFIR and BIQUAD, and
//! exact with modulo scheduling on CFIR), the VLIW list scheduler, one
//! modulo-scheduling attempt on MATVEC, and whole kernel-to-report runs
//! (greedy with list scheduling on FIR and CONV, exact with modulo
//! scheduling on MATVEC).
//!
//! Run with: `cargo bench -p slpwlo-bench --bench algorithms`

use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator, IncrementalEvaluator};
use slpwlo_bench::Micro;
use slpwlo_core::nodes::{value_format, value_wl};
use slpwlo_core::{
    lower_scalar, modulo_attempt_cached, modulo_bounds, prepare, tabu_wlo, wlo_slp_sched,
    BlockPrices, TabuOptions,
};
use slpwlo_driver::Optimizer;
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::blocks::blocks_by_priority;
use slpwlo_ir::dfg::Dfg;
use slpwlo_kernels::{biquad_cascade4, complex_fir32, conv3x3, fir64, iir10, matvec16x16};
use slpwlo_slp::{extract_rounds, BenefitKind, FrozenWls, PassCtx, Round};
use slpwlo_targets::{st240, vex, xentium, CycleCache, SchedKind};

fn main() {
    let mut m = Micro::for_bench("algorithms");

    let prep = prepare(fir64());
    let spec = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, 32);
    m.bench("evalacc_fir64", || prep.eval.noise_db(&spec));

    m.bench("gain_analysis_conv3x3", || {
        AnalyticalEvaluator::new(&conv3x3())
    });
    // The whole front end (ranges + gains) on the two kernels whose
    // costs the conv3x3 bench never sees: MATVEC's 64-lane coefficient
    // sweep, and IIR's simulation-range fallback (interval iteration
    // diverges on feedback).
    m.bench("prepare_matvec16x16", || prepare(matvec16x16()));
    m.bench("prepare_iir10", || prepare(iir10()));

    let conv = prepare(conv3x3());
    let target = xentium();
    let blocks = blocks_by_priority(&conv.kernel);
    let dfg = Dfg::from_block(&conv.kernel, &blocks[0]);
    m.bench("slp_round_conv3x3", || Round::new(&dfg, &target, &[]));
    // Selection on frozen word lengths as WLO-First runs it
    // (`extract_on_spec`): word lengths and scalings read per node from
    // the Tabu specification. At -50 dB this block keeps 4 packs of
    // mixed widths; at -40 dB mismatched scalings leave it none, and the
    // bench would time screening alone.
    let mut frozen = FixedPointSpec::from_ranges(&conv.kernel, &conv.ranges, 32);
    let eval = IncrementalEvaluator::new(&conv.eval);
    tabu_wlo(
        &conv.kernel,
        &mut frozen,
        &eval,
        -50.0,
        &target.scalar_wls,
        &TabuOptions::default(),
    );
    let wl = |n| value_wl(&frozen, &dfg, n);
    let fwl = |n| value_format(&frozen, &dfg, n).fwl;
    m.bench("slp_extract_plain_conv3x3", || {
        let mut ctx = PassCtx::new(&target, BenefitKind::default(), SchedKind::List, false);
        let mut hooks = FrozenWls {
            target: &target,
            wl: &wl,
            fwl: Some(&fwl),
        };
        extract_rounds(&mut ctx, &dfg, &mut hooks)
    });

    m.bench("tabu_wlo_fir64", || {
        let mut spec = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, 32);
        tabu_wlo(
            &prep.kernel,
            &mut spec,
            &prep.eval,
            -40.0,
            &target.scalar_wls,
            &TabuOptions::default(),
        )
    });

    // The two searches that set the Fig. 4 exploration's throughput, each
    // over the incremental evaluator the flows use: WLO-First's Tabu
    // search on MATVEC and the joint WLO-SLP search on CFIR.
    let matvec = prepare(matvec16x16());
    m.bench("tabu_wlo_matvec", || {
        let mut spec = FixedPointSpec::from_ranges(&matvec.kernel, &matvec.ranges, 32);
        tabu_wlo(
            &matvec.kernel,
            &mut spec,
            &IncrementalEvaluator::new(&matvec.eval),
            -40.0,
            &target.scalar_wls,
            &TabuOptions::default(),
        )
    });
    let cfir = prepare(complex_fir32());
    m.bench("wlo_slp_cfir", || {
        wlo_slp_sched(
            &cfir.kernel,
            &target,
            &IncrementalEvaluator::new(&cfir.eval),
            -40.0,
            &cfir.ranges,
            BenefitKind::default(),
            SchedKind::List,
        )
    });
    // BIQUAD's joint search, the other Fig. 4 point that asks over ten
    // thousand pairwise accuracy-conflict questions per run.
    let biquad = prepare(biquad_cascade4());
    m.bench("wlo_slp_biquad", || {
        wlo_slp_sched(
            &biquad.kernel,
            &target,
            &IncrementalEvaluator::new(&biquad.eval),
            -40.0,
            &biquad.ranges,
            BenefitKind::default(),
            SchedKind::List,
        )
    });
    // The maximum-quality compile's search: exact pack selection with
    // modulo scheduling on ST240, where the branch and bound (not the
    // accuracy trials) used to set the pace.
    let st = st240();
    m.bench("wlo_slp_cfir_exact", || {
        wlo_slp_sched(
            &cfir.kernel,
            &st,
            &IncrementalEvaluator::new(&cfir.eval),
            -40.0,
            &cfir.ranges,
            BenefitKind::optimal(),
            SchedKind::modulo(),
        )
    });

    let prog = lower_scalar(&prep.kernel, &spec, &target);
    m.bench("vliw_schedule_fir64", || {
        BlockPrices::new(&target).program_cycles(&prog, SchedKind::List)
    });
    // One modulo attempt (the whole II search) on the largest pipelinable
    // block of MATVEC's scalar lowering for single-issue VEX: a 25-op row
    // whose search spends its whole trial budget near the resource bound.
    // The price cache is built outside the timed closure, as a flow
    // shares one across blocks.
    let vex1 = vex(1);
    let vex1_costs = CycleCache::new(&vex1);
    let matvec_spec = FixedPointSpec::from_ranges(&matvec.kernel, &matvec.ranges, 16);
    let matvec_prog = lower_scalar(&matvec.kernel, &matvec_spec, &vex1);
    let hottest = matvec_prog
        .blocks
        .iter()
        .filter(|b| modulo_bounds(&vex1_costs, b).is_some())
        .max_by_key(|b| b.ops.len())
        .expect("MATVEC has a pipelinable loop");
    m.bench("modulo_attempt_matvec_vex1", || {
        modulo_attempt_cached(&vex1_costs, hottest, SchedKind::DEFAULT_BUDGET)
    });

    // True end-to-end runs: kernel in, optimized report out — range
    // analysis, gain measurement, WLO-SLP search, scheduling, the lot.
    // These keep the full pipeline honest; a regression anywhere in the
    // front-end or search shows up here even if every stage micro-bench
    // above stays flat.
    m.bench("optimize_e2e_fir64", || {
        Optimizer::for_kernel(fir64())
            .expect("valid kernel")
            .target(xentium())
            .constraint_db(-40.0)
            .run()
            .expect("e2e optimize")
    });
    m.bench("optimize_e2e_conv3x3", || {
        Optimizer::for_kernel(conv3x3())
            .expect("valid kernel")
            .target(xentium())
            .constraint_db(-40.0)
            .run()
            .expect("e2e optimize")
    });
    // The maximum-quality compile end to end: exact selection's two
    // portfolio legs with modulo scheduling, where the scheduler guards
    // and the final pricing, not the search, set the pace.
    m.bench("optimize_e2e_matvec_exact_modulo", || {
        Optimizer::for_kernel(matvec16x16())
            .expect("valid kernel")
            .target(vex(1))
            .constraint_db(-40.0)
            .benefit_kind(BenefitKind::optimal())
            .sched_kind(SchedKind::modulo())
            .run()
            .expect("e2e optimize")
    });

    m.finish().expect("write bench JSON");
}
