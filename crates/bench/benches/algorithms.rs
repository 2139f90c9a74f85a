//! Micro-benchmarks of the individual algorithm stages: accuracy
//! evaluation (`EVALACC`), noise-gain analysis, the whole front end
//! (ranges + gains), SLP candidate rounds,
//! Tabu WLO, the joint WLO-SLP search (greedy, and exact with modulo
//! scheduling) and the VLIW list scheduler.
//!
//! Run with: `cargo bench -p slpwlo-bench --bench algorithms`

use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator, IncrementalEvaluator};
use slpwlo_bench::Micro;
use slpwlo_core::{
    cycles_per_activation_cached, lower_scalar, prepare, tabu_wlo, wlo_slp_sched, TabuOptions,
};
use slpwlo_driver::Optimizer;
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::blocks::blocks_by_priority;
use slpwlo_ir::dfg::Dfg;
use slpwlo_kernels::{complex_fir32, conv3x3, fir64, iir10, matvec16x16};
use slpwlo_slp::{extract_plain_with, BenefitKind, PassCtx, Round};
use slpwlo_targets::{st240, xentium, CycleCache, SchedKind};

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

    let kernel = conv3x3();
    let target = xentium();
    let blocks = blocks_by_priority(&kernel);
    let dfg = Dfg::from_block(&kernel, &blocks[0]);
    m.bench("slp_round_conv3x3", || Round::new(&dfg, &target, &[]));
    m.bench("slp_extract_plain_conv3x3", || {
        let costs = CycleCache::new(&target);
        let mut ctx = PassCtx::new(costs, BenefitKind::default(), SchedKind::List, false);
        extract_plain_with(&mut ctx, &dfg, &|_| 16)
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
        cycles_per_activation_cached(&CycleCache::new(&target), &prog, SchedKind::List)
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

    m.finish().expect("write bench JSON");
}
