//! The incremental-evaluator migration must not change any search
//! outcome: tabu WLO and the joint SLP-aware WLO (SETMAXWL + scaling
//! optimization) must produce **identical** specifications — same word
//! lengths, same noise, same lowered cycle counts — whether the accuracy
//! oracle is the plain full-recompute [`AnalyticalEvaluator`] (the
//! pre-migration behaviour, via the trait's default trial methods) or the
//! [`IncrementalEvaluator`] the flows now use.

use slpwlo::accuracy::{AccuracyEvaluator, IncrementalEvaluator};
use slpwlo::core::{prepare, tabu_wlo, total_cycles_cached, wlo_slp_sched, TabuOptions};
use slpwlo::core::{BenefitKind, SchedKind};
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::kernels::{biquad_cascade4, complex_fir32, conv3x3, fir64, iir10, matvec16x16};
use slpwlo::targets::{xentium, CycleCache};

fn assert_specs_identical(
    kernel: &slpwlo::ir::Kernel,
    a: &FixedPointSpec,
    b: &FixedPointSpec,
    ctx: &str,
) {
    for key in a.optimizable_keys(kernel) {
        assert_eq!(
            a.format(key),
            b.format(key),
            "{ctx}: format of {key} differs"
        );
    }
}

#[test]
fn tabu_is_identical_with_and_without_incremental_evaluation() {
    for (kernel, db) in [
        (fir64(), -40.0),
        (iir10(), -35.0),
        (conv3x3(), -50.0),
        (matvec16x16(), -40.0),
        (complex_fir32(), -40.0),
        (biquad_cascade4(), -40.0),
    ] {
        let name = kernel.name().to_string();
        let prep = prepare(kernel);
        let target = xentium();

        let mut spec_full =
            FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
        let cost_full = tabu_wlo(
            &prep.kernel,
            &mut spec_full,
            &prep.eval,
            db,
            &target.scalar_wls,
            &TabuOptions::default(),
        );

        let mut spec_inc = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
        let inc = IncrementalEvaluator::new(&prep.eval);
        let cost_inc = tabu_wlo(
            &prep.kernel,
            &mut spec_inc,
            &inc,
            db,
            &target.scalar_wls,
            &TabuOptions::default(),
        );

        assert_eq!(cost_full, cost_inc, "{name}: tabu cost diverged");
        assert_specs_identical(&prep.kernel, &spec_full, &spec_inc, &name);
        assert_eq!(
            prep.eval.noise_db(&spec_full).to_bits(),
            prep.eval.noise_db(&spec_inc).to_bits(),
            "{name}: noise diverged"
        );
    }
}

#[test]
fn wlo_slp_is_identical_with_and_without_incremental_evaluation() {
    for (kernel, db) in [
        (fir64(), -35.0),
        (iir10(), -30.0),
        (conv3x3(), -45.0),
        (matvec16x16(), -40.0),
        (complex_fir32(), -40.0),
        (biquad_cascade4(), -40.0),
    ] {
        let name = kernel.name().to_string();
        let prep = prepare(kernel);
        let target = xentium();

        let run = |eval: &dyn AccuracyEvaluator| {
            let (benefit, sched) = (BenefitKind::default(), SchedKind::List);
            wlo_slp_sched(
                &prep.kernel,
                &target,
                eval,
                db,
                &prep.ranges,
                benefit,
                sched,
            )
        };
        let res_full = run(&prep.eval);
        let res_inc = run(&IncrementalEvaluator::new(&prep.eval));

        // Same SETMAXWL outcome: groups, word lengths, noise.
        assert_eq!(
            res_full.group_count(),
            res_inc.group_count(),
            "{name}: group count diverged"
        );
        assert_specs_identical(&prep.kernel, &res_full.spec, &res_inc.spec, &name);
        assert_eq!(
            prep.eval.noise_db(&res_full.spec).to_bits(),
            prep.eval.noise_db(&res_inc.spec).to_bits(),
            "{name}: noise diverged"
        );
        for (bf, bi) in res_full.blocks.iter().zip(&res_inc.blocks) {
            assert_eq!(bf.scalopt, bi.scalopt, "{name}: scalopt stats diverged");
            assert_eq!(
                bf.groups.len(),
                bi.groups.len(),
                "{name}: per-block groups diverged"
            );
        }

        // Same cycle counts after lowering both results.
        let lower = |res: &slpwlo::core::WloSlpResult| {
            let blocks: Vec<_> = res
                .blocks
                .iter()
                .map(|b| (b.block.clone(), b.dfg.clone(), b.groups.clone()))
                .collect();
            let prog = slpwlo::core::lower_fixed(&prep.kernel, &res.spec, &target, &blocks);
            total_cycles_cached(&CycleCache::new(&target), &prog, 2048, SchedKind::List)
        };
        assert_eq!(
            lower(&res_full),
            lower(&res_inc),
            "{name}: cycle counts diverged"
        );
    }
}
