//! Property-style integration tests over generated kernels.
//!
//! The original version of this suite used `proptest`; the workspace
//! builds fully offline, so the same properties are exercised over
//! deterministic parameter grids instead — every case that runs in CI is
//! reproducible by construction.

use slpwlo::fixedpoint::range::determine_ranges;
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::ir::builder::KernelBuilder;
use slpwlo::ir::interp::{Executor, FloatSem};
use slpwlo::ir::unroll::unroll;
use slpwlo::ir::Kernel;
use slpwlo::slp::{BenefitKind, PassCtx};

/// Builds a random FIR-like kernel: `taps` MACs in a loop, arbitrary
/// (bounded) coefficients.
fn random_fir(taps: u32, coeffs: Vec<f64>) -> (Kernel, slpwlo::ir::LoopId) {
    let mut b = KernelBuilder::new("prop");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let c = b.param("c", coeffs);
    let dl = b.array("dl", taps as usize);
    let acc = b.var("acc");
    let xv = b.read_input(x);
    b.shift_in(dl, xv);
    let z = b.constf(0.0);
    b.assign(acc, z);
    let i = b.begin_for(taps);
    let cv = b.load_param_ix(c, slpwlo::ir::IndexExpr::affine(i, 1, 0));
    let lv = b.load_ix(dl, slpwlo::ir::IndexExpr::affine(i, 1, 0));
    let m = b.mul(cv, lv);
    let av = b.read_var(acc);
    let s = b.add(av, m);
    b.assign(acc, s);
    b.end_for(i);
    let r = b.read_var(acc);
    b.set_output(y, r);
    (b.finish(), i)
}

fn run_float(k: &Kernel, xs: &[f64]) -> Vec<f64> {
    let mut ex = Executor::new(k, FloatSem);
    ex.run(&[xs.to_vec()])[0].clone()
}

/// Unrolling by any factor preserves interpreter semantics exactly.
#[test]
fn unrolling_preserves_semantics() {
    for (taps, factor, seed) in [
        (2u32, 1u32, 0u64),
        (3, 2, 17),
        (5, 3, 101),
        (7, 4, 419),
        (8, 4, 23),
        (11, 5, 777),
        (13, 7, 999),
        (16, 8, 5),
        (23, 6, 321),
    ] {
        let coeffs: Vec<f64> = (0..taps)
            .map(|i| (((i as u64 * 2654435761 + seed) % 2001) as f64 / 1000.0 - 1.0) / taps as f64)
            .collect();
        let xs: Vec<f64> = (0..48)
            .map(|i| ((i as u64 * 40503 + seed) % 2001) as f64 / 1000.0 - 1.0)
            .collect();
        let (k0, _) = random_fir(taps, coeffs.clone());
        let before = run_float(&k0, &xs);
        let (mut k1, l) = random_fir(taps, coeffs);
        unroll(&mut k1, l, factor).unwrap();
        let after = run_float(&k1, &xs);
        for (a, b) in before.iter().zip(&after) {
            assert!(
                (a - b).abs() < 1e-12,
                "taps {taps} factor {factor} seed {seed}"
            );
        }
    }
}

/// The fixed-point simulator's output error is bounded by the total
/// quantization budget of the specification (a loose analytical bound:
/// the sum of all node steps times their trip counts).
#[test]
fn fixed_error_bounded_by_format_budget() {
    for (taps, wl, seed) in [
        (2u32, 10i32, 0u64),
        (3, 12, 11),
        (4, 14, 29),
        (5, 16, 47),
        (7, 18, 61),
        (8, 20, 83),
        (9, 24, 7),
        (11, 27, 99),
    ] {
        let coeffs: Vec<f64> = (0..taps)
            .map(|i| (((i as u64 * 97 + seed) % 1000) as f64 / 1000.0) / taps as f64)
            .collect();
        let (k, _) = random_fir(taps, coeffs);
        let ranges = determine_ranges(&k);
        let spec = FixedPointSpec::from_ranges(&k, &ranges, wl);
        let xs: Vec<f64> = (0..64)
            .map(|i| ((i as u64 * 7919 + seed) % 2001) as f64 / 1000.0 - 1.0)
            .collect();
        let m = slpwlo::accuracy::measure_noise(&k, &spec, &[xs]);
        // Very loose bound: every one of the ~3*taps quantization sites
        // errs below one step of the coarsest useful grid 2^-(wl-4).
        let bound = (3.0 * taps as f64 + 4.0) * f64::powi(2.0, -(wl - 4));
        assert!(
            m.max_abs_error <= bound,
            "max error {} vs bound {} at wl {}",
            m.max_abs_error,
            bound,
            wl
        );
    }
}

/// SLP extraction on a random block never packs dependent nodes and
/// never reuses a node across groups.
#[test]
fn extraction_respects_structure() {
    for taps in [4u32, 5, 7, 8, 11, 12, 15] {
        for wl in [8i32, 16] {
            let coeffs: Vec<f64> = (0..taps).map(|i| 0.5 / (i + 1) as f64).collect();
            let (mut k, l) = random_fir(taps, coeffs);
            unroll(&mut k, l, 4).unwrap();
            let blocks = slpwlo::ir::blocks::collect_blocks(&k);
            let target = slpwlo::targets::vex(4);
            for b in &blocks {
                let dfg = slpwlo::ir::Dfg::from_block(&k, b);
                let costs = slpwlo::targets::CycleCache::new(&target);
                let kind = BenefitKind::default();
                let mut ctx = PassCtx::new(costs, kind, slpwlo::targets::SchedKind::List, false);
                let mut hooks = slpwlo::slp::FrozenWls {
                    target: &target,
                    wl: &|_| wl,
                    fwl: None,
                };
                let groups = slpwlo::slp::extract_rounds(&mut ctx, &dfg, &mut hooks);
                let mut seen = std::collections::HashSet::new();
                for g in &groups {
                    for (i, &a) in g.elems.iter().enumerate() {
                        assert!(seen.insert(a), "node reused across groups");
                        for &b2 in &g.elems[i + 1..] {
                            assert!(dfg.independent(a, b2), "dependent nodes packed");
                        }
                    }
                    assert!(
                        target.simd_element_wl(g.lanes()).is_some(),
                        "unsupported group width {}",
                        g.lanes()
                    );
                }
            }
        }
    }
}

/// Lowered machine programs always have backward-pointing deps (valid
/// topological order), whatever the constraint.
#[test]
fn lowering_is_topologically_valid() {
    let bench = slpwlo::kernels::fir64();
    let prep = slpwlo::core::prepare(bench);
    for db in [-100.0f64, -85.0, -60.0, -42.5, -25.0, -10.0] {
        let flow = slpwlo::core::wlo_slp_flow_checked(
            &prep,
            &slpwlo::targets::vex(4),
            db,
            BenefitKind::default(),
            slpwlo::core::SchedKind::List,
            &mut |_| Ok::<(), std::convert::Infallible>(()),
        )
        .unwrap();
        for block in &flow.simd.blocks {
            for (i, op) in block.ops.iter().enumerate() {
                for &p in &op.preds {
                    assert!(p < i, "forward-pointing dep at {db} dB");
                }
            }
        }
    }
}
