//! Differential harness for the exact pack selector
//! ([`BenefitKind::Optimal`]) against the greedy cycle-priced selector:
//!
//! 1. **never slower** — on the benchmark suite × {XENTIUM, VEX-1} ×
//!    constraint grid, the exact kind's final cycle count never exceeds
//!    greedy's (the portfolio arbitration makes this an end-to-end
//!    contract, not just a per-round model statement), every leg the
//!    flow runs is under full paranoid pass-boundary verification, and
//!    the default search budget never trips;
//! 2. **corpus slice** — the same inequality over a seeded generated
//!    corpus (`SLPWLO_FUZZ_SEEDS`, default 64);
//! 3. **budget-0 determinism** — `Optimal { budget: 0 }` degrades to a
//!    bit-identical rerun of the greedy kind (spec, SIMD and scalar
//!    programs), with the fallback recorded in the report's stats;
//! 4. **exhaustive agreement** — driving rounds by hand under a frozen
//!    word-length oracle, every committed round is spot-checked against
//!    brute-force subset enumeration via `verify_optimal_selection`;
//! 5. **search work** — the include-steps CFIR's exact, pipelined
//!    compile on ST240 spends are pinned, so a change to the search's
//!    pruning shows up as a moved count, not only as a moved timing.

use slpwlo::core::SchedKind;
use slpwlo::gen::KernelGen;
use slpwlo::kernels::all_benchmarks;
use slpwlo::kernels::complex_fir32;
use slpwlo::targets::{st240, vex, xentium};
use slpwlo::{BenefitKind, Error, FlowKind, Optimizer, VerifyLevel};

const DBS: [f64; 2] = [-20.0, -50.0];

fn corpus() -> Vec<u64> {
    let n: u64 = std::env::var("SLPWLO_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    (0..n).collect()
}

/// Runs one (kernel, target, db) point under both kinds and returns
/// `(greedy, exact)` reports; `None` when the constraint is
/// unsatisfiable on this target.
fn both_kinds(
    opt: Optimizer,
    db: f64,
) -> Result<(Optimizer, Option<(slpwlo::Report, slpwlo::Report)>), Error> {
    let opt = opt.benefit_kind(BenefitKind::Cycles);
    let greedy = match opt.run_at(db) {
        Ok(r) => r,
        Err(Error::Unsatisfiable { .. }) => return Ok((opt, None)),
        Err(e) => return Err(e),
    };
    let opt = opt.benefit_kind(BenefitKind::optimal());
    let exact = opt.run_at(db)?;
    Ok((opt, Some((greedy, exact))))
}

/// The exact kind never returns a program that schedules slower than
/// the greedy kind's, on any suite × target × constraint point; both
/// legs hold up under paranoid verification and the default budget
/// suffices everywhere.
#[test]
fn optimal_never_slower_than_greedy_on_the_suite() {
    let mut compared = 0usize;
    for bench in all_benchmarks() {
        for target in [xentium(), vex(1)] {
            let mut opt = Optimizer::for_kernel(bench.kernel.clone())
                .expect("suite kernels validate")
                .target(target.clone())
                .verify_level(VerifyLevel::Paranoid);
            for db in DBS {
                let (returned, pair) = both_kinds(opt, db).unwrap_or_else(|e| {
                    panic!("{} on {} at {db} dB: {e}", bench.name, target.name)
                });
                opt = returned;
                let Some((greedy, exact)) = pair else {
                    continue;
                };
                compared += 1;
                assert!(
                    exact.cycles_simd <= greedy.cycles_simd,
                    "{} on {} at {db} dB: optimal {} cycles, greedy {}",
                    bench.name,
                    target.name,
                    exact.cycles_simd,
                    greedy.cycles_simd
                );
                assert_eq!(
                    exact.select.budget_fallbacks, 0,
                    "{} on {} at {db} dB: default budget exhausted",
                    bench.name, target.name
                );
                assert_eq!(
                    greedy.select,
                    Default::default(),
                    "greedy kinds must not touch the search stats"
                );
            }
        }
    }
    assert!(compared > 0, "no suite point was satisfiable");
}

/// The same inequality over the generated-kernel corpus (one target,
/// one constraint per kernel keeps the pass proportionate; the suite
/// covers the target × constraint axes).
#[test]
fn optimal_never_slower_than_greedy_on_the_corpus() {
    let mut compared = 0usize;
    for seed in corpus() {
        let kernel = match KernelGen::with_seed(seed).gen_plan().build() {
            Ok(k) => k,
            Err(_) => continue, // generator rejects its own plan: not this test's bug
        };
        let opt = match Optimizer::for_kernel(kernel) {
            Ok(o) => o.target(xentium()),
            Err(_) => continue, // degenerate generated kernel
        };
        let (_, pair) = both_kinds(opt, -30.0).unwrap_or_else(|e| panic!("gk{seed}: {e}"));
        let Some((greedy, exact)) = pair else {
            continue;
        };
        compared += 1;
        assert!(
            exact.cycles_simd <= greedy.cycles_simd,
            "gk{seed}: optimal {} cycles, greedy {}",
            exact.cycles_simd,
            greedy.cycles_simd
        );
    }
    assert!(compared > 0, "the whole corpus was skipped");
}

/// A zero search budget falls back to greedy on every round, and the
/// fallback is *bitwise*: same spec, same SIMD program, same scalar
/// program as running the greedy kind outright.
#[test]
fn zero_budget_is_bitwise_greedy() {
    for bench in all_benchmarks().into_iter().take(3) {
        let target = xentium();
        let opt = Optimizer::for_kernel(bench.kernel.clone())
            .expect("suite kernels validate")
            .target(target);
        let opt = opt.benefit_kind(BenefitKind::Cycles);
        let greedy = opt.run_at(-40.0).expect("greedy leg runs");
        let opt = opt.benefit_kind(BenefitKind::Optimal { budget: 0 });
        let exact = opt.run_at(-40.0).expect("budget-0 leg runs");
        assert_eq!(
            format!("{:?}", exact.spec),
            format!("{:?}", greedy.spec),
            "{}: budget-0 spec diverged from greedy",
            bench.name
        );
        assert_eq!(
            format!("{:?}", exact.simd),
            format!("{:?}", greedy.simd),
            "{}: budget-0 SIMD program diverged from greedy",
            bench.name
        );
        assert_eq!(
            format!("{:?}", exact.scalar),
            format!("{:?}", greedy.scalar),
            "{}: budget-0 scalar program diverged from greedy",
            bench.name
        );
        assert_eq!(exact.select.improved, 0, "{}", bench.name);
        assert_eq!(exact.select.veto_fallbacks, 0, "{}", bench.name);
        // Rounds whose search never attempts an include (empty pool, or
        // the greedy incumbent already matches the bound) end without
        // touching the budget, so fallbacks can undercut rounds — but
        // never exceed them.
        assert!(
            exact.select.budget_fallbacks <= exact.select.rounds,
            "{}: more fallbacks than rounds",
            bench.name
        );
    }
}

/// Driving the selection rounds by hand under a frozen word-length
/// oracle, every round the exact selector commits agrees with
/// brute-force subset enumeration (`verify_optimal_selection` skips
/// rounds too large to enumerate — the final assert proves the check
/// actually fired).
#[test]
fn committed_rounds_agree_with_exhaustive_enumeration() {
    use slpwlo::ir::blocks::collect_blocks;
    use slpwlo::ir::dfg::{Dfg, NodeId};
    use slpwlo::slp::{absorb_selected, run_selection, FrozenWls, PassCtx, Round, SimdGroup};
    use slpwlo::verify::verify_optimal_selection;

    let wl = |_: NodeId| 16;
    let mut verified_rounds = 0usize;
    for bench in all_benchmarks() {
        for target in [xentium(), st240()] {
            for block in collect_blocks(&bench.kernel) {
                let dfg = Dfg::from_block(&bench.kernel, &block);
                let mut groups: Vec<SimdGroup> = Vec::new();
                let exact = BenefitKind::optimal();
                let mut ctx = PassCtx::new(&target, exact, SchedKind::List, false);
                loop {
                    let round = Round::new(&dfg, &target, &groups);
                    let live = (0..round.candidates.len())
                        .filter(|&i| {
                            let view = round.view(&target, i);
                            matches!(target.container_wl(16), Some(c) if c <= view.elem_wl)
                        })
                        .count();
                    let mut hooks = FrozenWls {
                        target: &target,
                        wl: &wl,
                        fwl: None,
                    };
                    let chosen = run_selection(&mut ctx, &dfg, &round, &groups, &mut hooks);
                    verify_optimal_selection(&dfg, &target, &groups, &chosen, &wl, 14, bench.name)
                        .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name, target.name));
                    if live <= 14 && live > 0 {
                        verified_rounds += 1;
                    }
                    if chosen.is_empty() {
                        break;
                    }
                    absorb_selected(&mut groups, chosen);
                }
            }
        }
    }
    assert!(
        verified_rounds > 0,
        "no round was small enough for the exhaustive spot-check"
    );
}

/// The branch-and-bound's include-steps are deterministic: CFIR on
/// ST240 at -40 dB, exact selection with modulo scheduling (the
/// maximum-quality compile), spends exactly this many over all rounds,
/// well inside one round's default budget.
#[test]
fn cfir_exact_include_steps_are_pinned() {
    let report = Optimizer::for_kernel(complex_fir32())
        .expect("suite kernel")
        .target(st240())
        .constraint_db(-40.0)
        .benefit_kind(BenefitKind::optimal())
        .sched_kind(SchedKind::modulo())
        .run_with(FlowKind::WloSlp)
        .expect("CFIR meets -40 dB on ST240");
    let stats = report.select;
    assert_eq!(stats.budget_fallbacks, 0);
    assert_eq!(stats.include_steps, 1_684, "{stats:?}");
}
