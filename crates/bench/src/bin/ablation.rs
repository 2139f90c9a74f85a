//! Ablation study (beyond the paper, motivated by its section III
//! discussion): what does each ingredient of the joint flow buy?
//!
//! * `no-scalopt` — the joint WLO/SLP without the fig. 1b scaling
//!   optimization: mismatched per-lane scalings must unpack/shift/repack;
//! * `no-acc-conflicts` — candidate validation only, without the
//!   pairwise accuracy-conflict detection (fig. 1c lines 16-22): the
//!   selection may paint itself into a corner and lose groups at the
//!   `on_select` guard.
//!
//!   Both ablations run one accuracy-aware extraction per block, with
//!   no scheduler guard, so each is compared against `reference`: the
//!   same ablation flow with nothing removed, which differs from each
//!   ablated column in exactly the named ingredient. The `wlo-slp`
//!   column is the real, guarded joint flow, printed for context only;
//!   its gap to the ablated columns mixes the guard with the ingredient;
//! * **benefit models** — `BenefitKind::Slots` (target-blind issue-slot
//!   counting) vs `BenefitKind::Cycles` (candidates priced through
//!   `TargetModel::cost`) across the full 8-benchmark suite and all four
//!   targets, with selection time and scheduled cycles-per-activation
//!   recorded to `BENCH_benefit.json`;
//! * **schedulers** — `SchedKind::List` vs `SchedKind::Modulo` through
//!   the joint flow at −40 dB on single-issue VEX (slot-bound: pure
//!   latency-hiding) and ST240 (multi-issue: pipelined pricing changes
//!   which packs are admitted): pipelined vs flat cycles per
//!   activation, group-count flips, and the modulo scheduler's
//!   budget-fallback rate across every eligible block, recorded to
//!   `BENCH_sched.json` (own `--sched-json` flag — the global `--json`
//!   override belongs to the benefit study);
//! * **selection exactness** — greedy cycle-priced selection vs the
//!   exact `BenefitKind::Optimal` branch-and-bound across the suite on
//!   XENTIUM and single-issue VEX: cycles per activation of both legs,
//!   the relative gap, flow time, and the search's fallback counters,
//!   recorded to `BENCH_optimal.json` (own `--optimal-json` flag), with
//!   the never-slower contract and a zero budget-fallback rate asserted.
//!
//! Each variant is a custom [`CompilationFlow`] strategy plugged into the
//! unified `Optimizer` driver — the extension point new flows register
//! through.
//!
//! Usage: `cargo run --release -p slpwlo-bench --bin ablation`

use slpwlo_bench::micro::{Micro, MicroOptions};
use slpwlo_core::hooks::AccuracyHooks;
use slpwlo_core::{
    cycles_per_activation_cached, lower_fixed, lower_scalar, modulo_attempt_cached,
    modulo_bounds_cached, prepare, scaling_optimize, ModuloAttempt, SchedKind,
};
use slpwlo_driver::{
    required_constraint, BenefitKind, CompilationFlow, Error, FlowContext, FlowKind, FlowOutput,
    Optimizer,
};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::blocks::blocks_by_priority;
use slpwlo_ir::dfg::Dfg;
use slpwlo_kernels::{all_benchmarks, paper_benchmarks, Benchmark};
use slpwlo_slp::{extract_rounds, BenefitModel, PassCtx, Round, SelectStats};
use slpwlo_targets::{all_targets, st240, vex, xentium, CycleCache, TargetModel};

/// Which ingredient the ablated joint flow drops; `Nothing` is the
/// reference every ablation is compared against.
#[derive(Clone, Copy, PartialEq)]
enum Ablate {
    Nothing,
    Scalopt,
    AccConflicts,
}

/// The joint `WLO-SLP` flow with one ingredient removed, expressed as a
/// driver strategy.
struct AblatedWloSlp(Ablate);

impl CompilationFlow for AblatedWloSlp {
    fn name(&self) -> &'static str {
        match self.0 {
            Ablate::Nothing => "wlo-slp/reference",
            Ablate::Scalopt => "wlo-slp/no-scalopt",
            Ablate::AccConflicts => "wlo-slp/no-acc-conflicts",
        }
    }

    fn run(&self, ctx: &FlowContext<'_>) -> Result<FlowOutput, Error> {
        let db = required_constraint(ctx, self.name())?;
        let prep = ctx.prep;
        let target = ctx.target;
        let mut spec = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
        // The joint flow's selection context, equalization included, so
        // each ablation removes exactly one ingredient.
        let costs = CycleCache::new(target);
        let mut pass = PassCtx::new(costs, BenefitKind::default(), SchedKind::List, true);
        let mut per_block = Vec::new();
        for block in blocks_by_priority(&prep.kernel) {
            let dfg = Dfg::from_block(&prep.kernel, &block);
            let mut hooks = AccuracyHooks::new(&dfg, &mut spec, &prep.eval, db);
            if self.0 == Ablate::AccConflicts {
                hooks = hooks.without_pair_conflicts();
            }
            let groups = extract_rounds(&mut pass, &dfg, &mut hooks);
            if self.0 != Ablate::Scalopt {
                let _ = scaling_optimize(&mut spec, &dfg, &groups, &prep.eval, db, target);
            }
            per_block.push((block, dfg, groups));
        }
        let group_count = per_block.iter().map(|(_, _, g)| g.len()).sum();
        let program = lower_fixed(&prep.kernel, &spec, target, &per_block);
        let scalar = lower_scalar(&prep.kernel, &spec, target);
        use slpwlo_accuracy::AccuracyEvaluator;
        let noise_db = prep.eval.noise_db(&spec);
        Ok(FlowOutput {
            spec: Some(spec),
            program,
            scalar,
            group_count,
            noise_db: Some(noise_db),
            select: SelectStats::default(),
        })
    }
}

/// Slots-vs-cycles benefit-model comparison over the full benchmark
/// suite: per (benchmark, target, model) the wall-clock selection time
/// and the scheduled cycles per activation of the produced SIMD program,
/// recorded to `BENCH_benefit.json` (the bench-smoke CI artifact).
fn benefit_model_study() -> Result<(), Error> {
    let mut micro = Micro::for_bench("benefit");
    println!(
        "\nBenefit models across the 8-benchmark suite (cycles/activation at -40 dB)\n\
         {:<18} {:<8} {:>14} {:>14} {:>12}",
        "bench", "target", "slots", "cycles", "price-ratio"
    );
    for bench in all_benchmarks() {
        for target in all_targets() {
            let mut per_model = Vec::new();
            for kind in [BenefitKind::Slots, BenefitKind::Cycles] {
                let opt = Optimizer::for_kernel(bench.kernel.clone())?
                    .target(target.clone())
                    .constraint_db(-40.0)
                    .flow(FlowKind::WloSlp)
                    .benefit_kind(kind);
                // End-to-end joint-flow time. NOTE: this is not a pure
                // model-overhead comparison — the two pricings admit
                // different packings, so later extraction rounds see
                // different candidate sets (legitimately different work).
                // The timed closure's last run doubles as the report, so
                // the pipeline is not executed an extra time.
                let mut report = None;
                micro.bench(
                    &format!("select/{}/{}/{kind}", bench.name, target.name),
                    || report = Some(opt.run().expect("feasible point")),
                );
                let report = report.expect("bench ran at least once");
                let costs = CycleCache::new(&target);
                let cpa = cycles_per_activation_cached(&costs, &report.simd, SchedKind::List);
                micro.metric(
                    &format!("cpa/{}/{}/{kind}", bench.name, target.name),
                    cpa as f64,
                );
                per_model.push(cpa);
            }
            let ratio = pricing_overhead(&mut micro, &bench, &target);
            println!(
                "{:<18} {:<8} {:>14} {:>14} {:>12.3}",
                bench.name, target.name, per_model[0], per_model[1], ratio
            );
        }
    }
    micro.finish().expect("write BENCH_benefit.json");
    Ok(())
}

/// Controlled cycles-vs-slots pricing overhead: assess every candidate
/// of each block's first extraction round under both models with
/// identical max-word-length oracles. No candidate is admitted, so both
/// models price the exact same work — the ratio isolates what pricing in
/// target cycles costs over counting issue slots.
fn pricing_overhead(micro: &mut Micro, bench: &Benchmark, target: &TargetModel) -> f64 {
    let prep = prepare(bench.kernel.clone());
    let rounds: Vec<(Dfg, Round)> = blocks_by_priority(&prep.kernel)
        .into_iter()
        .map(|block| {
            let dfg = Dfg::from_block(&prep.kernel, &block);
            let round = Round::new(&dfg, target, &[]);
            (dfg, round)
        })
        .collect();
    let max_wl = target.max_wl();
    let mut medians = [0.0f64; 2];
    for (k, kind) in [BenefitKind::Slots, BenefitKind::Cycles]
        .into_iter()
        .enumerate()
    {
        // Selection prices a whole leg through its context's one cache;
        // mirror that here so the sweep prices through a warmed cache,
        // not cold target folds.
        let ctx = PassCtx::new(CycleCache::new(target), kind, SchedKind::List, false);
        medians[k] = micro.bench(
            &format!("price/{}/{}/{kind}", bench.name, target.name),
            || {
                let mut acc = 0.0;
                for (dfg, round) in &rounds {
                    let model = BenefitModel::new(dfg, round, &ctx, move |_| max_wl, |_| None);
                    let alive = vec![true; round.candidates.len()];
                    let pass = model.pass(&alive, &[]);
                    for i in 0..round.candidates.len() {
                        acc += pass.assess(i).net();
                    }
                }
                acc
            },
        );
    }
    let ratio = medians[1] / medians[0];
    micro.metric(
        &format!("price_ratio/{}/{}", bench.name, target.name),
        ratio,
    );
    ratio
}

/// List-vs-modulo scheduling study at −40 dB: per benchmark and target
/// the joint flow runs once under each `SchedKind`, recording cycles
/// per activation (pipelined pricing under modulo), the group count
/// each pricing admits, and the time the scheduler spends pricing the
/// finished program. Two targets probe complementary regimes:
///
/// * **VEX-1** — single issue, where the steady state is slot-bound:
///   pipelining squeezes out list-schedule latency bubbles but cannot
///   change which packs are profitable (a pack's slot count prices the
///   same flat or folded);
/// * **ST240** — multi-issue, where pipelined pricing *changes the
///   selection*: a vectorized block whose long latency chains stall
///   sequential issue can lose to its scalar form under list pricing
///   yet win once iterations overlap. The `sched_flips/<target>` metric
///   counts benchmarks where the modulo-priced flow admits packs the
///   list-priced one rejects, and the run asserts at least one flip.
///
/// The modulo scheduler's budget-fallback rate across every eligible
/// block of the produced programs also gates the run: the default
/// per-II budget must cover the suite, or pipelined pricing silently
/// degrades to list pricing.
///
/// Results go to `--sched-json <path>` (default `BENCH_sched.json`) —
/// a dedicated flag because `--json` globally overrides *every*
/// `Micro::for_bench` path in the process and is claimed by the
/// benefit study.
fn sched_study() -> Result<(), Error> {
    let mut micro = Micro::with_options(MicroOptions::from_env_args());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--sched-json")
        .and_then(|pos| args.get(pos + 1).cloned())
        .unwrap_or_else(|| "BENCH_sched.json".to_string());
    let mut total_flips = 0usize;
    let (mut eligible, mut exhausted) = (0u64, 0u64);
    for target in [vex(1), st240()] {
        let costs = CycleCache::new(&target);
        println!(
            "\nList vs modulo scheduling on {} (cycles/activation at -40 dB)\n\
             {:<18} {:>10} {:>10} {:>8} {:>12} {:>12}",
            target.name, "bench", "list", "modulo", "speedup", "groups-list", "groups-mod"
        );
        let mut flips = 0usize;
        for bench in all_benchmarks() {
            let mut cpa = [0u64; 2];
            let mut groups = [0usize; 2];
            for (k, (label, sched)) in [("list", SchedKind::List), ("modulo", SchedKind::modulo())]
                .into_iter()
                .enumerate()
            {
                let report = Optimizer::for_kernel(bench.kernel.clone())?
                    .target(target.clone())
                    .constraint_db(-40.0)
                    .flow(FlowKind::WloSlp)
                    .sched_kind(sched)
                    .run()?;
                cpa[k] = cycles_per_activation_cached(&costs, &report.simd, sched);
                groups[k] = report.group_count;
                micro.metric(
                    &format!("sched_cpa/{}/{}/{label}", bench.name, target.name),
                    cpa[k] as f64,
                );
                micro.metric(
                    &format!("sched_groups/{}/{}/{label}", bench.name, target.name),
                    groups[k] as f64,
                );
                // Pricing-time leg: how long the scheduler itself takes
                // on the finished program (the modulo side re-runs the
                // branch-and-bound search every call).
                micro.bench(
                    &format!("sched_price/{}/{}/{label}", bench.name, target.name),
                    || cycles_per_activation_cached(&costs, &report.simd, sched),
                );
                if let SchedKind::Modulo { budget } = sched {
                    for block in &report.simd.blocks {
                        if modulo_bounds_cached(&costs, block).is_none() {
                            continue;
                        }
                        eligible += 1;
                        if matches!(
                            modulo_attempt_cached(&costs, block, budget),
                            ModuloAttempt::BudgetExhausted
                        ) {
                            exhausted += 1;
                        }
                    }
                }
            }
            if groups[1] > groups[0] {
                flips += 1;
            }
            micro.metric(
                &format!("sched_speedup/{}/{}", bench.name, target.name),
                cpa[0] as f64 / cpa[1].max(1) as f64,
            );
            println!(
                "{:<18} {:>10} {:>10} {:>8.3} {:>12} {:>12}",
                bench.name,
                cpa[0],
                cpa[1],
                cpa[0] as f64 / cpa[1].max(1) as f64,
                groups[0],
                groups[1]
            );
        }
        micro.metric(&format!("sched_flips/{}", target.name), flips as f64);
        total_flips += flips;
    }
    let fallback_rate = if eligible == 0 {
        0.0
    } else {
        exhausted as f64 / eligible as f64
    };
    micro.metric("sched_budget_fallback_rate", fallback_rate);
    assert!(
        fallback_rate <= 0.10,
        "modulo budget exhausted on {exhausted}/{eligible} eligible blocks \
         ({:.0}%): the default budget no longer covers the suite",
        fallback_rate * 100.0
    );
    assert!(
        total_flips >= 1,
        "no benchmark admitted extra packs under modulo pricing on any target"
    );
    micro
        .write_json(std::path::Path::new(&json_path))
        .expect("write sched study JSON");
    println!("wrote {json_path}");
    Ok(())
}

/// Greedy-vs-exact pack-selection study at −40 dB: per benchmark and
/// target the joint flow runs once under the greedy cycle-priced kind
/// and once under [`BenefitKind::Optimal`] (default budget), recording
/// scheduled cycles per activation of both legs, the relative gap, the
/// end-to-end flow time, and the exact selector's search counters. Two
/// gates keep the study honest:
///
/// * the exact kind's cycles never exceed greedy's on any point — the
///   portfolio-arbitration contract, re-checked on real suite data
///   rather than generated kernels;
/// * the default search budget covers the whole suite, gated at
///   **exactly zero** fallbacks: a budget fallback silently degrades
///   "exact" to greedy, so any nonzero rate makes the study's label a
///   lie.
///
/// Results go to `--optimal-json <path>` (default
/// `BENCH_optimal.json`) — a dedicated flag for the same reason as
/// `--sched-json`.
fn optimal_study() -> Result<(), Error> {
    let mut micro = Micro::with_options(MicroOptions::from_env_args());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--optimal-json")
        .and_then(|pos| args.get(pos + 1).cloned())
        .unwrap_or_else(|| "BENCH_optimal.json".to_string());
    let (mut rounds, mut improved, mut budget_fallbacks) = (0u64, 0u64, 0u64);
    let mut improved_points = 0usize;
    for target in [xentium(), vex(1)] {
        println!(
            "\nGreedy vs exact pack selection on {} (cycles/activation at -40 dB)\n\
             {:<18} {:>10} {:>10} {:>8} {:>10}",
            target.name, "bench", "greedy", "optimal", "gap", "rounds"
        );
        for bench in all_benchmarks() {
            let mut cpa = [0u64; 2];
            let mut stats = SelectStats::default();
            for (k, (label, kind)) in [
                ("greedy", BenefitKind::Cycles),
                ("optimal", BenefitKind::optimal()),
            ]
            .into_iter()
            .enumerate()
            {
                let opt = Optimizer::for_kernel(bench.kernel.clone())?
                    .target(target.clone())
                    .constraint_db(-40.0)
                    .flow(FlowKind::WloSlp)
                    .benefit_kind(kind);
                // End-to-end flow time: the optimal leg pays for the
                // branch-and-bound search *and* the greedy portfolio
                // leg it arbitrates against. The timed closure's last
                // run doubles as the report.
                let mut report = None;
                micro.bench(
                    &format!("optimal_time/{}/{}/{label}", bench.name, target.name),
                    || report = Some(opt.run().expect("feasible point")),
                );
                let report = report.expect("bench ran at least once");
                let costs = CycleCache::new(&target);
                cpa[k] = cycles_per_activation_cached(&costs, &report.simd, SchedKind::List);
                micro.metric(
                    &format!("optimal_cpa/{}/{}/{label}", bench.name, target.name),
                    cpa[k] as f64,
                );
                if k == 1 {
                    stats = report.select;
                }
            }
            assert!(
                cpa[1] <= cpa[0],
                "{} on {}: exact selection scheduled slower than greedy ({} > {})",
                bench.name,
                target.name,
                cpa[1],
                cpa[0]
            );
            let gap = (cpa[0] as f64 - cpa[1] as f64) / cpa[0].max(1) as f64;
            micro.metric(&format!("optimal_gap/{}/{}", bench.name, target.name), gap);
            if cpa[1] < cpa[0] {
                improved_points += 1;
            }
            rounds += stats.rounds;
            improved += stats.improved;
            budget_fallbacks += stats.budget_fallbacks;
            println!(
                "{:<18} {:>10} {:>10} {:>7.1}% {:>10}",
                bench.name,
                cpa[0],
                cpa[1],
                gap * 100.0,
                stats.rounds
            );
        }
    }
    micro.metric("optimal_rounds", rounds as f64);
    micro.metric("optimal_improved_rounds", improved as f64);
    micro.metric("optimal_improved_points", improved_points as f64);
    let fallback_rate = if rounds == 0 {
        0.0
    } else {
        budget_fallbacks as f64 / rounds as f64
    };
    micro.metric("optimal_budget_fallback_rate", fallback_rate);
    assert_eq!(
        budget_fallbacks, 0,
        "exact search budget exhausted on {budget_fallbacks}/{rounds} rounds: \
         the default budget no longer covers the suite"
    );
    micro
        .write_json(std::path::Path::new(&json_path))
        .expect("write optimal study JSON");
    println!("wrote {json_path}");
    Ok(())
}

fn main() -> Result<(), Error> {
    let target = xentium();
    println!(
        "Ablation on {} (SIMD cycles, N=2048; lower is better; ablations \
         differ from `reference` in one ingredient, `wlo-slp` is the guarded flow)\n\
         {:<8} {:>6} {:>16} {:>16} {:>12} {:>16}",
        target.name, "bench", "dB", "wlo-slp", "reference", "no-scalopt", "no-acc-conflicts"
    );
    for bench in paper_benchmarks() {
        let mut opt = Optimizer::for_kernel(bench.kernel.clone())?
            .target(target.clone())
            .activations(2048);
        for db in [-20.0, -50.0, -80.0] {
            opt = opt.constraint_db(db);
            opt = opt.flow(FlowKind::WloSlp);
            let flow = opt.run()?;
            opt = opt.custom_flow(Box::new(AblatedWloSlp(Ablate::Nothing)));
            let reference = opt.run()?;
            opt = opt.custom_flow(Box::new(AblatedWloSlp(Ablate::Scalopt)));
            let nos = opt.run()?;
            opt = opt.custom_flow(Box::new(AblatedWloSlp(Ablate::AccConflicts)));
            let noc = opt.run()?;
            println!(
                "{:<8} {:>6.0} {:>10} g={:<3} {:>10} g={:<3} {:>12} {:>10} g={:<3}",
                bench.name,
                db,
                flow.cycles_simd,
                flow.group_count,
                reference.cycles_simd,
                reference.group_count,
                nos.cycles_simd,
                noc.cycles_simd,
                noc.group_count
            );
        }
    }
    benefit_model_study()?;
    sched_study()?;
    optimal_study()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `no-acc-conflicts` ablation's reports, pinned: an FNV-1a
    /// digest over each point's group count, predicted-noise bits and
    /// scheduled SIMD cycles, for the paper kernels on XENTIUM and ST240
    /// at -40, -60 and -84 dB. At -84 dB the dropped pair conflicts
    /// change IIR's XENTIUM selection (4 groups instead of 3), so the
    /// digest also tells the ablation from the full accuracy hooks.
    #[test]
    fn no_acc_conflicts_reports_are_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for bench in paper_benchmarks() {
            for target in [xentium(), st240()] {
                for db in [-40.0, -60.0, -84.0] {
                    let r = Optimizer::for_kernel(bench.kernel.clone())
                        .expect("suite kernel")
                        .target(target.clone())
                        .constraint_db(db)
                        .custom_flow(Box::new(AblatedWloSlp(Ablate::AccConflicts)))
                        .run()
                        .expect("feasible point");
                    fold(r.group_count as u64);
                    fold(r.noise_db.map_or(0, f64::to_bits));
                    fold(r.cycles_simd);
                }
            }
        }
        assert_eq!(h, 0x4093_a993_e2cc_341e, "digest {h:#018x}");
    }
}
