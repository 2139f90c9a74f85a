//! Property tests for the scheduler abstraction: flat list scheduling
//! vs exact modulo scheduling (`SchedKind`).
//!
//! Over the 8-benchmark suite × {XENTIUM, VEX-4} × wl {12, 16, 24, 32}
//! and a seeded generated corpus (`SLPWLO_FUZZ_SEEDS`, default 64):
//!
//! 1. **list bit-identity** — `SchedKind::List` through a warmed
//!    `CycleCache` is field-identical to the same schedule priced
//!    through a fresh cache, deterministic across repeated runs, and
//!    never carries a modulo overlay;
//! 2. **II optimality and bounds** — every pipelined block achieves
//!    `II ≥ max(ResMII, RecMII)`, with equality on blocks free of
//!    loop-carried dependences (the exact search leaves no slack when
//!    nothing recurrent constrains it);
//! 3. **audit acceptance** — `verify_program_sched` accepts every
//!    lowering at both `SchedKind`s, so the independent re-derivation
//!    in `slpwlo-verify` agrees with the scheduler across the corpus;
//! 4. **audit rejection** — a hand-shifted steady state (the whole
//!    issue log folded onto one residue) must *fail* the modulo audit:
//!    acceptance is only meaningful if illegal overlaps die.

mod common;

use common::simd_program;
use slpwlo::core::{
    loop_carried_deps, lower_scalar, modulo_bounds_cached, schedule_block_cached, MachineProgram,
    SchedKind,
};
use slpwlo::fixedpoint::range::determine_ranges;
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::gen::KernelGen;
use slpwlo::ir::Kernel;
use slpwlo::kernels::all_benchmarks;
use slpwlo::targets::{vex, xentium, CycleCache, TargetModel};
use slpwlo::verify::{audit_block_schedule, verify_program_sched};

const WLS: [i32; 4] = [12, 16, 24, 32];

fn targets() -> [TargetModel; 2] {
    [xentium(), vex(4)]
}

fn corpus() -> Vec<u64> {
    let n: u64 = std::env::var("SLPWLO_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    (0..n).collect()
}

/// Both lowerings of one kernel at one word length.
fn lowerings(kernel: &Kernel, wl: i32, target: &TargetModel) -> [MachineProgram; 2] {
    let ranges = determine_ranges(kernel);
    let spec = FixedPointSpec::from_ranges(kernel, &ranges, wl);
    [
        simd_program(kernel, &spec, target),
        lower_scalar(kernel, &spec, target),
    ]
}

/// Every kernel of the suite + corpus, each checked by `check` across
/// the full target × word-length matrix.
fn for_all_lowerings(mut check: impl FnMut(&str, &TargetModel, &MachineProgram)) {
    for bench in all_benchmarks() {
        for target in targets() {
            for wl in WLS {
                for program in &lowerings(&bench.kernel, wl, &target) {
                    check(bench.name, &target, program);
                }
            }
        }
    }
    for seed in corpus() {
        let kernel = match KernelGen::with_seed(seed).gen_plan().build() {
            Ok(k) => k,
            Err(_) => continue, // generator rejects its own plan: not this test's bug
        };
        // One representative word length per generated kernel keeps the
        // corpus pass proportionate; the benchmarks cover the wl axis.
        for target in targets() {
            for program in &lowerings(&kernel, 16, &target) {
                check(&format!("gk{seed}"), &target, program);
            }
        }
    }
}

/// `SchedKind::List` through a warmed price cache must be bit-identical
/// to the same block scheduled through a fresh cache — same starts,
/// finishes, makespan and issue log, never a modulo overlay — and
/// deterministic.
#[test]
fn list_schedules_are_bit_identical_and_deterministic() {
    for_all_lowerings(|tag, target, program| {
        let costs = CycleCache::new(target);
        for (b, block) in program.blocks.iter().enumerate() {
            let fresh = schedule_block_cached(&CycleCache::new(target), block, SchedKind::List);
            let cached = schedule_block_cached(&costs, block, SchedKind::List);
            let again = schedule_block_cached(&costs, block, SchedKind::List);
            for s in [&cached, &again] {
                assert_eq!(fresh.start, s.start, "{tag} blk{b}: start drifted");
                assert_eq!(fresh.finish, s.finish, "{tag} blk{b}: finish drifted");
                assert_eq!(fresh.makespan, s.makespan, "{tag} blk{b}: makespan drifted");
                assert_eq!(fresh.issues, s.issues, "{tag} blk{b}: issue log drifted");
                assert!(s.modulo.is_none(), "{tag} blk{b}: list schedule pipelined");
            }
        }
    });
}

/// Pipelined blocks never beat the `max(ResMII, RecMII)` lower bound,
/// and on blocks with no loop-carried dependences the exact search must
/// *reach* it — a dependence-free steady state has nothing to give up.
/// (Every suite/corpus loop carries a dependence — accumulators and
/// array stores are ubiquitous — so the equality leg here is
/// opportunistic; `dependence_free_loops_reach_the_exact_mii` pins it.)
#[test]
fn achieved_ii_respects_and_reaches_the_mii_bound() {
    let mut pipelined = 0usize;
    for_all_lowerings(|tag, target, program| {
        let costs = CycleCache::new(target);
        for (b, block) in program.blocks.iter().enumerate() {
            let sched = schedule_block_cached(&costs, block, SchedKind::modulo());
            let Some(m) = sched.modulo else { continue };
            pipelined += 1;
            let (res, rec) = modulo_bounds_cached(&costs, block)
                .unwrap_or_else(|| panic!("{tag} blk{b}: pipelined but not eligible"));
            let mii = res.max(rec);
            assert!(
                m.ii >= mii,
                "{tag} blk{b}: II {} beats the lower bound {mii}",
                m.ii
            );
            if loop_carried_deps(block).is_empty() {
                assert_eq!(
                    m.ii, mii,
                    "{tag} blk{b}: dependence-free block left II slack"
                );
            }
        }
    });
    assert!(pipelined > 0, "no block in the corpus pipelined");
}

/// A loop whose body only *overwrites* its variable (never reads it
/// back) lowers to an in-loop block with no loop-carried dependences —
/// no accumulator recurrence, no array store. On such blocks the exact
/// search must achieve `II == max(ResMII, RecMII)` everywhere it
/// pipelines, and it must pipeline on at least one target.
#[test]
fn dependence_free_loops_reach_the_exact_mii() {
    let kernel = slpwlo::ir::parser::parse_kernel(
        r#"
kernel lastval {
    input x range [-1, 1];
    output y;
    param c[16] = { 0.11, -0.23, 0.31, 0.17, -0.05, 0.27, -0.13, 0.07,
                    0.09, -0.21, 0.29, 0.15, -0.03, 0.25, -0.11, 0.05 };
    var t;
    t = 0.0;
    for i in 0..16 {
        t = c[i] * x;
    }
    y = t;
}
"#,
    )
    .expect("dependence-free kernel parses");
    let ranges = determine_ranges(&kernel);
    let spec = FixedPointSpec::from_ranges(&kernel, &ranges, 16);
    let mut pipelined = 0usize;
    for target in [xentium(), vex(4), vex(1)] {
        let program = lower_scalar(&kernel, &spec, &target);
        let costs = CycleCache::new(&target);
        for (b, block) in program.blocks.iter().enumerate() {
            if !block.in_loop {
                continue;
            }
            assert!(
                loop_carried_deps(block).is_empty(),
                "{} blk{b}: overwrite-only loop grew a carried dependence",
                target.name
            );
            let sched = schedule_block_cached(&costs, block, SchedKind::modulo());
            let Some(m) = sched.modulo else { continue };
            pipelined += 1;
            let (res, rec) = modulo_bounds_cached(&costs, block).expect("eligible");
            assert_eq!(
                m.ii,
                res.max(rec),
                "{} blk{b}: exact search left II slack on a dependence-free loop",
                target.name
            );
        }
        verify_program_sched(&program, &target, SchedKind::modulo())
            .unwrap_or_else(|e| panic!("{}: pipelined lastval rejected: {e}", target.name));
    }
    assert!(pipelined > 0, "lastval pipelined on no target");
}

/// The verifier's independent schedule audit accepts every lowering at
/// both scheduler kinds.
#[test]
fn verifier_accepts_both_sched_kinds_across_the_corpus() {
    for_all_lowerings(|tag, target, program| {
        for kind in [SchedKind::List, SchedKind::modulo()] {
            verify_program_sched(program, target, kind)
                .unwrap_or_else(|e| panic!("{tag}: clean program rejected under {kind}: {e}"));
        }
    });
}

/// A hand-shifted illegal steady state — every issue folded onto one
/// residue — must be rejected by the modulo audit wherever the folding
/// actually overbooks the residue.
#[test]
fn verifier_rejects_a_hand_shifted_steady_state() {
    let mut rejections = 0usize;
    for_all_lowerings(|tag, target, program| {
        let costs = CycleCache::new(target);
        for (b, block) in program.blocks.iter().enumerate() {
            let sched = schedule_block_cached(&costs, block, SchedKind::modulo());
            if sched.modulo.is_none() {
                continue;
            }
            let slots: u64 = sched.issues.iter().map(|&(_, _, s)| s as u64).sum();
            if slots <= target.issue_width as u64 {
                continue;
            }
            let mut shifted = sched.clone();
            for entry in &mut shifted.issues {
                entry.1 = 0;
            }
            assert!(
                audit_block_schedule(program, b, target, &shifted).is_err(),
                "{tag} blk{b}: overbooked steady state accepted"
            );
            rejections += 1;
        }
    });
    assert!(rejections > 0, "no illegal steady state was ever probed");
}
