//! Mutation harness for the `slpwlo-verify` checkers.
//!
//! A verifier is only worth its keep if it actually *kills* broken
//! artifacts. This harness builds known-good artifacts from the
//! 8-benchmark suite, applies seeded single-point mutations — shrink a
//! format, claim a lane twice, reorder dependent machine ops, corrupt a
//! requantization — and asserts that the responsible checker rejects
//! each mutant with the *right* structured error (pass + invariant).
//! Every checker must score at least one kill; most score one per
//! benchmark.
//!
//! The IR checker is the one exception to "mutate a benchmark": the
//! kernel arena's fields are deliberately crate-private, so IR mutants
//! cannot be forged from outside. Its mutants are built through the
//! public `KernelBuilder` instead — misuse that `Kernel::validate`
//! accepts but `verify_kernel` must not.

mod common;

use common::plain_ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slpwlo::core::{extract_on_spec, lower_scalar, MachineProgram, MopKind};
use slpwlo::fixedpoint::range::determine_ranges;
use slpwlo::fixedpoint::{FixedPointSpec, QFormat};
use slpwlo::ir::builder::KernelBuilder;
use slpwlo::ir::{Dfg, NodeId};
use slpwlo::kernels::all_benchmarks;
use slpwlo::slp::SimdGroup;
use slpwlo::targets::{vex, xentium, TargetModel};
use slpwlo::verify::{
    verify_groups, verify_kernel, verify_program, verify_spec, Invariant, Pass, VerifyError,
};

const WL: i32 = 16;

fn targets() -> [TargetModel; 2] {
    [xentium(), vex(4)]
}

/// Asserts a kill: the mutant is rejected by `pass` for `invariant`.
fn assert_kill(tag: &str, got: Result<(), VerifyError>, pass: Pass, invariant: Invariant) {
    match got {
        Ok(()) => panic!("{tag}: mutant survived verification"),
        Err(e) => {
            assert_eq!(e.pass, pass, "{tag}: wrong pass in {e}");
            assert_eq!(e.invariant, invariant, "{tag}: wrong invariant in {e}");
        }
    }
}

// --- IR -------------------------------------------------------------

/// Builder misuse that `validate` accepts must still die in
/// `verify_kernel` — the checker is redundant with the builder's own
/// bookkeeping by design.
#[test]
fn builder_mutants_kill_the_ir_checker() {
    // Read a variable before any assignment defines it.
    let mut b = KernelBuilder::new("mut_use_before_def");
    let y = b.output("y");
    let v = b.var("t");
    let r = b.read_var(v);
    b.set_output(y, r);
    let k = b.finish();
    assert!(k.validate().is_ok(), "validate should miss use-before-def");
    assert_kill(
        "ir/use-before-def",
        verify_kernel(&k),
        Pass::Ir,
        Invariant::UseBeforeDef,
    );

    // An index past the end is NOT a kill: every backend shares the
    // Euclidean wrap semantics, so the IR checker must accept it.
    let mut b = KernelBuilder::new("mut_wrapping_load");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let a = b.array("dl", 4);
    let xv = b.read_input(x);
    b.shift_in(a, xv);
    let l = b.load(a, 4);
    b.set_output(y, l);
    let k = b.finish();
    verify_kernel(&k).expect("wrapping scalar index must verify clean");
}

/// Every benchmark kernel is clean to begin with — the baseline the
/// mutations below perturb.
#[test]
fn benchmark_kernels_are_clean() {
    for bench in all_benchmarks() {
        verify_kernel(&bench.kernel)
            .unwrap_or_else(|e| panic!("{}: clean kernel rejected: {e}", bench.name));
    }
}

// --- Spec -----------------------------------------------------------

/// Shrinking any chosen format's integer part below what the value
/// range needs is a static overflow; zeroing a word length is
/// unrepresentable. One seeded site per benchmark for each.
#[test]
fn spec_mutations_kill_the_spec_checker() {
    for (bi, bench) in all_benchmarks().into_iter().enumerate() {
        let ranges = determine_ranges(&bench.kernel);
        let spec = FixedPointSpec::from_ranges(&bench.kernel, &ranges, WL);
        verify_spec(&bench.kernel, &ranges, &spec, true)
            .unwrap_or_else(|e| panic!("{}: clean spec rejected: {e}", bench.name));

        let keys = spec.optimizable_keys(&bench.kernel);
        assert!(!keys.is_empty(), "{}: no optimizable sites", bench.name);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ bi as u64);
        let site = keys[rng.gen_range(0..keys.len())];

        // `from_ranges` chooses the minimal covering IWL, so one bit
        // less cannot represent the established range.
        let mut narrowed = spec.clone();
        let fmt = narrowed.format(site);
        narrowed.set_format(site, QFormat::new(fmt.iwl - 1, fmt.fwl));
        assert_kill(
            &format!("{}/spec-shrink {site}", bench.name),
            verify_spec(&bench.kernel, &ranges, &narrowed, false),
            Pass::Spec,
            Invariant::FormatOverflow,
        );

        let mut zeroed = spec.clone();
        zeroed.set_format(site, QFormat::new(0, 0));
        assert_kill(
            &format!("{}/spec-zero-wl {site}", bench.name),
            verify_spec(&bench.kernel, &ranges, &zeroed, false),
            Pass::Spec,
            Invariant::WordLength,
        );
    }
}

// --- SLP ------------------------------------------------------------

/// Per-block DFG and the `WLO-First` extraction on the frozen 16-bit
/// spec — the same grouping path `tests/slp_invariants.rs` exercises.
fn block_groupings(
    bench: &slpwlo::kernels::Benchmark,
    target: &TargetModel,
) -> Vec<(Dfg, Vec<SimdGroup>)> {
    let ranges = determine_ranges(&bench.kernel);
    let spec = FixedPointSpec::from_ranges(&bench.kernel, &ranges, WL);
    extract_on_spec(&bench.kernel, &spec, &mut plain_ctx(target))
        .into_iter()
        .map(|(_, dfg, groups)| (dfg, groups))
        .collect()
}

/// Two chains `p1 → q1` and `p2 → q2` of one op kind, on nodes no group
/// claims, grouped crosswise as `{p1, q2}` and `{p2, q1}`: every lane
/// pair is independent, yet each group feeds the other (through
/// `p1 → q1` and `p2 → q2`) — a coarsened cycle that no lane-level
/// check sees. `None` when the block has no such pair of chains.
fn cross_chain_groups(dfg: &Dfg, groups: &[SimdGroup]) -> Option<[SimdGroup; 2]> {
    let free: Vec<NodeId> = dfg
        .groupable_nodes()
        .into_iter()
        .filter(|&n| !groups.iter().any(|g| g.contains(n)))
        .collect();
    let alike = |a: NodeId, b: NodeId| {
        let (x, y) = (dfg.node(a), dfg.node(b));
        x.kind.isomorphic(&y.kind) && x.operands.len() == y.operands.len()
    };
    // Each free node's first like successor, in topological order.
    let chains: Vec<(NodeId, NodeId)> = free
        .iter()
        .filter_map(|&p| {
            let q = free.iter().find(|&&q| alike(p, q) && dfg.reaches(p, q))?;
            Some((p, *q))
        })
        .collect();
    for (a, &(p1, q1)) in chains.iter().enumerate() {
        for &(p2, q2) in &chains[a + 1..] {
            if q1 != q2 && alike(p1, p2) && dfg.independent(p1, q2) && dfg.independent(p2, q1) {
                return Some([
                    SimdGroup {
                        elems: vec![p1, q2],
                    },
                    SimdGroup {
                        elems: vec![p2, q1],
                    },
                ]);
            }
        }
    }
    None
}

/// Lane-level single-point mutations: claim a node twice (within a
/// group and across groups), drop to one lane, and stretch to a width
/// the target cannot realise — plus one group-level mutation, two
/// extra groups that close a coarsened dependency cycle. Each class
/// must kill at least once per target across the suite.
#[test]
fn group_mutations_kill_the_slp_checker() {
    for target in targets() {
        let mut cycle_kills = 0usize;
        let mut dup_kills = 0usize;
        let mut reclaim_kills = 0usize;
        let mut swap_kills = 0usize;
        let mut lane_kills = 0usize;
        let mut width_kills = 0usize;
        for bench in all_benchmarks() {
            for (dfg, groups) in block_groupings(&bench, &target) {
                verify_groups(&dfg, &groups, &target, bench.name)
                    .unwrap_or_else(|e| panic!("{}: clean groups rejected: {e}", bench.name));

                // Add two crosswise groups over independent chains: each
                // is legal on its own, together they form a cycle.
                if target.simd_element_wl(2).is_some() {
                    if let Some(cross) = cross_chain_groups(&dfg, &groups) {
                        let mut m = groups.clone();
                        m.extend(cross);
                        assert_kill(
                            &format!("{}/slp-cycle {}", bench.name, target.name),
                            verify_groups(&dfg, &m, &target, bench.name),
                            Pass::Slp,
                            Invariant::GroupCycle,
                        );
                        cycle_kills += 1;
                    }
                }
                if groups.is_empty() {
                    continue;
                }

                // Duplicate a lane inside one group: a node is never
                // independent of itself, so the pairwise-independence
                // check fires before the cross-group bookkeeping.
                let mut m = groups.clone();
                m[0].elems[1] = m[0].elems[0];
                assert_kill(
                    &format!("{}/slp-dup {}", bench.name, target.name),
                    verify_groups(&dfg, &m, &target, bench.name),
                    Pass::Slp,
                    Invariant::DependentLanes,
                );
                dup_kills += 1;

                // Claim an entire group twice: every node of the copy
                // is already taken.
                let mut m = groups.clone();
                m.push(m[0].clone());
                assert_kill(
                    &format!("{}/slp-reclaim {}", bench.name, target.name),
                    verify_groups(&dfg, &m, &target, bench.name),
                    Pass::Slp,
                    Invariant::DuplicateNode,
                );
                reclaim_kills += 1;

                // Swap a lane *across* groups. When the groups are
                // isomorphic the node is now claimed twice; when they
                // are not, the graft breaks lane isomorphism — either
                // way the mutant must die, for the predictable reason.
                if groups.len() >= 2 {
                    let a = dfg.node(groups[0].elems[0]);
                    let b = dfg.node(groups[1].elems[0]);
                    let iso = a.kind.isomorphic(&b.kind) && a.operands.len() == b.operands.len();
                    let mut m = groups.clone();
                    m[1].elems[0] = m[0].elems[0];
                    assert_kill(
                        &format!("{}/slp-swap {}", bench.name, target.name),
                        verify_groups(&dfg, &m, &target, bench.name),
                        Pass::Slp,
                        if iso {
                            Invariant::DuplicateNode
                        } else {
                            Invariant::NonIsomorphic
                        },
                    );
                    swap_kills += 1;
                }

                // Drop to a single lane.
                let mut m = groups.clone();
                m[0].elems.truncate(1);
                assert_kill(
                    &format!("{}/slp-lanes {}", bench.name, target.name),
                    verify_groups(&dfg, &m, &target, bench.name),
                    Pass::Slp,
                    Invariant::LaneCount,
                );
                lane_kills += 1;

                // Stretch to lanes+1: no target offers an odd width.
                let mut m = groups.clone();
                let extra = m[0].elems[0];
                m[0].elems.push(extra);
                if target.simd_element_wl(m[0].elems.len() as u32).is_none() {
                    assert_kill(
                        &format!("{}/slp-width {}", bench.name, target.name),
                        verify_groups(&dfg, &m, &target, bench.name),
                        Pass::Slp,
                        Invariant::UnsupportedWidth,
                    );
                    width_kills += 1;
                }
            }
        }
        assert!(cycle_kills > 0, "{}: no group-cycle kills", target.name);
        assert!(dup_kills > 0, "{}: no duplicate-lane kills", target.name);
        assert!(reclaim_kills > 0, "{}: no group-reclaim kills", target.name);
        assert!(swap_kills > 0, "{}: no lane-swap kills", target.name);
        assert!(lane_kills > 0, "{}: no lane-count kills", target.name);
        assert!(width_kills > 0, "{}: no width kills", target.name);
    }
}

// --- Machine --------------------------------------------------------

/// Clean SIMD + scalar lowerings for one benchmark at the frozen spec.
fn lowerings(
    bench: &slpwlo::kernels::Benchmark,
    target: &TargetModel,
) -> (MachineProgram, MachineProgram) {
    let ranges = determine_ranges(&bench.kernel);
    let spec = FixedPointSpec::from_ranges(&bench.kernel, &ranges, WL);
    let simd = common::simd_program(&bench.kernel, &spec, target);
    let scalar = lower_scalar(&bench.kernel, &spec, target);
    (simd, scalar)
}

/// Swaps a seeded dependent op with its first predecessor, turning the
/// dependence forward. Returns false when the program has none.
fn reorder_dependent_ops(program: &mut MachineProgram, rng: &mut StdRng) -> bool {
    let sites: Vec<(usize, usize, usize)> = program
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(b, block)| {
            block
                .ops
                .iter()
                .enumerate()
                .filter_map(move |(i, op)| op.preds.first().map(|&p| (b, i, p)))
        })
        .collect();
    if sites.is_empty() {
        return false;
    }
    let (b, i, p) = sites[rng.gen_range(0..sites.len())];
    program.blocks[b].ops.swap(i, p);
    true
}

/// Widens a seeded store's claimed format so it no longer matches the
/// location's declared storage format.
fn corrupt_store_format(program: &mut MachineProgram, rng: &mut StdRng) -> bool {
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (b, block) in program.blocks.iter().enumerate() {
        for (i, op) in block.ops.iter().enumerate() {
            if matches!(
                op.kind,
                MopKind::ShiftIn { .. } | MopKind::Store { .. } | MopKind::VStore { .. }
            ) {
                sites.push((b, i));
            }
        }
    }
    if sites.is_empty() {
        return false;
    }
    let (b, i) = sites[rng.gen_range(0..sites.len())];
    match &mut program.blocks[b].ops[i].kind {
        MopKind::ShiftIn { to, .. } | MopKind::Store { to, .. } | MopKind::VStore { to, .. } => {
            *to = QFormat::new(to.iwl + 1, to.fwl - 1);
        }
        _ => unreachable!(),
    }
    true
}

/// Pushes a seeded requantization off the 63-bit shift grid (scalar),
/// or breaks the lane-shift uniformity (vector).
fn corrupt_requant(program: &mut MachineProgram, rng: &mut StdRng) -> bool {
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (b, block) in program.blocks.iter().enumerate() {
        for (i, op) in block.ops.iter().enumerate() {
            if matches!(op.kind, MopKind::Requant { .. } | MopKind::VRequant { .. }) {
                sites.push((b, i));
            }
        }
    }
    if sites.is_empty() {
        return false;
    }
    let (b, i) = sites[rng.gen_range(0..sites.len())];
    match &mut program.blocks[b].ops[i].kind {
        MopKind::Requant { to, .. } => to.fwl += 70,
        MopKind::VRequant { to, .. } => to[0].fwl += 70,
        _ => unreachable!(),
    }
    true
}

/// Sends a seeded vector lane's index out of `[0, len)`. Scalar
/// accesses wrap (defined), but vector locs are read contiguously and
/// must be statically in-bounds.
fn corrupt_vector_lane(program: &mut MachineProgram, rng: &mut StdRng) -> bool {
    use slpwlo::core::Loc;
    use slpwlo::ir::IndexExpr;
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (b, block) in program.blocks.iter().enumerate() {
        for (i, op) in block.ops.iter().enumerate() {
            if matches!(op.kind, MopKind::VLoad { .. } | MopKind::VStore { .. }) {
                sites.push((b, i));
            }
        }
    }
    if sites.is_empty() {
        return false;
    }
    let (b, i) = sites[rng.gen_range(0..sites.len())];
    match &mut program.blocks[b].ops[i].kind {
        MopKind::VLoad { locs } | MopKind::VStore { locs, .. } => {
            let (Loc::Array(_, ix) | Loc::Param(_, ix)) = &mut locs[0];
            *ix = IndexExpr::constant(-1);
        }
        _ => unreachable!(),
    }
    true
}

/// Reordering, store-format corruption and requant corruption must each
/// kill; reordering and store corruption on every benchmark × target,
/// requant and vector-lane corruption wherever the lowering emits the
/// relevant op.
#[test]
fn machine_mutations_kill_the_machine_checker() {
    let mut requant_kills = 0usize;
    let mut lane_kills = 0usize;
    for target in targets() {
        for (bi, bench) in all_benchmarks().into_iter().enumerate() {
            let (simd, scalar) = lowerings(&bench, &target);
            verify_program(&simd, &target)
                .unwrap_or_else(|e| panic!("{}: clean simd rejected: {e}", bench.name));
            verify_program(&scalar, &target)
                .unwrap_or_else(|e| panic!("{}: clean scalar rejected: {e}", bench.name));

            let mut rng = StdRng::seed_from_u64(0xBADC0DE ^ bi as u64);
            for (leg, clean) in [("simd", &simd), ("scalar", &scalar)] {
                let mut m = clean.clone();
                assert!(
                    reorder_dependent_ops(&mut m, &mut rng),
                    "{}: no dependences to reorder",
                    bench.name
                );
                assert_kill(
                    &format!("{}/{leg}-reorder {}", bench.name, target.name),
                    verify_program(&m, &target),
                    Pass::Machine,
                    Invariant::PredOrder,
                );

                let mut m = clean.clone();
                assert!(
                    corrupt_store_format(&mut m, &mut rng),
                    "{}: no stores to corrupt",
                    bench.name
                );
                assert_kill(
                    &format!("{}/{leg}-store {}", bench.name, target.name),
                    verify_program(&m, &target),
                    Pass::Machine,
                    Invariant::FormatNotCovering,
                );

                let mut m = clean.clone();
                if corrupt_requant(&mut m, &mut rng) {
                    assert_kill(
                        &format!("{}/{leg}-requant {}", bench.name, target.name),
                        verify_program(&m, &target),
                        Pass::Machine,
                        Invariant::FormatNotCovering,
                    );
                    requant_kills += 1;
                }

                let mut m = clean.clone();
                if corrupt_vector_lane(&mut m, &mut rng) {
                    assert_kill(
                        &format!("{}/{leg}-vlane {}", bench.name, target.name),
                        verify_program(&m, &target),
                        Pass::Machine,
                        Invariant::IndexOutOfBounds,
                    );
                    lane_kills += 1;
                }
            }
        }
    }
    assert!(
        requant_kills > 0,
        "no benchmark lowering emitted a requantization to corrupt"
    );
    assert!(
        lane_kills > 0,
        "no benchmark lowering emitted a vector access to corrupt"
    );
}

/// Pipelining-specific corruption of otherwise-clean modulo schedules:
/// tearing the prologue/epilogue reassembly identity, folding the whole
/// issue log onto one residue, and stretching an op past its own
/// loop-carried dependence. Each must die in the machine pass with the
/// matching modulo invariant — none of these is visible to the flat
/// per-cycle audit, which is exactly why the overlay exists.
#[test]
fn modulo_schedule_mutations_kill_the_machine_checker() {
    use slpwlo::core::{loop_carried_deps, schedule_block, SchedKind};
    use slpwlo::targets::CycleCache;
    use slpwlo::verify::audit_block_schedule;

    let mut identity_kills = 0usize;
    let mut residue_kills = 0usize;
    let mut carried_kills = 0usize;
    for target in [xentium(), vex(4), vex(1)] {
        let costs = CycleCache::new(&target);
        for bench in all_benchmarks() {
            let (simd, scalar) = lowerings(&bench, &target);
            for program in [&simd, &scalar] {
                for (b, block) in program.blocks.iter().enumerate() {
                    let sched = schedule_block(&costs, block, SchedKind::modulo());
                    let Some(ms) = sched.modulo else { continue };
                    audit_block_schedule(program, b, &target, &sched).unwrap_or_else(|e| {
                        panic!("{}: clean pipelined schedule rejected: {e}", bench.name)
                    });

                    // Tear the `prologue + epilogue == makespan` identity
                    // the pipelined pricing formula rests on.
                    let mut mutant = sched.clone();
                    mutant.modulo.as_mut().unwrap().prologue += 1;
                    assert_kill(
                        &format!("{}/modulo-identity {}", bench.name, target.name),
                        audit_block_schedule(program, b, &target, &mutant),
                        Pass::Machine,
                        Invariant::SteadyStateOverflow,
                    );
                    identity_kills += 1;

                    // Fold the whole issue log onto residue 0. The flat
                    // retotal still balances (per-op slot sums are
                    // untouched), so only the steady-state re-derivation
                    // can notice the residue is over budget.
                    let slots: u64 = sched.issues.iter().map(|&(_, _, s)| s as u64).sum();
                    if slots > target.issue_width as u64 {
                        let mut mutant = sched.clone();
                        for entry in &mut mutant.issues {
                            entry.1 = 0;
                        }
                        assert_kill(
                            &format!("{}/modulo-residue {}", bench.name, target.name),
                            audit_block_schedule(program, b, &target, &mutant),
                            Pass::Machine,
                            Invariant::SteadyStateOverflow,
                        );
                        residue_kills += 1;
                    }

                    // Stretch a carried producer past what the II-shifted
                    // consumer tolerates: iteration k+1's copy of `to`
                    // now reads before iteration k's `from` has finished.
                    // Carried producers feed only the next iteration, so
                    // a successor-free one keeps the intra-iteration
                    // checks quiet and the II-shifted check must fire.
                    let succ_free = |w: usize| block.ops.iter().all(|op| !op.preds.contains(&w));
                    if let Some((from, to)) = loop_carried_deps(block)
                        .into_iter()
                        .find(|&(from, _)| succ_free(from))
                    {
                        let mut mutant = sched.clone();
                        mutant.finish[from] = sched.start[to] + ms.ii + 1;
                        assert_kill(
                            &format!("{}/modulo-carried {}", bench.name, target.name),
                            audit_block_schedule(program, b, &target, &mutant),
                            Pass::Machine,
                            Invariant::LoopCarriedOrder,
                        );
                        carried_kills += 1;
                    }
                }
            }
        }
    }
    assert!(identity_kills > 0, "no benchmark block pipelined");
    assert!(residue_kills > 0, "no residue-overflow kills");
    assert!(carried_kills > 0, "no loop-carried kills");
}
