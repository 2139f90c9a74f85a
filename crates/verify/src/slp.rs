//! The SLP legality verifier: structural soundness of a grouping.
//!
//! Promotes the invariants that used to live in the
//! `tests/slp_invariants.rs` harness into a reusable library pass, so
//! that any selector — the greedy rounds or the exact
//! (`BenefitKind::Optimal`) one — can be checked independently of its
//! own bookkeeping:
//!
//! * every group has ≥ 2 lanes, and a lane count the target can
//!   realise (equation (1) of the paper);
//! * lanes are isomorphic operations with consistent operand
//!   positions;
//! * no DFG node is claimed by two groups;
//! * lanes are pairwise independent (no intra-group dependence);
//! * realising all groups keeps the *coarsened* dependence graph
//!   acyclic — the invariant the lowering's topological sort relies
//!   on, and the one pairwise checks cannot see (three groups can
//!   form a cycle with every pair clean).
//!
//! [`verify_optimal_selection`] additionally spot-checks one round of
//! the exact selector against brute-force enumeration, on rounds small
//! enough to enumerate ([`EXHAUSTIVE_LIMIT`] live candidates at most).

use crate::{Invariant, Pass, VerifyError};
use slpwlo_ir::{Dfg, NodeId};
use slpwlo_slp::{
    exhaustive_best, set_value, BenefitKind, BenefitModel, PassCtx, Round, SimdGroup,
    EXHAUSTIVE_LIMIT,
};
use slpwlo_targets::{CycleCache, SchedKind, TargetModel};
use std::collections::HashSet;

fn err(
    ctx: &str,
    invariant: Invariant,
    node: Option<String>,
    detail: impl Into<String>,
) -> VerifyError {
    VerifyError::new(Pass::Slp, invariant, ctx, node, detail)
}

/// Verifies that a set of selected SIMD groups is legal for `target`
/// over the given DFG. `ctx` names the artifact (e.g. `"block b0"`) in
/// errors.
pub fn verify_groups(
    dfg: &Dfg,
    groups: &[SimdGroup],
    target: &TargetModel,
    ctx: &str,
) -> Result<(), VerifyError> {
    let mut seen: HashSet<_> = HashSet::new();
    for (gi, g) in groups.iter().enumerate() {
        let gn = || Some(format!("group #{gi} {g}"));
        if g.lanes() < 2 {
            return Err(err(ctx, Invariant::LaneCount, gn(), "single-lane group"));
        }
        if target.simd_element_wl(g.lanes()).is_none() {
            return Err(err(
                ctx,
                Invariant::UnsupportedWidth,
                gn(),
                format!(
                    "{} has no {}-lane SIMD configuration",
                    target.name,
                    g.lanes()
                ),
            ));
        }
        let kind = &dfg.node(g.elems[0]).kind;
        let arity = dfg.node(g.elems[0]).operands.len();
        for &e in &g.elems {
            if e.index() >= dfg.len() {
                return Err(err(
                    ctx,
                    Invariant::BadOperand,
                    gn(),
                    format!("lane {e} outside the DFG"),
                ));
            }
            if !dfg.node(e).kind.isomorphic(kind) {
                return Err(err(
                    ctx,
                    Invariant::NonIsomorphic,
                    gn(),
                    format!("lane {e} is {:?}, lane 0 is {kind:?}", dfg.node(e).kind),
                ));
            }
            if dfg.node(e).operands.len() != arity {
                return Err(err(
                    ctx,
                    Invariant::NonIsomorphic,
                    gn(),
                    format!(
                        "lane {e} has {} operands, lane 0 has {arity}",
                        dfg.node(e).operands.len()
                    ),
                ));
            }
        }
        for (i, &a) in g.elems.iter().enumerate() {
            if !seen.insert(a) {
                return Err(err(
                    ctx,
                    Invariant::DuplicateNode,
                    gn(),
                    format!("node {a} already claimed by an earlier group"),
                ));
            }
            for &b in &g.elems[i + 1..] {
                if !dfg.independent(a, b) {
                    return Err(err(
                        ctx,
                        Invariant::DependentLanes,
                        gn(),
                        format!("lanes {a} and {b} are dependent"),
                    ));
                }
            }
        }
    }
    if let Some(gi) = first_cyclic_group(dfg, groups) {
        return Err(err(
            ctx,
            Invariant::GroupCycle,
            Some(format!("group #{gi} {}", groups[gi])),
            "realising this group closes a coarsened dependency cycle",
        ));
    }
    Ok(())
}

/// The lowest-index group lying on a cycle of the coarsened dependence
/// graph — each group one unit, every ungrouped node its own — or
/// `None` when that graph is acyclic. The groups must be disjoint.
///
/// Independent of the selector's own incremental cycle test
/// (`slpwlo_slp::closes_cycle`): one topological sort (Kahn's) over the
/// final grouping decides acyclicity. Only a cyclic grouping pays for
/// naming the group: every unit the sort could not place lies on a
/// cycle or downstream of one, and a group lies on a cycle iff it
/// reaches itself through those units.
fn first_cyclic_group(dfg: &Dfg, groups: &[SimdGroup]) -> Option<usize> {
    let units = groups.len() + dfg.len();
    let mut unit: Vec<usize> = (groups.len()..units).collect();
    for (gi, g) in groups.iter().enumerate() {
        for &e in &g.elems {
            unit[e.index()] = gi;
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); units];
    let mut indeg = vec![0usize; units];
    for (id, _) in dfg.iter() {
        let u = unit[id.index()];
        for p in dfg.preds(id) {
            let pu = unit[p.index()];
            if pu != u {
                succs[pu].push(u);
                indeg[u] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..units).filter(|&u| indeg[u] == 0).collect();
    let mut placed = 0;
    while let Some(u) = ready.pop() {
        placed += 1;
        for &v in &succs[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }
    if placed == units {
        return None;
    }
    (0..groups.len()).filter(|&gi| indeg[gi] > 0).find(|&gi| {
        let mut seen = vec![false; units];
        let mut stack = succs[gi].clone();
        while let Some(u) = stack.pop() {
            if u == gi {
                return true;
            }
            if !std::mem::replace(&mut seen[u], true) {
                stack.extend(succs[u].iter().copied().filter(|&v| indeg[v] > 0));
            }
        }
        false
    })
}

/// Spot-checks one *round* of the exact selector against brute force:
/// rebuilds the round's candidates from `(dfg, target, prior)`, prices
/// them under the fixed word-length oracle `wl` with the
/// [`BenefitKind::Cycles`] model (the pricing the exact kind searches),
/// and verifies that the round's `chosen` groups are (a) genuine
/// candidates of the round and (b) valued no worse than the exhaustive
/// optimum over the live candidates.
///
/// Candidate liveness mirrors the frozen-spec selection hooks: a
/// candidate is live when every lane's current word length fits the
/// candidate's per-lane container on the target. Rounds with more live
/// candidates than `max_candidates`, or than [`EXHAUSTIVE_LIMIT`] (the
/// most the enumerator takes), are skipped: enumeration is exponential,
/// so `Ok(())` means "checked or too big", never "silently wrong".
///
/// This check is sound only for selections driven by the *same* fixed
/// oracle (e.g. [`slpwlo_slp::FrozenWls`] over `wl`); under evolving-spec hooks
/// the selector legitimately prices against intermediate states the
/// verifier cannot see.
pub fn verify_optimal_selection(
    dfg: &Dfg,
    target: &TargetModel,
    prior: &[SimdGroup],
    chosen: &[SimdGroup],
    wl: &dyn Fn(NodeId) -> i32,
    max_candidates: usize,
    ctx: &str,
) -> Result<(), VerifyError> {
    let round = Round::new(dfg, target, prior);
    let n = round.candidates.len();
    let alive: Vec<bool> = (0..n)
        .map(|i| round.view(target, i).fits_frozen_wls(target, wl))
        .collect();
    if alive.iter().filter(|&&a| a).count() > max_candidates.min(EXHAUSTIVE_LIMIT) {
        return Ok(());
    }
    let mut chosen_idx = Vec::with_capacity(chosen.len());
    for g in chosen {
        match (0..n).find(|&i| round.merged(i).elems == g.elems) {
            Some(i) => chosen_idx.push(i),
            None => {
                return Err(err(
                    ctx,
                    Invariant::SelectionSuboptimal,
                    Some(format!("{g}")),
                    "chosen group is not a candidate of the reconstructed round",
                ));
            }
        }
    }
    let pricing = PassCtx::new(
        CycleCache::new(target),
        BenefitKind::Cycles,
        SchedKind::List,
        false,
    );
    let model = BenefitModel::new(dfg, &round, &pricing, wl, |_| None);
    let v = set_value(&model, &round, prior, &chosen_idx);
    let (best_set, best_v) = exhaustive_best(dfg, &model, &round, prior, &alive);
    if v + 1e-6 < best_v {
        return Err(err(
            ctx,
            Invariant::SelectionSuboptimal,
            None,
            format!(
                "chosen set valued {v}, exhaustive optimum {best_v} via candidates {best_set:?}"
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::dfg::NodeKind;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::{BinOp, NodeId};
    use slpwlo_targets::xentium;

    fn fir_dfg() -> Dfg {
        let k = parse_kernel(
            r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    acc = acc + c[0] * dl[0];
    acc = acc + c[1] * dl[1];
    acc = acc + c[2] * dl[2];
    acc = acc + c[3] * dl[3];
    y = acc;
}
"#,
        )
        .unwrap();
        let blocks = collect_blocks(&k);
        Dfg::from_block(&k, &blocks[0])
    }

    fn muls(dfg: &Dfg) -> Vec<NodeId> {
        dfg.iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Mul)))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn accepts_independent_isomorphic_pairs() {
        let dfg = fir_dfg();
        let m = muls(&dfg);
        let groups = vec![
            SimdGroup {
                elems: vec![m[0], m[1]],
            },
            SimdGroup {
                elems: vec![m[2], m[3]],
            },
        ];
        verify_groups(&dfg, &groups, &xentium(), "t").unwrap();
    }

    #[test]
    fn kills_duplicate_nodes() {
        let dfg = fir_dfg();
        let m = muls(&dfg);
        let groups = vec![
            SimdGroup {
                elems: vec![m[0], m[1]],
            },
            SimdGroup {
                elems: vec![m[1], m[2]],
            },
        ];
        let e = verify_groups(&dfg, &groups, &xentium(), "t").unwrap_err();
        assert_eq!(e.invariant, Invariant::DuplicateNode);
    }

    #[test]
    fn kills_dependent_lanes() {
        let dfg = fir_dfg();
        let adds: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Add)))
            .map(|(i, _)| i)
            .collect();
        let groups = vec![SimdGroup {
            elems: vec![adds[0], adds[1]],
        }];
        let e = verify_groups(&dfg, &groups, &xentium(), "t").unwrap_err();
        assert_eq!(e.invariant, Invariant::DependentLanes);
    }

    /// Two mutually independent multiply chains `m0 → t0` and
    /// `m1 → t1`, grouped crosswise: every lane pair is independent, yet
    /// `{m0, t1}` feeds `{m1, t0}` through `m0 → t0` and is fed by it
    /// through `m1 → t1`.
    #[test]
    fn kills_cross_chain_group_cycles() {
        let k = parse_kernel(
            r#"
kernel cy {
    input x range [-1, 1];
    output y;
    array a[8];
    var m0;
    var m1;
    var t0;
    var t1;
    shiftin a <- x;
    m0 = a[0] * a[1];
    m1 = a[2] * a[3];
    t0 = m0 * a[4];
    t1 = m1 * a[5];
    y = t0 + t1;
}
"#,
        )
        .unwrap();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        let m = muls(&dfg);
        assert_eq!(m.len(), 4);
        let (m0, m1, t0, t1) = (m[0], m[1], m[2], m[3]);
        assert!(dfg.reaches(m0, t0) && dfg.reaches(m1, t1));
        let loads: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::LoadArray(..)))
            .map(|(i, _)| i)
            .collect();
        let pair = |a, b| SimdGroup { elems: vec![a, b] };
        verify_groups(&dfg, &[pair(m0, m1), pair(t0, t1)], &xentium(), "t").unwrap();
        let e = verify_groups(
            &dfg,
            &[pair(loads[0], loads[1]), pair(m0, t1), pair(m1, t0)],
            &xentium(),
            "t",
        )
        .unwrap_err();
        assert_eq!(e.invariant, Invariant::GroupCycle);
        // Group #0 (two loads) is clean; #1 is the lowest on the cycle.
        assert!(e.to_string().contains("group #1"), "{e}");
    }

    #[test]
    fn kills_unsupported_widths() {
        let dfg = fir_dfg();
        let m = muls(&dfg);
        let groups = vec![SimdGroup {
            elems: vec![m[0], m[1], m[2]],
        }];
        let e = verify_groups(&dfg, &groups, &xentium(), "t").unwrap_err();
        assert_eq!(e.invariant, Invariant::UnsupportedWidth);
    }

    #[test]
    fn optimal_selection_spot_check_accepts_exact_and_rejects_empty() {
        use slpwlo_slp::{run_selection, FrozenWls};
        let k = parse_kernel(
            r#"
kernel g {
    input x range [-1, 1];
    output y;
    param c[2] = { 0.5, 0.25 };
    array dl[2];
    var t0;
    var t1;
    shiftin dl <- x;
    t0 = c[0] * dl[0];
    t1 = c[1] * dl[1];
    y = t0 + t1;
}
"#,
        )
        .unwrap();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        let target = slpwlo_targets::st240();
        let wl = |_: NodeId| 16;
        let round = Round::new(&dfg, &target, &[]);
        let mut ctx = PassCtx::new(
            CycleCache::new(&target),
            BenefitKind::optimal(),
            SchedKind::List,
            false,
        );
        let mut hooks = FrozenWls {
            target: &target,
            wl: &wl,
            fwl: None,
        };
        let chosen = run_selection(&mut ctx, &dfg, &round, &[], &mut hooks);
        assert!(!chosen.is_empty(), "ST240 must pack this round");
        verify_optimal_selection(&dfg, &target, &[], &chosen, &wl, 20, "t").unwrap();
        // An empty selection on a profitable round is provably below the
        // enumerated optimum.
        let e = verify_optimal_selection(&dfg, &target, &[], &[], &wl, 20, "t").unwrap_err();
        assert_eq!(e.invariant, Invariant::SelectionSuboptimal);
    }

    /// A round too large to enumerate is skipped even when the caller
    /// allows more candidates than the enumerator takes: CONV3x3's
    /// first round on XENTIUM at 16 bits.
    #[test]
    fn optimal_selection_spot_check_skips_rounds_beyond_the_enumerator() {
        let kernel = slpwlo_kernels::conv3x3();
        let target = xentium();
        let wl = |_: NodeId| 16;
        let dfg = Dfg::from_block(&kernel, &collect_blocks(&kernel)[0]);
        let round = Round::new(&dfg, &target, &[]);
        let live = (0..round.candidates.len())
            .filter(|&i| round.view(&target, i).fits_frozen_wls(&target, wl))
            .count();
        assert_eq!(live, 81);
        verify_optimal_selection(&dfg, &target, &[], &[], &wl, 100, "t").unwrap();
    }

    #[test]
    fn kills_mixed_kinds() {
        let dfg = fir_dfg();
        let m = muls(&dfg);
        let loads: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::LoadArray(..)))
            .map(|(i, _)| i)
            .collect();
        let groups = vec![SimdGroup {
            elems: vec![m[0], loads[0]],
        }];
        let e = verify_groups(&dfg, &groups, &xentium(), "t").unwrap_err();
        assert_eq!(e.invariant, Invariant::NonIsomorphic);
    }
}
