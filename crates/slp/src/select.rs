//! The iterative group-selection loop (fig. 1c lines 26–35 of the paper)
//! and the round driver.
//!
//! A selection reads two things besides the round. The flow leg's
//! [`PassCtx`] holds what is fixed for the leg (target, price cache,
//! pricing strategy, scheduler, equalization flag) and collects the
//! exact selector's statistics. A [`SelectHooks`] policy decides which
//! packs are admissible and which pairs conflict, and holds the word
//! lengths candidates are priced at. `slpwlo-core`'s accuracy hooks
//! inject the paper's accuracy-awareness through it:
//!
//! * [`SelectHooks::screen`] — "eliminate candidates violating the
//!   constraint" (fig. 1c lines 6–12), once per round over every
//!   candidate's view;
//! * [`SelectHooks::accuracy_conflict`] — the additional conflicts of
//!   lines 16–22 (two candidates that cannot *coexist* within the noise
//!   budget), asked by candidate index, only for the pairs a selector
//!   reads, and at most once per pair and round;
//! * [`SelectHooks::on_select`] — `SETMAXWL` on the chosen group, with the
//!   option to veto a selection whose cumulative effect would break the
//!   constraint (a strict guard the paper implies through its conflict
//!   definition).
//!
//! The hooks also answer the evolving spec's word lengths, which the
//! cycle-priced model reads, and checkpoint/restore their state for the
//! exact selector's speculative greedy probe. [`FrozenWls`] is the
//! policy of fixed word lengths (the `WLO-First` baseline's extraction).

use crate::benefit::{BenefitKind, BenefitModel, CostedBenefit};
use crate::candidate::{CandidateView, Round};
use crate::conflict::RoundConflicts;
use crate::ctx::PassCtx;
use crate::group::{closes_cycle, SimdGroup};
use crate::optimal::run_selection_optimal;
use slpwlo_ir::dfg::{Dfg, NodeId};
use slpwlo_targets::TargetModel;

/// Hooks through which accuracy awareness (or any other policy) is
/// injected into the selection loop.
///
/// Each callback is one self-contained speculative probe: implementations
/// that mutate shared state (the fixed-point spec, an incremental
/// accuracy evaluator's caches) must leave it resolved — committed or
/// rolled back — before returning, because the loop interleaves
/// `accuracy_conflict` and `on_select` calls in benefit order with no
/// cleanup pass of its own. `slpwlo-core`'s `AccuracyHooks` realises
/// each probe as one `SETMAXWL` trial against the evaluator's
/// incremental trial/commit/rollback protocol.
///
/// **Screening contract.** Every round opens with one
/// [`screen`](Self::screen) over the round's views; the hooks' state at
/// that call is the *round-entry* state. The
/// [`accuracy_conflict`](Self::accuracy_conflict) calls that follow
/// address candidates by their index in that slice. The conflict
/// relation is answered when a selector reads a pair: the structural
/// tests first, then this question for a compatible pair. So the calls
/// may come after the round's [`on_select`](Self::on_select) commits,
/// and each must answer against the round-entry state, as if no
/// selection of the round had been made: fig. 1c defines conflicts
/// before selection starts. No pair is asked twice in a round. Greedy
/// needs no store for that: it reads only the pairs of the candidate it
/// has just accepted, and that candidate is dead from then on. The
/// exact selector stores its pool's answers for the round, so its
/// greedy probe and its search, which read pool pairs in no fixed
/// order, never ask one twice.
pub trait SelectHooks {
    /// Candidate validation, called once per round with every
    /// candidate's view before any other call of the round: `false` at
    /// index `i` discards candidate `i`.
    fn screen(&mut self, views: &[CandidateView]) -> Vec<bool> {
        vec![true; views.len()]
    }

    /// Extra (non-structural) conflict between candidates `i` and `j` of
    /// the last [`screen`](Self::screen), against the round-entry state
    /// (see the screening contract). Called only for validated,
    /// structurally compatible pairs, with `i < j`.
    fn accuracy_conflict(&mut self, i: usize, j: usize) -> bool {
        let _ = (i, j);
        false
    }

    /// Called when the loop wants to select a candidate. Apply side
    /// effects (word-length updates) here; return `false` to veto.
    fn on_select(&mut self, view: &CandidateView) -> bool {
        let _ = view;
        true
    }

    /// The *current* word length of a node's value, for cycle-priced
    /// benefit estimation ([`BenefitKind::Cycles`]). Accuracy-aware hooks
    /// answer from the evolving fixed-point spec, so live candidates are
    /// re-priced as word lengths shrink; `None` (the default) prices at
    /// the target's maximum word length.
    fn current_wl(&self, node: NodeId) -> Option<i32> {
        let _ = node;
        None
    }

    /// The *current* fractional word length of a node's value. Lets the
    /// cycle-priced model compute per-lane scaling amounts and price a
    /// candidate's scalings exactly: nothing when amounts are zero, one
    /// vector shift when uniform, the full fig. 2 unpack/shift/repack
    /// when mismatched. `None` (the default) assumes uniform scaling.
    fn current_fwl(&self, node: NodeId) -> Option<i32> {
        let _ = node;
        None
    }

    /// Marks the round-entry state (the spec under accuracy-aware
    /// selection) as the one [`restore`](Self::restore) returns to. The
    /// exact selector ([`BenefitKind::Optimal`]) probes a whole greedy
    /// round speculatively — `checkpoint`, run greedy through
    /// `on_select` commits, `restore` — before replaying the winning
    /// set's side effects in chosen order. It calls `checkpoint` only at
    /// round entry: after [`screen`](Self::screen), with no selection of
    /// the round committed (or all of them restored). Hooks whose
    /// `on_select` mutates state **must** implement both to be sound
    /// under `Optimal`; the default no-ops are correct for stateless
    /// hooks.
    fn checkpoint(&mut self) {}

    /// Rolls the hook's mutable state back to round entry, undoing every
    /// `on_select` commit since the [`checkpoint`](Self::checkpoint).
    /// See there.
    fn restore(&mut self) {}
}

/// Policy-free hooks: plain structural SLP.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

#[cfg(test)]
impl SelectHooks for NoHooks {}

/// Plain, accuracy-*unaware* selection on frozen word lengths (the
/// `WLO-First` baseline): a candidate is admissible iff every element's
/// word length fits the sub-word the target grants the group
/// ([`CandidateView::fits_frozen_wls`]), and the cycle-priced benefit
/// model reads the frozen word lengths.
pub struct FrozenWls<'a> {
    /// The target granting each candidate its sub-word width.
    pub target: &'a TargetModel,
    /// Every node's word length.
    pub wl: &'a dyn Fn(NodeId) -> i32,
    /// Every node's fractional word length, when known; `None` prices
    /// scalings as uniform.
    pub fwl: Option<&'a dyn Fn(NodeId) -> i32>,
}

impl SelectHooks for FrozenWls<'_> {
    fn screen(&mut self, views: &[CandidateView]) -> Vec<bool> {
        views
            .iter()
            .map(|v| v.fits_frozen_wls(self.target, self.wl))
            .collect()
    }

    fn current_wl(&self, node: NodeId) -> Option<i32> {
        Some((self.wl)(node))
    }

    fn current_fwl(&self, node: NodeId) -> Option<i32> {
        self.fwl.map(|fwl| fwl(node))
    }
}

/// One round after candidate validation (fig. 1c lines 4–12), with its
/// conflict relation (lines 13–25) answered as the selectors read it:
/// what both selectors start from.
pub(crate) struct Screened<'r> {
    pub dfg: &'r Dfg,
    pub round: &'r Round,
    /// The groups selected in earlier rounds.
    pub prior: &'r [SimdGroup],
    pub views: Vec<CandidateView>,
    /// Which candidates passed validation.
    pub alive: Vec<bool>,
    /// The conflict answers the round stores: none under greedy, the
    /// pool's, as they are read, under the exact selector.
    pub conflicts: RoundConflicts,
}

impl<'r> Screened<'r> {
    /// Opens a round: the hooks validate every candidate (fig. 1c lines
    /// 4–12). No conflict is answered yet, structural or accuracy: each
    /// pair is answered when a selector reads it.
    pub(crate) fn new(
        ctx: &PassCtx<'_>,
        dfg: &'r Dfg,
        round: &'r Round,
        prior: &'r [SimdGroup],
        hooks: &mut dyn SelectHooks,
    ) -> Self {
        let n = round.candidates.len();
        let views: Vec<CandidateView> = (0..n).map(|i| round.view(ctx.target, i)).collect();
        let alive = hooks.screen(&views);
        Screened {
            dfg,
            round,
            prior,
            views,
            alive,
            conflicts: RoundConflicts::default(),
        }
    }
}

/// Runs one selection pass over a round (one `SLP()` invocation of the
/// paper) and returns the newly formed groups.
///
/// `ctx.benefit` picks the candidate-pricing strategy; under
/// [`BenefitKind::Cycles`] the model reads each node's current word
/// length through [`SelectHooks::current_wl`] every iteration, so
/// candidates are re-priced as selections shrink the spec. Under
/// [`BenefitKind::Optimal`] the round is solved exactly by
/// branch-and-bound, accumulating its search statistics into
/// `ctx.stats` (untouched under the greedy kinds).
pub fn run_selection(
    ctx: &mut PassCtx<'_>,
    dfg: &Dfg,
    round: &Round,
    selected_so_far: &[SimdGroup],
    hooks: &mut dyn SelectHooks,
) -> Vec<SimdGroup> {
    let mut screened = Screened::new(ctx, dfg, round, selected_so_far, hooks);
    match ctx.benefit {
        BenefitKind::Optimal { budget } => run_selection_optimal(ctx, &mut screened, hooks, budget),
        _ => greedy_loop(ctx, &mut screened, hooks).groups,
    }
}

/// What one greedy pass produced: the new groups, plus the accepted
/// candidate indices in selection order (the exact selector replays a
/// probe from exactly this log).
pub(crate) struct GreedyOutcome {
    pub groups: Vec<SimdGroup>,
    pub chosen: Vec<usize>,
}

/// The benefit model over the oracle's current word lengths, with
/// unanswered nodes at the target's maximum. Reads are lazy: the model
/// asks only for the nodes it prices, and only while it lives.
pub(crate) fn hook_model<'a>(
    ctx: &'a PassCtx<'a>,
    screened: &Screened<'a>,
    oracle: &'a dyn SelectHooks,
) -> BenefitModel<'a> {
    let max_wl = ctx.target.max_wl();
    BenefitModel::new(
        screened.dfg,
        screened.round,
        ctx,
        move |n| oracle.current_wl(n).unwrap_or(max_wl),
        |n| oracle.current_fwl(n),
    )
}

/// The hooks' word lengths read once per node: an oracle for a
/// [`hook_model`] that must outlive later calls on the hooks. Accurate
/// for as long as those calls leave the word lengths as they are.
pub(crate) struct WlSnapshot {
    wl: Vec<Option<i32>>,
    fwl: Vec<Option<i32>>,
}

impl WlSnapshot {
    pub(crate) fn new(dfg: &Dfg, hooks: &dyn SelectHooks) -> Self {
        WlSnapshot {
            wl: dfg.iter().map(|(n, _)| hooks.current_wl(n)).collect(),
            fwl: dfg.iter().map(|(n, _)| hooks.current_fwl(n)).collect(),
        }
    }
}

impl SelectHooks for WlSnapshot {
    fn current_wl(&self, node: NodeId) -> Option<i32> {
        self.wl[node.index()]
    }

    fn current_fwl(&self, node: NodeId) -> Option<i32> {
        self.fwl[node.index()]
    }
}

/// The paper's greedy-with-guards loop over a screened round. Under
/// [`BenefitKind::Optimal`] it prices as [`BenefitKind::Cycles`] (the
/// exact selector's incumbent probe).
///
/// Each iteration picks the most beneficial live candidate and, if it is
/// accepted, eliminates every live candidate in conflict with it. The
/// paper splits the loop in two: while conflicts remain among live
/// candidates, and a conflict-free tail that selects the rest in benefit
/// order. One rule serves both, because in the tail the chosen candidate
/// conflicts with no live one and eliminates nothing. That is why the
/// loop never asks whether any live conflict remains, and reads only the
/// pairs between each accepted candidate and the candidates still live.
/// Eliminating structural conflicts also covers overlaps with this
/// round's groups. A candidate overlapping a `selected_so_far` group
/// contains it wholly as one of its two items (prior-round nodes only
/// enter candidates through their group's item), which is a legal
/// widening that `absorb_selected` resolves — see
/// `overlap_with_prior_groups_implies_containment`.
pub(crate) fn greedy_loop(
    ctx: &PassCtx<'_>,
    screened: &mut Screened<'_>,
    hooks: &mut dyn SelectHooks,
) -> GreedyOutcome {
    let mut alive = screened.alive.clone();
    let mut selected: Vec<SimdGroup> = screened.prior.to_vec();
    let mut chosen: Vec<usize> = Vec::new();
    loop {
        // The model is rebuilt each iteration over a fresh word-length
        // oracle: selections mutate the spec through the hooks, and the
        // cycle-priced strategy must see those shrinks.
        let best = argmax_benefit(&hook_model(ctx, screened, &*hooks), &alive, &selected);
        let Some(best) = best else {
            break;
        };
        alive[best] = false;
        if !accept(screened, best, &mut selected, hooks) {
            continue;
        }
        chosen.push(best);
        for (j, live) in alive.iter_mut().enumerate() {
            if *live && screened.conflicts.pair(screened.round, hooks, best, j) {
                *live = false;
            }
        }
    }
    GreedyOutcome {
        groups: selected.split_off(screened.prior.len()),
        chosen,
    }
}

/// The accept step both selectors share: candidate `idx` joins
/// `selected` (the prior groups plus this round's) unless its group
/// closes a dependency cycle with them or the hooks veto it. The
/// structural guard runs before any hook side effect: a group that would
/// close a cycle with the groups already selected (this round or earlier
/// ones) can never be realised as one SIMD instruction, and pairwise
/// candidate conflicts cannot see these multi-group cycles.
pub(crate) fn accept(
    screened: &Screened<'_>,
    idx: usize,
    selected: &mut Vec<SimdGroup>,
    hooks: &mut dyn SelectHooks,
) -> bool {
    let view = &screened.views[idx];
    if closes_cycle(screened.dfg, selected, &view.group) || !hooks.on_select(view) {
        return false;
    }
    selected.push(view.group.clone());
    true
}

fn argmax_benefit(
    model: &BenefitModel<'_>,
    alive: &[bool],
    selected: &[SimdGroup],
) -> Option<usize> {
    // One pass for the whole sweep: `(alive, selected)` are fixed here,
    // so the pass's viability memo is shared across every candidate.
    let pass = model.pass(alive, selected);
    pick_best(
        alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| (i, pass.assess(i))),
        model.admission_margin(),
    )
}

/// The admission + argmax kernel of the greedy loop, total over any
/// `f64` the pricing produces.
///
/// Admission: only candidates whose *net* benefit clears the margin may
/// be selected — the ranking key alone would pack pairs whose inserts
/// and extracts cost more than what the vector op saves. Re-evaluated
/// every iteration: a candidate rejected now can become admissible once
/// neighbours are selected (reuse grows) or, under WLO↔SLP, once word
/// lengths shrink. A NaN net is rejected explicitly — `net <= margin`
/// is false for NaN, so without the guard a poisoned price would pass
/// admission. Ranking uses the total order with an earliest-index
/// tie-break, so a NaN rank can never displace a finite best and equal
/// ranks resolve deterministically.
pub(crate) fn pick_best(
    scores: impl Iterator<Item = (usize, CostedBenefit)>,
    margin: f64,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, assessed) in scores {
        let net = assessed.net();
        if net.is_nan() || net <= margin {
            continue;
        }
        let b = assessed.rank();
        match best {
            Some((_, bb)) if bb.total_cmp(&b).is_ge() => {}
            _ => best = Some((i, b)),
        }
    }
    best.map(|(i, _)| i)
}

/// Runs extraction rounds to fixpoint (the paper's outer `while not done`
/// over one basic block): each round re-enumerates candidates over the
/// updated item set, allowing group sizes to grow as long as the target
/// supports them. The exact selector's search statistics accumulate into
/// `ctx.stats` (untouched under the greedy kinds).
pub fn extract_rounds(
    ctx: &mut PassCtx<'_>,
    dfg: &Dfg,
    hooks: &mut dyn SelectHooks,
) -> Vec<SimdGroup> {
    let mut groups: Vec<SimdGroup> = Vec::new();
    loop {
        let round = Round::new(dfg, ctx.target, &groups);
        let selected = run_selection(ctx, dfg, &round, &groups, hooks);
        if selected.is_empty() {
            return groups;
        }
        absorb_selected(&mut groups, selected);
    }
}

/// Folds a round's freshly selected groups into the accumulated group
/// set: a selection supersedes every prior group it overlaps (fig. 1a
/// line 12 — the wider extension absorbs the groups it grew from).
///
/// The retain triggers on *any* overlap, not only strictly-wider ones.
/// `Round` provably cannot emit an overlapping selection that is not a
/// strict widening — a candidate overlapping a prior group contains it
/// wholly as one of its two equal-lane items, hence has twice its lanes
/// (pinned by `overlap_with_prior_groups_implies_containment`) — but
/// keeping the supersede rule independent of that enumeration invariant
/// means a future relaxation of `Round` cannot silently leave one node
/// in two groups.
pub fn absorb_selected(groups: &mut Vec<SimdGroup>, selected: Vec<SimdGroup>) {
    groups.retain(|g| !selected.iter().any(|s| s.overlaps(g)));
    groups.extend(selected);
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::dfg::NodeKind;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::Kernel;
    use slpwlo_targets::{st240, vex, xentium, TargetModel};

    fn fir4_block() -> (Kernel, Dfg) {
        let src = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var t0;
    var t1;
    shiftin dl <- x;
    t0 = c[0] * dl[0] + c[1] * dl[1];
    t1 = c[2] * dl[2] + c[3] * dl[3];
    y = t0 + t1;
}
"#;
        let k = parse_kernel(src).unwrap();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_stmts(&k, &blocks[0].stmts);
        (k, dfg)
    }

    fn plain(dfg: &Dfg, target: &TargetModel, wl: &dyn Fn(NodeId) -> i32) -> Vec<SimdGroup> {
        let mut hooks = FrozenWls {
            target,
            wl,
            fwl: None,
        };
        extract_rounds(
            &mut PassCtx::plain(target, BenefitKind::default()),
            dfg,
            &mut hooks,
        )
    }

    #[test]
    fn plain_extraction_finds_groups_at_16_bits() {
        let (_, dfg) = fir4_block();
        let groups = plain(&dfg, &xentium(), &|_| 16);
        assert!(!groups.is_empty(), "16-bit data must vectorize");
        // The two multiplies with adjacent loads must be grouped.
        let mul_groups: Vec<_> = groups
            .iter()
            .filter(|g| matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Mul)))
            .collect();
        assert_eq!(mul_groups.len(), 2, "got {groups:?}");
        // No group may contain dependent elements.
        for g in &groups {
            for (i, &a) in g.elems.iter().enumerate() {
                for &b in &g.elems[i + 1..] {
                    assert!(dfg.independent(a, b));
                }
            }
        }
    }

    #[test]
    fn plain_extraction_finds_nothing_at_32_bits() {
        let (_, dfg) = fir4_block();
        let groups = plain(&dfg, &xentium(), &|_| 32);
        assert!(
            groups.is_empty(),
            "32-bit data cannot pack on a 32-bit SIMD datapath"
        );
    }

    #[test]
    fn extension_to_four_lanes_on_vex() {
        let (_, dfg) = fir4_block();
        let groups8 = plain(&dfg, &vex(4), &|_| 8);
        let max_lanes = groups8.iter().map(|g| g.lanes()).max().unwrap_or(0);
        assert_eq!(
            max_lanes, 4,
            "8-bit data on VEX must form 4-lane groups: {groups8:?}"
        );
        // On ST240 (2x16 only) the same data stays in pairs.
        let groups_st = plain(&dfg, &st240(), &|_| 8);
        let max_st = groups_st.iter().map(|g| g.lanes()).max().unwrap_or(0);
        assert_eq!(max_st, 2);
    }

    #[test]
    fn mixed_wl_blocks_grouping() {
        let (_, dfg) = fir4_block();
        // Give one multiply 32 bits: it cannot join a 2x16 group.
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(slpwlo_ir::BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let wide = muls[0];
        let groups = plain(&dfg, &xentium(), &move |n| if n == wide { 32 } else { 16 });
        for g in &groups {
            assert!(!g.contains(wide), "the 32-bit op must stay scalar");
        }
    }

    #[test]
    fn no_group_member_repeats() {
        let (_, dfg) = fir4_block();
        let groups = plain(&dfg, &vex(4), &|_| 16);
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for &e in &g.elems {
                assert!(seen.insert(e), "node {e} appears in two groups");
            }
        }
    }

    #[test]
    fn poisoned_prices_never_win_the_argmax() {
        // Regression for the NaN admission hole: `net() <= margin` is
        // false when net() is NaN, so the pre-fix argmax admitted a
        // poisoned candidate — and `bb >= b` (false against NaN) then
        // let its NaN rank displace any finite best. Both must be dead.
        let nan = CostedBenefit::from_parts(f64::NAN, 0.0, 0.0, 0.0);
        let good = CostedBenefit::from_parts(5.0, 0.0, 0.0, 1.0);
        // A lone poisoned candidate is not admitted.
        assert_eq!(pick_best([(0, nan)].into_iter(), 0.0), None);
        // A poisoned candidate never displaces a finite one, on either
        // side of it.
        assert_eq!(pick_best([(0, nan), (1, good)].into_iter(), 0.0), Some(1));
        assert_eq!(pick_best([(0, good), (1, nan)].into_iter(), 0.0), Some(0));
        // Infinite prices are collapsed at the assessment boundary; via
        // `sanitized()` they reach the argmax as net() == -inf and lose
        // admission outright.
        let inf = CostedBenefit::from_parts(f64::INFINITY, 0.0, 0.0, 0.0).sanitized();
        assert_eq!(pick_best([(0, inf), (1, good)].into_iter(), 0.0), Some(1));
        // Equal ranks tie-break to the earliest index, deterministically.
        assert_eq!(pick_best([(0, good), (1, good)].into_iter(), 0.0), Some(0));
        // The margin is respected as a strict bound.
        assert_eq!(pick_best([(0, good)].into_iter(), 4.0), None);
    }

    #[test]
    fn absorb_drops_any_overlapping_prior_group() {
        let g = |elems: &[u32]| SimdGroup {
            elems: elems.iter().map(|&i| NodeId(i)).collect(),
        };
        // A wider selection absorbs the pair it contains.
        let mut groups = vec![g(&[0, 1]), g(&[2, 3])];
        absorb_selected(&mut groups, vec![g(&[0, 1, 4, 5])]);
        assert_eq!(groups, vec![g(&[2, 3]), g(&[0, 1, 4, 5])]);
        // An equal-lane overlapping selection (impossible from `Round`,
        // but the supersede rule must not rely on that) also absorbs.
        let mut groups = vec![g(&[0, 1]), g(&[2, 3])];
        absorb_selected(&mut groups, vec![g(&[1, 4])]);
        assert_eq!(groups, vec![g(&[2, 3]), g(&[1, 4])]);
        // Disjoint selections accumulate.
        let mut groups = vec![g(&[0, 1])];
        absorb_selected(&mut groups, vec![g(&[2, 3])]);
        assert_eq!(groups, vec![g(&[0, 1]), g(&[2, 3])]);
    }

    #[test]
    fn overlap_with_prior_groups_implies_containment() {
        // The structural invariant both the supersede rule and the
        // conflict-free tail lean on: a candidate overlapping a
        // prior-round group must contain it wholly as one of its two
        // items — prior-round nodes only enter the item set through
        // their group — and therefore has strictly more lanes. An
        // equal-lane partial overlap is unrepresentable.
        let (_, dfg) = fir4_block();
        for target in [xentium(), vex(4), st240()] {
            // Drive rounds to fixpoint, checking every round's candidate
            // enumeration against the prior groups it extends.
            let mut groups: Vec<SimdGroup> = Vec::new();
            let mut ctx = PassCtx::plain(&target, BenefitKind::Cycles);
            loop {
                let round = Round::new(&dfg, &target, &groups);
                for idx in 0..round.candidates.len() {
                    let cand = round.merged(idx);
                    for prior in &groups {
                        if cand.overlaps(prior) {
                            assert!(
                                prior.elems.iter().all(|&e| cand.contains(e)),
                                "{}: candidate {cand} partially overlaps prior {prior}",
                                target.name
                            );
                            assert!(
                                cand.lanes() > prior.lanes(),
                                "{}: overlapping candidate {cand} is not wider than {prior}",
                                target.name
                            );
                        }
                    }
                }
                let selected = run_selection(&mut ctx, &dfg, &round, &groups, &mut NoHooks);
                if selected.is_empty() {
                    break;
                }
                absorb_selected(&mut groups, selected);
            }
            // And the final fixpoint leaves every node in at most one
            // group (the verify_groups invariant the supersede protects).
            let mut seen = std::collections::HashSet::new();
            for g in &groups {
                for &e in &g.elems {
                    assert!(seen.insert(e), "{}: node {e} in two groups", target.name);
                }
            }
        }
    }

    /// Seeded policy with a fixed pseudo-random accuracy-conflict
    /// relation over candidate groups (and a few candidates rejected at
    /// validation), counting the pair questions of each round.
    struct RandomConflicts {
        seed: u64,
        /// Conflict probability in eighths.
        density: u64,
        groups: Vec<Vec<NodeId>>,
        asked: std::collections::HashSet<(usize, usize)>,
        questions: usize,
        repeats: usize,
        /// Questions answered "conflict".
        conflicts: usize,
    }

    impl RandomConflicts {
        fn new(seed: u64, density: u64) -> Self {
            RandomConflicts {
                seed,
                density,
                groups: Vec::new(),
                asked: Default::default(),
                questions: 0,
                repeats: 0,
                conflicts: 0,
            }
        }

        fn draw(&self, parts: &[&[NodeId]]) -> u64 {
            let mut h = self.seed;
            for n in parts.iter().flat_map(|p| p.iter()) {
                h = (h ^ u64::from(n.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^= h >> 29;
            }
            h % 8
        }
    }

    impl SelectHooks for RandomConflicts {
        fn screen(&mut self, views: &[CandidateView]) -> Vec<bool> {
            self.groups = views.iter().map(|v| v.group.elems.clone()).collect();
            self.asked.clear();
            self.groups.iter().map(|g| self.draw(&[g]) != 0).collect()
        }

        fn accuracy_conflict(&mut self, i: usize, j: usize) -> bool {
            assert!(i < j, "pair ({i}, {j}) asked out of order");
            self.questions += 1;
            if !self.asked.insert((i, j)) {
                self.repeats += 1;
            }
            let conflict = self.draw(&[&self.groups[i], &self.groups[j]]) < self.density;
            self.conflicts += usize::from(conflict);
            conflict
        }
    }

    /// The greedy loop as it read with every pair screened up front: the
    /// conflict list, the "any live conflict" test and the conflict-free
    /// tail's overlap kill. The reference of the lazy loop.
    fn eager_greedy(
        ctx: &PassCtx<'_>,
        screened: &Screened<'_>,
        hooks: &mut dyn SelectHooks,
    ) -> Vec<SimdGroup> {
        let round = screened.round;
        let live: Vec<usize> = (0..screened.alive.len())
            .filter(|&i| screened.alive[i])
            .collect();
        let mut conf: Vec<(usize, usize)> = Vec::new();
        for (k, &i) in live.iter().enumerate() {
            for &j in &live[k + 1..] {
                if crate::conflict::conflicts(round, i, j) || hooks.accuracy_conflict(i, j) {
                    conf.push((i, j));
                }
            }
        }
        let mut alive = screened.alive.clone();
        let mut selected: Vec<SimdGroup> = screened.prior.to_vec();
        loop {
            let live_conflicts = conf.iter().any(|&(i, j)| alive[i] && alive[j]);
            let best = argmax_benefit(&hook_model(ctx, screened, &*hooks), &alive, &selected);
            let Some(best) = best else {
                break;
            };
            alive[best] = false;
            let accepted = accept(screened, best, &mut selected, hooks);
            if !live_conflicts {
                let new_groups = &selected[screened.prior.len()..];
                for (ci, a) in alive.iter_mut().enumerate() {
                    if *a && new_groups.iter().any(|s| s.overlaps(round.merged(ci))) {
                        *a = false;
                    }
                }
            } else if accepted {
                for &(i, j) in &conf {
                    if i == best {
                        alive[j] = false;
                    } else if j == best {
                        alive[i] = false;
                    }
                }
            }
        }
        selected.split_off(screened.prior.len())
    }

    /// Lazy conflict reads select exactly what eager screening selects:
    /// over blocks of every suite kernel on three targets, under a seeded
    /// pseudo-random accuracy-conflict relation at three densities, the
    /// greedy selector matches the eager loop and the exact selector
    /// matches itself asking its whole pool at round entry, round by
    /// round to fixpoint, in its selections and search statistics. No
    /// pair is asked twice in a round, across the exact selector's greedy
    /// probe and search together, and the lazy selectors ask fewer
    /// questions than eager screening. Asked on read, an accuracy
    /// conflict between pool members is unknown to the search's bounds
    /// until an include reads it, so the include-steps, a work counter,
    /// move only where some pair is an accuracy conflict. Where they
    /// reach the budget, the round falls back to greedy: CFIR's search
    /// on XENTIUM at one conflict in eight now exhausts it, where asking
    /// at entry took 74 408 steps over the whole run.
    #[test]
    fn lazy_conflicts_select_as_eager_screening() {
        use slpwlo_ir::blocks::blocks_by_priority;
        use slpwlo_kernels::all_benchmarks;

        let (mut lazy_asked, mut eager_asked) = (0usize, 0usize);
        let (mut lazy_steps, mut eager_steps) = (0u64, 0u64);
        // The cases whose lazy search exhausts its budget.
        const EXHAUSTED: [&str; 1] = ["CFIR on XENTIUM (1, 1)"];
        let mut exhausted = Vec::new();
        for bench in all_benchmarks() {
            let block = &blocks_by_priority(&bench.kernel)[0];
            let dfg = Dfg::from_block(&bench.kernel, block);
            for target in [xentium(), st240(), vex(4)] {
                for (seed, density) in [(1u64, 1u64), (2, 3), (3, 6)] {
                    for kind in [BenefitKind::Cycles, BenefitKind::optimal()] {
                        let point =
                            format!("{} on {} ({seed}, {density})", bench.name, target.name);
                        let case = format!("{point} under {kind:?}");
                        let mut lazy = RandomConflicts::new(seed, density);
                        let mut ctx = PassCtx::plain(&target, kind);
                        let got = extract_rounds(&mut ctx, &dfg, &mut lazy);
                        assert_eq!(lazy.repeats, 0, "{case}: a pair was asked twice");

                        let mut eager = RandomConflicts::new(seed, density);
                        let mut eager_ctx = PassCtx::plain(&target, kind);
                        let mut want: Vec<SimdGroup> = Vec::new();
                        loop {
                            let round = Round::new(&dfg, &target, &want);
                            let selected = if kind == BenefitKind::Cycles {
                                let screened =
                                    Screened::new(&eager_ctx, &dfg, &round, &want, &mut eager);
                                eager_greedy(&eager_ctx, &screened, &mut eager)
                            } else {
                                let at_entry = &crate::optimal::ASK_POOL_AT_ENTRY;
                                at_entry.with(|a| a.set(true));
                                let selected =
                                    run_selection(&mut eager_ctx, &dfg, &round, &want, &mut eager);
                                at_entry.with(|a| a.set(false));
                                selected
                            };
                            if selected.is_empty() {
                                break;
                            }
                            absorb_selected(&mut want, selected);
                        }
                        if ctx.stats.budget_fallbacks > eager_ctx.stats.budget_fallbacks {
                            exhausted.push(point);
                            continue;
                        }
                        assert_eq!(got, want, "{case}: selections differ");
                        let (steps, eager_steps_here) =
                            (ctx.stats.include_steps, eager_ctx.stats.include_steps);
                        assert_eq!(
                            crate::SelectStats {
                                include_steps: 0,
                                ..ctx.stats
                            },
                            crate::SelectStats {
                                include_steps: 0,
                                ..eager_ctx.stats
                            },
                            "{case}: search statistics differ"
                        );
                        assert!(
                            steps == eager_steps_here || eager.conflicts > 0,
                            "{case}: {steps} include-steps, {eager_steps_here} asking at entry"
                        );
                        lazy_steps += steps;
                        eager_steps += eager_steps_here;
                        assert!(lazy.questions <= eager.questions, "{case}");
                        lazy_asked += lazy.questions;
                        eager_asked += eager.questions;
                    }
                }
            }
        }
        assert!(
            lazy_asked < eager_asked,
            "{lazy_asked} lazy vs {eager_asked} eager questions"
        );
        assert_eq!(exhausted, EXHAUSTED, "cases that exhaust the budget");
        assert_eq!((eager_steps, lazy_steps), (132_744, 373_583));
    }

    #[test]
    fn veto_hook_blocks_selection() {
        struct VetoAll;
        impl SelectHooks for VetoAll {
            fn on_select(&mut self, _v: &CandidateView) -> bool {
                false
            }
        }
        let (_, dfg) = fir4_block();
        let target = xentium();
        let mut ctx = PassCtx::plain(&target, BenefitKind::default());
        let groups = extract_rounds(&mut ctx, &dfg, &mut VetoAll);
        assert!(groups.is_empty());
    }

    #[test]
    fn validate_hook_filters_candidates() {
        // Admit loads and muls, reject the add pair: extraction must
        // still form the (net-beneficial) load and mul groups while the
        // filtered adds never appear. (Keeping loads admissible matters:
        // a mul pair with no packed operands is net-negative on its own
        // and the benefit admission would rightly skip it.)
        struct NoAdds<'d> {
            dfg: &'d Dfg,
        }
        impl SelectHooks for NoAdds<'_> {
            fn screen(&mut self, views: &[CandidateView]) -> Vec<bool> {
                views
                    .iter()
                    .map(|v| {
                        !matches!(v.group.kind(self.dfg), NodeKind::Bin(slpwlo_ir::BinOp::Add))
                    })
                    .collect()
            }
        }
        let (_, dfg) = fir4_block();
        let target = xentium();
        let mut ctx = PassCtx::plain(&target, BenefitKind::default());
        let groups = extract_rounds(&mut ctx, &dfg, &mut NoAdds { dfg: &dfg });
        assert!(!groups.is_empty());
        assert!(groups
            .iter()
            .any(|g| matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Mul))));
        for g in &groups {
            assert!(
                !matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Add)),
                "filtered adds must never be selected"
            );
        }
    }
}
