//! Exact per-round pack selection ([`BenefitKind::Optimal`]).
//!
//! goSLP (see PAPERS.md) shows that pairwise pack selection can be
//! solved globally instead of greedily. This module does so without a
//! solver dependency, mirroring the modulo scheduler's homegrown
//! branch-and-bound discipline: over one round's candidates it searches
//! for the conflict-free, acyclic subset maximizing the total *in-set*
//! net benefit under the [`BenefitKind::Cycles`] prices — in-set
//! meaning each member is priced against the chosen set itself, so a
//! candidate's speculative reuse becomes exact the moment its partner
//! is in the set.
//!
//! Three contracts shape the search:
//!
//! * **Incumbent seeding** — the greedy result (probed speculatively
//!   through [`SelectHooks::checkpoint`]/`restore`) is the starting
//!   incumbent, so the exact selector can never return a set valued
//!   worse than greedy's.
//! * **Budget fallback** — each round spends at most `budget`
//!   include-steps; an exhausted budget abandons the search and replays
//!   the greedy probe deterministically (recorded in
//!   [`SelectStats::budget_fallbacks`]).
//! * **Replay in chosen order** — hook side effects (`SETMAXWL`
//!   commits) happen only after the search, by replaying the winning
//!   set through [`SelectHooks::on_select`] in ascending candidate
//!   order; a veto during that replay (the set's *cumulative* accuracy
//!   effect can exceed what pairwise conflicts admit) rolls back and
//!   falls back to greedy ([`SelectStats::veto_fallbacks`]).
//!
//! A search node prices nothing afresh. Within one search — one
//! word-length snapshot against a fixed set of prior groups — a
//! candidate's optimistic bound term and its in-set value term are one
//! function of three bits: whether each operand superword is produced
//! packed and whether the result is consumed packed. A flow resolves
//! through a prior group, or through a partner candidate that is chosen
//! (or, for the bound, still available). The search precomputes each
//! pooled candidate's partners once and memoises the eight prices per
//! candidate, filling a miss from [`BenefitModel::assess_optimistic`] or
//! [`BenefitModel::assess`] themselves, so every answer is bitwise the
//! model's. The include-steps spent are reported as
//! [`SelectStats::include_steps`].
//!
//! [`BenefitKind::Optimal`]: crate::BenefitKind::Optimal
//! [`BenefitKind::Cycles`]: crate::BenefitKind::Cycles

use crate::benefit::{BenefitModel, ReuseShape};
use crate::candidate::Round;
use crate::conflict::conflicts;
use crate::ctx::PassCtx;
use crate::group::{closes_cycle, SimdGroup};
use crate::select::{accept, greedy_loop, hook_model, Screened, SelectHooks};
use slpwlo_ir::dfg::Dfg;

/// Value-comparison slack: two selections within this are considered
/// equal, so float dust can neither dethrone the greedy incumbent nor
/// flip a verdict between runs.
const EPS: f64 = 1e-9;

/// Counters of the exact selector's behaviour, accumulated across
/// rounds (and blocks) of one flow run. All zeros under the greedy
/// kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Rounds the branch-and-bound search ran on (rounds with at least
    /// one live candidate).
    pub rounds: u64,
    /// Rounds where the search found and committed a set strictly
    /// better than the greedy incumbent.
    pub improved: u64,
    /// Rounds abandoned to the greedy fallback because the include-step
    /// budget ran out.
    pub budget_fallbacks: u64,
    /// Rounds where replaying the improved set was vetoed by the hooks
    /// (cumulative accuracy effect) and greedy was restored instead.
    pub veto_fallbacks: u64,
    /// Branch-and-bound include-steps spent, summed over rounds (a round
    /// that exhausts its budget counts the whole budget). Deterministic:
    /// the search's work measure, independent of the machine.
    pub include_steps: u64,
    /// Flow-level arbitrations that preferred the greedy leg's schedule
    /// over the exact leg's (the exact selector optimizes the benefit
    /// model, the flow's contract is real scheduled cycles).
    pub portfolio_fallbacks: u64,
}

/// In-set value of a chosen candidate subset: the sum over members of
/// their net benefit priced against the chosen set itself (liveness
/// off, so no speculative optimism — a reuse either resolves against a
/// chosen or prior group or is paid as packing traffic), each cleared
/// against the model's admission margin so that adding a candidate that
/// merely breaks even does not count as an improvement.
pub fn set_value(
    model: &BenefitModel<'_>,
    round: &Round,
    prior: &[SimdGroup],
    chosen: &[usize],
) -> f64 {
    let mut all: Vec<SimdGroup> = prior.to_vec();
    all.extend(chosen.iter().map(|&i| round.merged(i).clone()));
    let dead = vec![false; round.candidates.len()];
    let margin = model.admission_margin();
    chosen
        .iter()
        .map(|&i| model.assess(i, &dead, &all).net() - margin)
        .sum()
}

/// The most live candidates [`exhaustive_best`] enumerates.
pub const EXHAUSTIVE_LIMIT: usize = 20;

/// Reference optimum by subset enumeration, for verification on small
/// rounds: the feasible (pairwise structurally conflict-free, acyclic
/// against `prior`) subset of live candidates with maximal
/// [`set_value`], against the empty set's baseline of zero. Exponential
/// in the live count — callers gate the size to [`EXHAUSTIVE_LIMIT`].
pub fn exhaustive_best(
    dfg: &Dfg,
    model: &BenefitModel<'_>,
    round: &Round,
    prior: &[SimdGroup],
    alive: &[bool],
) -> (Vec<usize>, f64) {
    let live: Vec<usize> = alive
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| i)
        .collect();
    assert!(
        live.len() <= EXHAUSTIVE_LIMIT,
        "exhaustive_best is for small rounds; got {} live candidates",
        live.len()
    );
    let mut best: (Vec<usize>, f64) = (Vec::new(), 0.0);
    'subset: for mask in 1u64..(1u64 << live.len()) {
        let subset: Vec<usize> = live
            .iter()
            .enumerate()
            .filter(|&(b, _)| mask & (1 << b) != 0)
            .map(|(_, &i)| i)
            .collect();
        for (a, &i) in subset.iter().enumerate() {
            for &j in &subset[a + 1..] {
                if conflicts(round, i, j) {
                    continue 'subset;
                }
            }
        }
        // Incremental acyclicity in subset order: if the full coarsened
        // graph were cyclic, the member completing the cycle would be
        // caught when added.
        let mut sel: Vec<SimdGroup> = prior.to_vec();
        for &i in &subset {
            if closes_cycle(dfg, &sel, round.merged(i)) {
                continue 'subset;
            }
            sel.push(round.merged(i).clone());
        }
        let v = set_value(model, round, prior, &subset);
        if v > best.1 + EPS {
            best = (subset, v);
        }
    }
    best
}

/// One exact selection pass over a screened round, searching with at
/// most `budget` include-steps.
pub(crate) fn run_selection_optimal(
    ctx: &mut PassCtx<'_>,
    screened: &Screened<'_>,
    hooks: &mut dyn SelectHooks,
    budget: u32,
) -> Vec<SimdGroup> {
    if !screened.alive.iter().any(|&a| a) {
        return Vec::new();
    }
    ctx.stats.rounds += 1;

    // Greedy probe: run the full greedy loop speculatively to learn its
    // chosen set (the incumbent), then roll every hook side effect back
    // so the search prices candidates at the round-entry spec state —
    // the same state greedy's own first iteration saw.
    hooks.checkpoint();
    let probe = greedy_loop(ctx, screened, hooks);
    hooks.restore();

    let (best_set, exhausted, steps) = search(
        &hook_model(ctx, screened, &*hooks),
        screened,
        budget,
        &probe.chosen,
    );
    ctx.stats.include_steps += u64::from(steps);
    if exhausted {
        ctx.stats.budget_fallbacks += 1;
    }
    let greedy = |hooks: &mut dyn SelectHooks| {
        replay(screened, hooks, &probe.chosen, false).expect("lax replay never fails")
    };
    let Some(mut set) = best_set.filter(|_| !exhausted) else {
        // The budget ran out, or greedy already matched the searched
        // optimum: replay its probe. From the restored round-entry
        // state the same accepted selections receive the same answers,
        // so this is bitwise the greedy outcome.
        return greedy(hooks);
    };
    // Commit the improved set in ascending candidate order — a fixed,
    // deterministic replay order for the hooks' side effects.
    set.sort_unstable();
    hooks.checkpoint();
    match replay(screened, hooks, &set, true) {
        Some(groups) => {
            ctx.stats.improved += 1;
            groups
        }
        None => {
            // The set's cumulative accuracy effect was vetoed mid-replay:
            // roll back and fall back to the greedy incumbent.
            ctx.stats.veto_fallbacks += 1;
            hooks.restore();
            greedy(hooks)
        }
    }
}

/// Branch-and-bound over the round's candidates. Returns the best set
/// strictly better than the greedy incumbent (`None` when greedy is
/// already optimal among what was searched), whether the budget ran
/// out (in which case the best set is meaningless and discarded), and
/// the include-steps spent.
fn search(
    model: &BenefitModel<'_>,
    screened: &Screened<'_>,
    budget: u32,
    incumbent: &[usize],
) -> (Option<Vec<usize>>, bool, u32) {
    let Screened {
        dfg,
        round,
        prior,
        alive,
        conf,
        ..
    } = screened;
    // Per-candidate optimistic bound: the shallow assessment treats
    // every speculative flow as certain reuse, which upper-bounds the
    // candidate's in-set net over any chosen set.
    let margin = model.admission_margin();
    let n = round.candidates.len();
    let mut opt = vec![f64::NEG_INFINITY; n];
    for (i, &a) in alive.iter().enumerate() {
        if a {
            opt[i] = model.assess_optimistic(i, alive, prior).net() - margin;
        }
    }

    // Restrict the search to candidates reachable from a positive-bound
    // seed over reuse edges: pricing interactions between candidates
    // travel exclusively along operand/result superword matches, so a
    // connected component whose members all bound non-positive cannot
    // contribute positive value to any set and is dropped whole.
    let mut in_pool = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| alive[i] && opt[i] > 0.0).collect();
    for &i in &queue {
        in_pool[i] = true;
    }
    while let Some(i) = queue.pop() {
        for p in model.reuse_partners(i, alive) {
            if !in_pool[p] {
                in_pool[p] = true;
                queue.push(p);
            }
        }
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| in_pool[i]).collect();
    let words = n.div_ceil(64);
    let mut avail = vec![0u64; words];
    for &i in &order {
        avail[i / 64] |= 1 << (i % 64);
    }
    let nothing_chosen = vec![0u64; words];
    let mut memo = PriceMemo::new(model, round, prior, &order);
    // Re-tighten the static bounds against the pool itself: partners
    // outside the pool can never be chosen, so optimism extended to
    // them (the full `alive` set above — needed first, to make the
    // reachability closure sound) only loosens every cap derived from
    // `opt` below. Priced through the memo, which this also warms: the
    // search's root node asks exactly these questions.
    for &i in &order {
        opt[i] = memo.bound(i, &nothing_chosen, &avail, prior);
    }
    // Best-bound-first ordering tightens the suffix bound fastest;
    // total_cmp plus the index tie-break keeps it deterministic.
    order.sort_unstable_by(|&a, &b| opt[b].total_cmp(&opt[a]).then(a.cmp(&b)));

    // Conflict adjacency as bitsets over candidate indices, so an
    // include bans everything structurally incompatible with it in one
    // masked AND — and, crucially, so the suffix bound can skip banned
    // candidates instead of crediting them with value they can never
    // contribute. Dense rounds (CONV's fully-unrolled taps reach 80+
    // mutually overlapping candidates) are intractable under the
    // conflict-blind bound and close in a few thousand steps under this
    // one.
    let mut conf_mask = vec![0u64; n * words];
    for &(a, b) in conf {
        conf_mask[a * words + b / 64] |= 1 << (b % 64);
        conf_mask[b * words + a / 64] |= 1 << (a % 64);
    }

    // Greedy clique cover of the pool under the conflict relation, in
    // best-bound-first order: each candidate joins the first clique it
    // conflicts with *entirely*, else opens its own. At most one member
    // of a clique can ever be chosen, so a clique's contribution to any
    // completion is bounded by its best still-available member — far
    // tighter than summing every positive candidate on rounds built
    // from shared items (CFIR's first round has 148 positive candidates
    // in item-sharing cliques; the per-candidate sum never prunes
    // there, the cover bound closes the search).
    let mut cliques: Vec<(Vec<usize>, Vec<u64>)> = Vec::new();
    for &i in &order {
        let row = &conf_mask[i * words..(i + 1) * words];
        let home = cliques
            .iter()
            .position(|(_, members)| members.iter().zip(row).all(|(m, r)| m & !r == 0));
        let c = home.unwrap_or_else(|| {
            cliques.push((Vec::new(), vec![0u64; words]));
            cliques.len() - 1
        });
        cliques[c].0.push(i);
        cliques[c].1[i / 64] |= 1 << (i % 64);
    }
    let clique_members: Vec<Vec<usize>> = cliques.into_iter().map(|(m, _)| m).collect();

    let mut s = Search {
        dfg,
        round,
        order: &order,
        opt: &opt,
        conf_mask: &conf_mask,
        words,
        cliques: &clique_members,
        memo,
        budget,
        exhausted: false,
        chosen: Vec::new(),
        chosen_mask: nothing_chosen,
        sel: prior.to_vec(),
        prior_len: prior.len(),
        best_value: set_value(model, round, prior, incumbent),
        best_set: None,
    };
    s.dfs(0, &avail);
    (s.best_set, s.exhausted, budget - s.budget)
}

/// Bit `i` of a candidate bitset.
fn has(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// The search's price memo: each pooled candidate's bound and value
/// terms (`net() - margin`), keyed by its [`ReuseShape`] bits.
///
/// Invariant: one memo serves one [`search`] call, which prices one
/// word-length snapshot (the model's oracles are fixed for its
/// lifetime) against one fixed `prior`, and every pricing context the
/// search builds is `prior` plus chosen pool members. Under those
/// conditions a candidate's optimistic assessment and its in-set
/// assessment are one function of which of its three reuse flows
/// resolve (see [`BenefitModel::reuse_shape`]), so eight entries per
/// candidate hold every answer the search can ask for. A miss prices
/// through the model's own
/// [`assess_optimistic`](BenefitModel::assess_optimistic) or
/// [`assess`](BenefitModel::assess), so the memo returns their bits
/// exactly.
struct PriceMemo<'a, 'm> {
    model: &'a BenefitModel<'m>,
    margin: f64,
    /// Reuse shape per candidate index; filled for pool members only.
    shapes: Vec<ReuseShape>,
    terms: Vec<[Option<f64>; 8]>,
    /// All-false liveness: the in-set value prices no speculation.
    dead: Vec<bool>,
    /// The current `avail` as a liveness slice, for bound misses.
    alive_buf: Vec<bool>,
    /// Whether `alive_buf` mirrors the current `avail`; cleared by
    /// [`invalidate`](Self::invalidate), refreshed on the next miss.
    alive_fresh: bool,
}

impl<'a, 'm> PriceMemo<'a, 'm> {
    fn new(
        model: &'a BenefitModel<'m>,
        round: &Round,
        prior: &[SimdGroup],
        pool: &[usize],
    ) -> Self {
        let n = round.candidates.len();
        let mut shapes = vec![ReuseShape::default(); n];
        for &i in pool {
            shapes[i] = model.reuse_shape(i, prior);
        }
        PriceMemo {
            model,
            margin: model.admission_margin(),
            shapes,
            terms: vec![[None; 8]; n],
            dead: vec![false; n],
            alive_buf: vec![false; n],
            alive_fresh: false,
        }
    }

    /// Marks `avail` as changed since the last bound miss.
    fn invalidate(&mut self) {
        self.alive_fresh = false;
    }

    /// Candidate `i`'s optimistic net over the margin against `sel`
    /// (`prior` plus the `chosen` groups), with the `avail` candidates
    /// live: `assess_optimistic(i, avail, sel).net() - margin`.
    fn bound(&mut self, i: usize, chosen: &[u64], avail: &[u64], sel: &[SimdGroup]) -> f64 {
        let key = self.shapes[i].key(|p| has(chosen, p) || has(avail, p));
        if let Some(v) = self.terms[i][key] {
            return v;
        }
        if !self.alive_fresh {
            for (idx, a) in self.alive_buf.iter_mut().enumerate() {
                *a = has(avail, idx);
            }
            self.alive_fresh = true;
        }
        let v = self.model.assess_optimistic(i, &self.alive_buf, sel).net() - self.margin;
        self.terms[i][key] = Some(v);
        v
    }

    /// Candidate `i`'s in-set net over the margin against `sel` (`prior`
    /// plus the `chosen` groups): `assess(i, dead, sel).net() - margin`,
    /// the summand of [`set_value`].
    fn value(&mut self, i: usize, chosen: &[u64], sel: &[SimdGroup]) -> f64 {
        let key = self.shapes[i].key(|p| has(chosen, p));
        if let Some(v) = self.terms[i][key] {
            return v;
        }
        let v = self.model.assess(i, &self.dead, sel).net() - self.margin;
        self.terms[i][key] = Some(v);
        v
    }
}

struct Search<'a, 'm> {
    dfg: &'a Dfg,
    round: &'a Round,
    order: &'a [usize],
    opt: &'a [f64],
    /// Row-major `order`-independent adjacency: bit `j` of row `i` is
    /// set iff candidates `i` and `j` structurally conflict.
    conf_mask: &'a [u64],
    words: usize,
    /// Clique cover of the pool; members of each clique in descending
    /// optimistic-bound order, mutually conflicting.
    cliques: &'a [Vec<usize>],
    memo: PriceMemo<'a, 'm>,
    budget: u32,
    exhausted: bool,
    /// Candidate indices of the current partial set, in inclusion order.
    chosen: Vec<usize>,
    /// `chosen` as a bitset over candidate indices.
    chosen_mask: Vec<u64>,
    /// Prior groups plus the chosen groups (the pricing context).
    sel: Vec<SimdGroup>,
    prior_len: usize,
    best_value: f64,
    best_set: Option<Vec<usize>>,
}

impl Search<'_, '_> {
    /// `avail` holds the candidates still reachable on this path: the
    /// pool minus everything already decided (included, excluded, or
    /// conflicting with a chosen member). Every bound term is
    /// *path-dependent*: a member's contribution to any completion is
    /// capped by its optimistic assessment against the partners still
    /// in `avail` (chosen partners resolve through `sel` regardless),
    /// and each clique surrenders at most one member — so the chosen
    /// members' dynamic total plus the cover's best-available mass
    /// bounds every completion of this partial set. Bounding the chosen
    /// side statically instead is fatal on large rounds: round-entry
    /// optimism alone can exceed the incumbent at depth 15, and the
    /// search never prunes again below that. Every term comes from the
    /// price memo, so a node costs bitset tests, not re-pricing.
    fn dfs(&mut self, k: usize, avail: &[u64]) {
        if self.exhausted {
            return;
        }
        let Some((pos, i)) = self
            .order
            .iter()
            .enumerate()
            .skip(k)
            .find(|&(_, &i)| has(avail, i))
            .map(|(pos, &i)| (pos, i))
        else {
            return;
        };
        self.memo.invalidate();
        let mut bound: f64 = self
            .chosen
            .iter()
            .map(|&j| self.memo.bound(j, &self.chosen_mask, avail, &self.sel))
            .sum();
        // Add each clique's best still-available member at its dynamic
        // value. Members are walked in descending static-bound order,
        // which caps the dynamic value, so the walk stops early; the
        // whole sum stops as soon as it proves the subtree can still
        // beat the best (a full sum is only needed to *prune*).
        for members in self.cliques {
            if bound > self.best_value + EPS {
                break;
            }
            let mut best_m = 0.0f64;
            for &m in members {
                if self.opt[m] <= best_m {
                    break;
                }
                if !has(avail, m) {
                    continue;
                }
                let d = self.memo.bound(m, &self.chosen_mask, avail, &self.sel);
                best_m = best_m.max(d);
            }
            bound += best_m.max(0.0);
        }
        if bound <= self.best_value + EPS {
            return;
        }
        // Structural conflicts with the chosen set are pre-banned in
        // `avail`; only the (set-dependent) cycle test remains.
        if !closes_cycle(self.dfg, &self.sel, self.round.merged(i)) {
            if self.budget == 0 {
                self.exhausted = true;
                return;
            }
            self.budget -= 1;
            self.chosen.push(i);
            self.chosen_mask[i / 64] |= 1 << (i % 64);
            self.sel.push(self.round.merged(i).clone());
            let v: f64 = self
                .chosen
                .iter()
                .map(|&j| self.memo.value(j, &self.chosen_mask, &self.sel))
                .sum();
            if v > self.best_value + EPS {
                self.best_value = v;
                self.best_set = Some(self.chosen.clone());
            }
            let mut narrowed = avail.to_vec();
            narrowed[i / 64] &= !(1 << (i % 64));
            let row = &self.conf_mask[i * self.words..(i + 1) * self.words];
            for (w, c) in narrowed.iter_mut().zip(row) {
                *w &= !c;
            }
            self.dfs(pos + 1, &narrowed);
            self.chosen.pop();
            self.chosen_mask[i / 64] &= !(1 << (i % 64));
            self.sel.truncate(self.prior_len + self.chosen.len());
            if self.exhausted {
                return;
            }
        }
        // Exclusion branch: dropping the bit keeps `avail` an exact
        // image of what this subtree may still use, which is what lets
        // the clique bound discount the candidate just passed over.
        let mut narrowed = avail.to_vec();
        narrowed[i / 64] &= !(1 << (i % 64));
        self.dfs(pos + 1, &narrowed);
    }
}

/// Applies a chosen set through the hooks, in the order given. In
/// strict mode (the improved set) any rejection — a group that now
/// closes a cycle, or an `on_select` veto — aborts with `None`. In lax
/// mode (the greedy probe's log, replayed from the identical restored
/// state) rejections are skipped; they cannot actually occur, because
/// the probe only logged accepted selections and the replay reproduces
/// the probe's state trajectory write for write.
fn replay(
    screened: &Screened<'_>,
    hooks: &mut dyn SelectHooks,
    chosen: &[usize],
    strict: bool,
) -> Option<Vec<SimdGroup>> {
    let mut selected: Vec<SimdGroup> = screened.prior.to_vec();
    for &i in chosen {
        if !accept(screened, i, &mut selected, hooks) && strict {
            return None;
        }
    }
    Some(selected.split_off(screened.prior.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateView;
    use crate::select::{extract_rounds, run_selection, NoHooks};
    use crate::BenefitKind;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::{st240, vex, xentium, SchedKind};

    fn fir_dfg() -> Dfg {
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
        Dfg::from_stmts(&k, &blocks[0].stmts)
    }

    /// Per-round: the committed set's value must match the exhaustive
    /// optimum (on rounds small enough to enumerate), and the search
    /// must never trip its default budget on this fixture.
    #[test]
    fn search_matches_exhaustive_enumeration() {
        let dfg = fir_dfg();
        let mut enumerated = 0usize;
        for target in [xentium(), vex(4), st240()] {
            let mut groups: Vec<SimdGroup> = Vec::new();
            let mut ctx = PassCtx::plain(&target, BenefitKind::optimal());
            let cycles = PassCtx::plain(&target, BenefitKind::Cycles);
            loop {
                let round = Round::new(&dfg, &target, &groups);
                let n = round.candidates.len();
                let selected = run_selection(&mut ctx, &dfg, &round, &groups, &mut NoHooks);
                if n <= 14 {
                    enumerated += 1;
                    let alive = vec![true; n];
                    let max = target.max_wl();
                    let model = BenefitModel::new(&dfg, &round, &cycles, |_| max, |_| None);
                    let chosen_idx: Vec<usize> = selected
                        .iter()
                        .map(|g| {
                            (0..n)
                                .find(|&i| round.merged(i).elems == g.elems)
                                .expect("chosen group must be a round candidate")
                        })
                        .collect();
                    let v = set_value(&model, &round, &groups, &chosen_idx);
                    let (_, best_v) = exhaustive_best(&dfg, &model, &round, &groups, &alive);
                    assert!(
                        v + 1e-6 >= best_v,
                        "{}: chosen value {v} below exhaustive optimum {best_v}",
                        target.name
                    );
                }
                if selected.is_empty() {
                    break;
                }
                crate::select::absorb_selected(&mut groups, selected);
            }
            assert!(ctx.stats.rounds > 0, "{}: no round searched", target.name);
            assert_eq!(
                ctx.stats.budget_fallbacks, 0,
                "{}: budget too small",
                target.name
            );
        }
        assert!(enumerated > 0, "no round was small enough to enumerate");
    }

    /// Every price the search's memo answers equals a fresh assessment
    /// bit for bit: on the first round of CFIR's and BIQUAD's hot blocks
    /// (ST240, VEX-1) and of the FIR fixture, over seeded random
    /// `(chosen, avail)` states priced through one long-lived memo (so
    /// later states hit entries earlier states filled), each bound term
    /// matches `assess_optimistic` against `avail` and each value term
    /// matches `assess` with nothing live.
    #[test]
    fn price_memo_matches_fresh_assessments() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use slpwlo_ir::blocks::blocks_by_priority;
        use slpwlo_kernels::{biquad_cascade4, complex_fir32};

        let hot = |k: slpwlo_ir::Kernel| Dfg::from_block(&k, &blocks_by_priority(&k)[0]);
        let mut cases = Vec::new();
        for dfg in [hot(complex_fir32()), hot(biquad_cascade4())] {
            cases.push((dfg.clone(), st240()));
            cases.push((dfg, vex(1)));
        }
        cases.push((fir_dfg(), st240()));
        let mut rng = StdRng::seed_from_u64(0x3e30);
        for (dfg, target) in &cases {
            let round = Round::new(dfg, target, &[]);
            let n = round.candidates.len();
            let max = target.max_wl();
            // Mismatched per-lane formats with equalization on, so the
            // backed bits also move the scaling prices.
            let ctx = PassCtx::new(target, BenefitKind::Cycles, SchedKind::List, true);
            let model = BenefitModel::new(
                dfg,
                &round,
                &ctx,
                |_| max,
                |n| Some(8 + (n.index() % 3) as i32),
            );
            let margin = model.admission_margin();
            let pool: Vec<usize> = (0..n).collect();
            let mut memo = PriceMemo::new(&model, &round, &[], &pool);
            let words = n.div_ceil(64);
            let dead = vec![false; n];
            let (mut asked, mut hits) = (0usize, 0usize);
            for _ in 0..48 {
                let mut chosen_mask = vec![0u64; words];
                let mut avail = vec![0u64; words];
                let mut sel: Vec<SimdGroup> = Vec::new();
                let mut chosen: Vec<usize> = Vec::new();
                for _ in 0..rng.gen_range(0..n.min(8) + 1) {
                    let i = rng.gen_range(0..n);
                    if !has(&chosen_mask, i) {
                        chosen_mask[i / 64] |= 1 << (i % 64);
                        chosen.push(i);
                        sel.push(round.merged(i).clone());
                    }
                }
                let density = rng.gen_range(0..4usize);
                for i in 0..n {
                    if !has(&chosen_mask, i) && rng.gen_range(0..4usize) < density {
                        avail[i / 64] |= 1 << (i % 64);
                    }
                }
                let alive: Vec<bool> = (0..n).map(|i| has(&avail, i)).collect();
                memo.invalidate();
                for _ in 0..16 {
                    let i = rng.gen_range(0..n);
                    let had = memo.terms[i].iter().flatten().count();
                    let got = memo.bound(i, &chosen_mask, &avail, &sel);
                    let fresh = model.assess_optimistic(i, &alive, &sel).net() - margin;
                    assert_eq!(got.to_bits(), fresh.to_bits(), "bound of {i}");
                    asked += 1;
                    hits += usize::from(memo.terms[i].iter().flatten().count() == had);
                }
                for &i in &chosen {
                    let got = memo.value(i, &chosen_mask, &sel);
                    let fresh = model.assess(i, &dead, &sel).net() - margin;
                    assert_eq!(got.to_bits(), fresh.to_bits(), "value of {i}");
                }
            }
            assert!(
                hits > 0 && hits < asked,
                "{}: {hits} of {asked} hit",
                target.name
            );
        }
    }

    /// A zero budget degrades to exactly the greedy selection.
    #[test]
    fn zero_budget_replays_greedy_exactly() {
        let dfg = fir_dfg();
        for target in [xentium(), vex(4)] {
            let mut ctx = PassCtx::plain(&target, BenefitKind::Optimal { budget: 0 });
            let exact = extract_rounds(&mut ctx, &dfg, &mut NoHooks);
            let mut greedy_ctx = PassCtx::plain(&target, BenefitKind::Cycles);
            let greedy = extract_rounds(&mut greedy_ctx, &dfg, &mut NoHooks);
            let stats = ctx.stats;
            assert_eq!(
                exact, greedy,
                "{}: budget-0 diverged from greedy",
                target.name
            );
            assert_eq!(stats.improved, 0);
            assert_eq!(stats.veto_fallbacks, 0);
        }
    }

    /// The exact selector's fixpoint is never valued below greedy's on
    /// the same block, and the default budget never trips.
    #[test]
    fn optimal_never_loses_to_greedy_per_round() {
        let dfg = fir_dfg();
        for target in [xentium(), vex(1), vex(4), st240()] {
            let mut ctx = PassCtx::plain(&target, BenefitKind::optimal());
            let cycles = PassCtx::plain(&target, BenefitKind::Cycles);
            let mut groups: Vec<SimdGroup> = Vec::new();
            loop {
                let round = Round::new(&dfg, &target, &groups);
                // Value greedy's per-round choice before running exact.
                let n = round.candidates.len();
                let views: Vec<CandidateView> = (0..n).map(|i| round.view(&target, i)).collect();
                let alive = vec![true; n];
                let mut conf: Vec<(usize, usize)> = Vec::new();
                for i in 0..n {
                    for j in (i + 1)..n {
                        if conflicts(&round, i, j) {
                            conf.push((i, j));
                        }
                    }
                }
                let screened = Screened {
                    dfg: &dfg,
                    round: &round,
                    prior: &groups,
                    views,
                    alive,
                    conf,
                };
                let probe = greedy_loop(&cycles, &screened, &mut NoHooks);
                let max = target.max_wl();
                let model = BenefitModel::new(&dfg, &round, &cycles, |_| max, |_| None);
                let greedy_v = set_value(&model, &round, &groups, &probe.chosen);
                let selected = run_selection(&mut ctx, &dfg, &round, &groups, &mut NoHooks);
                let chosen_idx: Vec<usize> = selected
                    .iter()
                    .map(|g| {
                        (0..round.candidates.len())
                            .find(|&i| round.merged(i).elems == g.elems)
                            .unwrap()
                    })
                    .collect();
                let exact_v = set_value(&model, &round, &groups, &chosen_idx);
                assert!(
                    exact_v + 1e-9 >= greedy_v,
                    "{}: exact {exact_v} below greedy incumbent {greedy_v}",
                    target.name
                );
                if selected.is_empty() {
                    break;
                }
                crate::select::absorb_selected(&mut groups, selected);
            }
            assert_eq!(ctx.stats.budget_fallbacks, 0, "{}", target.name);
        }
    }
}
