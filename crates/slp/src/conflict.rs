//! Conflicts between merge candidates (fig. 1c lines 13–25 of the
//! paper).
//!
//! Two candidates conflict when they cannot both be realised:
//!
//! * they **share an item** or, through different items, a node (an
//!   operation can live in only one SIMD group);
//! * they have a **cyclic dependency**: realising both would create a
//!   cycle between the two SIMD instructions (each group reaches the
//!   other);
//! * they are an **accuracy conflict**: they cannot coexist within the
//!   noise budget. That check lives in `slpwlo-core` and is asked of the
//!   selection hooks.
//!
//! The relation is answered when a selector reads a pair, by one rule
//! (the crate-private `RoundConflicts::pair`): the structural tests of
//! [`conflicts`] first, then the hooks' accuracy question. [`conflicts`]
//! reads two bitsets per item that [`Round`] builds once, the item's
//! nodes and the union of their DFG reachability rows, and ORs a
//! candidate's two items word by word. A pair costs a few word-wise
//! operations instead of a lanes × lanes walk of `Dfg::reaches` in each
//! direction.
//!
//! Greedy selection stores no answers. Every pair it reads includes the
//! candidate it has just accepted, and that candidate is dead from then
//! on, so it never reads a pair twice. The exact selector keeps one
//! table of pool × pool rows per round: the structural conflicts of
//! every pool pair from round entry, and each accuracy answer from the
//! first read of its pair on, whether the greedy probe or the search
//! reads it. The search's include narrowing bans the conflicts known so
//! far, and an include asks the candidate's still-open pairs with the
//! chosen set. Its clique cover asks a candidate's open pairs with a
//! clique only until one is compatible, so the cover is the one the
//! fully asked table gives.

use crate::candidate::{Candidate, Round};
use crate::select::SelectHooks;

#[cfg(test)]
thread_local! {
    /// Calls of [`conflicts`] on this thread: the structural work the
    /// tests pin.
    pub(crate) static STRUCTURAL_TESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Tests whether candidates `i` and `j` structurally conflict.
pub fn conflicts(round: &Round, i: usize, j: usize) -> bool {
    #[cfg(test)]
    STRUCTURAL_TESTS.with(|c| c.set(c.get() + 1));
    let a = round.candidates[i];
    let b = round.candidates[j];
    // Shared item.
    if a.left == b.left || a.left == b.right || a.right == b.left || a.right == b.right {
        return true;
    }
    // Whether the union of rows `x` meets the union of rows `y`: a
    // candidate's rows are the OR of its two items' rows.
    let meets = |x: [&[u64]; 2], y: [&[u64]; 2]| {
        (0..x[0].len()).any(|w| (x[0][w] | x[1][w]) & (y[0][w] | y[1][w]) != 0)
    };
    let members = |c: Candidate| [round.member_bits(c.left), round.member_bits(c.right)];
    let reach = |c: Candidate| [round.reach_bits(c.left), round.reach_bits(c.right)];
    let (ma, mb) = (members(a), members(b));
    // Overlapping elements through different items (impossible while the
    // prior groups are disjoint, as `extract_rounds` keeps them, but
    // `Round::new` takes any prior set), or a cyclic dependency: both
    // groups reach each other.
    meets(ma, mb) || (meets(reach(a), mb) && meets(reach(b), ma))
}

/// The conflict answers one round stores for a pool of validated
/// candidates: the structural conflicts of every pool pair, tested at
/// construction, and each accuracy answer from the first read of its
/// pair on. Empty under greedy selection, which reads each pair at most
/// once and stores nothing.
#[derive(Default)]
pub(crate) struct RoundConflicts {
    /// The pool, ascending.
    members: Vec<usize>,
    /// Row `p`, bit `q`: the pool members at positions `p` and `q` of
    /// `members` are known to conflict, structurally or by accuracy.
    /// Symmetric.
    rows: Vec<u64>,
    /// Row `p`, bit `q`: the pair is structurally compatible and its
    /// accuracy question is not asked yet. Symmetric.
    open: Vec<u64>,
}

impl RoundConflicts {
    /// Tests every pair among `members` (validated, ascending)
    /// structurally; no accuracy question is asked yet.
    pub(crate) fn among(round: &Round, members: Vec<usize>) -> Self {
        let words = members.len().div_ceil(64);
        let mut rows = vec![0; members.len() * words];
        let mut open = vec![0; members.len() * words];
        for (p, &i) in members.iter().enumerate() {
            for (q, &j) in members.iter().enumerate().skip(p + 1) {
                let bits = if conflicts(round, i, j) {
                    &mut rows
                } else {
                    &mut open
                };
                bits[p * words + q / 64] |= 1 << (q % 64);
                bits[q * words + p / 64] |= 1 << (p % 64);
            }
        }
        RoundConflicts {
            members,
            rows,
            open,
        }
    }

    /// The pool, ascending.
    pub(crate) fn members(&self) -> &[usize] {
        &self.members
    }

    /// Whether candidates `i` and `j` (distinct, both validated)
    /// conflict. A pool pair's accuracy question is asked on its first
    /// read and its answer stored; a pair with a candidate outside the
    /// pool is asked now.
    pub(crate) fn pair(
        &mut self,
        round: &Round,
        hooks: &mut dyn SelectHooks,
        i: usize,
        j: usize,
    ) -> bool {
        match (self.position(i), self.position(j)) {
            (Some(p), Some(q)) => self.pool_pair(hooks, p, q),
            _ => ask(round, hooks, i, j),
        }
    }

    /// Whether the pool members at positions `p` and `q` conflict,
    /// asking the pair's accuracy question if it is still open.
    fn pool_pair(&mut self, hooks: &mut dyn SelectHooks, p: usize, q: usize) -> bool {
        let words = self.members.len().div_ceil(64);
        let (pq, qp) = (p * words + q / 64, q * words + p / 64);
        let (bit_q, bit_p) = (1u64 << (q % 64), 1u64 << (p % 64));
        if self.open[pq] & bit_q != 0 {
            self.open[pq] &= !bit_q;
            self.open[qp] &= !bit_p;
            let (i, j) = (self.members[p], self.members[q]);
            if hooks.accuracy_conflict(i.min(j), i.max(j)) {
                self.rows[pq] |= bit_q;
                self.rows[qp] |= bit_p;
            }
        }
        self.rows[pq] & bit_q != 0
    }

    /// Whether the pool member at position `p` conflicts with every pool
    /// member in `set` (bits over pool positions). A pair known to be
    /// compatible settles it unasked; otherwise the open pairs are asked
    /// in position order up to the first compatible one.
    pub(crate) fn conflicts_with_all(
        &mut self,
        hooks: &mut dyn SelectHooks,
        p: usize,
        set: &[u64],
    ) -> bool {
        let row = p * set.len();
        let known_compatible = |w: usize| set[w] & !self.rows[row + w] & !self.open[row + w] != 0;
        !(0..set.len()).any(known_compatible) && !self.ask_until(hooks, p, set, false)
    }

    /// Whether the pool member at position `p` conflicts with some pool
    /// member in `set` (bits over pool positions). A pair known to
    /// conflict settles it unasked; otherwise the open pairs are asked in
    /// position order up to the first conflict.
    pub(crate) fn conflicts_with_any(
        &mut self,
        hooks: &mut dyn SelectHooks,
        p: usize,
        set: &[u64],
    ) -> bool {
        let row = p * set.len();
        (0..set.len()).any(|w| set[w] & self.rows[row + w] != 0)
            || self.ask_until(hooks, p, set, true)
    }

    /// Asks the open pairs of position `p` with `set` in position order
    /// until one answers `stop`: whether one did.
    fn ask_until(
        &mut self,
        hooks: &mut dyn SelectHooks,
        p: usize,
        set: &[u64],
        stop: bool,
    ) -> bool {
        let row = p * set.len();
        for (w, &bits) in set.iter().enumerate() {
            for b in ones(bits & self.open[row + w]) {
                if self.pool_pair(hooks, p, w * 64 + b) == stop {
                    return true;
                }
            }
        }
        false
    }

    /// The pool members known to conflict with the pool member at
    /// position `p`, ascending.
    pub(crate) fn conflicting(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.members.len().div_ceil(64);
        let row = &self.rows[p * words..(p + 1) * words];
        let members = &self.members;
        row.iter()
            .enumerate()
            .flat_map(move |(w, &word)| ones(word).map(move |b| members[w * 64 + b]))
    }

    /// Candidate `i`'s position in [`members`](Self::members), if it is
    /// a pool member.
    pub(crate) fn position(&self, i: usize) -> Option<usize> {
        self.members.binary_search(&i).ok()
    }

    /// Asks every open pair, in pool order: the table as it stood when
    /// the exact selector asked its whole pool at round entry, the
    /// reference of the tests.
    #[cfg(test)]
    pub(crate) fn ask_all(&mut self, hooks: &mut dyn SelectHooks) {
        let n = self.members.len();
        for p in 0..n {
            for q in p + 1..n {
                self.pool_pair(hooks, p, q);
            }
        }
    }
}

/// The positions of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// The one conflict rule: the structural tests, then, for a structurally
/// compatible pair, the hooks' accuracy question.
fn ask(round: &Round, hooks: &mut dyn SelectHooks, i: usize, j: usize) -> bool {
    conflicts(round, i, j) || hooks.accuracy_conflict(i.min(j), i.max(j))
}

/// The walk [`conflicts`] replaced: shared items, then lane-by-lane
/// overlap and reachability between the merged groups. The differential
/// oracle of the tests.
#[cfg(test)]
pub(crate) fn conflicts_walk(dfg: &slpwlo_ir::dfg::Dfg, round: &Round, i: usize, j: usize) -> bool {
    use crate::group::group_reaches;
    let a = round.candidates[i];
    let b = round.candidates[j];
    if a.left == b.left || a.left == b.right || a.right == b.left || a.right == b.right {
        return true;
    }
    let (ga, gb) = (round.merged(i), round.merged(j));
    if ga.overlaps(gb) {
        return true;
    }
    group_reaches(dfg, ga, gb) && group_reaches(dfg, gb, ga)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Round;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::dfg::Dfg;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::{vex, xentium};

    /// A block crafted so that two candidate groups have a cyclic
    /// dependency:
    ///   m0 = a0 * a1        (mul A)
    ///   s0 = m0 + a2        (add X)
    ///   m1 = s0 * a3        (mul B, depends on add X)
    ///   s1 = m1 + a4        (add Y, depends on mul B)
    /// Candidate {mul A, mul B} and candidate {add X, add Y}:
    /// A -> X -> B -> Y gives A->X and X->B: the mul group reaches the add
    /// group (A->X) and the add group reaches the mul group (X->B), so the
    /// two candidates can never both be SIMD instructions.
    fn cyclic_block() -> Dfg {
        let src = r#"
kernel cy {
    input x range [-1, 1];
    output y;
    array a[8];
    var m0;
    var s0;
    var m1;
    shiftin a <- x;
    m0 = a[0] * a[1];
    s0 = m0 + a[2];
    m1 = s0 * a[3];
    y = m1 + a[4];
}
"#;
        let k = parse_kernel(src).unwrap();
        let blocks = collect_blocks(&k);
        Dfg::from_stmts(&k, &blocks[0].stmts)
    }

    #[test]
    fn detects_cyclic_dependency() {
        let dfg = cyclic_block();
        let round = Round::new(&dfg, &xentium(), &[]);
        // Find the mul-pair and add-pair candidates.
        let mut mul_cand = None;
        let mut add_cand = None;
        for (idx, c) in round.candidates.iter().enumerate() {
            let g = round.items[c.left].concat(&round.items[c.right]);
            match g.kind(&dfg) {
                slpwlo_ir::NodeKind::Bin(slpwlo_ir::BinOp::Mul) => mul_cand = Some(idx),
                slpwlo_ir::NodeKind::Bin(slpwlo_ir::BinOp::Add) => add_cand = Some(idx),
                _ => {}
            }
        }
        // The two muls are dependent (m0 -> s0 -> m1), so the mul pair is
        // not even a candidate; the adds likewise. This block instead
        // verifies that dependent operations never become candidates.
        assert!(
            mul_cand.is_none(),
            "dependent muls must not form a candidate"
        );
        assert!(
            add_cand.is_none(),
            "dependent adds must not form a candidate"
        );
    }

    /// Independent mul pairs but crossed dependencies through adds:
    ///   m0 = a0*a1   m1 = a2*a3   (independent)
    ///   s0 = m0 + a4
    ///   m2 = s0 * a5             (m2 depends on m0)
    ///   m3 = a6 * a7             (independent of everything)
    /// Candidate A = {m0, m3}, candidate B = {m2, m1}:
    /// A reaches B (m0 -> s0 -> m2) and B reaches A? m1/m2 do not reach
    /// m0/m3, so no cycle: A and B only share nothing => compatible.
    /// Candidate C = {m0, m2} is invalid (dependent). Shared-item
    /// conflicts are exercised instead.
    #[test]
    fn shared_item_conflicts() {
        let src = r#"
kernel sh {
    input x range [-1, 1];
    output y;
    array a[8];
    var m0;
    var m1;
    var m2;
    shiftin a <- x;
    m0 = a[0] * a[1];
    m1 = a[2] * a[3];
    m2 = a[4] * a[5];
    y = m0 + m1 + m2;
}
"#;
        let k = parse_kernel(src).unwrap();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_stmts(&k, &blocks[0].stmts);
        let round = Round::new(&dfg, &xentium(), &[]);
        // Three independent muls yield several pair candidates sharing
        // items; all sharing pairs must be conflicts.
        let mut mul_cands = Vec::new();
        for (idx, c) in round.candidates.iter().enumerate() {
            let g = round.items[c.left].concat(&round.items[c.right]);
            if matches!(
                g.kind(&dfg),
                slpwlo_ir::NodeKind::Bin(slpwlo_ir::BinOp::Mul)
            ) {
                mul_cands.push(idx);
            }
        }
        assert!(
            mul_cands.len() >= 3,
            "three muls give at least three pair orders"
        );
        for (i, &a) in mul_cands.iter().enumerate() {
            for &b in &mul_cands[i + 1..] {
                let ca = round.candidates[a];
                let cb = round.candidates[b];
                let shares = ca.left == cb.left
                    || ca.left == cb.right
                    || ca.right == cb.left
                    || ca.right == cb.right;
                if shares {
                    assert!(conflicts(&round, a, b), "sharing candidates must conflict");
                }
            }
        }
    }

    /// The bitset [`conflicts`] agrees with the walk it replaced on every
    /// pair of every round: every block of every suite kernel on all four
    /// targets and of 16 generated kernels on alternating 2- and 4-lane
    /// targets, round by round as greedy extraction widens the groups
    /// (so extension rounds are covered).
    #[test]
    fn bitset_conflicts_match_the_walk() {
        use crate::select::{absorb_selected, run_selection};
        use crate::{BenefitKind, NoHooks, PassCtx, SimdGroup};
        use slpwlo_ir::Kernel;
        use slpwlo_targets::{all_targets, TargetModel};

        let mut cases: Vec<(Kernel, TargetModel)> = Vec::new();
        for bench in slpwlo_kernels::all_benchmarks() {
            for target in all_targets() {
                cases.push((bench.kernel.clone(), target));
            }
        }
        let mut gen = slpwlo_gen::KernelGen::with_seed(0x5eed);
        for ki in 0..16 {
            let target = if ki % 2 == 0 { xentium() } else { vex(4) };
            cases.push((gen.gen(), target));
        }
        let (mut pairs, mut shared, mut cyclic) = (0usize, 0, 0);
        for (kernel, target) in &cases {
            let mut ctx = PassCtx::plain(target, BenefitKind::Cycles);
            for block in collect_blocks(kernel) {
                let dfg = Dfg::from_block(kernel, &block);
                let mut prior: Vec<SimdGroup> = Vec::new();
                loop {
                    let round = Round::new(&dfg, target, &prior);
                    let n = round.candidates.len();
                    for i in 0..n {
                        for j in (i + 1)..n {
                            let want = conflicts_walk(&dfg, &round, i, j);
                            assert_eq!(
                                conflicts(&round, i, j),
                                want,
                                "{} on {}: {} vs {}",
                                kernel.name(),
                                target.name,
                                round.merged(i),
                                round.merged(j)
                            );
                            pairs += 1;
                            let (a, b) = (round.candidates[i], round.candidates[j]);
                            if a.left == b.left
                                || a.left == b.right
                                || a.right == b.left
                                || a.right == b.right
                            {
                                shared += 1;
                            } else if want {
                                cyclic += 1;
                            }
                        }
                    }
                    let chosen = run_selection(&mut ctx, &dfg, &round, &prior, &mut NoHooks);
                    if chosen.is_empty() {
                        break;
                    }
                    absorb_selected(&mut prior, chosen);
                }
            }
        }
        assert!(pairs > shared + cyclic, "no compatible pair drawn");
        assert!(shared > 0, "no shared-item pair drawn");
        assert!(cyclic > 0, "no cyclic pair drawn");

        // Prior groups that overlap through different items, which
        // `extract_rounds` never builds but `Round::new` accepts: on VEX-4,
        // mul pairs {m0, m1} and {m1, m2} share m1, so a 4-lane candidate
        // extending one and a candidate extending the other overlap
        // without sharing an item.
        let src = r#"
kernel ov {
    input x range [-1, 1];
    output y;
    param c[8] = { 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8 };
    array dl[8];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..8 unroll 8 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;
        let k = parse_kernel(src).unwrap();
        let dfg = Dfg::from_block(&k, &slpwlo_ir::blocks::blocks_by_priority(&k)[0]);
        let m: Vec<_> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, slpwlo_ir::NodeKind::Bin(slpwlo_ir::BinOp::Mul)))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(m.len(), 8);
        let pair = |a: usize, b: usize| SimdGroup {
            elems: vec![m[a], m[b]],
        };
        let prior = [pair(0, 1), pair(1, 2), pair(4, 5), pair(6, 7)];
        let round = Round::new(&dfg, &vex(4), &prior);
        let n = round.candidates.len();
        let mut overlapping = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let want = conflicts_walk(&dfg, &round, i, j);
                assert_eq!(
                    conflicts(&round, i, j),
                    want,
                    "{} vs {}",
                    round.merged(i),
                    round.merged(j)
                );
                let (a, b) = (round.candidates[i], round.candidates[j]);
                let shares = [a.left, a.right]
                    .iter()
                    .any(|x| [b.left, b.right].contains(x));
                if !shares && round.merged(i).overlaps(round.merged(j)) {
                    assert!(want, "an overlap is a conflict");
                    overlapping += 1;
                }
            }
        }
        assert!(overlapping > 0, "no pair overlaps through different items");
    }

    /// Greedy selection tests a pair structurally only when it reads it:
    /// the pairs of each accepted candidate with the candidates still
    /// live, so a round tests at most accepted × live pairs, where
    /// screening every pair up front tested all live pairs. Pinned on a
    /// 32-lane unrolled accumulation under `Cycles` on XENTIUM.
    #[test]
    fn greedy_tests_only_the_pairs_it_reads() {
        use crate::select::{absorb_selected, run_selection};
        use crate::{BenefitKind, NoHooks, PassCtx, SimdGroup};

        let src = r#"
kernel acc32 {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.25, -0.5, 0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..32 unroll 32 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;
        let k = parse_kernel(src).unwrap();
        let dfg = Dfg::from_block(&k, &slpwlo_ir::blocks::blocks_by_priority(&k)[0]);
        let target = xentium();
        let mut ctx = PassCtx::plain(&target, BenefitKind::Cycles);
        let tested = || STRUCTURAL_TESTS.with(std::cell::Cell::get);
        let mut groups: Vec<SimdGroup> = Vec::new();
        let (mut tests, mut live_pairs, mut rounds) = (0u64, 0u64, 0);
        loop {
            let round = Round::new(&dfg, &target, &groups);
            let live = round.candidates.len() as u64;
            let before = tested();
            let selected = run_selection(&mut ctx, &dfg, &round, &groups, &mut NoHooks);
            let round_tests = tested() - before;
            assert!(round_tests <= selected.len() as u64 * live);
            tests += round_tests;
            live_pairs += live * live.saturating_sub(1) / 2;
            rounds += 1;
            if selected.is_empty() {
                break;
            }
            absorb_selected(&mut groups, selected);
        }
        // Screening every live pair up front tested all 1 106 328.
        assert_eq!((rounds, tests, live_pairs), (2, 29_608, 1_106_328));
    }
}
