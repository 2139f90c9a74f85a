//! Structural conflict detection between candidates.
//!
//! Two candidates conflict when they cannot both be realised:
//!
//! * they **share an item** or, through different items, a node (an
//!   operation can live in only one SIMD group), or
//! * they have a **cyclic dependency**: realising both would create a
//!   cycle between the two SIMD instructions (each group reaches the
//!   other).
//!
//! Selection asks this of every pair of live candidates in a round, so
//! [`conflicts`] answers from two bitsets per candidate that [`Round`]
//! builds once: the merged group's nodes, and the union of their DFG
//! reachability rows. A pair then costs a few word-wise ANDs instead of a
//! lanes × lanes walk of `Dfg::reaches` in each direction.
//!
//! The paper adds a third, *accuracy* conflict on top of these; that check
//! lives in `slpwlo-core` and is injected through the selection hooks.
//! The crate-private `RoundConflicts` holds a round's whole relation:
//! structural conflicts up front, accuracy conflicts asked of the hooks
//! the first time a selector reads the pair.

use crate::candidate::Round;
use crate::select::SelectHooks;

/// Tests whether candidates `i` and `j` structurally conflict.
pub fn conflicts(round: &Round, i: usize, j: usize) -> bool {
    let a = round.candidates[i];
    let b = round.candidates[j];
    // Shared item.
    if a.left == b.left || a.left == b.right || a.right == b.left || a.right == b.right {
        return true;
    }
    let meets = |x: &[u64], y: &[u64]| x.iter().zip(y).any(|(x, y)| x & y != 0);
    let (ma, mb) = (round.member_bits(i), round.member_bits(j));
    // Overlapping elements through different items (impossible while the
    // prior groups are disjoint, as `extract_rounds` keeps them, but
    // `Round::new` takes any prior set), or a cyclic dependency: both
    // groups reach each other.
    meets(ma, mb) || (meets(round.reach_bits(i), mb) && meets(round.reach_bits(j), ma))
}

/// The conflict relation over one round's validated candidates (fig. 1c
/// lines 13–25), answered on demand.
///
/// Structural conflicts are cheap bitset tests and are computed for
/// every validated pair up front. A structurally compatible pair's
/// accuracy conflict is asked of the hooks the first time a selector
/// reads it and remembered for the rest of the round, so no pair is
/// asked twice. Only pairs of validated candidates may be read.
pub(crate) struct RoundConflicts {
    /// Words per row.
    words: usize,
    /// Row `i`, bit `j`: the pair's answer is known (a structural
    /// conflict, or asked).
    known: Vec<u64>,
    /// Row `i`, bit `j`: the pair is a known conflict, structural or
    /// accuracy. Symmetric.
    conflict: Vec<u64>,
}

impl RoundConflicts {
    /// The structural relation over the candidates `alive` marks; every
    /// compatible pair's accuracy answer is still unknown.
    pub(crate) fn new(round: &Round, alive: &[bool]) -> Self {
        let n = round.candidates.len();
        let words = n.div_ceil(64);
        let mut c = RoundConflicts {
            words,
            known: vec![0; n * words],
            conflict: vec![0; n * words],
        };
        let live: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        for (k, &i) in live.iter().enumerate() {
            for &j in &live[k + 1..] {
                if conflicts(round, i, j) {
                    c.record(i, j, true);
                }
            }
        }
        c
    }

    /// Whether the pair's answer is known: a structural conflict, or
    /// already asked of the hooks.
    pub(crate) fn is_known(&self, i: usize, j: usize) -> bool {
        self.known[i * self.words + j / 64] & (1 << (j % 64)) != 0
    }

    /// Records the pair's answer, both ways round.
    fn record(&mut self, i: usize, j: usize, conflict: bool) {
        for (a, b) in [(i, j), (j, i)] {
            let (word, bit) = (a * self.words + b / 64, 1 << (b % 64));
            self.known[word] |= bit;
            if conflict {
                self.conflict[word] |= bit;
            }
        }
    }

    /// Whether candidates `i` and `j` (distinct, both validated)
    /// conflict, asking the hooks on the pair's first read.
    pub(crate) fn pair(&mut self, hooks: &mut dyn SelectHooks, i: usize, j: usize) -> bool {
        let (word, bit) = (i * self.words + j / 64, 1 << (j % 64));
        if self.known[word] & bit != 0 {
            return self.conflict[word] & bit != 0;
        }
        let c = hooks.accuracy_conflict(i.min(j), i.max(j));
        self.record(i, j, c);
        c
    }

    /// Asks every unknown pair among `members`, so [`Self::rows`] is
    /// exact on them.
    pub(crate) fn resolve_among(&mut self, hooks: &mut dyn SelectHooks, members: &[usize]) {
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                self.pair(hooks, i, j);
            }
        }
    }

    /// The known conflicts as row-major candidate bitsets, one
    /// `candidates.div_ceil(64)`-word row per candidate: bit `j` of row
    /// `i` is set iff the pair is a known conflict. Exact only on pairs
    /// whose answer [is known](Self::is_known), such as those among the
    /// members of a [`resolve_among`](Self::resolve_among) call; an
    /// unasked pair reads as compatible.
    pub(crate) fn rows(&self) -> &[u64] {
        &self.conflict
    }
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
    use slpwlo_targets::xentium;

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
        use slpwlo_targets::{all_targets, vex, TargetModel};

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
    }
}
