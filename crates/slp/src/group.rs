//! SIMD groups and group-level graph utilities.
//!
//! Besides the group type, this holds the structural queries selection
//! asks about groups: operand resolution through `VarUse` wiring, lane
//! independence, memory layout, and [`closes_cycle`], the multi-group
//! acyclicity guard. That guard runs at every branch-and-bound node
//! the exact selector's bound does not prune, so it works on the DFG's
//! precomputed reachability rows ([`Dfg::reach_row`]) and a frontier
//! bitset rather than building the coarsened group graph per call.

use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use std::fmt;

/// An ordered set of DFG nodes packed into one SIMD register.
///
/// The element order *is* the lane order; it matters for memory
/// contiguity and superword reuse.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimdGroup {
    /// Lane elements, lane 0 first.
    pub elems: Vec<NodeId>,
}

impl SimdGroup {
    /// A single-element (scalar) group — the starting item of round one.
    pub fn singleton(n: NodeId) -> Self {
        SimdGroup { elems: vec![n] }
    }

    /// Concatenates two groups (lanes of `self` then lanes of `other`).
    pub fn concat(&self, other: &SimdGroup) -> SimdGroup {
        let mut elems = self.elems.clone();
        elems.extend_from_slice(&other.elems);
        SimdGroup { elems }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> u32 {
        self.elems.len() as u32
    }

    /// Returns `true` if the group contains `n`.
    pub fn contains(&self, n: NodeId) -> bool {
        self.elems.contains(&n)
    }

    /// Returns `true` if the groups share an element.
    pub fn overlaps(&self, other: &SimdGroup) -> bool {
        self.elems.iter().any(|e| other.contains(*e))
    }

    /// The operation kind shared by all lanes.
    ///
    /// # Panics
    ///
    /// Panics on an empty group.
    pub fn kind<'d>(&self, dfg: &'d Dfg) -> &'d NodeKind {
        &dfg.node(self.elems[0]).kind
    }
}

impl fmt::Display for SimdGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// Follows `VarUse` wiring back to the producing node.
///
/// Variable reads are transparent for SLP: the superword chain
/// `mul -> (assign/read) -> add` is a direct def-use chain in hardware.
pub fn resolve_producer(dfg: &Dfg, n: NodeId) -> NodeId {
    let mut cur = n;
    loop {
        match &dfg.node(cur).kind {
            NodeKind::VarUse(_) => match dfg.node(cur).operands.first() {
                Some(&def) => cur = def,
                None => return cur,
            },
            _ => return cur,
        }
    }
}

/// Users of `n`'s value with `VarUse` wiring flattened away.
pub fn effective_users(dfg: &Dfg, n: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = dfg.node(n).users.clone();
    while let Some(u) = stack.pop() {
        match &dfg.node(u).kind {
            NodeKind::VarUse(_) => stack.extend(dfg.node(u).users.iter().copied()),
            _ => out.push(u),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Operand nodes of `n` at each position, resolved through `VarUse`.
pub fn resolved_operands(dfg: &Dfg, n: NodeId) -> Vec<NodeId> {
    dfg.node(n)
        .operands
        .iter()
        .map(|&o| resolve_producer(dfg, o))
        .collect()
}

/// Returns `true` when every element of `a` is independent of every
/// element of `b` — the requirement for merging them into one SIMD
/// instruction.
pub fn fully_independent(dfg: &Dfg, a: &SimdGroup, b: &SimdGroup) -> bool {
    a.elems
        .iter()
        .all(|&x| b.elems.iter().all(|&y| dfg.independent(x, y)))
}

/// Returns `true` if some element of `from` reaches some element of `to`.
/// Selection answers this from per-candidate bitsets
/// (`conflict::conflicts`); the walk is the tests' oracle.
#[cfg(test)]
pub(crate) fn group_reaches(dfg: &Dfg, from: &SimdGroup, to: &SimdGroup) -> bool {
    from.elems
        .iter()
        .any(|&x| to.elems.iter().any(|&y| dfg.reaches(x, y)))
}

/// Would realising `g` alongside `selected` create a dependency cycle
/// in the coarsened graph (each group one super-node)?
///
/// Pairwise conflict detection cannot catch this: three or more groups
/// can form a cycle (`g → S1 → S2 → g`) with every *pair* acyclic, and
/// a candidate may also close a cycle with groups selected in earlier
/// rounds, which the per-round conflict pass never re-examines. Called
/// at selection time; an accepted selection therefore keeps the
/// coarsened graph acyclic by induction, which is exactly the invariant
/// lowering's coarsened topological sort relies on.
///
/// Selected groups overlapping `g` are skipped: they are the narrower
/// groups a wider extension candidate absorbs and supersedes. A node in
/// two selected groups belongs to the later one.
///
/// Works on the DFG's reachability rows instead of building the
/// coarsened graph: a frontier starts as everything `g`'s lanes reach;
/// whenever it touches a member of a selected group, that whole group
/// is reached, so the rows of all its members join the frontier. `g`
/// closes a cycle iff the frontier comes back to one of `g`'s own
/// lanes. This relies on `g`'s lanes being mutually independent, as
/// every candidate's are — a lane reaching a lane directly is an edge
/// inside `g`'s super-node, not a cycle.
pub fn closes_cycle(dfg: &Dfg, selected: &[SimdGroup], g: &SimdGroup) -> bool {
    debug_assert!(
        g.elems
            .iter()
            .all(|&a| g.elems.iter().all(|&b| !dfg.reaches(a, b))),
        "closes_cycle needs mutually independent lanes: {g}"
    );
    // Unit per node: 0 for `g`'s lanes, `k + 1` for the `k`-th
    // non-overlapping selected group, `NONE` for ungrouped nodes.
    const NONE: u32 = u32::MAX;
    let mut unit = vec![NONE; dfg.len()];
    for &e in &g.elems {
        unit[e.index()] = 0;
    }
    let kept: Vec<&SimdGroup> = selected.iter().filter(|s| !s.overlaps(g)).collect();
    for (k, s) in kept.iter().enumerate() {
        for &e in &s.elems {
            unit[e.index()] = k as u32 + 1;
        }
    }
    let mut frontier = vec![0u64; dfg.len().div_ceil(64)];
    let absorb = |frontier: &mut [u64], n: NodeId| {
        for (f, r) in frontier.iter_mut().zip(dfg.reach_row(n)) {
            *f |= r;
        }
    };
    let hit = |frontier: &[u64], n: NodeId| frontier[n.index() / 64] >> (n.index() % 64) & 1 == 1;
    for &e in &g.elems {
        absorb(&mut frontier, e);
    }
    // Expand reached groups until none is left to reach: each pass
    // either absorbs a new group or ends the loop.
    let mut reached = vec![false; kept.len()];
    loop {
        if g.elems.iter().any(|&e| hit(&frontier, e)) {
            return true;
        }
        let mut grew = false;
        for (k, s) in kept.iter().enumerate() {
            let members = || {
                s.elems
                    .iter()
                    .copied()
                    .filter(|e| unit[e.index()] == k as u32 + 1)
            };
            if reached[k] || !members().any(|e| hit(&frontier, e)) {
                continue;
            }
            reached[k] = true;
            grew = true;
            for e in members() {
                absorb(&mut frontier, e);
            }
        }
        if !grew {
            return false;
        }
    }
}

/// The coarsened-graph construction [`closes_cycle`] replaced: one
/// `HashMap` unit per group and node, and a DFS over coarsened
/// successors from `g`'s unit. The differential oracle of the tests.
#[cfg(test)]
pub(crate) fn closes_cycle_coarsened(dfg: &Dfg, selected: &[SimdGroup], g: &SimdGroup) -> bool {
    use std::collections::{HashMap, HashSet};
    // Unit 0 is `g`; each non-overlapping selected group gets its own
    // unit; every other node is its own unit.
    let mut unit: HashMap<NodeId, usize> = HashMap::new();
    for &e in &g.elems {
        unit.insert(e, 0);
    }
    let mut next = 1usize;
    for s in selected {
        if s.overlaps(g) {
            continue;
        }
        for &e in &s.elems {
            unit.insert(e, next);
        }
        next += 1;
    }
    let base = next;
    let unit_of = |n: NodeId| unit.get(&n).copied().unwrap_or(base + n.index());
    let mut succs: HashMap<usize, Vec<usize>> = HashMap::new();
    for (id, _) in dfg.iter() {
        let u = unit_of(id);
        for p in dfg.preds(id) {
            let pu = unit_of(p);
            if pu != u {
                succs.entry(pu).or_default().push(u);
            }
        }
    }
    // DFS over coarsened successors starting from `g`'s unit: a path
    // back to unit 0 is a cycle through the new group.
    let mut stack: Vec<usize> = succs.get(&0).cloned().unwrap_or_default();
    let mut seen: HashSet<usize> = HashSet::new();
    while let Some(u) = stack.pop() {
        if u == 0 {
            return true;
        }
        if !seen.insert(u) {
            continue;
        }
        if let Some(next) = succs.get(&u) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Memory layout of a group of loads or stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemStatus {
    /// Contiguous and aligned to the vector width: one SIMD access.
    ContiguousAligned,
    /// Contiguous but misaligned: realizable with extra access/align ops.
    ContiguousUnaligned,
    /// Not contiguous: needs scalar accesses plus packing (gather).
    Gather,
    /// Not a memory group.
    NotMemory,
}

/// Classifies the memory layout of a group's accesses.
///
/// Elements must be loads from the same array/param (callers guarantee
/// this via isomorphism); contiguity requires identical affine terms and
/// consecutive offsets in lane order; alignment requires the first offset
/// to be a multiple of the lane count.
pub fn mem_status(dfg: &Dfg, g: &SimdGroup) -> MemStatus {
    let ixs: Vec<_> = g
        .elems
        .iter()
        .map(|&e| match &dfg.node(e).kind {
            NodeKind::LoadArray(_, ix)
            | NodeKind::StoreArray(_, ix)
            | NodeKind::LoadParam(_, ix) => Some(ix.clone()),
            _ => None,
        })
        .collect();
    if ixs.iter().any(|i| i.is_none()) {
        return MemStatus::NotMemory;
    }
    let ixs: Vec<_> = ixs.into_iter().map(|i| i.expect("checked above")).collect();
    for w in ixs.windows(2) {
        if w[0].constant_distance(&w[1]) != Some(1) {
            return MemStatus::Gather;
        }
    }
    if ixs[0].offset().rem_euclid(g.lanes() as i64) == 0 {
        MemStatus::ContiguousAligned
    } else {
        MemStatus::ContiguousUnaligned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::Kernel;

    fn fir_block() -> (Kernel, Dfg) {
        let src = r#"
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
"#;
        let k = parse_kernel(src).unwrap();
        let blocks = collect_blocks(&k);
        assert_eq!(blocks.len(), 1);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        (k, dfg)
    }

    fn nodes_of(dfg: &Dfg, pred: impl Fn(&NodeKind) -> bool) -> Vec<NodeId> {
        dfg.iter()
            .filter(|(_, n)| pred(&n.kind))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn muls_are_fully_independent() {
        let (_, dfg) = fir_block();
        let muls = nodes_of(&dfg, |k| matches!(k, NodeKind::Bin(slpwlo_ir::BinOp::Mul)));
        assert_eq!(muls.len(), 4);
        let g1 = SimdGroup {
            elems: vec![muls[0], muls[1]],
        };
        let g2 = SimdGroup {
            elems: vec![muls[2], muls[3]],
        };
        assert!(fully_independent(&dfg, &g1, &g2));
    }

    #[test]
    fn accumulator_adds_are_dependent() {
        let (_, dfg) = fir_block();
        let adds = nodes_of(&dfg, |k| matches!(k, NodeKind::Bin(slpwlo_ir::BinOp::Add)));
        assert_eq!(adds.len(), 4);
        let g1 = SimdGroup::singleton(adds[0]);
        let g2 = SimdGroup::singleton(adds[1]);
        assert!(!fully_independent(&dfg, &g1, &g2));
        assert!(group_reaches(&dfg, &g1, &g2));
    }

    #[test]
    fn resolve_through_var_use() {
        let (_, dfg) = fir_block();
        let adds = nodes_of(&dfg, |k| matches!(k, NodeKind::Bin(slpwlo_ir::BinOp::Add)));
        // Second add's first operand is a VarUse of acc; its producer is
        // the first add.
        let ops = resolved_operands(&dfg, adds[1]);
        assert!(ops.contains(&adds[0]));
    }

    #[test]
    fn effective_users_skip_var_use() {
        let (_, dfg) = fir_block();
        let adds = nodes_of(&dfg, |k| matches!(k, NodeKind::Bin(slpwlo_ir::BinOp::Add)));
        let users = effective_users(&dfg, adds[0]);
        assert_eq!(users, vec![adds[1]]);
    }

    #[test]
    fn mem_status_classifies() {
        let (_, dfg) = fir_block();
        let loads = nodes_of(&dfg, |k| matches!(k, NodeKind::LoadArray(..)));
        assert_eq!(loads.len(), 4);
        // dl[0], dl[1]: contiguous, offset 0 => aligned.
        let a = SimdGroup {
            elems: vec![loads[0], loads[1]],
        };
        assert_eq!(mem_status(&dfg, &a), MemStatus::ContiguousAligned);
        // dl[1], dl[2]: contiguous but offset 1 => unaligned.
        let b = SimdGroup {
            elems: vec![loads[1], loads[2]],
        };
        assert_eq!(mem_status(&dfg, &b), MemStatus::ContiguousUnaligned);
        // dl[0], dl[2]: gap => gather.
        let c = SimdGroup {
            elems: vec![loads[0], loads[2]],
        };
        assert_eq!(mem_status(&dfg, &c), MemStatus::Gather);
        // reversed order: distance -1 => gather (no reversing loads).
        let d = SimdGroup {
            elems: vec![loads[1], loads[0]],
        };
        assert_eq!(mem_status(&dfg, &d), MemStatus::Gather);
        // a mul is not a memory group
        let muls = nodes_of(&dfg, |k| matches!(k, NodeKind::Bin(slpwlo_ir::BinOp::Mul)));
        let e = SimdGroup {
            elems: vec![muls[0], muls[1]],
        };
        assert_eq!(mem_status(&dfg, &e), MemStatus::NotMemory);
    }

    /// The reach-bitset [`closes_cycle`] agrees with the coarsened-graph
    /// construction it replaced on seeded random selections: over every
    /// block of every suite kernel and of 16 generated kernels, round by
    /// round as greedy extraction widens the groups, a random candidate
    /// `g` is tested against a random mix of the prior groups (the ones
    /// `g` widens included, which the test must skip) and of the round's
    /// candidates (some overlapping `g`, some each other).
    #[test]
    fn closes_cycle_matches_the_coarsened_graph() {
        use crate::candidate::Round;
        use crate::select::{absorb_selected, extract_rounds, run_selection};
        use crate::{BenefitKind, NoHooks, PassCtx};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use slpwlo_targets::{vex, xentium};

        let mut kernels: Vec<Kernel> = slpwlo_kernels::all_benchmarks()
            .into_iter()
            .map(|b| b.kernel)
            .collect();
        let mut gen = slpwlo_gen::KernelGen::with_seed(0x5eed);
        kernels.extend((0..16).map(|_| gen.gen()));
        let mut rng = StdRng::seed_from_u64(17);
        let (mut cycles, mut clean) = (0usize, 0usize);
        let (mut overlapping, mut widening) = (0usize, 0usize);
        for (ki, kernel) in kernels.iter().enumerate() {
            // Alternate a 2-lane and a 4-lane target so extension rounds
            // (candidates widening prior groups) occur.
            let target = if ki % 2 == 0 { xentium() } else { vex(4) };
            let mut ctx = PassCtx::plain(&target, BenefitKind::Cycles);
            for block in collect_blocks(kernel) {
                let dfg = Dfg::from_block(kernel, &block);
                let mut prior: Vec<SimdGroup> = Vec::new();
                loop {
                    let round = Round::new(&dfg, &target, &prior);
                    let n = round.candidates.len();
                    if n == 0 {
                        break;
                    }
                    for _ in 0..32 {
                        let g = round.merged(rng.gen_range(0..n));
                        let mut selected: Vec<SimdGroup> = prior
                            .iter()
                            .filter(|_| rng.gen_range(0..4usize) != 0)
                            .cloned()
                            .collect();
                        for _ in 0..rng.gen_range(0..n.min(24) + 1) {
                            selected.push(round.merged(rng.gen_range(0..n)).clone());
                        }
                        let pos = rng.gen_range(0..selected.len() + 1);
                        selected.rotate_left(pos);
                        overlapping += usize::from(selected.iter().any(|s| s.overlaps(g)));
                        widening += usize::from(prior.iter().any(|p| p.overlaps(g)));
                        let want = closes_cycle_coarsened(&dfg, &selected, g);
                        assert_eq!(
                            closes_cycle(&dfg, &selected, g),
                            want,
                            "{}: g = {g}, selected = {selected:?}",
                            kernel.name()
                        );
                        if want {
                            cycles += 1;
                        } else {
                            clean += 1;
                        }
                    }
                    let chosen = run_selection(&mut ctx, &dfg, &round, &prior, &mut NoHooks);
                    if chosen.is_empty() {
                        break;
                    }
                    absorb_selected(&mut prior, chosen);
                }
                // The selector's own fixpoint stays acyclic under both.
                let groups = extract_rounds(&mut ctx, &dfg, &mut NoHooks);
                for (gi, g) in groups.iter().enumerate() {
                    let others: Vec<SimdGroup> = groups
                        .iter()
                        .enumerate()
                        .filter(|&(oi, _)| oi != gi)
                        .map(|(_, o)| o.clone())
                        .collect();
                    assert!(!closes_cycle(&dfg, &others, g));
                    assert!(!closes_cycle_coarsened(&dfg, &others, g));
                }
            }
        }
        assert!(cycles > 0, "no cyclic selection drawn");
        assert!(clean > 0, "no acyclic selection drawn");
        assert!(overlapping > 0, "no selection overlapping g drawn");
        assert!(widening > 0, "no g widening a prior group drawn");
    }

    #[test]
    fn concat_and_overlap() {
        let (_, dfg) = fir_block();
        let muls = nodes_of(&dfg, |k| matches!(k, NodeKind::Bin(slpwlo_ir::BinOp::Mul)));
        let g1 = SimdGroup {
            elems: vec![muls[0], muls[1]],
        };
        let g2 = SimdGroup {
            elems: vec![muls[2], muls[3]],
        };
        let g4 = g1.concat(&g2);
        assert_eq!(g4.lanes(), 4);
        assert!(g4.overlaps(&g1) && g4.overlaps(&g2));
        assert!(!g1.overlaps(&g2));
        assert_eq!(
            g4.to_string(),
            format!("{{{},{},{},{}}}", muls[0], muls[1], muls[2], muls[3])
        );
    }
}
