//! Candidate extraction rounds.
//!
//! A [`Round`] takes the current set of *items* — groups selected in
//! earlier rounds plus still-ungrouped scalar operations — and enumerates
//! merge candidates: pairs of equal-size, isomorphic, fully independent
//! items whose doubled lane count the target supports (equation (1) of the
//! paper restricted to the target's SIMD configurations).

use crate::group::{
    effective_users, fully_independent, mem_status, resolved_operands, MemStatus, SimdGroup,
};
use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use slpwlo_targets::TargetModel;
use std::collections::HashMap;

/// One merge candidate: items `left` and `right` (indices into
/// [`Round::items`]) concatenated in that lane order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Index of the left (low-lane) item.
    pub left: usize,
    /// Index of the right (high-lane) item.
    pub right: usize,
}

/// A realised view of a candidate, handed to selection hooks.
#[derive(Debug, Clone)]
pub struct CandidateView {
    /// The merged group (left lanes then right lanes).
    pub group: SimdGroup,
    /// Lane count of the merged group.
    pub lanes: u32,
    /// Element word length the target grants this group (equation (1)).
    pub elem_wl: i32,
}

impl CandidateView {
    /// The admission test under frozen word lengths: every element's
    /// word length `wl_of(e)` has a native container no wider than the
    /// sub-word the target grants the group.
    pub fn fits_frozen_wls(&self, target: &TargetModel, wl_of: impl Fn(NodeId) -> i32) -> bool {
        self.group.elems.iter().all(|&e| {
            target
                .container_wl(wl_of(e))
                .is_some_and(|c| c <= self.elem_wl)
        })
    }
}

/// One extraction round over the current items.
#[derive(Debug)]
pub struct Round {
    /// Current items: prior groups and ungrouped scalar singletons.
    pub items: Vec<SimdGroup>,
    /// Merge candidates over `items`.
    pub candidates: Vec<Candidate>,
    /// Lookup from `(left, right)` to candidate index.
    by_pair: HashMap<(usize, usize), usize>,
    /// Lookup from lane vectors to item index.
    by_elems: HashMap<Vec<NodeId>, usize>,
    /// Merged group per candidate, materialized once (selection assesses
    /// every candidate every iteration — re-concatenating lanes there
    /// dominated the benefit model's allocation profile).
    merged: Vec<SimdGroup>,
    /// `resolved_operands` per node (indexed by `NodeId::index`): the
    /// per-position producers with `VarUse` wiring flattened away.
    resolved_ops: Vec<Vec<NodeId>>,
    /// Whether each node's value has any effective user (indexed by
    /// `NodeId::index`).
    has_users: Vec<bool>,
    /// Inverted consumption index: an operand superword (the per-lane
    /// producers a candidate would consume at one operand position, in
    /// lane order) maps to the ascending candidate indices consuming it.
    /// Turns the benefit model's result-flow question ("which live
    /// candidate consumes this group's lanes in order?") from a scan over
    /// all candidates into one lookup.
    consumers: HashMap<Vec<NodeId>, Vec<usize>>,
    /// Words per node bitset (`dfg.len().div_ceil(64)`).
    words: usize,
    /// Per item, the bitset of its nodes (`words` words at
    /// `idx * words`). Kept per item, not per candidate: items grow with
    /// the block, candidates with its square. A candidate's nodes are
    /// the OR of its two items' rows, formed where a conflict test reads
    /// them.
    members: Vec<u64>,
    /// Per item, the union of its lanes' [`Dfg::reach_row`]s: every node
    /// the item reaches.
    reach: Vec<u64>,
}

impl Round {
    /// Builds a round from prior groups: ungrouped groupable nodes join as
    /// singletons, then all valid merge candidates are enumerated.
    pub fn new(dfg: &Dfg, target: &TargetModel, prior: &[SimdGroup]) -> Self {
        let mut items: Vec<SimdGroup> = prior.to_vec();
        for n in dfg.groupable_nodes() {
            if !prior.iter().any(|g| g.contains(n)) {
                items.push(SimdGroup::singleton(n));
            }
        }
        let candidates = enumerate(dfg, target, &items);
        let by_pair = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| ((c.left, c.right), i))
            .collect();
        let by_elems = items
            .iter()
            .enumerate()
            .map(|(i, g)| (g.elems.clone(), i))
            .collect();
        let merged: Vec<SimdGroup> = candidates
            .iter()
            .map(|c| items[c.left].concat(&items[c.right]))
            .collect();
        let mut resolved_ops = vec![Vec::new(); dfg.len()];
        let mut has_users = vec![false; dfg.len()];
        for (id, _) in dfg.iter() {
            resolved_ops[id.index()] = resolved_operands(dfg, id);
            has_users[id.index()] = !effective_users(dfg, id).is_empty();
        }
        let mut consumers: HashMap<Vec<NodeId>, Vec<usize>> = HashMap::new();
        for (ci, m) in merged.iter().enumerate() {
            // A superword exists per operand position up to the smallest
            // lane arity; candidates consuming the same superword at two
            // positions are recorded once (lists stay ascending).
            let arity = m
                .elems
                .iter()
                .map(|&u| resolved_ops[u.index()].len())
                .min()
                .unwrap_or(0);
            #[allow(clippy::needless_range_loop)] // `pos` indexes per-lane op lists, not one slice
            for pos in 0..arity {
                let sw: Vec<NodeId> = m
                    .elems
                    .iter()
                    .map(|&u| resolved_ops[u.index()][pos])
                    .collect();
                let list = consumers.entry(sw).or_default();
                if list.last() != Some(&ci) {
                    list.push(ci);
                }
            }
        }
        let words = dfg.len().div_ceil(64);
        let mut members = vec![0u64; items.len() * words];
        let mut reach = vec![0u64; items.len() * words];
        for (it, g) in items.iter().enumerate() {
            let span = it * words..(it + 1) * words;
            let (mem, rch) = (&mut members[span.clone()], &mut reach[span]);
            for &e in &g.elems {
                mem[e.index() / 64] |= 1 << (e.index() % 64);
                for (r, row) in rch.iter_mut().zip(dfg.reach_row(e)) {
                    *r |= row;
                }
            }
        }
        Round {
            items,
            candidates,
            by_pair,
            by_elems,
            merged,
            resolved_ops,
            has_users,
            consumers,
            words,
            members,
            reach,
        }
    }

    /// Materialises the merged view of a candidate.
    pub fn view(&self, target: &TargetModel, idx: usize) -> CandidateView {
        let group = self.merged[idx].clone();
        let lanes = group.lanes();
        let elem_wl = target
            .simd_element_wl(lanes)
            .expect("enumerate() only keeps supported lane counts");
        CandidateView {
            group,
            lanes,
            elem_wl,
        }
    }

    /// Candidate index for an ordered item pair.
    pub fn candidate_of(&self, left: usize, right: usize) -> Option<usize> {
        self.by_pair.get(&(left, right)).copied()
    }

    /// Item index whose lanes are exactly `elems`.
    pub fn item_of(&self, elems: &[NodeId]) -> Option<usize> {
        self.by_elems.get(elems).copied()
    }

    /// The merged group of candidate `idx` (left lanes then right lanes),
    /// materialized once at round construction.
    pub fn merged(&self, idx: usize) -> &SimdGroup {
        &self.merged[idx]
    }

    /// The node bitset of item `idx`.
    pub(crate) fn member_bits(&self, idx: usize) -> &[u64] {
        &self.members[idx * self.words..(idx + 1) * self.words]
    }

    /// The bitset of every node item `idx` reaches.
    pub(crate) fn reach_bits(&self, idx: usize) -> &[u64] {
        &self.reach[idx * self.words..(idx + 1) * self.words]
    }

    /// Precomputed `resolved_operands` of a node.
    pub(crate) fn resolved_ops(&self, n: NodeId) -> &[NodeId] {
        &self.resolved_ops[n.index()]
    }

    /// Whether a node's value has any effective user.
    pub(crate) fn node_has_users(&self, n: NodeId) -> bool {
        self.has_users[n.index()]
    }

    /// Candidate indices (ascending) whose merged group consumes the
    /// operand superword `sw` — i.e. lane `i` of the candidate uses
    /// `sw[i]` at one common operand position. Empty when nobody does.
    pub(crate) fn consumers_of(&self, sw: &[NodeId]) -> &[usize] {
        self.consumers.get(sw).map_or(&[], Vec::as_slice)
    }
}

/// Enumerates merge candidates among the items.
fn enumerate(dfg: &Dfg, target: &TargetModel, items: &[SimdGroup]) -> Vec<Candidate> {
    let sizes = target.group_sizes();
    let mut out = Vec::new();
    for i in 0..items.len() {
        for j in 0..items.len() {
            if i == j {
                continue;
            }
            let (a, b) = (&items[i], &items[j]);
            if a.lanes() != b.lanes() {
                continue;
            }
            let lanes = a.lanes() + b.lanes();
            if !sizes.contains(&lanes) || target.simd_element_wl(lanes).is_none() {
                continue;
            }
            if !a.kind(dfg).isomorphic(b.kind(dfg)) {
                continue;
            }
            // Canonical lane order: memory groups ordered by address
            // (ascending offsets only — keep (i,j) iff it is the
            // contiguous-friendly order or both orders are gathers and
            // i < j); non-memory groups by node id of the first lane.
            if !canonical_order(dfg, a, b, i, j) {
                continue;
            }
            if !fully_independent(dfg, a, b) {
                continue;
            }
            out.push(Candidate { left: i, right: j });
        }
    }
    out
}

/// Decides whether `(a, b)` is the canonical lane order for this pair.
fn canonical_order(dfg: &Dfg, a: &SimdGroup, b: &SimdGroup, i: usize, j: usize) -> bool {
    let is_mem = matches!(
        a.kind(dfg),
        NodeKind::LoadArray(..) | NodeKind::LoadParam(..) | NodeKind::StoreArray(..)
    );
    if is_mem {
        let fwd = mem_status(dfg, &a.concat(b));
        let bwd = mem_status(dfg, &b.concat(a));
        match (contiguous(fwd), contiguous(bwd)) {
            (true, false) => true,
            (false, true) => false,
            // Both gathers (or both contiguous, impossible for distinct
            // offsets): fall back to index order.
            _ => i < j,
        }
    } else {
        i < j
    }
}

fn contiguous(s: MemStatus) -> bool {
    matches!(
        s,
        MemStatus::ContiguousAligned | MemStatus::ContiguousUnaligned
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::{vex, xentium};

    fn conv_like() -> Dfg {
        // 4 independent multiplies with an adder tree (fully groupable).
        let src = r#"
kernel c {
    input x range [-1, 1];
    output y;
    param k[4] = { 0.4, 0.3, 0.2, 0.1 };
    array w[4];
    var t0;
    var t1;
    shiftin w <- x;
    t0 = k[0] * w[0] + k[1] * w[1];
    t1 = k[2] * w[2] + k[3] * w[3];
    y = t0 + t1;
}
"#;
        let k = parse_kernel(src).unwrap();
        let blocks = collect_blocks(&k);
        Dfg::from_stmts(&k, &blocks[0].stmts)
    }

    #[test]
    fn round_one_finds_pairs() {
        let dfg = conv_like();
        let round = Round::new(&dfg, &xentium(), &[]);
        // Items: all groupable nodes as singletons.
        assert!(round.items.iter().all(|g| g.lanes() == 1));
        // Candidates must include mul pairs, param-load pairs, array-load
        // pairs and the (t0+t1-independent) add pairs.
        assert!(!round.candidates.is_empty());
        for idx in 0..round.candidates.len() {
            let v = round.view(&xentium(), idx);
            assert_eq!(v.lanes, 2);
            assert_eq!(v.elem_wl, 16);
        }
    }

    #[test]
    fn mem_pairs_prefer_address_order() {
        let dfg = conv_like();
        let round = Round::new(&dfg, &xentium(), &[]);
        // Every load-pair candidate that is contiguous must be in
        // ascending address order.
        for c in &round.candidates {
            let g = round.items[c.left].concat(&round.items[c.right]);
            if matches!(g.kind(&dfg), NodeKind::LoadArray(..)) {
                let st = mem_status(&dfg, &g);
                if contiguous(st) {
                    // ascending: distance +1 verified by mem_status
                    assert_ne!(st, MemStatus::Gather);
                }
            }
        }
    }

    #[test]
    fn extension_round_pairs_groups_on_vex_only() {
        let dfg = conv_like();
        let r1 = Round::new(&dfg, &vex(4), &[]);
        // Pick two disjoint mul pairs manually.
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(slpwlo_ir::BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let g1 = SimdGroup {
            elems: vec![muls[0], muls[1]],
        };
        let g2 = SimdGroup {
            elems: vec![muls[2], muls[3]],
        };
        let r2 = Round::new(&dfg, &vex(4), &[g1.clone(), g2.clone()]);
        // On VEX a 4x8 merge of the two pairs must be a candidate.
        let i1 = r2.item_of(&g1.elems).unwrap();
        let i2 = r2.item_of(&g2.elems).unwrap();
        assert!(
            r2.candidate_of(i1, i2).is_some() || r2.candidate_of(i2, i1).is_some(),
            "VEX must offer the 4-lane extension"
        );
        // On XENTIUM (2x16 only) no group-pair candidate may appear.
        let r2x = Round::new(&dfg, &xentium(), &[g1, g2]);
        for c in &r2x.candidates {
            assert_eq!(
                r2x.items[c.left].lanes(),
                1,
                "no 4-lane candidates on XENTIUM"
            );
        }
        let _ = r1;
    }

    #[test]
    fn grouped_nodes_leave_the_singleton_pool() {
        let dfg = conv_like();
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(slpwlo_ir::BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let g = SimdGroup {
            elems: vec![muls[0], muls[1]],
        };
        let round = Round::new(&dfg, &xentium(), &[g]);
        let singleton_muls = round
            .items
            .iter()
            .filter(|it| it.lanes() == 1 && it.contains(muls[0]))
            .count();
        assert_eq!(
            singleton_muls, 0,
            "grouped node must not reappear as a singleton"
        );
    }
}
