//! Per-basic-block data-flow graphs with dependence and reachability
//! queries.
//!
//! The DFG is the structure consumed by SLP extraction: SIMD group
//! candidates are pairs of **isomorphic** and **independent** nodes, and
//! both properties are answered here. Nodes are created in statement order
//! with operands preceding users, so node indices form a valid topological
//! order.

use crate::blocks::Block;
use crate::kernel::{ExprNode, Kernel, Stmt};
use crate::types::{ArrayId, BinOp, ExprId, IndexExpr, InputId, ParamId, UnOp, VarId};
use std::collections::HashMap;
use std::fmt;

/// Identifies a node within one [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The operation performed by a DFG node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Floating-point literal.
    Const(f64),
    /// Reads the current value of a variable defined earlier in the block;
    /// its single operand is the defining node.
    VarUse(VarId),
    /// A variable value flowing into the block from outside (no in-block
    /// definition precedes the use).
    LiveIn(VarId),
    /// Per-activation input read.
    ReadInput(InputId),
    /// Parameter-table load.
    LoadParam(ParamId, IndexExpr),
    /// State-array load.
    LoadArray(ArrayId, IndexExpr),
    /// Unary arithmetic.
    Un(UnOp),
    /// Binary arithmetic.
    Bin(BinOp),
    /// State-array store; the single operand is the stored value.
    StoreArray(ArrayId, IndexExpr),
    /// Delay-line push; the single operand is the pushed value.
    ShiftIn(ArrayId),
    /// Output emission; the single operand is the emitted value.
    Output(usize),
}

impl NodeKind {
    /// Returns `true` for nodes SLP may place into SIMD groups.
    ///
    /// Arithmetic, loads and stores are groupable; wiring nodes (`VarUse`,
    /// `LiveIn`), constants, input reads, delay-line pushes and outputs are
    /// not.
    pub fn is_groupable(&self) -> bool {
        matches!(
            self,
            NodeKind::Bin(_)
                | NodeKind::Un(_)
                | NodeKind::LoadParam(..)
                | NodeKind::LoadArray(..)
                | NodeKind::StoreArray(..)
        )
    }

    /// Returns `true` if two kinds are isomorphic in the SLP sense: the
    /// same operation type, implementable by one SIMD instruction.
    ///
    /// Loads (and stores) are isomorphic only within the same array — a
    /// SIMD memory access targets one base address.
    pub fn isomorphic(&self, other: &NodeKind) -> bool {
        match (self, other) {
            (NodeKind::Bin(a), NodeKind::Bin(b)) => a == b,
            (NodeKind::Un(a), NodeKind::Un(b)) => a == b,
            (NodeKind::LoadParam(p, _), NodeKind::LoadParam(q, _)) => p == q,
            (NodeKind::LoadArray(a, _), NodeKind::LoadArray(b, _)) => a == b,
            (NodeKind::StoreArray(a, _), NodeKind::StoreArray(b, _)) => a == b,
            _ => false,
        }
    }

    /// The memory location class accessed by this node, if any.
    fn memory(&self) -> Option<(MemSpace, Option<&IndexExpr>, MemAccess)> {
        match self {
            NodeKind::LoadArray(a, ix) => Some((MemSpace::Array(*a), Some(ix), MemAccess::Read)),
            NodeKind::StoreArray(a, ix) => Some((MemSpace::Array(*a), Some(ix), MemAccess::Write)),
            NodeKind::ShiftIn(a) => Some((MemSpace::Array(*a), None, MemAccess::Write)),
            NodeKind::LoadParam(p, ix) => Some((MemSpace::Param(*p), Some(ix), MemAccess::Read)),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemSpace {
    Array(ArrayId),
    Param(ParamId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemAccess {
    Read,
    Write,
}

/// A node of the data-flow graph.
#[derive(Debug, Clone)]
pub struct DfgNode {
    /// What the node computes.
    pub kind: NodeKind,
    /// The originating expression, when the node stems from the arena
    /// (statement-level nodes such as stores carry `None`).
    pub expr: Option<ExprId>,
    /// Value operands (data-flow edges).
    pub operands: Vec<NodeId>,
    /// Additional ordering predecessors (memory hazards).
    pub deps: Vec<NodeId>,
    /// Nodes consuming this node's value.
    pub users: Vec<NodeId>,
}

/// A per-block data-flow graph.
#[derive(Debug, Clone)]
pub struct Dfg {
    nodes: Vec<DfgNode>,
    expr_to_node: HashMap<ExprId, NodeId>,
    /// reach[a] = bitset of nodes reachable from `a` along forward edges.
    reach: Vec<Vec<u64>>,
}

impl Dfg {
    /// Builds the DFG of a basic block.
    pub fn from_block(kernel: &Kernel, block: &Block) -> Self {
        Builder::new(kernel).build(&block.stmts)
    }

    /// Builds a DFG directly from straight-line statements (no `For`).
    ///
    /// # Panics
    ///
    /// Panics if `stmts` contains a [`Stmt::For`].
    pub fn from_stmts(kernel: &Kernel, stmts: &[Stmt]) -> Self {
        Builder::new(kernel).build(stmts)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &DfgNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The node created for an expression, if the expression belongs to
    /// this block.
    pub fn node_of_expr(&self, e: ExprId) -> Option<NodeId> {
        self.expr_to_node.get(&e).copied()
    }

    /// Returns `true` if `to` is reachable from `from` along operand or
    /// dependence edges (i.e. `to` transitively depends on `from`).
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        let w = &self.reach[from.index()];
        (w[to.index() / 64] >> (to.index() % 64)) & 1 == 1
    }

    /// The reachability row of `from`: bit `b` of word `b / 64` is set
    /// iff node `b` is reachable from `from` (the bitset behind
    /// [`reaches`](Self::reaches)), `len().div_ceil(64)` words long.
    pub fn reach_row(&self, from: NodeId) -> &[u64] {
        &self.reach[from.index()]
    }

    /// Returns `true` if neither node depends on the other — the
    /// independence requirement for SIMD grouping.
    pub fn independent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.reaches(a, b) && !self.reaches(b, a)
    }

    /// Groupable nodes of the block, in topological order.
    pub fn groupable_nodes(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.kind.is_groupable())
            .map(|(id, _)| id)
            .collect()
    }

    /// All direct predecessors (operands plus ordering deps).
    pub fn preds(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let n = self.node(id);
        n.operands.iter().chain(n.deps.iter()).copied()
    }

    fn compute_reach(&mut self) {
        let n = self.nodes.len();
        let words = n.div_ceil(64);
        let mut reach = vec![vec![0u64; words]; n];
        // Process in reverse topological order: reach(a) = union of
        // reach(succ) plus succ themselves. Successors always have larger
        // indices, so a reverse index scan works.
        for a in (0..n).rev() {
            let succs: Vec<usize> = {
                let node = &self.nodes[a];
                node.users
                    .iter()
                    .copied()
                    .chain(self.dep_successors(NodeId(a as u32)))
                    .map(|id| id.index())
                    .collect()
            };
            for s in succs {
                debug_assert!(s > a, "edges must point forward");
                // set bit s, union reach[s]
                let (left, right) = reach.split_at_mut(s);
                let ra = &mut left[a];
                let rs = &right[0];
                for (x, y) in ra.iter_mut().zip(rs.iter()) {
                    *x |= *y;
                }
                ra[s / 64] |= 1 << (s % 64);
            }
        }
        self.reach = reach;
    }

    /// Nodes that list `id` among their ordering deps.
    fn dep_successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(move |(i, n)| {
            if n.deps.contains(&id) {
                Some(NodeId(i as u32))
            } else {
                None
            }
        })
    }
}

struct Builder<'k> {
    kernel: &'k Kernel,
    nodes: Vec<DfgNode>,
    expr_to_node: HashMap<ExprId, NodeId>,
    /// Current in-block definition of each variable.
    var_defs: HashMap<VarId, NodeId>,
    /// Live-in nodes already materialised per variable.
    live_ins: HashMap<VarId, NodeId>,
    /// All memory-touching nodes so far, for hazard edges.
    mem_nodes: Vec<NodeId>,
}

impl<'k> Builder<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        Builder {
            kernel,
            nodes: Vec::new(),
            expr_to_node: HashMap::new(),
            var_defs: HashMap::new(),
            live_ins: HashMap::new(),
            mem_nodes: Vec::new(),
        }
    }

    fn push(&mut self, kind: NodeKind, expr: Option<ExprId>, operands: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let mut deps = Vec::new();
        if let Some((space, ix, access)) = kind.memory() {
            deps = self.hazards(space, ix, access);
            self.mem_nodes.push(id);
        }
        for &op in &operands {
            self.nodes[op.index()].users.push(id);
        }
        self.nodes.push(DfgNode {
            kind,
            expr,
            operands,
            deps,
            users: Vec::new(),
        });
        if let Some(e) = expr {
            self.expr_to_node.insert(e, id);
        }
        id
    }

    /// Memory-hazard predecessors for a new access.
    fn hazards(&self, space: MemSpace, ix: Option<&IndexExpr>, access: MemAccess) -> Vec<NodeId> {
        let mut deps = Vec::new();
        for &m in &self.mem_nodes {
            let (pspace, pix, paccess) = self.nodes[m.index()]
                .kind
                .memory()
                .expect("mem_nodes only contains memory nodes");
            if pspace != space {
                continue;
            }
            if paccess == MemAccess::Read && access == MemAccess::Read {
                continue; // read-read never conflicts
            }
            if may_alias(pix, ix) {
                deps.push(m);
            }
        }
        deps
    }

    fn build(mut self, stmts: &[Stmt]) -> Dfg {
        for s in stmts {
            match s {
                Stmt::Assign(v, e) => {
                    let val = self.expr(*e);
                    self.var_defs.insert(*v, val);
                }
                Stmt::Store(a, ix, e) => {
                    let val = self.expr(*e);
                    self.push(NodeKind::StoreArray(*a, ix.clone()), None, vec![val]);
                }
                Stmt::ShiftIn(a, e) => {
                    let val = self.expr(*e);
                    self.push(NodeKind::ShiftIn(*a), None, vec![val]);
                }
                Stmt::Output(idx, e) => {
                    let val = self.expr(*e);
                    self.push(NodeKind::Output(*idx), None, vec![val]);
                }
                Stmt::For { .. } => panic!("basic blocks must not contain loops"),
            }
        }
        let mut dfg = Dfg {
            nodes: self.nodes,
            expr_to_node: self.expr_to_node,
            reach: Vec::new(),
        };
        dfg.compute_reach();
        dfg
    }

    fn expr(&mut self, e: ExprId) -> NodeId {
        match self.kernel.expr(e).clone() {
            ExprNode::Const(v) => self.push(NodeKind::Const(v), Some(e), vec![]),
            ExprNode::ReadVar(v) => {
                if let Some(&def) = self.var_defs.get(&v) {
                    self.push(NodeKind::VarUse(v), Some(e), vec![def])
                } else {
                    let li = match self.live_ins.get(&v) {
                        Some(&li) => li,
                        None => {
                            let li = self.push(NodeKind::LiveIn(v), None, vec![]);
                            self.live_ins.insert(v, li);
                            li
                        }
                    };
                    self.push(NodeKind::VarUse(v), Some(e), vec![li])
                }
            }
            ExprNode::ReadInput(i) => self.push(NodeKind::ReadInput(i), Some(e), vec![]),
            ExprNode::LoadParam(p, ix) => self.push(NodeKind::LoadParam(p, ix), Some(e), vec![]),
            ExprNode::LoadArray(a, ix) => self.push(NodeKind::LoadArray(a, ix), Some(e), vec![]),
            ExprNode::Unary(op, a) => {
                let an = self.expr(a);
                self.push(NodeKind::Un(op), Some(e), vec![an])
            }
            ExprNode::Bin(op, a, b) => {
                let an = self.expr(a);
                let bn = self.expr(b);
                self.push(NodeKind::Bin(op), Some(e), vec![an, bn])
            }
        }
    }
}

/// Conservative alias test for two accesses to the same array.
///
/// `None` index means "whole array" (delay-line shift).
fn may_alias(a: Option<&IndexExpr>, b: Option<&IndexExpr>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => match a.constant_distance(b) {
            Some(d) => d == 0,
            None => true, // distinct affine shapes: assume aliasing
        },
        _ => true, // whole-array access aliases everything
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::collect_blocks;
    use crate::builder::KernelBuilder;

    /// acc = 0; t0 = c0*dl[0]; t1 = c1*dl[1]; acc = t0 + t1; y = acc
    fn two_tap() -> (Kernel, Dfg) {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", -1.0, 1.0);
        let y = b.output("y");
        let dl = b.array("dl", 2);
        let c = b.param("c", vec![0.5, 0.25]);
        let xv = b.read_input(x);
        b.shift_in(dl, xv);
        let c0 = b.load_param(c, 0);
        let l0 = b.load(dl, 0);
        let m0 = b.mul(c0, l0);
        let c1 = b.load_param(c, 1);
        let l1 = b.load(dl, 1);
        let m1 = b.mul(c1, l1);
        let s = b.add(m0, m1);
        b.set_output(y, s);
        let k = b.finish();
        let blocks = collect_blocks(&k);
        assert_eq!(blocks.len(), 1);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        (k, dfg)
    }

    fn find_kind(dfg: &Dfg, pred: impl Fn(&NodeKind) -> bool) -> Vec<NodeId> {
        dfg.iter()
            .filter(|(_, n)| pred(&n.kind))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn builds_and_wires() {
        let (_, dfg) = two_tap();
        let muls = find_kind(&dfg, |k| matches!(k, NodeKind::Bin(BinOp::Mul)));
        assert_eq!(muls.len(), 2);
        let adds = find_kind(&dfg, |k| matches!(k, NodeKind::Bin(BinOp::Add)));
        assert_eq!(adds.len(), 1);
        // The two multiplies are independent, the add depends on both.
        assert!(dfg.independent(muls[0], muls[1]));
        assert!(dfg.reaches(muls[0], adds[0]));
        assert!(dfg.reaches(muls[1], adds[0]));
        assert!(!dfg.reaches(adds[0], muls[0]));
    }

    #[test]
    fn loads_after_shiftin_depend_on_it() {
        let (_, dfg) = two_tap();
        let shift = find_kind(&dfg, |k| matches!(k, NodeKind::ShiftIn(_)))[0];
        let loads = find_kind(&dfg, |k| matches!(k, NodeKind::LoadArray(..)));
        for l in loads {
            assert!(
                dfg.reaches(shift, l),
                "load must be ordered after the delay-line push"
            );
        }
    }

    #[test]
    fn param_loads_have_no_hazards() {
        let (_, dfg) = two_tap();
        let ploads = find_kind(&dfg, |k| matches!(k, NodeKind::LoadParam(..)));
        assert_eq!(ploads.len(), 2);
        assert!(dfg.independent(ploads[0], ploads[1]));
        for p in ploads {
            assert!(dfg.node(p).deps.is_empty());
        }
    }

    #[test]
    fn var_chain_creates_dependence() {
        // acc = a + b; acc = acc + c  => second add depends on first.
        let mut b = KernelBuilder::new("chain");
        let y = b.output("y");
        let acc = b.var("acc");
        let c1 = b.constf(1.0);
        let c2 = b.constf(2.0);
        let s1 = b.add(c1, c2);
        b.assign(acc, s1);
        let r = b.read_var(acc);
        let c3 = b.constf(3.0);
        let s2 = b.add(r, c3);
        b.assign(acc, s2);
        let r2 = b.read_var(acc);
        b.set_output(y, r2);
        let k = b.finish();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        let adds = find_kind(&dfg, |kk| matches!(kk, NodeKind::Bin(BinOp::Add)));
        assert_eq!(adds.len(), 2);
        assert!(dfg.reaches(adds[0], adds[1]));
        assert!(!dfg.independent(adds[0], adds[1]));
    }

    #[test]
    fn live_in_for_undefined_var() {
        let mut b = KernelBuilder::new("li");
        let y = b.output("y");
        let acc = b.var("acc");
        let r = b.read_var(acc); // no prior def in this block
        b.set_output(y, r);
        let k = b.finish();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        let lis = find_kind(&dfg, |kk| matches!(kk, NodeKind::LiveIn(_)));
        assert_eq!(lis.len(), 1);
    }

    #[test]
    fn isomorphism_rules() {
        let a0 = ArrayId(0);
        let a1 = ArrayId(1);
        let ix = IndexExpr::constant(0);
        assert!(NodeKind::Bin(BinOp::Mul).isomorphic(&NodeKind::Bin(BinOp::Mul)));
        assert!(!NodeKind::Bin(BinOp::Mul).isomorphic(&NodeKind::Bin(BinOp::Add)));
        assert!(
            NodeKind::LoadArray(a0, ix.clone()).isomorphic(&NodeKind::LoadArray(a0, ix.clone()))
        );
        assert!(
            !NodeKind::LoadArray(a0, ix.clone()).isomorphic(&NodeKind::LoadArray(a1, ix.clone()))
        );
        assert!(!NodeKind::LoadArray(a0, ix.clone()).isomorphic(&NodeKind::Bin(BinOp::Mul)));
    }

    #[test]
    fn store_then_load_same_index_is_ordered() {
        let mut b = KernelBuilder::new("sl");
        let y = b.output("y");
        let a = b.array("a", 4);
        let c = b.constf(1.0);
        b.store(a, 1, c);
        let l = b.load(a, 1);
        b.set_output(y, l);
        let k = b.finish();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        let st = find_kind(&dfg, |kk| matches!(kk, NodeKind::StoreArray(..)))[0];
        let ld = find_kind(&dfg, |kk| matches!(kk, NodeKind::LoadArray(..)))[0];
        assert!(dfg.reaches(st, ld));
    }

    #[test]
    fn store_then_load_distinct_index_is_independent() {
        let mut b = KernelBuilder::new("sl2");
        let y = b.output("y");
        let a = b.array("a", 4);
        let c = b.constf(1.0);
        b.store(a, 1, c);
        let l = b.load(a, 2);
        b.set_output(y, l);
        let k = b.finish();
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        let st = find_kind(&dfg, |kk| matches!(kk, NodeKind::StoreArray(..)))[0];
        let ld = find_kind(&dfg, |kk| matches!(kk, NodeKind::LoadArray(..)))[0];
        assert!(dfg.independent(st, ld));
    }
}
