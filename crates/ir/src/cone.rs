//! Influence cones and deviation lifetimes over the kernel dependence
//! graph.
//!
//! A value deviation injected at one expression (an impulse, a
//! quantization error, a coefficient edit) can only ever be observed
//! *downstream* of that expression: at its consumers, at later reads of a
//! variable it was assigned to, and at later loads of a state array it
//! was stored into. Everywhere else the kernel computes bit-for-bit the
//! same values it would have computed without the deviation.
//!
//! [`ConeIndex`] materialises that fact once per kernel. It builds the
//! influence graph from three edge families: operand → parent,
//! assignment → reaching `ReadVar`s (including the cross-activation carry
//! into reads that execute before the variable's first write of an
//! activation), and store/shift-in → every load of the written array.
//! From it, it derives **lifetimes**: for every expression, an upper
//! bound on how many activations after the injecting one a deviation can
//! still reach an output (`None` when feedback makes it unbounded).
//! Delay-line state bounds the carry (`ShiftIn` into a length-`n` array
//! is readable for at most `n` further activations), a live-across
//! variable carries one activation per hop, and dependence cycles or
//! plain `Store` arrays make the bound infinite — except for arrays every
//! activation rewrites in full (top-level constant-index stores) before
//! any load, whose stored values die within their own activation.
//!
//! Gain analysis uses lifetimes to batch impulse lanes of similar
//! lifetime together, to retire lanes whose response is provably
//! dead, and — when every lifetime is finite — to split the
//! coefficient-sensitivity sweep into activation spans whose warm-up is
//! the largest lifetime.

use crate::kernel::{ExprNode, Kernel, Stmt};
use crate::types::{ExprId, VarId};
use std::collections::HashMap;

/// Per-variable dataflow facts of one kernel activation, shared by the
/// accuracy model's operand-grid resolution and the cone construction.
#[derive(Debug, Default)]
pub struct VarFlow {
    /// Possible defining root expressions for every `ReadVar` expression
    /// (within one activation; reads seeing only the activation-entry
    /// value have no entry).
    pub reaching: HashMap<ExprId, Vec<ExprId>>,
    /// Per variable: root expressions of assignments whose value can
    /// survive to the end of the activation.
    pub exit_defs: HashMap<VarId, Vec<ExprId>>,
    /// Per variable: `ReadVar` expressions that can observe the value the
    /// variable held at activation entry (reads before the first write).
    pub entry_reads: HashMap<VarId, Vec<ExprId>>,
}

/// Computes [`VarFlow`] with a structured two-pass dataflow: loop bodies
/// are walked twice so that back-edge definitions (accumulators) reach
/// the reads at the top of the body; the entry state is merged, so both
/// "first iteration" and "subsequent iteration" definitions are
/// reported.
pub fn var_flow(kernel: &Kernel) -> VarFlow {
    type State = HashMap<VarId, Vec<ExprId>>;

    fn record_reads(kernel: &Kernel, e: ExprId, state: &State, flow: &mut VarFlow) {
        match kernel.expr(e) {
            ExprNode::ReadVar(v) => {
                match state.get(v) {
                    Some(defs) if !defs.is_empty() => {
                        let entry = flow.reaching.entry(e).or_default();
                        for d in defs {
                            if !entry.contains(d) {
                                entry.push(*d);
                            }
                        }
                    }
                    _ => {
                        // No def yet this activation: the read observes the
                        // activation-entry value (initial zero on the first
                        // activation, the carried value afterwards).
                        let entry = flow.entry_reads.entry(*v).or_default();
                        if !entry.contains(&e) {
                            entry.push(e);
                        }
                    }
                }
            }
            n => {
                for op in n.operands() {
                    record_reads(kernel, op, state, flow);
                }
            }
        }
    }

    fn merge(into: &mut State, from: &State) {
        for (v, defs) in from {
            let entry = into.entry(*v).or_default();
            for d in defs {
                if !entry.contains(d) {
                    entry.push(*d);
                }
            }
        }
    }

    fn walk(kernel: &Kernel, stmts: &[Stmt], state: &mut State, flow: &mut VarFlow) {
        for s in stmts {
            match s {
                Stmt::Assign(v, e) => {
                    record_reads(kernel, *e, state, flow);
                    state.insert(*v, vec![*e]);
                }
                Stmt::Store(_, _, e) | Stmt::ShiftIn(_, e) | Stmt::Output(_, e) => {
                    record_reads(kernel, *e, state, flow);
                }
                Stmt::For { body, .. } => {
                    // First pass: entry state.
                    let mut first = state.clone();
                    walk(kernel, body, &mut first, flow);
                    // Second pass: entry state merged with the first pass's
                    // exit state — reads now also see back-edge defs.
                    let mut second = state.clone();
                    merge(&mut second, &first);
                    walk(kernel, body, &mut second, flow);
                    // Trip counts are at least one, so the state after the
                    // loop is exactly the second pass's exit state (vars
                    // the body never defines keep their entry defs there).
                    *state = second;
                }
            }
        }
    }

    let mut flow = VarFlow::default();
    let mut state = State::new();
    walk(kernel, kernel.body(), &mut state, &mut flow);
    for (v, defs) in state {
        flow.exit_defs.insert(v, defs);
    }
    flow
}

/// Deviation lifetimes over the downstream influence graph, computed
/// once per kernel (see the module docs).
#[derive(Debug, Clone)]
pub struct ConeIndex {
    /// Per expression: max activations after the injecting one at which
    /// a deviation can still reach an output; `None` = unbounded.
    life: Vec<Option<u32>>,
}

impl ConeIndex {
    /// Builds the index for a kernel.
    pub fn build(kernel: &Kernel) -> Self {
        let n = kernel.expr_count();

        // -- Edge construction ------------------------------------------
        // succ[e] = (successor, activation delay). The delay is an upper
        // bound on how many activations later the successor can observe
        // the value.
        let mut succ: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut unbounded_edge: Vec<bool> = vec![false; n];
        for (id, node) in kernel.exprs() {
            for op in node.operands() {
                succ[op.index()].push((id.index() as u32, 0));
            }
        }
        let flow = var_flow(kernel);
        for (read, defs) in &flow.reaching {
            for d in defs {
                succ[d.index()].push((read.index() as u32, 0));
            }
        }
        // Cross-activation variable carry: the last def of an activation
        // feeds the next activation's reads-before-first-write.
        for (v, defs) in &flow.exit_defs {
            if let Some(reads) = flow.entry_reads.get(v) {
                for d in defs {
                    for r in reads {
                        succ[d.index()].push((r.index() as u32, 1));
                    }
                }
            }
        }
        // Array state: store/shift-in roots feed every load of the array.
        // A `ShiftIn` into a length-`len` line is observable for at most
        // `len` activations (a load placed before the shift still sees the
        // value during the activation that expels it); a plain `Store`
        // persists until overwritten, which this analysis bounds only for
        // arrays every activation rewrites before loading them.
        let rewritten = rewritten_arrays(kernel);
        let mut loads_of: Vec<Vec<u32>> = vec![Vec::new(); kernel.arrays().len()];
        for (id, node) in kernel.exprs() {
            if let ExprNode::LoadArray(a, _) = node {
                loads_of[a.index()].push(id.index() as u32);
            }
        }
        let mut output_root = vec![false; n];
        kernel.visit_stmts(&mut |s, _| match s {
            Stmt::ShiftIn(a, e) => {
                let len = kernel.arrays()[a.index()].len as u32;
                for &l in &loads_of[a.index()] {
                    succ[e.index()].push((l, len));
                }
            }
            Stmt::Store(a, _, e) => {
                for &l in &loads_of[a.index()] {
                    succ[e.index()].push((l, 0));
                }
                // The written value can outlive any static bound, unless
                // the next activation rewrites it before any load.
                if !loads_of[a.index()].is_empty() && !rewritten[a.index()] {
                    unbounded_edge[e.index()] = true;
                }
            }
            Stmt::Output(_, e) => output_root[e.index()] = true,
            _ => {}
        });

        // -- Lifetimes: longest delay to an output ----------------------
        let life = lifetimes(n, &succ, &unbounded_edge, &output_root);

        ConeIndex { life }
    }

    /// Number of expressions the index covers.
    pub fn expr_count(&self) -> usize {
        self.life.len()
    }

    /// Max activations after the injecting one at which a deviation at
    /// `e` can still reach an output; `None` when feedback or unbounded
    /// array state makes the tail unbounded. An expression that cannot
    /// reach any output at all has lifetime `Some(0)`.
    #[inline]
    pub fn life(&self, e: ExprId) -> Option<u32> {
        self.life[e.index()]
    }
}

/// Per array: does every activation overwrite all of its elements before
/// any statement loads it? True for an array no `ShiftIn` writes whose
/// every element is stored by a top-level constant-index `Store` ahead of
/// the first statement that loads the array (a staging buffer, such as
/// a matrix-vector kernel's input vector). A value stored into such an
/// array is dead before the next activation's first load, so it is
/// observable only within the activation that stores it.
fn rewritten_arrays(kernel: &Kernel) -> Vec<bool> {
    fn for_each_load(kernel: &Kernel, e: ExprId, f: &mut impl FnMut(usize)) {
        match kernel.expr(e) {
            ExprNode::LoadArray(a, _) => f(a.index()),
            n => {
                for op in n.operands() {
                    for_each_load(kernel, op, f);
                }
            }
        }
    }

    let arrays = kernel.arrays();
    let mut ok = vec![true; arrays.len()];
    let mut covered: Vec<Vec<bool>> = arrays.iter().map(|a| vec![false; a.len]).collect();
    let mut missing: Vec<usize> = arrays.iter().map(|a| a.len).collect();
    // Statements in program order; only top-level stores add coverage, so
    // checking a loop body's loads at its position is checking the loop.
    kernel.visit_stmts(&mut |s, loops| {
        let root = match s {
            Stmt::Assign(_, e)
            | Stmt::Store(_, _, e)
            | Stmt::ShiftIn(_, e)
            | Stmt::Output(_, e) => *e,
            Stmt::For { .. } => return,
        };
        // A statement's loads execute before its own store.
        for_each_load(kernel, root, &mut |a| ok[a] &= missing[a] == 0);
        match s {
            Stmt::ShiftIn(a, _) => ok[a.index()] = false,
            Stmt::Store(a, ix, _) if loops.is_empty() => {
                if let Some(c) = ix.as_constant() {
                    let a = a.index();
                    let elem = c.rem_euclid(arrays[a].len as i64) as usize;
                    if !covered[a][elem] {
                        covered[a][elem] = true;
                        missing[a] -= 1;
                    }
                }
            }
            _ => {}
        }
    });
    (0..arrays.len())
        .map(|a| ok[a] && missing[a] == 0)
        .collect()
}

/// Longest-delay-to-output over the (possibly cyclic) influence graph.
///
/// Cycles come in two flavours. Loop-carried accumulators form
/// zero-delay cycles — the add of trip `i` feeds the read of trip `i + 1`
/// within the same activation — which terminate with the loop and add no
/// delay, so the whole strongly connected component shares one tail.
/// Cross-activation feedback (a shift-in line read back into its own
/// producer, a variable carried over the activation boundary) puts a
/// positive-delay edge inside a component, and any expression that can
/// reach such a component, or a plain `Store` whose value persists
/// unbounded, has an unbounded tail. The SCC condensation is a DAG and
/// Tarjan pops components in reverse topological order, so one forward
/// sweep over component ids computes the exact longest path.
fn lifetimes(
    n: usize,
    succ: &[Vec<(u32, u32)>],
    unbounded_edge: &[bool],
    output_root: &[bool],
) -> Vec<Option<u32>> {
    // Expressions that can reach an output (reverse reachability).
    let mut reaches_out = output_root.to_vec();
    loop {
        let mut changed = false;
        for e in (0..n).rev() {
            if !reaches_out[e] && succ[e].iter().any(|&(s, _)| reaches_out[s as usize]) {
                reaches_out[e] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Tarjan's SCC, iterative. Components are numbered in pop order,
    // i.e. every successor component has a smaller id.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut comp = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut scc_stack: Vec<usize> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next = 0usize;
    let mut ncomp = 0usize;
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        index[start] = next;
        low[start] = next;
        next += 1;
        scc_stack.push(start);
        on_stack[start] = true;
        call.push((start, 0));
        while let Some(&mut (e, ref mut i)) = call.last_mut() {
            if *i < succ[e].len() {
                let (s, _) = succ[e][*i];
                *i += 1;
                let s = s as usize;
                if index[s] == usize::MAX {
                    index[s] = next;
                    low[s] = next;
                    next += 1;
                    scc_stack.push(s);
                    on_stack[s] = true;
                    call.push((s, 0));
                } else if on_stack[s] {
                    low[e] = low[e].min(index[s]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[e]);
                }
                if low[e] == index[e] {
                    loop {
                        let v = scc_stack.pop().unwrap();
                        on_stack[v] = false;
                        comp[v] = ncomp;
                        if v == e {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }

    // Per-component facts. All members of a component are mutually
    // reachable, so `reaches_out` is uniform across a component.
    let mut comp_reaches = vec![false; ncomp];
    let mut comp_seed_unbounded = vec![false; ncomp];
    let mut comp_succ: Vec<Vec<(usize, u32)>> = vec![Vec::new(); ncomp];
    for e in 0..n {
        let c = comp[e];
        if reaches_out[e] {
            comp_reaches[c] = true;
            if unbounded_edge[e] {
                comp_seed_unbounded[c] = true;
            }
        }
        for &(s, w) in &succ[e] {
            let sc = comp[s as usize];
            if sc == c {
                // Internal positive-delay edge = genuine feedback loop.
                if w > 0 {
                    comp_seed_unbounded[c] = true;
                }
            } else {
                comp_succ[c].push((sc, w));
            }
        }
    }

    // One forward sweep (successor components first).
    let mut comp_unbounded = vec![false; ncomp];
    let mut comp_tail = vec![0u32; ncomp];
    for c in 0..ncomp {
        if !comp_reaches[c] {
            continue;
        }
        let mut unb = comp_seed_unbounded[c];
        let mut t = 0u32;
        for &(sc, w) in &comp_succ[c] {
            if !comp_reaches[sc] {
                continue;
            }
            if comp_unbounded[sc] {
                unb = true;
            } else {
                t = t.max(comp_tail[sc].saturating_add(w));
            }
        }
        comp_unbounded[c] = unb;
        comp_tail[c] = t;
    }

    (0..n)
        .map(|e| {
            if !reaches_out[e] {
                Some(0)
            } else if comp_unbounded[comp[e]] {
                None
            } else {
                Some(comp_tail[comp[e]])
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;
    use crate::types::BinOp;

    const FIR4: &str = r#"
kernel fir4 {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.5, 0.25, -0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    const IIR1: &str = r#"
kernel iir1 {
    input x range [-1, 1];
    output y;
    array yline[1];
    var t;
    t = 0.5 * x + 0.5 * yline[0];
    shiftin yline <- t;
    y = t;
}
"#;

    fn find(k: &Kernel, pred: impl Fn(&ExprNode) -> bool) -> ExprId {
        k.exprs().find(|(_, n)| pred(n)).map(|(e, _)| e).unwrap()
    }

    #[test]
    fn fir_lifetimes_are_bounded_by_the_delay_line() {
        let k = parse_kernel(FIR4).unwrap();
        let cone = ConeIndex::build(&k);
        let input = find(&k, |n| matches!(n, ExprNode::ReadInput(_)));
        let add = find(&k, |n| matches!(n, ExprNode::Bin(BinOp::Add, _, _)));
        // The input conversion enters a length-4 line: observable for at
        // most 4 more activations.
        assert_eq!(cone.life(input), Some(4));
        // The accumulator add feeds only the output within the
        // activation (acc is redefined before any read next activation).
        assert_eq!(cone.life(add), Some(0));
    }

    #[test]
    fn feedback_lifetimes_are_unbounded() {
        let k = parse_kernel(IIR1).unwrap();
        let cone = ConeIndex::build(&k);
        // Every node feeding the recirculating yline is unbounded; the
        // final `y = t` read is a pure sink with an immediate output.
        let add = find(&k, |n| matches!(n, ExprNode::Bin(BinOp::Add, _, _)));
        let input = find(&k, |n| matches!(n, ExprNode::ReadInput(_)));
        let load = find(&k, |n| matches!(n, ExprNode::LoadArray(_, _)));
        assert_eq!(cone.life(add), None);
        assert_eq!(cone.life(input), None);
        assert_eq!(cone.life(load), None);
    }

    #[test]
    fn store_arrays_are_unbounded_carriers() {
        let src = r#"
kernel st {
    input x range [-1, 1];
    output y;
    array a[4];
    var t;
    t = 0.5 * x;
    a[0] = t;
    y = 2.0 * a[1];
}
"#;
        let k = parse_kernel(src).unwrap();
        let cone = ConeIndex::build(&k);
        let mul = find(&k, |n| matches!(n, ExprNode::Bin(BinOp::Mul, _, _)));
        assert_eq!(cone.life(mul), None, "plain stores persist unbounded");
    }

    #[test]
    fn rewritten_staging_arrays_have_finite_lifetimes() {
        // The matrix-vector shape: the input vector is staged into `xv`
        // by top-level constant-index stores before the row loops read
        // it, so each activation overwrites every element before any
        // load and a staged value dies within its own activation.
        let src = r#"
kernel mv {
    input x0 range [-1, 1];
    input x1 range [-1, 1];
    output y0;
    output y1;
    param a[4] = { 0.5, 0.25, -0.125, 0.0625 };
    array xv[2];
    var acc;
    xv[0] = x0;
    xv[1] = x1;
    acc = 0.0;
    for i in 0..2 {
        acc = acc + a[i] * xv[i];
    }
    y0 = acc;
    acc = 0.0;
    for i in 0..2 {
        acc = acc + a[i + 2] * xv[i];
    }
    y1 = acc;
}
"#;
        let k = parse_kernel(src).unwrap();
        let cone = ConeIndex::build(&k);
        for (e, _) in k.exprs() {
            assert!(cone.life(e).is_some(), "{e:?} must have a finite lifetime");
        }
        let reads: Vec<ExprId> = k
            .exprs()
            .filter(|(_, n)| matches!(n, ExprNode::ReadInput(_)))
            .map(|(e, _)| e)
            .collect();
        assert_eq!(reads.len(), 2);
        for e in reads {
            assert_eq!(cone.life(e), Some(0), "input read {e:?}");
        }
    }

    #[test]
    fn load_before_rewrite_stays_unbounded() {
        // `a[0]` is loaded before the top-level store that rewrites it,
        // so the load sees the previous activation's value — and, through
        // it, every earlier one.
        let src = r#"
kernel pre {
    input x range [-1, 1];
    output y;
    array a[1];
    var t;
    y = 2.0 * a[0];
    t = 0.5 * x;
    a[0] = t;
}
"#;
        let k = parse_kernel(src).unwrap();
        let cone = ConeIndex::build(&k);
        let input = find(&k, |n| matches!(n, ExprNode::ReadInput(_)));
        assert_eq!(cone.life(input), None);
    }

    #[test]
    fn live_across_variable_carries_one_activation() {
        // `h` is read before it is written: the read observes last
        // activation's value, so a deviation in the mul lives one extra
        // activation.
        let src = r#"
kernel carry {
    input x range [-1, 1];
    output y;
    var h;
    y = h + 0.0;
    h = 0.5 * x;
}
"#;
        let k = parse_kernel(src).unwrap();
        let cone = ConeIndex::build(&k);
        let mul = find(&k, |n| matches!(n, ExprNode::Bin(BinOp::Mul, _, _)));
        let add = find(&k, |n| matches!(n, ExprNode::Bin(BinOp::Add, _, _)));
        assert_eq!(cone.life(mul), Some(1));
        assert_eq!(cone.life(add), Some(0));
    }

    #[test]
    fn dead_nodes_have_zero_lifetime() {
        let src = "kernel k { input x range [-1,1]; output y; var a; for i in 0..4 unroll 2 { a = x * 1.0; } y = a; }";
        let k = parse_kernel(src).unwrap();
        let cone = ConeIndex::build(&k);
        // Dead arena nodes (left behind by unrolling) reach nothing.
        let mut live = vec![false; k.expr_count()];
        k.visit_stmts(&mut |s, _| {
            let root = match s {
                Stmt::Assign(_, e)
                | Stmt::Store(_, _, e)
                | Stmt::ShiftIn(_, e)
                | Stmt::Output(_, e) => *e,
                Stmt::For { .. } => return,
            };
            let mut stack = vec![root];
            while let Some(e) = stack.pop() {
                live[e.index()] = true;
                stack.extend(k.expr(e).operands());
            }
        });
        let dead: Vec<ExprId> = k
            .exprs()
            .map(|(e, _)| e)
            .filter(|e| !live[e.index()])
            .collect();
        assert!(!dead.is_empty(), "expected dead arena nodes");
        for e in dead {
            assert_eq!(cone.life(e), Some(0), "{e:?}");
        }
    }
}
