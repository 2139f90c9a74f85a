//! Loop unrolling.
//!
//! The paper exposes superword level parallelism by partially unrolling the
//! innermost loops of FIR and IIR by four and fully unrolling the 3x3
//! convolution. This pass reproduces that preparation: unrolled copies get
//! fresh expression instances (so each copy can carry its own fixed-point
//! format) and fresh loop ids for any nested loops.

use crate::error::IrError;
use crate::kernel::{ExprNode, Kernel, Stmt};
use crate::types::{ExprId, LoopId};

/// Substitution applied to index expressions while cloning:
/// `var := factor * new_var + add` (with `new_var = None` meaning the term
/// is fully evaluated away).
#[derive(Debug, Clone, Copy)]
struct Subst {
    var: LoopId,
    new_var: Option<LoopId>,
    factor: i64,
    add: i64,
}

/// Unrolls the loop identified by `target` by `factor`.
///
/// * `factor >= count` (or `factor == 0`, shorthand for "fully") removes
///   the loop and splices `count` copies of the body in place.
/// * Otherwise the loop becomes `count / factor` iterations of `factor`
///   copies, followed by `count % factor` straight-line remainder copies.
///
/// The unrolled kernel is validated before it replaces `kernel`, so on
/// any error `kernel` is left as it was.
///
/// # Errors
///
/// Returns [`IrError::InvalidUnroll`] if the loop id does not exist, or
/// the validation error of an unrolled kernel that fails
/// [`Kernel::validate`].
pub fn unroll(kernel: &mut Kernel, target: LoopId, factor: u32) -> Result<(), IrError> {
    let mut unrolled = kernel.clone();
    // Detach the body to appease the borrow checker, operate, re-attach.
    let mut body = std::mem::take(&mut unrolled.body);
    if !unroll_in(&mut unrolled, &mut body, target, factor) {
        return Err(IrError::InvalidUnroll(format!("loop {target} not found")));
    }
    unrolled.body = body;
    unrolled.validate()?;
    *kernel = unrolled;
    Ok(())
}

fn unroll_in(kernel: &mut Kernel, stmts: &mut Vec<Stmt>, target: LoopId, factor: u32) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        let is_target = matches!(&stmts[i], Stmt::For { var, .. } if *var == target);
        if is_target {
            let Stmt::For { var, count, body } = stmts.remove(i) else {
                unreachable!()
            };
            let expanded = expand(kernel, var, count, &body, factor);
            for (k, s) in expanded.into_iter().enumerate() {
                stmts.insert(i + k, s);
            }
            return true;
        }
        if let Stmt::For { body, .. } = &mut stmts[i] {
            let mut inner = std::mem::take(body);
            let found = unroll_in(kernel, &mut inner, target, factor);
            if let Stmt::For { body, .. } = &mut stmts[i] {
                *body = inner;
            }
            if found {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn expand(kernel: &mut Kernel, var: LoopId, count: u32, body: &[Stmt], factor: u32) -> Vec<Stmt> {
    let full = factor == 0 || factor >= count;
    let mut out = Vec::new();
    if full {
        for k in 0..count {
            let subst = Subst {
                var,
                new_var: None,
                factor: 0,
                add: k as i64,
            };
            for s in body {
                out.push(clone_stmt(kernel, s, subst));
            }
        }
        return out;
    }
    let q = count / factor;
    let r = count % factor;
    // Main loop: for v2 in 0..q { body[var := factor*v2 + k] for k in 0..factor }
    let v2 = LoopId(kernel.n_loops);
    kernel.n_loops += 1;
    let mut main_body = Vec::new();
    for k in 0..factor {
        let subst = Subst {
            var,
            new_var: Some(v2),
            factor: factor as i64,
            add: k as i64,
        };
        for s in body {
            main_body.push(clone_stmt(kernel, s, subst));
        }
    }
    out.push(Stmt::For {
        var: v2,
        count: q,
        body: main_body,
    });
    // Remainder: straight-line copies at var := q*factor + k.
    for k in 0..r {
        let subst = Subst {
            var,
            new_var: None,
            factor: 0,
            add: (q * factor + k) as i64,
        };
        for s in body {
            out.push(clone_stmt(kernel, s, subst));
        }
    }
    out
}

fn clone_stmt(kernel: &mut Kernel, s: &Stmt, subst: Subst) -> Stmt {
    match s {
        Stmt::Assign(v, e) => Stmt::Assign(*v, clone_expr(kernel, *e, subst)),
        Stmt::Store(a, ix, e) => Stmt::Store(
            *a,
            ix.substitute(subst.var, subst.new_var, subst.factor, subst.add),
            clone_expr(kernel, *e, subst),
        ),
        Stmt::ShiftIn(a, e) => Stmt::ShiftIn(*a, clone_expr(kernel, *e, subst)),
        Stmt::Output(i, e) => Stmt::Output(*i, clone_expr(kernel, *e, subst)),
        Stmt::For { var, count, body } => {
            // A nested loop in a cloned body needs a fresh induction
            // variable so the copies stay distinguishable.
            let fresh = LoopId(kernel.n_loops);
            kernel.n_loops += 1;
            let inner: Vec<Stmt> = body
                .iter()
                .map(|s| {
                    // First rename the nested induction variable, then apply
                    // the outer substitution.
                    let renamed = rename_loop_in_stmt(s, *var, fresh);
                    clone_stmt(kernel, &renamed, subst)
                })
                .collect();
            Stmt::For {
                var: fresh,
                count: *count,
                body: inner,
            }
        }
    }
}

/// Rewrites index expressions replacing `old` by `new` (coefficient kept).
fn rename_loop_in_stmt(s: &Stmt, old: LoopId, new: LoopId) -> Stmt {
    // Renaming only affects IndexExprs syntactically; expression ids are
    // handled by the caller's clone. We piggyback on `substitute`.
    match s {
        Stmt::Store(a, ix, e) => Stmt::Store(*a, ix.substitute(old, Some(new), 1, 0), *e),
        Stmt::For { var, count, body } => Stmt::For {
            var: *var,
            count: *count,
            body: body
                .iter()
                .map(|s| rename_loop_in_stmt(s, old, new))
                .collect(),
        },
        other => other.clone(),
    }
}

fn clone_expr(kernel: &mut Kernel, e: ExprId, subst: Subst) -> ExprId {
    let node = kernel.exprs[e.index()].clone();
    let cloned = match node {
        ExprNode::Const(v) => ExprNode::Const(v),
        ExprNode::ReadVar(v) => ExprNode::ReadVar(v),
        ExprNode::ReadInput(i) => ExprNode::ReadInput(i),
        ExprNode::LoadParam(p, ix) => ExprNode::LoadParam(
            p,
            ix.substitute(subst.var, subst.new_var, subst.factor, subst.add),
        ),
        ExprNode::LoadArray(a, ix) => ExprNode::LoadArray(
            a,
            ix.substitute(subst.var, subst.new_var, subst.factor, subst.add),
        ),
        ExprNode::Unary(op, a) => {
            let a2 = clone_expr(kernel, a, subst);
            ExprNode::Unary(op, a2)
        }
        ExprNode::Bin(op, a, b) => {
            let a2 = clone_expr(kernel, a, subst);
            let b2 = clone_expr(kernel, b, subst);
            ExprNode::Bin(op, a2, b2)
        }
    };
    let id = ExprId(kernel.exprs.len() as u32);
    kernel.exprs.push(cloned);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::collect_blocks;
    use crate::builder::KernelBuilder;
    use crate::interp::{Executor, FloatSem};
    use crate::types::IndexExpr;

    /// acc = 0; for i in 0..n { acc += c[i]*dl[i] }; y = acc
    fn fir_like(n: u32) -> (Kernel, LoopId) {
        let mut b = KernelBuilder::new("fir_like");
        let x = b.input("x", -1.0, 1.0);
        let y = b.output("y");
        let dl = b.array("dl", n as usize);
        let coeffs: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let c = b.param("c", coeffs);
        let acc = b.var("acc");
        let xv = b.read_input(x);
        b.shift_in(dl, xv);
        let z = b.constf(0.0);
        b.assign(acc, z);
        let i = b.begin_for(n);
        let cv = b.load_param_ix(c, IndexExpr::affine(i, 1, 0));
        let lv = b.load_ix(dl, IndexExpr::affine(i, 1, 0));
        let m = b.mul(cv, lv);
        let av = b.read_var(acc);
        let s = b.add(av, m);
        b.assign(acc, s);
        b.end_for(i);
        let r = b.read_var(acc);
        b.set_output(y, r);
        (b.finish(), i)
    }

    fn run(k: &Kernel, xs: &[f64]) -> Vec<f64> {
        let mut ex = Executor::new(k, FloatSem);
        let inputs = vec![xs.to_vec()];
        let outs = ex.run(&inputs);
        outs[0].clone()
    }

    #[test]
    fn partial_unroll_divisible() {
        let (mut k, l) = fir_like(8);
        let before = run(&k, &[1.0, 0.5, -0.25, 0.0, 0.75]);
        unroll(&mut k, l, 4).unwrap();
        // One For of 2 iterations with 4 copies inside.
        let fors: Vec<_> = k
            .body()
            .iter()
            .filter(|s| matches!(s, Stmt::For { .. }))
            .collect();
        assert_eq!(fors.len(), 1);
        if let Stmt::For { count, body, .. } = fors[0] {
            assert_eq!(*count, 2);
            assert_eq!(body.len(), 4); // 4 copies x 1 stmt (assign acc)
        }
        let after = run(&k, &[1.0, 0.5, -0.25, 0.0, 0.75]);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12, "unrolling must preserve semantics");
        }
    }

    #[test]
    fn partial_unroll_with_remainder() {
        let (mut k, l) = fir_like(10);
        let before = run(&k, &[0.3, -0.6, 0.9]);
        unroll(&mut k, l, 4).unwrap();
        let after = run(&k, &[0.3, -0.6, 0.9]);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12);
        }
        // q=2 loop + r=2 remainder statements: blocks = head, loop body, tail.
        let blocks = collect_blocks(&k);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[1].trip(), 2);
    }

    #[test]
    fn full_unroll_removes_loop() {
        let (mut k, l) = fir_like(6);
        let before = run(&k, &[1.0, -1.0]);
        unroll(&mut k, l, 0).unwrap();
        assert!(k.body().iter().all(|s| !matches!(s, Stmt::For { .. })));
        let after = run(&k, &[1.0, -1.0]);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12);
        }
        let blocks = collect_blocks(&k);
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn unknown_loop_errors() {
        let (mut k, _) = fir_like(4);
        assert!(matches!(
            unroll(&mut k, LoopId(99), 2),
            Err(IrError::InvalidUnroll(_))
        ));
    }

    #[test]
    fn index_expressions_are_rewritten() {
        let (mut k, l) = fir_like(8);
        unroll(&mut k, l, 4).unwrap();
        // Collect all LoadArray offsets in the main loop body: should be
        // {0,1,2,3} with coefficient 4 on the new loop var.
        let mut offsets = Vec::new();
        k.visit_stmts(&mut |s, _| {
            if let Stmt::Assign(_, e) = s {
                collect_offsets(&k, *e, &mut offsets);
            }
        });
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets, vec![0, 1, 2, 3]);

        fn collect_offsets(k: &Kernel, e: ExprId, out: &mut Vec<i64>) {
            match k.expr(e) {
                ExprNode::LoadArray(_, ix) => {
                    if let Some(&(_, c)) = ix.terms().first() {
                        assert_eq!(c, 4, "unrolled stride must be the factor");
                        out.push(ix.offset());
                    }
                }
                n => {
                    for op in n.operands().collect::<Vec<_>>() {
                        collect_offsets(k, op, out);
                    }
                }
            }
        }
    }
}
