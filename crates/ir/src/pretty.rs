//! Human-readable rendering of kernels (round-trips through the DSL
//! grammar accepted by [`crate::parser`]).

use crate::kernel::{ExprNode, Kernel, Stmt};
use crate::types::ExprId;
use std::fmt::Write as _;

/// Renders a kernel in the textual DSL syntax.
pub fn kernel_to_string(k: &Kernel) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "kernel {} {{", k.name());
    for i in k.inputs() {
        let _ = writeln!(s, "    input {} range [{}, {}];", i.name, i.lo, i.hi);
    }
    for o in k.outputs() {
        let _ = writeln!(s, "    output {};", o.name);
    }
    for p in k.params() {
        let vals: Vec<String> = p.values.iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(
            s,
            "    param {}[{}] = {{ {} }};",
            p.name,
            p.values.len(),
            vals.join(", ")
        );
    }
    for a in k.arrays() {
        let _ = writeln!(s, "    array {}[{}];", a.name, a.len);
    }
    for v in k.vars() {
        let _ = writeln!(s, "    var {};", v.name);
    }
    write_stmts(&mut s, k, k.body(), 1);
    s.push_str("}\n");
    s
}

fn indent(s: &mut String, level: usize) {
    for _ in 0..level {
        s.push_str("    ");
    }
}

fn write_stmts(s: &mut String, k: &Kernel, stmts: &[Stmt], level: usize) {
    for st in stmts {
        indent(s, level);
        match st {
            Stmt::Assign(v, e) => {
                let _ = writeln!(
                    s,
                    "{} = {};",
                    k.vars()[v.index()].name,
                    expr_to_string(k, *e)
                );
            }
            Stmt::Store(a, ix, e) => {
                let _ = writeln!(
                    s,
                    "{}[{}] = {};",
                    k.arrays()[a.index()].name,
                    ix,
                    expr_to_string(k, *e)
                );
            }
            Stmt::ShiftIn(a, e) => {
                let _ = writeln!(
                    s,
                    "shiftin {} <- {};",
                    k.arrays()[a.index()].name,
                    expr_to_string(k, *e)
                );
            }
            Stmt::Output(i, e) => {
                let _ = writeln!(s, "{} = {};", k.outputs()[*i].name, expr_to_string(k, *e));
            }
            Stmt::For { var, count, body } => {
                let _ = writeln!(s, "for {var} in 0..{count} {{");
                write_stmts(s, k, body, level + 1);
                indent(s, level);
                s.push_str("}\n");
            }
        }
    }
}

/// Renders one expression tree with minimal parentheses.
pub fn expr_to_string(k: &Kernel, e: ExprId) -> String {
    fn prec(node: &ExprNode) -> u8 {
        match node {
            ExprNode::Bin(crate::types::BinOp::Add, ..)
            | ExprNode::Bin(crate::types::BinOp::Sub, ..) => 1,
            ExprNode::Bin(crate::types::BinOp::Mul, ..) => 2,
            ExprNode::Unary(..) => 3,
            _ => 4,
        }
    }
    fn go(k: &Kernel, e: ExprId, parent_prec: u8, out: &mut String) {
        let node = k.expr(e);
        let p = prec(node);
        let need_paren = p < parent_prec;
        if need_paren {
            out.push('(');
        }
        match node {
            ExprNode::Const(v) => {
                let _ = write!(out, "{v}");
                if v.fract() == 0.0 && v.is_finite() {
                    out.push_str(".0");
                }
            }
            ExprNode::ReadVar(v) => out.push_str(&k.vars()[v.index()].name),
            ExprNode::ReadInput(i) => out.push_str(&k.inputs()[i.index()].name),
            ExprNode::LoadParam(pa, ix) => {
                let _ = write!(out, "{}[{}]", k.params()[pa.index()].name, ix);
            }
            ExprNode::LoadArray(a, ix) => {
                let _ = write!(out, "{}[{}]", k.arrays()[a.index()].name, ix);
            }
            ExprNode::Unary(op, a) => {
                let _ = write!(out, "{op}");
                // The lexer rejects `--`, so an operand rendering with a
                // leading sign (a nested negation, a negative constant)
                // is parenthesised.
                let at = out.len();
                go(k, *a, p, out);
                if out[at..].starts_with('-') {
                    out.insert(at, '(');
                    out.push(')');
                }
            }
            ExprNode::Bin(op, a, b) => {
                go(k, *a, p, out);
                let _ = write!(out, " {op} ");
                // Right operand binds tighter to preserve left associativity.
                go(k, *b, p + 1, out);
            }
        }
        if need_paren {
            out.push(')');
        }
    }
    let mut s = String::new();
    go(k, e, 0, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    #[test]
    fn renders_expressions_with_precedence() {
        let mut b = KernelBuilder::new("p");
        let y = b.output("y");
        let c1 = b.constf(1.0);
        let c2 = b.constf(2.0);
        let c3 = b.constf(3.0);
        let s = b.add(c1, c2);
        let m = b.mul(s, c3);
        b.set_output(y, m);
        let k = b.finish();
        let text = kernel_to_string(&k);
        assert!(text.contains("y = (1.0 + 2.0) * 3.0;"), "got: {text}");
    }

    #[test]
    fn renders_loops_and_decls() {
        let mut b = KernelBuilder::new("fir");
        let x = b.input("x", -1.0, 1.0);
        let y = b.output("y");
        let dl = b.array("dl", 8);
        let c = b.param("c", vec![0.5, 0.25]);
        let acc = b.var("acc");
        let xv = b.read_input(x);
        b.shift_in(dl, xv);
        let z = b.constf(0.0);
        b.assign(acc, z);
        let i = b.begin_for(8);
        let cv = b.load_param_ix(c, crate::types::IndexExpr::affine(i, 1, 0));
        let lv = b.load_ix(dl, crate::types::IndexExpr::affine(i, 1, 0));
        let m = b.mul(cv, lv);
        let av = b.read_var(acc);
        let s = b.add(av, m);
        b.assign(acc, s);
        b.end_for(i);
        let r = b.read_var(acc);
        b.set_output(y, r);
        let k = b.finish();
        let text = kernel_to_string(&k);
        assert!(text.contains("input x range [-1, 1];"));
        assert!(text.contains("for i0 in 0..8 {"));
        assert!(text.contains("shiftin dl <- x;"));
        assert!(text.contains("acc = acc + c[i0] * dl[i0];"));
    }

    #[test]
    fn negation_renders() {
        let mut b = KernelBuilder::new("n");
        let y = b.output("y");
        let z = b.output("z");
        let w = b.output("w");
        let c = b.constf(2.0);
        let n = b.neg(c);
        b.set_output(y, n);
        // `Neg(Neg(x))` and `Neg(Const(-0.5))` must not render as `--`.
        let c2 = b.constf(2.0);
        let n2 = b.neg(c2);
        let nn = b.neg(n2);
        b.set_output(z, nn);
        let h = b.constf(-0.5);
        let nh = b.neg(h);
        b.set_output(w, nh);
        let k = b.finish();
        let text = kernel_to_string(&k);
        assert!(text.contains("y = -2.0;"), "got: {text}");
        assert!(text.contains("z = -(-2.0);"), "got: {text}");
        assert!(text.contains("w = -(-0.5);"), "got: {text}");
        let back = crate::parser::parse_kernel(&text).expect("rendering must parse");
        assert_eq!(kernel_to_string(&back), text);
    }
}
