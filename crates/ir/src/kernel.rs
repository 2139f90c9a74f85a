//! The kernel IR: declarations, expression arena and statement tree.
//!
//! A [`Kernel`] describes the computation performed for **one activation**
//! (one input sample for a filter, one output pixel for a streaming
//! convolution). Running a kernel over a workload means executing its body
//! once per activation while state arrays persist across activations — this
//! is how delay lines (`x[n-k]`) and feedback (`y[n-k]`) are expressed.

use crate::types::{ArrayId, BinOp, ExprId, IndexExpr, InputId, LoopId, ParamId, UnOp, VarId};

/// The most elements a parameter table or state array may have, checked
/// by [`Kernel::validate`] before any pass allocates per element. The
/// suite's largest table has 256 elements and `slpwlo-gen`'s (seeds
/// 0–1999) has 8.
pub const MAX_TABLE_LEN: usize = 1 << 16;

/// A per-activation scalar input with its user-annotated value range.
///
/// The range plays the role of the paper's pragma annotations and seeds
/// dynamic-range analysis (interval propagation / IWL determination).
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Source-level name.
    pub name: String,
    /// Lower bound of the input values.
    pub lo: f64,
    /// Upper bound of the input values.
    pub hi: f64,
}

/// A per-activation scalar output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Source-level name.
    pub name: String,
}

/// A constant parameter table (filter coefficients, convolution masks).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Source-level name.
    pub name: String,
    /// The constant values; the table length is `values.len()`.
    pub values: Vec<f64>,
}

/// A state array that persists across activations (delay line, line buffer).
///
/// Arrays are zero-initialised before the first activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Array {
    /// Source-level name.
    pub name: String,
    /// Number of elements.
    pub len: usize,
}

/// A scalar variable (a "register" in the source program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Var {
    /// Source-level name.
    pub name: String,
}

/// One node of the expression arena.
///
/// Each node is a distinct *operation instance*; loop unrolling clones nodes
/// under fresh [`ExprId`]s so that every instance can carry its own
/// fixed-point format downstream.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprNode {
    /// A floating-point literal.
    Const(f64),
    /// Reads the current value of a scalar variable.
    ReadVar(VarId),
    /// Reads the activation's value of an input.
    ReadInput(InputId),
    /// Loads a constant from a parameter table.
    LoadParam(ParamId, IndexExpr),
    /// Loads an element of a state array.
    LoadArray(ArrayId, IndexExpr),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation.
    Bin(BinOp, ExprId, ExprId),
}

impl ExprNode {
    /// Ids of the operand expressions, in evaluation order.
    pub fn operands(&self) -> impl Iterator<Item = ExprId> + '_ {
        let (a, b) = match *self {
            ExprNode::Unary(_, a) => (Some(a), None),
            ExprNode::Bin(_, a, b) => (Some(a), Some(b)),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A statement of the kernel body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var = expr`.
    Assign(VarId, ExprId),
    /// `array[index] = expr`.
    Store(ArrayId, IndexExpr, ExprId),
    /// Pushes a new value into a delay line: conceptually
    /// `for k in (1..len).rev() { a[k] = a[k-1] }; a[0] = expr`.
    ///
    /// Real implementations use a circular buffer, so lowering charges one
    /// store plus an index update rather than `len` moves.
    ShiftIn(ArrayId, ExprId),
    /// A counted loop `for var in 0..count { body }`.
    For {
        /// The induction variable.
        var: LoopId,
        /// Trip count (compile-time constant, as in the paper's kernels).
        count: u32,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Emits the activation's value for output `index`.
    Output(usize, ExprId),
}

/// A complete kernel: declarations plus the per-activation body.
///
/// Construct kernels through [`crate::builder::KernelBuilder`] or the DSL
/// parser; the raw fields stay crate-private to preserve arena invariants
/// (every [`ExprId`] used by exactly one statement tree position).
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) name: String,
    pub(crate) inputs: Vec<Input>,
    pub(crate) outputs: Vec<Output>,
    pub(crate) params: Vec<Param>,
    pub(crate) arrays: Vec<Array>,
    pub(crate) vars: Vec<Var>,
    pub(crate) exprs: Vec<ExprNode>,
    pub(crate) body: Vec<Stmt>,
    pub(crate) n_loops: u32,
}

impl Kernel {
    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared inputs.
    pub fn inputs(&self) -> &[Input] {
        &self.inputs
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Declared parameter tables.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Declared state arrays.
    pub fn arrays(&self) -> &[Array] {
        &self.arrays
    }

    /// Declared scalar variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The top-level statement sequence.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Number of expression nodes in the arena.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Looks up an expression node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this kernel's arena.
    pub fn expr(&self, id: ExprId) -> &ExprNode {
        &self.exprs[id.index()]
    }

    /// Iterates over all `(id, node)` pairs of the arena.
    pub fn exprs(&self) -> impl Iterator<Item = (ExprId, &ExprNode)> {
        self.exprs
            .iter()
            .enumerate()
            .map(|(i, n)| (ExprId(i as u32), n))
    }

    /// Resolves a parameter value, wrapping the index into range.
    ///
    /// Out-of-range accesses wrap modulo the table length; this mirrors the
    /// circular-buffer semantics used for state arrays and keeps analysis
    /// passes total.
    pub fn param_value(&self, id: ParamId, idx: i64) -> f64 {
        let p = &self.params[id.index()];
        let len = p.values.len() as i64;
        debug_assert!(len > 0, "empty parameter table {}", p.name);
        p.values[(idx.rem_euclid(len)) as usize]
    }

    /// Walks every statement (depth-first), invoking `f` with the loop
    /// nesting stack active at that statement.
    #[allow(clippy::type_complexity)]
    pub fn visit_stmts<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt, &[(LoopId, u32)])) {
        fn go<'a>(
            stmts: &'a [Stmt],
            stack: &mut Vec<(LoopId, u32)>,
            f: &mut dyn FnMut(&'a Stmt, &[(LoopId, u32)]),
        ) {
            for s in stmts {
                f(s, stack);
                if let Stmt::For { var, count, body } = s {
                    stack.push((*var, *count));
                    go(body, stack, f);
                    stack.pop();
                }
            }
        }
        go(&self.body, &mut Vec::new(), f);
    }

    /// Number of nodes in the expression tree rooted at `root`.
    pub fn expr_tree_size(&self, root: ExprId) -> usize {
        let mut n = 1;
        for op in self.expr(root).operands() {
            n += self.expr_tree_size(op);
        }
        n
    }

    /// Validates arena invariants; used by tests and after transformations.
    ///
    /// Checks that every input's declared value range is usable (finite,
    /// `lo <= hi`), that no parameter table or state array is longer than
    /// [`MAX_TABLE_LEN`], that every declared output is assigned
    /// somewhere in the body, that every expression id referenced by the
    /// statement tree is in-bounds, and that no expression node is used
    /// as an operand or statement root more than once (single-use arena
    /// discipline).
    pub fn validate(&self) -> Result<(), crate::error::IrError> {
        use crate::error::IrError;
        for input in &self.inputs {
            if !input.lo.is_finite() || !input.hi.is_finite() || input.lo > input.hi {
                return Err(IrError::InvalidRange {
                    input: input.name.clone(),
                    range: format!("[{}, {}]", input.lo, input.hi),
                });
            }
        }
        let params = self
            .params
            .iter()
            .map(|p| ("param", &p.name, p.values.len()));
        let arrays = self.arrays.iter().map(|a| ("array", &a.name, a.len));
        if let Some((kind, name, len)) = params.chain(arrays).find(|t| t.2 > MAX_TABLE_LEN) {
            return Err(IrError::TableTooLong {
                kind,
                name: name.clone(),
                len,
            });
        }
        let mut output_set = vec![false; self.outputs.len()];
        self.visit_stmts(&mut |s, _| {
            if let Stmt::Output(idx, _) = s {
                if let Some(slot) = output_set.get_mut(*idx) {
                    *slot = true;
                }
            }
        });
        if let Some(missing) = output_set.iter().position(|&set| !set) {
            return Err(IrError::OutputUnset(self.outputs[missing].name.clone()));
        }
        let mut uses = vec![0u32; self.exprs.len()];
        let mut mark = |id: ExprId| -> Result<(), IrError> {
            let slot = uses.get_mut(id.index()).ok_or(IrError::InvalidExpr(id.0))?;
            *slot += 1;
            if *slot > 1 {
                return Err(IrError::ExprReused(id.0));
            }
            Ok(())
        };
        for (id, node) in self.exprs.iter().enumerate() {
            for op in node.operands() {
                if op.index() >= self.exprs.len() {
                    return Err(IrError::InvalidExpr(op.0));
                }
                if op.index() >= id {
                    return Err(IrError::ExprCycle(op.0));
                }
                mark(op)?;
            }
        }
        let mut roots = Vec::new();
        self.visit_stmts(&mut |s, _| {
            if let Stmt::Assign(_, e)
            | Stmt::Store(_, _, e)
            | Stmt::ShiftIn(_, e)
            | Stmt::Output(_, e) = s
            {
                roots.push(*e);
            }
        });
        for r in roots {
            mark(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn tiny() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let x = b.input("x", -1.0, 1.0);
        let y = b.output("y");
        let xv = b.read_input(x);
        let c = b.constf(0.5);
        let m = b.mul(c, xv);
        b.set_output(y, m);
        b.finish()
    }

    #[test]
    fn accessors() {
        let k = tiny();
        assert_eq!(k.name(), "k");
        assert_eq!(k.inputs().len(), 1);
        assert_eq!(k.outputs().len(), 1);
        assert_eq!(k.expr_count(), 3);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn param_value_wraps() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("c", vec![1.0, 2.0, 3.0]);
        let y = b.output("y");
        let l = b.load_param(p, 0);
        b.set_output(y, l);
        let k = b.finish();
        assert_eq!(k.param_value(p, 0), 1.0);
        assert_eq!(k.param_value(p, 4), 2.0);
        assert_eq!(k.param_value(p, -1), 3.0);
    }

    #[test]
    fn expr_node_operands() {
        let k = tiny();
        let (mul_id, _) = k
            .exprs()
            .find(|(_, n)| matches!(n, ExprNode::Bin(BinOp::Mul, _, _)))
            .unwrap();
        assert_eq!(k.expr(mul_id).operands().count(), 2);
        assert_eq!(k.expr(ExprId(0)).operands().count(), 0);
    }
}
