//! Programmatic construction of [`Kernel`]s.

use crate::error::IrError;
use crate::kernel::{Array, ExprNode, Input, Kernel, Output, Param, Stmt, Var};
use crate::types::{ArrayId, BinOp, ExprId, IndexExpr, InputId, LoopId, ParamId, UnOp, VarId};

/// Incremental builder for [`Kernel`]s.
///
/// Expressions are created first (returning [`ExprId`]s) and then consumed
/// by exactly one statement; loops are opened with [`begin_for`] and closed
/// with [`end_for`].
///
/// [`begin_for`]: KernelBuilder::begin_for
/// [`end_for`]: KernelBuilder::end_for
///
/// # Example
///
/// ```
/// use slpwlo_ir::builder::KernelBuilder;
///
/// let mut b = KernelBuilder::new("acc4");
/// let x = b.input("x", -1.0, 1.0);
/// let y = b.output("y");
/// let acc = b.var("acc");
/// let zero = b.constf(0.0);
/// b.assign(acc, zero);
/// let i = b.begin_for(4);
/// let a = b.read_var(acc);
/// let xv = b.read_input(x);
/// let s = b.add(a, xv);
/// b.assign(acc, s);
/// b.end_for(i);
/// let r = b.read_var(acc);
/// b.set_output(y, r);
/// let kernel = b.finish();
/// assert!(kernel.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    kernel: Kernel,
    /// Stack of open loops: (loop id, trip count, statements so far).
    open: Vec<(LoopId, u32, Vec<Stmt>)>,
}

impl KernelBuilder {
    /// Starts building a kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            kernel: Kernel {
                name: name.into(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                params: Vec::new(),
                arrays: Vec::new(),
                vars: Vec::new(),
                exprs: Vec::new(),
                body: Vec::new(),
                n_loops: 0,
            },
            open: Vec::new(),
        }
    }

    // ---- declarations ----------------------------------------------------

    /// Declares a per-activation input with value range `[lo, hi]`.
    ///
    /// Bounds are *not* checked here: malformed ranges (non-finite, or
    /// `lo > hi`) are caught by [`Kernel::validate`] — i.e. by
    /// [`KernelBuilder::try_finish`] as [`IrError::InvalidRange`] — so
    /// programmatically-built kernels get a typed error at the same
    /// boundary parsed ones do instead of a delayed panic inside range
    /// analysis.
    pub fn input(&mut self, name: impl Into<String>, lo: f64, hi: f64) -> InputId {
        let id = InputId(self.kernel.inputs.len() as u32);
        self.kernel.inputs.push(Input {
            name: name.into(),
            lo,
            hi,
        });
        id
    }

    /// Declares a per-activation output.
    pub fn output(&mut self, name: impl Into<String>) -> usize {
        let id = self.kernel.outputs.len();
        self.kernel.outputs.push(Output { name: name.into() });
        id
    }

    /// Declares a constant parameter table.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty; see [`KernelBuilder::try_param`] for
    /// the fallible variant.
    pub fn param(&mut self, name: impl Into<String>, values: Vec<f64>) -> ParamId {
        self.try_param(name, values)
            .expect("parameter table must not be empty")
    }

    /// Declares a constant parameter table, rejecting empty tables with a
    /// structured error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::EmptyTable`] if `values` is empty.
    pub fn try_param(
        &mut self,
        name: impl Into<String>,
        values: Vec<f64>,
    ) -> Result<ParamId, IrError> {
        let name = name.into();
        if values.is_empty() {
            return Err(IrError::EmptyTable {
                kind: "param",
                name,
            });
        }
        let id = ParamId(self.kernel.params.len() as u32);
        self.kernel.params.push(Param { name, values });
        Ok(id)
    }

    /// Declares a zero-initialised state array of `len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero; see [`KernelBuilder::try_array`] for the
    /// fallible variant.
    pub fn array(&mut self, name: impl Into<String>, len: usize) -> ArrayId {
        self.try_array(name, len)
            .expect("state array must have at least one element")
    }

    /// Declares a zero-initialised state array, rejecting zero-length
    /// arrays with a structured error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::EmptyTable`] if `len` is zero.
    pub fn try_array(&mut self, name: impl Into<String>, len: usize) -> Result<ArrayId, IrError> {
        let name = name.into();
        if len == 0 {
            return Err(IrError::EmptyTable {
                kind: "array",
                name,
            });
        }
        let id = ArrayId(self.kernel.arrays.len() as u32);
        self.kernel.arrays.push(Array { name, len });
        Ok(id)
    }

    /// Declares a scalar variable.
    pub fn var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.kernel.vars.len() as u32);
        self.kernel.vars.push(Var { name: name.into() });
        id
    }

    // ---- expressions -----------------------------------------------------

    fn push_expr(&mut self, node: ExprNode) -> ExprId {
        let id = ExprId(self.kernel.exprs.len() as u32);
        self.kernel.exprs.push(node);
        id
    }

    /// A floating-point constant.
    pub fn constf(&mut self, v: f64) -> ExprId {
        self.push_expr(ExprNode::Const(v))
    }

    /// Reads a scalar variable.
    pub fn read_var(&mut self, v: VarId) -> ExprId {
        self.push_expr(ExprNode::ReadVar(v))
    }

    /// Reads an input value.
    pub fn read_input(&mut self, i: InputId) -> ExprId {
        self.push_expr(ExprNode::ReadInput(i))
    }

    /// Loads a parameter at a constant index.
    pub fn load_param(&mut self, p: ParamId, idx: i64) -> ExprId {
        self.push_expr(ExprNode::LoadParam(p, IndexExpr::constant(idx)))
    }

    /// Loads a parameter at an affine index.
    pub fn load_param_ix(&mut self, p: ParamId, idx: IndexExpr) -> ExprId {
        self.push_expr(ExprNode::LoadParam(p, idx))
    }

    /// Loads a state-array element at a constant index.
    pub fn load(&mut self, a: ArrayId, idx: i64) -> ExprId {
        self.push_expr(ExprNode::LoadArray(a, IndexExpr::constant(idx)))
    }

    /// Loads a state-array element at an affine index.
    pub fn load_ix(&mut self, a: ArrayId, idx: IndexExpr) -> ExprId {
        self.push_expr(ExprNode::LoadArray(a, idx))
    }

    /// `a + b`.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push_expr(ExprNode::Bin(BinOp::Add, a, b))
    }

    /// `a - b`.
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push_expr(ExprNode::Bin(BinOp::Sub, a, b))
    }

    /// `a * b`.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push_expr(ExprNode::Bin(BinOp::Mul, a, b))
    }

    /// `-a`.
    pub fn neg(&mut self, a: ExprId) -> ExprId {
        self.push_expr(ExprNode::Unary(UnOp::Neg, a))
    }

    // ---- statements ------------------------------------------------------

    fn push_stmt(&mut self, s: Stmt) {
        match self.open.last_mut() {
            Some((_, _, body)) => body.push(s),
            None => self.kernel.body.push(s),
        }
    }

    /// Emits `var = expr`.
    pub fn assign(&mut self, var: VarId, expr: ExprId) {
        self.push_stmt(Stmt::Assign(var, expr));
    }

    /// Emits `array[idx] = expr` with a constant index.
    pub fn store(&mut self, a: ArrayId, idx: i64, expr: ExprId) {
        self.push_stmt(Stmt::Store(a, IndexExpr::constant(idx), expr));
    }

    /// Emits `array[idx] = expr` with an affine index.
    pub fn store_ix(&mut self, a: ArrayId, idx: IndexExpr, expr: ExprId) {
        self.push_stmt(Stmt::Store(a, idx, expr));
    }

    /// Emits a delay-line push (see [`Stmt::ShiftIn`]).
    pub fn shift_in(&mut self, a: ArrayId, expr: ExprId) {
        self.push_stmt(Stmt::ShiftIn(a, expr));
    }

    /// Emits the value of output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not name a declared output; see
    /// [`KernelBuilder::try_set_output`] for the fallible variant.
    pub fn set_output(&mut self, index: usize, expr: ExprId) {
        self.try_set_output(index, expr)
            .expect("output index out of range");
    }

    /// Emits the value of output `index`, rejecting out-of-range indices
    /// with a structured error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::OutputOutOfRange`] if `index` does not name a
    /// declared output.
    pub fn try_set_output(&mut self, index: usize, expr: ExprId) -> Result<(), IrError> {
        if index >= self.kernel.outputs.len() {
            return Err(IrError::OutputOutOfRange {
                index,
                count: self.kernel.outputs.len(),
            });
        }
        self.push_stmt(Stmt::Output(index, expr));
        Ok(())
    }

    /// Opens a loop `for i in 0..count`; returns the induction variable id
    /// for use in [`IndexExpr`]s. Must be closed with [`end_for`].
    ///
    /// [`end_for`]: KernelBuilder::end_for
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero; see [`KernelBuilder::try_begin_for`] for
    /// the fallible variant.
    pub fn begin_for(&mut self, count: u32) -> LoopId {
        self.try_begin_for(count)
            .expect("loop trip count must be positive")
    }

    /// Opens a loop, rejecting zero trip counts with a structured error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ZeroTripLoop`] if `count` is zero.
    pub fn try_begin_for(&mut self, count: u32) -> Result<LoopId, IrError> {
        if count == 0 {
            return Err(IrError::ZeroTripLoop);
        }
        let id = LoopId(self.kernel.n_loops);
        self.kernel.n_loops += 1;
        self.open.push((id, count, Vec::new()));
        Ok(id)
    }

    /// Closes the innermost open loop.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open loop (loops must nest);
    /// see [`KernelBuilder::try_end_for`] for the fallible variant.
    pub fn end_for(&mut self, id: LoopId) {
        self.try_end_for(id)
            .expect("end_for must close the innermost open loop");
    }

    /// Closes the innermost open loop, rejecting crossed or spurious
    /// closes with a structured error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::LoopNesting`] if no loop is open or `id` is not
    /// the innermost open loop.
    pub fn try_end_for(&mut self, id: LoopId) -> Result<(), IrError> {
        match self.open.last() {
            None => {
                return Err(IrError::LoopNesting(format!(
                    "end_for({id}) with no loop open"
                )))
            }
            Some(&(innermost, _, _)) if innermost != id => {
                return Err(IrError::LoopNesting(format!(
                    "end_for({id}) while {innermost} is the innermost open loop"
                )))
            }
            Some(_) => {}
        }
        let (var, count, body) = self.open.pop().expect("checked above");
        self.push_stmt(Stmt::For { var, count, body });
        Ok(())
    }

    /// Finalises the kernel.
    ///
    /// # Panics
    ///
    /// Panics if loops are left open or if arena invariants are violated
    /// (an expression used twice or not at all is reported by
    /// [`Kernel::validate`]; unused expressions are tolerated, double uses
    /// are not).
    pub fn finish(self) -> Kernel {
        self.try_finish().expect("kernel failed validation")
    }

    /// Finalises the kernel, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] if loops are left open or if an expression node
    /// is referenced from more than one position.
    pub fn try_finish(self) -> Result<Kernel, IrError> {
        if let Some((id, _, _)) = self.open.last() {
            return Err(IrError::LoopNesting(format!("loop {id} open at finish")));
        }
        self.kernel.validate()?;
        Ok(self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_loops() {
        let mut b = KernelBuilder::new("nest");
        let y = b.output("y");
        let a = b.array("buf", 16);
        let i = b.begin_for(4);
        let j = b.begin_for(4);
        let mut ix = IndexExpr::affine(i, 4, 0);
        ix.add_term(j, 1);
        let v = b.load_ix(a, ix);
        let c = b.constf(2.0);
        let m = b.mul(v, c);
        b.store(a, 0, m);
        b.end_for(j);
        b.end_for(i);
        let l = b.load(a, 0);
        b.set_output(y, l);
        let k = b.finish();
        assert!(matches!(k.body()[0], Stmt::For { count: 4, .. }));
    }

    #[test]
    fn double_use_is_rejected() {
        let mut b = KernelBuilder::new("bad");
        let y = b.output("y");
        let c = b.constf(1.0);
        // `c` used twice: once by add (twice!), invalid.
        let s = b.add(c, c);
        b.set_output(y, s);
        assert!(matches!(b.try_finish(), Err(IrError::ExprReused(_))));
    }

    #[test]
    fn unclosed_loop_is_rejected() {
        let mut b = KernelBuilder::new("bad");
        b.begin_for(2);
        assert!(b.try_finish().is_err());
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn crossed_loops_panic() {
        let mut b = KernelBuilder::new("bad");
        let i = b.begin_for(2);
        let _j = b.begin_for(2);
        b.end_for(i);
    }
}
