//! Generic kernel interpreter over pluggable value semantics.
//!
//! The same execution engine drives three different clients:
//!
//! * the floating-point reference ([`FloatSem`]),
//! * quantization-noise **gain analysis** (a perturbing semantics defined in
//!   `slpwlo-accuracy`),
//! * **bit-accurate fixed-point simulation** (a fixed-point semantics, also
//!   in `slpwlo-accuracy`).
//!
//! A [`Semantics`] receives every expression-node evaluation together with
//! an [`ExecCtx`] identifying *which dynamic execution instance* of the node
//! is running — the key piece needed to inject impulses per execution
//! instance during gain analysis.

use crate::kernel::{ExprNode, Kernel, Stmt};
use crate::types::{ArrayId, BinOp, ExprId, InputId, LoopId, ParamId, UnOp};
use std::collections::HashMap;

/// Identifies one dynamic execution of an expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecCtx {
    /// Index of the current activation (sample / pixel).
    pub activation: u32,
    /// How many times this expression has already executed within the
    /// current activation (0 for the first execution).
    pub exec: u32,
}

/// Value semantics plugged into the [`Executor`].
///
/// All methods receive the originating [`ExprId`] so implementations can
/// attach per-node behaviour (formats, noise sources). The default
/// implementations of [`var_use`](Semantics::var_use) and
/// [`store`](Semantics::store) pass values through unchanged.
pub trait Semantics {
    /// The runtime value representation.
    type Value: Copy;

    /// The value used to zero-initialise state arrays and variables.
    fn zero(&mut self) -> Self::Value;

    /// Materialises a literal constant.
    fn constant(&mut self, ctx: ExecCtx, e: ExprId, v: f64) -> Self::Value;

    /// Converts an incoming input sample.
    fn input(&mut self, ctx: ExecCtx, e: ExprId, input: InputId, raw: f64) -> Self::Value;

    /// Materialises a parameter-table constant.
    fn param(&mut self, ctx: ExecCtx, e: ExprId, p: ParamId, idx: i64, raw: f64) -> Self::Value;

    /// Observes a state-array load.
    fn load(&mut self, ctx: ExecCtx, e: ExprId, stored: Self::Value) -> Self::Value;

    /// Observes a variable read. Defaults to the identity.
    fn var_use(&mut self, _ctx: ExecCtx, _e: ExprId, v: Self::Value) -> Self::Value {
        v
    }

    /// Applies a unary operation.
    fn un(&mut self, ctx: ExecCtx, e: ExprId, op: UnOp, a: Self::Value) -> Self::Value;

    /// Applies a binary operation.
    fn bin(
        &mut self,
        ctx: ExecCtx,
        e: ExprId,
        op: BinOp,
        a: Self::Value,
        b: Self::Value,
    ) -> Self::Value;

    /// Transforms a value as it is written to a state array (e.g. to
    /// quantize it to the array's storage format). Defaults to the
    /// identity.
    fn store(&mut self, _array: ArrayId, v: Self::Value) -> Self::Value {
        v
    }

    /// Converts a value to `f64` for output collection and measurement.
    fn to_f64(&self, v: Self::Value) -> f64;
}

/// Plain IEEE-754 double-precision semantics: the reference behaviour
/// against which fixed-point implementations are compared.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloatSem;

impl Semantics for FloatSem {
    type Value = f64;

    fn zero(&mut self) -> f64 {
        0.0
    }

    fn constant(&mut self, _ctx: ExecCtx, _e: ExprId, v: f64) -> f64 {
        v
    }

    fn input(&mut self, _ctx: ExecCtx, _e: ExprId, _input: InputId, raw: f64) -> f64 {
        raw
    }

    fn param(&mut self, _ctx: ExecCtx, _e: ExprId, _p: ParamId, _idx: i64, raw: f64) -> f64 {
        raw
    }

    fn load(&mut self, _ctx: ExecCtx, _e: ExprId, stored: f64) -> f64 {
        stored
    }

    fn un(&mut self, _ctx: ExecCtx, _e: ExprId, op: UnOp, a: f64) -> f64 {
        match op {
            UnOp::Neg => -a,
        }
    }

    fn bin(&mut self, _ctx: ExecCtx, _e: ExprId, op: BinOp, a: f64, b: f64) -> f64 {
        match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
        }
    }

    fn to_f64(&self, v: f64) -> f64 {
        v
    }
}

/// Executes a kernel over a workload of activations.
#[derive(Debug)]
pub struct Executor<'k, S: Semantics> {
    kernel: &'k Kernel,
    sem: S,
    arrays: Vec<Vec<S::Value>>,
    vars: Vec<S::Value>,
    outputs: Vec<S::Value>,
    /// Per-expression execution counters for the current activation, using
    /// an epoch scheme to avoid clearing between activations.
    exec_counts: Vec<(u32, u32)>,
    epoch: u32,
    activation: u32,
    loop_env: HashMap<LoopId, i64>,
}

impl<'k, S: Semantics> Executor<'k, S> {
    /// Creates an executor with zeroed state.
    pub fn new(kernel: &'k Kernel, mut sem: S) -> Self {
        let arrays = kernel
            .arrays()
            .iter()
            .map(|a| {
                let z = sem.zero();
                vec![z; a.len]
            })
            .collect();
        let vars = (0..kernel.vars().len()).map(|_| sem.zero()).collect();
        let outputs = (0..kernel.outputs().len()).map(|_| sem.zero()).collect();
        Executor {
            kernel,
            sem,
            arrays,
            vars,
            outputs,
            exec_counts: vec![(0, 0); kernel.expr_count()],
            epoch: 0,
            activation: 0,
            loop_env: HashMap::new(),
        }
    }

    /// Access to the plugged semantics (e.g. to read accumulated noise
    /// statistics after a run).
    pub fn semantics(&self) -> &S {
        &self.sem
    }

    /// The current per-element state of every array (delay lines, line
    /// buffers). Fix-point analyses need this: a value propagates
    /// through a delay line one slot per activation without touching
    /// any expression until it reaches a read index, so expression
    /// state alone cannot witness convergence.
    pub fn array_state(&self) -> &[Vec<S::Value>] {
        &self.arrays
    }

    /// The current value of every scalar variable (see
    /// [`array_state`](Self::array_state) for why fix-point analyses
    /// need raw state: variables persist across activations too).
    pub fn var_state(&self) -> &[S::Value] {
        &self.vars
    }

    /// Runs the kernel over `inputs[i][n]` (input `i`, activation `n`) and
    /// returns `outputs[o][n]` as `f64` via [`Semantics::to_f64`].
    ///
    /// # Panics
    ///
    /// Panics if the number of input streams does not match the kernel's
    /// declarations or the streams have unequal lengths.
    pub fn run(&mut self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(
            inputs.len(),
            self.kernel.inputs().len(),
            "kernel `{}` expects {} input stream(s)",
            self.kernel.name(),
            self.kernel.inputs().len()
        );
        let n = inputs.first().map_or(0, |v| v.len());
        assert!(
            inputs.iter().all(|v| v.len() == n),
            "all input streams must have the same length"
        );
        let mut out = vec![Vec::with_capacity(n); self.kernel.outputs().len()];
        let mut sample = vec![0.0; inputs.len()];
        for a in 0..n {
            for (i, s) in inputs.iter().enumerate() {
                sample[i] = s[a];
            }
            let vals = self.step(&sample);
            for (o, v) in vals.into_iter().enumerate() {
                out[o].push(v);
            }
        }
        out
    }

    /// Executes a single activation with the given input values and returns
    /// the output values as `f64`.
    pub fn step(&mut self, input_vals: &[f64]) -> Vec<f64> {
        self.epoch = self.epoch.wrapping_add(1);
        let body: &[Stmt] = self.kernel.body();
        self.exec_stmts(body, input_vals);
        let res = self.outputs.iter().map(|&v| self.sem.to_f64(v)).collect();
        self.activation += 1;
        res
    }

    /// Resets arrays, variables and counters to the initial state.
    pub fn reset(&mut self) {
        for arr in &mut self.arrays {
            for v in arr.iter_mut() {
                *v = self.sem.zero();
            }
        }
        for v in &mut self.vars {
            *v = self.sem.zero();
        }
        self.activation = 0;
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], input_vals: &[f64]) {
        for s in stmts {
            match s {
                Stmt::Assign(v, e) => {
                    let val = self.eval(*e, input_vals);
                    self.vars[v.index()] = val;
                }
                Stmt::Store(a, ix, e) => {
                    let val = self.eval(*e, input_vals);
                    let val = self.sem.store(*a, val);
                    let idx = self.resolve_index(ix, a.index());
                    self.arrays[a.index()][idx] = val;
                }
                Stmt::ShiftIn(a, e) => {
                    let val = self.eval(*e, input_vals);
                    let val = self.sem.store(*a, val);
                    let arr = &mut self.arrays[a.index()];
                    for i in (1..arr.len()).rev() {
                        arr[i] = arr[i - 1];
                    }
                    arr[0] = val;
                }
                Stmt::Output(idx, e) => {
                    let val = self.eval(*e, input_vals);
                    self.outputs[*idx] = val;
                }
                Stmt::For { var, count, body } => {
                    for trip in 0..*count {
                        self.loop_env.insert(*var, trip as i64);
                        self.exec_stmts(body, input_vals);
                    }
                    self.loop_env.remove(var);
                }
            }
        }
    }

    fn ctx(&mut self, e: ExprId) -> ExecCtx {
        let slot = &mut self.exec_counts[e.index()];
        if slot.0 != self.epoch {
            *slot = (self.epoch, 0);
        }
        let exec = slot.1;
        slot.1 += 1;
        ExecCtx {
            activation: self.activation,
            exec,
        }
    }

    fn index_env(&self, ix: &crate::types::IndexExpr) -> i64 {
        ix.eval(&|l| self.loop_env.get(&l).copied().unwrap_or(0))
    }

    fn resolve_index(&self, ix: &crate::types::IndexExpr, array: usize) -> usize {
        let len = self.arrays[array].len() as i64;
        self.index_env(ix).rem_euclid(len) as usize
    }

    fn eval(&mut self, e: ExprId, input_vals: &[f64]) -> S::Value {
        let kernel = self.kernel;
        match kernel.expr(e) {
            ExprNode::Const(v) => {
                let v = *v;
                let ctx = self.ctx(e);
                self.sem.constant(ctx, e, v)
            }
            ExprNode::ReadVar(v) => {
                let val = self.vars[v.index()];
                let ctx = self.ctx(e);
                self.sem.var_use(ctx, e, val)
            }
            ExprNode::ReadInput(i) => {
                let i = *i;
                let ctx = self.ctx(e);
                self.sem.input(ctx, e, i, input_vals[i.index()])
            }
            ExprNode::LoadParam(p, ix) => {
                let p = *p;
                let idx = self.index_env(ix);
                let raw = kernel.param_value(p, idx);
                let ctx = self.ctx(e);
                self.sem.param(ctx, e, p, idx, raw)
            }
            ExprNode::LoadArray(a, ix) => {
                let idx = self.resolve_index(ix, a.index());
                let stored = self.arrays[a.index()][idx];
                let ctx = self.ctx(e);
                self.sem.load(ctx, e, stored)
            }
            ExprNode::Unary(op, a) => {
                let (op, a) = (*op, *a);
                let av = self.eval(a, input_vals);
                let ctx = self.ctx(e);
                self.sem.un(ctx, e, op, av)
            }
            ExprNode::Bin(op, a, b) => {
                let (op, a, b) = (*op, *a, *b);
                let av = self.eval(a, input_vals);
                let bv = self.eval(b, input_vals);
                let ctx = self.ctx(e);
                self.sem.bin(ctx, e, op, av, bv)
            }
        }
    }
}

/// One pending impulse of the batched multi-impulse executor: `amount`
/// is added to the value `target` produces at execution instance
/// (`activation`, `exec`) — or at *every* execution when both are
/// `u32::MAX`, the always-on mode coefficient-sensitivity measurement
/// uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpulseChannel {
    /// Expression whose value receives the impulse.
    pub target: ExprId,
    /// Activation index the impulse fires in (`u32::MAX` = every).
    pub activation: u32,
    /// Execution instance within the activation (`u32::MAX` = every).
    pub exec: u32,
    /// Offset added to the targeted value.
    pub amount: f64,
}

/// Channel-parallel float executor: one simulation sweep carries a lane
/// of state per [`ImpulseChannel`], in structure-of-arrays layout
/// (`state[elem * lanes + lane]`).
///
/// The kernel is compiled once into a linear **tape** — control flow is
/// static, so loops unroll into a fixed entry sequence with array
/// indices, parameter values and execution-instance ids resolved at
/// build time. Each [`step`](Self::step) replays the tape: per-node
/// arithmetic runs lane by lane on contiguous `f64` rows of a value
/// stack, performing exactly the floating-point operation sequence of a
/// solo [`Executor`] run under an impulse-injecting semantics. Per-lane
/// results are therefore **bitwise identical** to solo runs, at a
/// fraction of the interpreter overhead.
///
/// A lane's values can deviate from the impulse-free baseline only where
/// an impulse was injected and only downstream of it — its source's
/// influence *cone*. The executor exploits that sparsity dynamically:
/// every value row and state element carries the contiguous lane range
/// (*deviation hull*) that may differ from the baseline, seeded by the
/// injected impulses, widened through operators, and narrowed again when
/// state is overwritten by baseline-valued data. One scalar **baseline
/// lane** runs the same operation sequence impulse-free; lanes outside a
/// hull are never computed or stored — they are, bitwise, the baseline
/// value — which keeps the restricted sweep bitwise identical to a dense
/// one while doing work proportional to actual deviations. Sorting
/// channels so that lanes with overlapping cones sit next to each other
/// keeps the hulls tight.
///
/// Lanes whose response has died out are retired with
/// [`retain`](Self::retain); the survivors are compacted so inner loops
/// stay dense.
#[derive(Debug)]
pub struct BatchExecutor<'k> {
    kernel: std::marker::PhantomData<&'k Kernel>,
    /// Live channels, parallel to lanes.
    channels: Vec<ImpulseChannel>,
    /// Original channel index of each live lane.
    ids: Vec<usize>,
    tape: Vec<TapeEntry>,
    arrays: Vec<Vec<f64>>,
    vars: Vec<f64>,
    outputs: Vec<f64>,
    /// Baseline (impulse-free) state: one scalar per state element.
    arrays_base: Vec<Vec<f64>>,
    vars_base: Vec<f64>,
    outputs_base: Vec<f64>,
    /// Lane range `[lo, hi)` the element's last writer actually stored;
    /// every lane outside it is baseline-valued (the row slots there may
    /// be stale and are never read). Empty at the zeroed initial state.
    arrays_hull: Vec<Vec<(u32, u32)>>,
    vars_hull: Vec<(u32, u32)>,
    /// Evaluation value stack: `max_stack` rows of `lanes` values.
    stack: Vec<f64>,
    base_stack: Vec<f64>,
    /// Deviation hull of each live stack row (scratch, parallel to the
    /// stack rows).
    slot_hull: Vec<(u32, u32)>,
    /// Lanes targeting each expression (indexed by `ExprId::index`).
    by_expr: Vec<Vec<usize>>,
    activation: u32,
}

/// One tape entry: an expression evaluation (pushes a row) or a
/// statement effect (pops the root row into state).
#[derive(Debug, Clone, Copy)]
struct TapeEntry {
    op: TapeOp,
    /// Arena index of the expression this entry evaluates (for value
    /// entries) or of the statement's root value (for state entries).
    expr: u32,
    /// Execution instance of `expr` within one activation.
    exec: u32,
    /// Some channel targets `expr` (kept in sync with the live channel
    /// set, so the common no-impulse entry skips the lookup).
    poke: bool,
}

#[derive(Debug, Clone, Copy)]
enum TapeOp {
    Const(f64),
    ReadVar(u32),
    ReadInput(u32),
    /// Parameter value, resolved at tape-build time.
    LoadParam(f64),
    /// Array and element index, resolved at tape-build time.
    LoadArray(u32, u32),
    Neg,
    Bin(BinOp),
    /// Fused `Bin` + `AssignVar`: the result row is computed straight
    /// into the variable's state row.
    BinAssign(BinOp, u32),
    /// Fused `v = op(ReadVar(v), b)` (the accumulator pattern): operand
    /// `a` is the variable's own state row, updated in place — the read
    /// copy disappears entirely.
    AccumVar(BinOp, u32),
    AssignVar(u32),
    StoreArr(u32, u32),
    ShiftInArr(u32),
    SetOut(u32),
}

struct Tape {
    entries: Vec<TapeEntry>,
    max_stack: usize,
}

/// Flattens the kernel into a tape: loops are unrolled, indices and
/// parameter values resolved, and per-expression execution-instance ids
/// assigned exactly as the epoch counters of a solo run would.
///
/// `poked[e]` flags expressions some impulse channel targets; fusions
/// that would drop an expression's tape entry are suppressed for them
/// (the entry is where the impulse is injected).
fn build_tape(kernel: &Kernel, poked: &[bool]) -> Tape {
    struct B<'a> {
        kernel: &'a Kernel,
        poked: &'a [bool],
        env: HashMap<LoopId, i64>,
        counts: Vec<u32>,
        entries: Vec<TapeEntry>,
        sp: usize,
        max_sp: usize,
    }
    impl B<'_> {
        fn index(&self, ix: &crate::types::IndexExpr) -> i64 {
            ix.eval(&|l| self.env.get(&l).copied().unwrap_or(0))
        }
        fn value(&mut self, op: TapeOp, e: ExprId, pushes: bool) {
            let exec = self.counts[e.index()];
            self.counts[e.index()] += 1;
            self.entries.push(TapeEntry {
                op,
                expr: e.index() as u32,
                exec,
                poke: false,
            });
            if pushes {
                self.sp += 1;
                self.max_sp = self.max_sp.max(self.sp);
            }
        }
        fn tree(&mut self, e: ExprId) {
            match self.kernel.expr(e) {
                ExprNode::Const(v) => self.value(TapeOp::Const(*v), e, true),
                ExprNode::ReadVar(v) => self.value(TapeOp::ReadVar(v.index() as u32), e, true),
                ExprNode::ReadInput(i) => self.value(TapeOp::ReadInput(i.index() as u32), e, true),
                ExprNode::LoadParam(p, ix) => {
                    let raw = self.kernel.param_value(*p, self.index(ix));
                    self.value(TapeOp::LoadParam(raw), e, true);
                }
                ExprNode::LoadArray(a, ix) => {
                    let len = self.kernel.arrays()[a.index()].len as i64;
                    let idx = self.index(ix).rem_euclid(len) as u32;
                    self.value(TapeOp::LoadArray(a.index() as u32, idx), e, true);
                }
                ExprNode::Unary(UnOp::Neg, a) => {
                    let a = *a;
                    self.tree(a);
                    self.value(TapeOp::Neg, e, false);
                }
                ExprNode::Bin(op, a, b) => {
                    let (op, a, b) = (*op, *a, *b);
                    self.tree(a);
                    self.tree(b);
                    self.value(TapeOp::Bin(op), e, false);
                    self.sp -= 1;
                }
            }
        }
        fn root(&mut self, op: TapeOp, e: ExprId) {
            self.entries.push(TapeEntry {
                op,
                expr: e.index() as u32,
                exec: 0,
                poke: false,
            });
            self.sp -= 1;
        }
        fn stmts(&mut self, stmts: &[Stmt]) {
            for s in stmts {
                match s {
                    Stmt::Assign(v, e) => {
                        // Accumulator fusion: `v = op(v, b)` evaluates in
                        // place on the variable's state row, skipping the
                        // read copy. The read's tape entry disappears, so
                        // only fuse when no impulse targets it (variable
                        // reads never produce noise, so in practice
                        // always).
                        if let ExprNode::Bin(op, a, bx) = self.kernel.expr(*e) {
                            if let ExprNode::ReadVar(av) = self.kernel.expr(*a) {
                                if av == v && !self.poked[a.index()] {
                                    let (op, bx) = (*op, *bx);
                                    self.tree(bx);
                                    self.value(TapeOp::AccumVar(op, v.index() as u32), *e, false);
                                    self.sp -= 1;
                                    continue;
                                }
                            }
                        }
                        self.tree(*e);
                        // Peephole: a binary root writes its result row
                        // straight into the variable state.
                        let last = self.entries.last_mut().expect("tree emits entries");
                        if let TapeOp::Bin(op) = last.op {
                            last.op = TapeOp::BinAssign(op, v.index() as u32);
                            self.sp -= 1;
                        } else {
                            self.root(TapeOp::AssignVar(v.index() as u32), *e);
                        }
                    }
                    Stmt::Store(a, ix, e) => {
                        let len = self.kernel.arrays()[a.index()].len as i64;
                        let idx = self.index(ix).rem_euclid(len) as u32;
                        self.tree(*e);
                        self.root(TapeOp::StoreArr(a.index() as u32, idx), *e);
                    }
                    Stmt::ShiftIn(a, e) => {
                        self.tree(*e);
                        self.root(TapeOp::ShiftInArr(a.index() as u32), *e);
                    }
                    Stmt::Output(o, e) => {
                        self.tree(*e);
                        self.root(TapeOp::SetOut(*o as u32), *e);
                    }
                    Stmt::For { var, count, body } => {
                        for trip in 0..*count {
                            self.env.insert(*var, trip as i64);
                            self.stmts(body);
                        }
                        self.env.remove(var);
                    }
                }
            }
        }
    }
    let mut b = B {
        kernel,
        poked,
        env: HashMap::new(),
        counts: vec![0; kernel.expr_count()],
        entries: Vec::new(),
        sp: 0,
        max_sp: 0,
    };
    b.stmts(kernel.body());
    debug_assert_eq!(b.sp, 0);
    Tape {
        entries: b.entries,
        max_stack: b.max_sp,
    }
}

/// Applies a binary operation lane-wise over the union span of the two
/// operands' deviation hulls, reading lanes outside an operand's hull
/// from its baseline scalar, writing the result in place over `a`'s row.
/// Returns the result's deviation hull. Lanes in the span covered by
/// neither hull compute `f(abase, bbase)` — exactly the result baseline,
/// so the returned (convex) hull stays sound.
#[inline]
fn seg_bin_inplace(
    a: &mut [f64],
    ah: (u32, u32),
    abase: f64,
    b: &[f64],
    bh: (u32, u32),
    bbase: f64,
    f: impl Fn(f64, f64) -> f64,
) -> (u32, u32) {
    let a_empty = ah.0 >= ah.1;
    let b_empty = bh.0 >= bh.1;
    if a_empty && b_empty {
        return (0, 0);
    }
    if a_empty {
        for i in bh.0 as usize..bh.1 as usize {
            a[i] = f(abase, b[i]);
        }
        return bh;
    }
    if b_empty {
        for x in &mut a[ah.0 as usize..ah.1 as usize] {
            *x = f(*x, bbase);
        }
        return ah;
    }
    if ah == bh {
        for i in ah.0 as usize..ah.1 as usize {
            a[i] = f(a[i], b[i]);
        }
        return ah;
    }
    let lo = ah.0.min(bh.0);
    let hi = ah.1.max(bh.1);
    for i in lo as usize..hi as usize {
        let x = if (i as u32) >= ah.0 && (i as u32) < ah.1 {
            a[i]
        } else {
            abase
        };
        let y = if (i as u32) >= bh.0 && (i as u32) < bh.1 {
            b[i]
        } else {
            bbase
        };
        a[i] = f(x, y);
    }
    (lo, hi)
}

/// [`seg_bin_inplace`] writing into a separate destination row (a state
/// row for the fused assign forms).
#[inline]
#[allow(clippy::too_many_arguments)]
fn seg_bin_to(
    dst: &mut [f64],
    a: &[f64],
    ah: (u32, u32),
    abase: f64,
    b: &[f64],
    bh: (u32, u32),
    bbase: f64,
    f: impl Fn(f64, f64) -> f64,
) -> (u32, u32) {
    let a_empty = ah.0 >= ah.1;
    let b_empty = bh.0 >= bh.1;
    if a_empty && b_empty {
        return (0, 0);
    }
    let lo = if a_empty {
        bh.0
    } else if b_empty {
        ah.0
    } else {
        ah.0.min(bh.0)
    };
    let hi = if a_empty {
        bh.1
    } else if b_empty {
        ah.1
    } else {
        ah.1.max(bh.1)
    };
    if ah == (lo, hi) && bh == (lo, hi) {
        for i in lo as usize..hi as usize {
            dst[i] = f(a[i], b[i]);
        }
        return (lo, hi);
    }
    for i in lo as usize..hi as usize {
        let x = if (i as u32) >= ah.0 && (i as u32) < ah.1 {
            a[i]
        } else {
            abase
        };
        let y = if (i as u32) >= bh.0 && (i as u32) < bh.1 {
            b[i]
        } else {
            bbase
        };
        dst[i] = f(x, y);
    }
    (lo, hi)
}

/// Applies the matching impulses of `lanes` to `row`, materialising any
/// poked lane outside the current deviation hull (gap lanes are filled
/// with the baseline they provably hold). Returns the widened hull —
/// the batched equivalent of the solo impulse semantics' per-value poke.
#[inline]
fn poke_lanes(
    lanes: &[usize],
    channels: &[ImpulseChannel],
    activation: u32,
    exec: u32,
    row: &mut [f64],
    mut h: (u32, u32),
    base: f64,
) -> (u32, u32) {
    for &lane in lanes {
        let ch = &channels[lane];
        let always = ch.exec == u32::MAX && ch.activation == u32::MAX;
        if always || (exec == ch.exec && activation == ch.activation) {
            let p = lane as u32;
            if h.0 >= h.1 {
                row[lane] = base;
                h = (p, p + 1);
            } else if p < h.0 {
                row[lane..h.0 as usize].fill(base);
                h.0 = p;
            } else if p >= h.1 {
                row[h.1 as usize..=lane].fill(base);
                h.1 = p + 1;
            }
            row[lane] += ch.amount;
        }
    }
    h
}

/// Writes a popped root row into a full state row: hull lanes from the
/// row, everything else (provably baseline-valued) from the scalar.
#[inline]
fn write_state(dst: &mut [f64], row: &[f64], base: f64, own: (u32, u32)) {
    let (olo, ohi) = (own.0 as usize, own.1 as usize);
    dst[..olo].fill(base);
    dst[olo..ohi].copy_from_slice(&row[olo..ohi]);
    dst[ohi..].fill(base);
}

impl<'k> BatchExecutor<'k> {
    /// Creates a batch executor with zeroed state, one lane per channel.
    pub fn new(kernel: &'k Kernel, channels: Vec<ImpulseChannel>) -> Self {
        let l = channels.len();
        let mut poked = vec![false; kernel.expr_count()];
        for ch in &channels {
            poked[ch.target.index()] = true;
        }
        let tape = build_tape(kernel, &poked);
        let mut ex = BatchExecutor {
            kernel: std::marker::PhantomData,
            channels,
            ids: (0..l).collect(),
            arrays: kernel
                .arrays()
                .iter()
                .map(|a| vec![0.0; a.len * l])
                .collect(),
            vars: vec![0.0; kernel.vars().len() * l],
            outputs: vec![0.0; kernel.outputs().len() * l],
            arrays_base: kernel.arrays().iter().map(|a| vec![0.0; a.len]).collect(),
            vars_base: vec![0.0; kernel.vars().len()],
            outputs_base: vec![0.0; kernel.outputs().len()],
            arrays_hull: kernel
                .arrays()
                .iter()
                .map(|a| vec![(0, 0); a.len])
                .collect(),
            vars_hull: vec![(0, 0); kernel.vars().len()],
            stack: vec![0.0; tape.max_stack * l],
            base_stack: vec![0.0; tape.max_stack],
            slot_hull: vec![(0, 0); tape.max_stack],
            tape: tape.entries,
            by_expr: vec![Vec::new(); kernel.expr_count()],
            activation: 0,
        };
        ex.rebuild_by_expr();
        ex
    }

    /// Number of live lanes.
    pub fn lanes(&self) -> usize {
        self.ids.len()
    }

    /// Original channel index of each live lane.
    pub fn channel_ids(&self) -> &[usize] {
        &self.ids
    }

    /// Output values after the last [`step`](Self::step), laid out
    /// `outputs[output * lanes + lane]`.
    pub fn outputs(&self) -> &[f64] {
        &self.outputs
    }

    /// Baseline (impulse-free) output values after the last step — the
    /// trajectory a solo [`Executor`] fed the same inputs produces,
    /// bitwise.
    pub fn outputs_base(&self) -> &[f64] {
        &self.outputs_base
    }

    /// Retires lanes with `keep[lane] == false` and compacts the state
    /// so the surviving lanes stay contiguous.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.ids.len());
        let old = self.ids.len();
        let kept: Vec<usize> = (0..old).filter(|&i| keep[i]).collect();
        if kept.len() == old {
            return;
        }
        compact_lanes(&mut self.vars, old, &kept);
        compact_lanes(&mut self.outputs, old, &kept);
        for arr in &mut self.arrays {
            compact_lanes(arr, old, &kept);
        }
        // Kept lanes inside a stored write hull stay contiguous after
        // compaction; remap each hull by rank (kept lanes below bound).
        let mut rank = vec![0u32; old + 1];
        for i in 0..old {
            rank[i + 1] = rank[i] + keep[i] as u32;
        }
        for h in &mut self.vars_hull {
            *h = (rank[h.0 as usize], rank[h.1 as usize]);
        }
        for hulls in &mut self.arrays_hull {
            for h in hulls {
                *h = (rank[h.0 as usize], rank[h.1 as usize]);
            }
        }
        self.channels = kept.iter().map(|&i| self.channels[i]).collect();
        self.ids = kept.iter().map(|&i| self.ids[i]).collect();
        self.rebuild_by_expr();
    }

    fn rebuild_by_expr(&mut self) {
        for v in &mut self.by_expr {
            v.clear();
        }
        for (lane, ch) in self.channels.iter().enumerate() {
            self.by_expr[ch.target.index()].push(lane);
        }
        for en in &mut self.tape {
            en.poke = !self.by_expr[en.expr as usize].is_empty();
        }
    }

    /// Executes one activation with the given input values (shared by
    /// all lanes; only the injected impulses differ per lane).
    ///
    /// Every value row carries its deviation hull on `slot_hull`: the
    /// contiguous lane range that may differ from the baseline scalar.
    /// Lanes outside a hull hold the baseline bitwise (the row slots
    /// there are stale and never read), so each entry touches only the
    /// lanes an impulse actually reaches.
    pub fn step(&mut self, input_vals: &[f64]) {
        let l = self.ids.len();
        let mut stack = std::mem::take(&mut self.stack);
        let mut bstack = std::mem::take(&mut self.base_stack);
        let mut shull = std::mem::take(&mut self.slot_hull);
        let mut sp = 0usize;
        for ti in 0..self.tape.len() {
            let en = self.tape[ti];
            let eix = en.expr as usize;
            match en.op {
                TapeOp::Const(_) | TapeOp::ReadInput(_) | TapeOp::LoadParam(_) => {
                    let v = match en.op {
                        TapeOp::Const(c) => c,
                        TapeOp::ReadInput(i) => input_vals[i as usize],
                        TapeOp::LoadParam(r) => r,
                        _ => unreachable!(),
                    };
                    bstack[sp] = v;
                    // A leaf deviates from its baseline only where poked.
                    shull[sp] = if en.poke {
                        let row = &mut stack[sp * l..sp * l + l];
                        poke_lanes(
                            &self.by_expr[eix],
                            &self.channels,
                            self.activation,
                            en.exec,
                            row,
                            (0, 0),
                            v,
                        )
                    } else {
                        (0, 0)
                    };
                    sp += 1;
                }
                TapeOp::ReadVar(v) => {
                    let v = v as usize;
                    let base = self.vars_base[v];
                    bstack[sp] = base;
                    let h = self.vars_hull[v];
                    if h.0 < h.1 {
                        let (lo, hi) = (h.0 as usize, h.1 as usize);
                        stack[sp * l + lo..sp * l + hi]
                            .copy_from_slice(&self.vars[v * l + lo..v * l + hi]);
                    }
                    // Variable reads pass through unchanged (no poke):
                    // the solo impulse semantics never perturbs `var_use`.
                    shull[sp] = h;
                    sp += 1;
                }
                TapeOp::LoadArray(a, elem) => {
                    let (a, elem) = (a as usize, elem as usize);
                    let base = self.arrays_base[a][elem];
                    bstack[sp] = base;
                    let mut h = self.arrays_hull[a][elem];
                    if h.0 < h.1 {
                        let (lo, hi) = (h.0 as usize, h.1 as usize);
                        stack[sp * l + lo..sp * l + hi]
                            .copy_from_slice(&self.arrays[a][elem * l + lo..elem * l + hi]);
                    }
                    if en.poke {
                        h = poke_lanes(
                            &self.by_expr[eix],
                            &self.channels,
                            self.activation,
                            en.exec,
                            &mut stack[sp * l..sp * l + l],
                            h,
                            base,
                        );
                    }
                    shull[sp] = h;
                    sp += 1;
                }
                TapeOp::Neg => {
                    let h = shull[sp - 1];
                    let row = &mut stack[(sp - 1) * l..(sp - 1) * l + l];
                    for x in &mut row[h.0 as usize..h.1 as usize] {
                        *x = -*x;
                    }
                    let base = -bstack[sp - 1];
                    bstack[sp - 1] = base;
                    shull[sp - 1] = if en.poke {
                        poke_lanes(
                            &self.by_expr[eix],
                            &self.channels,
                            self.activation,
                            en.exec,
                            row,
                            h,
                            base,
                        )
                    } else {
                        h
                    };
                }
                TapeOp::Bin(op) => {
                    let (head, tail) = stack.split_at_mut((sp - 1) * l);
                    let arow = &mut head[(sp - 2) * l..(sp - 2) * l + l];
                    let brow = &tail[..l];
                    let (ah, bh) = (shull[sp - 2], shull[sp - 1]);
                    let (abase, bbase) = (bstack[sp - 2], bstack[sp - 1]);
                    let h = match op {
                        BinOp::Add => {
                            seg_bin_inplace(arow, ah, abase, brow, bh, bbase, |x, y| x + y)
                        }
                        BinOp::Sub => {
                            seg_bin_inplace(arow, ah, abase, brow, bh, bbase, |x, y| x - y)
                        }
                        BinOp::Mul => {
                            seg_bin_inplace(arow, ah, abase, brow, bh, bbase, |x, y| x * y)
                        }
                    };
                    let base = match op {
                        BinOp::Add => abase + bbase,
                        BinOp::Sub => abase - bbase,
                        BinOp::Mul => abase * bbase,
                    };
                    bstack[sp - 2] = base;
                    shull[sp - 2] = if en.poke {
                        poke_lanes(
                            &self.by_expr[eix],
                            &self.channels,
                            self.activation,
                            en.exec,
                            arow,
                            h,
                            base,
                        )
                    } else {
                        h
                    };
                    sp -= 1;
                }
                TapeOp::BinAssign(op, v) => {
                    let v = v as usize;
                    let arow = &stack[(sp - 2) * l..(sp - 2) * l + l];
                    let brow = &stack[(sp - 1) * l..(sp - 1) * l + l];
                    let (ah, bh) = (shull[sp - 2], shull[sp - 1]);
                    let (abase, bbase) = (bstack[sp - 2], bstack[sp - 1]);
                    let vrow = &mut self.vars[v * l..v * l + l];
                    let h = match op {
                        BinOp::Add => {
                            seg_bin_to(vrow, arow, ah, abase, brow, bh, bbase, |x, y| x + y)
                        }
                        BinOp::Sub => {
                            seg_bin_to(vrow, arow, ah, abase, brow, bh, bbase, |x, y| x - y)
                        }
                        BinOp::Mul => {
                            seg_bin_to(vrow, arow, ah, abase, brow, bh, bbase, |x, y| x * y)
                        }
                    };
                    let base = match op {
                        BinOp::Add => abase + bbase,
                        BinOp::Sub => abase - bbase,
                        BinOp::Mul => abase * bbase,
                    };
                    self.vars_base[v] = base;
                    self.vars_hull[v] = if en.poke {
                        poke_lanes(
                            &self.by_expr[eix],
                            &self.channels,
                            self.activation,
                            en.exec,
                            vrow,
                            h,
                            base,
                        )
                    } else {
                        h
                    };
                    sp -= 2;
                }
                TapeOp::AccumVar(op, v) => {
                    let v = v as usize;
                    let brow = &stack[(sp - 1) * l..(sp - 1) * l + l];
                    let bh = shull[sp - 1];
                    let bbase = bstack[sp - 1];
                    let vh = self.vars_hull[v];
                    let vbase = self.vars_base[v];
                    let vrow = &mut self.vars[v * l..v * l + l];
                    let h = match op {
                        BinOp::Add => {
                            seg_bin_inplace(vrow, vh, vbase, brow, bh, bbase, |x, y| x + y)
                        }
                        BinOp::Sub => {
                            seg_bin_inplace(vrow, vh, vbase, brow, bh, bbase, |x, y| x - y)
                        }
                        BinOp::Mul => {
                            seg_bin_inplace(vrow, vh, vbase, brow, bh, bbase, |x, y| x * y)
                        }
                    };
                    let base = match op {
                        BinOp::Add => vbase + bbase,
                        BinOp::Sub => vbase - bbase,
                        BinOp::Mul => vbase * bbase,
                    };
                    self.vars_base[v] = base;
                    self.vars_hull[v] = if en.poke {
                        poke_lanes(
                            &self.by_expr[eix],
                            &self.channels,
                            self.activation,
                            en.exec,
                            vrow,
                            h,
                            base,
                        )
                    } else {
                        h
                    };
                    sp -= 1;
                }
                TapeOp::AssignVar(v) => {
                    let v = v as usize;
                    let h = shull[sp - 1];
                    self.vars_base[v] = bstack[sp - 1];
                    self.vars_hull[v] = h;
                    let (lo, hi) = (h.0 as usize, h.1 as usize);
                    if lo < hi {
                        let row = &stack[(sp - 1) * l..(sp - 1) * l + l];
                        self.vars[v * l + lo..v * l + hi].copy_from_slice(&row[lo..hi]);
                    }
                    sp -= 1;
                }
                TapeOp::StoreArr(a, elem) => {
                    let (a, elem) = (a as usize, elem as usize);
                    let h = shull[sp - 1];
                    self.arrays_base[a][elem] = bstack[sp - 1];
                    self.arrays_hull[a][elem] = h;
                    let (lo, hi) = (h.0 as usize, h.1 as usize);
                    if lo < hi {
                        let row = &stack[(sp - 1) * l..(sp - 1) * l + l];
                        self.arrays[a][elem * l + lo..elem * l + hi].copy_from_slice(&row[lo..hi]);
                    }
                    sp -= 1;
                }
                TapeOp::ShiftInArr(a) => {
                    let a = a as usize;
                    let own = shull[sp - 1];
                    let base = bstack[sp - 1];
                    let elems = self.arrays_base[a].len();
                    let arr = &mut self.arrays[a];
                    let ab = &mut self.arrays_base[a];
                    let ah = &mut self.arrays_hull[a];
                    for i in (1..elems).rev() {
                        ab[i] = ab[i - 1];
                        let h = ah[i - 1];
                        ah[i] = h;
                        if h.0 < h.1 {
                            let (lo, hi) = (h.0 as usize, h.1 as usize);
                            arr.copy_within((i - 1) * l + lo..(i - 1) * l + hi, i * l + lo);
                        }
                    }
                    if elems > 0 {
                        ab[0] = base;
                        ah[0] = own;
                        let (lo, hi) = (own.0 as usize, own.1 as usize);
                        if lo < hi {
                            let row = &stack[(sp - 1) * l..(sp - 1) * l + l];
                            arr[lo..hi].copy_from_slice(&row[lo..hi]);
                        }
                    }
                    sp -= 1;
                }
                TapeOp::SetOut(o) => {
                    let o = o as usize;
                    let own = shull[sp - 1];
                    let base = bstack[sp - 1];
                    self.outputs_base[o] = base;
                    let dst = &mut self.outputs[o * l..o * l + l];
                    if own.0 >= own.1 {
                        dst.fill(base);
                    } else {
                        let row = &stack[(sp - 1) * l..(sp - 1) * l + l];
                        write_state(dst, row, base, own);
                    }
                    sp -= 1;
                }
            }
        }
        self.stack = stack;
        self.base_stack = bstack;
        self.slot_hull = shull;
        self.activation += 1;
    }
}

/// Compacts a lane-major vector (`v[elem * old_lanes + lane]`) down to
/// the lanes listed in `kept`, in place.
fn compact_lanes(v: &mut Vec<f64>, old_lanes: usize, kept: &[usize]) {
    if old_lanes == 0 {
        return;
    }
    let elems = v.len() / old_lanes;
    let new_lanes = kept.len();
    for elem in 0..elems {
        for (ni, &oi) in kept.iter().enumerate() {
            v[elem * new_lanes + ni] = v[elem * old_lanes + oi];
        }
    }
    v.truncate(elems * new_lanes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::types::IndexExpr;

    /// y[n] = 0.5*x[n] + 0.25*x[n-1]
    fn two_tap() -> Kernel {
        let mut b = KernelBuilder::new("t");
        let x = b.input("x", -1.0, 1.0);
        let y = b.output("y");
        let dl = b.array("dl", 2);
        let xv = b.read_input(x);
        b.shift_in(dl, xv);
        let c0 = b.constf(0.5);
        let l0 = b.load(dl, 0);
        let m0 = b.mul(c0, l0);
        let c1 = b.constf(0.25);
        let l1 = b.load(dl, 1);
        let m1 = b.mul(c1, l1);
        let s = b.add(m0, m1);
        b.set_output(y, s);
        b.finish()
    }

    #[test]
    fn fir_semantics() {
        let k = two_tap();
        let mut ex = Executor::new(&k, FloatSem);
        let out = ex.run(&[vec![1.0, 0.0, 0.0, 2.0]]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], vec![0.5, 0.25, 0.0, 1.0]);
    }

    #[test]
    fn reset_clears_state() {
        let k = two_tap();
        let mut ex = Executor::new(&k, FloatSem);
        let a = ex.run(&[vec![1.0, 1.0]]);
        ex.reset();
        let b = ex.run(&[vec![1.0, 1.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn exec_counter_distinguishes_loop_trips() {
        // Count executions of the loop-body add across one activation.
        #[derive(Default)]
        struct Counting {
            max_exec: u32,
        }
        impl Semantics for Counting {
            type Value = f64;
            fn zero(&mut self) -> f64 {
                0.0
            }
            fn constant(&mut self, _c: ExecCtx, _e: ExprId, v: f64) -> f64 {
                v
            }
            fn input(&mut self, _c: ExecCtx, _e: ExprId, _i: InputId, raw: f64) -> f64 {
                raw
            }
            fn param(&mut self, _c: ExecCtx, _e: ExprId, _p: ParamId, _i: i64, raw: f64) -> f64 {
                raw
            }
            fn load(&mut self, _c: ExecCtx, _e: ExprId, stored: f64) -> f64 {
                stored
            }
            fn un(&mut self, _c: ExecCtx, _e: ExprId, _op: UnOp, a: f64) -> f64 {
                -a
            }
            fn bin(&mut self, c: ExecCtx, _e: ExprId, op: BinOp, a: f64, b: f64) -> f64 {
                if matches!(op, BinOp::Add) {
                    self.max_exec = self.max_exec.max(c.exec);
                }
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                }
            }
            fn to_f64(&self, v: f64) -> f64 {
                v
            }
        }

        let mut b = KernelBuilder::new("loop");
        let x = b.input("x", -1.0, 1.0);
        let y = b.output("y");
        let acc = b.var("acc");
        let z = b.constf(0.0);
        b.assign(acc, z);
        let i = b.begin_for(5);
        let av = b.read_var(acc);
        let xv = b.read_input(x);
        let s = b.add(av, xv);
        b.assign(acc, s);
        b.end_for(i);
        let r = b.read_var(acc);
        b.set_output(y, r);
        let k = b.finish();

        let mut ex = Executor::new(&k, Counting::default());
        let out = ex.run(&[vec![2.0]]);
        assert_eq!(out[0], vec![10.0]);
        assert_eq!(ex.semantics().max_exec, 4, "five executions, max index 4");
    }

    #[test]
    fn loop_env_indexes_arrays() {
        // for i in 0..4 { store a[i] = i-th const }; y = a[2]
        let mut b = KernelBuilder::new("ix");
        let y = b.output("y");
        let a = b.array("a", 4);
        let i = b.begin_for(4);
        // Store the loop counter by loading param table [0,1,2,3].
        let p = b.param("vals", vec![0.0, 1.0, 2.0, 3.0]);
        let pv = b.load_param_ix(p, IndexExpr::affine(i, 1, 0));
        b.store_ix(a, IndexExpr::affine(i, 1, 0), pv);
        b.end_for(i);
        let l = b.load(a, 2);
        b.set_output(y, l);
        let k = b.finish();
        let mut ex = Executor::new(&k, FloatSem);
        let out = ex.run(&[]);
        // Wait: no inputs declared, so run with empty slice and length 0
        // activations — use step instead.
        assert!(out[0].is_empty());
        let vals = ex.step(&[]);
        assert_eq!(vals, vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "input stream")]
    fn wrong_input_count_panics() {
        let k = two_tap();
        let mut ex = Executor::new(&k, FloatSem);
        let _ = ex.run(&[]);
    }

    /// The first expression of the given kind, for channel targeting.
    fn find_expr(k: &Kernel, pred: impl Fn(&ExprNode) -> bool) -> ExprId {
        k.exprs().find(|(_, n)| pred(n)).map(|(e, _)| e).unwrap()
    }

    #[test]
    fn zero_amount_batch_matches_float_reference() {
        let k = two_tap();
        let tgt = find_expr(&k, |n| matches!(n, ExprNode::Bin(BinOp::Add, _, _)));
        let chans = vec![
            ImpulseChannel {
                target: tgt,
                activation: 0,
                exec: 0,
                amount: 0.0,
            };
            3
        ];
        let mut batch = BatchExecutor::new(&k, chans);
        let mut solo = Executor::new(&k, FloatSem);
        for &x in &[1.0, 0.25, -0.5, 2.0] {
            batch.step(&[x]);
            let expect = solo.step(&[x]);
            let l = batch.lanes();
            for lane in 0..l {
                assert_eq!(batch.outputs()[lane].to_bits(), expect[0].to_bits());
            }
        }
    }

    #[test]
    fn batch_lanes_carry_independent_impulses() {
        let k = two_tap();
        let input = find_expr(&k, |n| matches!(n, ExprNode::ReadInput(_)));
        // Lane 0: impulse at activation 0; lane 1: at activation 1.
        let chans = (0..2u32)
            .map(|a| ImpulseChannel {
                target: input,
                activation: a,
                exec: 0,
                amount: 1.0,
            })
            .collect();
        let mut batch = BatchExecutor::new(&k, chans);
        // Zero input: each lane sees the FIR's impulse response shifted
        // by its activation.
        let mut seen = Vec::new();
        for _ in 0..4 {
            batch.step(&[0.0]);
            seen.push([batch.outputs()[0], batch.outputs()[1]]);
        }
        assert_eq!(seen[0], [0.5, 0.0]);
        assert_eq!(seen[1], [0.25, 0.5]);
        assert_eq!(seen[2], [0.0, 0.25]);
        assert_eq!(seen[3], [0.0, 0.0]);
    }

    #[test]
    fn retain_compacts_surviving_lanes() {
        let k = two_tap();
        let input = find_expr(&k, |n| matches!(n, ExprNode::ReadInput(_)));
        let chans = (0..3u32)
            .map(|a| ImpulseChannel {
                target: input,
                activation: a,
                exec: 0,
                amount: 1.0,
            })
            .collect();
        let mut batch = BatchExecutor::new(&k, chans);
        batch.step(&[0.0]);
        // Retire the middle lane; the survivors keep their trajectories.
        batch.retain(&[true, false, true]);
        assert_eq!(batch.lanes(), 2);
        assert_eq!(batch.channel_ids(), &[0, 2]);
        batch.step(&[0.0]);
        // Lane 0 (impulse at activation 0) is now at h[1] = 0.25; lane 2
        // (impulse at activation 2) has not fired yet.
        assert_eq!(batch.outputs()[0], 0.25);
        assert_eq!(batch.outputs()[1], 0.0);
        batch.step(&[0.0]);
        assert_eq!(batch.outputs()[1], 0.5, "lane 2 fires at activation 2");
    }
}
