//! Lowering to a machine program.
//!
//! Turns (kernel, fixed-point specification, SIMD groups) into per-block
//! operation lists with explicit dependences — the form the `slpwlo-sim`
//! VLIW cycle model, the `slpwlo-sim` bit-accurate interpreter and the C
//! back-ends all consume. This stage materialises everything the paper's
//! performance discussion hinges on:
//!
//! * **scaling operations** (alignment shifts) derived from the formats,
//! * **vectorized scalings** when all lanes shift by the same amount,
//!   versus the **unpack/shift/repack** sequence of fig. 2 when they do
//!   not,
//! * **pack/unpack** operations wherever operand superwords are not
//!   produced (or results not consumed) as superwords,
//! * vector loads for contiguous aligned access, gathers otherwise,
//! * the soft-float/hardware-float split for the original floating-point
//!   code (fig. 6's baseline).
//!
//! Every operation carries two views:
//!
//! * [`Mop::query`] — the abstract cost query answered by the target
//!   model (scheduling / cycle counting);
//! * [`Mop::kind`] — the executable semantics: which storage location is
//!   accessed, which operands flow in (previous results, quantized
//!   immediates, live-in variables), and the **absolute** fixed-point
//!   format every requantization lands on. The [`slpwlo-sim`]
//!   interpreter and the C back-ends are driven entirely by this view,
//!   so emitted code never has to invent undeclared symbols.

use crate::nodes::value_format;
use slpwlo_fixedpoint::quantize::{OverflowMode, QuantizeMode};
use slpwlo_fixedpoint::{FixedPointSpec, FxValue, QFormat, SpecKey};
use slpwlo_ir::blocks::{collect_blocks, Block};
use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use slpwlo_ir::kernel::Stmt;
use slpwlo_ir::types::{ArrayId, BinOp, IndexExpr, InputId, LoopId, ParamId, VarId};
use slpwlo_ir::Kernel;
use slpwlo_slp::{mem_status, resolve_producer, MemStatus, SimdGroup};
use slpwlo_targets::{OpQuery, TargetModel};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// The executable machine-program data model
// ---------------------------------------------------------------------------

/// A storage location addressed by a memory operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Loc {
    /// `array[index]` — a state-array element.
    Array(ArrayId, IndexExpr),
    /// `param[index]` — a coefficient-table element.
    Param(ParamId, IndexExpr),
}

/// A value operand of a machine operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// Result of an earlier operation in the same block.
    Op(usize),
    /// A compile-time constant, already quantized onto its grid.
    Imm {
        /// Raw two's-complement integer on the `fmt` grid.
        raw: i64,
        /// The constant's fixed-point format.
        fmt: QFormat,
    },
    /// Current value of a kernel variable at block entry (live-in).
    Var(VarId),
}

/// Executable semantics of one machine operation.
///
/// All formats are **absolute** targets: a requantization lands on `to`
/// no matter which grid its operand currently sits on, which is what
/// makes interpreter and generated C agree bit-for-bit with the
/// reference fixed-point simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum MopKind {
    /// Converts an incoming sample (f64) onto the `to` grid
    /// (truncation + saturation — the paper's input conversion site).
    ReadInput {
        /// Which input stream is read.
        input: InputId,
        /// Conversion target format.
        to: QFormat,
    },
    /// Scalar load; the value arrives on the location's storage format.
    Load {
        /// Accessed location.
        loc: Loc,
    },
    /// Scalar store: requantizes `src` to `to` (the storage format) and
    /// writes it.
    Store {
        /// Accessed location.
        loc: Loc,
        /// Stored value.
        src: Operand,
        /// Storage format of the location.
        to: QFormat,
    },
    /// Delay-line push: requantizes `src` to `to`, shifts the array by
    /// one and writes element 0.
    ShiftIn {
        /// The delay-line array.
        array: ArrayId,
        /// Pushed value.
        src: Operand,
        /// Storage format of the array.
        to: QFormat,
    },
    /// Emits the activation's value for an output.
    Output {
        /// Output index.
        index: usize,
        /// Emitted value.
        src: Operand,
    },
    /// Scalar arithmetic. Additive ops align both operands onto
    /// `to.fwl`, add exactly, and saturate to `to`. A multiply computes
    /// the exact product; `to = None` leaves it on its natural grid
    /// (a separate scaling op follows), `Some` requantizes in place.
    Bin {
        /// Operation.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Result format (`None` only for multiplies whose scaling is a
        /// separate operation).
        to: Option<QFormat>,
    },
    /// Scalar negation: negates exactly, then requantizes to `to`.
    Un {
        /// Operand.
        src: Operand,
        /// Result format.
        to: QFormat,
    },
    /// Explicit scaling: requantizes `src` onto `to` (truncation toward
    /// negative infinity, saturation at the format bounds).
    Requant {
        /// Operand.
        src: Operand,
        /// Target format.
        to: QFormat,
    },
    /// Value pass-through (realignment copies, the ALU half of a
    /// shift+negate pair).
    Copy {
        /// Operand.
        src: Operand,
    },
    /// No dataflow effect (pointer bookkeeping charged by the cost
    /// model).
    Nop,
    /// Vector load of one lane per location.
    VLoad {
        /// Per-lane locations (contiguous by construction).
        locs: Vec<Loc>,
    },
    /// Vector store: per lane, requantize to `to` and write.
    VStore {
        /// Per-lane locations.
        locs: Vec<Loc>,
        /// Stored superword.
        src: Operand,
        /// Storage format of the array.
        to: QFormat,
    },
    /// Lane-wise arithmetic; `to` as in [`MopKind::Bin`], per lane.
    VBin {
        /// Operation.
        op: BinOp,
        /// Left superword.
        a: Operand,
        /// Right superword.
        b: Operand,
        /// Per-lane result formats (`None` only for multiplies whose
        /// scaling follows separately).
        to: Option<Vec<QFormat>>,
    },
    /// Lane-wise negation then requantization to the per-lane formats.
    VUn {
        /// Operand superword.
        src: Operand,
        /// Per-lane result formats.
        to: Vec<QFormat>,
    },
    /// Lane-wise scaling: per-lane shift amounts (usually but not
    /// necessarily uniform — the vector shift macro takes one amount
    /// per lane) and per-lane saturation bounds. With `negate`, lanes
    /// are negated exactly before requantization (vectorized negation).
    VRequant {
        /// Operand superword.
        src: Operand,
        /// Per-lane target formats.
        to: Vec<QFormat>,
        /// Negate lanes before requantizing.
        negate: bool,
    },
    /// Builds a superword from scalar operands (lane 0 first).
    Pack {
        /// Lane values.
        lanes: Vec<Operand>,
    },
    /// Broadcasts one scalar into every lane.
    Splat {
        /// The scalar.
        src: Operand,
        /// Lane count.
        lanes: u32,
    },
    /// Extracts one lane as a scalar; optionally negates exactly and/or
    /// requantizes to `to` on the way out (fig. 2 lane scaling).
    Extract {
        /// Source superword.
        src: Operand,
        /// Lane index.
        lane: u32,
        /// Negate the extracted value.
        negate: bool,
        /// Requantization target, if any.
        to: Option<QFormat>,
    },
    /// Cost-model-only operation with no executable semantics
    /// (floating-point lowering).
    Opaque,
}

/// One machine operation with its dependence predecessors.
#[derive(Debug, Clone)]
pub struct Mop {
    /// Cost/class query answered by the target model.
    pub query: OpQuery,
    /// Indices of operations this one must wait for.
    pub preds: Vec<usize>,
    /// Executable semantics (see [`MopKind`]).
    pub kind: MopKind,
}

impl Mop {
    /// A cost-model-only operation without executable semantics.
    pub fn opaque(query: OpQuery, preds: Vec<usize>) -> Self {
        Mop {
            query,
            preds,
            kind: MopKind::Opaque,
        }
    }
}

/// A lowered basic block.
#[derive(Debug, Clone)]
pub struct MachineBlock {
    /// Operations in a valid topological order.
    pub ops: Vec<Mop>,
    /// Executions per kernel activation.
    pub trip: u64,
    /// Whether the block body sits inside a loop (loop control overhead
    /// applies per execution).
    pub in_loop: bool,
    /// Enclosing loops, outermost first, with trip counts; index
    /// expressions inside [`Loc`]s refer to these variables.
    pub loops: Vec<(LoopId, u32)>,
    /// Final per-variable definitions of the block, in first-definition
    /// order: after the ops execute, each variable takes the value of
    /// its operand (evaluated against this execution's results and the
    /// block-entry variable snapshot).
    pub var_defs: Vec<(VarId, Operand)>,
}

/// A quantized coefficient table of the program.
#[derive(Debug, Clone)]
pub struct ParamDecl {
    /// Source-level name.
    pub name: String,
    /// Storage format.
    pub fmt: QFormat,
    /// Values quantized onto `fmt` (round-half-up at compile time).
    pub raws: Vec<i64>,
}

/// A state array of the program.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Storage format.
    pub fmt: QFormat,
    /// Element count.
    pub len: usize,
}

/// A scalar variable of the program.
#[derive(Debug, Clone)]
pub struct VarDecl {
    /// Source-level name.
    pub name: String,
    /// Canonical storage format: covers the format of every definition,
    /// so storing any definition in it is an exact left alignment and
    /// all downstream requantizations agree bit-for-bit with the
    /// dynamic-format reference semantics.
    pub fmt: QFormat,
}

/// Everything a machine program owns besides its code: inputs, outputs,
/// quantized coefficient storage, state arrays and variables. Makes the
/// program a self-contained executable artifact for the interpreter and
/// the C back-ends.
#[derive(Debug, Clone, Default)]
pub struct ProgramStorage {
    /// Input stream names, in declaration order.
    pub inputs: Vec<String>,
    /// Output names, in declaration order.
    pub outputs: Vec<String>,
    /// Coefficient tables.
    pub params: Vec<ParamDecl>,
    /// State arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Scalar variables.
    pub vars: Vec<VarDecl>,
}

impl ProgramStorage {
    /// Storage format of a location.
    pub fn loc_fmt(&self, loc: &Loc) -> QFormat {
        match loc {
            Loc::Array(a, _) => self.arrays[a.index()].fmt,
            Loc::Param(p, _) => self.params[p.index()].fmt,
        }
    }
}

/// A lowered kernel.
#[derive(Debug, Clone)]
pub struct MachineProgram {
    /// Kernel name, for reports.
    pub name: String,
    /// Lowered blocks, in document (execution) order.
    pub blocks: Vec<MachineBlock>,
    /// The program's storage declarations.
    pub storage: ProgramStorage,
}

impl MachineProgram {
    /// Total operation count over one activation (trip-weighted).
    pub fn ops_per_activation(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.ops.len() as u64 * b.trip)
            .sum()
    }
}

/// A wide-integer-range format on the `2^-fwl` grid: alignment shifts
/// land here, where saturation is unreachable for any value a lowered
/// program produces (pre-alignment before an addition never overflows —
/// truncation cannot grow a value's magnitude).
pub fn align_fmt(fwl: i32) -> QFormat {
    QFormat::new(62 - fwl, fwl)
}

/// Joins two formats into the finest common cover.
fn join_fmt(a: QFormat, b: QFormat) -> QFormat {
    let mut iwl = a.iwl.max(b.iwl);
    let fwl = a.fwl.max(b.fwl);
    // Keep raw values representable in 63 bits; the integer range is
    // bookkeeping only (variable stores never saturate).
    if iwl + fwl > 62 {
        iwl = 62 - fwl;
    }
    QFormat::new(iwl, fwl)
}

/// Format of an *unrequantized* product of two operand formats: the
/// true integer width `a.iwl + b.iwl`, with the fractional length
/// capped so the whole format fits a 62-bit container. When the cap
/// bites (two covering variable formats can multiply past 64 bits),
/// every backend floor-shifts the exact product onto this coarser grid;
/// the following requantization is another floor shift, and
/// `floor(floor(x / 2^a) / 2^b) = floor(x / 2^(a+b))`, so the two-step
/// result stays bit-identical to the reference's single-step `i128`
/// requantization. Keeping the IWL honest (rather than capping it, as
/// this function once did) also makes downstream saturation decisions
/// sound.
pub fn product_fmt(a: QFormat, b: QFormat) -> QFormat {
    let iwl = a.iwl + b.iwl;
    let fwl = (a.fwl + b.fwl).min(62 - iwl);
    QFormat::new(iwl, fwl)
}

/// One node of a program's reconstructed loop structure.
///
/// A [`MachineBlock`] records the full loop stack it executes under,
/// but consecutive blocks may *share* enclosing loops (an unrolled
/// inner loop and its remainder inside a common outer loop). Executing
/// each block's nest independently would run the first block's outer
/// iterations to completion before the second block starts — the wrong
/// interleaving whenever state or variables flow across iterations, and
/// order-sensitive quantization makes even pure reductions diverge
/// bitwise. Backends must instead walk this forest, entering each
/// shared loop exactly once.
#[derive(Debug, Clone)]
pub enum LoopNest {
    /// A leaf: index of a block in the program's document-order list,
    /// executed once per enclosing-iteration.
    Block(usize),
    /// A loop whose body (blocks and nested loops) executes `count`
    /// times.
    Loop {
        /// The induction variable.
        var: slpwlo_ir::LoopId,
        /// Trip count.
        count: u32,
        /// Loop body in document order.
        body: Vec<LoopNest>,
    },
}

/// Reconstructs the shared loop structure of document-order blocks by
/// merging the longest common prefixes of consecutive blocks' loop
/// stacks (loops are contiguous in document order, so a prefix match on
/// induction variables is exact).
pub fn loop_forest(blocks: &[MachineBlock]) -> Vec<LoopNest> {
    let mut roots: Vec<LoopNest> = Vec::new();
    // Stack of open loops as (var, count); children accumulate in the
    // deepest open node reachable through `roots`.
    let mut open: Vec<(slpwlo_ir::LoopId, u32)> = Vec::new();
    fn children_at(roots: &mut Vec<LoopNest>, depth: usize) -> &mut Vec<LoopNest> {
        let mut cur = roots;
        for _ in 0..depth {
            let Some(LoopNest::Loop { body, .. }) = cur.last_mut() else {
                unreachable!("open stack tracks Loop nodes");
            };
            cur = body;
        }
        cur
    }
    for (bi, block) in blocks.iter().enumerate() {
        let common = open
            .iter()
            .zip(&block.loops)
            .take_while(|(a, b)| a == b)
            .count();
        open.truncate(common);
        for &(var, count) in &block.loops[common..] {
            children_at(&mut roots, open.len()).push(LoopNest::Loop {
                var,
                count,
                body: Vec::new(),
            });
            open.push((var, count));
        }
        children_at(&mut roots, open.len()).push(LoopNest::Block(bi));
    }
    roots
}

/// Static bounds of an affine index over a block's loop nest
/// (`loops` as carried by [`MachineBlock::loops`]): the smallest and
/// largest value the index can take across all iterations. Shared by
/// the lowering's gather/scatter decision and the C emitters' wrap
/// analysis so the two can never disagree.
pub fn ix_bounds(ix: &slpwlo_ir::IndexExpr, loops: &[(slpwlo_ir::LoopId, u32)]) -> (i64, i64) {
    let mut lo = ix.offset();
    let mut hi = ix.offset();
    for &(var, c) in ix.terms() {
        let count = loops
            .iter()
            .find(|&&(v, _)| v == var)
            .map(|&(_, n)| n as i64)
            .unwrap_or(1);
        let span = (count - 1).max(0);
        if c >= 0 {
            hi += c * span;
        } else {
            lo += c * span;
        }
    }
    (lo, hi)
}

/// Static per-lane result formats of every operation in a block
/// (an empty vector for operations producing no value). Variable
/// operands read their canonical storage format from `storage`.
pub fn block_result_fmts(block: &MachineBlock, storage: &ProgramStorage) -> Vec<Vec<QFormat>> {
    let mut out: Vec<Vec<QFormat>> = Vec::with_capacity(block.ops.len());
    for op in &block.ops {
        let f = result_fmt(&op.kind, &out, storage);
        out.push(f);
    }
    out
}

/// Static per-lane result formats of one operation given the formats of
/// earlier results (the incremental step of [`block_result_fmts`],
/// exposed so independent checkers can interleave format computation
/// with their own per-op validation).
pub fn result_fmt(kind: &MopKind, fmts: &[Vec<QFormat>], storage: &ProgramStorage) -> Vec<QFormat> {
    result_fmt_of(kind, fmts, storage)
}

/// Static per-lane formats of one operand given the formats of earlier
/// results.
pub fn operand_fmts(o: &Operand, fmts: &[Vec<QFormat>], storage: &ProgramStorage) -> Vec<QFormat> {
    match o {
        Operand::Op(i) => fmts[*i].clone(),
        Operand::Imm { fmt, .. } => vec![*fmt],
        Operand::Var(v) => vec![storage.vars[v.index()].fmt],
    }
}

/// The lane-broadcast rule shared by every consumer of per-lane data:
/// single-lane slots (splats) broadcast their only lane to any index.
pub fn broadcast_lane<T: Copy>(lanes: &[T], lane: usize) -> T {
    lanes[lane.min(lanes.len().saturating_sub(1))]
}

fn lane_of(fmts: &[QFormat], lane: usize) -> QFormat {
    broadcast_lane(fmts, lane)
}

fn result_fmt_of(kind: &MopKind, fmts: &[Vec<QFormat>], storage: &ProgramStorage) -> Vec<QFormat> {
    let opnd = |o: &Operand| operand_fmts(o, fmts, storage);
    match kind {
        MopKind::ReadInput { to, .. } => vec![*to],
        MopKind::Load { loc } => vec![storage.loc_fmt(loc)],
        MopKind::VLoad { locs } => locs.iter().map(|l| storage.loc_fmt(l)).collect(),
        MopKind::Bin { a, b, to, .. } => match to {
            Some(t) => vec![*t],
            None => vec![product_fmt(opnd(a)[0], opnd(b)[0])],
        },
        MopKind::VBin { a, b, to, .. } => match to {
            Some(t) => t.clone(),
            None => {
                let fa = opnd(a);
                let fb = opnd(b);
                let lanes = fa.len().max(fb.len());
                (0..lanes)
                    .map(|l| product_fmt(lane_of(&fa, l), lane_of(&fb, l)))
                    .collect()
            }
        },
        MopKind::Un { to, .. } | MopKind::Requant { to, .. } => vec![*to],
        MopKind::VUn { to, .. } | MopKind::VRequant { to, .. } => to.clone(),
        MopKind::Copy { src } => opnd(src),
        MopKind::Extract { src, lane, to, .. } => match to {
            Some(t) => vec![*t],
            None => vec![lane_of(&opnd(src), *lane as usize)],
        },
        MopKind::Pack { lanes } => lanes.iter().map(|o| opnd(o)[0]).collect(),
        MopKind::Splat { src, lanes } => vec![opnd(src)[0]; *lanes as usize],
        MopKind::Store { .. }
        | MopKind::VStore { .. }
        | MopKind::ShiftIn { .. }
        | MopKind::Output { .. }
        | MopKind::Nop
        | MopKind::Opaque => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lowers a kernel with its specification and per-block SIMD groups.
///
/// `blocks` pairs each basic block with its DFG and the groups realised
/// in it (empty slice for pure scalar code).
pub fn lower_fixed(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    target: &TargetModel,
    blocks: &[(Block, Dfg, Vec<SimdGroup>)],
) -> MachineProgram {
    // Variables consumed outside their defining block (or across loop
    // iterations) appear as `LiveIn` nodes somewhere; only those need
    // cross-block state — dead definitions would otherwise materialise
    // unpacks the cost model never charged.
    let live_vars: std::collections::HashSet<VarId> = blocks
        .iter()
        .flat_map(|(_, dfg, _)| {
            dfg.iter().filter_map(|(_, n)| match n.kind {
                NodeKind::LiveIn(v) => Some(v),
                _ => None,
            })
        })
        .collect();
    // Callers may hand blocks over in priority order (the WLO-SLP visit
    // order); the machine program executes in document order.
    let mut lowered: Vec<(slpwlo_ir::blocks::BlockId, MachineBlock)> = blocks
        .iter()
        .map(|(block, dfg, groups)| {
            let mut lw = FixedLowerer::new(kernel, &block.loops, spec, target, dfg, groups);
            lw.run();
            let var_defs = lw.collect_var_defs(&block.stmts, &live_vars);
            (
                block.id,
                MachineBlock {
                    ops: lw.ops,
                    trip: block.trip(),
                    in_loop: block.in_loop(),
                    loops: block.loops.clone(),
                    var_defs,
                },
            )
        })
        .collect();
    lowered.sort_by_key(|(id, _)| *id);
    let lowered: Vec<MachineBlock> = lowered.into_iter().map(|(_, b)| b).collect();
    let storage = build_storage(kernel, spec, &lowered);
    MachineProgram {
        name: kernel.name().to_string(),
        blocks: lowered,
        storage,
    }
}

/// Lowers the all-scalar fixed-point version of a kernel (the baseline
/// denominator of the paper's speedups).
pub fn lower_scalar(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    target: &TargetModel,
) -> MachineProgram {
    let blocks: Vec<(Block, Dfg, Vec<SimdGroup>)> = collect_blocks(kernel)
        .into_iter()
        .map(|b| {
            let dfg = Dfg::from_block(kernel, &b);
            (b, dfg, Vec::new())
        })
        .collect();
    lower_fixed(kernel, spec, target, &blocks)
}

/// Lowers the original floating-point version (fig. 6's reference).
///
/// Floating-point programs drive the cycle model only; their operations
/// carry no executable semantics ([`MopKind::Opaque`]).
pub fn lower_float(kernel: &Kernel) -> MachineProgram {
    let blocks = collect_blocks(kernel);
    let lowered = blocks
        .into_iter()
        .map(|b| {
            let dfg = Dfg::from_block(kernel, &b);
            let ops = lower_float_block(&dfg);
            MachineBlock {
                ops,
                trip: b.trip(),
                in_loop: b.in_loop(),
                loops: b.loops.clone(),
                var_defs: Vec::new(),
            }
        })
        .collect();
    MachineProgram {
        name: format!("{}_float", kernel.name()),
        blocks: lowered,
        storage: float_storage(kernel),
    }
}

/// Quantizes a coefficient/constant at compile time: round-half-up with
/// saturation, exactly as the bit-accurate simulation does.
pub fn quantize_const(v: f64, fmt: QFormat) -> i64 {
    FxValue::from_f64(v, fmt, QuantizeMode::Round, OverflowMode::Saturate).raw()
}

fn build_storage(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    blocks: &[MachineBlock],
) -> ProgramStorage {
    let params = kernel
        .params()
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let fmt = spec.format(SpecKey::Param(ParamId(pi as u32)));
            ParamDecl {
                name: p.name.clone(),
                fmt,
                raws: p.values.iter().map(|&v| quantize_const(v, fmt)).collect(),
            }
        })
        .collect();
    let arrays = kernel
        .arrays()
        .iter()
        .enumerate()
        .map(|(ai, a)| ArrayDecl {
            name: a.name.clone(),
            fmt: spec.format(SpecKey::Array(ArrayId(ai as u32))),
            len: a.len,
        })
        .collect();
    let mut storage = ProgramStorage {
        inputs: kernel.inputs().iter().map(|i| i.name.clone()).collect(),
        outputs: kernel.outputs().iter().map(|o| o.name.clone()).collect(),
        params,
        arrays,
        vars: kernel
            .vars()
            .iter()
            .map(|v| VarDecl {
                name: v.name.clone(),
                // The interpreter's zero-initialization format; refined
                // below to cover every definition.
                fmt: QFormat::new(1, 30),
            })
            .collect(),
    };
    // Fixpoint over the canonical variable formats: a definition's
    // format may itself depend on variable formats (through live-in
    // operands), so iterate until the joins stabilise. Joins are
    // monotone (non-decreasing iwl/fwl, both capped at 62 total bits)
    // on a finite lattice, so convergence is guaranteed — two rounds in
    // practice; running to convergence (not a fixed round count)
    // preserves the "canonical covers every definition" invariant the
    // emitters rely on even for long variable-to-variable chains.
    loop {
        let mut next: Vec<QFormat> = storage.vars.iter().map(|v| v.fmt).collect();
        for block in blocks {
            let fmts = block_result_fmts(block, &storage);
            for (v, def) in &block.var_defs {
                let f = operand_fmts(def, &fmts, &storage)[0];
                next[v.index()] = join_fmt(next[v.index()], f);
            }
        }
        let changed = storage
            .vars
            .iter()
            .zip(&next)
            .any(|(cur, &new)| cur.fmt != new);
        for (decl, f) in storage.vars.iter_mut().zip(next) {
            decl.fmt = f;
        }
        if !changed {
            break;
        }
    }
    storage
}

fn float_storage(kernel: &Kernel) -> ProgramStorage {
    let wide = QFormat::new(1, 30);
    ProgramStorage {
        inputs: kernel.inputs().iter().map(|i| i.name.clone()).collect(),
        outputs: kernel.outputs().iter().map(|o| o.name.clone()).collect(),
        params: kernel
            .params()
            .iter()
            .map(|p| ParamDecl {
                name: p.name.clone(),
                fmt: wide,
                raws: p.values.iter().map(|&v| quantize_const(v, wide)).collect(),
            })
            .collect(),
        arrays: kernel
            .arrays()
            .iter()
            .map(|a| ArrayDecl {
                name: a.name.clone(),
                fmt: wide,
                len: a.len,
            })
            .collect(),
        vars: kernel
            .vars()
            .iter()
            .map(|v| VarDecl {
                name: v.name.clone(),
                fmt: wide,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Fixed-point lowering
// ---------------------------------------------------------------------------

/// Which semantics the per-lane scaling of a superword carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScaleSem {
    /// Pre-alignment of an additive operand: pure grid change, no
    /// saturation (an [`align_fmt`] target).
    Align,
    /// Full requantization (multiply results, store conversions):
    /// truncate and saturate at the target format.
    Requant,
    /// Negate exactly, then requantize (vectorized negation).
    Neg,
}

struct FixedLowerer<'a> {
    kernel: &'a Kernel,
    /// Enclosing loops of the block being lowered (for static index
    /// bounds: a vector access whose lane indices may wrap must fall
    /// back to gather/scatter form).
    loops: &'a [(slpwlo_ir::LoopId, u32)],
    spec: &'a FixedPointSpec,
    target: &'a TargetModel,
    dfg: &'a Dfg,
    groups: &'a [SimdGroup],
    node_group: HashMap<NodeId, usize>,
    ops: Vec<Mop>,
    /// Scalar value producers: node -> op index (absent for constants and
    /// live-ins, which cost nothing).
    produced: HashMap<NodeId, usize>,
    /// Vector result op of each emitted group.
    group_result: HashMap<usize, usize>,
    /// Cached unpack ops for grouped values consumed by scalar code.
    unpacked: HashMap<NodeId, usize>,
    /// Main op of every node (for memory-order dependences).
    main_op: HashMap<NodeId, usize>,
}

impl<'a> FixedLowerer<'a> {
    fn new(
        kernel: &'a Kernel,
        loops: &'a [(slpwlo_ir::LoopId, u32)],
        spec: &'a FixedPointSpec,
        target: &'a TargetModel,
        dfg: &'a Dfg,
        groups: &'a [SimdGroup],
    ) -> Self {
        let mut node_group = HashMap::new();
        for (gi, g) in groups.iter().enumerate() {
            for &e in &g.elems {
                node_group.insert(e, gi);
            }
        }
        FixedLowerer {
            kernel,
            loops,
            spec,
            target,
            dfg,
            groups,
            node_group,
            ops: Vec::new(),
            produced: HashMap::new(),
            group_result: HashMap::new(),
            unpacked: HashMap::new(),
            main_op: HashMap::new(),
        }
    }

    fn run(&mut self) {
        // Scalar consumers may interleave with a group's elements in the
        // node order, so emission follows a coarsened topological order
        // where each group is one super-node (valid groups guarantee this
        // graph is acyclic: a cycle through a scalar node would make two
        // group elements dependent).
        let n_groups = self.groups.len();
        let unit_of = |lw: &Self, id: NodeId| -> usize {
            match lw.node_group.get(&id) {
                Some(&gi) => gi,
                None => n_groups + id.index(),
            }
        };
        let n_units = n_groups + self.dfg.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n_units];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n_units];
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); n_units];
        for (id, node) in self.dfg.iter() {
            let u = unit_of(self, id);
            members[u].push(id);
            for p in node.operands.iter().chain(node.deps.iter()) {
                let pu = unit_of(self, *p);
                if pu != u && !preds[u].contains(&pu) {
                    preds[u].push(pu);
                    succs[pu].push(u);
                }
            }
        }
        // Kahn's algorithm; ready units fire in ascending first-member
        // order for determinism.
        let mut indeg: Vec<usize> = preds.iter().map(|p| p.len()).collect();
        let mut ready: std::collections::BTreeSet<(NodeId, usize)> = (0..n_units)
            .filter(|&u| indeg[u] == 0 && !members[u].is_empty())
            .map(|u| (members[u][0], u))
            .collect();
        let mut emitted = 0usize;
        while let Some(&(first, u)) = ready.iter().next() {
            ready.remove(&(first, u));
            if u < n_groups {
                self.emit_group(u);
            } else {
                self.emit_scalar(members[u][0]);
            }
            emitted += 1;
            for &s in &succs[u] {
                indeg[s] -= 1;
                if indeg[s] == 0 && !members[s].is_empty() {
                    ready.insert((members[s][0], s));
                }
            }
        }
        let total_units = members.iter().filter(|m| !m.is_empty()).count();
        assert_eq!(emitted, total_units, "coarsened graph must be acyclic");
    }

    fn push(&mut self, query: OpQuery, preds: Vec<usize>, kind: MopKind) -> usize {
        let idx = self.ops.len();
        self.ops.push(Mop { query, preds, kind });
        idx
    }

    /// Element word length the target grants `lanes`-wide groups (for
    /// cost queries on per-lane scalar ops of gathers/scatters/fig. 2
    /// scalings — selection guarantees the lane count is supported).
    fn elem_wl(&self, lanes: u32) -> i32 {
        self.target
            .simd_element_wl(lanes)
            .unwrap_or(self.target.datapath)
    }

    /// Container word length of a node's value.
    fn wl_of(&self, n: NodeId) -> i32 {
        let wl = value_format(self.spec, self.dfg, n)
            .wl()
            .clamp(1, self.target.datapath);
        self.target.container_wl(wl).unwrap_or(self.target.datapath)
    }

    fn fwl_of(&self, n: NodeId) -> i32 {
        value_format(self.spec, self.dfg, n).fwl
    }

    /// The specification format of a node's own value (the format the
    /// bit-accurate simulation assigns to it).
    fn fmt_of(&self, n: NodeId) -> QFormat {
        value_format(self.spec, self.dfg, n)
    }

    /// Op index producing the scalar value of `n` (resolving variable
    /// wiring and unpacking grouped values). `None` for free values.
    fn scalar_value(&mut self, n: NodeId) -> Option<usize> {
        let p = resolve_producer(self.dfg, n);
        if let Some(&gi) = self.node_group.get(&p) {
            if let Some(&u) = self.unpacked.get(&p) {
                return Some(u);
            }
            let src = *self
                .group_result
                .get(&gi)
                .expect("group result emitted before scalar consumers (topo order)");
            let lane = self.groups[gi]
                .elems
                .iter()
                .position(|&e| e == p)
                .expect("node_group points into its group") as u32;
            let u = self.push(
                OpQuery::Extract,
                vec![src],
                MopKind::Extract {
                    src: Operand::Op(src),
                    lane,
                    negate: false,
                    to: None,
                },
            );
            self.unpacked.insert(p, u);
            return Some(u);
        }
        self.produced.get(&p).copied()
    }

    /// The executable operand delivering `n`'s value: a prior op, a
    /// quantized immediate, or a live-in variable.
    fn operand_of(&mut self, n: NodeId) -> Operand {
        if let Some(idx) = self.scalar_value(n) {
            return Operand::Op(idx);
        }
        let p = resolve_producer(self.dfg, n);
        match &self.dfg.node(p).kind {
            NodeKind::Const(v) => {
                let fmt = match self.dfg.node(p).expr {
                    Some(e) => self.spec.format(SpecKey::Expr(e)),
                    None => QFormat::new(2, 30),
                };
                Operand::Imm {
                    raw: quantize_const(*v, fmt),
                    fmt,
                }
            }
            NodeKind::LiveIn(v) => Operand::Var(*v),
            other => unreachable!("node {other:?} produces no value and no op"),
        }
    }

    /// Memory-order predecessors of a node.
    fn mem_deps(&self, n: NodeId) -> Vec<usize> {
        self.dfg
            .node(n)
            .deps
            .iter()
            .filter_map(|d| self.main_op.get(d).copied())
            .collect()
    }

    /// The location accessed by a memory node.
    fn loc_of(&self, n: NodeId) -> Loc {
        match &self.dfg.node(n).kind {
            NodeKind::LoadArray(a, ix) | NodeKind::StoreArray(a, ix) => Loc::Array(*a, ix.clone()),
            NodeKind::LoadParam(p, ix) => Loc::Param(*p, ix.clone()),
            other => unreachable!("{other:?} accesses no location"),
        }
    }

    /// [`mem_status`], downgraded to [`MemStatus::Gather`] when any lane
    /// index may leave `[0, len)`. Out-of-range indices wrap with
    /// Euclidean semantics, which a single-base-pointer vector access
    /// cannot express — such groups must go through the scalar
    /// gather/scatter path every backend implements with wrapped
    /// per-lane accesses.
    fn wrap_aware_mem_status(&self, group: &SimdGroup) -> MemStatus {
        let status = mem_status(self.dfg, group);
        if matches!(status, MemStatus::Gather | MemStatus::NotMemory) {
            return status;
        }
        let wraps = group.elems.iter().any(|&e| {
            let (len, ix) = match &self.dfg.node(e).kind {
                NodeKind::LoadArray(a, ix) | NodeKind::StoreArray(a, ix) => {
                    (self.kernel.arrays()[a.index()].len as i64, ix)
                }
                NodeKind::LoadParam(p, ix) => {
                    (self.kernel.params()[p.index()].values.len() as i64, ix)
                }
                _ => return false,
            };
            let (lo, hi) = ix_bounds(ix, self.loops);
            lo < 0 || hi >= len
        });
        if wraps {
            MemStatus::Gather
        } else {
            status
        }
    }

    /// Final definitions of the block's live variables, as executable
    /// operands (appends unpacks for grouped definitions if needed).
    fn collect_var_defs(
        &mut self,
        stmts: &[Stmt],
        live: &std::collections::HashSet<VarId>,
    ) -> Vec<(VarId, Operand)> {
        let mut defs: Vec<(VarId, Operand)> = Vec::new();
        for s in stmts {
            if let Stmt::Assign(v, e) = s {
                if !live.contains(v) {
                    continue;
                }
                let n = self
                    .dfg
                    .node_of_expr(*e)
                    .expect("assigned expression lowered with its block");
                let opnd = self.operand_of(n);
                match defs.iter_mut().find(|(w, _)| w == v) {
                    Some(slot) => slot.1 = opnd,
                    None => defs.push((*v, opnd)),
                }
            }
        }
        defs
    }

    fn emit_scalar(&mut self, n: NodeId) {
        let kind = self.dfg.node(n).kind.clone();
        match kind {
            NodeKind::Const(_) | NodeKind::LiveIn(_) | NodeKind::VarUse(_) => {
                // Free: immediates and register wiring.
            }
            NodeKind::ReadInput(i) => {
                let wl = self.wl_of(n);
                let to = self.fmt_of(n);
                let idx = self.push(
                    OpQuery::Load(wl),
                    vec![],
                    MopKind::ReadInput { input: i, to },
                );
                self.produced.insert(n, idx);
                self.main_op.insert(n, idx);
            }
            NodeKind::LoadArray(..) | NodeKind::LoadParam(..) => {
                let wl = self.wl_of(n);
                let deps = self.mem_deps(n);
                let loc = self.loc_of(n);
                let idx = self.push(OpQuery::Load(wl), deps, MopKind::Load { loc });
                self.produced.insert(n, idx);
                self.main_op.insert(n, idx);
            }
            NodeKind::Bin(op) => {
                let operands = self.dfg.node(n).operands.clone();
                let out_fwl = self.fwl_of(n);
                let out_wl = self.wl_of(n);
                let out_fmt = self.fmt_of(n);
                let mut deps = Vec::new();
                match op {
                    BinOp::Add | BinOp::Sub => {
                        let mut ins: Vec<Operand> = Vec::new();
                        for &o in &operands {
                            let src = self.scalar_value(o);
                            let opnd = self.operand_of(o);
                            let s = self.fwl_of(o) - out_fwl;
                            let (dep, opnd) = if s != 0 && !is_exact(self.dfg, o) {
                                let sh = self.push(
                                    OpQuery::Shift(out_wl),
                                    src.into_iter().collect(),
                                    MopKind::Requant {
                                        src: opnd,
                                        to: align_fmt(out_fwl),
                                    },
                                );
                                (Some(sh), Operand::Op(sh))
                            } else {
                                (src, opnd)
                            };
                            deps.extend(dep);
                            ins.push(opnd);
                        }
                        let b = ins.pop().expect("binary op has two operands");
                        let a = ins.pop().expect("binary op has two operands");
                        let idx = self.push(
                            OpQuery::Add(out_wl),
                            deps,
                            MopKind::Bin {
                                op,
                                a,
                                b,
                                to: Some(out_fmt),
                            },
                        );
                        self.produced.insert(n, idx);
                        self.main_op.insert(n, idx);
                    }
                    BinOp::Mul => {
                        let mut in_wl = 0;
                        let mut full_fwl = 0;
                        let mut ins: Vec<Operand> = Vec::new();
                        for &o in &operands {
                            deps.extend(self.scalar_value(o));
                            ins.push(self.operand_of(o));
                            in_wl = in_wl.max(self.wl_of(o));
                            full_fwl += self.fwl_of(o);
                        }
                        let exact = operands.iter().all(|&o| is_exact(self.dfg, o));
                        let scaled = full_fwl != out_fwl && !exact;
                        let b = ins.pop().expect("binary op has two operands");
                        let a = ins.pop().expect("binary op has two operands");
                        let idx = self.push(
                            OpQuery::Mul(in_wl),
                            deps,
                            MopKind::Bin {
                                op,
                                a,
                                b,
                                to: if scaled { None } else { Some(out_fmt) },
                            },
                        );
                        let idx = if scaled {
                            self.push(
                                OpQuery::Shift(out_wl),
                                vec![idx],
                                MopKind::Requant {
                                    src: Operand::Op(idx),
                                    to: out_fmt,
                                },
                            )
                        } else {
                            idx
                        };
                        self.produced.insert(n, idx);
                        self.main_op.insert(n, idx);
                    }
                }
            }
            NodeKind::Un(_) => {
                let o = self.dfg.node(n).operands[0];
                let src = self.scalar_value(o);
                let opnd = self.operand_of(o);
                let out_wl = self.wl_of(n);
                let out_fmt = self.fmt_of(n);
                let s = self.fwl_of(o) - self.fwl_of(n);
                let idx = if s != 0 && !is_exact(self.dfg, o) {
                    // The shifter negates-and-requantizes; the ALU op is
                    // the cost model's move.
                    let sh = self.push(
                        OpQuery::Shift(out_wl),
                        src.into_iter().collect(),
                        MopKind::Un {
                            src: opnd,
                            to: out_fmt,
                        },
                    );
                    self.push(
                        OpQuery::Add(out_wl),
                        vec![sh],
                        MopKind::Copy {
                            src: Operand::Op(sh),
                        },
                    )
                } else {
                    self.push(
                        OpQuery::Add(out_wl),
                        src.into_iter().collect(),
                        MopKind::Un {
                            src: opnd,
                            to: out_fmt,
                        },
                    )
                };
                self.produced.insert(n, idx);
                self.main_op.insert(n, idx);
            }
            NodeKind::StoreArray(a, ref ix) => {
                let o = self.dfg.node(n).operands[0];
                let src = self.scalar_value(o);
                let opnd = self.operand_of(o);
                let arr_fmt = self.spec.format(SpecKey::Array(a));
                let wl = self
                    .target
                    .container_wl(arr_fmt.wl().clamp(1, self.target.datapath))
                    .unwrap_or(self.target.datapath);
                let s = self.fwl_of(o) - arr_fmt.fwl;
                let (val, opnd) = if s != 0 && !is_exact(self.dfg, o) {
                    let sh = self.push(
                        OpQuery::Shift(wl),
                        src.into_iter().collect(),
                        MopKind::Requant {
                            src: opnd,
                            to: arr_fmt,
                        },
                    );
                    (Some(sh), Operand::Op(sh))
                } else {
                    (src, opnd)
                };
                let mut deps: Vec<usize> = val.into_iter().collect();
                deps.extend(self.mem_deps(n));
                let idx = self.push(
                    OpQuery::Store(wl),
                    deps,
                    MopKind::Store {
                        loc: Loc::Array(a, ix.clone()),
                        src: opnd,
                        to: arr_fmt,
                    },
                );
                self.main_op.insert(n, idx);
            }
            NodeKind::ShiftIn(a) => {
                let o = self.dfg.node(n).operands[0];
                let src = self.scalar_value(o);
                let opnd = self.operand_of(o);
                let arr_fmt = self.spec.format(SpecKey::Array(a));
                let wl = self
                    .target
                    .container_wl(arr_fmt.wl().clamp(1, self.target.datapath))
                    .unwrap_or(self.target.datapath);
                let s = self.fwl_of(o) - arr_fmt.fwl;
                let (val, opnd) = if s != 0 && !is_exact(self.dfg, o) {
                    let sh = self.push(
                        OpQuery::Shift(wl),
                        src.into_iter().collect(),
                        MopKind::Requant {
                            src: opnd,
                            to: arr_fmt,
                        },
                    );
                    (Some(sh), Operand::Op(sh))
                } else {
                    (src, opnd)
                };
                let mut deps: Vec<usize> = val.into_iter().collect();
                deps.extend(self.mem_deps(n));
                // Circular buffer: one store plus one pointer update.
                let st = self.push(
                    OpQuery::Store(wl),
                    deps,
                    MopKind::ShiftIn {
                        array: a,
                        src: opnd,
                        to: arr_fmt,
                    },
                );
                let _ptr = self.push(OpQuery::Add(32), vec![], MopKind::Nop);
                self.main_op.insert(n, st);
            }
            NodeKind::Output(o_idx) => {
                let o = self.dfg.node(n).operands[0];
                let src = self.scalar_value(o);
                let opnd = self.operand_of(o);
                let wl = self.wl_of(o);
                let idx = self.push(
                    OpQuery::Store(wl),
                    src.into_iter().collect(),
                    MopKind::Output {
                        index: o_idx,
                        src: opnd,
                    },
                );
                self.main_op.insert(n, idx);
            }
        }
    }

    fn emit_group(&mut self, gi: usize) {
        let group = self.groups[gi].clone();
        let lanes = group.lanes();
        let kind = group.kind(self.dfg).clone();
        match kind {
            NodeKind::LoadArray(..) | NodeKind::LoadParam(..) => {
                let mut deps = Vec::new();
                for &e in &group.elems {
                    deps.extend(self.mem_deps(e));
                }
                let locs: Vec<Loc> = group.elems.iter().map(|&e| self.loc_of(e)).collect();
                let idx = match self.wrap_aware_mem_status(&group) {
                    MemStatus::ContiguousAligned => {
                        self.push(OpQuery::VLoad(lanes), deps, MopKind::VLoad { locs })
                    }
                    MemStatus::ContiguousUnaligned => {
                        let l = self.push(OpQuery::VLoad(lanes), deps, MopKind::VLoad { locs });
                        // Realign: cost only, the value passes through.
                        // Together the two ops carry exactly the
                        // `OpQuery::VLoadU` price of the cost model.
                        self.push(
                            OpQuery::Add(self.target.datapath),
                            vec![l],
                            MopKind::Copy {
                                src: Operand::Op(l),
                            },
                        )
                    }
                    _ => {
                        // Gather: scalar loads plus a pack (the
                        // `OpQuery::Gather` price of the cost model).
                        let elem_wl = self.elem_wl(lanes);
                        let mut loaded = Vec::new();
                        for (&e, loc) in group.elems.iter().zip(locs) {
                            let d = self.mem_deps(e);
                            loaded.push(self.push(
                                OpQuery::Load(elem_wl),
                                d,
                                MopKind::Load { loc },
                            ));
                        }
                        let lane_ops = loaded.iter().map(|&l| Operand::Op(l)).collect();
                        self.push(
                            OpQuery::Pack(lanes),
                            loaded,
                            MopKind::Pack { lanes: lane_ops },
                        )
                    }
                };
                self.finish_group(gi, &group, idx);
            }
            NodeKind::Bin(op) => {
                let arity = 2;
                let mut operand_srcs = Vec::new();
                for pos in 0..arity {
                    operand_srcs.push(self.vector_operand(&group, pos));
                }
                let mut deps: Vec<usize> = operand_srcs.to_vec();
                let mut ins: Vec<Operand> = operand_srcs.iter().map(|&s| Operand::Op(s)).collect();
                // Pre-scaling for additive ops.
                if matches!(op, BinOp::Add | BinOp::Sub) {
                    for (pos, &src) in operand_srcs.iter().enumerate() {
                        let amounts: Vec<i32> = group
                            .elems
                            .iter()
                            .map(|&e| {
                                let o = self.dfg.node(e).operands[pos];
                                self.fwl_of(o) - self.fwl_of(e)
                            })
                            .collect();
                        let targets: Vec<QFormat> = group
                            .elems
                            .iter()
                            .map(|&e| align_fmt(self.fwl_of(e)))
                            .collect();
                        if let Some(d) = self.emit_vector_scaling(
                            &amounts,
                            src,
                            lanes,
                            ScaleSem::Align,
                            &targets,
                        ) {
                            deps.push(d);
                            ins[pos] = Operand::Op(d);
                        }
                    }
                }
                let lane_fmts: Vec<QFormat> = group.elems.iter().map(|&e| self.fmt_of(e)).collect();
                let b_in = ins.pop().expect("binary group has two operands");
                let a_in = ins.pop().expect("binary group has two operands");
                let mul_scaled = matches!(op, BinOp::Mul) && {
                    // A result scaling follows iff some lane amount is
                    // non-zero (mirrors emit_vector_scaling's decision).
                    group.elems.iter().any(|&e| {
                        let ops = &self.dfg.node(e).operands;
                        self.fwl_of(ops[0]) + self.fwl_of(ops[1]) - self.fwl_of(e) != 0
                    })
                };
                let main = match op {
                    BinOp::Add | BinOp::Sub => self.push(
                        OpQuery::VAdd(lanes),
                        deps,
                        MopKind::VBin {
                            op,
                            a: a_in,
                            b: b_in,
                            to: Some(lane_fmts.clone()),
                        },
                    ),
                    BinOp::Mul => self.push(
                        OpQuery::VMul(lanes),
                        deps,
                        MopKind::VBin {
                            op,
                            a: a_in,
                            b: b_in,
                            to: if mul_scaled {
                                None
                            } else {
                                Some(lane_fmts.clone())
                            },
                        },
                    ),
                };
                // Result scaling for multiplies.
                let mut result = main;
                if matches!(op, BinOp::Mul) {
                    let amounts: Vec<i32> = group
                        .elems
                        .iter()
                        .map(|&e| {
                            let ops = &self.dfg.node(e).operands;
                            self.fwl_of(ops[0]) + self.fwl_of(ops[1]) - self.fwl_of(e)
                        })
                        .collect();
                    if let Some(d) = self.emit_vector_scaling(
                        &amounts,
                        main,
                        lanes,
                        ScaleSem::Requant,
                        &lane_fmts,
                    ) {
                        result = d;
                    }
                }
                self.finish_group(gi, &group, result);
            }
            NodeKind::Un(_) => {
                let src = self.vector_operand(&group, 0);
                let amounts: Vec<i32> = group
                    .elems
                    .iter()
                    .map(|&e| {
                        let o = self.dfg.node(e).operands[0];
                        self.fwl_of(o) - self.fwl_of(e)
                    })
                    .collect();
                let lane_fmts: Vec<QFormat> = group.elems.iter().map(|&e| self.fmt_of(e)).collect();
                let mut deps: Vec<usize> = vec![src];
                let idx =
                    match self.emit_vector_scaling(&amounts, src, lanes, ScaleSem::Neg, &lane_fmts)
                    {
                        Some(d) => {
                            // The scaling already negated and requantized;
                            // the VAdd is the cost model's move.
                            deps.push(d);
                            self.push(
                                OpQuery::VAdd(lanes),
                                deps,
                                MopKind::Copy {
                                    src: Operand::Op(d),
                                },
                            )
                        }
                        None => self.push(
                            OpQuery::VAdd(lanes),
                            deps,
                            MopKind::VUn {
                                src: Operand::Op(src),
                                to: lane_fmts,
                            },
                        ),
                    };
                self.finish_group(gi, &group, idx);
            }
            NodeKind::StoreArray(a, _) => {
                let src = self.vector_operand(&group, 0);
                let arr_fmt = self.spec.format(SpecKey::Array(a));
                let amounts: Vec<i32> = group
                    .elems
                    .iter()
                    .map(|&e| {
                        let o = self.dfg.node(e).operands[0];
                        self.fwl_of(o) - arr_fmt.fwl
                    })
                    .collect();
                let targets = vec![arr_fmt; lanes as usize];
                let mut deps: Vec<usize> = vec![src];
                let mut value = Operand::Op(src);
                if let Some(d) =
                    self.emit_vector_scaling(&amounts, src, lanes, ScaleSem::Requant, &targets)
                {
                    deps.push(d);
                    value = Operand::Op(d);
                }
                for &e in &group.elems {
                    deps.extend(self.mem_deps(e));
                }
                let locs: Vec<Loc> = group.elems.iter().map(|&e| self.loc_of(e)).collect();
                let idx = match self.wrap_aware_mem_status(&group) {
                    MemStatus::ContiguousAligned => self.push(
                        OpQuery::VStore(lanes),
                        deps,
                        MopKind::VStore {
                            locs,
                            src: value,
                            to: arr_fmt,
                        },
                    ),
                    MemStatus::ContiguousUnaligned => {
                        // Pre-align the register before the misaligned
                        // access: together the two ops carry exactly the
                        // `OpQuery::VStoreU` price of the cost model.
                        let a = self.push(
                            OpQuery::Add(self.target.datapath),
                            deps.clone(),
                            MopKind::Copy { src: value },
                        );
                        let mut st_deps = deps;
                        st_deps.push(a);
                        self.push(
                            OpQuery::VStore(lanes),
                            st_deps,
                            MopKind::VStore {
                                locs,
                                src: Operand::Op(a),
                                to: arr_fmt,
                            },
                        )
                    }
                    _ => {
                        // Scatter: per-lane extract + store (the
                        // `OpQuery::Scatter` price of the cost model).
                        let elem_wl = self.elem_wl(lanes);
                        let mut last = None;
                        for (lane, loc) in locs.into_iter().enumerate() {
                            let u = self.push(
                                OpQuery::Extract,
                                deps.clone(),
                                MopKind::Extract {
                                    src: value.clone(),
                                    lane: lane as u32,
                                    negate: false,
                                    to: None,
                                },
                            );
                            last = Some(self.push(
                                OpQuery::Store(elem_wl),
                                vec![u],
                                MopKind::Store {
                                    loc,
                                    src: Operand::Op(u),
                                    to: arr_fmt,
                                },
                            ));
                        }
                        last.expect("lanes >= 2")
                    }
                };
                for &e in &group.elems {
                    self.main_op.insert(e, idx);
                }
                self.group_result.insert(gi, idx);
            }
            other => unreachable!("ungroupable kind {other:?} in group"),
        }
    }

    /// Emits the scaling needed to move a superword across grids.
    ///
    /// Uniform non-zero amounts become a single vector shift; mismatched
    /// amounts pay the fig. 2 penalty (unpack each lane, shift, repack).
    /// Returns the op to depend on, or `None` when no scaling is needed.
    /// `targets[lane]` is the absolute format lane `lane` lands on, and
    /// `sem` selects pure alignment, saturating requantization, or
    /// negate-then-requantize semantics.
    fn emit_vector_scaling(
        &mut self,
        amounts: &[i32],
        src: usize,
        lanes: u32,
        sem: ScaleSem,
        targets: &[QFormat],
    ) -> Option<usize> {
        if amounts.iter().all(|&a| a == 0) {
            return None;
        }
        if amounts.iter().all(|&a| a == amounts[0]) {
            return Some(self.push(
                OpQuery::VShift(lanes),
                vec![src],
                MopKind::VRequant {
                    src: Operand::Op(src),
                    to: targets.to_vec(),
                    negate: sem == ScaleSem::Neg,
                },
            ));
        }
        // Fig. 2: unpack, shift lanes individually, repack.
        let elem_wl = self.elem_wl(lanes);
        let mut shifted = Vec::new();
        for (lane, &a) in amounts.iter().enumerate() {
            let u = self.push(
                OpQuery::Extract,
                vec![src],
                MopKind::Extract {
                    src: Operand::Op(src),
                    lane: lane as u32,
                    negate: sem == ScaleSem::Neg && a == 0,
                    to: if a == 0 { Some(targets[lane]) } else { None },
                },
            );
            let s = if a != 0 {
                let kind = match sem {
                    ScaleSem::Neg => MopKind::Un {
                        src: Operand::Op(u),
                        to: targets[lane],
                    },
                    _ => MopKind::Requant {
                        src: Operand::Op(u),
                        to: targets[lane],
                    },
                };
                self.push(OpQuery::Shift(elem_wl), vec![u], kind)
            } else {
                u
            };
            shifted.push(s);
        }
        let lane_ops = shifted.iter().map(|&s| Operand::Op(s)).collect();
        Some(self.push(
            OpQuery::Pack(lanes),
            shifted,
            MopKind::Pack { lanes: lane_ops },
        ))
    }

    /// Materialises the operand superword of a group at `pos`; returns
    /// the producing op.
    fn vector_operand(&mut self, group: &SimdGroup, pos: usize) -> usize {
        let sw: Vec<NodeId> = group
            .elems
            .iter()
            .map(|&e| resolve_producer(self.dfg, self.dfg.node(e).operands[pos]))
            .collect();
        // Produced by another emitted group with identical lanes?
        for (gi, g) in self.groups.iter().enumerate() {
            if g.elems == sw {
                return *self
                    .group_result
                    .get(&gi)
                    .expect("producing group emitted before consumers (topo order)");
            }
        }
        // Splat: broadcast one scalar.
        if sw.iter().all(|&n| n == sw[0]) {
            let deps: Vec<usize> = self.scalar_value(sw[0]).into_iter().collect();
            let src = self.operand_of(sw[0]);
            return self.push(
                OpQuery::Splat(group.lanes()),
                deps,
                MopKind::Splat {
                    src,
                    lanes: group.lanes(),
                },
            );
        }
        // General case: gather scalars and pack.
        let mut deps = Vec::new();
        let mut lane_ops = Vec::new();
        for &n in &sw {
            deps.extend(self.scalar_value(n));
            lane_ops.push(self.operand_of(n));
        }
        self.push(
            OpQuery::Pack(group.lanes()),
            deps,
            MopKind::Pack { lanes: lane_ops },
        )
    }

    fn finish_group(&mut self, gi: usize, group: &SimdGroup, result: usize) {
        self.group_result.insert(gi, result);
        for &e in &group.elems {
            self.main_op.insert(e, result);
        }
    }
}

/// `true` for operands whose value is exact (constants, initial zeros):
/// no scaling is ever materialised for them.
fn is_exact(dfg: &Dfg, n: NodeId) -> bool {
    matches!(
        dfg.node(resolve_producer(dfg, n)).kind,
        NodeKind::Const(_) | NodeKind::LiveIn(_)
    )
}

// ---------------------------------------------------------------------------
// Floating-point lowering
// ---------------------------------------------------------------------------

fn lower_float_block(dfg: &Dfg) -> Vec<Mop> {
    let mut ops: Vec<Mop> = Vec::new();
    let mut produced: HashMap<NodeId, usize> = HashMap::new();
    let mut main_op: HashMap<NodeId, usize> = HashMap::new();
    let push = |ops: &mut Vec<Mop>, query: OpQuery, preds: Vec<usize>| -> usize {
        ops.push(Mop::opaque(query, preds));
        ops.len() - 1
    };
    for (id, node) in dfg.iter() {
        let value_of = |produced: &HashMap<NodeId, usize>, n: NodeId| -> Option<usize> {
            produced.get(&resolve_producer(dfg, n)).copied()
        };
        let mem_deps = |main_op: &HashMap<NodeId, usize>, n: NodeId| -> Vec<usize> {
            dfg.node(n)
                .deps
                .iter()
                .filter_map(|d| main_op.get(d).copied())
                .collect()
        };
        match &node.kind {
            NodeKind::Const(_) | NodeKind::LiveIn(_) | NodeKind::VarUse(_) => {}
            NodeKind::ReadInput(_) => {
                let i = push(&mut ops, OpQuery::FLoad, vec![]);
                produced.insert(id, i);
                main_op.insert(id, i);
            }
            NodeKind::LoadArray(..) | NodeKind::LoadParam(..) => {
                let deps = mem_deps(&main_op, id);
                let i = push(&mut ops, OpQuery::FLoad, deps);
                produced.insert(id, i);
                main_op.insert(id, i);
            }
            NodeKind::Bin(op) => {
                let deps: Vec<usize> = node
                    .operands
                    .iter()
                    .filter_map(|&o| value_of(&produced, o))
                    .collect();
                let q = match op {
                    BinOp::Mul => OpQuery::FMul,
                    _ => OpQuery::FAdd,
                };
                let i = push(&mut ops, q, deps);
                produced.insert(id, i);
                main_op.insert(id, i);
            }
            NodeKind::Un(_) => {
                let deps: Vec<usize> = node
                    .operands
                    .iter()
                    .filter_map(|&o| value_of(&produced, o))
                    .collect();
                // Float negation: sign-bit flip on an ALU.
                let i = push(&mut ops, OpQuery::Add(32), deps);
                produced.insert(id, i);
                main_op.insert(id, i);
            }
            NodeKind::StoreArray(..) | NodeKind::Output(_) => {
                let mut deps: Vec<usize> = node
                    .operands
                    .iter()
                    .filter_map(|&o| value_of(&produced, o))
                    .collect();
                deps.extend(mem_deps(&main_op, id));
                let i = push(&mut ops, OpQuery::FStore, deps);
                main_op.insert(id, i);
            }
            NodeKind::ShiftIn(_) => {
                let mut deps: Vec<usize> = node
                    .operands
                    .iter()
                    .filter_map(|&o| value_of(&produced, o))
                    .collect();
                deps.extend(mem_deps(&main_op, id));
                let st = push(&mut ops, OpQuery::FStore, deps);
                let _ptr = push(&mut ops, OpQuery::Add(32), vec![]);
                main_op.insert(id, st);
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_accuracy::AnalyticalEvaluator;
    use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions};
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::xentium;

    const FIR8: &str = r#"
kernel fir8 {
    input x range [-1, 1];
    output y;
    param c[8] = { 0.11, -0.23, 0.31, 0.17, -0.05, 0.27, -0.13, 0.07 };
    array dl[8];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..8 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    fn lowered(db: f64) -> (MachineProgram, MachineProgram) {
        let k = parse_kernel(FIR8).unwrap();
        let ranges = determine_ranges(&k, &RangeOptions::default());
        let eval = AnalyticalEvaluator::with_defaults(&k);
        let target = xentium();
        let res = crate::wlo_slp_sched(
            &k,
            &target,
            &eval,
            db,
            &ranges,
            slpwlo_slp::BenefitKind::default(),
            crate::SchedKind::List,
        );
        let blocks: Vec<_> = res
            .blocks
            .into_iter()
            .map(|b| (b.block, b.dfg, b.groups))
            .collect();
        let simd = lower_fixed(&k, &res.spec, &target, &blocks);
        let scalar = lower_scalar(&k, &res.spec, &target);
        (simd, scalar)
    }

    #[test]
    fn deps_point_backwards() {
        let (simd, scalar) = lowered(-40.0);
        for prog in [&simd, &scalar] {
            for b in &prog.blocks {
                for (i, op) in b.ops.iter().enumerate() {
                    for &p in &op.preds {
                        assert!(p < i, "dep {p} of op {i} must precede it");
                    }
                }
            }
        }
    }

    #[test]
    fn simd_lowering_emits_vector_ops() {
        let (simd, scalar) = lowered(-40.0);
        let has_vector = simd.blocks.iter().any(|b| {
            b.ops
                .iter()
                .any(|o| matches!(o.query, OpQuery::VMul(_) | OpQuery::VLoad(_)))
        });
        assert!(has_vector, "SIMD program must contain vector ops");
        let scalar_has_vector = scalar.blocks.iter().any(|b| {
            b.ops
                .iter()
                .any(|o| matches!(o.query, OpQuery::VMul(_) | OpQuery::VLoad(_)))
        });
        assert!(!scalar_has_vector);
    }

    #[test]
    fn simd_reduces_trip_weighted_ops_in_hot_block() {
        let (simd, scalar) = lowered(-30.0);
        // The loop block (trip > 1) must shrink.
        let hot = |p: &MachineProgram| -> u64 {
            p.blocks
                .iter()
                .filter(|b| b.trip > 1)
                .map(|b| b.ops.len() as u64 * b.trip)
                .sum()
        };
        assert!(
            hot(&simd) < hot(&scalar),
            "simd {} vs scalar {}",
            hot(&simd),
            hot(&scalar)
        );
    }

    #[test]
    fn float_lowering_uses_float_ops_only() {
        let k = parse_kernel(FIR8).unwrap();
        let f = lower_float(&k);
        let mut fadds = 0;
        let mut fmuls = 0;
        for b in &f.blocks {
            for op in &b.ops {
                match op.query {
                    OpQuery::FAdd => fadds += 1,
                    OpQuery::FMul => fmuls += 1,
                    OpQuery::FLoad | OpQuery::FStore | OpQuery::Add(_) => {}
                    other => panic!("unexpected op {other:?} in float lowering"),
                }
            }
        }
        assert!(fadds >= 4 && fmuls >= 4, "fadds {fadds} fmuls {fmuls}");
    }

    #[test]
    fn tight_constraint_degenerates_to_scalar() {
        let (simd, scalar) = lowered(-160.0);
        assert_eq!(
            simd.ops_per_activation(),
            scalar.ops_per_activation(),
            "no groups at -160 dB: identical programs"
        );
    }

    #[test]
    fn every_fixed_op_carries_executable_semantics() {
        let (simd, scalar) = lowered(-40.0);
        for prog in [&simd, &scalar] {
            for b in &prog.blocks {
                for op in &b.ops {
                    assert!(
                        !matches!(op.kind, MopKind::Opaque),
                        "fixed-point lowering must attach semantics to {:?}",
                        op.query
                    );
                }
            }
        }
    }

    #[test]
    fn operands_reference_declared_values_only() {
        // Every Operand::Op points at an earlier op that produces a
        // value; every Var points at a declared variable.
        let (simd, scalar) = lowered(-40.0);
        for prog in [&simd, &scalar] {
            for b in &prog.blocks {
                let fmts = block_result_fmts(b, &prog.storage);
                for (i, op) in b.ops.iter().enumerate() {
                    let mut check = |o: &Operand| match o {
                        Operand::Op(p) => {
                            assert!(*p < i, "operand {p} of op {i} must precede it");
                            assert!(
                                !fmts[*p].is_empty(),
                                "operand {p} of op {i} produces no value"
                            );
                        }
                        Operand::Var(v) => {
                            assert!(v.index() < prog.storage.vars.len());
                        }
                        Operand::Imm { .. } => {}
                    };
                    match &op.kind {
                        MopKind::Bin { a, b, .. } | MopKind::VBin { a, b, .. } => {
                            check(a);
                            check(b);
                        }
                        MopKind::Un { src, .. }
                        | MopKind::VUn { src, .. }
                        | MopKind::Requant { src, .. }
                        | MopKind::VRequant { src, .. }
                        | MopKind::Copy { src }
                        | MopKind::Splat { src, .. }
                        | MopKind::Extract { src, .. }
                        | MopKind::Store { src, .. }
                        | MopKind::VStore { src, .. }
                        | MopKind::ShiftIn { src, .. }
                        | MopKind::Output { src, .. } => check(src),
                        MopKind::Pack { lanes } => lanes.iter().for_each(&mut check),
                        MopKind::ReadInput { .. }
                        | MopKind::Load { .. }
                        | MopKind::VLoad { .. }
                        | MopKind::Nop
                        | MopKind::Opaque => {}
                    }
                }
            }
        }
    }

    #[test]
    fn storage_quantizes_coefficients_round_half_up() {
        let (_, scalar) = lowered(-40.0);
        let c = &scalar.storage.params[0];
        assert_eq!(c.raws.len(), 8);
        for (&raw, &v) in c
            .raws
            .iter()
            .zip([0.11, -0.23, 0.31, 0.17, -0.05, 0.27, -0.13, 0.07].iter())
        {
            let expected = quantize_const(v, c.fmt);
            assert_eq!(raw, expected);
        }
    }

    #[test]
    fn canonical_var_format_covers_definitions() {
        let (simd, scalar) = lowered(-40.0);
        for prog in [&simd, &scalar] {
            for b in &prog.blocks {
                let fmts = block_result_fmts(b, &prog.storage);
                for (v, def) in &b.var_defs {
                    let f = operand_fmts(def, &fmts, &prog.storage)[0];
                    let canon = prog.storage.vars[v.index()].fmt;
                    assert!(
                        canon.covers(f),
                        "canonical {canon} must cover definition {f} of {}",
                        prog.storage.vars[v.index()].name
                    );
                }
            }
        }
    }

    #[test]
    fn loop_blocks_carry_their_nest() {
        let (_, scalar) = lowered(-40.0);
        let hot: Vec<_> = scalar.blocks.iter().filter(|b| b.trip > 1).collect();
        assert!(!hot.is_empty());
        for b in hot {
            let product: u64 = b.loops.iter().map(|&(_, c)| c as u64).product();
            assert_eq!(product, b.trip, "loop nest must explain the trip count");
        }
    }
}

#[cfg(test)]
mod fig2_tests {
    //! The fig. 2 scaling paths: uniform lane amounts vectorize into one
    //! shift; mismatched amounts pay unpack/shift/repack.
    use super::*;
    use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions};
    use slpwlo_fixedpoint::QFormat;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_slp::SimdGroup;
    use slpwlo_targets::xentium;

    /// Two muls feeding two adds lane-wise, groups built by hand so the
    /// lane formats are fully controlled.
    fn setup() -> (Kernel, FixedPointSpec, Dfg, Vec<SimdGroup>, Block) {
        let src = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var m0;
    var m1;
    var s0;
    var s1;
    shiftin dl <- x;
    m0 = c[0] * dl[0];
    m1 = c[1] * dl[1];
    s0 = m0 + c[2] * dl[2];
    s1 = m1 + c[3] * dl[3];
    y = s0 + s1;
}
"#;
        let k = parse_kernel(src).unwrap();
        let r = determine_ranges(&k, &RangeOptions::default());
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let blocks = collect_blocks(&k);
        let block = blocks.into_iter().next().unwrap();
        let dfg = Dfg::from_block(&k, &block);
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let adds: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Add)))
            .map(|(i, _)| i)
            .collect();
        let groups = vec![
            SimdGroup {
                elems: vec![muls[0], muls[1]],
            },
            SimdGroup {
                elems: vec![adds[0], adds[1]],
            },
        ];
        (k, spec, dfg, groups, block)
    }

    fn count(prog: &MachineProgram, pred: impl Fn(&OpQuery) -> bool) -> usize {
        prog.blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .filter(|o| pred(&o.query))
            .count()
    }

    /// Sets every arithmetic node (including the scalar muls feeding the
    /// add group's second operand) to one format, so all lane scaling
    /// amounts match.
    fn uniformize(spec: &mut FixedPointSpec, dfg: &Dfg, fmt: QFormat) {
        for (id, node) in dfg.iter() {
            if matches!(node.kind, NodeKind::Bin(_)) {
                let key = crate::nodes::node_key(dfg, id).unwrap();
                spec.set_format(key, fmt);
            }
        }
    }

    #[test]
    fn uniform_lane_amounts_vectorize_the_scaling() {
        let (k, mut spec, dfg, groups, block) = setup();
        uniformize(&mut spec, &dfg, QFormat::new(2, 14));
        let target = xentium();
        let prog = lower_fixed(&k, &spec, &target, &[(block, dfg, groups)]);
        assert_eq!(
            count(&prog, |q| matches!(q, OpQuery::Extract)),
            2,
            "only the final scalar reduction unpacks the add pair"
        );
    }

    #[test]
    fn mismatched_lane_amounts_pay_unpack_shift_repack() {
        let (k, mut spec, dfg, groups, block) = setup();
        // Uniform everywhere except the two grouped mul lanes: their
        // outputs now need different right shifts to reach the adds.
        uniformize(&mut spec, &dfg, QFormat::new(2, 14));
        let k0 = crate::nodes::node_key(&dfg, groups[0].elems[0]).unwrap();
        let k1 = crate::nodes::node_key(&dfg, groups[0].elems[1]).unwrap();
        spec.set_format(k0, QFormat::new(2, 20));
        spec.set_format(k1, QFormat::new(2, 17));
        let target = xentium();
        let uniform = {
            let (k2, mut spec2, dfg2, groups2, block2) = setup();
            uniformize(&mut spec2, &dfg2, QFormat::new(2, 14));
            let p = lower_fixed(&k2, &spec2, &target, &[(block2, dfg2, groups2)]);
            count(&p, |q| matches!(q, OpQuery::Extract))
        };
        let prog = lower_fixed(&k, &spec, &target, &[(block, dfg, groups)]);
        let mismatched = count(&prog, |q| matches!(q, OpQuery::Extract));
        assert!(
            mismatched >= uniform + 2,
            "mismatched lane scalings must unpack each lane ({mismatched} vs {uniform})"
        );
        assert!(count(&prog, |q| matches!(q, OpQuery::Pack(_))) >= 1);
    }
}
