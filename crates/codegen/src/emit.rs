//! The shared C emission core.
//!
//! Both back-ends — scalar fixed-point C and SIMD C over the abstract
//! macro API — render the *same* lowered [`MachineProgram`]: storage
//! declarations from [`slpwlo_core::ProgramStorage`], one
//! `<kernel>_step` driver whose loop nests come from the lowered
//! blocks, and one statement (or short statement group) per machine
//! operation, driven entirely by [`MopKind`]. Scalar operations render
//! as plain C expressions over `int64_t` registers; vector operations
//! render as macro invocations (`VLOAD2`, `VMUL2`, `VSH2`, `VSAT2`,
//! ...) implemented by the per-target intrinsics header.
//!
//! Emission mirrors the interpreter's semantics statement by statement:
//!
//! * right shifts go through `slpwlo_shr` (floor semantics, spelled out
//!   with unsigned arithmetic — C99 leaves `>>` of negative values
//!   implementation-defined);
//! * left shifts go through `slpwlo_shl`, a multiplication by a power
//!   of two (shifting a negative value left is undefined behaviour);
//! * every requantization saturates at its absolute target format,
//!   except where the target's integer range provably covers the
//!   operand's (then the clamp is unreachable and elided);
//! * integer constants are emitted as `INT64_C(...)` so 64-bit
//!   immediates survive LLP64 platforms where `long` is 32 bits.

use crate::error::CodegenError;
use slpwlo_core::{
    block_result_fmts, broadcast_lane, ix_bounds, loop_forest, product_fmt, Loc, LoopNest,
    MachineBlock, MachineProgram, MopKind, Operand, ProgramStorage,
};
use slpwlo_fixedpoint::QFormat;
use slpwlo_ir::types::{IndexExpr, LoopId};
use slpwlo_ir::BinOp;
use std::fmt::Write as _;

/// C integer type holding `wl` bits (container widths 8/16/32/64).
pub(crate) fn ctype(wl: i32, context: &str) -> Result<&'static str, CodegenError> {
    match wl {
        i32::MIN..=0 | 65.. => Err(CodegenError::InvalidWordLength {
            context: context.to_string(),
            wl,
        }),
        1..=8 => Ok("int8_t"),
        9..=16 => Ok("int16_t"),
        17..=32 => Ok("int32_t"),
        33..=64 => Ok("int64_t"),
    }
}

/// The scalar runtime helpers every emitted translation unit relies on.
/// Self-contained C99; `static inline`, so unused helpers cost nothing.
pub(crate) const RUNTIME_HELPERS: &str = r#"/* --- slpwlo fixed-point runtime (C99, well-defined shifts) --- */
/* Arithmetic right shift with floor semantics. C99 leaves `>>` on
 * negative values implementation-defined; this spells out two's-
 * complement floor division using unsigned shifts only. */
static inline int64_t slpwlo_shr(int64_t v, int n)
{
    if (v >= 0) return (int64_t)((uint64_t)v >> n);
    return ~(int64_t)(~(uint64_t)v >> n);
}
/* Left shift as a multiplication by a power of two: `v << n` on a
 * negative v is undefined behaviour in C99, `v * 2^n` is not (the
 * emitter guarantees the product fits in 63 bits). */
static inline int64_t slpwlo_shl(int64_t v, int n)
{
    return v * (int64_t)((uint64_t)1 << n);
}
/* Signed-amount scaling: positive amounts shift right (discard
 * fractional bits), negative amounts shift left (gain grid). */
static inline int64_t slpwlo_shx(int64_t v, int n)
{
    return n >= 0 ? slpwlo_shr(v, n) : slpwlo_shl(v, -n);
}
/* Saturation at a format's raw bounds. */
static inline int64_t slpwlo_sat(int64_t v, int64_t lo, int64_t hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}
/* Euclidean index wrap: mirrors the interpreter's rem_euclid so an
 * affine index leaving [0, len) addresses the same element the golden
 * references do (and never indexes out of bounds). */
static inline int64_t slpwlo_idx(int64_t ix, int64_t len)
{
    int64_t m = ix % len;
    return m < 0 ? m + len : m;
}
/* Input conversion: quantize a sample onto the 2^-fwl grid with
 * truncation toward negative infinity, saturating at the format
 * bounds. Matches the bit-accurate reference simulation. */
static inline int64_t slpwlo_quant(double x, int fwl, int64_t lo, int64_t hi)
{
    double s = floor(ldexp(x, fwl));
    if (s < (double)lo) return lo;
    if (s > (double)hi) return hi;
    return (int64_t)s;
}
/* Exact floor((a * b) / 2^n) for 0 <= n <= 63, without 128-bit types:
 * the full 128-bit two's-complement product is assembled from 32-bit
 * limbs (the classic mulh decomposition), then arithmetically shifted.
 * Used when the operand formats are wider than 32 bits each, so the
 * exact product no longer fits a 64-bit register (a covering variable
 * format times a covering variable format, for instance). The emitter
 * guarantees the *shifted* result fits int64_t. */
static inline int64_t slpwlo_mul_shr(int64_t a, int64_t b, int n)
{
    uint64_t ua = (uint64_t)a, ub = (uint64_t)b;
    uint64_t a_lo = ua & 0xffffffffu, a_hi = ua >> 32;
    uint64_t b_lo = ub & 0xffffffffu, b_hi = ub >> 32;
    uint64_t p0 = a_lo * b_lo;
    uint64_t p1 = a_lo * b_hi;
    uint64_t p2 = a_hi * b_lo;
    uint64_t p3 = a_hi * b_hi;
    uint64_t mid = p1 + (p0 >> 32);                  /* cannot overflow */
    uint64_t mid2 = p2 + (mid & 0xffffffffu);        /* cannot overflow */
    uint64_t lo = (mid2 << 32) | (p0 & 0xffffffffu);
    uint64_t hi = p3 + (mid >> 32) + (mid2 >> 32);
    if (a < 0) hi -= ub;                             /* signed correction */
    if (b < 0) hi -= ua;
    if (n == 0) return (int64_t)lo;
    return (int64_t)((lo >> n) | (hi << (64 - n)));
}
"#;

/// Portable vector runtime: lane structs plus constructors. The macro
/// API on top of it is emitted per target by `emit_intrinsics_header`.
pub(crate) fn vector_runtime(lane_counts: &[u32]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "/* --- portable superword runtime: one 64-bit slot per lane --- */"
    );
    let _ = writeln!(s, "typedef struct {{ int64_t l[4]; }} slpwlo_vec_t;");
    if lane_counts.contains(&2) {
        let _ = writeln!(
            s,
            "static inline slpwlo_vec_t slpwlo_v2(int64_t a, int64_t b)\n{{\n    slpwlo_vec_t v = {{{{ a, b, 0, 0 }}}};\n    return v;\n}}"
        );
    }
    if lane_counts.contains(&4) {
        let _ = writeln!(
            s,
            "static inline slpwlo_vec_t slpwlo_v4(int64_t a, int64_t b, int64_t c, int64_t d)\n{{\n    slpwlo_vec_t v = {{{{ a, b, c, d }}}};\n    return v;\n}}"
        );
    }
    s
}

/// The portable implementations of the *core* abstract SIMD macros for
/// one lane count — loads/stores, exact lane arithmetic and superword
/// build/extract. These are the macros a native-intrinsic mapping can
/// replace.
pub(crate) fn portable_core_macros(lanes: u32) -> String {
    let n = lanes as usize;
    let l = |body: &dyn Fn(usize) -> String| -> String {
        (0..n).map(body).collect::<Vec<_>>().join(", ")
    };
    let ctor = if lanes == 2 { "slpwlo_v2" } else { "slpwlo_v4" };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "#define VLOAD{lanes}(p)  {ctor}({})",
        l(&|i| format!("(int64_t)(p)[{i}]"))
    );
    let _ = writeln!(
        s,
        "#define VSTORE{lanes}(p, v)  ({})",
        l(&|i| format!("(p)[{i}] = (v).l[{i}]"))
    );
    for (name, sym) in [("VADD", "+"), ("VSUB", "-"), ("VMUL", "*")] {
        let _ = writeln!(
            s,
            "#define {name}{lanes}(a, b)  {ctor}({})",
            l(&|i| format!("(a).l[{i}] {sym} (b).l[{i}]"))
        );
    }
    let _ = writeln!(
        s,
        "#define VNEG{lanes}(a)  {ctor}({})",
        l(&|i| format!("-(a).l[{i}]"))
    );
    let pack_args = (0..n)
        .map(|i| format!("a{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        s,
        "#define PACK{lanes}({pack_args})  {ctor}({})",
        l(&|i| format!("(int64_t)(a{i})"))
    );
    let _ = writeln!(
        s,
        "#define SPLAT{lanes}(a)  {ctor}({})",
        l(&|_| "(int64_t)(a)".to_string())
    );
    s
}

/// The portable per-lane *scaling* macros for one lane count —
/// grid shifts and saturation with compile-time immediates. Always
/// portable: the amounts/bounds come from the fixed-point
/// specification, native intrinsic sets have no equivalent form.
pub(crate) fn portable_scaling_macros(lanes: u32) -> String {
    let n = lanes as usize;
    let l = |body: &dyn Fn(usize) -> String| -> String {
        (0..n).map(body).collect::<Vec<_>>().join(", ")
    };
    let ctor = if lanes == 2 { "slpwlo_v2" } else { "slpwlo_v4" };
    let mut s = String::new();
    let shift_args = (0..n)
        .map(|i| format!("s{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        s,
        "#define VSH{lanes}(a, {shift_args})  {ctor}({})",
        l(&|i| format!("slpwlo_shx((a).l[{i}], s{i})"))
    );
    let sat_args = (0..n)
        .map(|i| format!("lo{i}, hi{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        s,
        "#define VSAT{lanes}(a, {sat_args})  {ctor}({})",
        l(&|i| format!("slpwlo_sat((a).l[{i}], lo{i}, hi{i})"))
    );
    s
}

/// `UNPACK` is lane-count agnostic.
pub(crate) const UNPACK_MACRO: &str = "#define UNPACK(v, lane)  ((v).l[lane])\n";

fn int64c(v: i64) -> String {
    format!("INT64_C({v})")
}

/// Renders an index expression against the loop variables `i<id>`.
fn render_ix(ix: &IndexExpr) -> String {
    let mut out = String::new();
    for &(var, c) in ix.terms() {
        if !out.is_empty() {
            out.push_str(" + ");
        }
        if c == 1 {
            let _ = write!(out, "i{}", var.0);
        } else {
            let _ = write!(out, "{c}*i{}", var.0);
        }
    }
    let off = ix.offset();
    if out.is_empty() {
        let _ = write!(out, "{off}");
    } else if off > 0 {
        let _ = write!(out, " + {off}");
    } else if off < 0 {
        let _ = write!(out, " - {}", -off);
    }
    out
}

/// Collects, per op index, whether some later consumer references it.
fn used_results(block: &MachineBlock) -> Vec<bool> {
    let mut used = vec![false; block.ops.len()];
    let mut mark = |o: &Operand| {
        if let Operand::Op(i) = o {
            used[*i] = true;
        }
    };
    for op in &block.ops {
        for o in op.kind.operands() {
            mark(o);
        }
    }
    for (_, def) in &block.var_defs {
        mark(def);
    }
    used
}

/// Variables the program actually touches (reads as live-ins or
/// commits definitions to); the rest are block-local wiring resolved
/// into registers and would be flagged by `-Wunused-variable`.
fn touched_vars(prog: &MachineProgram) -> Vec<bool> {
    let mut touched = vec![false; prog.storage.vars.len()];
    for b in &prog.blocks {
        for (v, def) in &b.var_defs {
            touched[v.index()] = true;
            if let Operand::Var(w) = def {
                touched[w.index()] = true;
            }
        }
        for op in &b.ops {
            for o in op.kind.operands() {
                if let Operand::Var(v) = o {
                    touched[v.index()] = true;
                }
            }
        }
    }
    touched
}

/// Emits the quantized coefficient tables, state arrays and variables.
pub(crate) fn emit_storage(s: &mut String, prog: &MachineProgram) -> Result<(), CodegenError> {
    let storage = &prog.storage;
    for p in &storage.params {
        let ty = ctype(p.fmt.wl(), &format!("parameter table `{}`", p.name))?;
        let _ = writeln!(
            s,
            "/* {} format <{},{}> (quantized at compile time) */",
            p.name, p.fmt.iwl, p.fmt.fwl
        );
        let _ = write!(s, "static const {ty} {}[{}] = {{ ", p.name, p.raws.len());
        for (i, &q) in p.raws.iter().enumerate() {
            if i > 0 {
                let _ = write!(s, ", ");
            }
            if ty == "int64_t" {
                let _ = write!(s, "{}", int64c(q));
            } else {
                let _ = write!(s, "{q}");
            }
        }
        let _ = writeln!(s, " }};");
    }
    for a in &storage.arrays {
        let ty = ctype(a.fmt.wl(), &format!("state array `{}`", a.name))?;
        let _ = writeln!(s, "/* {} format <{},{}> */", a.name, a.fmt.iwl, a.fmt.fwl);
        let _ = writeln!(s, "static {ty} {}[{}];", a.name, a.len);
    }
    let touched = touched_vars(prog);
    for (i, v) in storage.vars.iter().enumerate() {
        if !touched[i] {
            continue;
        }
        if v.fmt.wl() <= 0 || v.fmt.wl() > 64 {
            return Err(CodegenError::InvalidWordLength {
                context: format!("variable `{}`", v.name),
                wl: v.fmt.wl(),
            });
        }
        let _ = writeln!(
            s,
            "/* {} canonical format <{},{}> */",
            v.name, v.fmt.iwl, v.fmt.fwl
        );
        let _ = writeln!(s, "static int64_t {} = 0;", v.name);
    }
    Ok(())
}

/// Emits the `<kernel>_step` driver: signature, per-block loop nests,
/// one statement group per machine operation, and the end-of-iteration
/// variable commits.
pub(crate) fn emit_step(s: &mut String, prog: &MachineProgram) -> Result<(), CodegenError> {
    let storage = &prog.storage;
    let _ = write!(s, "void {}_step(", prog.name);
    let mut first = true;
    for inp in &storage.inputs {
        if !first {
            let _ = write!(s, ", ");
        }
        first = false;
        let _ = write!(s, "double {inp}_in");
    }
    for out in &storage.outputs {
        if !first {
            let _ = write!(s, ", ");
        }
        first = false;
        let _ = write!(s, "double *{out}_out");
    }
    if first {
        let _ = write!(s, "void");
    }
    let _ = writeln!(s, ")\n{{");
    // Silence -Wunused-parameter for inputs no block reads.
    let mut read_inputs = vec![false; storage.inputs.len()];
    for b in &prog.blocks {
        for op in &b.ops {
            if let MopKind::ReadInput { input, .. } = &op.kind {
                read_inputs[input.index()] = true;
            }
        }
    }
    for (i, inp) in storage.inputs.iter().enumerate() {
        if !read_inputs[i] {
            let _ = writeln!(s, "    (void){inp}_in;");
        }
    }
    // Blocks may share enclosing loops (an unrolled inner loop and its
    // remainder under one outer loop): walk the reconstructed loop
    // forest so each shared loop is emitted exactly once and sibling
    // blocks interleave per iteration, as in the source program.
    emit_forest(s, prog, &loop_forest(&prog.blocks), 1)?;
    let _ = writeln!(s, "}}");
    Ok(())
}

fn emit_forest(
    s: &mut String,
    prog: &MachineProgram,
    nests: &[LoopNest],
    indent: usize,
) -> Result<(), CodegenError> {
    let pad = "    ".repeat(indent);
    for nest in nests {
        match nest {
            LoopNest::Block(bi) => {
                let block = &prog.blocks[*bi];
                let _ = writeln!(
                    s,
                    "{pad}/* bb{bi}: {} ops, executes {}x per activation{} */",
                    block.ops.len(),
                    block.trip,
                    if block.in_loop { ", loop body" } else { "" }
                );
                let braced = block.loops.is_empty();
                if braced {
                    let _ = writeln!(s, "{pad}{{");
                }
                let body_indent = if braced { indent + 1 } else { indent };
                emit_block_body(s, prog, block, *bi, body_indent)?;
                if braced {
                    let _ = writeln!(s, "{pad}}}");
                }
            }
            LoopNest::Loop { var, count, body } => {
                let _ = writeln!(
                    s,
                    "{pad}for (int i{0} = 0; i{0} < {count}; i{0}++) {{",
                    var.0
                );
                emit_forest(s, prog, body, indent + 1)?;
                let _ = writeln!(s, "{pad}}}");
            }
        }
    }
    Ok(())
}

/// Renders one block's operations and variable commits.
fn emit_block_body(
    s: &mut String,
    prog: &MachineProgram,
    block: &MachineBlock,
    bi: usize,
    indent: usize,
) -> Result<(), CodegenError> {
    let em = BlockEmitter {
        storage: &prog.storage,
        fmts: block_result_fmts(block, &prog.storage),
        loops: &block.loops,
        bi,
    };
    let used = used_results(block);
    let pad = "    ".repeat(indent);
    for (idx, op) in block.ops.iter().enumerate() {
        for line in em.render_op(idx, &op.kind)? {
            let _ = writeln!(s, "{pad}{line}");
        }
        if !em.fmts[idx].is_empty() && !used[idx] {
            let _ = writeln!(s, "{pad}(void){};", em.reg(idx));
        }
    }
    // Commit variable definitions: materialise every new value first so
    // definitions reading other live-ins still see the entry snapshot.
    if !block.var_defs.is_empty() {
        let _ = writeln!(
            s,
            "{pad}/* variable commits (live-in snapshot semantics) */"
        );
        for (k, (v, def)) in block.var_defs.iter().enumerate() {
            let canon = prog.storage.vars[v.index()].fmt;
            let (expr, from) = em.scalar_operand(def);
            // Canonical storage covers every definition: pure left
            // alignment, saturation unreachable.
            let aligned = em.grid_expr(expr, from, canon.fwl)?;
            let _ = writeln!(s, "{pad}int64_t {} = {aligned};", em.def_tmp(k));
        }
        for (k, (v, _)) in block.var_defs.iter().enumerate() {
            let _ = writeln!(
                s,
                "{pad}{} = {};",
                prog.storage.vars[v.index()].name,
                em.def_tmp(k)
            );
        }
    }
    Ok(())
}

struct BlockEmitter<'a> {
    storage: &'a ProgramStorage,
    fmts: Vec<Vec<QFormat>>,
    loops: &'a [(LoopId, u32)],
    bi: usize,
}

impl BlockEmitter<'_> {
    fn reg(&self, idx: usize) -> String {
        format!("v{}_{idx}", self.bi)
    }

    fn def_tmp(&self, k: usize) -> String {
        format!("v{}_def{k}", self.bi)
    }

    fn scalar_operand(&self, o: &Operand) -> (String, QFormat) {
        match o {
            Operand::Op(i) => (self.reg(*i), self.fmts[*i][0]),
            Operand::Imm { raw, fmt } => (int64c(*raw), *fmt),
            Operand::Var(v) => {
                let decl = &self.storage.vars[v.index()];
                (decl.name.clone(), decl.fmt)
            }
        }
    }

    fn vector_operand(&self, o: &Operand) -> Result<(String, Vec<QFormat>), CodegenError> {
        match o {
            Operand::Op(i) => Ok((self.reg(*i), self.fmts[*i].clone())),
            other => Err(CodegenError::Unsupported(format!(
                "vector operand must be a register, got {other:?}"
            ))),
        }
    }

    fn lane_fmt(fmts: &[QFormat], lane: usize) -> QFormat {
        broadcast_lane(fmts, lane)
    }

    /// Pure grid change (no saturation): floor on downshifts, exact on
    /// upshifts. Errors if the widened raw would overflow 63 bits.
    fn grid_expr(&self, expr: String, from: QFormat, fwl: i32) -> Result<String, CodegenError> {
        let shift = from.fwl - fwl;
        if shift > 0 {
            Ok(format!("slpwlo_shr({expr}, {shift})"))
        } else if shift < 0 {
            let n = -shift;
            if from.wl() + n > 63 {
                return Err(CodegenError::Unsupported(format!(
                    "left alignment by {n} bit(s) overflows a 64-bit register \
                     (operand format <{},{}>)",
                    from.iwl, from.fwl
                )));
            }
            Ok(format!("slpwlo_shl({expr}, {n})"))
        } else {
            Ok(expr)
        }
    }

    /// Full requantization: grid change plus saturation at `to`,
    /// eliding the clamp when `to`'s integer range covers the operand's
    /// (then it is unreachable; `force_sat` keeps it, for negations
    /// where the exact minimum overflows the symmetric bound).
    fn requant_expr(
        &self,
        expr: String,
        from: QFormat,
        to: QFormat,
        force_sat: bool,
    ) -> Result<String, CodegenError> {
        let e = self.grid_expr(expr, from, to.fwl)?;
        if !force_sat && to.iwl >= from.iwl {
            return Ok(e);
        }
        Ok(format!(
            "slpwlo_sat({e}, {}, {})",
            int64c(to.min_raw()),
            int64c(to.max_raw())
        ))
    }

    /// The exact product of two scalar operands on `product_fmt`'s
    /// grid. A plain 64-bit multiply when the operand widths allow it;
    /// otherwise the 128-bit helper floor-shifts the exact product down
    /// to the capped grid (the format every consumer tracks for this
    /// operation).
    fn mul_grid_expr(
        &self,
        ea: &str,
        eb: &str,
        fa: QFormat,
        fb: QFormat,
    ) -> Result<String, CodegenError> {
        // Consumers track this value on `product_fmt`'s grid, which is
        // coarser than the natural product grid whenever the capped
        // container bites — the emitted value must land on that same
        // grid in every case.
        let shift = fa.fwl + fb.fwl - product_fmt(fa, fb).fwl;
        if fa.wl() + fb.wl() <= 64 {
            let prod = format!("({ea}) * ({eb})");
            return Ok(if shift == 0 {
                prod
            } else {
                format!("slpwlo_shr({prod}, {shift})")
            });
        }
        if !(0..=63).contains(&shift) {
            return Err(CodegenError::Unsupported(format!(
                "product of <{},{}> and <{},{}> exceeds 64 bits and cannot be \
                 floor-shifted into range",
                fa.iwl, fa.fwl, fb.iwl, fb.fwl
            )));
        }
        Ok(format!("slpwlo_mul_shr({ea}, {eb}, {shift})"))
    }

    /// The exact product of two scalar operands, requantized to `to`.
    ///
    /// Narrow products (combined operand width <= 64 bits) multiply
    /// directly in a 64-bit register; wider ones — covering variable
    /// storage formats can exceed the target word length, so two of
    /// them can multiply past 64 bits — go through `slpwlo_mul_shr`,
    /// which assembles the exact 128-bit product from 32-bit limbs and
    /// floor-shifts it onto the result grid (bit-identical to the
    /// reference's `i128` arithmetic). The saturation decision uses the
    /// *true* product integer width `fa.iwl + fb.iwl`: `product_fmt`
    /// caps its IWL for raw-bound bookkeeping, and deciding on the
    /// capped value would skip a saturation the reference performs.
    fn mul_requant_expr(
        &self,
        ea: &str,
        eb: &str,
        fa: QFormat,
        fb: QFormat,
        to: QFormat,
    ) -> Result<String, CodegenError> {
        let true_iwl = fa.iwl + fb.iwl;
        let grid_fwl = fa.fwl + fb.fwl;
        let shift = grid_fwl - to.fwl;
        let base = if fa.wl() + fb.wl() <= 64 {
            self.grid_expr(
                format!("({ea}) * ({eb})"),
                QFormat::new(true_iwl, grid_fwl),
                to.fwl,
            )?
        } else if (0..=63).contains(&shift) && true_iwl + to.fwl <= 63 {
            // The shifted exact product spans at most
            // `true_iwl + to.fwl` magnitude bits — the second conjunct
            // guarantees it fits the int64 register *before* the
            // saturation below, mirroring the interpreter's exact i128
            // clamp (slpwlo_mul_shr would otherwise wrap).
            format!("slpwlo_mul_shr({ea}, {eb}, {shift})")
        } else {
            return Err(CodegenError::Unsupported(format!(
                "product of <{},{}> and <{},{}> exceeds 64 bits and cannot be \
                 floor-shifted onto the 2^-{} grid",
                fa.iwl, fa.fwl, fb.iwl, fb.fwl, to.fwl
            )));
        };
        if to.iwl >= true_iwl {
            return Ok(base);
        }
        Ok(format!(
            "slpwlo_sat({base}, {}, {})",
            int64c(to.min_raw()),
            int64c(to.max_raw())
        ))
    }

    /// Static bounds of an affine index over this block's loop nest
    /// (the shared `slpwlo_core::ix_bounds`, so the wrap analysis here
    /// can never disagree with the lowering's gather/scatter decision).
    fn ix_bounds(&self, ix: &IndexExpr) -> (i64, i64) {
        ix_bounds(ix, self.loops)
    }

    /// Renders a location access; indices that can leave `[0, len)` are
    /// wrapped with `slpwlo_idx` to mirror the interpreters' Euclidean
    /// semantics (in-bounds accesses stay direct).
    fn loc_expr(&self, loc: &Loc) -> String {
        let (name, len, ix) = match loc {
            Loc::Array(a, ix) => {
                let d = &self.storage.arrays[a.index()];
                (d.name.as_str(), d.len as i64, ix)
            }
            Loc::Param(p, ix) => {
                let d = &self.storage.params[p.index()];
                (d.name.as_str(), d.raws.len() as i64, ix)
            }
        };
        let (lo, hi) = self.ix_bounds(ix);
        if lo >= 0 && hi < len {
            format!("{name}[{}]", render_ix(ix))
        } else {
            format!("{name}[slpwlo_idx({}, {len})]", render_ix(ix))
        }
    }

    /// A vector access must stay contiguous: per-lane wrapping would
    /// break the single-base-pointer form, so potentially out-of-range
    /// lanes are refused (the interpreter still executes them).
    fn vector_loc_expr(&self, locs: &[Loc]) -> Result<String, CodegenError> {
        for loc in locs {
            let (len, ix) = match loc {
                Loc::Array(a, ix) => (self.storage.arrays[a.index()].len as i64, ix),
                Loc::Param(p, ix) => (self.storage.params[p.index()].raws.len() as i64, ix),
            };
            let (lo, hi) = self.ix_bounds(ix);
            if lo < 0 || hi >= len {
                return Err(CodegenError::Unsupported(format!(
                    "vector access lane index {ix} may leave [0, {len})"
                )));
            }
        }
        Ok(self.loc_expr(&locs[0]))
    }

    fn render_op(&self, idx: usize, kind: &MopKind) -> Result<Vec<String>, CodegenError> {
        let reg = self.reg(idx);
        let lines = match kind {
            MopKind::Opaque => {
                return Err(CodegenError::Unsupported(
                    "cost-model-only (opaque) operation".into(),
                ))
            }
            MopKind::Nop => Vec::new(),
            MopKind::ReadInput { input, to } => {
                let name = &self.storage.inputs[input.index()];
                vec![format!(
                    "int64_t {reg} = slpwlo_quant({name}_in, {}, {}, {});",
                    to.fwl,
                    int64c(to.min_raw()),
                    int64c(to.max_raw())
                )]
            }
            MopKind::Load { loc } => {
                vec![format!("int64_t {reg} = {};", self.loc_expr(loc))]
            }
            MopKind::Store { loc, src, to } => {
                let (e, from) = self.scalar_operand(src);
                let q = self.requant_expr(e, from, *to, false)?;
                vec![format!(
                    "{} = ({}){q};",
                    self.loc_expr(loc),
                    self.store_cast(to, loc)?
                )]
            }
            MopKind::ShiftIn { array, src, to } => {
                let decl = &self.storage.arrays[array.index()];
                let (e, from) = self.scalar_operand(src);
                let q = self.requant_expr(e, from, *to, false)?;
                let name = &decl.name;
                let ty = ctype(to.wl(), &format!("state array `{name}`"))?;
                vec![
                    format!(
                        "for (int k = {}; k > 0; k--) {name}[k] = {name}[k-1]; /* delay line */",
                        decl.len - 1
                    ),
                    format!("{name}[0] = ({ty}){q};"),
                ]
            }
            MopKind::Output { index, src } => {
                let name = &self.storage.outputs[*index];
                let (e, from) = self.scalar_operand(src);
                vec![format!(
                    "*{name}_out = ldexp((double)({e}), {});",
                    -from.fwl
                )]
            }
            MopKind::Bin { op, a, b, to } => {
                let (ea, fa) = self.scalar_operand(a);
                let (eb, fb) = self.scalar_operand(b);
                match op {
                    BinOp::Add | BinOp::Sub => {
                        let t = to.expect("additive ops carry a result format");
                        let aa = self.grid_expr(format!("({ea})"), fa, t.fwl)?;
                        let bb = self.grid_expr(format!("({eb})"), fb, t.fwl)?;
                        let sym = if matches!(op, BinOp::Sub) { "-" } else { "+" };
                        let sum = format!("{aa} {sym} {bb}");
                        let e = if t.iwl > fa.iwl.max(fb.iwl) {
                            sum
                        } else {
                            format!(
                                "slpwlo_sat({sum}, {}, {})",
                                int64c(t.min_raw()),
                                int64c(t.max_raw())
                            )
                        };
                        vec![format!("int64_t {reg} = {e};")]
                    }
                    BinOp::Mul => {
                        let e = match to {
                            // Unrequantized product, kept on the (possibly
                            // capped) `product_fmt` grid; the follow-up
                            // Requant floor-shifts the rest of the way.
                            None => self.mul_grid_expr(&ea, &eb, fa, fb)?,
                            Some(t) => self.mul_requant_expr(&ea, &eb, fa, fb, *t)?,
                        };
                        vec![format!("int64_t {reg} = {e};")]
                    }
                }
            }
            MopKind::Un { src, to } => {
                let (e, from) = self.scalar_operand(src);
                let q = self.requant_expr(format!("-({e})"), from, *to, true)?;
                vec![format!("int64_t {reg} = {q};")]
            }
            MopKind::Requant { src, to } => {
                let (e, from) = self.scalar_operand(src);
                let q = self.requant_expr(e, from, *to, false)?;
                vec![format!("int64_t {reg} = {q};")]
            }
            MopKind::Copy { src } => match src {
                Operand::Op(i) if self.fmts[*i].len() > 1 => {
                    vec![format!("slpwlo_vec_t {reg} = {};", self.reg(*i))]
                }
                _ => {
                    let (e, _) = self.scalar_operand(src);
                    vec![format!("int64_t {reg} = {e};")]
                }
            },
            MopKind::Extract {
                src,
                lane,
                negate,
                to,
            } => {
                let (e, fmts) = self.vector_operand(src)?;
                let from = Self::lane_fmt(&fmts, *lane as usize);
                let mut expr = format!("UNPACK({e}, {lane})");
                if *negate {
                    expr = format!("-({expr})");
                }
                let expr = match to {
                    Some(t) => self.requant_expr(expr, from, *t, *negate)?,
                    None => expr,
                };
                vec![format!("int64_t {reg} = {expr};")]
            }
            MopKind::Pack { lanes } => {
                let n = lanes.len();
                let args: Vec<String> = lanes.iter().map(|o| self.scalar_operand(o).0).collect();
                vec![format!(
                    "slpwlo_vec_t {reg} = PACK{n}({});",
                    args.join(", ")
                )]
            }
            MopKind::Splat { src, lanes } => {
                let (e, _) = self.scalar_operand(src);
                vec![format!("slpwlo_vec_t {reg} = SPLAT{lanes}({e});")]
            }
            MopKind::VLoad { locs } => {
                let n = locs.len();
                vec![format!(
                    "slpwlo_vec_t {reg} = VLOAD{n}(&{});",
                    self.vector_loc_expr(locs)?
                )]
            }
            MopKind::VStore { locs, src, to } => {
                let (e, fmts) = self.vector_operand(src)?;
                let n = locs.len();
                let mut lines = Vec::new();
                let val = self.vector_requant(
                    &format!("{reg}_st"),
                    e,
                    &fmts,
                    &vec![*to; n],
                    false,
                    &mut lines,
                )?;
                lines.push(format!(
                    "VSTORE{n}(&{}, {val});",
                    self.vector_loc_expr(locs)?
                ));
                lines
            }
            MopKind::VBin { op, a, b, to } => {
                let (ea, fas) = self.vector_operand(a)?;
                let (eb, fbs) = self.vector_operand(b)?;
                let n = to
                    .as_ref()
                    .map(|t| t.len())
                    .unwrap_or_else(|| fas.len().max(fbs.len()));
                let mut lines = Vec::new();
                match op {
                    BinOp::Add | BinOp::Sub => {
                        let t = to.as_ref().expect("additive groups carry formats");
                        let aa = self.vector_grid(&format!("{reg}_a"), ea, &fas, t, &mut lines)?;
                        let bb = self.vector_grid(&format!("{reg}_b"), eb, &fbs, t, &mut lines)?;
                        let name = if matches!(op, BinOp::Sub) {
                            "VSUB"
                        } else {
                            "VADD"
                        };
                        let core = format!("{name}{n}({aa}, {bb})");
                        let sat_needed = (0..n).any(|l| {
                            t[l].iwl
                                < Self::lane_fmt(&fas, l).iwl.max(Self::lane_fmt(&fbs, l).iwl) + 1
                        });
                        let e = if sat_needed {
                            self.vsat_expr(core, t)
                        } else {
                            core
                        };
                        lines.push(format!("slpwlo_vec_t {reg} = {e};"));
                    }
                    BinOp::Mul => {
                        let wide = (0..n).any(|l| {
                            Self::lane_fmt(&fas, l).wl() + Self::lane_fmt(&fbs, l).wl() > 64
                        });
                        match (wide, to) {
                            (true, to) => {
                                // Wide operand lanes (covering variable
                                // storage formats) cannot multiply inside
                                // a 64-bit lane: scalarize through the
                                // exact 128-bit helper — requantized to
                                // the carried lane formats, or onto the
                                // capped `product_fmt` grid when the
                                // scaling follows separately — then
                                // repack.
                                let mut lanes = Vec::with_capacity(n);
                                for l in 0..n {
                                    let fa = Self::lane_fmt(&fas, l);
                                    let fb = Self::lane_fmt(&fbs, l);
                                    let la = format!("UNPACK({ea}, {l})");
                                    let lb = format!("UNPACK({eb}, {l})");
                                    let e = match to {
                                        Some(t) => self.mul_requant_expr(&la, &lb, fa, fb, t[l])?,
                                        None => self.mul_grid_expr(&la, &lb, fa, fb)?,
                                    };
                                    let lane = format!("{reg}_l{l}");
                                    lines.push(format!("int64_t {lane} = {e};"));
                                    lanes.push(lane);
                                }
                                lines.push(format!(
                                    "slpwlo_vec_t {reg} = PACK{n}({});",
                                    lanes.join(", ")
                                ));
                            }
                            (false, to) => {
                                let core = format!("VMUL{n}({ea}, {eb})");
                                // VMUL leaves lanes on the *natural*
                                // product grid with the true integer
                                // width — requantization (to the carried
                                // formats, or onto the capped
                                // `product_fmt` grid consumers track)
                                // starts from there, so shift amounts
                                // and saturation decisions stay honest.
                                let natural: Vec<QFormat> = (0..n)
                                    .map(|l| {
                                        let fa = Self::lane_fmt(&fas, l);
                                        let fb = Self::lane_fmt(&fbs, l);
                                        QFormat::new(fa.iwl + fb.iwl, fa.fwl + fb.fwl)
                                    })
                                    .collect();
                                let target: Vec<QFormat> = match to {
                                    Some(t) => t.clone(),
                                    None => (0..n)
                                        .map(|l| {
                                            product_fmt(
                                                Self::lane_fmt(&fas, l),
                                                Self::lane_fmt(&fbs, l),
                                            )
                                        })
                                        .collect(),
                                };
                                if natural == target {
                                    lines.push(format!("slpwlo_vec_t {reg} = {core};"));
                                } else {
                                    let tmp = format!("{reg}_m");
                                    lines.push(format!("slpwlo_vec_t {tmp} = {core};"));
                                    let val = self.vector_requant(
                                        &format!("{reg}_q"),
                                        tmp,
                                        &natural,
                                        &target,
                                        false,
                                        &mut lines,
                                    )?;
                                    lines.push(format!("slpwlo_vec_t {reg} = {val};"));
                                }
                            }
                        }
                    }
                }
                lines
            }
            MopKind::VUn { src, to } => {
                let (e, fmts) = self.vector_operand(src)?;
                let n = to.len();
                let mut lines = Vec::new();
                let neg = format!("VNEG{n}({e})");
                let tmp = format!("{reg}_n");
                lines.push(format!("slpwlo_vec_t {tmp} = {neg};"));
                let val =
                    self.vector_requant(&format!("{reg}_q"), tmp, &fmts, to, true, &mut lines)?;
                lines.push(format!("slpwlo_vec_t {reg} = {val};"));
                lines
            }
            MopKind::VRequant { src, to, negate } => {
                let (e, fmts) = self.vector_operand(src)?;
                let n = to.len();
                let mut lines = Vec::new();
                let e = if *negate {
                    let tmp = format!("{reg}_n");
                    lines.push(format!("slpwlo_vec_t {tmp} = VNEG{n}({e});"));
                    tmp
                } else {
                    e
                };
                let val =
                    self.vector_requant(&format!("{reg}_q"), e, &fmts, to, *negate, &mut lines)?;
                lines.push(format!("slpwlo_vec_t {reg} = {val};"));
                lines
            }
        };
        Ok(lines)
    }

    /// Casts stored values back to the container type (implicit
    /// conversions are exact after the requantization, the cast keeps
    /// the narrowing explicit).
    fn store_cast(&self, to: &QFormat, loc: &Loc) -> Result<&'static str, CodegenError> {
        let context = match loc {
            Loc::Array(a, _) => format!("state array `{}`", self.storage.arrays[a.index()].name),
            Loc::Param(p, _) => {
                format!("parameter table `{}`", self.storage.params[p.index()].name)
            }
        };
        ctype(to.wl(), &context)
    }

    /// Per-lane grid alignment of a superword (no saturation); emits a
    /// temp statement when any lane shifts.
    fn vector_grid(
        &self,
        tmp: &str,
        expr: String,
        fmts: &[QFormat],
        to: &[QFormat],
        lines: &mut Vec<String>,
    ) -> Result<String, CodegenError> {
        let n = to.len();
        let shifts: Vec<i32> = (0..n)
            .map(|l| Self::lane_fmt(fmts, l).fwl - to[l].fwl)
            .collect();
        if shifts.iter().all(|&s| s == 0) {
            return Ok(expr);
        }
        for (l, &s) in shifts.iter().enumerate() {
            let f = Self::lane_fmt(fmts, l);
            if s < 0 && f.wl() + (-s) > 63 {
                return Err(CodegenError::Unsupported(format!(
                    "lane {l} left alignment by {} bit(s) overflows 64-bit lanes",
                    -s
                )));
            }
        }
        let args: Vec<String> = shifts.iter().map(|s| s.to_string()).collect();
        lines.push(format!(
            "slpwlo_vec_t {tmp} = VSH{n}({expr}, {});",
            args.join(", ")
        ));
        Ok(tmp.to_string())
    }

    /// Per-lane requantization of a superword: grid shifts plus
    /// saturation at the per-lane targets (elided when unreachable on
    /// every lane and not forced).
    fn vector_requant(
        &self,
        tmp: &str,
        expr: String,
        fmts: &[QFormat],
        to: &[QFormat],
        force_sat: bool,
        lines: &mut Vec<String>,
    ) -> Result<String, CodegenError> {
        let e = self.vector_grid(tmp, expr, fmts, to, lines)?;
        let n = to.len();
        let sat_needed = force_sat || (0..n).any(|l| to[l].iwl < Self::lane_fmt(fmts, l).iwl);
        if !sat_needed {
            return Ok(e);
        }
        Ok(self.vsat_expr(e, to))
    }

    fn vsat_expr(&self, expr: String, to: &[QFormat]) -> String {
        let n = to.len();
        let bounds: Vec<String> = to
            .iter()
            .map(|t| format!("{}, {}", int64c(t.min_raw()), int64c(t.max_raw())))
            .collect();
        format!("VSAT{n}({expr}, {})", bounds.join(", "))
    }
}
