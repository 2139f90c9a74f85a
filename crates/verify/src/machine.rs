//! The machine-program verifier: well-formedness of a lowered
//! [`MachineProgram`] and a full independent audit of its schedule.
//!
//! Structural checks (per block):
//!
//! * dependence predecessors and `Op` operands point strictly
//!   backwards (the op list is a topological order — the SSA-like
//!   discipline the C emitters' register numbering relies on);
//! * every data operand is *ordered* by the dependence edges (a path
//!   of `preds` reaches the defining op — otherwise the scheduler may
//!   legally issue a use before its def);
//! * every operand references an existing value: in-range op results
//!   that actually produce a value, declared variables, declared
//!   storage;
//! * vector lanes' array/param indices stay inside `[0, len)` under
//!   the block's loop trip counts (scalar accesses may wrap — the
//!   Euclidean semantics every backend shares); stores never target
//!   coefficient tables;
//! * store/shift-in formats equal the destination's storage format,
//!   and each variable's canonical storage format covers the format of
//!   every definition assigned to it (modulo the 62-bit container cap
//!   the lowering applies);
//! * a variable is defined at most once per block;
//! * vector widths have a SIMD configuration on the target, and
//!   requantization shifts fit the 63-bit grid on every lane.
//!
//! Schedule checks (per block, against the scheduler's issue log — the
//! list scheduler's, or the modulo scheduler's when the flow pipelines):
//!
//! * no op issues before every predecessor's result is available;
//! * per cycle, no functional-unit class exceeds its capacity and the
//!   total stays within the issue width (for a pipelined schedule the
//!   usage is folded modulo the initiation interval and re-totaled
//!   per residue);
//! * every op's logged slots add up to its full cost;
//! * serializing ops (soft-float calls) share no cycle with any other
//!   op — and never appear in a pipelined schedule at all;
//! * a pipelined schedule satisfies every loop-carried dependence
//!   across the II (`start[to] + ii ≥ finish[from]`) over carried
//!   edges this checker re-derives itself from `var_defs` and the
//!   block's array accesses, leaves headroom for the loop-control ops
//!   in the steady state, and splits its makespan exactly into
//!   prologue + epilogue.

use crate::{Invariant, Pass, VerifyError};
use slpwlo_core::{
    broadcast_lane, ix_bounds, operand_fmts, result_fmt, schedule_block_cached, Loc, MachineBlock,
    MachineProgram, ModuloSchedule, MopKind, Operand, Schedule,
};
use slpwlo_fixedpoint::QFormat;
use slpwlo_targets::{CycleCache, OpClass, OpCost, OpQuery, SchedKind, TargetModel};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

struct Ctx<'a> {
    program: &'a MachineProgram,
    block: usize,
}

impl Ctx<'_> {
    fn err(
        &self,
        invariant: Invariant,
        op: Option<usize>,
        detail: impl Into<String>,
    ) -> VerifyError {
        VerifyError::new(
            Pass::Machine,
            invariant,
            format!("program {} block {}", self.program.name, self.block),
            op.map(|i| format!("op {i}")),
            detail,
        )
    }
}

/// Value operands of an operation's executable semantics.
fn kind_operands(kind: &MopKind) -> Vec<&Operand> {
    match kind {
        MopKind::ReadInput { .. }
        | MopKind::Load { .. }
        | MopKind::VLoad { .. }
        | MopKind::Nop
        | MopKind::Opaque => Vec::new(),
        MopKind::Store { src, .. }
        | MopKind::ShiftIn { src, .. }
        | MopKind::Output { src, .. }
        | MopKind::Un { src, .. }
        | MopKind::Requant { src, .. }
        | MopKind::Copy { src }
        | MopKind::VStore { src, .. }
        | MopKind::VUn { src, .. }
        | MopKind::VRequant { src, .. }
        | MopKind::Splat { src, .. }
        | MopKind::Extract { src, .. } => vec![src],
        MopKind::Bin { a, b, .. } | MopKind::VBin { a, b, .. } => vec![a, b],
        MopKind::Pack { lanes } => lanes.iter().collect(),
    }
}

/// Locations an operation touches, as `(loc, writes, vector)`.
fn kind_locs(kind: &MopKind) -> Vec<(&Loc, bool, bool)> {
    match kind {
        MopKind::Load { loc } => vec![(loc, false, false)],
        MopKind::Store { loc, .. } => vec![(loc, true, false)],
        MopKind::VLoad { locs } => locs.iter().map(|l| (l, false, true)).collect(),
        MopKind::VStore { locs, .. } => locs.iter().map(|l| (l, true, true)).collect(),
        _ => Vec::new(),
    }
}

fn query_lanes(q: OpQuery) -> Option<u32> {
    match q {
        OpQuery::VAdd(l)
        | OpQuery::VMul(l)
        | OpQuery::VShift(l)
        | OpQuery::VLoad(l)
        | OpQuery::VStore(l)
        | OpQuery::VLoadU(l)
        | OpQuery::VStoreU(l) => Some(l),
        _ => None,
    }
}

/// Verifies a lowered program's structural invariants and re-audits its
/// list schedule against `target`'s resource model.
pub fn verify_program(program: &MachineProgram, target: &TargetModel) -> Result<(), VerifyError> {
    verify_program_sched(program, target, SchedKind::List)
}

/// [`verify_program`] auditing the schedule the flow actually prices:
/// under [`SchedKind::Modulo`], blocks the scheduler pipelines are
/// checked against the modulo invariants (II-shifted dependences,
/// per-residue steady-state budgets) instead of the flat-cycle audit.
pub fn verify_program_sched(
    program: &MachineProgram,
    target: &TargetModel,
    kind: SchedKind,
) -> Result<(), VerifyError> {
    let costs = CycleCache::new(target);
    for (bi, block) in program.blocks.iter().enumerate() {
        let ctx = Ctx { program, block: bi };
        verify_block_structure(&ctx, block, target)?;
        let sched = schedule_block_cached(&costs, block, kind);
        audit_schedule(&ctx, block, target, &sched)?;
    }
    Ok(())
}

/// Audits an externally supplied schedule of `program`'s block
/// `block_index` against `target`'s resource model — the same audit
/// [`verify_program_sched`] applies to the schedules it computes
/// itself. Public so tests can prove the checker *rejects* corrupted
/// schedules (a hand-shifted steady state, a decremented II) rather
/// than merely accepting everything the scheduler emits.
pub fn audit_block_schedule(
    program: &MachineProgram,
    block_index: usize,
    target: &TargetModel,
    sched: &Schedule,
) -> Result<(), VerifyError> {
    let ctx = Ctx {
        program,
        block: block_index,
    };
    audit_schedule(&ctx, &program.blocks[block_index], target, sched)
}

/// Checks one location access. Scalar accesses are free to leave
/// `[0, len)` — every backend wraps them with the shared Euclidean
/// semantics — but a *vector* lane must be statically in-bounds: the
/// lowering demotes wrapping groups to gathers, and the SIMD C emitter
/// reads `VLOADn(&arr[base])` contiguously, so a wrapping lane would
/// run off the end of the table.
fn check_loc(
    ctx: &Ctx<'_>,
    i: usize,
    block: &MachineBlock,
    loc: &Loc,
    vector: bool,
) -> Result<(), VerifyError> {
    let storage = &ctx.program.storage;
    let (name, len, ix) = match loc {
        Loc::Array(a, ix) => {
            let Some(decl) = storage.arrays.get(a.index()) else {
                return Err(ctx.err(Invariant::BadOperand, Some(i), format!("undeclared {a}")));
            };
            (&decl.name, decl.len, ix)
        }
        Loc::Param(p, ix) => {
            let Some(decl) = storage.params.get(p.index()) else {
                return Err(ctx.err(Invariant::BadOperand, Some(i), format!("undeclared {p}")));
            };
            (&decl.name, decl.raws.len(), ix)
        }
    };
    let (lo, hi) = ix_bounds(ix, &block.loops);
    if vector && (lo < 0 || hi >= len as i64) {
        return Err(ctx.err(
            Invariant::IndexOutOfBounds,
            Some(i),
            format!("vector lane index of {name} spans [{lo}, {hi}] but length is {len}"),
        ));
    }
    Ok(())
}

fn verify_block_structure(
    ctx: &Ctx<'_>,
    block: &MachineBlock,
    target: &TargetModel,
) -> Result<(), VerifyError> {
    let storage = &ctx.program.storage;
    let n = block.ops.len();
    let words = n.div_ceil(64);
    // Transitive closure over `preds` as bitsets: `reach[i]` holds every
    // op a dependence path from `i` leads back to. Cheap because preds
    // point strictly backwards.
    let mut reach: Vec<Vec<u64>> = Vec::with_capacity(n);

    let check_operand = |i: usize, o: &Operand| -> Result<(), VerifyError> {
        match o {
            Operand::Op(j) => {
                if *j >= i {
                    return Err(ctx.err(
                        Invariant::PredOrder,
                        Some(i),
                        format!("operand references op {j}, which does not precede it"),
                    ));
                }
            }
            Operand::Var(v) => {
                if v.index() >= storage.vars.len() {
                    return Err(ctx.err(
                        Invariant::BadOperand,
                        Some(i),
                        format!("undeclared variable {v}"),
                    ));
                }
            }
            Operand::Imm { .. } => {}
        }
        Ok(())
    };

    let mut fmts: Vec<Vec<QFormat>> = Vec::with_capacity(n);
    for (i, op) in block.ops.iter().enumerate() {
        let mut row = vec![0u64; words];
        for &p in &op.preds {
            if p >= i {
                return Err(ctx.err(
                    Invariant::PredOrder,
                    Some(i),
                    format!("dependence on op {p}, which does not precede it"),
                ));
            }
            row[p / 64] |= 1 << (p % 64);
            for (w, r) in row.iter_mut().zip(&reach[p]) {
                *w |= r;
            }
        }

        for o in kind_operands(&op.kind) {
            check_operand(i, o)?;
            if let Operand::Op(j) = o {
                if row[j / 64] & (1 << (j % 64)) == 0 {
                    return Err(ctx.err(
                        Invariant::PredOrder,
                        Some(i),
                        format!("data operand op {j} is not ordered by any dependence path"),
                    ));
                }
                if fmts[*j].is_empty() {
                    return Err(ctx.err(
                        Invariant::BadOperand,
                        Some(i),
                        format!("operand op {j} produces no value"),
                    ));
                }
            }
        }
        reach.push(row);

        for (loc, writes, vector) in kind_locs(&op.kind) {
            check_loc(ctx, i, block, loc, vector)?;
            if writes && matches!(loc, Loc::Param(..)) {
                return Err(ctx.err(
                    Invariant::BadOperand,
                    Some(i),
                    "store targets a coefficient table",
                ));
            }
        }

        match &op.kind {
            MopKind::ReadInput { input, .. } if input.index() >= storage.inputs.len() => {
                return Err(ctx.err(
                    Invariant::BadOperand,
                    Some(i),
                    format!("undeclared input {input}"),
                ));
            }
            MopKind::Output { index, .. } if *index >= storage.outputs.len() => {
                return Err(ctx.err(
                    Invariant::BadOperand,
                    Some(i),
                    format!(
                        "output #{index} of {} declared outputs",
                        storage.outputs.len()
                    ),
                ));
            }
            MopKind::ShiftIn { array, to, .. } => {
                let Some(decl) = storage.arrays.get(array.index()) else {
                    return Err(ctx.err(
                        Invariant::BadOperand,
                        Some(i),
                        format!("undeclared {array}"),
                    ));
                };
                if *to != decl.fmt {
                    return Err(ctx.err(
                        Invariant::FormatNotCovering,
                        Some(i),
                        format!(
                            "shift-in writes Q{}.{} into {} stored as Q{}.{}",
                            to.iwl, to.fwl, decl.name, decl.fmt.iwl, decl.fmt.fwl
                        ),
                    ));
                }
            }
            MopKind::Store { loc, to, .. } => {
                check_store_fmt(ctx, i, storage.loc_fmt(loc), *to)?;
            }
            MopKind::VStore { locs, to, .. } => {
                for loc in locs {
                    check_store_fmt(ctx, i, storage.loc_fmt(loc), *to)?;
                }
            }
            _ => {}
        }

        if let Some(l) = query_lanes(op.query) {
            if !target.simd.iter().any(|c| c.lanes == l) {
                return Err(ctx.err(
                    Invariant::UnsupportedWidth,
                    Some(i),
                    format!("{} has no {l}-lane SIMD configuration", target.name),
                ));
            }
        }

        // Requantization shifts stay on the 63-bit grid (per lane —
        // the vector shift macro takes one amount per lane, so lanes
        // may legitimately differ).
        if let MopKind::Requant { src, to } = &op.kind {
            let from = operand_fmts(src, &fmts, storage)[0];
            check_shift(ctx, i, from.fwl - to.fwl)?;
        }
        if let MopKind::VRequant { src, to, .. } = &op.kind {
            let from = operand_fmts(src, &fmts, storage);
            for (lane, t) in to.iter().enumerate() {
                let f = broadcast_lane(&from, lane);
                check_shift(ctx, i, f.fwl - t.fwl)?;
            }
        }

        fmts.push(result_fmt(&op.kind, &fmts, storage));
    }

    // Variable definitions: declared, unique, and covered by storage.
    let mut seen: HashSet<usize> = HashSet::new();
    for (v, o) in &block.var_defs {
        let Some(decl) = storage.vars.get(v.index()) else {
            return Err(ctx.err(
                Invariant::BadOperand,
                None,
                format!("var_defs names undeclared variable {v}"),
            ));
        };
        if !seen.insert(v.index()) {
            return Err(ctx.err(
                Invariant::Redefinition,
                None,
                format!("variable {} defined twice in one block", decl.name),
            ));
        }
        if let Operand::Op(j) = o {
            if *j >= block.ops.len() {
                return Err(ctx.err(
                    Invariant::BadOperand,
                    None,
                    format!("var_defs for {} references op {j} of {}", decl.name, n),
                ));
            }
        }
        let def = operand_fmts(o, &fmts, storage);
        if let Some(f) = def.first() {
            let vf = decl.fmt;
            let capped = vf.iwl + vf.fwl >= 62 && vf.fwl >= f.fwl;
            if !vf.covers(*f) && !capped {
                return Err(ctx.err(
                    Invariant::FormatNotCovering,
                    None,
                    format!(
                        "variable {} stored as Q{}.{} cannot cover definition Q{}.{}",
                        decl.name, vf.iwl, vf.fwl, f.iwl, f.fwl
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn check_store_fmt(
    ctx: &Ctx<'_>,
    i: usize,
    storage_fmt: QFormat,
    to: QFormat,
) -> Result<(), VerifyError> {
    if to != storage_fmt {
        return Err(ctx.err(
            Invariant::FormatNotCovering,
            Some(i),
            format!(
                "store requantizes to Q{}.{} but the location is stored as Q{}.{}",
                to.iwl, to.fwl, storage_fmt.iwl, storage_fmt.fwl
            ),
        ));
    }
    Ok(())
}

fn check_shift(ctx: &Ctx<'_>, i: usize, shift: i32) -> Result<(), VerifyError> {
    if shift.abs() > 62 {
        return Err(ctx.err(
            Invariant::FormatNotCovering,
            Some(i),
            format!("requantization shift {shift} exceeds the 63-bit grid"),
        ));
    }
    Ok(())
}

/// The verifier's own loop-carried (distance-1) dependence derivation,
/// deliberately re-coded rather than shared with the scheduler's:
/// `var_defs` commits make next-iteration readers depend on the
/// defining op, and every array *written* in the block (stores, vector
/// stores, shift-ins) conservatively conflicts writer↔toucher across
/// iterations, including an op against its own next copy.
fn carried_edges(block: &MachineBlock) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (v, def) in &block.var_defs {
        let Operand::Op(j) = def else { continue };
        for (i, op) in block.ops.iter().enumerate() {
            if kind_operands(&op.kind)
                .into_iter()
                .any(|o| matches!(o, Operand::Var(r) if r == v))
            {
                edges.push((*j, i));
            }
        }
    }
    // (array, writes) pairs per op; `kind_locs` covers loads/stores,
    // shift-in rewrites its whole array.
    let touches = |op: &slpwlo_core::Mop| -> Vec<(usize, bool)> {
        let mut t: Vec<(usize, bool)> = kind_locs(&op.kind)
            .into_iter()
            .filter_map(|(loc, writes, _)| match loc {
                Loc::Array(a, _) => Some((a.index(), writes)),
                Loc::Param(..) => None,
            })
            .collect();
        if let MopKind::ShiftIn { array, .. } = &op.kind {
            t.push((array.index(), true));
        }
        t
    };
    let per_op: Vec<Vec<(usize, bool)>> = block.ops.iter().map(touches).collect();
    let written: BTreeSet<usize> = per_op
        .iter()
        .flatten()
        .filter(|(_, w)| *w)
        .map(|(a, _)| *a)
        .collect();
    for &a in &written {
        let touchers: Vec<usize> = (0..block.ops.len())
            .filter(|&i| per_op[i].iter().any(|&(t, _)| t == a))
            .collect();
        for &w in touchers
            .iter()
            .filter(|&&i| per_op[i].iter().any(|&(t, wr)| t == a && wr))
        {
            for &t in &touchers {
                edges.push((w, t));
                edges.push((t, w));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn audit_schedule(
    ctx: &Ctx<'_>,
    block: &MachineBlock,
    target: &TargetModel,
    sched: &Schedule,
) -> Result<(), VerifyError> {
    let costs: Vec<_> = block.ops.iter().map(|op| target.cost(op.query)).collect();

    for (i, op) in block.ops.iter().enumerate() {
        for &p in &op.preds {
            if sched.start[i] < sched.finish[p] {
                return Err(ctx.err(
                    Invariant::IssueBeforeReady,
                    Some(i),
                    format!(
                        "issues at cycle {} but op {p} finishes at {}",
                        sched.start[i], sched.finish[p]
                    ),
                ));
            }
        }
        if sched.finish[i] < sched.start[i] {
            return Err(ctx.err(
                Invariant::IssueBeforeReady,
                Some(i),
                format!(
                    "finish {} precedes start {}",
                    sched.finish[i], sched.start[i]
                ),
            ));
        }
    }

    // Re-total the issue log against per-cycle budgets.
    let mut per_cycle: BTreeMap<u64, Vec<(usize, u32)>> = BTreeMap::new();
    let mut slots_of = vec![0u32; block.ops.len()];
    for &(i, cycle, slots) in &sched.issues {
        per_cycle.entry(cycle).or_default().push((i, slots));
        if !costs[i].serialize {
            slots_of[i] += slots;
        }
    }
    for (i, cost) in costs.iter().enumerate() {
        if !cost.serialize && slots_of[i] != cost.slots {
            return Err(ctx.err(
                Invariant::ResourceOverflow,
                Some(i),
                format!(
                    "schedule placed {} of {} unit slots",
                    slots_of[i], cost.slots
                ),
            ));
        }
    }
    if let Some(m) = &sched.modulo {
        return audit_modulo_overlay(ctx, block, target, sched, &costs, m);
    }
    for (cycle, entries) in &per_cycle {
        let serialized = entries.iter().find(|&&(i, _)| costs[i].serialize);
        if let Some(&(si, _)) = serialized {
            if entries.iter().any(|&(i, _)| i != si) {
                return Err(ctx.err(
                    Invariant::SerializedOverlap,
                    Some(si),
                    format!("cycle {cycle} shares the machine with other ops"),
                ));
            }
            continue;
        }
        let mut class_used: HashMap<OpClass, u32> = HashMap::new();
        let mut total = 0u32;
        for &(i, slots) in entries {
            *class_used.entry(costs[i].class).or_default() += slots;
            total += slots;
        }
        if total > target.issue_width {
            return Err(ctx.err(
                Invariant::ResourceOverflow,
                None,
                format!(
                    "cycle {cycle} issues {total} ops on a {}-wide machine",
                    target.issue_width
                ),
            ));
        }
        for (class, used) in class_used {
            let cap = target.units.of(class);
            if used > cap {
                return Err(ctx.err(
                    Invariant::ResourceOverflow,
                    None,
                    format!("cycle {cycle} uses {used} {class:?} slots of {cap}"),
                ));
            }
        }
    }
    Ok(())
}

/// The modulo-specific half of the schedule audit: everything the flat
/// per-cycle check cannot see once iterations overlap. The steady-state
/// resource usage is re-derived here from the issue log alone — folded
/// modulo the II per residue — never read back from the scheduler's
/// reservation table.
fn audit_modulo_overlay(
    ctx: &Ctx<'_>,
    block: &MachineBlock,
    target: &TargetModel,
    sched: &Schedule,
    costs: &[OpCost],
    m: &ModuloSchedule,
) -> Result<(), VerifyError> {
    if m.ii == 0 {
        return Err(ctx.err(
            Invariant::SteadyStateOverflow,
            None,
            "initiation interval must be at least 1",
        ));
    }
    if m.prologue + m.epilogue != sched.makespan {
        return Err(ctx.err(
            Invariant::SteadyStateOverflow,
            None,
            format!(
                "prologue {} + epilogue {} must reassemble makespan {}",
                m.prologue, m.epilogue, sched.makespan
            ),
        ));
    }
    // A serializing op blocks the whole machine and cannot overlap with
    // any other iteration's ops — it has no place in a pipeline.
    if let Some(i) = costs.iter().position(|c| c.serialize) {
        return Err(ctx.err(
            Invariant::SerializedOverlap,
            Some(i),
            "serializing op inside a pipelined schedule",
        ));
    }
    // II-shifted loop-carried dependences: iteration k+1's consumer
    // (start + ii in absolute cycles) must not precede iteration k's
    // producer finishing.
    for (from, to) in carried_edges(block) {
        if sched.start[to] + m.ii < sched.finish[from] {
            return Err(ctx.err(
                Invariant::LoopCarriedOrder,
                Some(to),
                format!(
                    "starts at {} (+ II {}) but carried producer op {from} finishes at {}",
                    sched.start[to], m.ii, sched.finish[from]
                ),
            ));
        }
    }
    // Steady-state budgets: fold the issue log per residue and re-check
    // every cap; in the steady state one copy of every logged slot is
    // in flight per II window.
    let mut residue_class: HashMap<(u64, OpClass), u32> = HashMap::new();
    let mut residue_issue: HashMap<u64, u32> = HashMap::new();
    let mut total_slots = 0u64;
    for &(i, cycle, slots) in &sched.issues {
        let r = cycle % m.ii;
        *residue_class.entry((r, costs[i].class)).or_default() += slots;
        *residue_issue.entry(r).or_default() += slots;
        total_slots += slots as u64;
    }
    for ((r, class), used) in residue_class {
        let cap = target.units.of(class);
        if used > cap {
            return Err(ctx.err(
                Invariant::SteadyStateOverflow,
                None,
                format!("residue {r} uses {used} {class:?} slots of {cap}"),
            ));
        }
    }
    for (r, used) in residue_issue {
        if used > target.issue_width {
            return Err(ctx.err(
                Invariant::SteadyStateOverflow,
                None,
                format!(
                    "residue {r} issues {used} ops on a {}-wide machine",
                    target.issue_width
                ),
            ));
        }
    }
    // The loop-control ops run every iteration too; the steady state
    // must leave them aggregate issue headroom inside one II window.
    let window = m.ii * target.issue_width as u64;
    if total_slots + target.loop_overhead_ops as u64 > window {
        return Err(ctx.err(
            Invariant::SteadyStateOverflow,
            None,
            format!(
                "{total_slots} slots + {} loop-control ops exceed the II window of {window}",
                target.loop_overhead_ops
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Invariant;
    use slpwlo_core::{prepare, wlo_slp_flow_checked, BenefitKind};
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::{st240, xentium};

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

    fn programs(target: &TargetModel) -> (MachineProgram, MachineProgram) {
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let res = wlo_slp_flow_checked(
            &prep,
            target,
            -40.0,
            BenefitKind::default(),
            SchedKind::List,
            &mut |_| Ok::<(), std::convert::Infallible>(()),
        )
        .unwrap();
        (res.simd, res.scalar)
    }

    #[test]
    fn accepts_flow_lowerings() {
        for target in [xentium(), st240()] {
            let (simd, scalar) = programs(&target);
            verify_program(&simd, &target).unwrap();
            verify_program(&scalar, &target).unwrap();
        }
    }

    #[test]
    fn kills_reordered_dependent_ops() {
        let target = xentium();
        let (_, mut scalar) = programs(&target);
        // Swap some op with one of its own predecessors: the dependence
        // (or a data operand) now points forward.
        let mut swapped = false;
        'outer: for block in &mut scalar.blocks {
            for i in 0..block.ops.len() {
                if let Some(&p) = block.ops[i].preds.first() {
                    block.ops.swap(i, p);
                    swapped = true;
                    break 'outer;
                }
            }
        }
        assert!(swapped, "FIR must have at least one dependence");
        let e = verify_program(&scalar, &target).unwrap_err();
        assert_eq!(e.invariant, Invariant::PredOrder);
    }

    #[test]
    fn kills_a_corrupted_store_format() {
        let target = xentium();
        let (_, mut scalar) = programs(&target);
        let mut corrupted = false;
        'outer: for block in &mut scalar.blocks {
            for op in &mut block.ops {
                if let MopKind::ShiftIn { to, .. } | MopKind::Store { to, .. } = &mut op.kind {
                    *to = QFormat::new(to.iwl + 1, to.fwl - 1);
                    corrupted = true;
                    break 'outer;
                }
            }
        }
        assert!(corrupted, "FIR must store into its delay line");
        let e = verify_program(&scalar, &target).unwrap_err();
        assert_eq!(e.invariant, Invariant::FormatNotCovering);
    }

    #[test]
    fn kills_an_unsupported_vector_width() {
        let target = st240();
        let (mut simd, _) = programs(&target);
        let mut corrupted = false;
        'outer: for block in &mut simd.blocks {
            for op in &mut block.ops {
                if let Some(l) = query_lanes(op.query) {
                    op.query = match op.query {
                        OpQuery::VLoad(_) => OpQuery::VLoad(l + 13),
                        OpQuery::VAdd(_) => OpQuery::VAdd(l + 13),
                        OpQuery::VMul(_) => OpQuery::VMul(l + 13),
                        q => q,
                    };
                    corrupted = true;
                    break 'outer;
                }
            }
        }
        assert!(corrupted, "ST240 flow must vectorize FIR");
        let e = verify_program(&simd, &target).unwrap_err();
        assert_eq!(e.invariant, Invariant::UnsupportedWidth);
    }

    /// Scalar accesses wrap (defined Euclidean semantics); only vector
    /// lanes must be statically in-bounds.
    #[test]
    fn scalar_locs_may_wrap_but_vector_lanes_must_not() {
        use slpwlo_ir::IndexExpr;
        let target = xentium();
        let (_, scalar) = programs(&target);

        // Scalar leg: push a Load's index past the end — still clean.
        let mut wrapped = scalar.clone();
        let mut mutated = false;
        'outer: for block in &mut wrapped.blocks {
            for op in &mut block.ops {
                if let MopKind::Load { loc } = &mut op.kind {
                    let (Loc::Array(_, ix) | Loc::Param(_, ix)) = loc;
                    *ix = IndexExpr::constant(-1);
                    mutated = true;
                    break 'outer;
                }
            }
        }
        assert!(mutated, "FIR must load from a table");
        verify_program(&wrapped, &target).unwrap();

        // SIMD leg: a wrapping vector lane is a hard error (the C
        // emitter reads vector locs contiguously). Not every target's
        // grouping realises a vector load on FIR, so probe both.
        let mut mutated = false;
        for target in [xentium(), st240()] {
            let (simd, _) = programs(&target);
            let mut wrapped = simd.clone();
            'outer: for block in &mut wrapped.blocks {
                for op in &mut block.ops {
                    if let MopKind::VLoad { locs } | MopKind::VStore { locs, .. } = &mut op.kind {
                        let (Loc::Array(_, ix) | Loc::Param(_, ix)) = &mut locs[0];
                        *ix = IndexExpr::constant(-1);
                        mutated = true;
                        break 'outer;
                    }
                }
            }
            if !mutated {
                continue;
            }
            let e = verify_program(&wrapped, &target).unwrap_err();
            assert_eq!(e.invariant, Invariant::IndexOutOfBounds);
            break;
        }
        assert!(mutated, "no target's FIR lowering emitted a vector access");
    }
}
