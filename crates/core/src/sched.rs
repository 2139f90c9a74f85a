//! Block scheduling: resource-constrained list scheduling and iterative
//! modulo scheduling (software pipelining).
//!
//! Two schedulers share one [`Schedule`] artifact, selected by
//! [`SchedKind`]:
//!
//! * [`SchedKind::List`] — sequential issue: each loop iteration runs to
//!   completion before the next starts. This is the historical model and
//!   stays bit-identical to what it always produced.
//! * [`SchedKind::Modulo`] — software pipelining for in-loop blocks: a
//!   branch-and-bound search places one iteration's ops so that copies
//!   started every `ii` cycles (the initiation interval) respect both the
//!   II-shifted dependences (including loop-carried variable and memory
//!   dependences) and the per-cycle unit/issue budgets folded modulo
//!   `ii`. The search starts at the `max(ResMII, RecMII)` lower bound and
//!   walks candidate IIs upward; a trial budget caps the search **per
//!   candidate II**, and any failure — every II abandoned or infeasible,
//!   no profitable II — falls back to the list schedule, so pricing is
//!   always defined.
//!
//! Both book slots in one reservation table, whose rows count the issue
//! slots and each unit class's slots taken in a cycle: flat, one row per
//! cycle, for list scheduling; folded modulo the II for modulo
//! scheduling. One greedy routine spreads an op's unit slots over it for
//! both.
//!
//! A pipelined block's trip-weighted cost is
//! `prologue + ii·(trip−1) + epilogue` (fill, steady state, drain) plus
//! the loop-control overhead charged **once**: in the steady state the
//! loop-control ops share issue slots with the overlapped iterations (the
//! folded table pre-reserves them), instead of serializing after every
//! iteration as they do under sequential issue. One function prices
//! every schedule, so the modulo search's profitability test and the
//! block price cannot disagree.

use crate::lower::{Loc, MachineBlock, MachineProgram, MopKind, Operand};
use slpwlo_targets::{CycleCache, OpClass, OpCost, OpQuery, SchedKind, TargetModel};
use std::collections::HashMap;

/// The pipelined overlay of a modulo schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuloSchedule {
    /// Initiation interval: a new iteration starts every `ii` cycles.
    pub ii: u64,
    /// Fill cycles before the first iteration completes
    /// (`makespan − ii`, saturating).
    pub prologue: u64,
    /// Drain cycles of the last iteration (`makespan − prologue`), so
    /// `prologue + epilogue == makespan` exactly — an audited identity.
    pub epilogue: u64,
}

/// Schedule of one block: per-op issue cycles and the block makespan.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Cycle at which each operation issues (first slot for macro-ops).
    pub start: Vec<u64>,
    /// Cycle at which each operation's result is available.
    pub finish: Vec<u64>,
    /// Total cycles for one execution of the block (one iteration's
    /// placement under a modulo schedule).
    pub makespan: u64,
    /// Issue log: one `(op index, cycle, slots)` entry per cycle in
    /// which an operation occupies unit slots. Serializing operations
    /// log their whole blocked window at full issue width. This is the
    /// raw material an independent checker (`slpwlo-verify`) audits
    /// against the target's per-cycle budgets (folded modulo `ii` for
    /// pipelined schedules).
    pub issues: Vec<(usize, u64, u32)>,
    /// Pipelined overlay: `Some` when the block was modulo-scheduled,
    /// `None` for a flat list schedule (including every modulo
    /// fallback).
    pub modulo: Option<ModuloSchedule>,
}

/// Every functional-unit class.
const CLASSES: [OpClass; 5] = [
    OpClass::Alu,
    OpClass::Mul,
    OpClass::Mem,
    OpClass::Shift,
    OpClass::Fpu,
];

/// The issue-slot column of a reservation-table row.
const WIDTH: usize = 0;

/// The column of a reservation-table row counting `class`'s unit slots.
fn col(class: OpClass) -> usize {
    1 + class as usize
}

/// Per-cycle reservation table of both schedulers: each row counts the
/// issue slots and the unit slots of every [`OpClass`] taken in one cycle.
///
/// A flat table (`FOLDED = false`, list scheduling) has one row per
/// absolute cycle and grows on demand. A folded table (`FOLDED = true`,
/// modulo scheduling) has one row per residue modulo the II, so every
/// copy of an iteration started `ii` cycles apart books the same rows.
struct Table<const FOLDED: bool> {
    /// Per-row capacities: the issue width, then each class's units.
    cap: [u32; 6],
    /// The folding period; unused by a flat table.
    ii: u64,
    rows: Vec<[u32; 6]>,
}

impl<const FOLDED: bool> Table<FOLDED> {
    fn new(target: &TargetModel, ii: u64) -> Self {
        let mut cap = [target.issue_width; 6];
        for class in CLASSES {
            cap[col(class)] = target.units.of(class);
        }
        let rows = if FOLDED { ii as usize } else { 0 };
        Table {
            cap,
            ii,
            rows: vec![[0; 6]; rows],
        }
    }

    /// The row of the cycle after row `r`'s.
    fn next(&self, r: usize) -> usize {
        if FOLDED && r + 1 == self.rows.len() {
            0
        } else {
            r + 1
        }
    }

    /// Free issue+unit slots of `class` in row `r`.
    fn free(&self, class: OpClass, r: usize) -> u32 {
        // A flat table has not grown to rows nothing has booked yet.
        let used = if FOLDED {
            self.rows[r]
        } else {
            self.rows.get(r).copied().unwrap_or([0; 6])
        };
        let c = col(class);
        (self.cap[c].saturating_sub(used[c])).min(self.cap[WIDTH].saturating_sub(used[WIDTH]))
    }

    fn take(&mut self, class: OpClass, r: usize, n: u32) {
        if !FOLDED && r >= self.rows.len() {
            self.rows.resize(r + 1, [0; 6]);
        }
        let row = &mut self.rows[r];
        row[col(class)] += n;
        row[WIDTH] += n;
        debug_assert!(row[WIDTH] <= self.cap[WIDTH]);
    }

    /// Places op `op`'s `slots` unit issues of `class` greedily from cycle
    /// `from` (in row `from_row`), which must have a free slot of `class`,
    /// logging each cycle's share in `issues`, and returns the last cycle
    /// used — `None` when a folded table has no free slot of `class` at
    /// any residue (the slots taken so far stay booked and logged for the
    /// caller to roll back).
    fn spread(
        &mut self,
        op: usize,
        class: OpClass,
        slots: u32,
        (from, from_row): (u64, usize),
        issues: &mut Vec<(usize, u64, u32)>,
    ) -> Option<u64> {
        let mut remaining = slots;
        let (mut cur, mut r) = (from, from_row);
        let mut zero_run = 0u64;
        while remaining > 0 {
            let free = self.free(class, r);
            if free == 0 {
                zero_run += 1;
                if FOLDED && zero_run >= self.ii {
                    return None;
                }
                (cur, r) = (cur + 1, self.next(r));
                continue;
            }
            zero_run = 0;
            let take = free.min(remaining);
            self.take(class, r, take);
            issues.push((op, cur, take));
            remaining -= take;
            if remaining > 0 {
                (cur, r) = (cur + 1, self.next(r));
            }
        }
        Some(cur)
    }
}

impl Table<false> {
    /// Finds the earliest window of `len` completely idle cycles starting
    /// at or after `from`, and books every issue slot in it (soft-float
    /// call), which leaves no slot of any class free there.
    fn take_serialized(&mut self, from: u64, len: u64) -> u64 {
        let busy = |c: u64| self.rows.get(c as usize).is_some_and(|r| r[WIDTH] > 0);
        let mut t = from;
        while let Some(c) = (t..t + len).find(|&c| busy(c)) {
            t = c + 1;
        }
        let end = (t + len) as usize;
        if self.rows.len() < end {
            self.rows.resize(end, [0; 6]);
        }
        for row in &mut self.rows[t as usize..end] {
            row[WIDTH] = self.cap[WIDTH];
        }
        t
    }
}

impl Table<true> {
    /// The row of absolute cycle `cycle`.
    fn row(&self, cycle: u64) -> usize {
        (cycle % self.ii) as usize
    }

    fn untake(&mut self, class: OpClass, cycle: u64, n: u32) {
        let r = self.row(cycle);
        self.rows[r][col(class)] -= n;
        self.rows[r][WIDTH] -= n;
    }

    /// Pre-reserves the loop-control ops as issue-only slots, spread over
    /// the least-used residues. Returns `false` when they cannot fit (the
    /// II is infeasible).
    fn reserve_overhead(&mut self, ops: u32) -> bool {
        for _ in 0..ops {
            let row = self
                .rows
                .iter_mut()
                .min_by_key(|row| row[WIDTH])
                .expect("II is at least 1");
            if row[WIDTH] >= self.cap[WIDTH] {
                return false;
            }
            row[WIDTH] += 1;
        }
        true
    }
}

/// Schedules one block, pricing ops through `costs` and dispatching on
/// `kind`.
///
/// A block of `n` machine ops asks for at most a handful of distinct
/// `(op kind, word length)` costs; callers that schedule many blocks
/// should thread one cache through every call so each distinct query is
/// folded once. Callers that want a block's *price* rather than its
/// schedule go through [`BlockPrices`].
///
/// Under [`SchedKind::Modulo`], a pipelined schedule (with
/// [`Schedule::modulo`] set) is returned only when the block is
/// pipelinable *and* the search finds an II that strictly beats the list
/// schedule's trip-weighted cost within the trial budget; every other
/// outcome returns the list schedule unchanged.
pub fn schedule_block(costs: &CycleCache<'_>, block: &MachineBlock, kind: SchedKind) -> Schedule {
    match kind {
        SchedKind::List => list_schedule(costs, block),
        SchedKind::Modulo { budget } => match modulo_attempt_cached(costs, block, budget) {
            ModuloAttempt::Pipelined(s) => s,
            _ => list_schedule(costs, block),
        },
    }
}

/// The resource-constrained list scheduler (sequential issue).
fn list_schedule(costs: &CycleCache<'_>, block: &MachineBlock) -> Schedule {
    let target = costs.target();
    let n = block.ops.len();
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut table = Table::<false>::new(target, 0);
    let mut makespan = 0u64;
    let mut issues = Vec::new();

    for (i, op) in block.ops.iter().enumerate() {
        let est = op.preds.iter().map(|&p| finish[p]).max().unwrap_or(0);
        let cost = costs.cost(op.query);
        if cost.serialize {
            let t = table.take_serialized(est, cost.latency as u64);
            start[i] = t;
            finish[i] = t + cost.latency as u64;
            for c in t..finish[i] {
                issues.push((i, c, target.issue_width));
            }
        } else {
            let mut t = est;
            while table.free(cost.class, t as usize) == 0 {
                t += 1;
            }
            start[i] = t;
            let last = table
                .spread(i, cost.class, cost.slots, (t, t as usize), &mut issues)
                .expect("a flat table always frees up");
            finish[i] = last + cost.latency as u64;
        }
        makespan = makespan.max(finish[i]);
    }
    Schedule {
        start,
        finish,
        makespan,
        issues,
        modulo: None,
    }
}

/// Per-iteration loop-control overhead of the target, in cycles.
fn loop_overhead(target: &TargetModel) -> u64 {
    let w = target.issue_width.max(1);
    (target.loop_overhead_ops.div_ceil(w) as u64) + 1
}

/// The trip-weighted price of `sched`, one of `block`'s schedules: the
/// cycles one kernel activation spends in the block, and the formula
/// both [`BlockPrices`] and the modulo attempt's profitability test use.
///
/// List-scheduled blocks pay `(makespan + overhead) · trip`. Pipelined
/// blocks pay `overhead + prologue + ii·(trip−1) + epilogue`: iterations
/// overlap at the initiation interval, and the loop-control overhead is
/// charged once (the folded reservation table issues its ops in the
/// steady state) instead of per iteration.
fn activation_cycles(target: &TargetModel, block: &MachineBlock, sched: &Schedule) -> u64 {
    match sched.modulo {
        Some(m) => loop_overhead(target) + m.prologue + m.ii * (block.trip - 1) + m.epilogue,
        None => {
            let overhead = if block.in_loop {
                loop_overhead(target)
            } else {
                0
            };
            (sched.makespan + overhead) * block.trip
        }
    }
}

/// The trip-weighted price of `block` under `kind`, unmemoized.
fn block_price(costs: &CycleCache<'_>, block: &MachineBlock, kind: SchedKind) -> u64 {
    activation_cycles(costs.target(), block, &schedule_block(costs, block, kind))
}

/// Total cycles for a workload of `activations` kernel activations,
/// pricing ops through `costs` and dispatching on `kind`.
///
/// A shim for `perfbench`, which imports it: the library prices through
/// [`BlockPrices`], which gives the same count bit for bit.
pub fn total_cycles_cached(
    costs: &CycleCache<'_>,
    program: &MachineProgram,
    activations: u64,
    kind: SchedKind,
) -> u64 {
    program
        .blocks
        .iter()
        .map(|b| block_price(costs, b, kind))
        .sum::<u64>()
        * activations
}

// --- block-price memo ------------------------------------------------------

/// Everything the schedulers read from a block besides the target: two
/// blocks with equal keys get the same schedule under the same target.
#[derive(Debug, PartialEq, Eq, Hash)]
struct BlockKey {
    /// The scheduler kind, modulo budget included.
    kind: SchedKind,
    trip: u64,
    in_loop: bool,
    /// Each op's cost query, in block order.
    queries: Vec<OpQuery>,
    /// Each op's predecessor count followed by its predecessors.
    preds: Vec<usize>,
    /// The block's [`loop_carried_deps`]: the only part of the op kinds
    /// and variable definitions a scheduler reads.
    carried: Vec<(usize, usize)>,
}

impl BlockKey {
    fn of(block: &MachineBlock, kind: SchedKind) -> Self {
        let mut preds = Vec::with_capacity(2 * block.ops.len());
        for op in &block.ops {
            preds.push(op.preds.len());
            preds.extend_from_slice(&op.preds);
        }
        BlockKey {
            kind,
            trip: block.trip,
            in_loop: block.in_loop,
            queries: block.ops.iter().map(|op| op.query).collect(),
            preds,
            carried: loop_carried_deps(block),
        }
    }
}

/// The block pricer: trip-weighted cycles one kernel activation spends
/// in a block or a program, over one target.
///
/// It owns the target's memoized op prices (a [`CycleCache`]) and a memo
/// of block prices, so a block priced again — the same block in another
/// lowering, another leg's program or a later comparison — costs a
/// lookup instead of a second modulo search. Create one per pricing
/// scope (a flow call, a report) and price every block of that scope
/// through it.
///
/// Only [`SchedKind::Modulo`] prices are memoized: a list schedule costs
/// about as much as building the key, so list pricing passes straight
/// through. Entries are keyed by everything the schedulers read from a
/// block (the scheduler kind with its budget, `trip`, `in_loop`, each
/// op's query and predecessors, and the [`loop_carried_deps`]) and the
/// whole key is compared on a hit, so a hash collision can never change
/// a price; every price equals a fresh [`schedule_block`]'s bit for bit.
#[derive(Debug)]
pub struct BlockPrices<'t> {
    costs: CycleCache<'t>,
    prices: HashMap<BlockKey, u64>,
}

impl<'t> BlockPrices<'t> {
    /// An empty pricer for blocks scheduled against `target`.
    pub fn new(target: &'t TargetModel) -> Self {
        BlockPrices {
            costs: CycleCache::new(target),
            prices: HashMap::new(),
        }
    }

    /// Trip-weighted cycles one kernel activation spends in `block`
    /// under `kind`: the price of [`schedule_block`]'s schedule, by the
    /// formula of the module docs.
    pub fn block_cycles(&mut self, block: &MachineBlock, kind: SchedKind) -> u64 {
        if kind == SchedKind::List {
            return block_price(&self.costs, block, kind);
        }
        let costs = &self.costs;
        *self
            .prices
            .entry(BlockKey::of(block, kind))
            .or_insert_with(|| block_price(costs, block, kind))
    }

    /// Cycles for one kernel activation of `program` under `kind`: the
    /// sum of its [`block_cycles`](Self::block_cycles).
    pub fn program_cycles(&mut self, program: &MachineProgram, kind: SchedKind) -> u64 {
        program
            .blocks
            .iter()
            .map(|b| self.block_cycles(b, kind))
            .sum()
    }
}

// --- loop-carried dependences -------------------------------------------

/// Arrays an operation touches, as `(array index, writes)`. `ShiftIn`
/// rewrites the whole array; loads/stores touch one element but are
/// treated whole-array here (the carried-dependence analysis does not
/// reason about indices).
fn touched_arrays(kind: &MopKind) -> Vec<(usize, bool)> {
    let of_loc = |loc: &Loc, writes: bool| match loc {
        Loc::Array(a, _) => Some((a.index(), writes)),
        Loc::Param(..) => None,
    };
    match kind {
        MopKind::Load { loc } => of_loc(loc, false).into_iter().collect(),
        MopKind::Store { loc, .. } => of_loc(loc, true).into_iter().collect(),
        MopKind::VLoad { locs } => locs.iter().filter_map(|l| of_loc(l, false)).collect(),
        MopKind::VStore { locs, .. } => locs.iter().filter_map(|l| of_loc(l, true)).collect(),
        MopKind::ShiftIn { array, .. } => vec![(array.index(), true)],
        _ => Vec::new(),
    }
}

/// Distance-1 (loop-carried) dependence edges `(from, to)` of a block:
/// iteration `k`'s `from` must finish before iteration `k+1`'s `to`
/// issues (`start[to] + ii ≥ finish[from]` under a modulo schedule).
///
/// Two conservative sources:
///
/// * **variables** — `var_defs` commits op results to variables at end
///   of iteration; every op reading that variable next iteration
///   depends on the defining op;
/// * **memory** — for each array *written* in the block, every ordered
///   pair of a writer and any toucher (reader or writer, including the
///   writer against its own next-iteration copy) conflicts; no index
///   analysis is attempted.
pub fn loop_carried_deps(block: &MachineBlock) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Variable commits: def op -> next-iteration readers.
    for (v, def) in &block.var_defs {
        let Operand::Op(j) = def else { continue };
        for (i, op) in block.ops.iter().enumerate() {
            let reads = op
                .kind
                .operands()
                .into_iter()
                .any(|o| matches!(o, Operand::Var(r) if r == v));
            if reads {
                edges.push((*j, i));
            }
        }
    }
    // Memory conflicts on arrays written in the block.
    let touched: Vec<Vec<(usize, bool)>> = block
        .ops
        .iter()
        .map(|op| touched_arrays(&op.kind))
        .collect();
    let written: std::collections::BTreeSet<usize> = touched
        .iter()
        .flatten()
        .filter(|(_, w)| *w)
        .map(|(a, _)| *a)
        .collect();
    for &a in &written {
        let touchers: Vec<usize> = (0..block.ops.len())
            .filter(|&i| touched[i].iter().any(|&(t, _)| t == a))
            .collect();
        for &w in touchers
            .iter()
            .filter(|&&i| touched[i].iter().any(|&(t, wr)| t == a && wr))
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

// --- modulo scheduling ---------------------------------------------------

/// Outcome of one modulo-scheduling attempt (see
/// [`modulo_attempt_cached`]).
#[derive(Debug, Clone)]
pub enum ModuloAttempt {
    /// The block cannot be pipelined: not an in-loop block, a single
    /// trip, empty, or it contains a machine-serializing operation.
    Ineligible,
    /// The search completed but no II strictly beats the list
    /// schedule's trip-weighted cost; the list schedule stands.
    NotProfitable,
    /// At least one candidate II had to be abandoned with its trial
    /// budget spent, and no other II yielded a placement; the list
    /// schedule stands.
    BudgetExhausted,
    /// A pipelined schedule at the smallest II the budget could decide,
    /// strictly beating the list schedule.
    Pipelined(Schedule),
}

/// Whether `block` is a candidate for software pipelining at all.
fn pipelinable(costs: &CycleCache<'_>, block: &MachineBlock) -> bool {
    block.in_loop
        && block.trip > 1
        && !block.ops.is_empty()
        && !block.ops.iter().any(|op| costs.cost(op.query).serialize)
}

/// The `(ResMII, RecMII)` lower bounds of a pipelinable block, `None`
/// when the block is not pipelinable.
///
/// * **ResMII** — per functional-unit class, the slots the iteration
///   needs divided by the class's per-cycle capacity; and over all
///   classes, the total slots plus the loop-control ops divided by the
///   issue width.
/// * **RecMII** — the smallest II at which no dependence cycle (through
///   loop-carried edges) has positive weight under edge weights
///   `latency − II·distance`, found by binary search with Bellman–Ford
///   positive-cycle detection. Monotone because intra-iteration edges
///   point strictly forward, so every cycle crosses at least one
///   distance-1 edge.
pub fn modulo_bounds(costs: &CycleCache<'_>, block: &MachineBlock) -> Option<(u64, u64)> {
    if !pipelinable(costs, block) {
        return None;
    }
    let op_costs: Vec<OpCost> = block.ops.iter().map(|op| costs.cost(op.query)).collect();
    let carried = loop_carried_deps(block);
    Some((
        res_mii(costs.target(), &op_costs),
        rec_mii(block, &op_costs, &carried),
    ))
}

fn res_mii(target: &TargetModel, op_costs: &[OpCost]) -> u64 {
    let mut mii = 1u64;
    let mut total = 0u64;
    for class in CLASSES {
        let slots: u64 = op_costs
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.slots as u64)
            .sum();
        total += slots;
        if slots > 0 {
            let cap = target.units.of(class).max(1) as u64;
            mii = mii.max(slots.div_ceil(cap));
        }
    }
    let width = target.issue_width.max(1) as u64;
    mii.max((total + target.loop_overhead_ops as u64).div_ceil(width))
}

/// RecMII of `block` given its [`loop_carried_deps`] `carried`.
fn rec_mii(block: &MachineBlock, op_costs: &[OpCost], carried: &[(usize, usize)]) -> u64 {
    if carried.is_empty() {
        return 1;
    }
    // Edges as (from, to, latency, distance).
    let mut edges: Vec<(usize, usize, u64, u64)> = Vec::new();
    for (i, op) in block.ops.iter().enumerate() {
        for &p in &op.preds {
            edges.push((p, i, op_costs[p].latency as u64, 0));
        }
    }
    for &(from, to) in carried {
        edges.push((from, to, op_costs[from].latency as u64, 1));
    }
    let n = block.ops.len();
    let has_positive_cycle = |ii: u64| -> bool {
        // Bellman–Ford longest-path relaxation: if distances still
        // change after `n` full rounds, a positive-weight cycle exists.
        let mut d = vec![0i64; n];
        for _ in 0..n {
            let mut changed = false;
            for &(u, v, lat, dist) in &edges {
                let w = lat as i64 - (ii as i64) * (dist as i64);
                if d[u] + w > d[v] {
                    d[v] = d[u] + w;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
        true
    };
    let mut lo = 1u64;
    let mut hi = op_costs
        .iter()
        .map(|c| c.latency as u64)
        .sum::<u64>()
        .max(1);
    // `hi` is always feasible: a cycle's latency sum is at most the
    // whole block's, and every cycle crosses a distance-1 edge.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// What ended a branch-and-bound descent.
enum Descent {
    Placed,
    Failed,
    OutOfBudget,
}

struct ModuloSearch<'a> {
    ops: &'a [crate::lower::Mop],
    op_costs: &'a [OpCost],
    /// Distance-1 predecessors with `from < to` (lower-bound the EST).
    carried_in: &'a [Vec<usize>],
    /// Distance-1 successors with `to ≤ from` (checked after placement).
    carried_back: &'a [Vec<usize>],
    table: Table<true>,
    start: Vec<u64>,
    finish: Vec<u64>,
    issues: Vec<(usize, u64, u32)>,
    budget: &'a mut u64,
}

impl ModuloSearch<'_> {
    /// Places op `i` and recursively everything after it.
    fn place(&mut self, i: usize) -> Descent {
        if i == self.ops.len() {
            return Descent::Placed;
        }
        let ii = self.table.ii;
        let cost = self.op_costs[i];
        let est_pred = self.ops[i]
            .preds
            .iter()
            .map(|&p| self.finish[p])
            .max()
            .unwrap_or(0);
        let est_carried = self.carried_in[i]
            .iter()
            .map(|&j| self.finish[j].saturating_sub(ii))
            .max()
            .unwrap_or(0);
        let est = est_pred.max(est_carried);
        // Only `ii` start cycles are distinct modulo the II; requiring
        // the first slot to land at `t` itself keeps the windows
        // disjoint.
        let mut r = self.table.row(est);
        for t in est..est + ii {
            if *self.budget == 0 {
                return Descent::OutOfBudget;
            }
            *self.budget -= 1;
            if self.table.free(cost.class, r) > 0 {
                let placed_at = self.issues.len();
                if let Some(last) =
                    self.table
                        .spread(i, cost.class, cost.slots, (t, r), &mut self.issues)
                {
                    self.start[i] = t;
                    self.finish[i] = last + cost.latency as u64;
                    // Loop-carried edges back to already-placed ops: the
                    // next iteration's copy of `k` must not need this
                    // result before it exists.
                    let legal = self.carried_back[i]
                        .iter()
                        .all(|&k| self.finish[i] <= self.start[k] + ii);
                    if legal {
                        match self.place(i + 1) {
                            Descent::Placed => return Descent::Placed,
                            Descent::OutOfBudget => return Descent::OutOfBudget,
                            Descent::Failed => {}
                        }
                    }
                }
                for &(op, cycle, n) in &self.issues[placed_at..] {
                    debug_assert_eq!(op, i);
                    self.table.untake(cost.class, cycle, n);
                }
                self.issues.truncate(placed_at);
            }
            r = self.table.next(r);
        }
        Descent::Failed
    }
}

/// Attempts to modulo-schedule one block, pricing ops through a shared
/// [`CycleCache`].
///
/// Searches candidate IIs upward from `max(ResMII, RecMII)`, placing one
/// iteration's ops by branch and bound against a reservation table
/// folded modulo the II. The trial `budget` is **per candidate II**
/// (Rau's iterative-modulo-scheduling discipline): an II whose search
/// exhausts its budget is abandoned and the walk moves on — near the
/// resource bound the table is a perfect-packing instance whose
/// infeasibility proof can cost exponential trials, while a slightly
/// looser II often places in a handful. After an abandoned II the walk's
/// stride doubles, so undecidable regions cost at most a logarithmic
/// number of budget refills before the cap. Adopts the first placement
/// found (the smallest II the budget could *decide* — the exact minimum
/// whenever no II was abandoned), and only when its trip-weighted cost
/// strictly beats the list schedule's — ties and everything else keep
/// the list schedule, so the scheduler and the pricer can never disagree
/// about which schedule a block runs.
///
/// The `_cached` suffix stays while `perfbench` imports this name.
pub fn modulo_attempt_cached(
    costs: &CycleCache<'_>,
    block: &MachineBlock,
    budget: u32,
) -> ModuloAttempt {
    let target = costs.target();
    if !pipelinable(costs, block) {
        return ModuloAttempt::Ineligible;
    }
    #[cfg(test)]
    searches::count();
    let list = list_schedule(costs, block);
    let list_total = activation_cycles(target, block, &list);
    let op_costs: Vec<OpCost> = block.ops.iter().map(|op| costs.cost(op.query)).collect();
    let carried = loop_carried_deps(block);
    let mii = res_mii(target, &op_costs).max(rec_mii(block, &op_costs, &carried));
    // An II at or past the list schedule's per-iteration cost cannot
    // win: the steady state alone would already match sequential issue.
    let ii_cap = list.makespan + loop_overhead(target);
    let n = block.ops.len();
    let mut carried_in: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut carried_back: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to) in &carried {
        if from < to {
            carried_in[to].push(from);
        } else {
            carried_back[from].push(to);
        }
    }
    let mut abandoned = false;
    let mut step = 1u64;
    let mut ii = mii;
    while ii < ii_cap {
        let mut table = Table::<true>::new(target, ii);
        if !table.reserve_overhead(target.loop_overhead_ops) {
            ii += step;
            continue;
        }
        let mut remaining = budget as u64;
        let mut search = ModuloSearch {
            ops: &block.ops,
            op_costs: &op_costs,
            carried_in: &carried_in,
            carried_back: &carried_back,
            table,
            start: vec![0; n],
            finish: vec![0; n],
            issues: Vec::new(),
            budget: &mut remaining,
        };
        match search.place(0) {
            Descent::OutOfBudget => {
                abandoned = true;
                ii += step;
                step *= 2;
            }
            Descent::Failed => {
                ii += step;
            }
            Descent::Placed => {
                let makespan = search.finish.iter().copied().max().unwrap_or(0);
                let prologue = makespan.saturating_sub(ii);
                let pipelined = Schedule {
                    start: search.start,
                    finish: search.finish,
                    makespan,
                    issues: search.issues,
                    modulo: Some(ModuloSchedule {
                        ii,
                        prologue,
                        epilogue: makespan - prologue,
                    }),
                };
                if activation_cycles(target, block, &pipelined) >= list_total {
                    return ModuloAttempt::NotProfitable;
                }
                return ModuloAttempt::Pipelined(pipelined);
            }
        }
    }
    if abandoned {
        ModuloAttempt::BudgetExhausted
    } else {
        ModuloAttempt::NotProfitable
    }
}

/// A per-thread count of modulo searches (eligible
/// [`modulo_attempt_cached`] calls), so tests can pin the scheduling
/// work a flow does.
#[cfg(test)]
pub(crate) mod searches {
    use std::cell::Cell;

    thread_local! {
        static COUNT: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count() {
        COUNT.with(|c| c.set(c.get() + 1));
    }

    /// Searches run on this thread by `f`.
    pub(crate) fn during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = COUNT.with(Cell::get);
        let out = f();
        (out, COUNT.with(Cell::get) - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Mop;
    use slpwlo_targets::{st240, vex, xentium, OpQuery};

    fn block(ops: Vec<Mop>, in_loop: bool) -> MachineBlock {
        block_t(ops, 1, in_loop)
    }

    fn block_t(ops: Vec<Mop>, trip: u64, in_loop: bool) -> MachineBlock {
        MachineBlock {
            ops,
            trip,
            in_loop,
            loops: Vec::new(),
            var_defs: Vec::new(),
        }
    }

    fn op(query: OpQuery, preds: Vec<usize>) -> Mop {
        Mop::opaque(query, preds)
    }

    #[test]
    fn single_issue_serializes() {
        let target = vex(1);
        let ops: Vec<Mop> = (0..6).map(|_| op(OpQuery::Add(32), vec![])).collect();
        let s = schedule_block(
            &CycleCache::new(&target),
            &block(ops, false),
            SchedKind::List,
        );
        // Six independent adds on a 1-issue machine: one per cycle.
        assert_eq!(s.makespan, 6);
    }

    #[test]
    fn wide_issue_parallelizes() {
        let target = xentium(); // 4 ALUs
        let ops: Vec<Mop> = (0..8).map(|_| op(OpQuery::Add(32), vec![])).collect();
        let s = schedule_block(
            &CycleCache::new(&target),
            &block(ops, false),
            SchedKind::List,
        );
        // 8 adds over 4 ALUs: 2 cycles of issue + 1 latency left-over.
        assert!(s.makespan <= 3, "makespan {}", s.makespan);
    }

    #[test]
    fn memory_ports_limit_loads() {
        let target = xentium(); // 2 mem ports, load latency 2
        let ops: Vec<Mop> = (0..8).map(|_| op(OpQuery::Load(32), vec![])).collect();
        let s = schedule_block(
            &CycleCache::new(&target),
            &block(ops, false),
            SchedKind::List,
        );
        // 8 loads over 2 ports: last issues at cycle 3, finishes at 5.
        assert_eq!(s.makespan, 4 + target.load_latency as u64 - 1);
    }

    #[test]
    fn dependence_chain_bounds_makespan() {
        let target = xentium();
        let mut ops = vec![op(OpQuery::Add(32), vec![])];
        for i in 1..10 {
            ops.push(op(OpQuery::Add(32), vec![i - 1]));
        }
        let s = schedule_block(
            &CycleCache::new(&target),
            &block(ops, false),
            SchedKind::List,
        );
        assert_eq!(
            s.makespan, 10,
            "a 10-add chain takes 10 cycles regardless of width"
        );
    }

    #[test]
    fn wide_mul_occupies_multiplier_longer() {
        let target = xentium();
        let narrow: Vec<Mop> = (0..4).map(|_| op(OpQuery::Mul(16), vec![])).collect();
        let wide: Vec<Mop> = (0..4).map(|_| op(OpQuery::Mul(32), vec![])).collect();
        let sn = schedule_block(
            &CycleCache::new(&target),
            &block(narrow, false),
            SchedKind::List,
        );
        let sw = schedule_block(
            &CycleCache::new(&target),
            &block(wide, false),
            SchedKind::List,
        );
        assert!(
            sw.makespan > sn.makespan,
            "32-bit muls ({}c) must be slower than 16-bit ({}c)",
            sw.makespan,
            sn.makespan
        );
    }

    #[test]
    fn soft_float_blocks_the_machine() {
        let target = xentium();
        let ops = vec![
            op(OpQuery::FAdd, vec![]),
            op(OpQuery::Add(32), vec![]), // independent, but machine is blocked
        ];
        let s = schedule_block(
            &CycleCache::new(&target),
            &block(ops, false),
            SchedKind::List,
        );
        assert!(
            s.start[1] >= target.fadd_cycles as u64,
            "nothing issues during a soft-float call (start {})",
            s.start[1]
        );
    }

    #[test]
    fn hw_float_pipelines_on_st240() {
        let target = st240();
        let ops = vec![op(OpQuery::FAdd, vec![]), op(OpQuery::Add(32), vec![])];
        let s = schedule_block(
            &CycleCache::new(&target),
            &block(ops, false),
            SchedKind::List,
        );
        assert_eq!(s.start[1], 0, "hardware float does not serialize");
    }

    #[test]
    fn loop_overhead_added_per_iteration() {
        let target = vex(1);
        let mut prices = BlockPrices::new(&target);
        let ops = vec![op(OpQuery::Add(32), vec![])];
        let list = SchedKind::List;
        let inside = prices.block_cycles(&block_t(ops.clone(), 1, true), list);
        let outside = prices.block_cycles(&block_t(ops, 1, false), list);
        assert!(inside > outside);
    }

    #[test]
    fn trips_multiply_cycles() {
        let target = xentium();
        let costs = CycleCache::new(&target);
        let b1 = block_t(vec![op(OpQuery::Add(32), vec![])], 16, true);
        let prog = MachineProgram {
            name: "t".into(),
            blocks: vec![b1],
            storage: crate::lower::ProgramStorage::default(),
        };
        let mut prices = BlockPrices::new(&target);
        let per_act = prices.program_cycles(&prog, SchedKind::List);
        assert_eq!(
            total_cycles_cached(&costs, &prog, 10, SchedKind::List),
            per_act * 10
        );
        let single = prices.block_cycles(
            &block_t(vec![op(OpQuery::Add(32), vec![])], 1, true),
            SchedKind::List,
        );
        assert_eq!(per_act, single * 16);
    }

    #[test]
    fn pack_macro_op_consumes_multiple_slots() {
        let target = vex(1); // 1 ALU per cycle
        let ops = vec![op(OpQuery::Pack(4), vec![])];
        let s = schedule_block(
            &CycleCache::new(&target),
            &block(ops, false),
            SchedKind::List,
        );
        // 4 insert slots on a single ALU: at least 4 cycles of occupancy.
        assert!(s.makespan >= 4, "makespan {}", s.makespan);
    }

    // --- modulo scheduling ------------------------------------------------

    #[test]
    fn modulo_reaches_res_mii_on_independent_loads() {
        // 8 independent loads over XENTIUM's 2 memory ports: ResMII 4,
        // no recurrence. The search must land exactly on II 4.
        let target = xentium();
        let costs = CycleCache::new(&target);
        let ops: Vec<Mop> = (0..8).map(|_| op(OpQuery::Load(32), vec![])).collect();
        let b = block_t(ops, 16, true);
        let (res, rec) = modulo_bounds(&costs, &b).unwrap();
        assert_eq!((res, rec), (4, 1));
        let s = schedule_block(&costs, &b, SchedKind::modulo());
        let m = s.modulo.expect("loads must pipeline");
        assert_eq!(m.ii, 4, "achieved II must match max(ResMII, RecMII)");
        assert_eq!(m.prologue + m.epilogue, s.makespan);
    }

    #[test]
    fn modulo_hides_loop_overhead_on_single_issue() {
        // On 1-issue VEX the loop-control overhead serializes every
        // iteration under list scheduling; the pipeline folds it into
        // the steady state and wins.
        let target = vex(1);
        let costs = CycleCache::new(&target);
        let ops: Vec<Mop> = (0..4).map(|_| op(OpQuery::Add(32), vec![])).collect();
        let b = block_t(ops, 8, true);
        let mut prices = BlockPrices::new(&target);
        let list = prices.block_cycles(&b, SchedKind::List);
        let modulo = prices.block_cycles(&b, SchedKind::modulo());
        assert!(
            modulo < list,
            "pipelining must beat sequential issue ({modulo} vs {list})"
        );
        let s = schedule_block(&costs, &b, SchedKind::modulo());
        let m = s.modulo.unwrap();
        let (res, rec) = modulo_bounds(&costs, &b).unwrap();
        assert_eq!(m.ii, res.max(rec));
    }

    #[test]
    fn recurrence_bounds_the_ii() {
        // A 4-add recurrence carried through a variable: RecMII 4.
        use crate::lower::MopKind;
        use slpwlo_fixedpoint::QFormat;
        use slpwlo_ir::types::VarId;
        let target = xentium();
        let costs = CycleCache::new(&target);
        let v = VarId(0);
        let mut ops = vec![Mop {
            query: OpQuery::Add(16),
            preds: vec![],
            kind: MopKind::Bin {
                op: slpwlo_ir::BinOp::Add,
                a: Operand::Var(v),
                b: Operand::Imm {
                    raw: 1,
                    fmt: QFormat::new(1, 14),
                },
                to: Some(QFormat::new(1, 14)),
            },
        }];
        for i in 1..4 {
            ops.push(op(OpQuery::Add(16), vec![i - 1]));
        }
        let mut b = block_t(ops, 16, true);
        b.var_defs.push((v, Operand::Op(3)));
        assert_eq!(loop_carried_deps(&b), vec![(3, 0)]);
        let (_, rec) = modulo_bounds(&costs, &b).unwrap();
        assert_eq!(rec, 4, "a 4-cycle recurrence forces II >= 4");
        if let Some(m) = schedule_block(&costs, &b, SchedKind::modulo()).modulo {
            assert!(m.ii >= 4);
        }
    }

    #[test]
    fn exhausted_budget_falls_back_to_the_list_schedule() {
        let target = xentium();
        let costs = CycleCache::new(&target);
        let ops: Vec<Mop> = (0..8).map(|_| op(OpQuery::Load(32), vec![])).collect();
        let b = block_t(ops, 16, true);
        assert!(matches!(
            modulo_attempt_cached(&costs, &b, 1),
            ModuloAttempt::BudgetExhausted
        ));
        let starved = schedule_block(&costs, &b, SchedKind::Modulo { budget: 1 });
        let list = schedule_block(&costs, &b, SchedKind::List);
        assert!(starved.modulo.is_none());
        assert_eq!(starved.start, list.start);
        assert_eq!(starved.finish, list.finish);
        assert_eq!(starved.issues, list.issues);
        let mut prices = BlockPrices::new(&target);
        assert_eq!(
            prices.block_cycles(&b, SchedKind::Modulo { budget: 1 }),
            prices.block_cycles(&b, SchedKind::List),
        );
    }

    #[test]
    fn non_loop_blocks_never_pipeline() {
        let target = xentium();
        let costs = CycleCache::new(&target);
        let ops: Vec<Mop> = (0..8).map(|_| op(OpQuery::Load(32), vec![])).collect();
        for b in [
            block(ops.clone(), false),     // straight-line
            block_t(ops.clone(), 1, true), // single trip
            block_t(Vec::new(), 16, true), // empty
        ] {
            assert!(modulo_bounds(&costs, &b).is_none());
            assert!(matches!(
                modulo_attempt_cached(&costs, &b, u32::MAX),
                ModuloAttempt::Ineligible
            ));
        }
        // Serializing soft-float ops block the whole machine and cannot
        // overlap with anything.
        let soft = block_t(vec![op(OpQuery::FAdd, vec![])], 16, true);
        assert!(modulo_bounds(&costs, &soft).is_none());
    }

    #[test]
    fn pipelined_issue_log_respects_folded_budgets() {
        // Independently re-total the issue log per residue class.
        let target = xentium();
        let costs = CycleCache::new(&target);
        let ops: Vec<Mop> = (0..8)
            .map(|i| {
                op(
                    if i % 2 == 0 {
                        OpQuery::Load(16)
                    } else {
                        OpQuery::Mul(16)
                    },
                    vec![],
                )
            })
            .collect();
        let b = block_t(ops, 16, true);
        let s = schedule_block(&costs, &b, SchedKind::modulo());
        let m = s.modulo.expect("mixed loads/muls must pipeline");
        let mut per_residue: std::collections::HashMap<(u64, OpClass), u32> =
            std::collections::HashMap::new();
        let mut issue: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for &(i, cycle, slots) in &s.issues {
            let class = costs.cost(b.ops[i].query).class;
            *per_residue.entry((cycle % m.ii, class)).or_default() += slots;
            *issue.entry(cycle % m.ii).or_default() += slots;
        }
        for ((_, class), used) in per_residue {
            assert!(used <= target.units.of(class));
        }
        for (_, used) in issue {
            assert!(used < target.issue_width); // room for the overhead op
        }
    }

    #[test]
    fn block_prices_key_on_what_the_schedulers_read() {
        use crate::lower::MopKind;
        use slpwlo_fixedpoint::QFormat;
        use slpwlo_ir::types::{ArrayId, VarId};
        use slpwlo_ir::{BinOp, IndexExpr};
        let target = vex(1);
        let fmt = QFormat::new(1, 14);
        let v = VarId(0);
        // `v = (v + a[ix]) + imm`, with `v` committed from op `def`.
        let make = |ix: i64, imm: i64, def: usize| {
            let add = |a, b| MopKind::Bin {
                op: BinOp::Add,
                a,
                b,
                to: Some(fmt),
            };
            let ops = vec![
                Mop {
                    query: OpQuery::Load(16),
                    preds: vec![],
                    kind: MopKind::Load {
                        loc: Loc::Array(ArrayId(0), IndexExpr::constant(ix)),
                    },
                },
                Mop {
                    query: OpQuery::Add(16),
                    preds: vec![0],
                    kind: add(Operand::Var(v), Operand::Op(0)),
                },
                Mop {
                    query: OpQuery::Add(16),
                    preds: vec![1],
                    kind: add(Operand::Op(1), Operand::Imm { raw: imm, fmt }),
                },
            ];
            let mut b = block_t(ops, 16, true);
            b.var_defs.push((v, Operand::Op(def)));
            b
        };
        let modulo = SchedKind::modulo();
        let mut prices = BlockPrices::new(&target);
        let mut price = |b: &MachineBlock, kind| {
            let memo = prices.block_cycles(b, kind);
            let fresh = block_price(&CycleCache::new(&target), b, kind);
            assert_eq!(memo, fresh);
            prices.prices.len()
        };
        let base = make(0, 1, 2);
        assert_eq!(price(&base, modulo), 1);
        // Index expressions and constants are not scheduler inputs.
        assert_eq!(price(&make(5, 1, 2), modulo), 1);
        assert_eq!(price(&make(0, 7, 2), modulo), 1);
        // Committing `v` from another op moves the carried dependence.
        let moved = make(0, 1, 1);
        assert_ne!(loop_carried_deps(&moved), loop_carried_deps(&base));
        assert_eq!(price(&moved, modulo), 2);
        // The modulo budget is part of the key; list prices are never
        // stored.
        assert_eq!(price(&base, SchedKind::Modulo { budget: 1 }), 3);
        assert_eq!(price(&base, SchedKind::List), 3);
        assert_eq!(price(&base, modulo), 3);
    }

    #[test]
    fn memory_conflicts_are_carried_conservatively() {
        use crate::lower::MopKind;
        use slpwlo_fixedpoint::QFormat;
        use slpwlo_ir::types::ArrayId;
        use slpwlo_ir::IndexExpr;
        let fmt = QFormat::new(1, 14);
        let a = ArrayId(0);
        let load = Mop {
            query: OpQuery::Load(16),
            preds: vec![],
            kind: MopKind::Load {
                loc: Loc::Array(a, IndexExpr::constant(0)),
            },
        };
        let store = Mop {
            query: OpQuery::Store(16),
            preds: vec![0],
            kind: MopKind::Store {
                loc: Loc::Array(a, IndexExpr::constant(1)),
                src: Operand::Op(0),
                to: fmt,
            },
        };
        let b = block_t(vec![load, store], 8, true);
        let deps = loop_carried_deps(&b);
        // The store conflicts with the load and with its own next copy.
        assert!(deps.contains(&(1, 0)), "store -> next-iteration load");
        assert!(deps.contains(&(0, 1)), "load -> next-iteration store");
        assert!(deps.contains(&(1, 1)), "store -> its own next copy");
    }
}
