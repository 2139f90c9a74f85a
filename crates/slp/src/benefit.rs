//! Candidate benefit estimation.
//!
//! Two strategies estimate what selecting a candidate buys, behind
//! [`BenefitKind`]:
//!
//! * [`BenefitKind::Slots`] — the historical, target-blind model in the
//!   spirit of Liu et al. (PLDI 2012): a group of `L` lanes saves `L - 1`
//!   issue slots, every packing/unpacking event costs one abstract "pack
//!   op", and superword reuse counts in superword units.
//! * [`BenefitKind::Cycles`] (default) — the goSLP-inspired,
//!   cycle-denominated model: the candidate's vector op, its pack/unpack
//!   traffic, and the scalar ops it displaces are all priced through
//!   [`TargetModel::cycles`] (which folds over [`TargetModel::cost`], the
//!   same source the `slpwlo-core` schedulers price the lowered program
//!   with) **at the
//!   candidate's current word lengths** — so a 32-bit multiply pair on a
//!   16x16 multiplier carries its macro-expansion price, packs on a
//!   single-issue machine cost whole cycles, and shifter style matters.
//!
//! Both models fill one [`CostedBenefit`]: `saved` (what the vector op
//! saves over the displaced scalars), `reuse` (packing traffic avoided,
//! certain for selected/prior-round producers, discounted by half for
//! live candidates), and `pack` (packing traffic incurred). Selection
//! admits a candidate while `net() > 0` and ranks by `rank()`,
//! re-evaluated every iteration: a pack that is not worth its traffic now
//! can become admissible once its neighbours are selected or its word
//! lengths shrink.

use crate::candidate::Round;
use crate::group::{mem_status, MemStatus, SimdGroup};
use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use slpwlo_ir::types::BinOp;
use slpwlo_targets::{CycleCache, OpQuery, SchedKind, TargetModel};
use std::cell::RefCell;
use std::collections::HashMap;

/// Which benefit estimate drives group selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BenefitKind {
    /// Target-blind issue-slot counting (the historical model).
    Slots,
    /// Cycle prices drawn from [`TargetModel::cost`] at the candidate's
    /// current word lengths.
    #[default]
    Cycles,
    /// Exact per-round selection: a branch-and-bound search over the
    /// [`BenefitKind::Cycles`] prices for the conflict-free, acyclic
    /// candidate subset maximizing total net benefit, with reuse priced
    /// pairwise-exactly (a partner's speculative reuse becomes certain
    /// once the partner is in the chosen set). The incumbent is seeded
    /// from the greedy result, so the exact selector never returns a
    /// worse packing than greedy; when the search exceeds `budget`
    /// include-steps in one round it falls back to the greedy result
    /// deterministically (recorded in `SelectStats::budget_fallbacks`).
    Optimal {
        /// Maximum branch-and-bound include-steps per round before the
        /// deterministic greedy fallback.
        budget: u32,
    },
}

impl BenefitKind {
    /// Default per-round trial budget of [`BenefitKind::Optimal`] —
    /// enough to search any round the suite produces exhaustively
    /// (CFIR's fully-unrolled first round, the suite's largest at 244
    /// pooled candidates, completes in ~106k include-steps), small
    /// enough to bound a degenerate round.
    pub const DEFAULT_BUDGET: u32 = 262_144;

    /// [`BenefitKind::Optimal`] with the default budget.
    pub fn optimal() -> Self {
        BenefitKind::Optimal {
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Stable machine-readable name (`"slots"` / `"cycles"` /
    /// `"optimal"`).
    pub fn name(self) -> &'static str {
        match self {
            BenefitKind::Slots => "slots",
            BenefitKind::Cycles => "cycles",
            BenefitKind::Optimal { .. } => "optimal",
        }
    }

    /// The pricing model assessments run under: [`BenefitKind::Optimal`]
    /// searches over [`BenefitKind::Cycles`] prices, the other kinds
    /// price as themselves.
    pub fn pricing(self) -> BenefitKind {
        match self {
            BenefitKind::Optimal { .. } => BenefitKind::Cycles,
            k => k,
        }
    }
}

impl std::fmt::Display for BenefitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The priced outcome of one candidate assessment.
///
/// Units are issue slots under [`BenefitKind::Slots`] and cycles under
/// [`BenefitKind::Cycles`]; the combination formulas are shared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostedBenefit {
    /// Intrinsic saving of the vector op over the scalars it displaces.
    pub saved: f64,
    /// Packing traffic avoided with certainty (operand superwords already
    /// produced packed, results consumed packed by selected groups).
    pub reuse: f64,
    /// Half-weighted traffic avoided *if* live partner candidates are
    /// also selected — optimism that bootstraps chains, never charged as
    /// a cost.
    pub reuse_speculative: f64,
    /// Packing/unpacking traffic the candidate incurs for certain.
    pub pack: f64,
    /// Extra weight on reuse in the net formula (2.0 for the slots
    /// model's historical `saved + 2·reuse - pack`; 1.0 for cycles,
    /// where reuse is already denominated in avoided cycles).
    reuse_weight: f64,
}

impl CostedBenefit {
    /// A benefit from raw parts with the cycle model's unit reuse
    /// weight. The parts are taken as-is — including non-finite poison,
    /// which is the point: tests drive [`sanitized`](Self::sanitized)
    /// and the selector's admission guard with values the pricing code
    /// is never supposed to produce.
    pub fn from_parts(saved: f64, reuse: f64, reuse_speculative: f64, pack: f64) -> Self {
        CostedBenefit {
            saved,
            reuse,
            reuse_speculative,
            pack,
            reuse_weight: 1.0,
        }
    }

    /// The admission key: positive iff realising the candidate is
    /// expected to be cheaper than leaving its lanes scalar.
    pub fn net(&self) -> f64 {
        self.saved + self.reuse_weight * self.reuse + self.reuse_speculative - self.pack
    }

    /// The ranking key (non-negative, higher is better). Speculative
    /// reuse counts here so chain members find each other.
    pub fn rank(&self) -> f64 {
        let gain = self.saved + self.reuse_weight * self.reuse + self.reuse_speculative;
        (gain / (1.0 + self.pack)).max(0.0)
    }

    /// Finiteness boundary for everything ordering-sensitive downstream:
    /// a benefit with any non-finite component (a degenerate price gone
    /// NaN or infinite) collapses to the unselectable benefit — zero
    /// gain against infinite pack, so `net()` is `-inf` and `rank()` is
    /// `0.0`. Admission (`net() <= margin` rejects `-inf`) and ranking
    /// both then handle the poisoned candidate totally instead of
    /// letting a NaN slip through `f64`'s partial order.
    pub fn sanitized(self) -> CostedBenefit {
        let finite = self.saved.is_finite()
            && self.reuse.is_finite()
            && self.reuse_speculative.is_finite()
            && self.pack.is_finite();
        if finite {
            self
        } else {
            CostedBenefit {
                saved: 0.0,
                reuse: 0.0,
                reuse_speculative: 0.0,
                pack: f64::INFINITY,
                reuse_weight: self.reuse_weight,
            }
        }
    }
}

/// How an operand or result superword is (or is not) satisfied, shared
/// by both pricing strategies.
enum Flow {
    /// Produced/consumed in lane order by an already selected group or a
    /// prior-round packed item: traffic avoided for certain.
    Reused,
    /// Produced/consumed by the given live candidate: avoided if that
    /// candidate is selected too.
    Speculative(usize),
    /// Same value in every lane: one broadcast.
    Splat,
    /// Nobody delivers it packed: full packing traffic.
    Unresolved,
}

/// Allocation-free summary of a group's per-lane scaling amounts: the
/// pricing in [`BenefitModel::scaling_cost`] depends only on these
/// predicates, so the per-lane amounts are folded instead of collected.
#[derive(Clone, Copy)]
enum Amounts {
    /// Some lane's formats are unknown.
    Unknown,
    /// Every lane's amount is known, summarized by the predicates below.
    Known {
        all_zero: bool,
        uniform: bool,
        all_nonneg: bool,
    },
}

impl Amounts {
    /// Folds per-lane amounts, short-circuiting to [`Amounts::Unknown`]
    /// on the first unknown lane (the same cut a collecting
    /// `Option<Vec<_>>` would make).
    fn fold(amounts: impl Iterator<Item = Option<i32>>) -> Amounts {
        let mut first = None;
        let (mut all_zero, mut uniform, mut all_nonneg) = (true, true, true);
        for a in amounts {
            let Some(x) = a else {
                return Amounts::Unknown;
            };
            let f = *first.get_or_insert(x);
            all_zero &= x == 0;
            uniform &= x == f;
            all_nonneg &= x >= 0;
        }
        Amounts::Known {
            all_zero,
            uniform,
            all_nonneg,
        }
    }
}

/// Benefit estimator for one round.
pub struct BenefitModel<'a> {
    dfg: &'a Dfg,
    round: &'a Round,
    target: &'a TargetModel,
    kind: BenefitKind,
    wl: Box<dyn Fn(NodeId) -> i32 + 'a>,
    /// Current fractional word lengths (`None` = unknown: scalings are
    /// assumed uniform rather than priced per lane).
    fwl: Box<dyn Fn(NodeId) -> Option<i32> + 'a>,
    /// Whether a scaling-equalization pass (fig. 1b) runs after
    /// extraction: mismatched non-negative amounts on group-backed
    /// superwords are then priced as one vector shift (the equalizer's
    /// job), not the fig. 2 penalty.
    equalization_follows: bool,
    /// Which scheduler the flow prices blocks under. Governs the
    /// admission margin of the cycle model: under modulo scheduling the
    /// latency-boundedness hedge is dropped (see
    /// [`admission_margin`](Self::admission_margin)).
    sched: SchedKind,
    /// Memoized op prices: selection asks the same `(op kind, wl)`
    /// throughput questions for every candidate every iteration.
    prices: &'a CycleCache<'a>,
    /// Memoized [`scalar_op_cycles`](Self::scalar_op_cycles) per node.
    /// One model instance prices one word-length snapshot (the selection
    /// loop rebuilds the model after every accepted selection precisely
    /// because the oracles' answers move), so within an instance a
    /// node's displaced-scalar price is a constant.
    scalar_cycles: RefCell<Vec<Option<f64>>>,
    /// Memoized `fwl` oracle answers per node, valid for the same
    /// one-snapshot lifetime as `scalar_cycles`. The oracle is a boxed
    /// closure into the flow's spec state; scaling-amount computation
    /// asks it several times per lane per candidate.
    fwl_memo: RefCell<Vec<Option<Option<i32>>>>,
}

impl std::fmt::Debug for BenefitModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenefitModel")
            .field("kind", &self.kind)
            .field("candidates", &self.round.candidates.len())
            .finish_non_exhaustive()
    }
}

impl<'a> BenefitModel<'a> {
    /// Creates the estimator with full word-length context: `wl` reports
    /// each node's *current* word length (the evolving spec under
    /// WLO↔SLP, the frozen spec under WLO-First), `fwl` its current
    /// fractional word length (so per-lane scaling amounts — and the
    /// fig. 2 penalty mismatched ones carry — are priced, not assumed
    /// free; answer `None` to assume uniform scalings).
    ///
    /// Op prices come from the caller's `prices` cache. They depend only
    /// on the target, so a loop that rebuilds the model per
    /// iteration (selection does, to refresh the oracles) shares one
    /// warmed cache across every rebuild.
    pub fn new(
        dfg: &'a Dfg,
        round: &'a Round,
        prices: &'a CycleCache<'a>,
        kind: BenefitKind,
        wl: impl Fn(NodeId) -> i32 + 'a,
        fwl: impl Fn(NodeId) -> Option<i32> + 'a,
    ) -> Self {
        BenefitModel {
            dfg,
            round,
            target: prices.target(),
            kind,
            wl: Box::new(wl),
            fwl: Box::new(fwl),
            equalization_follows: false,
            sched: SchedKind::List,
            prices,
            scalar_cycles: RefCell::new(vec![None; dfg.len()]),
            fwl_memo: RefCell::new(vec![None; dfg.len()]),
        }
    }

    /// Memoized `fwl` oracle read (see `fwl_memo`).
    fn fwl_of(&self, n: NodeId) -> Option<i32> {
        if let Some(v) = self.fwl_memo.borrow()[n.index()] {
            return v;
        }
        let v = (self.fwl)(n);
        self.fwl_memo.borrow_mut()[n.index()] = Some(v);
        v
    }

    /// Declares that a scaling-equalization pass (fig. 1b, `scalopt`)
    /// runs after extraction — the WLO↔SLP flow's case. Mismatched
    /// scaling amounts that the equalizer can reach (all non-negative,
    /// superword backed by a group or live candidate) are then priced as
    /// a uniform vector shift instead of the fig. 2 penalty.
    pub fn assume_equalization(mut self, yes: bool) -> Self {
        self.equalization_follows = yes;
        self
    }

    /// Declares which scheduler the flow prices blocks under (see
    /// [`admission_margin`](Self::admission_margin)). Defaults to the
    /// sequential-issue list scheduler.
    pub fn assume_sched(mut self, sched: SchedKind) -> Self {
        self.sched = sched;
        self
    }

    /// Ranking benefit of candidate `idx` (see [`CostedBenefit::rank`]).
    ///
    /// `alive[c]` marks candidates still in play; `selected` holds all
    /// groups chosen so far (prior rounds and this round).
    pub fn benefit(&self, idx: usize, alive: &[bool], selected: &[SimdGroup]) -> f64 {
        self.assess(idx, alive, selected).rank()
    }

    /// Full priced assessment of candidate `idx`.
    pub fn assess(&self, idx: usize, alive: &[bool], selected: &[SimdGroup]) -> CostedBenefit {
        self.pass(alive, selected).assess(idx)
    }

    /// Starts one assessment pass over a fixed `(alive, selected)` state.
    ///
    /// A pass memoizes the one-level viability probe of speculative
    /// partners, which is
    /// sound exactly as long as the liveness and selection state do not
    /// change — the selection loop's argmax over all live candidates is
    /// the intended scope. Use [`assess`](Self::assess) directly when
    /// assessing against varying state.
    pub fn pass<'s>(&'s self, alive: &'s [bool], selected: &'s [SimdGroup]) -> AssessPass<'s, 'a> {
        AssessPass {
            model: self,
            alive,
            selected,
            viable: RefCell::new(HashMap::new()),
        }
    }

    /// The admission threshold `net()` must clear. Zero for the slots
    /// model (its historical behaviour). Under list scheduling the cycle
    /// model demands a margin of half a chain hop (extract latency):
    /// candidate-local throughput pricing cannot see block-level
    /// latency-boundedness, so a pack whose predicted gain is within one
    /// chain hop of zero is as likely a scheduling loss as a win — on a
    /// wide-issue machine the "saved" issue slots buy nothing while the
    /// extra pack/extract hops still lengthen the critical path. Under
    /// modulo scheduling the hedge drops back to zero: overlapped
    /// iterations hide chain-hop latency (the pipeline's II is bound by
    /// resource pressure, which the throughput pricing *does* see), so
    /// packs the hedge would reject become admissible — the scheduler
    /// guard still arbitrates with the real pipelined schedule.
    pub fn admission_margin(&self) -> f64 {
        match (self.kind.pricing(), self.sched) {
            (BenefitKind::Slots, _) => 0.0,
            (_, SchedKind::Modulo { .. }) => 0.0,
            (_, SchedKind::List) => 0.5 * self.prices.cost(OpQuery::Extract).latency as f64,
        }
    }

    /// Is candidate `ci` plausibly worth selecting, judged on its own
    /// (one-level lookahead, no recursion): its net benefit — cleared
    /// against the same admission margin the main loop applies — with
    /// every speculative flow optimistically treated as certain. Greedy
    /// selection commits groups irreversibly, so a candidate must not be
    /// admitted on reuse with a partner that could never pay off itself
    /// — the stranded producer would eat the very packing traffic the
    /// speculation discounted.
    /// `viab` memoizes verdicts per candidate within one assessment pass
    /// (shallow assessments never recurse back here, so the probe's
    /// verdict depends only on `(ci, alive, selected)`).
    fn shallow_viable(
        &self,
        ci: usize,
        alive: &[bool],
        selected: &[SimdGroup],
        viab: &RefCell<HashMap<usize, bool>>,
    ) -> bool {
        if let Some(&v) = viab.borrow().get(&ci) {
            return v;
        }
        let g = self.round.merged(ci);
        let v =
            self.assess_cycles(g, ci, alive, selected, true, viab).net() > self.admission_margin();
        viab.borrow_mut().insert(ci, v);
        v
    }

    // -- the slots model (historical) ------------------------------------

    fn assess_slots(
        &self,
        g: &SimdGroup,
        idx: usize,
        alive: &[bool],
        selected: &[SimdGroup],
    ) -> CostedBenefit {
        let mut b = CostedBenefit {
            saved: g.lanes() as f64 - 1.0,
            reuse: 0.0,
            reuse_speculative: 0.0,
            pack: 0.0,
            reuse_weight: 2.0,
        };
        match g.kind(self.dfg) {
            NodeKind::LoadArray(..) | NodeKind::LoadParam(..) => match mem_status(self.dfg, g) {
                MemStatus::ContiguousAligned => b.reuse += 1.0,
                MemStatus::ContiguousUnaligned => b.pack += 1.0,
                MemStatus::Gather => b.pack += g.lanes() as f64,
                MemStatus::NotMemory => {}
            },
            NodeKind::StoreArray(..) => {
                match mem_status(self.dfg, g) {
                    MemStatus::ContiguousAligned => b.reuse += 1.0,
                    MemStatus::ContiguousUnaligned => b.pack += 1.0,
                    MemStatus::Gather => b.pack += g.lanes() as f64,
                    MemStatus::NotMemory => {}
                }
                self.slots_operand(g, 0, idx, alive, selected, &mut b);
            }
            NodeKind::Bin(_) => {
                for pos in 0..2 {
                    self.slots_operand(g, pos, idx, alive, selected, &mut b);
                }
            }
            NodeKind::Un(_) => self.slots_operand(g, 0, idx, alive, selected, &mut b),
            _ => {}
        }
        match self.result_flow(g, idx, alive, selected) {
            Some(Flow::Reused) => b.reuse += 1.0,
            Some(Flow::Speculative(_)) => b.reuse_speculative += 0.5 * 2.0,
            Some(_) => {
                b.pack += self.external_lanes(g) as f64;
            }
            None => {}
        }
        b
    }

    fn slots_operand(
        &self,
        g: &SimdGroup,
        pos: usize,
        self_idx: usize,
        alive: &[bool],
        selected: &[SimdGroup],
        b: &mut CostedBenefit,
    ) {
        let Some(sw) = self.operand_superword(g, pos) else {
            return;
        };
        match self.operand_flow(&sw, self_idx, alive, selected) {
            Flow::Reused => b.reuse += 1.0,
            Flow::Speculative(_) => b.reuse_speculative += 0.5 * 2.0,
            Flow::Splat => b.pack += 1.0,
            Flow::Unresolved => b.pack += sw.len() as f64,
        }
    }

    // -- the cycles model -------------------------------------------------

    /// The cycle-priced assessment. `shallow` is the one-level-lookahead
    /// mode of [`shallow_viable`](Self::shallow_viable): speculative
    /// flows count as certain and no further viability checks recurse.
    fn assess_cycles(
        &self,
        g: &SimdGroup,
        idx: usize,
        alive: &[bool],
        selected: &[SimdGroup],
        shallow: bool,
        viab: &RefCell<HashMap<usize, bool>>,
    ) -> CostedBenefit {
        let lanes = g.lanes();
        let t = self.prices;
        // Packing traffic sits on the dependency chain between scalar
        // producers/consumers and the vector op, so its price is floored
        // at the op's latency: issue-slot throughput alone would let a
        // wide machine (XENTIUM's four ALUs absorb a pack in a quarter
        // cycle) hide traffic that still serializes the critical path.
        // On single-issue targets the floor is a no-op.
        let chain = |q: OpQuery| t.cycles(q).max(t.cost(q).latency as f64);
        let pack_price = chain(OpQuery::Pack(lanes));
        // A batch of `n` extracts pays one latency to enter the chain,
        // then pipelines at the unit's throughput.
        let extracts = |n: f64| {
            if n <= 0.0 {
                0.0
            } else {
                let thr = t.cycles(OpQuery::Extract);
                (t.cost(OpQuery::Extract).latency as f64 + (n - 1.0) * thr).max(n * thr)
            }
        };
        let mut b = CostedBenefit {
            saved: 0.0,
            reuse: 0.0,
            reuse_speculative: 0.0,
            pack: 0.0,
            reuse_weight: 1.0,
        };

        // The scalar ops the group displaces, at current word lengths.
        let scalar: f64 = g.elems.iter().map(|&e| self.scalar_op_cycles(e)).sum();

        // Operand superword traffic — and, as a side product, which
        // positions are backed by a group or live candidate (those are
        // the superwords a later scaling-equalization pass can reach).
        let arity = match g.kind(self.dfg) {
            NodeKind::Bin(_) => 2,
            NodeKind::Un(_) | NodeKind::StoreArray(..) => 1,
            _ => 0,
        };
        let mut group_backed = [false; 2];
        for (pos, backed) in group_backed.iter_mut().enumerate().take(arity) {
            let Some(sw) = self.operand_superword(g, pos) else {
                continue;
            };
            match self.operand_flow(&sw, idx, alive, selected) {
                Flow::Reused => {
                    b.reuse += pack_price;
                    *backed = true;
                }
                Flow::Speculative(_) if shallow => {
                    b.reuse += pack_price;
                    *backed = true;
                }
                Flow::Speculative(ci) if self.shallow_viable(ci, alive, selected, viab) => {
                    b.reuse_speculative += 0.5 * pack_price;
                    *backed = true;
                }
                // A partner that can never pay off will not be selected:
                // this superword will really be packed lane by lane.
                Flow::Speculative(_) | Flow::Unresolved => b.pack += pack_price,
                Flow::Splat => b.pack += chain(OpQuery::Splat(lanes)),
            }
        }

        // The vector realisation's core cost, including its scalings:
        // per-lane amounts are computed from the current formats, so a
        // group whose lanes scale by different amounts carries the full
        // fig. 2 unpack/shift/repack price rather than an assumed-free
        // (or assumed-uniform) vector shift.
        let vector = match g.kind(self.dfg) {
            NodeKind::LoadArray(..) | NodeKind::LoadParam(..) => match mem_status(self.dfg, g) {
                MemStatus::ContiguousAligned => t.cycles(OpQuery::VLoad(lanes)),
                MemStatus::ContiguousUnaligned => t.cycles(OpQuery::VLoadU(lanes)),
                _ => t.cycles(OpQuery::Gather(lanes)),
            },
            NodeKind::StoreArray(..) => {
                let access = match mem_status(self.dfg, g) {
                    MemStatus::ContiguousAligned => t.cycles(OpQuery::VStore(lanes)),
                    MemStatus::ContiguousUnaligned => t.cycles(OpQuery::VStoreU(lanes)),
                    _ => t.cycles(OpQuery::Scatter(lanes)),
                };
                access
                    + self.scaling_cost(self.operand_amounts(g, 0), lanes, false, group_backed[0])
            }
            NodeKind::Bin(BinOp::Mul) => {
                // The result scaling is equalizable consumer-side (mul
                // lanes own their formats) whenever some operand
                // superword is group-backed.
                let equalizable = group_backed[0] || group_backed[1];
                t.cycles(OpQuery::VMul(lanes))
                    + self.scaling_cost(self.mul_amounts(g), lanes, true, equalizable)
            }
            NodeKind::Bin(_) => {
                t.cycles(OpQuery::VAdd(lanes))
                    + self.scaling_cost(self.operand_amounts(g, 0), lanes, false, group_backed[0])
                    + self.scaling_cost(self.operand_amounts(g, 1), lanes, false, group_backed[1])
            }
            NodeKind::Un(_) => {
                t.cycles(OpQuery::VAdd(lanes))
                    + self.scaling_cost(self.operand_amounts(g, 0), lanes, false, group_backed[0])
            }
            _ => 0.0,
        };
        b.saved = scalar - vector;

        // What a packed consumer saves depends on what this group is:
        // consumers of a *load* group's result would otherwise pack the
        // scalar loads (one `Pack`, which a gathered load group still
        // pays itself — its reuse nets out to zero, as it should);
        // consumers of a *compute* group's result would otherwise force
        // one extract per lane.
        let result_reuse_price = match g.kind(self.dfg) {
            NodeKind::LoadArray(..) | NodeKind::LoadParam(..) => pack_price,
            _ => extracts(lanes as f64),
        };
        match self.result_flow(g, idx, alive, selected) {
            Some(Flow::Reused) => b.reuse += result_reuse_price,
            Some(Flow::Speculative(_)) if shallow => {
                b.reuse += result_reuse_price;
            }
            Some(Flow::Speculative(ci)) if self.shallow_viable(ci, alive, selected, viab) => {
                b.reuse_speculative += 0.5 * result_reuse_price;
            }
            Some(_) => b.pack += extracts(self.external_lanes(g) as f64),
            None => {}
        }
        b
    }

    /// Throughput cycles of the scalar op lane `e` currently costs, at
    /// its current (container) word length — including the scaling
    /// shifts scalar lowering pairs with it when the current formats
    /// demand them. Memoized per node for the model's lifetime (one
    /// word-length snapshot).
    fn scalar_op_cycles(&self, e: NodeId) -> f64 {
        if let Some(v) = self.scalar_cycles.borrow()[e.index()] {
            return v;
        }
        let v = self.scalar_op_cycles_uncached(e);
        self.scalar_cycles.borrow_mut()[e.index()] = Some(v);
        v
    }

    fn scalar_op_cycles_uncached(&self, e: NodeId) -> f64 {
        let t = self.prices;
        let cwl = |n: NodeId| self.container_wl(n);
        // One scalar requantization shift, unless the amount is known to
        // be zero. `assume` is the unknown-format default: multiplies
        // almost always rescale their double-width product, additive ops
        // usually absorb operands on their own grid.
        let shift = |amount: Option<i32>, assume: bool| -> f64 {
            match amount {
                Some(0) => 0.0,
                Some(_) => t.cycles(OpQuery::Shift(cwl(e))),
                None if assume => t.cycles(OpQuery::Shift(cwl(e))),
                None => 0.0,
            }
        };
        match &self.dfg.node(e).kind {
            NodeKind::LoadArray(..) | NodeKind::LoadParam(..) => t.cycles(OpQuery::Load(cwl(e))),
            NodeKind::StoreArray(..) => {
                t.cycles(OpQuery::Store(cwl(e))) + shift(self.node_operand_amount(e, 0), false)
            }
            NodeKind::Bin(BinOp::Mul) => {
                let in_wl = self
                    .round
                    .resolved_ops(e)
                    .iter()
                    .map(|&o| cwl(o))
                    .max()
                    .unwrap_or(cwl(e));
                t.cycles(OpQuery::Mul(in_wl)) + shift(self.node_mul_amount(e), true)
            }
            NodeKind::Bin(_) => {
                t.cycles(OpQuery::Add(cwl(e)))
                    + shift(self.node_operand_amount(e, 0), false)
                    + shift(self.node_operand_amount(e, 1), false)
            }
            NodeKind::Un(_) => {
                t.cycles(OpQuery::Add(cwl(e))) + shift(self.node_operand_amount(e, 0), false)
            }
            _ => 0.0,
        }
    }

    /// Current container word length of a node's value.
    fn container_wl(&self, n: NodeId) -> i32 {
        let t = self.target;
        let wl = (self.wl)(n).clamp(1, t.datapath);
        t.container_wl(wl).unwrap_or(t.datapath)
    }

    /// Result-scaling amount of a scalar multiply at current formats
    /// (`fwl(a) + fwl(b) - fwl(e)`); `None` when any format is unknown.
    fn node_mul_amount(&self, e: NodeId) -> Option<i32> {
        let ops = self.round.resolved_ops(e);
        let a = self.fwl_of(*ops.first()?)?;
        let b = self.fwl_of(*ops.get(1)?)?;
        Some(a + b - self.fwl_of(e)?)
    }

    /// Alignment amount of operand `pos` of node `e` at current formats
    /// (`fwl(op) - fwl(e)`); `None` when unknown.
    fn node_operand_amount(&self, e: NodeId, pos: usize) -> Option<i32> {
        let op = *self.round.resolved_ops(e).get(pos)?;
        Some(self.fwl_of(op)? - self.fwl_of(e)?)
    }

    /// Per-lane multiply result-scaling amounts of a group, folded to
    /// the predicates [`scaling_cost`](Self::scaling_cost) prices on;
    /// [`Amounts::Unknown`] when any lane's formats are unknown.
    fn mul_amounts(&self, g: &SimdGroup) -> Amounts {
        Amounts::fold(g.elems.iter().map(|&e| self.node_mul_amount(e)))
    }

    /// Per-lane operand alignment amounts of a group at position `pos`,
    /// folded the same way.
    fn operand_amounts(&self, g: &SimdGroup, pos: usize) -> Amounts {
        Amounts::fold(g.elems.iter().map(|&e| self.node_operand_amount(e, pos)))
    }

    /// Price of realising a vector scaling with the given per-lane
    /// amounts: nothing when all zero, one vector shift when uniform,
    /// the fig. 2 unpack/shift-per-lane/repack when mismatched. Unknown
    /// amounts (`None`) mirror the scalar side's defaults — a uniform
    /// vector shift when `assume` holds (multiply result scaling),
    /// nothing otherwise — so unknown-format pricing never biases the
    /// vector realisation against its scalar baseline.
    ///
    /// A mismatch is downgraded to the uniform vector-shift price when a
    /// scaling-equalization pass follows ([`assume_equalization`]
    /// (Self::assume_equalization)), the superword is `equalizable`
    /// (group-backed, so fig. 1b's reuse enumeration will see it) and
    /// every amount is non-negative (the equalizer skips mixed-sign
    /// amounts).
    fn scaling_cost(&self, amounts: Amounts, lanes: u32, assume: bool, equalizable: bool) -> f64 {
        let p = self.prices;
        match amounts {
            Amounts::Known { all_zero: true, .. } => 0.0,
            Amounts::Known { uniform: true, .. } => p.cycles(OpQuery::VShift(lanes)),
            Amounts::Known { all_nonneg, .. }
                if self.equalization_follows && equalizable && all_nonneg =>
            {
                p.cycles(OpQuery::VShift(lanes))
            }
            Amounts::Known { .. } => {
                let t = self.target;
                let elem = t.simd_element_wl(lanes).unwrap_or(t.datapath);
                lanes as f64 * (p.cycles(OpQuery::Extract) + p.cycles(OpQuery::Shift(elem)))
                    + p.cycles(OpQuery::Pack(lanes))
            }
            Amounts::Unknown if assume => p.cycles(OpQuery::VShift(lanes)),
            Amounts::Unknown => 0.0,
        }
    }

    // -- shared structural analysis --------------------------------------

    /// The operand superword of `g` at position `pos` (`None` when some
    /// lane has no operand there).
    fn operand_superword(&self, g: &SimdGroup, pos: usize) -> Option<Vec<NodeId>> {
        g.elems
            .iter()
            .map(|&e| self.round.resolved_ops(e).get(pos).copied())
            .collect()
    }

    /// Classifies how an operand superword is delivered.
    fn operand_flow(
        &self,
        sw: &[NodeId],
        self_idx: usize,
        alive: &[bool],
        selected: &[SimdGroup],
    ) -> Flow {
        // Produced by an already selected group, in lane order?
        if selected.iter().any(|s| s.elems == sw) {
            return Flow::Reused;
        }
        // Produced by another live candidate, in lane order?
        if let Some(ci) = self.matching_candidate(sw, self_idx, alive) {
            return Flow::Speculative(ci);
        }
        // Splat (same value in every lane): one broadcast.
        if sw.iter().all(|&n| n == sw[0]) {
            return Flow::Splat;
        }
        // Whole superword already packed as an item (e.g. a prior-round
        // group feeding an extension candidate).
        if self
            .round
            .item_of(sw)
            .is_some_and(|i| self.round.items[i].lanes() > 1)
        {
            return Flow::Reused;
        }
        Flow::Unresolved
    }

    /// Classifies how the group's results are consumed. `None` for
    /// stores (no value); `Unresolved` means scalar users need extracts.
    fn result_flow(
        &self,
        g: &SimdGroup,
        self_idx: usize,
        alive: &[bool],
        selected: &[SimdGroup],
    ) -> Option<Flow> {
        if matches!(g.kind(self.dfg), NodeKind::StoreArray(..)) {
            return None; // stores produce no value
        }
        // A consumer superword exists if some selected group or live
        // candidate uses lane i's value in its lane i, at one common
        // operand position — only then does the result flow register to
        // register (lowering's `vector_operand` materialises operand
        // superwords per position; lanes consumed at different positions
        // would still be extracted).
        let consumed_by = |cons: &SimdGroup| -> bool {
            if cons.lanes() != g.lanes() {
                return false;
            }
            let arity = cons
                .elems
                .iter()
                .map(|&u| self.round.resolved_ops(u).len())
                .min()
                .unwrap_or(0);
            (0..arity).any(|pos| {
                g.elems
                    .iter()
                    .zip(&cons.elems)
                    .all(|(&prod, &user)| self.round.resolved_ops(user).get(pos) == Some(&prod))
            })
        };
        if selected.iter().any(&consumed_by) {
            return Some(Flow::Reused);
        }
        // Candidate consumers come from the round's inverted index: every
        // candidate with `g.elems` as an operand superword, in candidate
        // order (so the first live one matches the original linear scan).
        for &ci in self.round.consumers_of(&g.elems) {
            if alive[ci] && ci != self_idx {
                return Some(Flow::Speculative(ci));
            }
        }
        Some(Flow::Unresolved)
    }

    /// Lanes whose value has scalar users outside the group (each needs
    /// an extract when no consumer superword exists).
    fn external_lanes(&self, g: &SimdGroup) -> usize {
        g.elems
            .iter()
            .filter(|&&e| self.round.node_has_users(e))
            .count()
    }

    /// The live candidate (other than `self_idx`) whose merged lanes
    /// equal `sw`, if any.
    ///
    /// Splitting `sw` at its midpoint is exhaustive: candidates merge two
    /// equal-size items, so a candidate producing `sw` must be the pair
    /// of items holding its two halves (for `sw.len() == 2` those are
    /// the singleton items, which `Round::item_of` resolves like any
    /// other). When either half is not an item, no candidate can produce
    /// `sw`.
    fn matching_candidate(&self, sw: &[NodeId], self_idx: usize, alive: &[bool]) -> Option<usize> {
        if sw.len() < 2 {
            return None;
        }
        let half = sw.len() / 2;
        let (Some(li), Some(ri)) = (
            self.round.item_of(&sw[..half]),
            self.round.item_of(&sw[half..]),
        ) else {
            return None;
        };
        let ci = self.round.candidate_of(li, ri)?;
        (ci != self_idx && alive[ci]).then_some(ci)
    }

    // -- exact-selection support ------------------------------------------

    /// Optimistic (shallow) assessment of candidate `idx`: every
    /// speculative flow counts as certain full-price reuse, with no
    /// viability recursion. For the cycle pricing this upper-bounds the
    /// candidate's *in-set* net benefit over every possible chosen set —
    /// a flow either resolves to certain reuse (what the optimism
    /// already credits) or degrades to packing traffic — which is what
    /// makes it a sound branch-and-bound bound for
    /// [`BenefitKind::Optimal`]. Sanitized like every pass assessment.
    pub fn assess_optimistic(
        &self,
        idx: usize,
        alive: &[bool],
        selected: &[SimdGroup],
    ) -> CostedBenefit {
        let g = self.round.merged(idx);
        match self.kind.pricing() {
            BenefitKind::Slots => self.assess_slots(g, idx, alive, selected),
            _ => {
                let viab = RefCell::new(HashMap::new());
                self.assess_cycles(g, idx, alive, selected, true, &viab)
            }
        }
        .sanitized()
    }

    /// The live candidates whose selection changes candidate `idx`'s
    /// pricing through superword reuse: producers of its operand
    /// superwords and consumers of its result superword. The relation is
    /// symmetric (a producer's consumer index lists `idx` back), so its
    /// connected components partition the round's candidates into
    /// pricing-independent islands — the exact selector searches only
    /// components that contain a positively-valued member.
    pub fn reuse_partners(&self, idx: usize, alive: &[bool]) -> Vec<usize> {
        let g = self.round.merged(idx);
        let mut out = Vec::new();
        let arity = match g.kind(self.dfg) {
            NodeKind::Bin(_) => 2,
            NodeKind::Un(_) | NodeKind::StoreArray(..) => 1,
            _ => 0,
        };
        for pos in 0..arity {
            if let Some(sw) = self.operand_superword(g, pos) {
                if let Some(ci) = self.matching_candidate(&sw, idx, alive) {
                    out.push(ci);
                }
            }
        }
        if !matches!(g.kind(self.dfg), NodeKind::StoreArray(..)) {
            for &ci in self.round.consumers_of(&g.elems) {
                if ci != idx && alive[ci] {
                    out.push(ci);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One assessment pass over a fixed `(alive, selected)` state — see
/// [`BenefitModel::pass`].
///
/// Holds the per-pass viability memo; the verdicts it caches are only
/// valid while the liveness and selection state stay fixed, which is why
/// the memo lives here and not on the model.
pub struct AssessPass<'s, 'a> {
    model: &'s BenefitModel<'a>,
    alive: &'s [bool],
    selected: &'s [SimdGroup],
    viable: RefCell<HashMap<usize, bool>>,
}

impl AssessPass<'_, '_> {
    /// Full priced assessment of candidate `idx` — identical to
    /// [`BenefitModel::assess`] with the pass's state. The result is
    /// [`sanitized`](CostedBenefit::sanitized): non-finite prices leave
    /// here as the unselectable benefit, never as a NaN `net()`.
    pub fn assess(&self, idx: usize) -> CostedBenefit {
        let g = self.model.round.merged(idx);
        match self.model.kind.pricing() {
            BenefitKind::Slots => self.model.assess_slots(g, idx, self.alive, self.selected),
            _ => self
                .model
                .assess_cycles(g, idx, self.alive, self.selected, false, &self.viable),
        }
        .sanitized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::resolved_operands;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::{vex, xentium};

    fn fir_unrolled() -> Dfg {
        let src = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var t0;
    var t1;
    shiftin dl <- x;
    t0 = c[0] * dl[0] + c[1] * dl[1];
    t1 = c[2] * dl[2] + c[3] * dl[3];
    y = t0 + t1;
}
"#;
        let k = parse_kernel(src).unwrap();
        let blocks = collect_blocks(&k);
        Dfg::from_stmts(&k, &blocks[0].stmts)
    }

    fn models<'a>(
        dfg: &'a Dfg,
        round: &'a Round,
        prices: &'a CycleCache<'a>,
    ) -> [BenefitModel<'a>; 2] {
        let max = prices.target().max_wl();
        [
            BenefitModel::new(
                dfg,
                round,
                prices,
                BenefitKind::Slots,
                move |_| max,
                |_| None,
            ),
            BenefitModel::new(dfg, round, prices, BenefitKind::Cycles, |_| 16, |_| None),
        ]
    }

    fn cycles_model<'a>(
        dfg: &'a Dfg,
        round: &'a Round,
        prices: &'a CycleCache<'a>,
        wl: i32,
    ) -> BenefitModel<'a> {
        BenefitModel::new(
            dfg,
            round,
            prices,
            BenefitKind::Cycles,
            move |_| wl,
            |_| None,
        )
    }

    #[test]
    fn adjacent_load_pairs_beat_gather_pairs() {
        let dfg = fir_unrolled();
        let target = xentium();
        let round = Round::new(&dfg, &target, &[]);
        for model in models(&dfg, &round, &CycleCache::new(&target)) {
            let alive = vec![true; round.candidates.len()];
            let mut best_adjacent = f64::MIN;
            let mut best_gather = f64::MIN;
            for idx in 0..round.candidates.len() {
                let c = round.candidates[idx];
                let g = round.items[c.left].concat(&round.items[c.right]);
                if matches!(g.kind(&dfg), NodeKind::LoadArray(..)) {
                    let b = model.benefit(idx, &alive, &[]);
                    match mem_status(&dfg, &g) {
                        MemStatus::ContiguousAligned => best_adjacent = best_adjacent.max(b),
                        MemStatus::Gather => best_gather = best_gather.max(b),
                        _ => {}
                    }
                }
            }
            assert!(
                best_adjacent > best_gather,
                "{:?}: {best_adjacent} vs {best_gather}",
                model.kind
            );
        }
    }

    #[test]
    fn candidate_reuse_raises_benefit() {
        let dfg = fir_unrolled();
        let target = xentium();
        let round = Round::new(&dfg, &target, &[]);
        for model in models(&dfg, &round, &CycleCache::new(&target)) {
            let alive = vec![true; round.candidates.len()];
            let dead = vec![false; round.candidates.len()];
            for idx in 0..round.candidates.len() {
                let c = round.candidates[idx];
                let g = round.items[c.left].concat(&round.items[c.right]);
                if matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Mul)) {
                    let with_cands = model.benefit(idx, &alive, &[]);
                    let without = model.benefit(idx, &dead, &[]);
                    assert!(
                        with_cands >= without,
                        "{:?}: live operand candidates must not lower benefit \
                         ({with_cands} vs {without})",
                        model.kind
                    );
                }
            }
        }
    }

    #[test]
    fn selected_reuse_beats_candidate_reuse() {
        let dfg = fir_unrolled();
        let target = xentium();
        let round = Round::new(&dfg, &target, &[]);
        for model in models(&dfg, &round, &CycleCache::new(&target)) {
            let alive = vec![true; round.candidates.len()];
            // Take the first mul pair candidate; compare benefit with its
            // operand loads merely candidates vs actually selected.
            let mut checked = false;
            for idx in 0..round.candidates.len() {
                let c = round.candidates[idx];
                let g = round.items[c.left].concat(&round.items[c.right]);
                if !matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Mul)) {
                    continue;
                }
                let param_sw: Vec<NodeId> = g
                    .elems
                    .iter()
                    .map(|&e| resolved_operands(&dfg, e)[0])
                    .collect();
                let array_sw: Vec<NodeId> = g
                    .elems
                    .iter()
                    .map(|&e| resolved_operands(&dfg, e)[1])
                    .collect();
                let selected = vec![SimdGroup { elems: param_sw }, SimdGroup { elems: array_sw }];
                let b_sel = model.benefit(idx, &alive, &selected);
                let b_cand = model.benefit(idx, &alive, &[]);
                assert!(b_sel > b_cand, "{:?}: {b_sel} vs {b_cand}", model.kind);
                checked = true;
                break;
            }
            assert!(checked, "no mul candidate found");
        }
    }

    #[test]
    fn two_lane_singleton_operands_count_as_candidate_reuse() {
        // Pins the `matching_candidate` contract the dead `sw.len() == 2`
        // special case used to obscure: a 2-lane operand superword whose
        // halves are singleton items with a live merge candidate *is*
        // candidate reuse, and killing that candidate removes it.
        let dfg = fir_unrolled();
        let target = xentium();
        let round = Round::new(&dfg, &target, &[]);
        let prices = CycleCache::new(&target);
        let max = target.max_wl();
        let model = BenefitModel::new(
            &dfg,
            &round,
            &prices,
            BenefitKind::default(),
            |_| max,
            |_| None,
        );
        let mut verified = false;
        for idx in 0..round.candidates.len() {
            let c = round.candidates[idx];
            let g = round.items[c.left].concat(&round.items[c.right]);
            if !matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Mul)) {
                continue;
            }
            // Both operand superwords (param loads, array loads) are made
            // of singleton items and have live load-pair candidates.
            for pos in 0..2 {
                let sw: Vec<NodeId> = g
                    .elems
                    .iter()
                    .map(|&e| resolved_operands(&dfg, e)[pos])
                    .collect();
                assert_eq!(sw.len(), 2);
                let alive = vec![true; round.candidates.len()];
                assert!(
                    model.matching_candidate(&sw, idx, &alive).is_some(),
                    "operand pair {sw:?} must be recognised as a live candidate"
                );
                // Kill every candidate: the reuse disappears.
                let dead = vec![false; round.candidates.len()];
                assert!(model.matching_candidate(&sw, idx, &dead).is_none());
                verified = true;
            }
            break;
        }
        assert!(verified, "no mul candidate found");
    }

    #[test]
    fn cycles_model_prices_packing_higher_on_single_issue() {
        // The same structural candidate must carry strictly more packing
        // cost on VEX-1 (every pack insert is a whole cycle) than on
        // XENTIUM (four ALUs absorb inserts), and an isolated mul pair
        // (operand candidates dead, scalar consumers) must be a clear
        // net loss on the single-issue machine.
        let dfg = fir_unrolled();
        let narrow = vex(1);
        let wide = xentium();
        let pack_of = |target: &TargetModel| -> f64 {
            let round = Round::new(&dfg, target, &[]);
            let prices = CycleCache::new(target);
            let model = cycles_model(&dfg, &round, &prices, 16);
            let dead = vec![false; round.candidates.len()];
            for idx in 0..round.candidates.len() {
                let c = round.candidates[idx];
                let g = round.items[c.left].concat(&round.items[c.right]);
                if matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Mul)) {
                    let b = model.assess(idx, &dead, &[]);
                    if target.issue_width == 1 {
                        assert!(
                            b.net() < 0.0,
                            "VEX-1: isolated mul pack must be a loss, got {b:?}"
                        );
                    }
                    return b.pack;
                }
            }
            panic!("no mul candidate found");
        };
        assert!(
            pack_of(&narrow) > pack_of(&wide),
            "single-issue packing must be priced higher"
        );
    }

    #[test]
    fn cycles_model_rewards_displacing_wide_multiplies() {
        // At 32-bit current word lengths a mul pair displaces two
        // macro-expanded multiplies on XENTIUM — the saved term must be
        // larger than at 16-bit current word lengths.
        let dfg = fir_unrolled();
        let target = xentium();
        let round = Round::new(&dfg, &target, &[]);
        let prices = CycleCache::new(&target);
        let wide = cycles_model(&dfg, &round, &prices, 32);
        let narrow = cycles_model(&dfg, &round, &prices, 16);
        let alive = vec![true; round.candidates.len()];
        for idx in 0..round.candidates.len() {
            let c = round.candidates[idx];
            let g = round.items[c.left].concat(&round.items[c.right]);
            if matches!(g.kind(&dfg), NodeKind::Bin(slpwlo_ir::BinOp::Mul)) {
                let b32 = wide.assess(idx, &alive, &[]);
                let b16 = narrow.assess(idx, &alive, &[]);
                assert!(
                    b32.saved > b16.saved,
                    "32-bit displacement must save more: {b32:?} vs {b16:?}"
                );
            }
        }
    }

    #[test]
    fn sanitized_collapses_non_finite_benefits() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for slot in 0..4 {
                let mut parts = [1.0, 2.0, 0.5, 3.0];
                parts[slot] = poison;
                let b =
                    CostedBenefit::from_parts(parts[0], parts[1], parts[2], parts[3]).sanitized();
                assert_eq!(b.net(), f64::NEG_INFINITY, "slot {slot} poison {poison}");
                assert_eq!(b.rank(), 0.0, "slot {slot} poison {poison}");
            }
        }
        // A finite benefit passes through unchanged.
        let b = CostedBenefit::from_parts(1.0, 2.0, 0.5, 3.0);
        assert_eq!(b.sanitized(), b);
    }

    #[test]
    fn optimal_kind_prices_as_cycles() {
        let dfg = fir_unrolled();
        let target = xentium();
        let round = Round::new(&dfg, &target, &[]);
        let prices = CycleCache::new(&target);
        let cycles = cycles_model(&dfg, &round, &prices, 16);
        let optimal = BenefitModel::new(
            &dfg,
            &round,
            &prices,
            BenefitKind::optimal(),
            |_| 16,
            |_| None,
        );
        assert_eq!(BenefitKind::optimal().pricing(), BenefitKind::Cycles);
        assert_eq!(BenefitKind::optimal().name(), "optimal");
        assert_eq!(cycles.admission_margin(), optimal.admission_margin());
        let alive = vec![true; round.candidates.len()];
        for idx in 0..round.candidates.len() {
            assert_eq!(
                cycles.assess(idx, &alive, &[]),
                optimal.assess(idx, &alive, &[]),
                "candidate {idx}: Optimal must assess exactly as Cycles"
            );
        }
    }

    #[test]
    fn optimistic_assessment_bounds_the_in_set_assessment() {
        // The branch-and-bound soundness invariant: the shallow
        // optimistic net is an upper bound on the candidate's net under
        // *any* committed set — probed here against the empty set and
        // against every single-partner set, with liveness off (the
        // in-set pricing the exact selector's value function uses).
        let dfg = fir_unrolled();
        for target in [xentium(), vex(1), vex(4)] {
            let round = Round::new(&dfg, &target, &[]);
            let prices = CycleCache::new(&target);
            let model = cycles_model(&dfg, &round, &prices, 16);
            let alive = vec![true; round.candidates.len()];
            let dead = vec![false; round.candidates.len()];
            for idx in 0..round.candidates.len() {
                let opt = model.assess_optimistic(idx, &alive, &[]).net();
                let bare = model.assess(idx, &dead, &[]).net();
                assert!(
                    opt >= bare - 1e-9,
                    "{}: cand {idx} optimistic {opt} < bare in-set {bare}",
                    target.name
                );
                for p in model.reuse_partners(idx, &alive) {
                    let sel = vec![round.merged(p).clone()];
                    let with = model.assess(idx, &dead, &sel).net();
                    assert!(
                        opt >= with - 1e-9,
                        "{}: cand {idx} optimistic {opt} < in-set-with-{p} {with}",
                        target.name
                    );
                }
            }
        }
    }

    #[test]
    fn reuse_partners_is_symmetric() {
        let dfg = fir_unrolled();
        let target = xentium();
        let round = Round::new(&dfg, &target, &[]);
        let prices = CycleCache::new(&target);
        let model = cycles_model(&dfg, &round, &prices, 16);
        let alive = vec![true; round.candidates.len()];
        let mut edges = 0;
        for idx in 0..round.candidates.len() {
            for p in model.reuse_partners(idx, &alive) {
                edges += 1;
                assert!(
                    model.reuse_partners(p, &alive).contains(&idx),
                    "edge {idx} -> {p} has no back edge"
                );
            }
        }
        assert!(edges > 0, "FIR must expose at least one reuse edge");
    }

    #[test]
    fn rank_is_finite_and_non_negative() {
        let dfg = fir_unrolled();
        for target in [xentium(), vex(1), vex(4)] {
            let round = Round::new(&dfg, &target, &[]);
            for model in models(&dfg, &round, &CycleCache::new(&target)) {
                let alive = vec![true; round.candidates.len()];
                for idx in 0..round.candidates.len() {
                    let b = model.benefit(idx, &alive, &[]);
                    assert!(b.is_finite() && b >= 0.0, "{:?}: {b}", model.kind);
                }
            }
        }
    }
}
