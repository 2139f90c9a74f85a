//! Accuracy-aware SLP extraction policy (fig. 1c of the paper).
//!
//! Implements `SETMAXWL` and the three accuracy-awareness points injected
//! into the structural selection loop of `slpwlo-slp`:
//!
//! * **candidate validation** (lines 4–12): a candidate whose selection —
//!   with everything else untouched — violates the accuracy constraint can
//!   never be realised and is eliminated up-front;
//! * **accuracy conflicts** (lines 13–25): two individually valid
//!   candidates whose *joint* selection violates the constraint cannot
//!   coexist;
//! * **selection** (lines 26–35): `SETMAXWL` permanently shrinks the
//!   selected group's word lengths per equation (1); should the cumulative
//!   effect of a selection break the constraint after all (the paper's
//!   pairwise conflicts cannot rule this out), the selection is vetoed and
//!   rolled back.
//!
//! Validation and conflict answers are memoized in a `TrialMemo`: many
//! candidates and candidate pairs shrink exactly the same keys to the same
//! word lengths, and rounds re-ask the same questions while the spec has
//! not moved.

use crate::nodes::{node_key, value_format, value_wl};
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_fixedpoint::{FixedPointSpec, SpecKey};
use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use slpwlo_slp::{resolved_operands, CandidateView, SelectHooks, SimdGroup};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Answers of accuracy trials against one committed specification, keyed
/// by the trial's write set: the written keys with their final word
/// lengths, sorted and deduplicated.
///
/// `SETMAXWL` only ever narrows a key while preserving its integer word
/// length, and output noise depends on nothing but the formats, so two
/// trials with equal write sets over the same committed spec get the same
/// answer. The memo is valid for one constraint and must be cleared
/// whenever the committed spec changes.
#[derive(Debug, Default)]
pub(crate) struct TrialMemo {
    answers: HashMap<Box<[u64]>, bool, BuildHasherDefault<WordHasher>>,
    /// The write set of the trial being looked up, one
    /// [`write_code`] per written key.
    writes: Vec<u64>,
}

impl TrialMemo {
    /// Forgets every answer (the committed spec changed).
    pub(crate) fn clear(&mut self) {
        self.answers.clear();
    }

    /// Loads the write set of the trial open since `mark`.
    fn load(&mut self, spec: &FixedPointSpec, mark: usize) {
        self.writes.clear();
        self.writes.extend(
            spec.changed_since(mark)
                .map(|key| write_code(key, spec.wl(key))),
        );
        self.writes.sort_unstable();
        self.writes.dedup();
    }

    fn get(&self) -> Option<bool> {
        self.answers.get(&self.writes[..]).copied()
    }

    fn insert(&mut self, meets: bool) {
        self.answers.insert(self.writes.as_slice().into(), meets);
    }
}

/// A code for "`key` has word length `wl`": key space, 32-bit key index
/// and 16-bit word length in disjoint bit fields, so sorting the codes
/// orders writes by key (the key type deliberately does not implement
/// `Ord`).
fn write_code(key: SpecKey, wl: i32) -> u64 {
    let (space, idx) = match key {
        SpecKey::Expr(e) => (0, e.0),
        SpecKey::Array(a) => (1, a.0),
        SpecKey::Param(p) => (2, p.0),
    };
    debug_assert!((1..=i32::from(u16::MAX)).contains(&wl), "word length {wl}");
    (space << 48) | (u64::from(idx) << 16) | u64::from(wl as u16)
}

/// A multiply-rotate hasher for the memo's machine-word keys, which the
/// default SipHash would make a visible share of a lookup.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Selection hooks enforcing the accuracy constraint.
pub struct AccuracyHooks<'a> {
    dfg: &'a Dfg,
    spec: &'a mut FixedPointSpec,
    eval: &'a dyn AccuracyEvaluator,
    /// Accuracy constraint in dB (maximum tolerable output noise power).
    constraint_db: f64,
    /// Whole-spec snapshot for the exact selector's checkpoint/restore
    /// protocol. `FixedPointSpec::commit` truncates the undo journal, so
    /// a committed greedy probe cannot be unwound through the journal —
    /// a clone of the spec is the only sound checkpoint.
    saved: Option<FixedPointSpec>,
    /// Validation and conflict answers against the committed spec.
    memo: TrialMemo,
}

impl<'a> AccuracyHooks<'a> {
    /// Creates the hooks over the working specification and synchronizes
    /// the evaluator's incremental caches with it.
    pub fn new(
        dfg: &'a Dfg,
        spec: &'a mut FixedPointSpec,
        eval: &'a dyn AccuracyEvaluator,
        constraint_db: f64,
    ) -> Self {
        eval.begin(spec);
        AccuracyHooks {
            dfg,
            spec,
            eval,
            constraint_db,
            saved: None,
            memo: TrialMemo::default(),
        }
    }

    /// Continues from `memo`, whose answers must hold for this spec and
    /// constraint; [`Self::into_memo`] hands it back for the next round.
    pub(crate) fn with_memo(mut self, memo: TrialMemo) -> Self {
        self.memo = memo;
        self
    }

    /// The memo, valid for the spec as these hooks leave it.
    pub(crate) fn into_memo(self) -> TrialMemo {
        self.memo
    }

    /// One `SETMAXWL` trial: evaluates the spec with the writes since
    /// `mark` open, via the evaluator's incremental trial path.
    fn trial_meets(&self, mark: usize) -> bool {
        self.eval.trial_meets(self.spec, mark, self.constraint_db)
    }

    /// A trial whose writes are then discarded, answered from the memo
    /// when an equal write set was tried against the same spec before.
    fn probe(&mut self, mark: usize) -> bool {
        self.memo.load(self.spec, mark);
        let hit = self.memo.get();
        #[cfg(test)]
        if let Some(ok) = hit {
            audit::hit(self.spec, ok);
        }
        let ok = hit.unwrap_or_else(|| self.trial_meets(mark));
        self.spec.rollback(mark);
        if hit.is_none() {
            self.eval.rollback_trial();
            self.memo.insert(ok);
        }
        ok
    }
}

impl SelectHooks for AccuracyHooks<'_> {
    fn validate(&mut self, view: &CandidateView) -> bool {
        let mark = self.spec.mark();
        set_max_wl(self.spec, self.dfg, &view.group, view.elem_wl);
        self.probe(mark)
    }

    fn accuracy_conflict(&mut self, a: &CandidateView, b: &CandidateView) -> bool {
        let mark = self.spec.mark();
        set_max_wl(self.spec, self.dfg, &a.group, a.elem_wl);
        set_max_wl(self.spec, self.dfg, &b.group, b.elem_wl);
        !self.probe(mark)
    }

    fn on_select(&mut self, view: &CandidateView) -> bool {
        let mark = self.spec.mark();
        set_max_wl(self.spec, self.dfg, &view.group, view.elem_wl);
        if self.trial_meets(mark) {
            if self.spec.changed_since(mark).next().is_some() {
                self.memo.clear();
            }
            self.spec.commit(mark);
            self.eval.commit_trial();
            true
        } else {
            self.spec.rollback(mark);
            self.eval.rollback_trial();
            false
        }
    }

    /// The evolving spec is the word-length oracle of the WLO↔SLP loop:
    /// cycle-priced benefit estimation sees every `SETMAXWL` shrink, so
    /// live candidates are re-priced as selections commit.
    fn current_wl(&self, node: NodeId) -> Option<i32> {
        Some(value_wl(self.spec, self.dfg, node))
    }

    /// Current fractional word lengths let the cycle-priced model see
    /// per-lane scaling amounts (and price fig. 2 mismatches) instead of
    /// assuming uniform scalings.
    fn current_fwl(&self, node: NodeId) -> Option<i32> {
        Some(value_format(self.spec, self.dfg, node).fwl)
    }

    /// Snapshot the working spec so the exact selector can probe a whole
    /// greedy round — `on_select` commits included — speculatively.
    fn checkpoint(&mut self) {
        self.saved = Some(self.spec.clone());
    }

    /// Restore the last snapshot and re-synchronize the evaluator's
    /// incremental caches with the restored spec (the same contract as
    /// construction).
    fn restore(&mut self) {
        if let Some(saved) = self.saved.take() {
            *self.spec = saved;
            self.eval.begin(self.spec);
            self.memo.clear();
        }
    }
}

/// Test-only observer of memo hits.
#[cfg(test)]
pub(crate) mod audit {
    use slpwlo_fixedpoint::FixedPointSpec;
    use std::cell::RefCell;

    type Observer = Box<dyn FnMut(&FixedPointSpec, bool)>;

    thread_local! {
        static OBSERVER: RefCell<Option<Observer>> = const { RefCell::new(None) };
    }

    /// Runs `f`, calling `observer` on every memo hit on this thread
    /// with the spec as the trial's writes left it and the memoized
    /// answer.
    pub(crate) fn observe<R>(
        observer: impl FnMut(&FixedPointSpec, bool) + 'static,
        f: impl FnOnce() -> R,
    ) -> R {
        OBSERVER.with(|o| *o.borrow_mut() = Some(Box::new(observer)));
        let out = f();
        OBSERVER.with(|o| *o.borrow_mut() = None);
        out
    }

    pub(super) fn hit(spec: &FixedPointSpec, ok: bool) {
        OBSERVER.with(|o| {
            if let Some(observer) = o.borrow_mut().as_mut() {
                observer(spec, ok);
            }
        });
    }
}

/// `SETMAXWL(c, SPEC)`: sets every element of the group to the maximum
/// word length `m` the target grants the group (equation (1)), and caps
/// the *data delivered to the group's lanes* at `m` as well — a SIMD
/// instruction over `m`-bit sub-words consumes `m`-bit superwords, so the
/// operand producers (arrays, coefficient tables, feeding operations)
/// must narrow too. For truncation chains this is equivalent to
/// narrowing at pack time, applied conservatively to all consumers.
pub fn set_max_wl(spec: &mut FixedPointSpec, dfg: &Dfg, group: &SimdGroup, m: i32) {
    for &e in &group.elems {
        let node = dfg.node(e);
        if let Some(key) = node_key(dfg, e) {
            cap(spec, key, m);
        }
        match &node.kind {
            NodeKind::Bin(_) | NodeKind::Un(_) | NodeKind::StoreArray(..) => {
                for op in resolved_operands(dfg, e) {
                    cap_node(spec, dfg, op, m);
                }
            }
            _ => {}
        }
    }
}

fn cap_node(spec: &mut FixedPointSpec, dfg: &Dfg, n: NodeId, m: i32) {
    if let Some(key) = node_key(dfg, n) {
        cap(spec, key, m);
    }
}

fn cap(spec: &mut FixedPointSpec, key: SpecKey, m: i32) {
    if spec.wl(key) > m {
        spec.set_wl(key, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_accuracy::AnalyticalEvaluator;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::types::ArrayId;
    use slpwlo_ir::Kernel;
    use slpwlo_slp::{extract_rounds, mem_status, BenefitKind, PassCtx};
    use slpwlo_targets::{xentium, CycleCache, SchedKind, TargetModel};

    const SRC: &str = r#"
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

    /// The joint flow's context: scaling equalization follows.
    fn joint(target: &TargetModel) -> PassCtx<'_> {
        let costs = CycleCache::new(target);
        PassCtx::new(costs, BenefitKind::default(), SchedKind::List, true)
    }

    fn setup() -> (Kernel, Dfg, FixedPointSpec, AnalyticalEvaluator) {
        let k = parse_kernel(SRC).unwrap();
        let r = determine_ranges(&k);
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let eval = AnalyticalEvaluator::new(&k);
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_stmts(&k, &blocks[0].stmts);
        (k, dfg, spec, eval)
    }

    #[test]
    fn set_max_wl_shrinks_group_and_feeding_data() {
        let (_, dfg, mut spec, _) = setup();
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(slpwlo_ir::BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let g = SimdGroup {
            elems: vec![muls[0], muls[1]],
        };
        set_max_wl(&mut spec, &dfg, &g, 16);
        // The muls themselves.
        for &m in &g.elems {
            let key = node_key(&dfg, m).unwrap();
            assert_eq!(spec.wl(key), 16);
        }
        // The coefficient table and delay line feeding them.
        assert_eq!(spec.wl(SpecKey::Array(ArrayId(0))), 16);
    }

    #[test]
    fn loose_constraint_allows_groups_tight_constraint_blocks_them() {
        let (_, dfg, mut spec, eval) = setup();
        let target = xentium();
        // Loose constraint: everything packs.
        let mut hooks = AccuracyHooks::new(&dfg, &mut spec, &eval, -40.0);
        let groups = extract_rounds(&mut joint(&target), &dfg, &mut hooks);
        assert!(!groups.is_empty(), "-40 dB must allow 16-bit SIMD groups");
        assert!(
            eval.meets(&spec, -40.0),
            "constraint must hold after extraction"
        );

        // Impossibly tight constraint: nothing packs (16-bit data cannot
        // reach -200 dB).
        let (_, dfg2, mut spec2, eval2) = setup();
        let before = eval2.noise_db(&spec2);
        let mut hooks2 = AccuracyHooks::new(&dfg2, &mut spec2, &eval2, -200.0);
        let groups2 = extract_rounds(&mut joint(&target), &dfg2, &mut hooks2);
        assert!(groups2.is_empty(), "-200 dB must block all 16-bit grouping");
        // The spec is untouched (all rollbacks).
        assert_eq!(eval2.noise_db(&spec2), before);
    }

    #[test]
    fn extraction_prefers_contiguous_load_groups() {
        let (_, dfg, mut spec, eval) = setup();
        let target = xentium();
        let mut hooks = AccuracyHooks::new(&dfg, &mut spec, &eval, -40.0);
        let groups = extract_rounds(&mut joint(&target), &dfg, &mut hooks);
        for g in &groups {
            if matches!(
                g.kind(&dfg),
                NodeKind::LoadArray(..) | NodeKind::LoadParam(..)
            ) {
                assert_ne!(
                    mem_status(&dfg, g),
                    slpwlo_slp::MemStatus::Gather,
                    "benefit model must avoid gathered load groups here"
                );
            }
        }
    }

    #[test]
    fn spec_meets_constraint_after_any_extraction() {
        for db in [-20.0, -45.0, -70.0, -90.0] {
            let (_, dfg, mut spec, eval) = setup();
            let mut hooks = AccuracyHooks::new(&dfg, &mut spec, &eval, db);
            let _ = extract_rounds(&mut joint(&xentium()), &dfg, &mut hooks);
            assert!(
                eval.meets(&spec, db),
                "constraint {db} dB violated: got {}",
                eval.noise_db(&spec)
            );
        }
    }
}
