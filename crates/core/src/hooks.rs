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
//! Validation and conflict questions are screening: they are asked of
//! the round-entry spec, the spec as it stands at the round's `screen`.
//! So `screen` derives each candidate's `SETMAXWL` write set once, as
//! the sorted list of `(key, wl)` codes it would leave against the
//! round-entry spec, and a pair's write set is the key-wise merge of its
//! two lists (where both write a key, the narrower word length wins:
//! `SETMAXWL` only narrows). Answers are memoized in a `TrialMemo` keyed
//! by those write sets — many candidates and candidate pairs shrink
//! exactly the same keys to the same word lengths, and rounds re-ask the
//! same questions while the spec has not moved — so a memo hit touches
//! neither the spec nor its journal. Only a miss decodes the write set
//! into spec writes for one evaluator trial, then rolls them back.
//!
//! Selectors ask pair questions lazily, so one may come after the
//! round's `on_select` commits. The hooks therefore record the
//! round-entry format of every key a commit narrows (the first write per
//! key), and a miss reinstates those formats inside its own trial before
//! it applies the pair's writes. The memo keeps describing the
//! round-entry spec for the whole round, and is cleared at the next
//! `screen` only if the round committed a write.

use crate::nodes::{node_key, value_format, value_wl};
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_fixedpoint::{FixedPointSpec, QFormat, SpecKey};
use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use slpwlo_ir::types::{ArrayId, ExprId, ParamId};
use slpwlo_slp::{resolve_producer, CandidateView, SelectHooks, SimdGroup};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Answers of accuracy trials against one specification, keyed by the
/// trial's write set: the written keys with their final word lengths as
/// [`write_code`]s, sorted, one per key.
///
/// `SETMAXWL` only ever narrows a key while preserving its integer word
/// length, and output noise depends on nothing but the formats, so two
/// trials with equal write sets over the same spec get the same answer.
/// The memo is valid for one constraint and one spec: the round-entry
/// spec of the round being selected. It must be cleared whenever a new
/// round opens on a spec that differs from that one.
#[derive(Debug, Default)]
pub(crate) struct TrialMemo {
    answers: HashMap<Box<[u64]>, bool, BuildHasherDefault<WordHasher>>,
}

impl TrialMemo {
    /// Forgets every answer (the committed spec changed).
    pub(crate) fn clear(&mut self) {
        self.answers.clear();
    }

    fn get(&self, writes: &[u64]) -> Option<bool> {
        self.answers.get(writes).copied()
    }

    fn insert(&mut self, writes: &[u64], meets: bool) {
        self.answers.insert(writes.into(), meets);
    }
}

/// Bits of a write code's word-length field.
const WL_BITS: u32 = 16;

/// A code for "`key` has word length `wl`": key space, 32-bit key index
/// and 16-bit word length in disjoint bit fields, so sorting the codes
/// orders writes by key (the key type deliberately does not implement
/// `Ord`), and codes of one key order by word length.
///
/// # Panics
///
/// Panics when `wl` is outside `1..=u16::MAX`: a truncated word length
/// would decode into a different spec write.
fn write_code(key: SpecKey, wl: i32) -> u64 {
    let (space, idx) = match key {
        SpecKey::Expr(e) => (0, e.0),
        SpecKey::Array(a) => (1, a.0),
        SpecKey::Param(p) => (2, p.0),
    };
    let wl = u16::try_from(wl)
        .ok()
        .filter(|&wl| wl > 0)
        .unwrap_or_else(|| panic!("word length {wl} has no write code"));
    (space << (32 + WL_BITS)) | (u64::from(idx) << WL_BITS) | u64::from(wl)
}

/// The write a [`write_code`] stands for.
fn decode_write(code: u64) -> (SpecKey, i32) {
    let idx = (code >> WL_BITS) as u32;
    let key = match code >> (32 + WL_BITS) {
        0 => SpecKey::Expr(ExprId(idx)),
        1 => SpecKey::Array(ArrayId(idx)),
        2 => SpecKey::Param(ParamId(idx)),
        space => unreachable!("key space {space}"),
    };
    (key, i32::from(code as u16))
}

/// The key part of a write code (everything but the word length).
fn code_key(code: u64) -> u64 {
    code >> WL_BITS
}

/// The write set of two `SETMAXWL`s applied in turn, from their own
/// write sets against the same spec: the sorted union by key, keeping
/// the narrower word length where both write a key (the second cap finds
/// the first's width, and writes only if it narrows further).
fn merge_writes(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match code_key(a[i]).cmp(&code_key(b[j])) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i].min(b[j]));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// A multiply-rotate hasher for the memo's machine-word keys, which the
/// default SipHash would make a visible share of a lookup.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    /// A `[u64]` key arrives here as one byte slice: fold it a word at a
    /// time.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_ne_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
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

/// The `SETMAXWL` write sets of one round's candidates against the
/// round-entry spec.
#[derive(Debug, Default)]
struct Screen {
    /// Every candidate's sorted, deduplicated write codes, concatenated.
    codes: Vec<u64>,
    /// Where each candidate's codes end in `codes`.
    ends: Vec<usize>,
    /// Scratch: one candidate's codes while [`Screen::begin`] sorts
    /// them, then the merged write set of the pair being screened.
    scratch: Vec<u64>,
}

impl Screen {
    /// Derives the write set of every view's `SETMAXWL` against `spec`.
    fn begin(&mut self, spec: &FixedPointSpec, dfg: &Dfg, views: &[CandidateView]) {
        self.codes.clear();
        self.ends.clear();
        for view in views {
            let m = view.elem_wl;
            self.scratch.clear();
            max_wl_keys(dfg, &view.group, |key| {
                if spec.wl(key) > m {
                    self.scratch.push(write_code(key, m));
                }
            });
            self.scratch.sort_unstable();
            self.scratch.dedup();
            self.codes.extend_from_slice(&self.scratch);
            self.ends.push(self.codes.len());
        }
    }

    /// Where candidate `i`'s write set sits in `codes`.
    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// Candidate `i`'s write set.
    fn writes(&self, i: usize) -> &[u64] {
        &self.codes[self.span(i)]
    }

    /// The write set of candidates `i` and `j` selected together.
    fn pair(&mut self, i: usize, j: usize) -> &[u64] {
        let (a, b) = (self.span(i), self.span(j));
        merge_writes(&self.codes[a], &self.codes[b], &mut self.scratch);
        &self.scratch
    }
}

/// Selection hooks enforcing the accuracy constraint.
pub struct AccuracyHooks<'a> {
    dfg: &'a Dfg,
    spec: &'a mut FixedPointSpec,
    eval: &'a dyn AccuracyEvaluator,
    /// Accuracy constraint in dB (maximum tolerable output noise power).
    constraint_db: f64,
    /// The round-entry format of every key this round's committed
    /// selections narrowed, one per key, oldest first. Empty iff the spec
    /// is the round-entry spec. `FixedPointSpec::commit` truncates the
    /// undo journal, so this is what unwinds the commits: for pair
    /// questions asked after them, and for `restore`.
    entry: Vec<(SpecKey, QFormat)>,
    /// Validation and conflict answers against the round-entry spec.
    memo: TrialMemo,
    /// The write sets of the round being screened.
    screen: Screen,
    /// Whether pairs are screened for accuracy conflicts.
    pair_conflicts: bool,
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
            entry: Vec::new(),
            memo: TrialMemo::default(),
            screen: Screen::default(),
            pair_conflicts: true,
        }
    }

    /// The hooks without the pairwise accuracy conflicts (fig. 1c lines
    /// 16–22): [`SelectHooks::accuracy_conflict`] answers `false` without
    /// a trial, and every other answer is unchanged.
    pub fn without_pair_conflicts(mut self) -> Self {
        self.pair_conflicts = false;
        self
    }

    /// Continues from `memo`, whose answers must hold for this spec and
    /// constraint; [`Self::into_memo`] hands it back for the next round.
    pub(crate) fn with_memo(mut self, memo: TrialMemo) -> Self {
        self.memo = memo;
        self
    }

    /// The memo, valid for the spec as these hooks leave it.
    pub(crate) fn into_memo(mut self) -> TrialMemo {
        self.open_round();
        self.memo
    }

    /// Makes the current spec the round-entry spec: forgets the answers
    /// of the last round's entry spec if the round committed a write.
    fn open_round(&mut self) {
        if !self.entry.is_empty() {
            self.entry.clear();
            self.memo.clear();
        }
    }

    /// Writes the round-entry format back into every key this round's
    /// commits narrowed (journaled).
    fn reinstate_entry(&mut self) {
        for &(key, fmt) in &self.entry {
            self.spec.set_format(key, fmt);
        }
    }

    /// One `SETMAXWL` trial: evaluates the spec with the writes since
    /// `mark` open, via the evaluator's incremental trial path.
    fn trial_meets(&self, mark: usize) -> bool {
        #[cfg(test)]
        audit::count_trial();
        self.eval.trial_meets(self.spec, mark, self.constraint_db)
    }

    /// Whether the round-entry spec with `writes` applied meets the
    /// constraint, answered from the memo when an equal write set was
    /// tried against it before, and otherwise by a trial whose writes
    /// (the reinstated entry formats, then `writes`) are then discarded.
    fn probe(&mut self, writes: &[u64]) -> bool {
        let hit = self.memo.get(writes);
        let ok = hit.unwrap_or_else(|| {
            let mark = self.spec.mark();
            self.reinstate_entry();
            apply_writes(self.spec, writes);
            let ok = self.trial_meets(mark);
            self.spec.rollback(mark);
            self.eval.rollback_trial();
            self.memo.insert(writes, ok);
            ok
        });
        #[cfg(test)]
        self.audit_answer(writes, ok, hit.is_some());
        ok
    }

    /// Shows the audit observer an answer with the spec it describes:
    /// the entry formats reinstated and its writes applied.
    #[cfg(test)]
    fn audit_answer(&mut self, writes: &[u64], meets: bool, hit: bool) {
        let after_commit = !self.entry.is_empty();
        let mark = self.spec.mark();
        self.reinstate_entry();
        apply_writes(self.spec, writes);
        audit::event(audit::Event::Answer {
            writes,
            spec: self.spec,
            meets,
            hit,
            after_commit,
        });
        self.spec.rollback(mark);
    }
}

/// Writes every coded word length into the spec (journaled).
fn apply_writes(spec: &mut FixedPointSpec, writes: &[u64]) {
    for &code in writes {
        let (key, wl) = decode_write(code);
        spec.set_wl(key, wl);
    }
}

impl SelectHooks for AccuracyHooks<'_> {
    /// Derives every candidate's `SETMAXWL` write set against the
    /// round-entry spec, which screening leaves unchanged, and admits the
    /// candidates whose write set alone meets the constraint.
    fn screen(&mut self, views: &[CandidateView]) -> Vec<bool> {
        self.open_round();
        #[cfg(test)]
        audit::event(audit::Event::Screen(self.spec));
        let mut screen = std::mem::take(&mut self.screen);
        screen.begin(self.spec, self.dfg, views);
        let alive = (0..views.len())
            .map(|i| self.probe(screen.writes(i)))
            .collect();
        self.screen = screen;
        alive
    }

    fn accuracy_conflict(&mut self, i: usize, j: usize) -> bool {
        if !self.pair_conflicts {
            return false;
        }
        let mut screen = std::mem::take(&mut self.screen);
        let ok = self.probe(screen.pair(i, j));
        self.screen = screen;
        !ok
    }

    /// `SETMAXWL` on the group as one trial, committed if it meets the
    /// constraint. A commit records the round-entry format of each key
    /// it narrows for the first time this round.
    fn on_select(&mut self, view: &CandidateView) -> bool {
        let (mark, recorded) = (self.spec.mark(), self.entry.len());
        let entry = &mut self.entry;
        set_max_wl(
            self.spec,
            self.dfg,
            &view.group,
            view.elem_wl,
            |key, fmt| {
                if !entry.iter().any(|&(k, _)| k == key) {
                    entry.push((key, fmt));
                }
            },
        );
        if self.trial_meets(mark) {
            self.spec.commit(mark);
            self.eval.commit_trial();
            true
        } else {
            self.spec.rollback(mark);
            self.eval.rollback_trial();
            self.entry.truncate(recorded);
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

    /// Round entry is the only checkpoint: the entry formats recorded
    /// since then are what [`restore`](SelectHooks::restore) writes back.
    fn checkpoint(&mut self) {
        debug_assert!(
            self.entry.is_empty(),
            "checkpoint away from round entry: {} keys narrowed",
            self.entry.len()
        );
    }

    /// Writes the round-entry formats back as permanent writes and shows
    /// them to the evaluator. The memo describes the round-entry spec, so
    /// it stays.
    fn restore(&mut self) {
        let mark = self.spec.mark();
        self.reinstate_entry();
        self.entry.clear();
        self.eval.observe(self.spec, mark);
        self.spec.commit(mark);
    }
}

/// Test-only observer of screening: round openings and answers.
#[cfg(test)]
pub(crate) mod audit {
    use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator};
    use slpwlo_fixedpoint::FixedPointSpec;
    use std::cell::{Cell, RefCell};

    /// Answers every trial with a fresh full recompute and counts the
    /// trials that reach it.
    pub(crate) struct CountingEvaluator<'a> {
        inner: &'a AnalyticalEvaluator,
        pub(crate) trials: Cell<usize>,
    }

    impl<'a> CountingEvaluator<'a> {
        pub(crate) fn new(inner: &'a AnalyticalEvaluator) -> Self {
            CountingEvaluator {
                inner,
                trials: Cell::new(0),
            }
        }
    }

    impl AccuracyEvaluator for CountingEvaluator<'_> {
        fn noise_db(&self, spec: &FixedPointSpec) -> f64 {
            self.inner.noise_db(spec)
        }

        fn trial_noise_db(&self, spec: &FixedPointSpec, _mark: usize) -> f64 {
            self.trials.set(self.trials.get() + 1);
            self.inner.noise_db(spec)
        }
    }

    /// What the hooks show the observer.
    pub(crate) enum Event<'s> {
        /// A round opens on this round-entry spec.
        Screen(&'s FixedPointSpec),
        /// A validation or pair question was answered.
        Answer {
            /// The question's write set against the round-entry spec.
            writes: &'s [u64],
            /// The spec the answer describes, as the hooks rebuilt it:
            /// the entry formats reinstated and `writes` applied.
            spec: &'s FixedPointSpec,
            /// The answer.
            meets: bool,
            /// Whether the memo answered.
            hit: bool,
            /// Whether a selection of the round was committed when the
            /// question came.
            after_commit: bool,
        },
    }

    type Observer = Box<dyn FnMut(Event<'_>)>;

    thread_local! {
        static OBSERVER: RefCell<Option<Observer>> = const { RefCell::new(None) };
    }

    /// Runs `f`, calling `observer` on every screening event on this
    /// thread.
    pub(crate) fn observe<R>(
        observer: impl FnMut(Event<'_>) + 'static,
        f: impl FnOnce() -> R,
    ) -> R {
        OBSERVER.with(|o| *o.borrow_mut() = Some(Box::new(observer)));
        let out = f();
        OBSERVER.with(|o| *o.borrow_mut() = None);
        out
    }

    thread_local! {
        static TRIALS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts one evaluator trial of the joint search: a selection-hook
    /// or scaling-optimization trial on this thread.
    pub(crate) fn count_trial() {
        TRIALS.with(|t| t.set(t.get() + 1));
    }

    /// The joint search's evaluator trials run on this thread by `f`.
    pub(crate) fn trials_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = TRIALS.with(Cell::get);
        let out = f();
        (out, TRIALS.with(Cell::get) - before)
    }

    pub(super) fn event(e: Event<'_>) {
        OBSERVER.with(|o| {
            if let Some(observer) = o.borrow_mut().as_mut() {
                observer(e);
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
///
/// `narrowed` sees each key before its write, with the format it had.
fn set_max_wl(
    spec: &mut FixedPointSpec,
    dfg: &Dfg,
    group: &SimdGroup,
    m: i32,
    mut narrowed: impl FnMut(SpecKey, QFormat),
) {
    max_wl_keys(dfg, group, |key| {
        let fmt = spec.format(key);
        if fmt.wl() > m {
            narrowed(key, fmt);
            spec.set_wl(key, m);
        }
    });
}

/// Calls `f` on every key `SETMAXWL` caps for `group`, in cap order: each
/// element's own key, then, for operations and stores, the key of each
/// operand's producer. A key may come more than once.
fn max_wl_keys(dfg: &Dfg, group: &SimdGroup, mut f: impl FnMut(SpecKey)) {
    for &e in &group.elems {
        let node = dfg.node(e);
        if let Some(key) = node_key(dfg, e) {
            f(key);
        }
        if let NodeKind::Bin(_) | NodeKind::Un(_) | NodeKind::StoreArray(..) = node.kind {
            for &op in &node.operands {
                if let Some(key) = node_key(dfg, resolve_producer(dfg, op)) {
                    f(key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_accuracy::AnalyticalEvaluator;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::Kernel;
    use slpwlo_slp::{extract_rounds, mem_status, BenefitKind, PassCtx};
    use slpwlo_targets::{xentium, SchedKind, TargetModel};

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
        PassCtx::new(target, BenefitKind::default(), SchedKind::List, true)
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
        set_max_wl(&mut spec, &dfg, &g, 16, |_, _| {});
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

    #[test]
    fn write_codes_round_trip_every_key_space() {
        let keys = [
            SpecKey::Expr(ExprId(0)),
            SpecKey::Expr(ExprId(u32::MAX)),
            SpecKey::Array(ArrayId(7)),
            SpecKey::Array(ArrayId(u32::MAX)),
            SpecKey::Param(ParamId(0)),
            SpecKey::Param(ParamId(u32::MAX)),
        ];
        let wls = [1, 8, 16, 32, i32::from(u16::MAX)];
        let mut codes = Vec::new();
        for key in keys {
            for wl in wls {
                let code = write_code(key, wl);
                assert_eq!(decode_write(code), (key, wl), "{code:#x}");
                codes.push(code);
            }
        }
        // Codes sort by key space, then key index, then word length: the
        // order the keys and word lengths are listed in above.
        assert!(codes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "word length 0 has no write code")]
    fn zero_word_length_has_no_write_code() {
        write_code(SpecKey::Expr(ExprId(3)), 0);
    }

    #[test]
    #[should_panic(expected = "word length 65536 has no write code")]
    fn overwide_word_length_has_no_write_code() {
        write_code(SpecKey::Param(ParamId(3)), 1 << 16);
    }

    /// The screened write sets are exactly the codes `SETMAXWL` leaves
    /// in the journal: a candidate's own list against `set_max_wl` alone,
    /// and the merge of two lists against `set_max_wl` for both, for
    /// every validated, structurally compatible pair of every round of
    /// every block, over the suite on three targets. The rounds advance
    /// by real accuracy-aware selections, so later rounds screen against
    /// narrowed specs.
    #[test]
    fn merged_pair_writes_equal_applied_set_max_wl() {
        use crate::flow::prepare;
        use slpwlo_ir::blocks::blocks_by_priority;
        use slpwlo_kernels::all_benchmarks;
        use slpwlo_slp::conflict::conflicts;
        use slpwlo_slp::{absorb_selected, run_selection, Round};
        use slpwlo_targets::{st240, vex};

        const DB: f64 = -40.0;
        fn applied(spec: &mut FixedPointSpec, dfg: &Dfg, views: &[&CandidateView]) -> Vec<u64> {
            let mark = spec.mark();
            for v in views {
                set_max_wl(spec, dfg, &v.group, v.elem_wl, |_, _| {});
            }
            let mut codes: Vec<u64> = spec
                .changed_since(mark)
                .map(|key| write_code(key, spec.wl(key)))
                .collect();
            spec.rollback(mark);
            codes.sort_unstable();
            codes.dedup();
            codes
        }
        let mut pairs = 0usize;
        for bench in all_benchmarks() {
            let prep = prepare(bench.kernel);
            for target in [xentium(), st240(), vex(4)] {
                let mut spec =
                    FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
                let mut ctx = joint(&target);
                for block in blocks_by_priority(&prep.kernel) {
                    let dfg = Dfg::from_block(&prep.kernel, &block);
                    let mut hooks = AccuracyHooks::new(&dfg, &mut spec, &prep.eval, DB);
                    let mut groups: Vec<SimdGroup> = Vec::new();
                    loop {
                        let round = Round::new(&dfg, &target, &groups);
                        let n = round.candidates.len();
                        let views: Vec<CandidateView> =
                            (0..n).map(|i| round.view(&target, i)).collect();
                        let alive = hooks.screen(&views);
                        for (i, v) in views.iter().enumerate() {
                            let want = applied(hooks.spec, &dfg, &[v]);
                            assert_eq!(hooks.screen.writes(i), want, "{}: {}", bench.name, v.group);
                        }
                        for i in 0..n {
                            for j in (i + 1)..n {
                                if !(alive[i] && alive[j]) || conflicts(&round, i, j) {
                                    continue;
                                }
                                let (a, b) = (&views[i], &views[j]);
                                let want = applied(hooks.spec, &dfg, &[a, b]);
                                assert_eq!(
                                    hooks.screen.pair(i, j),
                                    want,
                                    "{} on {}: {} with {}",
                                    bench.name,
                                    target.name,
                                    a.group,
                                    b.group
                                );
                                pairs += 1;
                            }
                        }
                        let selected = run_selection(&mut ctx, &dfg, &round, &groups, &mut hooks);
                        if selected.is_empty() {
                            break;
                        }
                        absorb_selected(&mut groups, selected);
                    }
                }
            }
        }
        assert!(pairs > 0, "no compatible pair screened");
    }

    /// Every answer the hooks give — memo hit or trial, before or after
    /// the round's commits — is the fresh analytical answer for the
    /// round-entry spec with the question's writes applied, and is what
    /// the hooks rebuilt for it. The eight suite kernels on XENTIUM,
    /// ST240 and VEX-4 through the joint flow over the incremental
    /// evaluator, under greedy and exact selection; each selector asks
    /// some question after a commit. At -40 dB nearly every answer is
    /// "meets"; at -70 dB a memo kept across a round that committed
    /// answers some later question wrongly (DOT and MATVEC).
    #[test]
    fn lazy_pair_answers_equal_round_entry_trials() {
        use crate::flow::prepare;
        use crate::wlo_slp::wlo_slp_sched;
        use audit::Event;
        use slpwlo_accuracy::IncrementalEvaluator;
        use slpwlo_kernels::all_benchmarks;
        use slpwlo_targets::{st240, vex};
        use std::cell::{Cell, RefCell};
        use std::rc::Rc;

        for (db, benefit) in [-40.0, -70.0]
            .into_iter()
            .flat_map(|db| [(db, BenefitKind::Cycles), (db, BenefitKind::optimal())])
        {
            let after_commit = Rc::new(Cell::new(0usize));
            for bench in all_benchmarks() {
                let prep = Rc::new(prepare(bench.kernel));
                let keys = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, 32)
                    .optimizable_keys(&prep.kernel);
                for target in [xentium(), st240(), vex(4)] {
                    let entry: Rc<RefCell<Option<FixedPointSpec>>> = Rc::default();
                    let observer = {
                        let (prep, after_commit) = (Rc::clone(&prep), Rc::clone(&after_commit));
                        let keys = keys.clone();
                        let case =
                            format!("{} on {} at {db} dB ({benefit:?})", bench.name, target.name);
                        move |e: Event<'_>| match e {
                            Event::Screen(spec) => *entry.borrow_mut() = Some(spec.clone()),
                            Event::Answer {
                                writes,
                                spec,
                                meets,
                                after_commit: late,
                                ..
                            } => {
                                let mut want =
                                    entry.borrow().clone().expect("answer before screen");
                                apply_writes(&mut want, writes);
                                for &key in &keys {
                                    assert_eq!(spec.format(key), want.format(key), "{case}: {key}");
                                }
                                assert_eq!(
                                    prep.eval.meets(&want, db),
                                    meets,
                                    "{case}: wrong answer"
                                );
                                after_commit.set(after_commit.get() + usize::from(late));
                            }
                        }
                    };
                    let eval = IncrementalEvaluator::new(&prep.eval);
                    audit::observe(observer, || {
                        wlo_slp_sched(
                            &prep.kernel,
                            &target,
                            &eval,
                            db,
                            &prep.ranges,
                            benefit,
                            SchedKind::List,
                        )
                    });
                }
            }
            assert!(
                after_commit.get() > 0,
                "{db} dB, {benefit:?}: no question after a commit"
            );
        }
    }

    /// With the pair switch off, screening runs exactly the default
    /// hooks' validation trials and admits the same candidates, and no
    /// pair question runs a trial or reports a conflict. IIR's hot block
    /// on XENTIUM at -84 dB, where the default hooks' pair questions run
    /// trials and find conflicts.
    #[test]
    fn pair_switch_off_screens_without_conflict_trials() {
        use crate::flow::prepare;
        use audit::CountingEvaluator;
        use slpwlo_ir::blocks::blocks_by_priority;
        use slpwlo_kernels::iir10;
        use slpwlo_slp::Round;

        let prep = prepare(iir10());
        let target = xentium();
        let dfg = Dfg::from_block(&prep.kernel, &blocks_by_priority(&prep.kernel)[0]);
        let round = Round::new(&dfg, &target, &[]);
        let views: Vec<CandidateView> = (0..round.candidates.len())
            .map(|i| round.view(&target, i))
            .collect();
        let seed = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
        // Validation trials, validation answers, then trials and conflicts
        // after a conflict question for every admitted pair.
        let screen = |pair_conflicts: bool| {
            let (mut spec, eval) = (seed.clone(), CountingEvaluator::new(&prep.eval));
            let mut hooks = AccuracyHooks::new(&dfg, &mut spec, &eval, -84.0);
            if !pair_conflicts {
                hooks = hooks.without_pair_conflicts();
            }
            let alive = hooks.screen(&views);
            let validation = eval.trials.get();
            let mut conflicts = 0;
            for j in 0..views.len() {
                for i in (0..j).filter(|&i| alive[i] && alive[j]) {
                    conflicts += usize::from(hooks.accuracy_conflict(i, j));
                }
            }
            (validation, alive, eval.trials.get(), conflicts)
        };
        let (on, off) = (screen(true), screen(false));
        assert!(on.2 > on.0 && on.3 > 0, "pair questions must run trials");
        assert_eq!((off.0, &off.1), (on.0, &on.1), "validation differs");
        assert_eq!((off.2, off.3), (off.0, 0), "a pair question ran a trial");
    }

    /// Two candidates capping shared keys at different widths (the
    /// coefficient table and the delay line both multiplies read): the
    /// merged write set keeps the narrower cap, as `SETMAXWL` applied in
    /// either order leaves it.
    #[test]
    fn merged_writes_keep_the_narrower_cap_of_a_shared_key() {
        let (_, dfg, mut spec, _) = setup();
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(slpwlo_ir::BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let view = |elems: Vec<NodeId>, elem_wl| CandidateView {
            lanes: elems.len() as u32,
            group: SimdGroup { elems },
            elem_wl,
        };
        let views = [
            view(vec![muls[0], muls[1]], 16),
            view(vec![muls[2], muls[3]], 8),
        ];
        let mut screen = Screen::default();
        screen.begin(&spec, &dfg, &views);
        let merged = screen.pair(0, 1).to_vec();
        for (first, second) in [(0, 1), (1, 0)] {
            let mark = spec.mark();
            for v in [&views[first], &views[second]] {
                set_max_wl(&mut spec, &dfg, &v.group, v.elem_wl, |_, _| {});
            }
            let mut want: Vec<u64> = spec
                .changed_since(mark)
                .map(|key| write_code(key, spec.wl(key)))
                .collect();
            want.sort_unstable();
            want.dedup();
            spec.rollback(mark);
            assert_eq!(merged, want);
        }
        for key in [SpecKey::Array(ArrayId(0)), SpecKey::Param(ParamId(0))] {
            assert!(
                merged.contains(&write_code(key, 8)),
                "{key} not capped at 8"
            );
        }
    }
}
