//! Incremental accuracy evaluation — the `EVALACC` hot path.
//!
//! The WLO search loops (tabu neighbourhood scans, `SETMAXWL` group
//! shrinking, scaling optimization) spend essentially all of their time
//! asking "does this candidate spec still meet the constraint?", yet each
//! move changes only a handful of word lengths. [`IncrementalEvaluator`]
//! exploits that: it precomputes an inverted index from [`SpecKey`] to the
//! noise sources whose contribution depends on that key — a dense CSR
//! pair with one slot per key, so a lookup is two array reads rather than
//! a hash — caches every source's `(bias, var)` contribution, and
//! consumes the spec's undo
//! journal ([`FixedPointSpec::changed_since`]) to re-evaluate only the
//! sources a trial touched — O(changed keys × fanout) per move instead of
//! O(all sources).
//!
//! # Exactness
//!
//! The engine is **bit-identical** to [`AnalyticalEvaluator`]'s full
//! recompute, by construction rather than by tolerance:
//!
//! * per-source contributions come from the same
//!   `AnalyticalEvaluator::contribution_at` code path, so a re-evaluated
//!   source produces the exact f64 pair a full walk would;
//! * totals are re-folded over the cached contributions in source order —
//!   the same associativity as the full recompute's loop — instead of
//!   being patched with subtract-and-add (which drifts in the last ulp).
//!
//! The fold is O(sources) in *additions only*; the expensive per-source
//! work (gain lookups, operand-grid resolution, noise statistics) is what
//! the index avoids. `tests/incremental_differential.rs` replays thousands
//! of random move/undo sequences and asserts bitwise equality on every
//! step.
//!
//! # Protocol
//!
//! See [`AccuracyEvaluator`]'s trait documentation: `begin` once, then
//! `trial_*` per candidate move, resolved by `commit_trial` /
//! `rollback_trial`; journaled writes applied outside a trial are reported
//! via `observe`. At most one trial may be outstanding.

use crate::model::{AccuracyEvaluator, AnalyticalEvaluator};
use slpwlo_fixedpoint::spec::{FixedPointSpec, SpecKey};
use std::cell::RefCell;

/// Mutable evaluation state, behind a [`RefCell`] so the evaluator can be
/// used through the shared-reference [`AccuracyEvaluator`] trait. The
/// type is deliberately `!Sync`; parallel sweeps construct one evaluator
/// per worker over the same shared [`AnalyticalEvaluator`].
#[derive(Debug)]
struct State {
    /// Committed `(bias, var)` contribution of every source.
    contrib: Vec<(f64, f64)>,
    /// Sources overwritten by the outstanding trial, with their previous
    /// contributions (for rollback), oldest first.
    saved: Vec<(u32, (f64, f64))>,
    /// Whether a trial is outstanding.
    pending: bool,
    /// Trial stamp per source, deduplicating touches within one trial.
    /// 64-bit so the monotonically growing stamp never wraps into a
    /// stale entry within any feasible session length.
    touched: Vec<u64>,
    /// Current trial id (stamp value).
    trial_id: u64,
    /// Whether `contrib` reflects some spec state (set by the first
    /// `begin`/resync).
    synced: bool,
}

/// Incremental `EVALACC`: evaluates candidate moves in O(Δ) by caching
/// per-source noise contributions over a base [`AnalyticalEvaluator`].
///
/// Construction is cheap (one index build over the base's sources); the
/// first [`AccuracyEvaluator::begin`] (or any full [`noise_db`] call)
/// pays one full evaluation to seed the cache.
///
/// [`noise_db`]: AccuracyEvaluator::noise_db
#[derive(Debug)]
pub struct IncrementalEvaluator<'a> {
    base: &'a AnalyticalEvaluator,
    /// First dense slot of each key space (expressions, arrays,
    /// parameters), plus the total slot count; see [`Self::slot`].
    bases: [usize; 4],
    /// Inverted index in CSR form: the sources depending on the key in
    /// slot `s` are `members[offsets[s]..offsets[s + 1]]`, ascending.
    offsets: Vec<u32>,
    members: Vec<u32>,
    state: RefCell<State>,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Builds the engine over a base evaluator. Call
    /// [`AccuracyEvaluator::begin`] with the working spec before issuing
    /// trials.
    pub fn new(base: &'a AnalyticalEvaluator) -> Self {
        let n = base.source_count();
        let mut keys = Vec::new();
        // Size each key space by the largest index any source reads.
        let mut lens = [0usize; 3];
        for i in 0..n {
            base.source_keys(i, &mut keys);
            for &key in &keys {
                let (space, idx) = key_space(key);
                lens[space] = lens[space].max(idx + 1);
            }
        }
        let bases = [0, lens[0], lens[0] + lens[1], lens[0] + lens[1] + lens[2]];
        // (slot, source) edges, each source's slots deduplicated. Sources
        // arrive ascending, so the stable sort keeps every slot's members
        // ascending.
        let mut edges: Vec<(usize, u32)> = Vec::new();
        let mut slots = Vec::new();
        for i in 0..n {
            base.source_keys(i, &mut keys);
            slots.clear();
            slots.extend(keys.iter().map(|&key| {
                let (space, idx) = key_space(key);
                bases[space] + idx
            }));
            slots.sort_unstable();
            slots.dedup();
            edges.extend(slots.iter().map(|&s| (s, i as u32)));
        }
        edges.sort_by_key(|&(s, _)| s);
        let mut offsets = vec![0u32; bases[3] + 1];
        for &(s, _) in &edges {
            offsets[s + 1] += 1;
        }
        for s in 0..bases[3] {
            offsets[s + 1] += offsets[s];
        }
        let members = edges.into_iter().map(|(_, si)| si).collect();
        IncrementalEvaluator {
            base,
            bases,
            offsets,
            members,
            state: RefCell::new(State {
                contrib: vec![(0.0, 0.0); n],
                saved: Vec::new(),
                pending: false,
                touched: vec![0; n],
                trial_id: 0,
                synced: false,
            }),
        }
    }

    /// Builds the engine and seeds its cache from `spec` in one step.
    pub fn with_spec(base: &'a AnalyticalEvaluator, spec: &FixedPointSpec) -> Self {
        let eval = Self::new(base);
        eval.begin(spec);
        eval
    }

    /// Sources whose contribution depends on `key` (index fanout).
    pub fn fanout(&self, key: SpecKey) -> usize {
        self.sources_of(key).len()
    }

    /// Dense CSR slot of `key`, or `None` when its index lies past every
    /// key of its space that a source depends on (zero fanout).
    fn slot(&self, key: SpecKey) -> Option<usize> {
        let (space, idx) = key_space(key);
        let s = self.bases[space] + idx;
        (s < self.bases[space + 1]).then_some(s)
    }

    /// The sources depending on `key`, ascending.
    fn sources_of(&self, key: SpecKey) -> &[u32] {
        match self.slot(key) {
            Some(s) => &self.members[self.offsets[s] as usize..self.offsets[s + 1] as usize],
            None => &[],
        }
    }

    /// Recomputes every contribution from `spec`, discarding any
    /// outstanding trial.
    fn resync(&self, spec: &FixedPointSpec) {
        let st = &mut *self.state.borrow_mut();
        for (i, slot) in st.contrib.iter_mut().enumerate() {
            *slot = self.base.contribution_at(i, spec);
        }
        st.saved.clear();
        st.pending = false;
        st.synced = true;
    }

    /// Folds the cached contributions into the linear noise power —
    /// source order, matching [`AnalyticalEvaluator::noise_power`].
    fn fold_power(st: &State) -> f64 {
        let mut bias = 0.0;
        let mut var = 0.0;
        for &(b, v) in &st.contrib {
            bias += b;
            var += v;
        }
        bias * bias + var
    }

    fn to_db(p: f64) -> f64 {
        if p <= 0.0 {
            f64::NEG_INFINITY
        } else {
            10.0 * p.log10()
        }
    }

    /// Re-evaluates the sources affected by the journaled writes since
    /// `mark`, remembering previous values when `save` is set.
    fn apply_changes(&self, st: &mut State, spec: &FixedPointSpec, mark: usize, save: bool) {
        st.trial_id += 1;
        let id = st.trial_id;
        for key in spec.changed_since(mark) {
            for &si in self.sources_of(key) {
                let i = si as usize;
                if st.touched[i] == id {
                    continue;
                }
                st.touched[i] = id;
                if save {
                    st.saved.push((si, st.contrib[i]));
                }
                st.contrib[i] = self.base.contribution_at(i, spec);
            }
        }
    }
}

impl AccuracyEvaluator for IncrementalEvaluator<'_> {
    /// Full evaluation; also resyncs the cache to `spec` (and drops any
    /// outstanding trial), so it stays usable as a plain evaluator.
    fn noise_db(&self, spec: &FixedPointSpec) -> f64 {
        self.resync(spec);
        Self::to_db(Self::fold_power(&self.state.borrow()))
    }

    fn begin(&self, spec: &FixedPointSpec) {
        self.resync(spec);
    }

    fn trial_noise_db(&self, spec: &FixedPointSpec, mark: usize) -> f64 {
        let st = &mut *self.state.borrow_mut();
        assert!(
            !st.pending,
            "unresolved trial: commit_trial() or rollback_trial() first"
        );
        assert!(st.synced, "begin() must seed the cache before trials");
        st.pending = true;
        self.apply_changes(st, spec, mark, true);
        Self::to_db(Self::fold_power(st))
    }

    fn commit_trial(&self) {
        let st = &mut *self.state.borrow_mut();
        st.saved.clear();
        st.pending = false;
    }

    fn rollback_trial(&self) {
        let st = &mut *self.state.borrow_mut();
        while let Some((si, old)) = st.saved.pop() {
            st.contrib[si as usize] = old;
        }
        st.pending = false;
    }

    fn observe(&self, spec: &FixedPointSpec, mark: usize) {
        let mut guard = self.state.borrow_mut();
        if !guard.synced {
            drop(guard);
            self.resync(spec);
            return;
        }
        let st = &mut *guard;
        assert!(
            !st.pending,
            "unresolved trial: commit_trial() or rollback_trial() first"
        );
        self.apply_changes(st, spec, mark, false);
    }
}

/// The key space (expressions, arrays, parameters) and index of a key.
fn key_space(key: SpecKey) -> (usize, usize) {
    match key {
        SpecKey::Expr(e) => (0, e.index()),
        SpecKey::Array(a) => (1, a.index()),
        SpecKey::Param(p) => (2, p.index()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions};
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::Kernel;

    const FIR4: &str = r#"
kernel fir4 {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.5, 0.25, -0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    fn setup() -> (Kernel, FixedPointSpec, AnalyticalEvaluator) {
        let k = parse_kernel(FIR4).unwrap();
        let r = determine_ranges(&k, &RangeOptions::default());
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let eval = AnalyticalEvaluator::with_defaults(&k);
        (k, spec, eval)
    }

    #[test]
    fn trial_matches_full_recompute_bitwise() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        assert_eq!(
            inc.trial_noise_db(&spec, spec.mark()).to_bits(),
            full.noise_db(&spec).to_bits(),
            "empty trial must equal the full recompute"
        );
        inc.rollback_trial();
        for key in spec.optimizable_keys(&k) {
            for wl in [8, 16, 24] {
                let mark = spec.mark();
                spec.set_wl(key, wl);
                let db_inc = inc.trial_noise_db(&spec, mark);
                let db_full = full.noise_db(&spec);
                assert_eq!(
                    db_inc.to_bits(),
                    db_full.to_bits(),
                    "trial {key}={wl}: {db_inc} vs {db_full}"
                );
                spec.rollback(mark);
                inc.rollback_trial();
            }
        }
        // After all rollbacks the cache must still match.
        let mark = spec.mark();
        assert_eq!(
            inc.trial_noise_db(&spec, mark).to_bits(),
            full.noise_db(&spec).to_bits()
        );
        inc.commit_trial();
    }

    #[test]
    fn commit_keeps_the_trial_state() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        let key = spec.optimizable_keys(&k)[0];
        let mark = spec.mark();
        spec.set_wl(key, 8);
        let db = inc.trial_noise_db(&spec, mark);
        spec.commit(mark);
        inc.commit_trial();
        // A no-op trial after commit sees the committed state.
        let mark2 = spec.mark();
        assert_eq!(inc.trial_noise_db(&spec, mark2).to_bits(), db.to_bits());
        inc.rollback_trial();
    }

    #[test]
    fn observe_tracks_untrialed_writes() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        let mark = spec.mark();
        for key in spec.optimizable_keys(&k) {
            spec.set_wl(key, 16);
        }
        inc.observe(&spec, mark);
        let mark2 = spec.mark();
        assert_eq!(
            inc.trial_noise_db(&spec, mark2).to_bits(),
            full.noise_db(&spec).to_bits()
        );
        inc.rollback_trial();
    }

    #[test]
    #[should_panic(expected = "unresolved trial")]
    fn double_trial_panics() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        let key = spec.optimizable_keys(&k)[0];
        let mark = spec.mark();
        spec.set_wl(key, 16);
        let _ = inc.trial_noise_db(&spec, mark);
        let _ = inc.trial_noise_db(&spec, mark);
    }

    #[test]
    fn index_covers_every_optimizable_key() {
        let (k, spec, full) = setup();
        let inc = IncrementalEvaluator::new(&full);
        // Every key WLO may mutate must reach at least one source —
        // otherwise a trial on it would silently change nothing.
        for key in spec.optimizable_keys(&k) {
            assert!(inc.fanout(key) > 0, "key {key} has no indexed sources");
        }
    }
}
