//! Analytical output-noise-power evaluation (`EVALACC`).
//!
//! Combines the per-source noise statistics of
//! [`slpwlo_fixedpoint::noise_stats`] with the measured node-to-output
//! gains of [`crate::gains`]. The evaluator mirrors what the generated
//! fixed-point code actually does:
//!
//! * additions/subtractions **pre-align** their operands to the result
//!   grid (two potential noise sources, one per operand shift) — a 32-bit
//!   datapath cannot hold the exact wide sum;
//! * multiplications compute the exact product and re-quantize once;
//! * negations re-quantize once (usually a no-op);
//! * input reads convert a continuous-amplitude sample (one source);
//! * values stored to a state array are additionally quantized to the
//!   array's storage grid, folded into the producing node's source.

use crate::gains::{measure_gains_with, GainOptions, NoiseGains};
use slpwlo_fixedpoint::quantize::{noise_stats, QuantizeMode};
use slpwlo_fixedpoint::spec::{FixedPointSpec, SpecKey};
use slpwlo_ir::cone::{var_flow, ConeIndex};
use slpwlo_ir::types::{ArrayId, BinOp, ExprId, ParamId, UnOp};
use slpwlo_ir::{ExprNode, Kernel, Stmt};
use std::collections::HashMap;

/// Options for the analytical evaluator.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Quantization mode of the signal path (the paper assumes
    /// truncation).
    pub mode: QuantizeMode,
    /// Gain-measurement options.
    pub gains: GainOptions,
}

/// Oracle deciding whether a specification meets an accuracy constraint.
///
/// The WLO algorithms are written against this trait so alternative
/// accuracy evaluators can be plugged in, mirroring the paper's remark
/// that its WLO is "completely decoupled" from the accuracy evaluation.
///
/// # Trial protocol
///
/// The WLO search loops are "set, evaluate, maybe revert" loops over a
/// [`FixedPointSpec`] transaction. The `trial_*`/`commit_trial`/
/// `rollback_trial` methods expose that shape to the evaluator so a
/// stateful implementation (e.g. [`crate::IncrementalEvaluator`]) can
/// re-evaluate only the noise sources the transaction touched. The
/// default implementations fall back to a stateless full recompute, so
/// plain evaluators keep working unchanged.
///
/// Callers must keep spec transactions and evaluator trials in lockstep:
///
/// ```text
/// eval.begin(&spec);                    // once, before the first trial
/// let mark = spec.mark();
/// spec.set_wl(key, wl);                 // any number of journaled writes
/// if eval.trial_meets(&spec, mark, a_db) {
///     spec.commit(mark); eval.commit_trial();
/// } else {
///     spec.rollback(mark); eval.rollback_trial();
/// }
/// ```
///
/// Writes that bypass a trial (e.g. restoring a saved snapshot) must be
/// reported through [`AccuracyEvaluator::observe`] before the next trial.
pub trait AccuracyEvaluator {
    /// Output noise power of the specification, in dB (`10·log10 P`).
    /// `-inf` when the specification introduces no error.
    fn noise_db(&self, spec: &FixedPointSpec) -> f64;

    /// Returns `true` when the specification's noise stays within the
    /// constraint `a_db` (maximum tolerable noise power in dB).
    fn meets(&self, spec: &FixedPointSpec, a_db: f64) -> bool {
        self.noise_db(spec) <= a_db
    }

    /// Synchronizes internal caches with `spec` before a search loop
    /// starts issuing trials. Stateless evaluators ignore it.
    fn begin(&self, spec: &FixedPointSpec) {
        let _ = spec;
    }

    /// Noise power (dB) of `spec` with an open transaction whose writes
    /// started at `mark` ([`FixedPointSpec::mark`]). At most one trial may
    /// be outstanding; resolve it with [`AccuracyEvaluator::commit_trial`]
    /// or [`AccuracyEvaluator::rollback_trial`].
    fn trial_noise_db(&self, spec: &FixedPointSpec, mark: usize) -> f64 {
        let _ = mark;
        self.noise_db(spec)
    }

    /// [`AccuracyEvaluator::trial_noise_db`] against a constraint.
    fn trial_meets(&self, spec: &FixedPointSpec, mark: usize, a_db: f64) -> bool {
        self.trial_noise_db(spec, mark) <= a_db
    }

    /// Accepts the outstanding trial: the journaled writes it evaluated
    /// are now part of the committed state.
    fn commit_trial(&self) {}

    /// Discards the outstanding trial; the caller rolls the spec back to
    /// the trial's mark.
    fn rollback_trial(&self) {}

    /// Notifies the evaluator of journaled writes since `mark` that were
    /// applied *without* a trial (snapshot restores, forced moves) and are
    /// permanent. Stateless evaluators ignore it.
    fn observe(&self, spec: &FixedPointSpec, mark: usize) {
        let _ = (spec, mark);
    }
}

/// Where a value's quantization grid comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deliver {
    /// Exactly representable (literal constants, initial zeros).
    Exact,
    /// Grid of the node addressed by the key.
    Key(SpecKey),
}

/// One potential noise source.
#[derive(Debug, Clone)]
struct Source {
    expr: ExprId,
    kind: SourceKind,
    /// Array whose storage grid additionally quantizes this node's value
    /// (the node is a store/shift-in root).
    store_array: Option<ArrayId>,
}

#[derive(Debug, Clone)]
enum SourceKind {
    /// Float-to-fixed conversion of an input sample.
    Input,
    /// Compile-time rounding of a coefficient table entry. Deterministic
    /// in reality; modelled as an unbiased uniform source, the standard
    /// approximation — without it WLO could narrow coefficient storage
    /// for free.
    Param(ParamId),
    /// Addition/subtraction with pre-aligned operands.
    AddSub { a: Vec<Deliver>, b: Vec<Deliver> },
    /// Multiplication (exact product, one re-quantization).
    Mul { a: Vec<Deliver>, b: Vec<Deliver> },
    /// Negation (pass-through re-quantization).
    Neg { a: Vec<Deliver> },
}

/// The analytical noise-power evaluator.
#[derive(Debug)]
pub struct AnalyticalEvaluator {
    gains: NoiseGains,
    sources: Vec<Source>,
    mode: QuantizeMode,
}

impl AnalyticalEvaluator {
    /// Builds the evaluator for a kernel: measures noise gains (the
    /// expensive, once-per-kernel part) and resolves operand grids.
    pub fn new(kernel: &Kernel, opts: &EvalOptions) -> Self {
        Self::new_with_cone(kernel, opts, None)
    }

    /// [`new`](Self::new) against a caller-provided [`ConeIndex`], so a
    /// pipeline that already built one (e.g. `slpwlo_core::prepare`) does not pay
    /// for it twice.
    pub fn new_with_cone(kernel: &Kernel, opts: &EvalOptions, cone: Option<&ConeIndex>) -> Self {
        let gains = measure_gains_with(kernel, &opts.gains, cone);
        let sources = enumerate_sources(kernel);
        AnalyticalEvaluator {
            gains,
            sources,
            mode: opts.mode,
        }
    }

    /// Builds the evaluator with default options.
    pub fn with_defaults(kernel: &Kernel) -> Self {
        Self::new(kernel, &EvalOptions::default())
    }

    /// Linear output noise power for a specification.
    ///
    /// Accumulation contract: per-source `(bias, var)` contributions are
    /// computed by [`Self::contribution_at`] and summed in source order —
    /// the *same* per-source values and the *same* total fold the
    /// incremental engine uses, so both produce bit-identical powers.
    pub fn noise_power(&self, spec: &FixedPointSpec) -> f64 {
        let mut bias = 0.0; // Σ mean · G1
        let mut var = 0.0; // Σ var · G2
        for i in 0..self.sources.len() {
            let (b, v) = self.contribution_at(i, spec);
            bias += b;
            var += v;
        }
        bias * bias + var
    }

    /// Number of potential noise sources the evaluator tracks.
    pub(crate) fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// The `(bias, var)` contribution of source `i` under `spec` — the
    /// shared single copy of the per-source noise model. Local pushes
    /// accumulate in a fixed order so repeated calls are bit-identical.
    pub(crate) fn contribution_at(&self, i: usize, spec: &FixedPointSpec) -> (f64, f64) {
        let src = &self.sources[i];
        let (g1, g2) = self.gains.get(src.expr);
        if g1 == 0.0 && g2 == 0.0 {
            return (0.0, 0.0);
        }
        let out_fmt = spec.format(SpecKey::Expr(src.expr));
        let mut q_out = out_fmt.step();
        if let Some(a) = src.store_array {
            q_out = q_out.max(spec.format(SpecKey::Array(a)).step());
        }
        let mut bias = 0.0;
        let mut var = 0.0;
        let mut push = |q_in: f64, q_out: f64| {
            let (m, v) = noise_stats(q_in.min(q_out), q_out, self.mode);
            bias += m * g1;
            var += v * g2;
        };
        match &src.kind {
            SourceKind::Input => push(0.0, q_out),
            SourceKind::Param(p) => {
                // Unbiased (round-to-nearest at compile time); only
                // the variance term contributes.
                let q = spec.format(SpecKey::Param(*p)).step();
                let (_, v) = noise_stats(0.0, q, QuantizeMode::Round);
                var += v * g2;
            }
            SourceKind::AddSub { a, b } => {
                // One source per pre-aligned operand shift. Operands
                // that can only carry exact values (literal constants,
                // initial zeros) truncate without error and contribute
                // no source.
                if let Some(q) = min_key_step(spec, a) {
                    push(q, q_out);
                }
                if let Some(q) = min_key_step(spec, b) {
                    push(q, q_out);
                }
            }
            SourceKind::Mul { a, b } => {
                // Exact operands scale the other grid by a non-power-
                // of-two factor; treat the product grid as continuous
                // (conservative).
                let qa = min_key_step(spec, a).unwrap_or(0.0);
                let qb = min_key_step(spec, b).unwrap_or(0.0);
                push(qa * qb, q_out);
            }
            SourceKind::Neg { a } => {
                if let Some(q) = min_key_step(spec, a) {
                    push(q, q_out);
                }
            }
        }
        (bias, var)
    }

    /// Every [`SpecKey`] whose format can change source `i`'s
    /// contribution — the edge set of the inverted index the incremental
    /// engine builds. Conservative: a listed key may leave the value
    /// unchanged (re-evaluation is then a no-op), but no key outside the
    /// list can affect it.
    pub(crate) fn source_keys(&self, i: usize, out: &mut Vec<SpecKey>) {
        let src = &self.sources[i];
        out.clear();
        out.push(SpecKey::Expr(src.expr));
        if let Some(a) = src.store_array {
            out.push(SpecKey::Array(a));
        }
        fn push_delivered(out: &mut Vec<SpecKey>, keys: &[Deliver]) {
            for d in keys {
                if let Deliver::Key(k) = d {
                    out.push(*k);
                }
            }
        }
        match &src.kind {
            SourceKind::Input => {}
            SourceKind::Param(p) => out.push(SpecKey::Param(*p)),
            SourceKind::AddSub { a, b } | SourceKind::Mul { a, b } => {
                push_delivered(out, a);
                push_delivered(out, b);
            }
            SourceKind::Neg { a } => push_delivered(out, a),
        }
    }
}

impl AccuracyEvaluator for AnalyticalEvaluator {
    fn noise_db(&self, spec: &FixedPointSpec) -> f64 {
        let p = self.noise_power(spec);
        if p <= 0.0 {
            f64::NEG_INFINITY
        } else {
            10.0 * p.log10()
        }
    }
}

/// Finest grid among the *keyed* deliveries of a value; `None` when the
/// value can only be exact (literal constants, initial zeros), which
/// truncates without error.
fn min_key_step(spec: &FixedPointSpec, keys: &[Deliver]) -> Option<f64> {
    keys.iter()
        .filter_map(|d| match d {
            Deliver::Exact => None,
            Deliver::Key(k) => Some(spec.format(*k).step()),
        })
        .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.min(s))))
}

// ---------------------------------------------------------------------------
// Static source enumeration
// ---------------------------------------------------------------------------

fn enumerate_sources(kernel: &Kernel) -> Vec<Source> {
    let store_roots = store_roots(kernel);
    // Possible defining root expressions per `ReadVar` — the same
    // two-pass structured dataflow the cone index is built from.
    let reaching = var_flow(kernel).reaching;
    let mut sources = Vec::new();
    for (id, node) in kernel.exprs() {
        let kind = match node {
            ExprNode::ReadInput(_) => SourceKind::Input,
            ExprNode::LoadParam(p, _) => SourceKind::Param(*p),
            ExprNode::Bin(BinOp::Add, a, b) | ExprNode::Bin(BinOp::Sub, a, b) => {
                SourceKind::AddSub {
                    a: delivered(kernel, *a, &reaching),
                    b: delivered(kernel, *b, &reaching),
                }
            }
            ExprNode::Bin(BinOp::Mul, a, b) => SourceKind::Mul {
                a: delivered(kernel, *a, &reaching),
                b: delivered(kernel, *b, &reaching),
            },
            ExprNode::Unary(UnOp::Neg, a) => SourceKind::Neg {
                a: delivered(kernel, *a, &reaching),
            },
            _ => continue,
        };
        sources.push(Source {
            expr: id,
            kind,
            store_array: store_roots.get(&id).copied(),
        });
    }
    sources
}

/// Map from store/shift-in root expressions to the written array.
fn store_roots(kernel: &Kernel) -> HashMap<ExprId, ArrayId> {
    let mut map = HashMap::new();
    kernel.visit_stmts(&mut |s, _| match s {
        Stmt::Store(a, _, e) | Stmt::ShiftIn(a, e) => {
            map.insert(*e, *a);
        }
        _ => {}
    });
    map
}

/// Grids a value produced by `e` can be delivered on.
fn delivered(kernel: &Kernel, e: ExprId, reaching: &HashMap<ExprId, Vec<ExprId>>) -> Vec<Deliver> {
    let mut out = Vec::new();
    let mut stack = vec![e];
    let mut seen = Vec::new();
    while let Some(e) = stack.pop() {
        if seen.contains(&e) {
            continue;
        }
        seen.push(e);
        match kernel.expr(e) {
            ExprNode::Const(_) => push_unique(&mut out, Deliver::Exact),
            ExprNode::ReadInput(_) => push_unique(&mut out, Deliver::Key(SpecKey::Expr(e))),
            ExprNode::LoadParam(p, _) => push_unique(&mut out, Deliver::Key(SpecKey::Param(*p))),
            ExprNode::LoadArray(a, _) => push_unique(&mut out, Deliver::Key(SpecKey::Array(*a))),
            ExprNode::Bin(..) | ExprNode::Unary(..) => {
                push_unique(&mut out, Deliver::Key(SpecKey::Expr(e)))
            }
            ExprNode::ReadVar(_) => match reaching.get(&e) {
                Some(defs) if !defs.is_empty() => stack.extend(defs.iter().copied()),
                _ => push_unique(&mut out, Deliver::Exact), // initial zero
            },
        }
    }
    out
}

fn push_unique(v: &mut Vec<Deliver>, d: Deliver) {
    if !v.contains(&d) {
        v.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions};
    use slpwlo_ir::parser::parse_kernel;

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

    fn setup(src: &str, wl: i32) -> (Kernel, FixedPointSpec, AnalyticalEvaluator) {
        let k = parse_kernel(src).unwrap();
        let r = determine_ranges(&k, &RangeOptions::default());
        let spec = FixedPointSpec::from_ranges(&k, &r, wl);
        let eval = AnalyticalEvaluator::with_defaults(&k);
        (k, spec, eval)
    }

    #[test]
    fn wider_words_mean_less_noise() {
        let (_, spec32, eval) = setup(FIR4, 32);
        let (_, spec16, _) = setup(FIR4, 16);
        let (_, spec8, _) = setup(FIR4, 8);
        let n32 = eval.noise_db(&spec32);
        let n16 = eval.noise_db(&spec16);
        let n8 = eval.noise_db(&spec8);
        assert!(
            n32 < n16 && n16 < n8,
            "noise must grow as WL shrinks: {n32} {n16} {n8}"
        );
    }

    #[test]
    fn noise_levels_are_plausible() {
        // Q1.15-ish data: input conversion var = q^2/12 with q = 2^-15,
        // i.e. about -98 dB; the whole 16-bit FIR must land within a few
        // tens of dB of that.
        let (_, spec, eval) = setup(FIR4, 16);
        let db = eval.noise_db(&spec);
        assert!(db < -70.0 && db > -110.0, "16-bit FIR noise {db} dB");
    }

    #[test]
    fn meets_is_monotone_in_constraint() {
        let (_, spec, eval) = setup(FIR4, 16);
        let db = eval.noise_db(&spec);
        assert!(eval.meets(&spec, db + 1.0));
        assert!(!eval.meets(&spec, db - 1.0));
    }

    #[test]
    fn shrinking_one_node_increases_noise() {
        let (k, mut spec, eval) = setup(FIR4, 32);
        let before = eval.noise_power(&spec);
        // Find the accumulator add and shrink it to 8 bits.
        let (add, _) = k
            .exprs()
            .find(|(_, n)| matches!(n, ExprNode::Bin(BinOp::Add, _, _)))
            .unwrap();
        spec.set_wl(SpecKey::Expr(add), 8);
        let after = eval.noise_power(&spec);
        assert!(
            after > before * 10.0,
            "8-bit accumulator must dominate: {before} -> {after}"
        );
    }

    #[test]
    fn rollback_restores_noise() {
        let (k, mut spec, eval) = setup(FIR4, 32);
        let before = eval.noise_power(&spec);
        let mark = spec.mark();
        let (mul, _) = k
            .exprs()
            .find(|(_, n)| matches!(n, ExprNode::Bin(BinOp::Mul, _, _)))
            .unwrap();
        spec.set_wl(SpecKey::Expr(mul), 8);
        assert!(eval.noise_power(&spec) > before);
        spec.rollback(mark);
        assert_eq!(eval.noise_power(&spec), before);
    }

    #[test]
    fn reaching_defs_see_back_edges() {
        let k = parse_kernel(FIR4).unwrap();
        let reaching = var_flow(&k).reaching;
        // The `acc` read inside the loop must see both the init assign and
        // the loop's own assign.
        let mut found = false;
        for (id, node) in k.exprs() {
            if let ExprNode::ReadVar(_) = node {
                if let Some(defs) = reaching.get(&id) {
                    if defs.len() == 2 {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "accumulator read must have two reaching defs");
    }

    #[test]
    fn array_storage_grid_caps_store_roots() {
        let (k, mut spec, eval) = setup(FIR4, 32);
        let before = eval.noise_power(&spec);
        // Shrinking the delay-line storage quantizes the input conversion
        // root stored into it.
        spec.set_wl(SpecKey::Array(ArrayId(0)), 8);
        let after = eval.noise_power(&spec);
        assert!(after > before, "coarser array storage must add noise");
        let _ = k;
    }
}
