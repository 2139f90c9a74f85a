//! Noise-gain analysis by impulse injection.
//!
//! For each potential noise source (binary/unary operation instances and
//! input-conversion sites) and each of its execution instances within one
//! activation, a unit impulse is added to the node's output during a
//! zero-input run and the resulting output deviation sequence `h[m]` is
//! recorded. `G1 = Σ h` and `G2 = Σ h²` accumulated over execution
//! instances fully characterise how that node's quantization error reaches
//! the output of an LTI kernel.
//!
//! Coefficient loads are measured differently: their error is
//! multiplicative in the signal, so an always-on small offset per load
//! site gives the mean squared output sensitivity under seeded random
//! inputs (see `CoefSweep`). Both sweeps run as jobs of one worker pool.

use slpwlo_ir::cone::ConeIndex;
use slpwlo_ir::interp::{BatchExecutor, ExecCtx, Executor, FloatSem, ImpulseChannel, Semantics};
use slpwlo_ir::types::{BinOp, ExprId, InputId, ParamId, UnOp};
use slpwlo_ir::{ExprNode, Kernel, Stmt};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Options for the gain measurement.
#[derive(Debug, Clone, Copy)]
pub struct GainOptions {
    /// Minimum number of activations to simulate after the impulse.
    pub min_activations: usize,
    /// Hard cap on simulated activations (bounds IIR tail measurement).
    pub max_activations: usize,
    /// The measurement stops once the tail energy of a chunk falls below
    /// this fraction of the total energy.
    pub tail_epsilon: f64,
    /// Activations for the stochastic coefficient-sensitivity measurement.
    pub param_activations: usize,
    /// RNG seed for the coefficient-sensitivity measurement.
    pub param_seed: u64,
    /// Worker threads (`0` = one per available core) for both sweeps:
    /// the impulse-source batches and the coefficient-sensitivity sweep
    /// run as jobs of one pool, and the coefficient sweep splits into up
    /// to this many activation spans. Results are identical for any
    /// thread count.
    pub threads: usize,
}

impl Default for GainOptions {
    fn default() -> Self {
        GainOptions {
            min_activations: 64,
            max_activations: 8192,
            tail_epsilon: 1e-12,
            param_activations: 1024,
            param_seed: 0x9A1A5,
            threads: 0,
        }
    }
}

/// `G1`/`G2` gains from every potential noise source to the kernel
/// output, stored densely by expression arena index.
#[derive(Debug, Clone)]
pub struct NoiseGains {
    /// `(G1, G2)` per expression, both summed over the source's
    /// execution instances and over all outputs; `None` for expressions
    /// that are not measured sources (non-source nodes, dead arena
    /// nodes).
    gains: Vec<Option<(f64, f64)>>,
    /// Number of `Some` entries.
    measured: usize,
}

impl NoiseGains {
    fn new(expr_count: usize) -> Self {
        NoiseGains {
            gains: vec![None; expr_count],
            measured: 0,
        }
    }

    fn insert(&mut self, e: ExprId, g: (f64, f64)) {
        let slot = &mut self.gains[e.index()];
        if slot.is_none() {
            self.measured += 1;
        }
        *slot = Some(g);
    }

    /// `(G1, G2)` for a source; zero for nodes that never execute.
    #[inline]
    pub fn get(&self, e: ExprId) -> (f64, f64) {
        self.gains
            .get(e.index())
            .copied()
            .flatten()
            .unwrap_or((0.0, 0.0))
    }

    /// Iterates over `(expr, (g1, g2))` pairs of measured sources, in
    /// ascending expression order.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, (f64, f64))> + '_ {
        self.gains
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.map(|g| (ExprId(i as u32), g)))
    }

    /// Number of measured sources.
    pub fn len(&self) -> usize {
        self.measured
    }

    /// True if no source was measured.
    pub fn is_empty(&self) -> bool {
        self.measured == 0
    }
}

/// Expressions that can inject quantization noise under some
/// specification: binary/unary operations, input conversions and
/// coefficient-table loads.
pub fn noise_source_exprs(kernel: &Kernel) -> Vec<ExprId> {
    kernel
        .exprs()
        .filter(|(_, n)| {
            matches!(
                n,
                ExprNode::Bin(..)
                    | ExprNode::Unary(..)
                    | ExprNode::ReadInput(_)
                    | ExprNode::LoadParam(..)
            )
        })
        .map(|(id, _)| id)
        .collect()
}

/// Executions per activation for every expression (product of enclosing
/// trip counts; zero for dead arena nodes).
pub fn expr_executions(kernel: &Kernel) -> Vec<u64> {
    let mut execs = vec![0u64; kernel.expr_count()];
    kernel.visit_stmts(&mut |s, stack| {
        let trips: u64 = stack.iter().map(|&(_, c)| c as u64).product();
        let root = match s {
            Stmt::Assign(_, e)
            | Stmt::Store(_, _, e)
            | Stmt::ShiftIn(_, e)
            | Stmt::Output(_, e) => Some(*e),
            Stmt::For { .. } => None,
        };
        if let Some(root) = root {
            mark(kernel, root, trips, &mut execs);
        }
    });
    return execs;

    fn mark(kernel: &Kernel, e: ExprId, trips: u64, execs: &mut [u64]) {
        execs[e.index()] += trips;
        for op in kernel.expr(e).operands() {
            mark(kernel, op, trips, execs);
        }
    }
}

/// Measures `G1`/`G2` for every noise source of the kernel.
///
/// Linearity assumption: the kernel must be LTI in its signals (signals
/// may only be multiplied by parameters/constants, as in all the paper's
/// benchmarks); responses are then exact, not approximations.
///
/// Impulses are propagated in batches — one [`BatchExecutor`] sweep
/// carries a lane of deviation state per pending (source × execution
/// instance) impulse, the lanes retiring early on the `tail_epsilon`
/// criterion. Each value is computed only over its deviation hull (the
/// lanes an impulse has actually reached), and lanes retire as soon as
/// their deviation lifetime has provably elapsed (see [`ConeIndex`]).
/// The coefficient sweep keeps only its non-zero terms and, when every
/// lifetime is finite, splits into activation spans. Impulse batches and
/// coefficient spans run as the jobs of one pool of `threads` scoped
/// workers. Per-source results are bitwise identical to the one run per
/// impulse (and per coefficient site) of [`measure_gains_reference`],
/// for any thread count.
pub fn measure_gains(kernel: &Kernel, opts: &GainOptions) -> NoiseGains {
    measure_gains_with(kernel, opts, None)
}

/// [`measure_gains`] against a caller-provided [`ConeIndex`] (built once
/// per kernel and reused across analyses); builds a local index when
/// none is supplied.
pub fn measure_gains_with(
    kernel: &Kernel,
    opts: &GainOptions,
    cone: Option<&ConeIndex>,
) -> NoiseGains {
    let built;
    let cone = match cone {
        Some(c) => {
            assert_eq!(
                c.expr_count(),
                kernel.expr_count(),
                "cone index built for a different kernel"
            );
            c
        }
        None => {
            built = ConeIndex::build(kernel);
            &built
        }
    };
    let sources = noise_source_exprs(kernel);
    let execs = expr_executions(kernel);

    let mut param_srcs: Vec<ExprId> = Vec::new();
    let mut impulse_srcs: Vec<(ExprId, u64)> = Vec::new();
    for &src in &sources {
        let k_execs = execs[src.index()];
        if k_execs == 0 {
            continue; // dead arena node
        }
        if matches!(kernel.expr(src), ExprNode::LoadParam(..)) {
            // Coefficient errors are *multiplicative* in the signal path:
            // an impulse at zero state sees zero gain. Measure the mean
            // squared output sensitivity under random inputs instead.
            param_srcs.push(src);
        } else {
            impulse_srcs.push((src, k_execs));
        }
    }

    // Static lane retirement is bitwise-safe only while the zero-input
    // baseline provably stays finite, which holds exactly when every
    // expression's deviation lifetime is finite (no unbounded feedback
    // carrier reaches an output). The same condition makes the
    // coefficient sweep's span split exact (see `CoefSweep`).
    let lives: Option<Vec<u32>> = (0..kernel.expr_count())
        .map(|i| cone.life(ExprId(i as u32)))
        .collect();
    let lives = lives.as_deref();
    let workers = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let sweep = CoefSweep::plan(kernel, &param_srcs, opts, lives, workers);
    // Pack lanes of similar deviation lifetime into the same batch
    // (per-source sums are independent of batch composition, and the
    // final list is re-sorted by source anyway), so short-lived batches
    // retire wholesale instead of idling behind one long-lived lane.
    impulse_srcs.sort_by_key(|&(e, _)| (cone.life(e).unwrap_or(u32::MAX), e.index()));
    let (span_terms, impulses) = run_jobs(kernel, &sweep, &impulse_srcs, opts, lives, workers);

    let mut gains = NoiseGains::new(kernel.expr_count());
    for (src, g2) in param_srcs.iter().zip(sweep.fold(&span_terms)) {
        gains.insert(*src, (0.0, g2));
    }
    for (src, g1, g2) in impulses {
        gains.insert(src, (g1, g2));
    }
    gains
}

/// The original one-simulation-per-impulse measurement, kept as the
/// differential oracle for the batched path.
pub fn measure_gains_reference(kernel: &Kernel, opts: &GainOptions) -> NoiseGains {
    let sources = noise_source_exprs(kernel);
    let execs = expr_executions(kernel);
    let mut baseline = Baseline::new(kernel);

    let mut gains = NoiseGains::new(kernel.expr_count());
    for &src in &sources {
        let k_execs = execs[src.index()];
        if k_execs == 0 {
            continue; // dead arena node
        }
        if matches!(kernel.expr(src), ExprNode::LoadParam(..)) {
            let g2 = param_sensitivity(kernel, src, opts);
            gains.insert(src, (0.0, g2));
            continue;
        }
        let mut g1 = 0.0;
        let mut g2 = 0.0;
        for k in 0..k_execs {
            let (s1, s2) = impulse_response_sums(kernel, src, k as u32, opts, &mut baseline);
            g1 += s1;
            g2 += s2;
        }
        gains.insert(src, (g1, g2));
    }
    gains
}

/// Soft cap on impulse channels per batched sweep: a worker keeps
/// claiming sources until it holds at least this many lanes (a single
/// source with more execution instances than the cap still runs as one
/// batch, so per-source accumulation order is preserved).
const BATCH_LANES: usize = 128;

/// Runs the coefficient sweep's spans and the impulse batches as the jobs
/// of one pool of `workers` scoped threads. Spans go first (each is one
/// long job); then every worker claims whole impulse sources until it
/// holds [`BATCH_LANES`] lanes, runs them as one batch, and repeats.
/// `srcs` must be life-sorted (see [`run_impulse_batch`]).
///
/// Returns each span's term lists, in span order, and `(source, G1, G2)`
/// per impulse source in source order. Neither depends on which worker
/// ran which job, so results are identical for any worker count.
fn run_jobs(
    kernel: &Kernel,
    sweep: &CoefSweep<'_>,
    srcs: &[(ExprId, u64)],
    opts: &GainOptions,
    lives: Option<&[u32]>,
    workers: usize,
) -> (Vec<SpanTerms>, Vec<(ExprId, f64, f64)>) {
    let n_spans = sweep.spans.len();
    let workers = workers.min(n_spans + srcs.len());
    let span_cursor = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);
    let spans: Mutex<Vec<SpanTerms>> = Mutex::new(vec![Vec::new(); n_spans]);
    let results: Mutex<Vec<(ExprId, f64, f64)>> = Mutex::new(Vec::with_capacity(srcs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                    let i = span_cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n_spans {
                        break;
                    }
                    let terms = sweep.run_span(i);
                    spans.lock().expect("worker panicked")[i] = terms;
                }
                let mut local = Vec::new();
                loop {
                    // Claim whole sources until the lane budget is met.
                    let mut batch = Vec::new();
                    let mut lanes = 0usize;
                    while lanes < BATCH_LANES {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= srcs.len() {
                            break;
                        }
                        lanes += srcs[i].1 as usize;
                        batch.push(i);
                    }
                    if batch.is_empty() {
                        break;
                    }
                    run_impulse_batch(kernel, srcs, &batch, opts, lives, &mut local);
                }
                results.lock().expect("worker panicked").extend(local);
            });
        }
    });
    let mut out = results.into_inner().expect("worker panicked");
    out.sort_by_key(|&(e, _, _)| e.index());
    (spans.into_inner().expect("worker panicked"), out)
}

/// Runs one batched sweep over the sources listed in `batch` (indices
/// into `srcs`) and appends `(source, G1, G2)` per source.
///
/// Each lane performs exactly the solo-run arithmetic of
/// [`impulse_response_sums`]: same zero-input trajectory (carried by the
/// executor's internal baseline lane), same `(baseline + impulse) −
/// baseline` deviations accumulated in the same `(activation, output)`
/// order, same per-channel chunk-energy stopping rule — so the sums are
/// bitwise identical.
///
/// When `lives` is supplied (every expression's lifetime finite), lanes
/// whose deviation lifetime has elapsed retire early: all their
/// remaining reference terms are exactly `+0.0`, so skipping them only
/// needs a single `+ 0.0` normalization wherever the reference would
/// still have folded at least one such term.
fn run_impulse_batch(
    kernel: &Kernel,
    srcs: &[(ExprId, u64)],
    batch: &[usize],
    opts: &GainOptions,
    lives: Option<&[u32]>,
    out: &mut Vec<(ExprId, f64, f64)>,
) {
    let mut channels = Vec::new();
    let mut spans: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    for &si in batch {
        let (src, k_execs) = srcs[si];
        let start = channels.len();
        for k in 0..k_execs {
            channels.push(ImpulseChannel {
                target: src,
                activation: 0,
                exec: k as u32,
                amount: 1.0,
            });
        }
        spans.push((si, start..channels.len()));
    }
    let n_ch = channels.len();
    // Lifetime per channel id; `srcs` arrives life-sorted, so live lanes
    // stay sorted too and statically-dead lanes always form a prefix.
    let life_by_id: Option<Vec<u32>> =
        lives.map(|lv| channels.iter().map(|ch| lv[ch.target.index()]).collect());
    let mut ex = BatchExecutor::new(kernel, channels);
    let zero = vec![0.0; kernel.inputs().len()];
    let mut s1 = vec![0.0; n_ch];
    let mut s2 = vec![0.0; n_ch];
    let mut chunk = vec![0.0; n_ch];
    let mut m = 0usize;
    while ex.lanes() > 0 {
        let chunk_end = (m + opts.min_activations).min(opts.max_activations);
        let l = ex.lanes();
        chunk[..l].fill(0.0);
        while m < chunk_end {
            ex.step(&zero);
            let base = ex.outputs_base();
            let outs = ex.outputs();
            let l = ex.lanes();
            for (lane, &id) in ex.channel_ids().iter().enumerate() {
                let (mut a, mut b, mut c) = (s1[id], s2[id], chunk[lane]);
                for (o, &bo) in base.iter().enumerate() {
                    let h = outs[o * l + lane] - bo;
                    a += h;
                    b += h * h;
                    c += h * h;
                }
                s1[id] = a;
                s2[id] = b;
                chunk[lane] = c;
            }
            m += 1;
            if let Some(lives) = &life_by_id {
                if m < chunk_end && !kernel.outputs().is_empty() {
                    // Mid-chunk static retirement: the reference folds at
                    // least one more (all-`+0.0`) activation for these
                    // lanes, so normalize the sums once.
                    let ids = ex.channel_ids();
                    let dead = ids.partition_point(|&id| (lives[id] as usize) < m);
                    if dead > 0 {
                        for &id in &ids[..dead] {
                            s1[id] += 0.0;
                            s2[id] += 0.0;
                        }
                        let keep: Vec<bool> = (0..l).map(|lane| lane >= dead).collect();
                        ex.retain(&keep);
                        chunk.copy_within(dead..l, 0);
                        if ex.lanes() == 0 {
                            break;
                        }
                    }
                }
            }
        }
        if m >= opts.max_activations || ex.lanes() == 0 {
            break;
        }
        // Retire channels: the chunk-energy test first (the reference
        // stops exactly here — no normalization), then statically-dead
        // energy survivors (the reference runs one more all-zero chunk
        // and stops at its boundary — normalize once).
        let l = ex.lanes();
        let mut keep = Vec::with_capacity(l);
        for (lane, &id) in ex.channel_ids().iter().enumerate() {
            let surviving = chunk[lane] > opts.tail_epsilon * s2[id].max(1e-300);
            let statically_dead = life_by_id
                .as_ref()
                .is_some_and(|lives| (lives[id] as usize) < m && !kernel.outputs().is_empty());
            if surviving && statically_dead {
                s1[id] += 0.0;
                s2[id] += 0.0;
            }
            keep.push(surviving && !statically_dead);
        }
        ex.retain(&keep);
    }
    for (si, span) in spans {
        // Per-source accumulation in execution-instance order, matching
        // the reference's `for k in 0..k_execs` fold.
        let mut g1 = 0.0;
        let mut g2 = 0.0;
        for id in span {
            g1 += s1[id];
            g2 += s2[id];
        }
        out.push((srcs[si].0, g1, g2));
    }
}

/// The coefficient offset of the sensitivity measurement: small enough to
/// stay in the linear regime of feedback coefficients (see
/// [`param_sensitivity`]).
const PARAM_DELTA: f64 = 1e-4;

/// Mean squared output sensitivity to an offset on one coefficient load
/// site: `E[(∂y/∂c)²]` over random inputs. A fixed coefficient error `ε`
/// then contributes `ε²·G2` of output power, and averaging over
/// `ε ~ U(-q/2, q/2)` gives the `q²/12 · G2` used by the model.
///
/// The derivative is taken by a *small* finite difference: outputs are
/// linear in feed-forward coefficients but rational in feedback
/// coefficients (a unit offset there can destabilise the filter), so the
/// perturbation must stay in the linear regime.
fn param_sensitivity(kernel: &Kernel, src: ExprId, opts: &GainOptions) -> f64 {
    let n = opts.param_activations.max(1);
    let inputs = param_input_matrix(kernel, opts);
    let mut base_ex = Executor::new(kernel, FloatSem);
    let base = base_ex.run(&inputs);
    let sem = ImpulseSem {
        target: src,
        exec: u32::MAX,
        activation: u32::MAX,
        amount: PARAM_DELTA,
        inner: FloatSem,
    };
    let mut pert_ex = Executor::new(kernel, sem);
    let pert = pert_ex.run(&inputs);
    let mut sum = 0.0;
    for (b, p) in base.iter().zip(&pert) {
        for (x, y) in b.iter().zip(p) {
            let d = (y - x) / PARAM_DELTA;
            sum += d * d;
        }
    }
    sum / n as f64
}

/// The seeded random input matrix of the coefficient-sensitivity
/// measurement. Identical for every source (the RNG reseeds per call),
/// so the batched path generates it once per `measure_gains` call.
fn param_input_matrix(kernel: &Kernel, opts: &GainOptions) -> Vec<Vec<f64>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let n = opts.param_activations.max(1);
    let decls: Vec<(f64, f64)> = kernel.inputs().iter().map(|i| (i.lo, i.hi)).collect();
    let mut rng = StdRng::seed_from_u64(opts.param_seed);
    decls
        .iter()
        .map(|&(lo, hi)| {
            (0..n)
                .map(|_| if lo == hi { lo } else { rng.gen_range(lo..=hi) })
                .collect()
        })
        .collect()
}

/// One coefficient-sweep span's non-zero terms in activation order,
/// `terms[lane * outputs + output]`.
type SpanTerms = Vec<Vec<f64>>;

/// The batched coefficient-sensitivity measurement: one shared input
/// matrix and one always-on `PARAM_DELTA` lane per source, each lane
/// bitwise identical to the solo perturbed run of [`param_sensitivity`],
/// and the batch executor's baseline lane standing in (bitwise) for the
/// solo unperturbed run.
///
/// **Sparse capture.** The reference folds
/// `d² = ((pert − base) / PARAM_DELTA)²` output-major, then activation
/// by activation. Only the terms are kept, one list per (lane, output),
/// and a term is skipped when `pert − base` is `±0.0` (a lane bitwise
/// equal to a finite baseline): it is exactly
/// `+0.0`, and adding `+0.0` to the running sum — which starts at `+0.0`
/// and only ever adds squares, so it is never `-0.0` — is the identity.
/// A non-finite baseline gives a `NaN` difference, which is kept.
///
/// **Activation spans.** When every expression's lifetime is finite,
/// with `L` the largest, the activations split into contiguous spans run
/// as independent jobs. A span starts from zeroed state `L` activations
/// before its first counted activation and discards the warm-up outputs.
/// This is exact: state present at the warm-up start was written at
/// least `L + 1` activations before the span begins, by an expression
/// whose deviation — and so whose value — can no longer reach an output
/// there, so every counted output is computed from bitwise the same
/// operands as in one unbroken run. Each span's term lists, concatenated
/// in span order, are the unbroken run's.
struct CoefSweep<'a> {
    kernel: &'a Kernel,
    srcs: &'a [ExprId],
    inputs: Vec<Vec<f64>>,
    /// Counted activations of each span; together they tile the run.
    spans: Vec<std::ops::Range<usize>>,
    /// Warm-up activations replayed (and discarded) before a span.
    warmup: usize,
    /// The reference's divisor, `param_activations.max(1)`.
    n: usize,
}

impl<'a> CoefSweep<'a> {
    /// Plans the sweep. With every lifetime finite it splits into one
    /// span per worker, balanced so that every span replays the same
    /// number of activations: the first span (which needs no warm-up)
    /// counts `L` more than the others. It uses fewer spans while a later
    /// span would count no more activations than its warm-up replays (a
    /// split then buys less than it costs), and one span otherwise.
    fn plan(
        kernel: &'a Kernel,
        srcs: &'a [ExprId],
        opts: &GainOptions,
        lives: Option<&[u32]>,
        workers: usize,
    ) -> Self {
        let n = opts.param_activations.max(1);
        if srcs.is_empty() {
            return CoefSweep {
                kernel,
                srcs,
                inputs: Vec::new(),
                spans: Vec::new(),
                warmup: 0,
                n,
            };
        }
        let inputs = param_input_matrix(kernel, opts);
        // With no input streams the reference runs zero activations; its
        // deviation fold is then empty and every sensitivity is +0.0.
        let acts = inputs.first().map_or(0, Vec::len);
        let warmup = lives.map_or(0, |lv| lv.iter().copied().max().unwrap_or(0) as usize);
        // Activations each later span counts when split `k` ways.
        let later = |k: usize| acts.saturating_sub(warmup) / k;
        let count = match lives {
            Some(_) => (2..=workers)
                .rev()
                .find(|&k| later(k) > warmup)
                .unwrap_or(1),
            None => 1,
        };
        let first = acts - (count - 1) * later(count);
        let spans = std::iter::once(0..first)
            .chain((1..count).map(|k| {
                let start = first + (k - 1) * later(count);
                start..start + later(count)
            }))
            .collect();
        CoefSweep {
            kernel,
            srcs,
            inputs,
            spans,
            warmup,
            n,
        }
    }

    /// Runs span `i` and returns its non-zero terms.
    fn run_span(&self, i: usize) -> SpanTerms {
        let counted = self.spans[i].clone();
        let n_out = self.kernel.outputs().len();
        let l = self.srcs.len();
        let channels = self
            .srcs
            .iter()
            .map(|&src| ImpulseChannel {
                target: src,
                activation: u32::MAX,
                exec: u32::MAX,
                amount: PARAM_DELTA,
            })
            .collect();
        let mut ex = BatchExecutor::new(self.kernel, channels);
        let mut terms = vec![Vec::new(); l * n_out];
        let mut sample = vec![0.0; self.inputs.len()];
        for a in counted.start.saturating_sub(self.warmup)..counted.end {
            for (x, s) in sample.iter_mut().zip(&self.inputs) {
                *x = s[a];
            }
            ex.step(&sample);
            if a < counted.start {
                continue;
            }
            let outs = ex.outputs();
            for (o, &bo) in ex.outputs_base().iter().enumerate() {
                for (lane, &y) in outs[o * l..(o + 1) * l].iter().enumerate() {
                    let h = y - bo;
                    // `NaN != 0.0`, so non-finite differences are kept.
                    if h != 0.0 {
                        let d = h / PARAM_DELTA;
                        terms[lane * n_out + o].push(d * d);
                    }
                }
            }
        }
        terms
    }

    /// One sensitivity per source from the spans' terms (in span order),
    /// folded output-major, then activation, like the reference.
    fn fold(&self, spans: &[SpanTerms]) -> Vec<f64> {
        let n_out = self.kernel.outputs().len();
        (0..self.srcs.len())
            .map(|lane| {
                let mut sum = 0.0;
                for o in 0..n_out {
                    for terms in spans {
                        for &t in &terms[lane * n_out + o] {
                            sum += t;
                        }
                    }
                }
                sum / self.n as f64
            })
            .collect()
    }
}

/// Lazily extended zero-input reference trajectory. With zero inputs an
/// LTI kernel settles at a constant output trajectory (all-zero for the
/// paper's kernels, but subtracting it keeps the measurement correct in
/// the presence of non-zero additive constants).
struct Baseline<'k> {
    ex: Executor<'k, FloatSem>,
    outs: Vec<Vec<f64>>,
    zero: Vec<f64>,
}

impl<'k> Baseline<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        Baseline {
            ex: Executor::new(kernel, FloatSem),
            outs: Vec::new(),
            zero: vec![0.0; kernel.inputs().len()],
        }
    }

    fn get(&mut self, m: usize) -> &[f64] {
        while self.outs.len() <= m {
            let step = self.ex.step(&self.zero);
            self.outs.push(step);
        }
        &self.outs[m]
    }
}

/// Runs the kernel with a unit impulse added to `src`'s `k`-th execution
/// in activation 0 and returns `(Σ h, Σ h²)` over outputs and time.
fn impulse_response_sums(
    kernel: &Kernel,
    src: ExprId,
    k: u32,
    opts: &GainOptions,
    baseline: &mut Baseline<'_>,
) -> (f64, f64) {
    let sem = ImpulseSem {
        target: src,
        exec: k,
        activation: 0,
        amount: 1.0,
        inner: FloatSem,
    };
    let mut ex = Executor::new(kernel, sem);
    let zero = vec![0.0; kernel.inputs().len()];
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut m = 0usize;
    loop {
        let chunk_end = (m + opts.min_activations).min(opts.max_activations);
        let mut chunk_energy = 0.0;
        while m < chunk_end {
            let out = ex.step(&zero);
            let base = baseline.get(m);
            for (o, &v) in out.iter().enumerate() {
                let h = v - base[o];
                s1 += h;
                s2 += h * h;
                chunk_energy += h * h;
            }
            m += 1;
        }
        if m >= opts.max_activations {
            break;
        }
        // Stop when the response has died out.
        if chunk_energy <= opts.tail_epsilon * s2.max(1e-300) {
            break;
        }
    }
    (s1, s2)
}

/// Float semantics that adds `+1.0` to the value produced by one specific
/// execution instance of one expression (`exec == activation == u32::MAX`
/// perturbs *every* execution, used for coefficient sensitivity).
struct ImpulseSem {
    target: ExprId,
    exec: u32,
    activation: u32,
    amount: f64,
    inner: FloatSem,
}

impl ImpulseSem {
    #[inline]
    fn poke(&self, ctx: ExecCtx, e: ExprId, v: f64) -> f64 {
        if e != self.target {
            return v;
        }
        let always = self.exec == u32::MAX && self.activation == u32::MAX;
        if always || (ctx.exec == self.exec && ctx.activation == self.activation) {
            v + self.amount
        } else {
            v
        }
    }
}

impl Semantics for ImpulseSem {
    type Value = f64;

    fn zero(&mut self) -> f64 {
        0.0
    }

    fn constant(&mut self, ctx: ExecCtx, e: ExprId, v: f64) -> f64 {
        let v = self.inner.constant(ctx, e, v);
        self.poke(ctx, e, v)
    }

    fn input(&mut self, ctx: ExecCtx, e: ExprId, i: InputId, raw: f64) -> f64 {
        let v = self.inner.input(ctx, e, i, raw);
        self.poke(ctx, e, v)
    }

    fn param(&mut self, ctx: ExecCtx, e: ExprId, p: ParamId, idx: i64, raw: f64) -> f64 {
        let v = self.inner.param(ctx, e, p, idx, raw);
        self.poke(ctx, e, v)
    }

    fn load(&mut self, ctx: ExecCtx, e: ExprId, stored: f64) -> f64 {
        let v = self.inner.load(ctx, e, stored);
        self.poke(ctx, e, v)
    }

    fn un(&mut self, ctx: ExecCtx, e: ExprId, op: UnOp, a: f64) -> f64 {
        let v = self.inner.un(ctx, e, op, a);
        self.poke(ctx, e, v)
    }

    fn bin(&mut self, ctx: ExecCtx, e: ExprId, op: BinOp, a: f64, b: f64) -> f64 {
        let v = self.inner.bin(ctx, e, op, a, b);
        self.poke(ctx, e, v)
    }

    fn to_f64(&self, v: f64) -> f64 {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn fir_input_gain_is_coefficient_energy() {
        let k = parse_kernel(FIR4).unwrap();
        let gains = measure_gains(&k, &GainOptions::default());
        // The input-conversion site's noise passes through the filter:
        // G1 = sum(c), G2 = sum(c^2).
        let (input_expr, _) = k
            .exprs()
            .find(|(_, n)| matches!(n, ExprNode::ReadInput(_)))
            .unwrap();
        let (g1, g2) = gains.get(input_expr);
        let c = [0.5, 0.25, -0.125, 0.0625];
        let sum: f64 = c.iter().sum();
        let energy: f64 = c.iter().map(|v| v * v).sum();
        assert!((g1 - sum).abs() < 1e-12, "G1 {g1} vs {sum}");
        assert!((g2 - energy).abs() < 1e-12, "G2 {g2} vs {energy}");
    }

    #[test]
    fn fir_accumulator_add_gain_counts_trips() {
        let k = parse_kernel(FIR4).unwrap();
        let gains = measure_gains(&k, &GainOptions::default());
        // Each execution of the accumulator add reaches the output once
        // with unit gain; 4 executions per activation => G1 = G2 = 4.
        let (add_expr, _) = k
            .exprs()
            .find(|(_, n)| matches!(n, ExprNode::Bin(BinOp::Add, _, _)))
            .unwrap();
        let (g1, g2) = gains.get(add_expr);
        assert!((g1 - 4.0).abs() < 1e-12, "G1 {g1}");
        assert!((g2 - 4.0).abs() < 1e-12, "G2 {g2}");
    }

    #[test]
    fn iir_feedback_amplifies_gains() {
        let src = r#"
kernel iir1 {
    input x range [-1, 1];
    output y;
    array yline[1];
    var t;
    t = 0.5 * x + 0.5 * yline[0];
    shiftin yline <- t;
    y = t;
}
"#;
        let k = parse_kernel(src).unwrap();
        let gains = measure_gains(&k, &GainOptions::default());
        // Noise at the output add recirculates: h = (1, .5, .25, ...):
        // G1 = 1/(1-0.5) = 2, G2 = 1/(1-0.25) = 4/3.
        let (add_expr, _) = k
            .exprs()
            .filter(|(_, n)| matches!(n, ExprNode::Bin(BinOp::Add, _, _)))
            .last()
            .unwrap();
        let (g1, g2) = gains.get(add_expr);
        assert!((g1 - 2.0).abs() < 1e-6, "G1 {g1}");
        assert!((g2 - 4.0 / 3.0).abs() < 1e-6, "G2 {g2}");
    }

    #[test]
    fn executions_counts_match_structure() {
        let k = parse_kernel(FIR4).unwrap();
        let execs = expr_executions(&k);
        let (mul_expr, _) = k
            .exprs()
            .find(|(_, n)| matches!(n, ExprNode::Bin(BinOp::Mul, _, _)))
            .unwrap();
        assert_eq!(execs[mul_expr.index()], 4);
        let (input_expr, _) = k
            .exprs()
            .find(|(_, n)| matches!(n, ExprNode::ReadInput(_)))
            .unwrap();
        assert_eq!(execs[input_expr.index()], 1);
    }

    /// Asserts the batched and reference measurements agree bitwise on
    /// every source, for several thread counts.
    fn assert_batched_matches_reference(k: &Kernel, opts: &GainOptions) {
        let reference = measure_gains_reference(k, opts);
        for threads in [1usize, 3] {
            let opts = GainOptions { threads, ..*opts };
            let batched = measure_gains(k, &opts);
            assert_eq!(batched.len(), reference.len());
            for (e, (g1, g2)) in reference.iter() {
                let (b1, b2) = batched.get(e);
                assert_eq!(b1.to_bits(), g1.to_bits(), "G1 of {e:?}");
                assert_eq!(b2.to_bits(), g2.to_bits(), "G2 of {e:?}");
            }
        }
    }

    #[test]
    fn batched_gains_match_reference_on_fir() {
        let k = parse_kernel(FIR4).unwrap();
        assert_batched_matches_reference(&k, &GainOptions::default());
    }

    #[test]
    fn batched_gains_match_reference_on_iir() {
        let src = r#"
kernel iir1 {
    input x range [-1, 1];
    output y;
    array yline[1];
    var t;
    t = 0.5 * x + 0.5 * yline[0];
    shiftin yline <- t;
    y = t;
}
"#;
        let k = parse_kernel(src).unwrap();
        assert_batched_matches_reference(&k, &GainOptions::default());
        // Tiny batches force multiple sweeps and mid-sweep retirement.
        let tight = GainOptions {
            min_activations: 4,
            max_activations: 256,
            ..GainOptions::default()
        };
        assert_batched_matches_reference(&k, &tight);
    }

    #[test]
    fn coefficient_sweep_splits_only_when_it_pays() {
        let k = parse_kernel(FIR4).unwrap();
        let cone = ConeIndex::build(&k);
        let lives: Option<Vec<u32>> = k.exprs().map(|(e, _)| cone.life(e)).collect();
        let srcs = vec![find_param_load(&k)];
        let opts = GainOptions::default();
        // Lifetimes finite, warm-up (4) far below a third of 1 024: each
        // span replays 344 activations, 4 of them warm-up after the first.
        let sweep = CoefSweep::plan(&k, &srcs, &opts, lives.as_deref(), 3);
        assert_eq!(sweep.warmup, 4);
        assert_eq!(sweep.spans, vec![0..344, 344..684, 684..1024]);
        // 8 activations: later spans of 1 or 2 would count no more than
        // the 4-activation warm-up, so the sweep stays whole.
        let short = GainOptions {
            param_activations: 8,
            ..opts
        };
        let sweep = CoefSweep::plan(&k, &srcs, &short, lives.as_deref(), 3);
        assert_eq!(sweep.spans, vec![0..8]);
        // An unbounded lifetime (feedback) never splits.
        let sweep = CoefSweep::plan(&k, &srcs, &opts, None, 3);
        assert_eq!(sweep.spans, vec![0..1024]);
    }

    fn find_param_load(k: &Kernel) -> ExprId {
        k.exprs()
            .find(|(_, n)| matches!(n, ExprNode::LoadParam(..)))
            .map(|(e, _)| e)
            .unwrap()
    }

    #[test]
    fn dead_nodes_have_zero_gain() {
        let src = "kernel k { input x range [-1,1]; output y; var a; for i in 0..4 unroll 2 { a = x + x; } y = a; }";
        // Note: `x + x` is invalid (double use); build a correct variant.
        let src = src.replace("x + x", "x * 1.0");
        let k = parse_kernel(&src).unwrap();
        let gains = measure_gains(&k, &GainOptions::default());
        let execs = expr_executions(&k);
        for (e, _) in k.exprs() {
            if execs[e.index()] == 0 {
                assert_eq!(gains.get(e), (0.0, 0.0));
            }
        }
    }
}
