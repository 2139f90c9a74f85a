//! The traced run: spans and counts recorded from the benchmark's own
//! code around its calls into each crate, kept in memory and summarised
//! when the benchmark ends. Layers are named after the crates.

use crate::workload::{emit_c, Kind, Point, Setup};
use slpwlo_accuracy::gains::noise_source_exprs;
use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator, EvalOptions, IncrementalEvaluator};
use slpwlo_core::{
    modulo_attempt_cached, tabu_wlo, total_cycles_cached, wlo_first_flow_checked,
    wlo_slp_flow_checked, wlo_slp_sched, ModuloAttempt, PassArtifact, Prepared, ProgramRole,
    TabuOptions,
};
use slpwlo_driver::flow::required_constraint;
use slpwlo_driver::{
    BenefitKind, CompilationFlow, Error, FlowContext, FlowKind, FlowOutput, Optimizer, Report,
};
use slpwlo_fixedpoint::range::{RangeAnalysis, RangeOptions};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::parser::parse_kernel;
use slpwlo_ir::{ConeIndex, Kernel};
use slpwlo_targets::{CycleCache, SchedKind, TargetModel};
use slpwlo_verify::{verify_boundary, VerifyLevel};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sums of per-layer times (ms) and counts over traced runs, keyed by
/// metric name; `runs` counts the runs.
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Layers, scale: f64) {
        for (k, v) in &other.0 {
            self.add(k, v * scale);
        }
    }

    fn per_run(&self, key: &str) -> f64 {
        ratio(self.get(key), self.get("runs"))
    }

    /// The per-layer metrics (name, unit, value): per-run means, and
    /// ratios of sums for the per-trial and per-block figures. A layer a
    /// workload bypasses reads zero.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let trials = self.get("trials");
        vec![
            ("ir.parse_ms", "ms", self.per_run("ir.parse_ms")),
            ("ir.exprs", "count", self.per_run("ir.exprs")),
            ("ir.cone_ms", "ms", self.per_run("ir.cone_ms")),
            (
                "fixedpoint.ranges_ms",
                "ms",
                self.per_run("fixedpoint.ranges_ms"),
            ),
            ("accuracy.gains_ms", "ms", self.per_run("accuracy.gains_ms")),
            (
                "accuracy.noise_sources",
                "count",
                self.per_run("accuracy.noise_sources"),
            ),
            ("accuracy.trials", "count", self.per_run("trials")),
            (
                "accuracy.trial_ns",
                "ns",
                ratio(self.get("trial_ns_total"), trials),
            ),
            (
                "accuracy.trial_commit_ratio",
                "ratio",
                ratio(self.get("commits"), trials),
            ),
            ("core.search_ms", "ms", self.per_run("core.search_ms")),
            ("core.tabu_ms", "ms", self.per_run("core.tabu_ms")),
            ("core.extract_ms", "ms", self.per_run("core.extract_ms")),
            ("core.guard_ms", "ms", self.per_run("core.guard_ms")),
            (
                "core.lower_scalar_ms",
                "ms",
                self.per_run("core.lower_scalar_ms"),
            ),
            ("core.other_ms", "ms", self.per_run("core.other_ms")),
            ("core.sched_ms", "ms", self.per_run("core.sched_ms")),
            (
                "core.modulo_fallback_share",
                "share",
                ratio(self.get("modulo_fallbacks"), self.get("modulo_eligible")),
            ),
            ("slp.groups", "count", self.per_run("slp.groups")),
            (
                "slp.optimal_rounds",
                "count",
                self.per_run("slp.optimal_rounds"),
            ),
            (
                "slp.optimal_improved",
                "count",
                self.per_run("slp.optimal_improved"),
            ),
            (
                "slp.budget_fallbacks",
                "count",
                self.per_run("slp.budget_fallbacks"),
            ),
            (
                "slp.portfolio_fallbacks",
                "count",
                self.per_run("slp.portfolio_fallbacks"),
            ),
            ("codegen.emit_ms", "ms", self.per_run("codegen.emit_ms")),
            ("codegen.c_bytes", "bytes", self.per_run("codegen.c_bytes")),
            (
                "codegen.refusals",
                "count",
                self.per_run("codegen.refusals"),
            ),
            ("driver.self_ms", "ms", self.per_run("driver.self_ms")),
            ("trace.overhead_ms", "ms", self.per_run("trace.overhead_ms")),
        ]
    }

    /// Self time per run of each layer (ms), for the per-kernel rows.
    /// The accuracy trials run inside the searches, so their time is
    /// taken out of the search spans.
    pub fn row(&self) -> [(&'static str, f64); 10] {
        let trial_ms = self.get("trial_ns_total") / 1e6;
        let search = self.get("core.search_ms") + self.get("core.tabu_ms") - trial_ms;
        let core_rest = self.get("core.extract_ms")
            + self.get("core.guard_ms")
            + self.get("core.lower_scalar_ms")
            + self.get("core.other_ms");
        let runs = self.get("runs");
        let per = |v: f64| ratio(v, runs);
        [
            ("parse", per(self.get("ir.parse_ms"))),
            ("cone", per(self.get("ir.cone_ms"))),
            ("ranges", per(self.get("fixedpoint.ranges_ms"))),
            ("gains", per(self.get("accuracy.gains_ms"))),
            ("trial_ms", per(trial_ms)),
            ("search", per(search)),
            ("core", per(core_rest)),
            ("sched", per(self.get("core.sched_ms"))),
            ("emit", per(self.get("codegen.emit_ms"))),
            ("driver", per(self.get("driver.self_ms"))),
        ]
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times the front end a prepared kernel costs, layer by layer, through
/// the same calls `slpwlo_core::prepare` makes.
pub fn front_end(kernel: &Kernel) -> Layers {
    let mut l = Layers::default();
    let t = Instant::now();
    let cone = ConeIndex::build(kernel);
    l.add("ir.cone_ms", ms(t.elapsed()));
    let t = Instant::now();
    black_box(RangeAnalysis::new(kernel, &RangeOptions::default()));
    l.add("fixedpoint.ranges_ms", ms(t.elapsed()));
    let t = Instant::now();
    black_box(AnalyticalEvaluator::new_with_cone(
        kernel,
        &EvalOptions::default(),
        Some(&cone),
    ));
    l.add("accuracy.gains_ms", ms(t.elapsed()));
    l
}

/// Where a flow's pass-boundary artifact falls in its timeline.
#[derive(Debug, Clone, Copy)]
enum Mark {
    Kernel,
    SeedSpec,
    FinalSpec,
    Groups,
    FinalGroups,
    Candidate,
    Simd,
    Scalar,
}

impl Mark {
    fn of(a: &PassArtifact<'_>) -> Mark {
        match a {
            PassArtifact::Kernel { .. } => Mark::Kernel,
            PassArtifact::Spec { is_final, .. } => {
                if *is_final {
                    Mark::FinalSpec
                } else {
                    Mark::SeedSpec
                }
            }
            PassArtifact::Groups { is_final, .. } => {
                if *is_final {
                    Mark::FinalGroups
                } else {
                    Mark::Groups
                }
            }
            PassArtifact::Program { role, .. } => match role {
                ProgramRole::Simd => Mark::Simd,
                ProgramRole::Scalar => Mark::Scalar,
                ProgramRole::Candidate => Mark::Candidate,
            },
        }
    }
}

/// What one flow run recorded.
#[derive(Default)]
struct FlowTrace {
    /// Each artifact with its time since the flow started, oracle work
    /// excluded.
    events: Vec<(Mark, Duration)>,
    /// The flow's wall time, oracle work excluded.
    wall: Duration,
    /// Time spent verifying final groups inside the flow.
    paused: Duration,
    /// Verifier rejections of final groups.
    group_faults: Vec<String>,
}

impl FlowTrace {
    /// Splits the flow's time into core spans: each stretch between two
    /// artifacts belongs to the pass that produced the later one.
    fn spans(&self, flow: FlowKind, l: &mut Layers) {
        let mut prev = Duration::ZERO;
        let mut covered = Duration::ZERO;
        for &(mark, at) in &self.events {
            let d = at.saturating_sub(prev);
            prev = at;
            let span = match mark {
                // The stretch before each leg's kernel is flow overhead.
                Mark::Kernel => continue,
                Mark::SeedSpec => "core.tabu_ms",
                Mark::FinalSpec if flow == FlowKind::WloSlp => "core.search_ms",
                Mark::FinalSpec => "core.tabu_ms",
                Mark::Groups => "core.extract_ms",
                Mark::Candidate | Mark::FinalGroups | Mark::Simd => "core.guard_ms",
                Mark::Scalar => "core.lower_scalar_ms",
            };
            l.add(span, ms(d));
            covered += d;
        }
        l.add("core.other_ms", ms(self.wall.saturating_sub(covered)));
    }
}

/// A custom flow that forwards to the core's checked WLO-SLP and
/// WLO-First flows, timestamping every pass-boundary artifact and
/// verifying the final groups (which no report carries).
struct Forward {
    kind: FlowKind,
    trace: Arc<Mutex<FlowTrace>>,
}

impl CompilationFlow for Forward {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn run(&self, ctx: &FlowContext<'_>) -> Result<FlowOutput, Error> {
        let db = required_constraint(ctx, self.name())?;
        let mut t = FlowTrace::default();
        let mut forward = ctx.boundary_check();
        let start = Instant::now();
        let mut check = |a: PassArtifact<'_>| -> Result<(), Error> {
            t.events
                .push((Mark::of(&a), start.elapsed().saturating_sub(t.paused)));
            if let PassArtifact::Groups { is_final: true, .. } = a {
                let v = Instant::now();
                if let Err(e) = verify_boundary(VerifyLevel::Boundaries, &a) {
                    t.group_faults.push(e.to_string());
                }
                t.paused += v.elapsed();
            }
            forward(a)
        };
        let res = match self.kind {
            FlowKind::WloSlp => {
                wlo_slp_flow_checked(ctx.prep, ctx.target, db, ctx.benefit, ctx.sched, &mut check)
            }
            FlowKind::WloFirst => wlo_first_flow_checked(
                ctx.prep,
                ctx.target,
                db,
                ctx.tabu,
                ctx.benefit,
                ctx.sched,
                &mut check,
            ),
            other => return Err(Error::UnknownFlow(other.name().to_string())),
        };
        t.wall = start.elapsed().saturating_sub(t.paused);
        *self
            .trace
            .lock()
            .expect("flow trace lock is never poisoned") = t;
        let res = res?;
        Ok(FlowOutput {
            spec: Some(res.spec),
            program: res.simd,
            scalar: res.scalar,
            group_count: res.group_count,
            noise_db: Some(res.noise_db),
            select: res.select,
        })
    }
}

/// An accuracy evaluator that counts and times the trials a search
/// issues to the incremental evaluator it wraps.
struct Counting<'a> {
    inner: IncrementalEvaluator<'a>,
    trials: Cell<u64>,
    commits: Cell<u64>,
    nanos: Cell<u64>,
}

impl AccuracyEvaluator for Counting<'_> {
    fn noise_db(&self, spec: &FixedPointSpec) -> f64 {
        self.inner.noise_db(spec)
    }

    fn meets(&self, spec: &FixedPointSpec, a_db: f64) -> bool {
        self.inner.meets(spec, a_db)
    }

    fn begin(&self, spec: &FixedPointSpec) {
        self.inner.begin(spec);
    }

    fn trial_noise_db(&self, spec: &FixedPointSpec, mark: usize) -> f64 {
        let t = Instant::now();
        let db = self.inner.trial_noise_db(spec, mark);
        self.nanos
            .set(self.nanos.get() + t.elapsed().as_nanos() as u64);
        self.trials.set(self.trials.get() + 1);
        db
    }

    fn commit_trial(&self) {
        self.commits.set(self.commits.get() + 1);
        self.inner.commit_trial();
    }

    fn rollback_trial(&self) {
        self.inner.rollback_trial();
    }

    fn observe(&self, spec: &FixedPointSpec, mark: usize) {
        self.inner.observe(spec, mark);
    }
}

/// Re-runs the flow's search (`wlo_slp_sched` or `tabu_wlo`) of one
/// point over a counting evaluator, once per leg the flow runs, and
/// returns the spec of the leg the report kept.
fn replay(
    prep: &Prepared,
    target: &TargetModel,
    p: &Point,
    benefit: BenefitKind,
    sched: SchedKind,
    greedy_won: bool,
    l: &mut Layers,
) -> FixedPointSpec {
    let legs: &[BenefitKind] = match benefit {
        BenefitKind::Optimal { .. } => &[benefit, BenefitKind::Cycles],
        _ => &[benefit],
    };
    let mut specs = Vec::new();
    for &leg in legs {
        let eval = Counting {
            inner: IncrementalEvaluator::new(&prep.eval),
            trials: Cell::new(0),
            commits: Cell::new(0),
            nanos: Cell::new(0),
        };
        let spec = if p.flow == FlowKind::WloSlp {
            wlo_slp_sched(&prep.kernel, target, &eval, p.db, &prep.ranges, leg, sched).spec
        } else {
            let mut spec = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
            tabu_wlo(
                &prep.kernel,
                &mut spec,
                &eval,
                p.db,
                &target.scalar_wls,
                &TabuOptions::default(),
            );
            spec
        };
        l.add("trials", eval.trials.get() as f64);
        l.add("commits", eval.commits.get() as f64);
        l.add("trial_ns_total", eval.nanos.get() as f64);
        specs.push(spec);
    }
    let keep = if greedy_won { specs.len() - 1 } else { 0 };
    specs.swap_remove(keep)
}

/// One traced run.
pub struct Traced {
    pub report: Report,
    pub layers: Layers,
    /// Verifier rejections of the run's final groups.
    pub group_faults: Vec<String>,
    /// Why the C back-ends refused the run's programs, if they did.
    pub refusal: Option<String>,
    /// Wall time comparable to an untraced run of the same point: the
    /// traced calls minus the standalone front-end calls and the
    /// replayed search.
    pub comparable_ms: f64,
}

/// Runs point `i` traced; with `count_trials`, also replays its search
/// over a counting evaluator. `Err` carries the run's error or a broken
/// determinism contract (the latter is returned with a `determinism:`
/// prefix).
pub fn run(setup: &mut Setup, i: usize, count_trials: bool) -> Result<Traced, String> {
    let p = setup.points[i];
    let trace = Arc::new(Mutex::new(FlowTrace::default()));
    let flow = Box::new(Forward {
        kind: p.flow,
        trace: Arc::clone(&trace),
    });
    let mut l = Layers::default();
    let mut comparable_ms = 0.0;
    let opt = if setup.kind == Kind::ColdCompile {
        let case = &setup.cases[p.case];
        let t = Instant::now();
        let kernel = parse_kernel(&case.text).map_err(|e| Error::Parse(e).to_string())?;
        let parse = ms(t.elapsed());
        let fe = front_end(&kernel);
        let t = Instant::now();
        let opt = Optimizer::for_kernel(kernel).map_err(|e| e.to_string())?;
        let construct = ms(t.elapsed());
        // `for_kernel` repeats the front end just timed layer by layer;
        // what it spends beyond that is `slpwlo-driver`'s own.
        let fe_ms =
            fe.get("ir.cone_ms") + fe.get("fixedpoint.ranges_ms") + fe.get("accuracy.gains_ms");
        l.merge(&fe, 1.0);
        l.add("ir.parse_ms", parse);
        l.add("driver.self_ms", construct - fe_ms);
        comparable_ms += parse + construct;
        opt.target(setup.targets[p.target].clone())
            .constraint_db(p.db)
            .custom_flow(flow)
    } else {
        setup.take_prepared(&p).custom_flow(flow)
    };
    let t = Instant::now();
    let report = opt.run();
    let run_wall = t.elapsed();
    let result = report.map_err(|e| e.to_string()).and_then(|report| {
        let ft = std::mem::take(&mut *trace.lock().expect("flow trace lock is never poisoned"));
        finish(
            setup,
            &p,
            &opt,
            report,
            ft,
            run_wall,
            &mut l,
            &mut comparable_ms,
            count_trials,
        )
    });
    if setup.kind != Kind::ColdCompile {
        setup.put_prepared(&p, opt);
    }
    let f = result?;
    l.add("runs", 1.0);
    Ok(Traced {
        report: f.report,
        layers: l,
        group_faults: f.group_faults,
        refusal: f.refusal,
        comparable_ms,
    })
}

#[allow(clippy::too_many_arguments)]
fn finish(
    setup: &Setup,
    p: &Point,
    opt: &Optimizer,
    report: Report,
    ft: FlowTrace,
    run_wall: Duration,
    l: &mut Layers,
    comparable_ms: &mut f64,
    count_trials: bool,
) -> Result<Finished, String> {
    let run_ms = ms(run_wall.saturating_sub(ft.paused));
    *comparable_ms += run_ms;
    ft.spans(p.flow, l);
    let mut refusal = None;
    if setup.kind == Kind::ColdCompile {
        let t = Instant::now();
        let emitted = emit_c(&report);
        let emit = ms(t.elapsed());
        l.add("codegen.emit_ms", emit);
        match emitted {
            Ok(bytes) => l.add("codegen.c_bytes", bytes as f64),
            Err(e) => {
                l.add("codegen.refusals", 1.0);
                refusal = Some(e.to_string());
            }
        }
        *comparable_ms += emit;
    }
    // Pricing: the four cycle counts `Optimizer::run` computes, redone
    // on the report's programs.
    let t = Instant::now();
    let costs = CycleCache::new(&report.target);
    let cycles = [
        total_cycles_cached(&costs, &report.simd, report.activations, report.sched),
        total_cycles_cached(&costs, &report.scalar, report.activations, report.sched),
        total_cycles_cached(&costs, &report.simd, report.activations, SchedKind::List),
        total_cycles_cached(&costs, &report.scalar, report.activations, SchedKind::List),
    ];
    let sched = ms(t.elapsed());
    l.add("core.sched_ms", sched);
    let reported = [
        report.cycles_simd,
        report.cycles_scalar,
        report.cycles_simd_list,
        report.cycles_scalar_list,
    ];
    if cycles != reported {
        return Err(format!(
            "determinism: re-priced cycles {cycles:?} differ from the report's {reported:?}"
        ));
    }
    if let SchedKind::Modulo { budget } = report.sched {
        for block in &report.simd.blocks {
            match modulo_attempt_cached(&costs, block, budget) {
                ModuloAttempt::Ineligible => {}
                ModuloAttempt::Pipelined(_) => l.add("modulo_eligible", 1.0),
                ModuloAttempt::NotProfitable | ModuloAttempt::BudgetExhausted => {
                    l.add("modulo_eligible", 1.0);
                    l.add("modulo_fallbacks", 1.0);
                }
            }
        }
    }
    l.add("driver.self_ms", run_ms - ms(ft.wall) - sched);
    l.add("ir.exprs", report.kernel.expr_count() as f64);
    l.add(
        "accuracy.noise_sources",
        noise_source_exprs(&report.kernel).len() as f64,
    );
    l.add("slp.groups", report.group_count as f64);
    l.add("slp.optimal_rounds", report.select.rounds as f64);
    l.add("slp.optimal_improved", report.select.improved as f64);
    l.add(
        "slp.budget_fallbacks",
        report.select.budget_fallbacks as f64,
    );
    l.add(
        "slp.portfolio_fallbacks",
        report.select.portfolio_fallbacks as f64,
    );
    if count_trials {
        let (benefit, sched_kind) = setup.kinds();
        let spec = replay(
            opt.prepared(),
            &report.target,
            p,
            benefit,
            sched_kind,
            report.select.portfolio_fallbacks > 0,
            l,
        );
        if Some(format!("{spec:?}")) != report.spec.as_ref().map(|s| format!("{s:?}")) {
            return Err(
                "determinism: the counted search's spec differs from the report's spec".into(),
            );
        }
    }
    Ok(Finished {
        report,
        group_faults: ft.group_faults,
        refusal,
    })
}

struct Finished {
    report: Report,
    group_faults: Vec<String>,
    refusal: Option<String>,
}
