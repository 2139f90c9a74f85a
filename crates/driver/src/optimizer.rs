//! The builder-pattern driver.

use crate::error::Error;
use crate::flow::{CompilationFlow, FlowContext, FlowKind};
use crate::report::Report;
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_core::{prepare, BenefitKind, BlockPrices, Prepared, TabuOptions};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::parser::parse_kernel;
use slpwlo_ir::Kernel;
use slpwlo_targets::{xentium, SchedKind, TargetModel};
use slpwlo_verify::VerifyLevel;

/// Default activations for cycle reporting (the paper's FIR/IIR workload
/// size).
const DEFAULT_ACTIVATIONS: u64 = 2048;

/// The unified driver: one kernel, one target, one flow, any number of
/// constraint points.
///
/// Construction runs the expensive once-per-kernel analyses (range
/// analysis, noise-gain measurement); [`Optimizer::run`] and
/// [`Optimizer::sweep`] reuse them across constraint points, which is
/// what makes Fig. 4/6-style experiments affordable.
///
/// ```
/// use slpwlo_driver::{FlowKind, Optimizer};
/// use slpwlo_targets::xentium;
///
/// let report = Optimizer::for_source(
///     "kernel k { input x range [-1, 1]; output y; var t; t = 0.5 * x; y = t; }",
/// )?
/// .target(xentium())
/// .constraint_db(-50.0)
/// .flow(FlowKind::WloSlp)
/// .run()?;
/// assert!(report.noise_db.unwrap() <= -50.0);
/// # Ok::<(), slpwlo_driver::Error>(())
/// ```
pub struct Optimizer {
    prep: Prepared,
    target: TargetModel,
    constraint_db: Option<f64>,
    flow: Box<dyn CompilationFlow + Send + Sync>,
    benefit: BenefitKind,
    sched: SchedKind,
    verify: VerifyLevel,
    activations: u64,
    /// Worker-thread override for [`Optimizer::sweep`]; `None` follows
    /// the machine's available parallelism.
    sweep_threads: Option<usize>,
    /// Memoized [`Optimizer::noise_floor_db`] for the current target
    /// (one widest-spec noise evaluation); reset by `target()`.
    /// `OnceLock` rather than `Cell` keeps the `Optimizer` `Sync` so
    /// grids can be parallelized over one shared instance.
    floor_db: std::sync::OnceLock<f64>,
}

impl std::fmt::Debug for Optimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Optimizer")
            .field("kernel", &self.prep.kernel.name())
            .field("target", &self.target.name)
            .field("constraint_db", &self.constraint_db)
            .field("flow", &self.flow.name())
            .field("activations", &self.activations)
            .finish_non_exhaustive()
    }
}

impl Optimizer {
    /// Parses, validates and prepares a kernel written in the textual
    /// DSL.
    pub fn for_source(src: &str) -> Result<Self, Error> {
        let kernel = parse_kernel(src).map_err(Error::Parse)?;
        Self::for_kernel(kernel)
    }

    /// Prepares an already-built kernel. Every [`Kernel`] was validated
    /// when it was built (by [`slpwlo_ir::KernelBuilder`], the parser or
    /// [`slpwlo_ir::unroll::unroll`]), so this cannot fail; it returns a
    /// `Result` for symmetry with [`Optimizer::for_source`].
    pub fn for_kernel(kernel: Kernel) -> Result<Self, Error> {
        Ok(Optimizer {
            prep: prepare(kernel),
            target: xentium(),
            constraint_db: None,
            flow: Box::new(FlowKind::WloSlp),
            benefit: BenefitKind::default(),
            sched: SchedKind::default(),
            verify: VerifyLevel::default(),
            activations: DEFAULT_ACTIVATIONS,
            sweep_threads: None,
            floor_db: std::sync::OnceLock::new(),
        })
    }

    /// Sets the processor model to compile for (default: XENTIUM).
    pub fn target(mut self, target: TargetModel) -> Self {
        self.target = target;
        self.floor_db = std::sync::OnceLock::new();
        self
    }

    /// Sets the output-noise constraint in dB (required by quantizing
    /// flows; validated at [`Optimizer::run`]).
    pub fn constraint_db(mut self, db: f64) -> Self {
        self.constraint_db = Some(db);
        self
    }

    /// Selects a built-in flow (default: [`FlowKind::WloSlp`]).
    pub fn flow(mut self, kind: FlowKind) -> Self {
        self.flow = Box::new(kind);
        self
    }

    /// Installs a custom [`CompilationFlow`] strategy.
    pub fn custom_flow(mut self, flow: Box<dyn CompilationFlow + Send + Sync>) -> Self {
        self.flow = flow;
        self
    }

    /// Selects the SLP candidate-pricing strategy (default:
    /// [`BenefitKind::Cycles`], which prices every candidate through
    /// `TargetModel::cost` at its current word lengths;
    /// [`BenefitKind::Slots`] keeps the historical target-blind
    /// slot-counting model for ablations; [`BenefitKind::Optimal`]
    /// replaces the greedy per-round selection with an exact
    /// branch-and-bound over the same cycle prices — never worse than
    /// greedy, with search statistics and fallbacks reported in
    /// [`Report::select`](crate::Report)).
    pub fn benefit_kind(mut self, benefit: BenefitKind) -> Self {
        self.benefit = benefit;
        self
    }

    /// Selects the block-scheduling strategy (default:
    /// [`SchedKind::List`], the paper's flat in-order model).
    /// [`SchedKind::Modulo`] software-pipelines profitable in-loop
    /// blocks: cycle reports price them at `prologue + II·(trip−1) +
    /// epilogue`, candidate pricing drops its latency hedge, and blocks
    /// the exact search cannot improve (or that exhaust the search
    /// budget) keep their list schedules.
    pub fn sched_kind(mut self, sched: SchedKind) -> Self {
        self.sched = sched;
        self
    }

    /// Sets how much pass-boundary static verification the flows run
    /// (default: [`VerifyLevel::Boundaries`] in debug builds,
    /// [`VerifyLevel::Off`] in release builds). At
    /// [`VerifyLevel::Paranoid`] every intermediate artifact — seed
    /// specs, pre-prune groupings, candidate lowerings — is checked too.
    pub fn verify_level(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Sets the workload size used for reported cycle counts.
    pub fn activations(mut self, n: u64) -> Self {
        self.activations = n;
        self
    }

    /// Caps (or forces) the number of worker threads [`Optimizer::sweep`]
    /// uses. Defaults to the machine's available parallelism; `1` makes
    /// sweeps fully serial.
    pub fn sweep_threads(mut self, n: usize) -> Self {
        self.sweep_threads = Some(n.max(1));
        self
    }

    /// The kernel under optimization.
    pub fn kernel(&self) -> &Kernel {
        &self.prep.kernel
    }

    /// The shared per-kernel analyses (ranges + accuracy model).
    pub fn prepared(&self) -> &Prepared {
        &self.prep
    }

    /// The lowest output noise (dB) any fixed-point specification can
    /// reach on the configured target: every node at maximum word
    /// length. Constraints below this are unsatisfiable. Memoized per
    /// target, so repeated `run()` calls pay it once.
    pub fn noise_floor_db(&self) -> f64 {
        *self.floor_db.get_or_init(|| {
            let widest = FixedPointSpec::from_ranges(
                &self.prep.kernel,
                &self.prep.ranges,
                self.target.max_wl(),
            );
            self.prep.eval.noise_db(&widest)
        })
    }

    /// One constraint point checked against finiteness and the target's
    /// noise floor — the single copy of this validation.
    fn check_point(&self, flow_name: &str, db: f64) -> Result<(), Error> {
        if !db.is_finite() {
            return Err(Error::Config {
                field: "constraint_db",
                message: format!("must be finite, got {db}"),
            });
        }
        let floor = self.noise_floor_db();
        if db < floor {
            return Err(Error::Unsatisfiable {
                flow: flow_name.to_string(),
                constraint_db: db,
                floor_db: floor,
            });
        }
        Ok(())
    }

    fn validated_constraint(&self, flow: &dyn CompilationFlow) -> Result<Option<f64>, Error> {
        match (flow.needs_constraint(), self.constraint_db) {
            (false, _) => Ok(None),
            (true, None) => Err(crate::flow::missing_constraint(flow.name())),
            (true, Some(db)) => {
                self.check_point(flow.name(), db)?;
                Ok(Some(db))
            }
        }
    }

    fn run_checked(
        &self,
        flow: &dyn CompilationFlow,
        constraint_db: Option<f64>,
    ) -> Result<Report, Error> {
        if self.activations == 0 {
            return Err(Error::Config {
                field: "activations",
                message: "cycle reporting needs at least one activation".into(),
            });
        }
        let ctx = FlowContext {
            prep: &self.prep,
            target: &self.target,
            constraint_db,
            tabu: &TabuOptions {},
            benefit: self.benefit,
            sched: self.sched,
            verify: self.verify,
        };
        let out = flow.run(&ctx)?;
        // One block pricer for all four cycle counts: under modulo
        // scheduling, a block repeated within a program or shared by the
        // SIMD and scalar programs runs one II search. The list counts ride along so pipelined reports can
        // show what software pipelining bought without a second run
        // (under list scheduling they are the same two counts).
        let mut prices = BlockPrices::new(&self.target);
        let mut cycles = |program, sched| prices.program_cycles(program, sched) * self.activations;
        let cycles_simd = cycles(&out.program, self.sched);
        let cycles_scalar = cycles(&out.scalar, self.sched);
        let (cycles_simd_list, cycles_scalar_list) = match self.sched {
            SchedKind::List => (cycles_simd, cycles_scalar),
            SchedKind::Modulo { .. } => (
                cycles(&out.program, SchedKind::List),
                cycles(&out.scalar, SchedKind::List),
            ),
        };
        Ok(Report {
            kernel_name: self.prep.kernel.name().to_string(),
            flow: flow.name().to_string(),
            target: self.target.clone(),
            kernel: self.prep.kernel.clone(),
            constraint_db,
            spec: out.spec,
            sched: self.sched,
            cycles_simd,
            cycles_scalar,
            cycles_simd_list,
            cycles_scalar_list,
            simd: out.program,
            scalar: out.scalar,
            group_count: out.group_count,
            noise_db: out.noise_db,
            activations: self.activations,
            select: out.select,
        })
    }

    fn run_flow(&self, flow: &dyn CompilationFlow) -> Result<Report, Error> {
        let constraint = self.validated_constraint(flow)?;
        self.run_checked(flow, constraint)
    }

    /// Runs the configured flow at the configured constraint point.
    pub fn run(&self) -> Result<Report, Error> {
        self.run_flow(self.flow.as_ref())
    }

    /// Runs a built-in flow at the configured constraint point without
    /// changing the configured strategy — the cheap way to compare flows
    /// on one prepared kernel (the paper's whole evaluation does this).
    pub fn run_with(&self, kind: FlowKind) -> Result<Report, Error> {
        self.run_flow(&kind)
    }

    /// Runs the configured flow at one explicit constraint point, leaving
    /// the builder-configured constraint untouched. This is the serial
    /// unit [`Optimizer::sweep`] parallelizes over.
    pub fn run_at(&self, db: f64) -> Result<Report, Error> {
        let flow = self.flow.as_ref();
        if !flow.needs_constraint() {
            return Err(Self::constraint_free_flow_error(flow.name()));
        }
        self.check_point(flow.name(), db)?;
        self.run_checked(flow, Some(db))
    }

    fn constraint_free_flow_error(flow: &str) -> Error {
        Error::Config {
            field: "flow",
            message: format!("flow `{flow}` ignores constraints; use run() instead of sweep()"),
        }
    }

    /// Runs the configured flow once per constraint point, reusing the
    /// per-kernel analyses (Fig. 4/6-style experiments). The feasibility
    /// of every point is checked up front, so either all points run or
    /// none do.
    ///
    /// Points are independent and every flow is deterministic, so they
    /// run **in parallel** across OS threads, sharing the once-per-kernel
    /// [`Prepared`] analyses immutably; reports come back in constraint
    /// order, identical to running each point serially with
    /// [`Optimizer::run_at`]. On any per-point error the first failing
    /// point (in constraint order) is returned.
    pub fn sweep(&self, constraints_db: &[f64]) -> Result<Vec<Report>, Error> {
        let flow = self.flow.as_ref();
        if !flow.needs_constraint() {
            return Err(Self::constraint_free_flow_error(flow.name()));
        }
        for &db in constraints_db {
            self.check_point(flow.name(), db)?;
        }
        let n = constraints_db.len();
        let workers = self
            .sweep_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(n);
        if workers <= 1 {
            return constraints_db
                .iter()
                .map(|&db| self.run_checked(flow, Some(db)))
                .collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<Report, Error>>> = Vec::new();
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            let next = &next;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= n {
                                return done;
                            }
                            done.push((i, self.run_checked(flow, Some(constraints_db[i]))));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (i, report) in handle.join().expect("sweep worker panicked") {
                    slots[i] = Some(report);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every sweep point was claimed by a worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
kernel tiny {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.25, -0.5, 0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    #[test]
    fn builder_happy_path() {
        let report = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-40.0)
            .flow(FlowKind::WloSlp)
            .run()
            .unwrap();
        assert_eq!(report.flow, "wlo-slp");
        assert_eq!(report.kernel_name, "tiny");
        assert!(report.noise_db.unwrap() <= -40.0);
        assert!(report.cycles_simd > 0);
        assert!(report.summary().contains("tiny"));
    }

    #[test]
    fn parse_errors_are_typed() {
        match Optimizer::for_source("kernel { nope") {
            Err(Error::Parse(_)) => {}
            other => panic!("expected Parse error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn missing_constraint_is_a_config_error() {
        let err = Optimizer::for_source(TINY).unwrap().run().unwrap_err();
        match err {
            Error::Config { field, .. } => assert_eq!(field, "constraint_db"),
            other => panic!("expected Config, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_constraint_is_a_config_error() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(f64::NAN)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "constraint_db",
                ..
            }
        ));
    }

    #[test]
    fn unsatisfiable_constraint_is_typed() {
        let opt = Optimizer::for_source(TINY).unwrap();
        let floor = opt.noise_floor_db();
        let err = opt.constraint_db(floor - 30.0).run().unwrap_err();
        match err {
            Error::Unsatisfiable {
                constraint_db,
                floor_db,
                ..
            } => {
                assert!(constraint_db < floor_db);
            }
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn float_flow_needs_no_constraint() {
        let report = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::Float)
            .run()
            .unwrap();
        assert!(report.spec.is_none());
        assert!(report.noise_db.is_none());
        assert_eq!(report.group_count, 0);
    }

    #[test]
    fn sweep_amortizes_and_orders() {
        let opt = Optimizer::for_source(TINY).unwrap().flow(FlowKind::WloSlp);
        let reports = opt.sweep(&[-20.0, -40.0, -60.0]).unwrap();
        assert_eq!(reports.len(), 3);
        for (r, db) in reports.iter().zip([-20.0, -40.0, -60.0]) {
            assert_eq!(r.constraint_db, Some(db));
            assert!(r.noise_db.unwrap() <= db);
        }
    }

    #[test]
    fn run_with_matches_the_configured_flow() {
        let opt = Optimizer::for_source(TINY).unwrap().constraint_db(-40.0);
        // `run_with` must agree with running the same flow configured
        // through the builder, without mutating the configured strategy.
        let via_builder = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-40.0)
            .flow(FlowKind::WloFirst)
            .run()
            .unwrap();
        let via_run_with = opt.run_with(FlowKind::WloFirst).unwrap();
        assert_eq!(via_run_with.flow, via_builder.flow);
        assert_eq!(via_run_with.cycles_simd, via_builder.cycles_simd);
        assert_eq!(via_run_with.noise_db, via_builder.noise_db);
        // The configured flow (default wlo-slp) is untouched.
        assert_eq!(opt.run().unwrap().flow, "wlo-slp");
    }

    #[test]
    fn sweep_parallel_matches_serial_run_at() {
        // The parallel sweep must return reports in constraint order,
        // indistinguishable from running each point serially. Forcing
        // three workers exercises the threaded path even on one CPU.
        let opt = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::WloSlp)
            .sweep_threads(3);
        let grid = [-20.0, -30.0, -40.0, -50.0, -60.0];
        let swept = opt.sweep(&grid).unwrap();
        assert_eq!(swept.len(), grid.len());
        for (parallel, &db) in swept.iter().zip(&grid) {
            assert_eq!(parallel.constraint_db, Some(db), "constraint order");
            let serial = opt.run_at(db).unwrap();
            assert_eq!(parallel.cycles_simd, serial.cycles_simd);
            assert_eq!(parallel.cycles_scalar, serial.cycles_scalar);
            assert_eq!(parallel.group_count, serial.group_count);
            assert_eq!(
                parallel.noise_db.unwrap().to_bits(),
                serial.noise_db.unwrap().to_bits(),
                "noise must be bit-identical at {db} dB"
            );
            // The full spec and both lowered programs must match exactly.
            assert_eq!(format!("{:?}", parallel.spec), format!("{:?}", serial.spec));
            assert_eq!(format!("{:?}", parallel.simd), format!("{:?}", serial.simd));
            assert_eq!(
                format!("{:?}", parallel.scalar),
                format!("{:?}", serial.scalar)
            );
        }
    }

    #[test]
    fn run_at_leaves_the_configured_constraint_alone() {
        let opt = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-40.0)
            .flow(FlowKind::WloSlp);
        let at = opt.run_at(-60.0).unwrap();
        assert_eq!(at.constraint_db, Some(-60.0));
        assert_eq!(opt.run().unwrap().constraint_db, Some(-40.0));
    }

    #[test]
    fn run_at_rejects_the_float_flow() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::Float)
            .run_at(-20.0)
            .unwrap_err();
        assert!(matches!(err, Error::Config { field: "flow", .. }));
    }

    #[test]
    fn sweep_rejects_the_float_flow() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::Float)
            .sweep(&[-20.0])
            .unwrap_err();
        assert!(matches!(err, Error::Config { field: "flow", .. }));
    }

    #[test]
    fn zero_activations_rejected() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-30.0)
            .activations(0)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "activations",
                ..
            }
        ));
    }

    #[test]
    fn empty_kernels_report_without_panicking() {
        // A kernel that lowers to zero operations used to trip the cycle
        // model's `cycles > 0` assertion inside `Report::speedup`.
        let report = Optimizer::for_source("kernel empty { }")
            .unwrap()
            .constraint_db(-20.0)
            .run()
            .unwrap();
        assert_eq!(report.cycles_simd, 0);
        assert_eq!(report.speedup(), 1.0);
        assert!(report.summary().contains("empty"));
    }

    #[test]
    fn verification_is_configurable_and_clean_at_paranoid() {
        use slpwlo_verify::VerifyLevel;
        for level in [
            VerifyLevel::Off,
            VerifyLevel::Boundaries,
            VerifyLevel::Paranoid,
        ] {
            for kind in [FlowKind::WloSlp, FlowKind::WloFirst] {
                let report = Optimizer::for_source(TINY)
                    .unwrap()
                    .constraint_db(-40.0)
                    .flow(kind)
                    .verify_level(level)
                    .run()
                    .unwrap();
                assert!(report.cycles_simd > 0);
            }
        }
    }

    #[test]
    fn custom_flows_plug_in() {
        struct CountingFlow;
        impl CompilationFlow for CountingFlow {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn needs_constraint(&self) -> bool {
                false
            }
            fn run(&self, ctx: &FlowContext<'_>) -> Result<crate::flow::FlowOutput, Error> {
                let program = slpwlo_core::lower_float(&ctx.prep.kernel);
                Ok(crate::flow::FlowOutput {
                    spec: None,
                    scalar: program.clone(),
                    program,
                    group_count: 0,
                    noise_db: None,
                    select: Default::default(),
                })
            }
        }
        let report = Optimizer::for_source(TINY)
            .unwrap()
            .custom_flow(Box::new(CountingFlow))
            .run()
            .unwrap();
        assert_eq!(report.flow, "counting");
    }
}
