//! The three workloads: their inputs, their set-up and one untraced run.

use slpwlo_codegen::{emit_fixed_c, emit_simd_c};
use slpwlo_driver::{BenefitKind, Error, FlowKind, Optimizer, Report};
use slpwlo_fixedpoint::range::Ranges;
use slpwlo_gen::KernelGen;
use slpwlo_ir::pretty::kernel_to_string;
use slpwlo_ir::Kernel;
use slpwlo_kernels::{all_benchmarks, Workload};
use slpwlo_targets::{st240, vex, xentium, SchedKind, TargetModel};
use std::time::{Duration, Instant};

/// Activations of the seeded input each run's output is executed on.
pub const ORACLE_ACTIVATIONS: usize = 48;

/// Generated kernels added to the suite in `cold-compile`, and the most
/// expressions one may have. Small kernels keep the slice cheaper than
/// the suite's lower half, so `run_ms_p50` and `run_ms_p90` stay set by
/// suite kernels whatever the seed draws; an odd count keeps the median
/// inside a cluster of one kernel's three targets.
const GEN_SLICE: usize = 3;
const GEN_MAX_EXPRS: usize = 40;

/// Generated kernels vetted for the slice. All are vetted, so set-up
/// does the same amount of work whichever of them qualify.
const GEN_POOL: usize = 32;

/// The constraint of `cold-compile` and `exact-pipelined`.
const HEADLINE_DB: f64 = -40.0;

/// The Fig. 4 constraint grid of `dse-sweep`.
const SWEEP_DB: [f64; 5] = [-20.0, -30.0, -40.0, -50.0, -60.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdCompile,
    DseSweep,
    ExactPipelined,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        [Kind::ColdCompile, Kind::DseSweep, Kind::ExactPipelined]
            .into_iter()
            .find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdCompile => "cold-compile",
            Kind::DseSweep => "dse-sweep",
            Kind::ExactPipelined => "exact-pipelined",
        }
    }
}

/// One kernel of a workload.
pub struct Case {
    pub name: String,
    pub kernel: Kernel,
    /// The kernel rendered in the DSL (`cold-compile` compiles this).
    pub text: String,
    /// Seeded input streams the oracle executes each output on.
    pub inputs: Vec<Vec<f64>>,
}

/// One run: a kernel compiled for one target at one constraint.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub case: usize,
    pub target: usize,
    pub db: f64,
    pub flow: FlowKind,
}

/// What one untraced run produced.
pub struct Outcome {
    pub report: Result<Report, Error>,
    /// Bytes of C emitted, or the back-end's refusal (`cold-compile`
    /// only).
    pub emitted: Option<Result<usize, Error>>,
    pub wall: Duration,
}

/// A workload after set-up: its kernels, targets, points in pass order
/// and, for the workloads that compile prepared kernels, one
/// [`Optimizer`] per kernel.
pub struct Setup {
    pub kind: Kind,
    pub cases: Vec<Case>,
    pub targets: Vec<TargetModel>,
    pub points: Vec<Point>,
    /// Generated kernels passed over while drawing the slice, and why.
    pub skipped: Vec<String>,
    prepared: Vec<Option<Optimizer>>,
    /// Target each prepared optimizer is currently configured for.
    current: Vec<Option<usize>>,
}

impl Setup {
    /// Builds the workload's inputs from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Result<Setup, String> {
        let targets = match kind {
            Kind::ColdCompile => vec![xentium(), st240(), vex(4)],
            Kind::DseSweep => vec![xentium(), st240(), vex(4), vex(1)],
            Kind::ExactPipelined => vec![st240(), vex(1)],
        };
        let mut cases: Vec<Case> = all_benchmarks()
            .into_iter()
            .map(|b| Case {
                name: b.name.to_string(),
                text: kernel_to_string(&b.kernel),
                inputs: b.workload_sized(ORACLE_ACTIVATIONS, seed).inputs,
                kernel: b.kernel,
            })
            .collect();
        let mut skipped = Vec::new();
        if kind == Kind::ColdCompile {
            let (slice, passed_over) = gen_slice(seed, &targets)?;
            cases.extend(slice);
            skipped = passed_over;
        }
        let dbs: &[f64] = match kind {
            Kind::DseSweep => &SWEEP_DB,
            _ => &[HEADLINE_DB],
        };
        let flows: &[FlowKind] = match kind {
            Kind::DseSweep => &[FlowKind::WloFirst, FlowKind::WloSlp],
            _ => &[FlowKind::WloSlp],
        };
        // Kernel-major order: a prepared optimizer is re-targeted only
        // when its target changes.
        let mut points = Vec::new();
        for case in 0..cases.len() {
            for target in 0..targets.len() {
                for &db in dbs {
                    for &flow in flows {
                        points.push(Point {
                            case,
                            target,
                            db,
                            flow,
                        });
                    }
                }
            }
        }
        let prepared = match kind {
            Kind::ColdCompile => Vec::new(),
            Kind::DseSweep | Kind::ExactPipelined => cases
                .iter()
                .map(|c| {
                    let opt = Optimizer::for_kernel(c.kernel.clone())
                        .map_err(|e| format!("{}: {e}", c.name))?;
                    Ok(Some(match kind {
                        Kind::ExactPipelined => opt
                            .benefit_kind(BenefitKind::optimal())
                            .sched_kind(SchedKind::modulo()),
                        _ => opt,
                    }))
                })
                .collect::<Result<_, String>>()?,
        };
        let current = vec![None; prepared.len()];
        Ok(Setup {
            kind,
            cases,
            targets,
            points,
            skipped,
            prepared,
            current,
        })
    }

    /// The benefit and scheduler kinds every run of this workload uses.
    pub fn kinds(&self) -> (BenefitKind, SchedKind) {
        match self.kind {
            Kind::ExactPipelined => (BenefitKind::optimal(), SchedKind::modulo()),
            _ => (BenefitKind::default(), SchedKind::default()),
        }
    }

    /// Takes the prepared optimizer of `p`'s kernel, configured for `p`.
    pub fn take_prepared(&mut self, p: &Point) -> Optimizer {
        let mut opt = self.prepared[p.case]
            .take()
            .expect("prepared optimizer is returned after every run");
        if self.current[p.case] != Some(p.target) {
            opt = opt.target(self.targets[p.target].clone());
            self.current[p.case] = Some(p.target);
        }
        opt.constraint_db(p.db)
    }

    /// The value ranges `p`'s prepared kernel was analysed with.
    pub fn prepared_ranges(&self, p: &Point) -> &Ranges {
        &self.prepared[p.case]
            .as_ref()
            .expect("prepared optimizer is returned after every run")
            .prepared()
            .ranges
    }

    /// Returns an optimizer taken with [`Setup::take_prepared`].
    pub fn put_prepared(&mut self, p: &Point, opt: Optimizer) {
        self.prepared[p.case] = Some(opt);
    }

    /// One untraced run of point `i` through the public API, as a user
    /// would issue it.
    pub fn run(&mut self, i: usize) -> Outcome {
        let p = self.points[i];
        if self.kind == Kind::ColdCompile {
            let start = Instant::now();
            let report = compile_source(&self.cases[p.case].text, &self.targets[p.target], p.db);
            let emitted = report.as_ref().ok().map(emit_c);
            return Outcome {
                report,
                emitted,
                wall: start.elapsed(),
            };
        }
        let opt = self.take_prepared(&p);
        let start = Instant::now();
        let report = opt.run_with(p.flow);
        let wall = start.elapsed();
        self.put_prepared(&p, opt);
        Outcome {
            report,
            emitted: None,
            wall,
        }
    }

    pub fn label(&self, p: &Point) -> String {
        format!(
            "{} on {} at {} dB ({})",
            self.cases[p.case].name, self.targets[p.target].name, p.db, p.flow
        )
    }
}

fn compile_source(text: &str, target: &TargetModel, db: f64) -> Result<Report, Error> {
    Optimizer::for_source(text)?
        .target(target.clone())
        .constraint_db(db)
        .run()
}

/// Emits both C back-ends in memory; returns the bytes written.
pub fn emit_c(report: &Report) -> Result<usize, Error> {
    let fixed = emit_fixed_c(&report.scalar)?;
    let simd = emit_simd_c(&report.simd, &report.target.name)?;
    Ok(std::hint::black_box(fixed).len() + std::hint::black_box(simd).len())
}

/// The seeded `slpwlo-gen` slice of `cold-compile`: of a pool of
/// generated kernels, the first that are small, whose DSL rendering
/// parses, and whose noise floor lets every target meet the headline
/// constraint (`Optimizer` refuses a constraint below the floor before
/// any search, so such a kernel would measure nothing). Also returns why
/// each passed-over kernel was skipped.
fn gen_slice(seed: u64, targets: &[TargetModel]) -> Result<(Vec<Case>, Vec<String>), String> {
    let mut gen = KernelGen::with_seed(seed);
    let mut slice = Vec::new();
    let mut skipped = Vec::new();
    for _ in 0..GEN_POOL {
        let kernel = gen.gen();
        let text = kernel_to_string(&kernel);
        let mut opt = match Optimizer::for_source(&text) {
            Ok(opt) => opt,
            Err(e) => {
                skipped.push(format!(
                    "{}: its DSL rendering is refused: {e}",
                    kernel.name()
                ));
                continue;
            }
        };
        let mut floor = f64::NEG_INFINITY;
        for t in targets {
            opt = opt.target(t.clone());
            floor = floor.max(opt.noise_floor_db());
        }
        if floor > HEADLINE_DB {
            skipped.push(format!("{}: noise floor {floor} dB", kernel.name()));
        } else if slice.len() < GEN_SLICE && kernel.expr_count() <= GEN_MAX_EXPRS {
            let inputs = Workload::white(
                kernel.inputs().len(),
                ORACLE_ACTIVATIONS,
                seed ^ slice.len() as u64,
            )
            .inputs;
            slice.push(Case {
                name: kernel.name().to_string(),
                kernel,
                text,
                inputs,
            });
        }
    }
    if slice.len() < GEN_SLICE {
        return Err(format!(
            "seed {seed}: only {} of {GEN_POOL} generated kernels are usable",
            slice.len()
        ));
    }
    Ok((slice, skipped))
}
