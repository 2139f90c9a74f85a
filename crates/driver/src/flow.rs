//! First-class compilation flows.
//!
//! The paper compares three ways of producing code for one kernel:
//! the joint **`WLO-SLP`** flow (fig. 3), the **`WLO-First`** baseline
//! (fig. 5, Tabu WLO then accuracy-unaware SLP) and the original
//! **floating-point** version. [`FlowKind`] names them and is itself the
//! [`CompilationFlow`] strategy that runs them; the
//! [`Optimizer`](crate::Optimizer) runs whichever is configured, and new
//! flows (different WLO searches, different extraction policies, new
//! back-ends) plug in through the same trait without touching the driver.

use crate::error::Error;
use slpwlo_core::{
    lower_float, wlo_first_flow_checked, wlo_slp_flow_checked, BenefitKind, FlowResult,
    MachineProgram, PassArtifact, Prepared, ProgramRole, SelectStats, TabuOptions,
};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_targets::{SchedKind, TargetModel};
use slpwlo_verify::{verify_boundary, VerifyLevel};

/// Everything a flow needs to run on one (kernel, target, constraint)
/// point. Borrowed from the [`Optimizer`](crate::Optimizer), so sweeps
/// amortize the expensive per-kernel analyses.
pub struct FlowContext<'a> {
    /// The kernel with its once-per-kernel analyses.
    pub prep: &'a Prepared,
    /// The processor model to compile for.
    pub target: &'a TargetModel,
    /// The output-noise bound in dB; `None` for flows that do not
    /// quantize (the float baseline).
    pub constraint_db: Option<f64>,
    /// Field-less; kept only because the `perfbench` benchmark passes it
    /// to [`wlo_first_flow_checked`].
    pub tabu: &'a TabuOptions,
    /// SLP candidate-pricing strategy for flows that extract groups.
    pub benefit: BenefitKind,
    /// Block-scheduling strategy: flat list scheduling or modulo
    /// scheduling (software pipelining) of in-loop blocks.
    pub sched: SchedKind,
    /// How much pass-boundary static verification to run.
    pub verify: VerifyLevel,
}

impl FlowContext<'_> {
    /// The pass-boundary callback built-in flows thread through the
    /// checked core flows: `slpwlo-verify`'s [`verify_boundary`] at the
    /// configured level, lifted into the driver's [`Error`]. Custom
    /// [`CompilationFlow`] implementations that call the core
    /// `*_flow_checked` entry points should pass this.
    pub fn boundary_check(&self) -> impl FnMut(PassArtifact<'_>) -> Result<(), Error> + '_ {
        |artifact| verify_boundary(self.verify, &artifact).map_err(Error::Verify)
    }
}

/// What a flow produces for one point.
#[derive(Debug)]
pub struct FlowOutput {
    /// The fixed-point specification; `None` for non-quantizing flows.
    pub spec: Option<FixedPointSpec>,
    /// The optimized (possibly SIMD) machine program.
    pub program: MachineProgram,
    /// An all-scalar program under the same specification, used as the
    /// in-report speedup denominator.
    pub scalar: MachineProgram,
    /// Number of SIMD groups realised in `program`.
    pub group_count: usize,
    /// Predicted output noise power of `spec` (dB); `None` when exact.
    pub noise_db: Option<f64>,
    /// Exact-selector search statistics (all zeros under the greedy
    /// benefit kinds and for flows that do not extract groups).
    pub select: SelectStats,
}

/// A pluggable compilation strategy.
///
/// Implementations must be deterministic for a given context (the whole
/// reproduction is seeded) and must *not* panic on unsatisfiable
/// constraints — the driver pre-checks feasibility and expects flows to
/// return structured errors for anything else.
pub trait CompilationFlow {
    /// Stable machine-readable name.
    fn name(&self) -> &'static str;

    /// `true` when the flow quantizes and therefore needs a noise
    /// constraint; the driver enforces presence/absence accordingly.
    fn needs_constraint(&self) -> bool {
        true
    }

    /// Runs the flow on one point.
    fn run(&self, ctx: &FlowContext<'_>) -> Result<FlowOutput, Error>;
}

/// The built-in flows, in the paper's order of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FlowKind {
    /// The paper's joint SLP-aware WLO (fig. 3).
    WloSlp,
    /// The `WLO-First` baseline: Tabu WLO, then plain SLP (fig. 5).
    WloFirst,
    /// The original floating-point version (no quantization, no SLP).
    Float,
}

impl FlowKind {
    /// The stable machine-readable name of this flow.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::WloSlp => "wlo-slp",
            FlowKind::WloFirst => "wlo-first",
            FlowKind::Float => "float",
        }
    }
}

impl std::fmt::Display for FlowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The canonical "quantizing flow without a constraint" error — the one
/// copy of its field/message pair.
pub(crate) fn missing_constraint(flow: &str) -> Error {
    Error::Config {
        field: "constraint_db",
        message: format!("flow `{flow}` quantizes and needs a noise constraint"),
    }
}

/// Extracts the noise constraint a quantizing flow needs, with the
/// canonical [`Error::Config`] when absent. Custom [`CompilationFlow`]
/// implementations should use this instead of hand-rolling the error.
pub fn required_constraint(ctx: &FlowContext<'_>, flow: &str) -> Result<f64, Error> {
    ctx.constraint_db.ok_or_else(|| missing_constraint(flow))
}

impl From<FlowResult> for FlowOutput {
    fn from(res: FlowResult) -> Self {
        FlowOutput {
            spec: Some(res.spec),
            program: res.simd,
            scalar: res.scalar,
            group_count: res.group_count,
            noise_db: Some(res.noise_db),
            select: res.select,
        }
    }
}

/// The built-in flows as strategies: `WloSlp` and `WloFirst` run the
/// core's checked flows under the context's boundary check; `Float`
/// lowers the kernel unquantized.
impl CompilationFlow for FlowKind {
    fn name(&self) -> &'static str {
        FlowKind::name(*self)
    }

    fn needs_constraint(&self) -> bool {
        *self != FlowKind::Float
    }

    fn run(&self, ctx: &FlowContext<'_>) -> Result<FlowOutput, Error> {
        let check = &mut ctx.boundary_check();
        let (prep, target, benefit, sched) = (ctx.prep, ctx.target, ctx.benefit, ctx.sched);
        match self {
            FlowKind::WloSlp => {
                let db = required_constraint(ctx, self.name())?;
                Ok(wlo_slp_flow_checked(prep, target, db, benefit, sched, check)?.into())
            }
            FlowKind::WloFirst => {
                let db = required_constraint(ctx, self.name())?;
                let tabu = ctx.tabu;
                Ok(wlo_first_flow_checked(prep, target, db, tabu, benefit, sched, check)?.into())
            }
            FlowKind::Float => {
                check(PassArtifact::Kernel {
                    kernel: &prep.kernel,
                })?;
                let program = lower_float(&prep.kernel);
                check(PassArtifact::Program {
                    program: &program,
                    target,
                    role: ProgramRole::Simd,
                    sched,
                })?;
                Ok(FlowOutput {
                    spec: None,
                    scalar: program.clone(),
                    program,
                    group_count: 0,
                    noise_db: None,
                    select: SelectStats::default(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_float_skips_the_constraint() {
        assert!(FlowKind::WloSlp.needs_constraint());
        assert!(FlowKind::WloFirst.needs_constraint());
        assert!(!FlowKind::Float.needs_constraint());
    }
}
