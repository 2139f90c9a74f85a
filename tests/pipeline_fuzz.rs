//! Whole-pipeline differential fuzzing.
//!
//! For every kernel of a seeded generated corpus ([`slpwlo::gen`]) and
//! every registered benchmark, across {XENTIUM, VEX-4} × wl {12, 16,
//! 24, 32}, the full chain is asserted end to end:
//!
//! 1. **range soundness** — every value observed while interpreting a
//!    sampled workload lies inside the range analysis' interval for
//!    that node;
//! 2. **spec journal / incremental evaluator** — a random `set_wl` /
//!    commit / rollback walk where `IncrementalEvaluator` must match
//!    the full `AnalyticalEvaluator` recompute *bitwise* on every step;
//! 3. **interpreter vs simulator** — the lowered scalar and SIMD
//!    machine programs, executed by `slpwlo::sim::execute_fixed`, must
//!    reproduce `simulate_fixed`'s output streams bit for bit;
//! 4. **compiled C** (gated on a host `cc`) — the emitted scalar and
//!    SIMD C compile with `-std=c99 -Wall -Werror` and their outputs
//!    are bit-identical to the same reference.
//! 5. **text round trip** — the kernel's DSL rendering parses back, and
//!    render∘parse is idempotent after one pass (the first pass
//!    renumbers loop variables).
//!
//! Interleaved with the differentials, every artifact additionally runs
//! the `slpwlo-verify` static checkers at paranoid depth (kernel, each
//! wl's spec with range re-derivation, every lowered program): an
//! invariant break then names the offending pass directly instead of
//! surfacing as a bit-mismatch three stages later.
//!
//! Any failure prints the reproducing seed plus a **shrunk** minimal
//! kernel (and writes both to `target/fuzz-repros/` for CI artifact
//! upload). Reproduce locally with
//! `SLPWLO_FUZZ_SEEDS=<n> SLPWLO_FUZZ_FIRST=<seed> cargo test --test pipeline_fuzz`.
//!
//! Corpus size defaults to 64 seeds; the weekly CI deep run sets
//! `SLPWLO_FUZZ_SEEDS=4096`. By default the (slow) C stage runs on
//! every 8th generated seed and on every benchmark;
//! `SLPWLO_FUZZ_CC_ALL=1` compiles every kernel.

mod common;

use common::{bit_diff, cc_available, compile_and_run, simd_program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slpwlo::accuracy::simulate::simulate_fixed;
use slpwlo::accuracy::{AccuracyEvaluator, AnalyticalEvaluator, IncrementalEvaluator};
use slpwlo::codegen::{emit_fixed_c, emit_intrinsics_header, emit_simd_c};
use slpwlo::core::{lower_scalar, MachineProgram};
use slpwlo::fixedpoint::range::{determine_ranges, RangeMethod, RangeOptions, Ranges};
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::gen::{shrink, KernelGen, Plan};
use slpwlo::ir::interp::{ExecCtx, Executor, Semantics};
use slpwlo::ir::parser::parse_kernel;
use slpwlo::ir::pretty::kernel_to_string;
use slpwlo::ir::{BinOp, ExprId, InputId, Kernel, ParamId, UnOp};
use slpwlo::kernels::{all_benchmarks, Workload};
use slpwlo::sim::execute_fixed;
use slpwlo::targets::{vex, xentium, TargetModel};
use slpwlo::verify::{verify_kernel, verify_program, verify_spec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Activations per differential run (kept small: the whole corpus runs
/// the matrix in debug builds).
const FUZZ_ACTIVATIONS: usize = 64;

const WLS: [i32; 4] = [12, 16, 24, 32];

fn targets() -> [TargetModel; 2] {
    [xentium(), vex(4)]
}

fn corpus() -> Vec<u64> {
    let n: u64 = std::env::var("SLPWLO_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let first: u64 = std::env::var("SLPWLO_FUZZ_FIRST")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    (first..first + n).collect()
}

fn cc_everything() -> bool {
    std::env::var("SLPWLO_FUZZ_CC_ALL").is_ok()
}

/// How the C stage is driven for one kernel.
#[derive(Clone, Copy, PartialEq)]
enum CcStage {
    Skip,
    Compile,
}

// ---------------------------------------------------------------------------
// Check 1: range soundness
// ---------------------------------------------------------------------------

/// Float semantics recording the min/max value every expression node
/// ever produced.
struct MinMaxSem {
    lo: Vec<f64>,
    hi: Vec<f64>,
    seen: Vec<bool>,
}

impl MinMaxSem {
    fn new(kernel: &Kernel) -> Self {
        MinMaxSem {
            lo: vec![f64::INFINITY; kernel.expr_count()],
            hi: vec![f64::NEG_INFINITY; kernel.expr_count()],
            seen: vec![false; kernel.expr_count()],
        }
    }

    fn record(&mut self, e: ExprId, v: f64) -> f64 {
        let i = e.index();
        self.lo[i] = self.lo[i].min(v);
        self.hi[i] = self.hi[i].max(v);
        self.seen[i] = true;
        v
    }
}

impl Semantics for MinMaxSem {
    type Value = f64;

    fn zero(&mut self) -> f64 {
        0.0
    }
    fn constant(&mut self, _c: ExecCtx, e: ExprId, v: f64) -> f64 {
        self.record(e, v)
    }
    fn input(&mut self, _c: ExecCtx, e: ExprId, _i: InputId, raw: f64) -> f64 {
        self.record(e, raw)
    }
    fn param(&mut self, _c: ExecCtx, e: ExprId, _p: ParamId, _i: i64, raw: f64) -> f64 {
        self.record(e, raw)
    }
    fn load(&mut self, _c: ExecCtx, e: ExprId, stored: f64) -> f64 {
        self.record(e, stored)
    }
    fn var_use(&mut self, _c: ExecCtx, e: ExprId, v: f64) -> f64 {
        self.record(e, v)
    }
    fn un(&mut self, _c: ExecCtx, e: ExprId, op: UnOp, a: f64) -> f64 {
        let v = match op {
            UnOp::Neg => -a,
        };
        self.record(e, v)
    }
    fn bin(&mut self, _c: ExecCtx, e: ExprId, op: BinOp, a: f64, b: f64) -> f64 {
        let v = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
        };
        self.record(e, v)
    }
    fn to_f64(&self, v: f64) -> f64 {
        v
    }
}

/// Every observed value must lie inside the analysis range. Interval
/// ranges are sound by construction, so any excursion is a bug;
/// simulation ranges carry a safety margin measured on a *different*
/// workload, so gross violations (beyond an extra 4x inflation) are
/// flagged while legitimate statistical wiggle is tolerated.
fn check_range_soundness(
    kernel: &Kernel,
    ranges: &Ranges,
    workload: &Workload,
) -> Result<(), String> {
    let mut ex = Executor::new(kernel, MinMaxSem::new(kernel));
    let _ = ex.run(&workload.inputs);
    let sem = ex.semantics();
    let (slack, label) = match ranges.method {
        RangeMethod::Interval => (1.0, "interval"),
        RangeMethod::Simulation { .. } => (4.0, "simulation"),
    };
    for (id, _) in kernel.exprs() {
        if !sem.seen[id.index()] {
            continue;
        }
        let iv = ranges.expr(id);
        let mag = iv.lo.abs().max(iv.hi.abs());
        let eps = 1e-9 * mag.max(1.0);
        let widen = (slack - 1.0) * (iv.hi - iv.lo).max(1.0);
        let lo_bound = iv.lo - widen - eps;
        let hi_bound = iv.hi + widen + eps;
        let (olo, ohi) = (sem.lo[id.index()], sem.hi[id.index()]);
        if olo < lo_bound || ohi > hi_bound {
            return Err(format!(
                "range unsoundness ({label}) at {id}: observed [{olo}, {ohi}] \
                 outside analysis range [{}, {}]",
                iv.lo, iv.hi
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Check 2: spec journal / incremental evaluator agreement
// ---------------------------------------------------------------------------

/// A short random `set_wl`/commit/rollback walk; the incremental
/// evaluator must match the full recompute bitwise at every step.
fn check_incremental_agreement(
    kernel: &Kernel,
    ranges: &Ranges,
    seed: u64,
    steps: usize,
) -> Result<(), String> {
    let eval = AnalyticalEvaluator::with_defaults(kernel);
    let mut spec = FixedPointSpec::from_ranges(kernel, ranges, 32);
    let keys = spec.optimizable_keys(kernel);
    if keys.is_empty() {
        return Ok(()); // nothing to optimize (constant-only kernel)
    }
    let inc = IncrementalEvaluator::with_spec(&eval, &spec);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11C0);
    for step in 0..steps {
        let mark = spec.mark();
        let nkeys = 1 + rng.gen_range(0..3usize);
        for _ in 0..nkeys {
            let key = keys[rng.gen_range(0..keys.len())];
            let wl = [8, 12, 16, 20, 24, 28, 32][rng.gen_range(0..7usize)];
            spec.set_wl(key, wl);
        }
        let inc_db = inc.trial_noise_db(&spec, mark);
        let full_db = eval.noise_db(&spec);
        if inc_db.to_bits() != full_db.to_bits() {
            return Err(format!(
                "incremental/journal divergence at step {step}: \
                 incremental {inc_db} vs full {full_db}"
            ));
        }
        if rng.gen_range(0..100usize) < 50 {
            spec.commit(mark);
            inc.commit_trial();
        } else {
            spec.rollback(mark);
            inc.rollback_trial();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checks 3 + 4: execution differentials
// ---------------------------------------------------------------------------

fn check_exec_differential(
    kernel: &Kernel,
    ranges: &Ranges,
    workload: &Workload,
    cc: CcStage,
    tag: &str,
) -> Result<(), String> {
    for wl in WLS {
        let spec = FixedPointSpec::from_ranges(kernel, ranges, wl);
        // Paranoid spec check: formats cover the established ranges,
        // and (for interval ranges) the ranges themselves re-derive.
        verify_spec(kernel, ranges, &spec, true)
            .map_err(|e| format!("spec verification failed at wl={wl}: {e}"))?;
        let reference = simulate_fixed(kernel, &spec, &workload.inputs);
        for target in targets() {
            let scalar = lower_scalar(kernel, &spec, &target);
            verify_program(&scalar, &target).map_err(|e| {
                format!(
                    "scalar program verification failed at wl={wl} on {}: {e}",
                    target.name
                )
            })?;
            let got = execute_fixed(&scalar, &workload.inputs).map_err(|e| {
                format!(
                    "scalar interpreter failed at wl={wl} on {}: {e:?}",
                    target.name
                )
            })?;
            bit_diff(
                &format!("{} scalar wl={wl} on {}", kernel.name(), target.name),
                &reference,
                &got,
            )?;
            let simd = simd_program(kernel, &spec, &target);
            verify_program(&simd, &target).map_err(|e| {
                format!(
                    "simd program verification failed at wl={wl} on {}: {e}",
                    target.name
                )
            })?;
            let got = execute_fixed(&simd, &workload.inputs).map_err(|e| {
                format!(
                    "simd interpreter failed at wl={wl} on {}: {e:?}",
                    target.name
                )
            })?;
            bit_diff(
                &format!("{} simd wl={wl} on {}", kernel.name(), target.name),
                &reference,
                &got,
            )?;
            // The C stage runs at one representative (wl, target) point:
            // wl 16 on XENTIUM, the paper's headline configuration.
            if cc == CcStage::Compile && wl == 16 && target.name == "XENTIUM" {
                check_c_differential(kernel, &spec, &scalar, &simd, &target, workload, tag)?;
            }
        }
    }
    Ok(())
}

fn check_c_differential(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    scalar: &MachineProgram,
    simd: &MachineProgram,
    target: &TargetModel,
    workload: &Workload,
    tag: &str,
) -> Result<(), String> {
    let reference = simulate_fixed(kernel, spec, &workload.inputs);
    let outputs = kernel.outputs().len();
    let fixed = emit_fixed_c(scalar).map_err(|e| format!("scalar C emission failed: {e}"))?;
    let got = compile_and_run(
        &format!("fuzz_{tag}_fixed"),
        &fixed,
        None,
        kernel.name(),
        workload,
        outputs,
    );
    bit_diff(&format!("{tag} scalar C"), &reference, &got)?;
    let simd_c =
        emit_simd_c(simd, &target.name).map_err(|e| format!("SIMD C emission failed: {e}"))?;
    let header = emit_intrinsics_header(target);
    let got = compile_and_run(
        &format!("fuzz_{tag}_simd"),
        &simd_c,
        Some(("slpwlo_simd_xentium.h", &header)),
        kernel.name(),
        workload,
        outputs,
    );
    bit_diff(&format!("{tag} SIMD C"), &reference, &got)
}

fn check_round_trip(kernel: &Kernel) -> Result<(), String> {
    let render_parse = |text: &str| {
        parse_kernel(text)
            .map(|k| kernel_to_string(&k))
            .map_err(|e| format!("rendering does not parse: {e}\n{text}"))
    };
    let once = render_parse(&kernel_to_string(kernel))?;
    let twice = render_parse(&once)?;
    if once != twice {
        return Err(format!(
            "render∘parse is not idempotent:\n{once}\nre-rendered as\n{twice}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The full per-kernel check
// ---------------------------------------------------------------------------

fn check_kernel(kernel: &Kernel, seed: u64, cc: CcStage, tag: &str) -> Result<(), String> {
    kernel
        .validate()
        .map_err(|e| format!("validation failed: {e}"))?;
    verify_kernel(kernel).map_err(|e| format!("kernel verification failed: {e}"))?;
    check_round_trip(kernel)?;
    let workload = Workload::white(kernel.inputs().len(), FUZZ_ACTIVATIONS, seed ^ 0xF00D);
    let ranges = determine_ranges(kernel, &RangeOptions::default());
    check_range_soundness(kernel, &ranges, &workload)?;
    check_incremental_agreement(kernel, &ranges, seed, 30)?;
    check_exec_differential(kernel, &ranges, &workload, cc, tag)
}

/// Runs `f`, converting panics (asserts deep inside the pipeline) into
/// errors so the shrinker can chase them.
fn catching(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Shrinks a failing plan against "any pipeline check fails", silencing
/// panic output while candidates are probed.
fn shrink_quietly(plan: &Plan, seed: u64, cc: CcStage) -> Plan {
    // Silence the panic output of the (expected-to-fail) shrink probes
    // on *this thread only* — the other tests in this binary may be
    // running concurrently and their panics must stay diagnosable. The
    // delegating hook stays installed afterwards (behaviour-identical
    // to the original once `silenced` is cleared), which also survives
    // a panic escaping the shrink itself.
    let prev_hook: std::sync::Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync> =
        std::panic::take_hook().into();
    let silenced = std::sync::Arc::new(std::sync::Mutex::new(Some(std::thread::current().id())));
    {
        let prev = prev_hook.clone();
        let silenced = silenced.clone();
        std::panic::set_hook(Box::new(move |info| {
            if *silenced.lock().unwrap() != Some(std::thread::current().id()) {
                prev(info);
            }
        }));
    }
    // Clear the silencing even if the shrink itself unwinds.
    struct Unsilence(std::sync::Arc<std::sync::Mutex<Option<std::thread::ThreadId>>>);
    impl Drop for Unsilence {
        fn drop(&mut self) {
            *self.0.lock().unwrap() = None;
        }
    }
    let _guard = Unsilence(silenced);
    // Probe candidates with the same stages the failure was detected
    // under — a C-only divergence must keep compiling C during the
    // shrink, or every candidate would "pass" and nothing shrinks.
    shrink(plan, &mut |kernel| {
        catching(|| check_kernel(kernel, seed, cc, "shrink")).is_err()
    })
}

fn report_failure(seed: u64, plan: Option<&Plan>, cc: CcStage, what: &str, msg: &str) -> ! {
    let repro_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("..")
        .join("fuzz-repros");
    let _ = std::fs::create_dir_all(&repro_dir);
    let shrunk_text = plan.map(|p| {
        let shrunk = shrink_quietly(p, seed, cc);
        match shrunk.build() {
            Ok(k) => kernel_to_string(&k),
            Err(e) => format!("(shrunk plan failed to rebuild: {e})\n{shrunk:#?}"),
        }
    });
    let mut report = format!("pipeline fuzz failure on {what} (seed {seed}): {msg}\n");
    if let Some(text) = &shrunk_text {
        report.push_str(&format!("minimal reproducing kernel:\n{text}"));
    }
    // SLPWLO_FUZZ_CC_ALL forces the C stage for the replayed seed; the
    // failing stage may otherwise be skipped (it only runs on every
    // 8th seed by default).
    report.push_str(&format!(
        "reproduce with: SLPWLO_FUZZ_SEEDS=1 SLPWLO_FUZZ_FIRST={seed} SLPWLO_FUZZ_CC_ALL=1 \
         cargo test --test pipeline_fuzz fuzz_generated_kernels\n"
    ));
    let _ = std::fs::write(repro_dir.join(format!("seed_{seed}.txt")), &report);
    panic!("{report}");
}

// ---------------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------------

#[test]
fn fuzz_generated_kernels() {
    let cc_present = cc_available();
    let cc_all = cc_everything();
    for seed in corpus() {
        let mut kg = KernelGen::with_seed(seed);
        let plan = kg.gen_plan();
        let kernel = match plan.build() {
            Ok(k) => k,
            Err(e) => report_failure(
                seed,
                None,
                CcStage::Skip,
                "generator",
                &format!("plan failed to build: {e}"),
            ),
        };
        let cc = if cc_present && (cc_all || seed % 8 == 0) {
            CcStage::Compile
        } else {
            CcStage::Skip
        };
        if let Err(msg) = catching(|| check_kernel(&kernel, seed, cc, &format!("gk{seed}"))) {
            report_failure(seed, Some(&plan), cc, kernel.name(), &msg);
        }
    }
}

#[test]
fn fuzz_benchmark_kernels() {
    let cc_present = cc_available();
    for bench in all_benchmarks() {
        let seed = 0xBEEF ^ bench.name.len() as u64;
        // The benchmark's own workload shape, at fuzz size.
        let workload = bench.workload_sized(FUZZ_ACTIVATIONS, seed);
        let kernel = bench.kernel;
        let cc = if cc_present {
            CcStage::Compile
        } else {
            CcStage::Skip
        };
        let result = catching(|| {
            verify_kernel(&kernel).map_err(|e| format!("kernel verification failed: {e}"))?;
            check_round_trip(&kernel)?;
            let ranges = determine_ranges(&kernel, &RangeOptions::default());
            check_range_soundness(&kernel, &ranges, &workload)?;
            check_incremental_agreement(&kernel, &ranges, seed, 20)?;
            check_exec_differential(&kernel, &ranges, &workload, cc, bench.name)
        });
        if let Err(msg) = result {
            panic!(
                "pipeline fuzz failure on benchmark {} : {msg}\n\
                 (benchmarks are deterministic; re-run \
                 `cargo test --test pipeline_fuzz fuzz_benchmark_kernels`)",
                bench.name
            );
        }
    }
}

/// Every benchmark runs through the public `Optimizer` driver exactly
/// the way `examples/quickstart.rs` does — the driver-level guarantee
/// that opening the suite did not leave any registered kernel behind —
/// with pass-boundary verification at its paranoid maximum, so even
/// intermediate artifacts (pre-prune groupings, candidate lowerings the
/// pruner only prices) are checked on every run.
#[test]
fn every_benchmark_runs_through_the_driver() {
    use slpwlo::{FlowKind, Optimizer, VerifyLevel};
    for bench in all_benchmarks() {
        let report = Optimizer::for_kernel(bench.kernel.clone())
            .unwrap_or_else(|e| panic!("{}: driver rejects the kernel: {e}", bench.name))
            .constraint_db(-25.0)
            .flow(FlowKind::WloSlp)
            .activations(64)
            .verify_level(VerifyLevel::Paranoid)
            .run()
            .unwrap_or_else(|e| panic!("{}: driver run failed: {e}", bench.name));
        assert!(
            report.noise_db.unwrap_or(f64::INFINITY) <= -25.0,
            "{}: constraint not met",
            bench.name
        );
        assert!(report.cycles_simd > 0, "{}: no cycle count", bench.name);
    }
}
