//! One benchmark for the whole compiler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-compile|dse-sweep|exact-pipelined> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload through the public `Optimizer` API in one process,
//! serially (closed loop, one caller), checks every run's output, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a separate traced run (`--trace 1`). The last line of standard
//! output is one JSON object; everything before it is for people. See
//! `perfbench/README.md`.

mod calib;
mod oracle;
mod trace;
mod workload;

use slpwlo_fixedpoint::range::{RangeAnalysis, RangeOptions};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Layers;
use workload::{Kind, Setup};

/// The seed runs use when none is given.
const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::from_name(&value).ok_or_else(|| {
                        bad("expected cold-compile, dse-sweep or exact-pipelined")
                    })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What the checking pass established about each point.
struct Reference {
    /// Fingerprint of the checked report; `None` when the run erred.
    fingerprint: Option<u64>,
    /// Why the run failed the oracle, if it did.
    fault: Option<String>,
    /// Accuracy trials of the counted search.
    trials: f64,
    /// Whether the C back-ends refused the run's programs.
    refused: bool,
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "threads: nproc {nproc}; runs issued serially by one caller; gain measurement uses \
         up to {nproc} threads (library default); Optimizer::sweep not used"
    );

    // Set-up, repeated and calibrated like the runs; the last one is
    // kept.
    let mut setup_clock = calib::Clock::default();
    let mut setup_wall = Vec::new();
    let mut setup = None;
    setup_clock.sample();
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(Setup::new(args.kind, args.seed)?);
        setup_wall.push(t.elapsed());
        setup_clock.sample();
    }
    let mut setup_s: Vec<f64> = setup_wall
        .iter()
        .enumerate()
        .map(|(j, &wall)| setup_clock.calibrated_ms(j, wall) / 1e3)
        .collect();
    let mut setup = setup.expect("set-up ran at least once");
    let n = setup.points.len();
    println!(
        "inputs: {} kernels x {} targets -> {n} runs per pass",
        setup.cases.len(),
        setup.targets.len()
    );
    for s in &setup.skipped {
        println!("skipped generated kernel {s}");
    }

    // Checking pass (also the warm-up): every point traced, its output
    // checked, its fingerprint (and, for a traced run, its trial count)
    // kept as the reference.
    let mut refs = Vec::with_capacity(n);
    let mut faults = 0;
    let mut deterministic = PassFigures::default();
    for i in 0..n {
        let label = setup.label(&setup.points[i]);
        let reference = match trace::run(&mut setup, i, args.trace) {
            Ok(t) => {
                deterministic.add(&t.report);
                if let Some(r) = &t.refusal {
                    println!("BUG {label}: the C back-ends refuse the compiled programs: {r}");
                }
                Reference {
                    fault: checked(&setup, i, &t),
                    fingerprint: Some(oracle::fingerprint(&t.report)),
                    trials: t.layers.get("trials"),
                    refused: t.refusal.is_some(),
                }
            }
            Err(e) if e.starts_with("determinism") => return Err(e),
            Err(e) => Reference {
                fingerprint: None,
                fault: Some(e),
                trials: 0.0,
                refused: false,
            },
        };
        if let Some(f) = &reference.fault {
            faults += 1;
            println!("FAILED {label}: {f}");
        }
        refs.push(reference);
    }

    // Measured passes: untraced, through the public API only, each run
    // followed by a calibration sample.
    let mut point_ms = vec![Vec::new(); n];
    let mut order: Vec<(usize, Duration)> = Vec::new();
    let mut clock = calib::Clock::default();
    clock.sample();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let mut figures = PassFigures::default();
        for i in 0..n {
            let out = setup.run(i);
            clock.sample();
            point_ms[i].push(out.wall.as_secs_f64() * 1e3);
            order.push((i, out.wall));
            attempted += 1;
            let fp = out.report.as_ref().ok().map(oracle::fingerprint);
            let refused = matches!(out.emitted, Some(Err(_)));
            if fp != refs[i].fingerprint || refused != refs[i].refused {
                return Err(format!(
                    "determinism: {} changed between passes",
                    setup.label(&setup.points[i])
                ));
            }
            if refs[i].fault.is_some() {
                failed += 1;
            }
            if let Ok(r) = &out.report {
                figures.add(r);
            }
        }
        if figures != deterministic {
            return Err(
                "determinism: speedup_geomean or simd_ops_total changed between passes".into(),
            );
        }
        passes += 1;
    }
    let measured_s: f64 = point_ms.iter().flatten().sum::<f64>() / 1e3;
    println!("measured: {passes} passes, {attempted} runs in {measured_s:.3} s of compile time");
    println!(
        "calibration: median {:.4} ms against {} ms nominal, so this host ran at {:.3}x \
         nominal speed; set-up median {:.4} ms",
        clock.median_ms(),
        calib::NOMINAL_MS,
        calib::NOMINAL_MS / clock.median_ms(),
        setup_clock.median_ms()
    );
    let point_median: Vec<f64> = point_ms.iter_mut().map(|v| median(v)).collect();

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let layers = traced_passes(&mut setup, args, &refs, &point_median)?;
        metrics.extend(layers.metrics());
    } else {
        // Each point's time is the median of its calibrated runs; the
        // quantiles are over points.
        let mut calibrated = vec![Vec::new(); n];
        for (j, &(i, wall)) in order.iter().enumerate() {
            calibrated[i].push(clock.calibrated_ms(j, wall));
        }
        let mut point: Vec<f64> = calibrated.iter_mut().map(|v| median(v)).collect();
        point.sort_by(f64::total_cmp);
        let ok = deterministic.runs;
        metrics.extend([
            ("setup_s", "s", median(&mut setup_s)),
            (
                "runs_per_s",
                "1/s",
                1e3 * n as f64 / point.iter().sum::<f64>(),
            ),
            ("run_ms_p50", "ms", quantile(&point, 0.5)),
            ("run_ms_p90", "ms", quantile(&point, 0.9)),
            ("peak_rss_mb", "MB", peak_rss_mb()?),
            ("ok_share", "share", 1.0 - failed as f64 / attempted as f64),
            (
                "speedup_geomean",
                "x",
                (deterministic.log_speedup / ok as f64).exp(),
            ),
            ("simd_ops_total", "ops", deterministic.ops as f64),
        ]);
        println!(
            "failed_share {} ({failed} of {attempted} runs); times are calibrated medians of \
             {passes} runs of each of {n} points",
            failed as f64 / attempted as f64,
        );
    }
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        faults == 0,
        body.join(", ")
    );
    Ok(())
}

/// The oracle verdict of a traced run: final groups as the flow saw
/// them, then the report itself.
fn checked(setup: &Setup, i: usize, t: &trace::Traced) -> Option<String> {
    if let Some(f) = t.group_faults.first() {
        return Some(format!("final groups rejected: {f}"));
    }
    let p = setup.points[i];
    let inputs = &setup.cases[p.case].inputs;
    let verdict = if setup.kind == Kind::ColdCompile {
        // The report's kernel is the parsed text: analyse its ranges the
        // way `prepare` does.
        let analysis = RangeAnalysis::new(&t.report.kernel, &RangeOptions::default());
        oracle::check(&t.report, analysis.ranges(), inputs)
    } else {
        let ranges = setup.prepared_ranges(&p);
        oracle::check(&t.report, ranges, inputs)
    };
    verdict.err()
}

/// The deterministic end-to-end figures of one pass: successful runs,
/// total SIMD operations and the sum of log speedups.
#[derive(Default, PartialEq)]
struct PassFigures {
    runs: u64,
    ops: u64,
    log_speedup: f64,
}

impl PassFigures {
    fn add(&mut self, r: &slpwlo_driver::Report) {
        self.runs += 1;
        self.ops += r.simd.ops_per_activation();
        self.log_speedup += r.speedup().ln();
    }
}

/// Traced passes after the measured ones: at least one, and more until
/// half the run length has passed. Returns the per-layer sums.
fn traced_passes(
    setup: &mut Setup,
    args: &Args,
    refs: &[Reference],
    point_median: &[f64],
) -> Result<Layers, String> {
    let n = setup.points.len();
    let mut total = Layers::default();
    let mut rows: BTreeMap<(usize, usize), Layers> = BTreeMap::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        for i in 0..n {
            let p = setup.points[i];
            let Some(reference) = refs[i].fingerprint else {
                continue;
            };
            let t = trace::run(setup, i, true)?;
            if oracle::fingerprint(&t.report) != reference {
                return Err(format!(
                    "determinism: traced and untraced runs of {} differ",
                    setup.label(&p)
                ));
            }
            if t.layers.get("trials") != refs[i].trials {
                return Err(format!(
                    "determinism: accuracy trials of {} changed between traced runs",
                    setup.label(&p)
                ));
            }
            let mut l = t.layers;
            l.add("trace.overhead_ms", t.comparable_ms - point_median[i]);
            total.merge(&l, 1.0);
            rows.entry((p.case, p.target)).or_default().merge(&l, 1.0);
        }
        // Prepared workloads pay the front end in set-up: time it once
        // per kernel per pass and spread it over that kernel's runs.
        if setup.kind != Kind::ColdCompile {
            for (c, case) in setup.cases.iter().enumerate() {
                let fe = trace::front_end(&case.kernel);
                total.merge(&fe, 1.0);
                for t in 0..setup.targets.len() {
                    if let Some(row) = rows.get_mut(&(c, t)) {
                        row.merge(&fe, 1.0 / setup.targets.len() as f64);
                    }
                }
            }
        }
        passes += 1;
    }
    println!("traced: {passes} passes; per-kernel self time, ms per run:");
    let mut header = format!(
        "  {:<12} {:<8} {:>5} {:>6} {:>8}",
        "kernel", "target", "runs", "exprs", "trials"
    );
    for (name, _) in Layers::default().row() {
        header.push_str(&format!(" {name:>8}"));
    }
    println!("{header}");
    for ((c, t), l) in &rows {
        let runs = l.get("runs");
        let mut line = format!(
            "  {:<12} {:<8} {runs:>5} {:>6} {:>8}",
            setup.cases[*c].name,
            setup.targets[*t].name,
            l.get("ir.exprs") / runs,
            l.get("trials") / runs
        );
        for (_, v) in l.row() {
            line.push_str(&format!(" {v:>8.3}"));
        }
        println!("{line}");
    }
    Ok(total)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
