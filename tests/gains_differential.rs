//! Batched-vs-reference gain-measurement differential.
//!
//! `measure_gains` propagates impulses in batches (SoA lanes, early
//! retirement, sharded workers); `measure_gains_reference` runs one
//! simulation per impulse. The batched path's contract is *bitwise*
//! equality per noise source for any thread count — this suite pins it
//! across the full registered benchmark suite and a seeded
//! `slpwlo-gen` corpus slice, so any future change to batching,
//! retirement or sharding that perturbs even one ULP of one `(G1, G2)`
//! pair fails loudly.

use slpwlo::accuracy::gains::{measure_gains, measure_gains_reference};
use slpwlo::accuracy::GainOptions;
use slpwlo::gen::KernelGen;
use slpwlo::ir::Kernel;
use slpwlo::kernels::all_benchmarks;

/// Reduced measurement sizes: the differential cares about bit
/// equality, not tail convergence, and the whole suite runs in debug
/// builds.
fn opts(threads: usize) -> GainOptions {
    GainOptions {
        min_activations: 16,
        max_activations: 256,
        param_activations: 128,
        threads,
    }
}

/// Asserts bitwise `(G1, G2)` equality between the batched and the
/// reference measurement on every noise source of `kernel`.
fn assert_bitwise_identical(kernel: &Kernel, label: &str, threads: usize) {
    let o = opts(threads);
    let batched = measure_gains(kernel, &o);
    let reference = measure_gains_reference(kernel, &o);
    assert_eq!(batched.len(), reference.len(), "{label}: source count");
    for (e, (g1, g2)) in batched.iter() {
        let (r1, r2) = reference.get(e);
        assert_eq!(
            g1.to_bits(),
            r1.to_bits(),
            "{label} threads={threads}: G1 of source {e:?} diverged ({g1} vs {r1})"
        );
        assert_eq!(
            g2.to_bits(),
            r2.to_bits(),
            "{label} threads={threads}: G2 of source {e:?} diverged ({g2} vs {r2})"
        );
    }
}

#[test]
fn benchmarks_batched_gains_match_reference_bitwise() {
    for bench in all_benchmarks() {
        // 1 pins the sharding-free path, 3 an uneven shard split.
        for threads in [1, 3] {
            assert_bitwise_identical(&bench.kernel, bench.name, threads);
        }
    }
}

/// Feedback kernels stress the cone path hardest: variable and array
/// state edges keep every impulse's deviation hull alive across
/// activations, so the hull bookkeeping (`ShiftIn` rotation, read-back
/// of stored hulls, accumulator fusion on `acc = acc + ...`) must stay
/// sound under infinite lifetimes. The length-1 delay line pins the
/// `ShiftIn` edge case where rotation degenerates to a plain store.
#[test]
fn feedback_kernels_batched_gains_match_reference_bitwise() {
    use slpwlo::ir::builder::KernelBuilder;

    // y[n] = x[n] + a*y[n-1] via a scalar variable.
    let mut b = KernelBuilder::new("fb_var");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let acc = b.var("acc");
    let c = b.constf(0.5);
    let prev = b.read_var(acc);
    let fed = b.mul(c, prev);
    let xv = b.read_input(x);
    let sum = b.add(xv, fed);
    b.assign(acc, sum);
    let out = b.read_var(acc);
    b.set_output(y, out);
    let fb_var = b.finish();

    // Same recurrence through a length-1 delay line.
    let mut b = KernelBuilder::new("fb_shift1");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let d = b.array("d", 1);
    let c = b.constf(0.5);
    let prev = b.load(d, 0);
    let fed = b.mul(c, prev);
    let xv = b.read_input(x);
    let sum = b.add(xv, fed);
    b.shift_in(d, sum);
    let out = b.load(d, 0);
    b.set_output(y, out);
    let fb_shift1 = b.finish();

    // Second-order feedback through a length-2 delay line (IIR2).
    let mut b = KernelBuilder::new("fb_iir2");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let d = b.array("d", 2);
    let a1 = b.constf(0.4);
    let y1 = b.load(d, 0);
    let t1 = b.mul(a1, y1);
    let a2 = b.constf(-0.3);
    let y2 = b.load(d, 1);
    let t2 = b.mul(a2, y2);
    let fb = b.add(t1, t2);
    let xv = b.read_input(x);
    let sum = b.add(xv, fb);
    b.shift_in(d, sum);
    let out = b.load(d, 0);
    b.set_output(y, out);
    let fb_iir2 = b.finish();

    for (k, label) in [
        (&fb_var, "fb_var"),
        (&fb_shift1, "fb_shift1"),
        (&fb_iir2, "fb_iir2"),
    ] {
        for threads in [1, 3] {
            assert_bitwise_identical(k, label, threads);
        }
    }
}

#[test]
fn generated_corpus_batched_gains_match_reference_bitwise() {
    let mut checked = 0usize;
    for seed in 0..64u64 {
        let mut kg = KernelGen::with_seed(seed);
        let Ok(kernel) = kg.gen_plan().build() else {
            continue; // generator invariants are pipeline_fuzz's job
        };
        assert_bitwise_identical(&kernel, &format!("gk{seed}"), 2);
        checked += 1;
    }
    assert!(checked >= 48, "corpus slice too thin: {checked}/64 built");
}

/// A float baseline that overflows within the 128 coefficient
/// activations: `yline` grows by 1e10 per activation, reaches `inf`, and
/// the coefficient sweep's `(perturbed - baseline)` differences turn
/// `NaN`. Pins the coefficient sweep's non-finite path, where a lane
/// equal to its baseline still contributes a `NaN` term.
#[test]
fn overflowing_baseline_batched_gains_match_reference_bitwise() {
    let src = r#"
kernel blowup {
    input x range [-1, 1];
    output y;
    param c[2] = { 0.5, 1e10 };
    array yline[1];
    var t;
    t = c[0] * x + c[1] * yline[0];
    shiftin yline <- t;
    y = t;
}
"#;
    let k = slpwlo::ir::parser::parse_kernel(src).expect("kernel parses");
    let gains = measure_gains_reference(&k, &opts(1));
    assert!(
        gains.iter().any(|(_, (_, g2))| g2.is_nan()),
        "the overflow must reach a coefficient G2"
    );
    for threads in [1, 3] {
        assert_bitwise_identical(&k, "blowup", threads);
    }
}
