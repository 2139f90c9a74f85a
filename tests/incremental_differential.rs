//! Differential property test of the incremental accuracy engine.
//!
//! Replays long random `set_wl`/undo sequences — shaped like the moves
//! the WLO search loops actually make — against both evaluators and
//! asserts that [`IncrementalEvaluator`] matches
//! [`AnalyticalEvaluator::noise_db`] **bitwise** on every step, across
//! the paper's three kernels. The workspace builds offline, so the
//! randomness comes from the deterministic in-tree `rand` stand-in
//! (seeded; every CI run replays the same sequences).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slpwlo::accuracy::{AccuracyEvaluator, AnalyticalEvaluator, IncrementalEvaluator};
use slpwlo::core::prepare;
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::kernels::paper_benchmarks;

/// Word lengths the random walk draws from (denser than any real
/// target's supported set, to cover more formats).
const WLS: [i32; 7] = [8, 12, 16, 20, 24, 28, 32];

fn assert_bits_eq(inc_db: f64, full_db: f64, ctx: &str) {
    assert_eq!(
        inc_db.to_bits(),
        full_db.to_bits(),
        "{ctx}: incremental {inc_db} != full {full_db}"
    );
}

/// One random walk over a kernel's spec: single- and multi-key trials,
/// randomly committed or undone, interleaved with untrialed writes
/// reported through `observe` — the full caller protocol.
fn random_walk(
    kernel_name: &str,
    kernel: &slpwlo::ir::Kernel,
    eval: &AnalyticalEvaluator,
    steps: usize,
    seed: u64,
) {
    let ranges = slpwlo::fixedpoint::range::determine_ranges(kernel);
    let mut spec = FixedPointSpec::from_ranges(kernel, &ranges, 32);
    let keys = spec.optimizable_keys(kernel);
    let inc = IncrementalEvaluator::with_spec(eval, &spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed = 0usize;
    let mut undone = 0usize;

    for step in 0..steps {
        let action = rng.gen_range(0..100usize);
        if action < 80 {
            // A trial move: 1–4 random keys, then commit or undo.
            let nkeys = 1 + rng.gen_range(0..4usize);
            let mark = spec.mark();
            for _ in 0..nkeys {
                let key = keys[rng.gen_range(0..keys.len())];
                let wl = WLS[rng.gen_range(0..WLS.len())];
                spec.set_wl(key, wl);
            }
            let inc_db = inc.trial_noise_db(&spec, mark);
            let full_db = eval.noise_db(&spec);
            assert_bits_eq(
                inc_db,
                full_db,
                &format!("{kernel_name} step {step} (trial)"),
            );
            if rng.gen_range(0..100usize) < 50 {
                spec.commit(mark);
                inc.commit_trial();
                committed += 1;
            } else {
                spec.rollback(mark);
                inc.rollback_trial();
                undone += 1;
            }
        } else {
            // An untrialed permanent write (tabu accepted move /
            // snapshot restore shape), reported via observe().
            let mark = spec.mark();
            let key = keys[rng.gen_range(0..keys.len())];
            let wl = WLS[rng.gen_range(0..WLS.len())];
            spec.set_wl(key, wl);
            inc.observe(&spec, mark);
            committed += 1;
        }
        // After resolution the cache must still agree: evaluate via an
        // empty trial (pure cached fold) against the full recompute.
        let mark = spec.mark();
        let inc_db = inc.trial_noise_db(&spec, mark);
        let full_db = eval.noise_db(&spec);
        assert_bits_eq(
            inc_db,
            full_db,
            &format!("{kernel_name} step {step} (post-resolve)"),
        );
        inc.rollback_trial();
    }
    assert!(committed > 0 && undone > 0, "walk must exercise both paths");
}

#[test]
fn incremental_matches_full_recompute_on_random_walks() {
    // ≥ 1000 steps per kernel; each step checks twice (trial + post-
    // resolution), so every kernel sees ≥ 2000 bitwise comparisons.
    for (i, bench) in paper_benchmarks().into_iter().enumerate() {
        let prep = prepare(bench.kernel);
        random_walk(
            bench.name,
            &prep.kernel,
            &prep.eval,
            1100,
            0xD1FF_0000 + i as u64,
        );
    }
}

#[test]
fn incremental_matches_full_after_deep_nested_rollbacks() {
    // Nested mark/rollback towers (the hooks' validate/conflict shape):
    // open several journal levels, trial at the innermost, unwind.
    let bench = paper_benchmarks().remove(0);
    let prep = prepare(bench.kernel);
    let ranges = slpwlo::fixedpoint::range::determine_ranges(&prep.kernel);
    let mut spec = FixedPointSpec::from_ranges(&prep.kernel, &ranges, 32);
    let keys = spec.optimizable_keys(&prep.kernel);
    let inc = IncrementalEvaluator::with_spec(&prep.eval, &spec);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for round in 0..50 {
        let outer = spec.mark();
        for depth in 0..4 {
            let key = keys[rng.gen_range(0..keys.len())];
            spec.set_wl(key, WLS[rng.gen_range(0..WLS.len())]);
            let _ = depth;
        }
        let inc_db = inc.trial_noise_db(&spec, outer);
        assert_bits_eq(
            inc_db,
            prep.eval.noise_db(&spec),
            &format!("round {round} inner"),
        );
        spec.rollback(outer);
        inc.rollback_trial();
        let mark = spec.mark();
        let inc_db = inc.trial_noise_db(&spec, mark);
        assert_bits_eq(
            inc_db,
            prep.eval.noise_db(&spec),
            &format!("round {round} unwound"),
        );
        inc.rollback_trial();
    }
}
