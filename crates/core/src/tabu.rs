//! Tabu-search word-length optimization — the WLO used by the paper's
//! **`WLO-First`** baseline (Nguyen, EUSIPCO 2011), with the Menard-style
//! cost model: "the relative execution time associated to an instruction
//! is directly related to the WL of data on which it can operate" — a
//! 16-bit operation is assumed to cost half a 32-bit one.
//!
//! That assumption is exactly the *unrealistic optimism* the paper
//! criticises: it presumes every narrowed operation will later be packed
//! by SLP with no packing overhead. This module reproduces it faithfully
//! so the baseline misbehaves the way the paper reports.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use slpwlo_accuracy::gains::expr_executions;
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_fixedpoint::{FixedPointSpec, SpecKey};
use slpwlo_ir::{ExprNode, Kernel};

/// Maximum search iterations.
const MAX_ITERS: usize = 400;

/// Tabu tenure: iterations during which a key just moved may not move
/// again, in either direction.
const TENURE: usize = 8;

/// Iterations without improvement before giving up.
const PATIENCE: usize = 60;

/// Seed of the neighbourhood shuffle (deterministic diversification).
const SEED: u64 = 0x7AB0;

/// Field-less stand-in for the Tabu settings, which are now the
/// constants of this module.
///
/// Kept only because the `perfbench` benchmark passes
/// `TabuOptions::default()` to [`tabu_wlo`] and
/// [`wlo_first_flow_checked`](crate::flow::wlo_first_flow_checked).
#[derive(Debug, Clone, Copy, Default)]
pub struct TabuOptions {}

/// The Menard-style optimistic cost of a specification: execution-count
/// weighted `wl / max_wl` over all operation expressions.
///
/// Computed as the integer weight `Σ execs·wl` divided once by `max_wl`,
/// so the Tabu search can maintain the weight move by move and still
/// agree with this full walk bitwise.
#[cfg(test)]
fn menard_cost(kernel: &Kernel, spec: &FixedPointSpec, execs: &[u64]) -> f64 {
    weight_cost(menard_weight(kernel, spec, execs), spec.max_wl())
}

/// The integer Menard weight `Σ execs·wl` over operation expressions.
fn menard_weight(kernel: &Kernel, spec: &FixedPointSpec, execs: &[u64]) -> u64 {
    kernel
        .exprs()
        .filter(|(_, node)| is_op(node))
        .map(|(id, _)| execs[id.index()] * spec.wl(SpecKey::Expr(id)) as u64)
        .sum()
}

/// Operation expressions: the nodes the Menard cost prices.
fn is_op(node: &ExprNode) -> bool {
    matches!(node, ExprNode::Bin(..) | ExprNode::Unary(..))
}

fn weight_cost(weight: u64, max_wl: i32) -> f64 {
    weight as f64 / max_wl as f64
}

/// Runs the Tabu-search WLO: minimizes the optimistic cost subject to the
/// accuracy constraint, mutating `spec` to the best found solution.
///
/// Moves shrink or widen one node's word length one step along the
/// supported set (e.g. 32 -> 16 -> 8). Each iteration takes the cheapest
/// feasible move, even an uphill one, among the keys that are not tabu; a
/// moved key stays tabu for 8 iterations, with no aspiration override.
/// The search stops after 400 iterations or 60 without improvement.
/// Returns the cost of the best specification visited, which `spec` is
/// left at. The options are ignored.
pub fn tabu_wlo(
    kernel: &Kernel,
    spec: &mut FixedPointSpec,
    eval: &dyn AccuracyEvaluator,
    constraint_db: f64,
    supported_wls: &[i32],
    _opts: &TabuOptions,
) -> f64 {
    tabu_search(kernel, spec, eval, constraint_db, supported_wls, |_, _| {})
}

/// [`tabu_wlo`], calling `on_move` with the spec and its maintained cost
/// after every accepted move.
fn tabu_search(
    kernel: &Kernel,
    spec: &mut FixedPointSpec,
    eval: &dyn AccuracyEvaluator,
    constraint_db: f64,
    supported_wls: &[i32],
    mut on_move: impl FnMut(&FixedPointSpec, f64),
) -> f64 {
    let execs = expr_executions(kernel);
    let keys = spec.optimizable_keys(kernel);
    // Menard weight of one bit of each key: its execution count when it
    // is an operation expression, zero otherwise.
    let unit: Vec<u64> = keys
        .iter()
        .map(|&key| match key {
            SpecKey::Expr(id) if is_op(kernel.expr(id)) => execs[id.index()],
            _ => 0,
        })
        .collect();
    let max_wl = spec.max_wl();
    let mut wls: Vec<i32> = supported_wls.to_vec();
    wls.sort_unstable();
    let mut rng = StdRng::seed_from_u64(SEED);

    // Best-so-far bookkeeping works on explicit assignments.
    let snapshot =
        |spec: &FixedPointSpec| -> Vec<i32> { keys.iter().map(|&k| spec.wl(k)).collect() };
    let restore = |spec: &mut FixedPointSpec, snap: &[i32]| {
        for (&k, &w) in keys.iter().zip(snap) {
            if spec.wl(k) != w {
                spec.set_wl(k, w);
            }
        }
    };

    let mut best_snap = snapshot(spec);
    let mut cur_weight = menard_weight(kernel, spec, &execs);
    let mut best_cost = weight_cost(cur_weight, max_wl);
    // Iteration until which each key (by position) stays tabu.
    let mut tabu_until = vec![0usize; keys.len()];
    let mut order: Vec<usize> = Vec::with_capacity(keys.len());
    let mut stall = 0usize;

    // The neighbourhood scan evaluates one single-key move per trial; an
    // incremental evaluator re-walks only that key's noise sources.
    eval.begin(spec);

    for iter in 0..MAX_ITERS {
        // Enumerate neighbour moves: one key one step down or up. A key
        // moved within the last `TENURE` iterations is skipped outright;
        // there is no aspiration override.
        let mut best_move: Option<(usize, i32, u64, f64)> = None;
        order.clear();
        order.extend(0..keys.len());
        order.shuffle(&mut rng);
        for &ki in &order {
            if tabu_until[ki] > iter {
                continue;
            }
            let key = keys[ki];
            let cur = spec.wl(key);
            for next in neighbours(&wls, cur) {
                let weight = (cur_weight + unit[ki] * next as u64) - unit[ki] * cur as u64;
                let cost = weight_cost(weight, max_wl);
                // Only a strictly cheaper move can displace the best one
                // found so far, so a costlier move needs no trial.
                if best_move.is_some_and(|(.., c)| cost >= c) {
                    continue;
                }
                let mark = spec.mark();
                spec.set_wl(key, next);
                let feasible = eval.trial_meets(spec, mark, constraint_db);
                spec.rollback(mark);
                eval.rollback_trial();
                if feasible {
                    best_move = Some((ki, next, weight, cost));
                }
            }
        }
        match best_move {
            // Downhill moves may set a new best; uphill and sideways
            // moves diversify.
            Some((ki, wl, weight, cost)) => {
                apply_move(spec, eval, keys[ki], wl);
                cur_weight = weight;
                on_move(spec, cost);
                tabu_until[ki] = iter + TENURE;
                if cost < best_cost {
                    best_cost = cost;
                    best_snap = snapshot(spec);
                    stall = 0;
                } else {
                    stall += 1;
                }
            }
            None => stall += 1,
        }
        if stall > PATIENCE {
            break;
        }
    }
    let mark = spec.mark();
    restore(spec, &best_snap);
    eval.observe(spec, mark);
    best_cost
}

/// Applies an accepted move permanently, keeping incremental evaluators
/// in sync with the untrialed write.
fn apply_move(spec: &mut FixedPointSpec, eval: &dyn AccuracyEvaluator, key: SpecKey, wl: i32) {
    let mark = spec.mark();
    spec.set_wl(key, wl);
    eval.observe(spec, mark);
}

/// Word lengths one step below and above `cur` in the supported set.
fn neighbours(wls: &[i32], cur: i32) -> impl Iterator<Item = i32> + '_ {
    let (down, up) = match wls.iter().position(|&w| w >= cur) {
        Some(p) => (p.checked_sub(1).map(|i| wls[i]), wls.get(p + 1).copied()),
        None => (wls.last().copied(), None),
    };
    down.into_iter().chain(up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_accuracy::AnalyticalEvaluator;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_ir::parser::parse_kernel;

    const SRC: &str = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var t0;
    var t1;
    shiftin dl <- x;
    t0 = c[0] * dl[0] + c[1] * dl[1];
    t1 = c[2] * dl[2] + c[3] * dl[3];
    y = t0 + t1;
}
"#;

    fn setup() -> (Kernel, FixedPointSpec, AnalyticalEvaluator) {
        let k = parse_kernel(SRC).unwrap();
        let r = determine_ranges(&k);
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let eval = AnalyticalEvaluator::new(&k);
        (k, spec, eval)
    }

    #[test]
    fn loose_constraint_shrinks_everything() {
        let (k, mut spec, eval) = setup();
        let cost = tabu_wlo(
            &k,
            &mut spec,
            &eval,
            -20.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        // At -20 dB even 8-bit often passes for this kernel; cost must be
        // far below the all-32 start.
        let execs = expr_executions(&k);
        let all32 = {
            let (_, s, _) = setup();
            menard_cost(&k, &s, &execs)
        };
        assert!(cost < all32 * 0.7, "cost {cost} vs all-32 {all32}");
        assert!(eval.meets(&spec, -20.0));
    }

    #[test]
    fn tight_constraint_keeps_wide_words() {
        let (k, mut spec, eval) = setup();
        let _ = tabu_wlo(
            &k,
            &mut spec,
            &eval,
            -170.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        assert!(eval.meets(&spec, -170.0), "result must stay feasible");
        // At -170 dB nothing meaningful can shrink below 32 bits.
        let narrow = spec
            .optimizable_keys(&k)
            .iter()
            .filter(|&&key| spec.wl(key) < 32)
            .count();
        assert!(
            narrow <= 2,
            "only marginal nodes may shrink at -170 dB, got {narrow}"
        );
    }

    #[test]
    fn result_is_deterministic_for_a_seed() {
        let (k, mut s1, eval) = setup();
        let (_, mut s2, _) = setup();
        let c1 = tabu_wlo(
            &k,
            &mut s1,
            &eval,
            -50.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        let c2 = tabu_wlo(
            &k,
            &mut s2,
            &eval,
            -50.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        assert_eq!(c1, c2);
        for key in s1.optimizable_keys(&k) {
            assert_eq!(s1.wl(key), s2.wl(key));
        }
    }

    #[test]
    fn cost_is_monotone_in_wl() {
        let (k, mut spec, _) = setup();
        let execs = expr_executions(&k);
        let c32 = menard_cost(&k, &spec, &execs);
        for key in spec.optimizable_keys(&k) {
            if let SpecKey::Expr(_) = key {
                spec.set_wl(key, 16);
            }
        }
        let c16 = menard_cost(&k, &spec, &execs);
        assert!(c16 < c32);
        assert!(
            (c16 - c32 / 2.0).abs() < 1e-9,
            "16-bit ops cost exactly half"
        );
    }

    #[test]
    fn maintained_cost_matches_the_full_walk_after_every_move() {
        use crate::flow::prepare;
        use slpwlo_accuracy::IncrementalEvaluator;
        use slpwlo_kernels::all_benchmarks;
        use slpwlo_targets::{st240, vex, xentium};

        for bench in all_benchmarks() {
            let prep = prepare(bench.kernel);
            let execs = expr_executions(&prep.kernel);
            for target in [xentium(), st240(), vex(4)] {
                let mut spec =
                    FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
                let eval = IncrementalEvaluator::new(&prep.eval);
                let mut moves = 0;
                let best = tabu_search(
                    &prep.kernel,
                    &mut spec,
                    &eval,
                    -40.0,
                    &target.scalar_wls,
                    |spec, cost| {
                        moves += 1;
                        let walk = menard_cost(&prep.kernel, spec, &execs);
                        assert_eq!(
                            cost.to_bits(),
                            walk.to_bits(),
                            "{} on {}: move {moves}",
                            bench.name,
                            target.name
                        );
                    },
                );
                assert!(moves > 0, "{} on {}: no move", bench.name, target.name);
                let walk = menard_cost(&prep.kernel, &spec, &execs);
                assert_eq!(best.to_bits(), walk.to_bits(), "{}", bench.name);
            }
        }
    }

    #[test]
    fn neighbours_step_one_level() {
        let wls = [8, 16, 32];
        let step = |cur| neighbours(&wls, cur).collect::<Vec<_>>();
        assert_eq!(step(32), vec![16]);
        assert_eq!(step(16), vec![8, 32]);
        assert_eq!(step(8), vec![16]);
    }
}
