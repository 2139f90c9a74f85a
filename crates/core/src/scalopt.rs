//! SLP-aware scaling optimization (fig. 1b of the paper).
//!
//! Most embedded SIMD ISAs shift all vector lanes by one common amount.
//! When the lanes of a reused superword require *different* scaling
//! amounts, the vector must be unpacked, shifted per lane and repacked —
//! the overhead of fig. 2. This pass equalizes the per-lane amounts by
//! **reducing FWLs while keeping WLs intact** (IWL grows by the same
//! amount), as long as the accuracy constraint tolerates it.
//!
//! Sign convention: with `S[k]` the right-shift amount of lane `k`, we
//! equalize producer-side by reducing `FWL(e_k)` by `S[k] - min(S)`
//! (all lanes then shift by `min(S)`), or — when the producer lanes share
//! one storage format — consumer-side by reducing the consumer lane
//! formats by `max(S) - S[k]` (all lanes then shift by `max(S)`). Both
//! realise the paper's transformation; the pseudocode's `max` corresponds
//! to the consumer-side variant.

use crate::nodes::{node_key, value_format};
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_fixedpoint::{FixedPointSpec, SpecKey};
use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use slpwlo_ir::types::BinOp;
use slpwlo_slp::{resolved_operands, SimdGroup};
use slpwlo_targets::{OpQuery, TargetModel};

/// One superword reuse: `producer`'s lanes feed `consumer`'s lanes (in
/// lane order) at operand position `pos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reuse {
    /// Index of the producing group.
    pub producer: usize,
    /// Index of the consuming group.
    pub consumer: usize,
    /// Operand position within the consumer.
    pub pos: usize,
}

/// Report of one scaling-optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScalOptReport {
    /// Superword reuses examined.
    pub reuses: usize,
    /// Reuses whose lane amounts already matched.
    pub already_uniform: usize,
    /// Reuses successfully equalized.
    pub equalized: usize,
    /// Equalization attempts reverted for violating the constraint.
    pub reverted: usize,
    /// Reuses skipped (mixed-sign amounts or shared-format lanes on both
    /// sides).
    pub skipped: usize,
    /// Estimated cycles saved by the equalizations, priced through
    /// [`TargetModel::cycles`] (the fig. 2 unpack/shift/repack each
    /// avoided reuse would otherwise pay, minus the uniform vector
    /// shift that replaces it).
    pub cycles_saved: f64,
}

/// The fig. 2 penalty a mismatched reuse pays if *not* equalized: per
/// lane one extract plus one scalar shift, then a repack — versus the
/// single uniform vector shift equalization leaves behind. Priced
/// through [`TargetModel::cycles`], the same source the scheduler and
/// the SLP benefit layer draw from.
fn fig2_penalty_cycles(target: &TargetModel, lanes: u32) -> f64 {
    let elem_wl = target.simd_element_wl(lanes).unwrap_or(target.datapath);
    let per_lane = target.cycles(OpQuery::Extract) + target.cycles(OpQuery::Shift(elem_wl));
    lanes as f64 * per_lane + target.cycles(OpQuery::Pack(lanes))
        - target.cycles(OpQuery::VShift(lanes))
}

/// Enumerates the superword reuses among `groups`.
fn superword_reuses(dfg: &Dfg, groups: &[SimdGroup]) -> Vec<Reuse> {
    let mut out = Vec::new();
    for (pi, p) in groups.iter().enumerate() {
        for (ci, c) in groups.iter().enumerate() {
            if pi == ci || p.lanes() != c.lanes() {
                continue;
            }
            let arity = match c.kind(dfg) {
                NodeKind::Bin(_) => 2,
                NodeKind::Un(_) | NodeKind::StoreArray(..) => 1,
                _ => 0,
            };
            for pos in 0..arity {
                let feeds = p
                    .elems
                    .iter()
                    .zip(&c.elems)
                    .all(|(&prod, &cons)| resolved_operands(dfg, cons).get(pos) == Some(&prod));
                if feeds {
                    out.push(Reuse {
                        producer: pi,
                        consumer: ci,
                        pos,
                    });
                }
            }
        }
    }
    out
}

/// Per-lane right-shift amounts for a reuse (positive = right shift).
fn scaling_amounts(
    spec: &FixedPointSpec,
    dfg: &Dfg,
    producer: &SimdGroup,
    consumer: &SimdGroup,
    pos: usize,
) -> Vec<i32> {
    producer
        .elems
        .iter()
        .zip(&consumer.elems)
        .map(|(&prod, &cons)| {
            let f1 = value_format(spec, dfg, prod).fwl;
            let f3 = consumer_input_fwl(spec, dfg, cons, pos);
            f1 - f3
        })
        .collect()
}

/// The fractional grid at which a consumer lane absorbs operand `pos`.
fn consumer_input_fwl(spec: &FixedPointSpec, dfg: &Dfg, cons: NodeId, pos: usize) -> i32 {
    let node = dfg.node(cons);
    match &node.kind {
        // Multiplication shifts at the result: the producer-side budget of
        // lane k is out_fwl - other_operand_fwl.
        NodeKind::Bin(BinOp::Mul) => {
            let out = value_format(spec, dfg, cons).fwl;
            let other_pos = 1 - pos;
            let other = resolved_operands(dfg, cons)
                .get(other_pos)
                .map(|&o| value_format(spec, dfg, o).fwl)
                .unwrap_or(0);
            out - other
        }
        // Additive operations pre-align operands on the result grid.
        NodeKind::Bin(_) | NodeKind::Un(_) => value_format(spec, dfg, cons).fwl,
        NodeKind::StoreArray(a, _) => spec.format(SpecKey::Array(*a)).fwl,
        _ => value_format(spec, dfg, cons).fwl,
    }
}

/// Runs the scaling optimization over the selected groups of one block
/// (fig. 1b), mutating `spec` where the accuracy budget allows.
pub fn scaling_optimize(
    spec: &mut FixedPointSpec,
    dfg: &Dfg,
    groups: &[SimdGroup],
    eval: &dyn AccuracyEvaluator,
    constraint_db: f64,
    target: &TargetModel,
) -> ScalOptReport {
    let mut report = ScalOptReport::default();
    // Each equalization attempt is one trial over the lane keys it
    // shrinks; incremental evaluators re-walk only those keys' sources.
    eval.begin(spec);
    // Spend the accuracy budget on the most expensive mismatches first:
    // reuses are processed in descending order of the cycle penalty their
    // lane width carries on this target (stable for equal penalties, so
    // same-width reuses keep their discovery order).
    let mut reuses = superword_reuses(dfg, groups);
    reuses.sort_by(|a, b| {
        let pa = fig2_penalty_cycles(target, groups[a.producer].lanes());
        let pb = fig2_penalty_cycles(target, groups[b.producer].lanes());
        pb.partial_cmp(&pa).expect("finite penalties")
    });
    for reuse in reuses {
        report.reuses += 1;
        let p = &groups[reuse.producer];
        let c = &groups[reuse.consumer];
        let amounts = scaling_amounts(spec, dfg, p, c, reuse.pos);
        let min = *amounts.iter().min().expect("non-empty group");
        let max = *amounts.iter().max().expect("non-empty group");
        if min == max {
            report.already_uniform += 1;
            continue;
        }
        if min < 0 {
            // Mixed or left shifts: out of scope for this transformation
            // (the paper only equalizes all-positive amounts).
            report.skipped += 1;
            continue;
        }
        let mark = spec.mark();
        let applied = if per_lane_keys(dfg, p).is_some() {
            // Producer-side: lane k shifts S[k] - min less afterwards.
            let keys = per_lane_keys(dfg, p).expect("checked above");
            for (key, &s) in keys.iter().zip(&amounts) {
                shrink(spec, *key, s - min);
            }
            true
        } else if let Some(keys) = per_lane_keys(dfg, c) {
            // Consumer-side: all lanes end up shifting by max.
            for (key, &s) in keys.iter().zip(&amounts) {
                shrink(spec, *key, max - s);
            }
            true
        } else {
            false
        };
        if !applied {
            report.skipped += 1;
            spec.rollback(mark);
            continue;
        }
        #[cfg(test)]
        crate::hooks::audit::count_trial();
        if eval.trial_meets(spec, mark, constraint_db) {
            spec.commit(mark);
            eval.commit_trial();
            report.equalized += 1;
            report.cycles_saved += fig2_penalty_cycles(target, groups[reuse.producer].lanes());
        } else {
            spec.rollback(mark);
            eval.rollback_trial();
            report.reverted += 1;
        }
    }
    report
}

/// Per-lane spec keys of a group when every lane has its own format
/// (operation groups). Memory-backed groups share one storage format and
/// return `None`.
fn per_lane_keys(dfg: &Dfg, g: &SimdGroup) -> Option<Vec<SpecKey>> {
    let mut keys = Vec::with_capacity(g.elems.len());
    for &e in &g.elems {
        match dfg.node(e).kind {
            NodeKind::Bin(_) | NodeKind::Un(_) | NodeKind::ReadInput(_) => {
                keys.push(node_key(dfg, e)?);
            }
            _ => return None,
        }
    }
    Some(keys)
}

fn shrink(spec: &mut FixedPointSpec, key: SpecKey, delta: i32) {
    if delta > 0 {
        let fmt = spec.format(key).shrink_fwl(delta);
        spec.set_format(key, fmt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_accuracy::AnalyticalEvaluator;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_fixedpoint::QFormat;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::Kernel;
    use slpwlo_targets::xentium;

    /// Two muls feeding two adds lane-wise: {m0,m1} -> {s0,s1}.
    const SRC: &str = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var m0;
    var m1;
    var s0;
    var s1;
    shiftin dl <- x;
    m0 = c[0] * dl[0];
    m1 = c[1] * dl[1];
    s0 = m0 + c[2] * dl[2];
    s1 = m1 + c[3] * dl[3];
    y = s0 + s1;
}
"#;

    fn setup() -> (Kernel, Dfg, FixedPointSpec, AnalyticalEvaluator) {
        let k = parse_kernel(SRC).unwrap();
        let r = determine_ranges(&k);
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let eval = AnalyticalEvaluator::new(&k);
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_stmts(&k, &blocks[0].stmts);
        (k, dfg, spec, eval)
    }

    fn mul_add_groups(dfg: &Dfg) -> (SimdGroup, SimdGroup) {
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let adds: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Add)))
            .map(|(i, _)| i)
            .collect();
        // m0 = muls[0], m1 = muls[1] (c2*dl2 is muls[2], c3*dl3 muls[3]);
        // s0 = adds[0], s1 = adds[1]. Lane-wise: m_k feeds s_k at pos 0.
        (
            SimdGroup {
                elems: vec![muls[0], muls[1]],
            },
            SimdGroup {
                elems: vec![adds[0], adds[1]],
            },
        )
    }

    #[test]
    fn finds_superword_reuse() {
        let (_, dfg, _, _) = setup();
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let adds: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Add)))
            .map(|(i, _)| i)
            .collect();
        let g_m = SimdGroup {
            elems: vec![muls[0], muls[1]],
        };
        let g_a = SimdGroup {
            elems: vec![adds[0], adds[1]],
        };
        let groups = vec![g_m, g_a];
        let reuses = superword_reuses(&dfg, &groups);
        assert!(
            reuses.contains(&Reuse {
                producer: 0,
                consumer: 1,
                pos: 0
            }),
            "mul pair feeds add pair at position 0: {reuses:?}"
        );
    }

    #[test]
    fn uniform_amounts_are_skipped() {
        let (_, dfg, mut spec, eval) = setup();
        let (g_m, g_a) = {
            let muls: Vec<NodeId> = dfg
                .iter()
                .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Mul)))
                .map(|(i, _)| i)
                .collect();
            let adds: Vec<NodeId> = dfg
                .iter()
                .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Add)))
                .map(|(i, _)| i)
                .collect();
            (
                SimdGroup {
                    elems: vec![muls[0], muls[1]],
                },
                SimdGroup {
                    elems: vec![adds[0], adds[1]],
                },
            )
        };
        // Make formats uniform by hand.
        for &e in g_m.elems.iter().chain(&g_a.elems) {
            let key = node_key(&dfg, e).unwrap();
            spec.set_format(key, QFormat::new(1, 15));
        }
        let groups = vec![g_m, g_a];
        let report = scaling_optimize(&mut spec, &dfg, &groups, &eval, -20.0, &xentium());
        assert!(report.already_uniform >= 1);
        assert_eq!(report.equalized, 0);
    }

    #[test]
    fn equalizes_mismatched_lanes_under_loose_constraint() {
        let (_, dfg, mut spec, eval) = setup();
        let (g_m, g_a) = mul_add_groups(&dfg);
        // Force mismatched producer fwls: lane 0 finer than lane 1.
        let k0 = node_key(&dfg, g_m.elems[0]).unwrap();
        let k1 = node_key(&dfg, g_m.elems[1]).unwrap();
        spec.set_format(k0, QFormat::new(1, 20));
        spec.set_format(k1, QFormat::new(1, 17));
        // Consumers at a coarser shared grid.
        for &e in &g_a.elems {
            spec.set_format(node_key(&dfg, e).unwrap(), QFormat::new(2, 14));
        }
        let groups = vec![g_m.clone(), g_a.clone()];
        let before = scaling_amounts(&spec, &dfg, &g_m, &g_a, 0);
        assert_ne!(before[0], before[1], "setup must create a mismatch");
        let report = scaling_optimize(&mut spec, &dfg, &groups, &eval, -10.0, &xentium());
        assert_eq!(report.equalized, 1, "{report:?}");
        let after = scaling_amounts(&spec, &dfg, &g_m, &g_a, 0);
        assert_eq!(after[0], after[1], "amounts must be equal after: {after:?}");
        // Word lengths unchanged (FWL traded for IWL).
        assert_eq!(spec.format(k0).wl(), 21);
    }

    #[test]
    fn reverts_under_impossible_constraint() {
        let (_, dfg, mut spec, eval) = setup();
        let (g_m, g_a) = mul_add_groups(&dfg);
        let k0 = node_key(&dfg, g_m.elems[0]).unwrap();
        let k1 = node_key(&dfg, g_m.elems[1]).unwrap();
        spec.set_format(k0, QFormat::new(1, 20));
        spec.set_format(k1, QFormat::new(1, 17));
        for &e in &g_a.elems {
            spec.set_format(node_key(&dfg, e).unwrap(), QFormat::new(2, 14));
        }
        let before0 = spec.format(k0);
        let groups = vec![g_m.clone(), g_a.clone()];
        let report = scaling_optimize(&mut spec, &dfg, &groups, &eval, -500.0, &xentium());
        assert_eq!(report.equalized, 0);
        assert!(report.reverted >= 1, "{report:?}");
        assert_eq!(spec.format(k0), before0, "rollback must restore formats");
    }
}

#[cfg(test)]
mod consumer_side_tests {
    //! When the producer lanes share one storage format (a load group),
    //! equalization must fall back to reducing the *consumer* lane
    //! formats (all lanes then shift by the max amount).
    use super::*;
    use slpwlo_accuracy::AnalyticalEvaluator;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_fixedpoint::QFormat;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::xentium;

    #[test]
    fn load_group_reuse_equalizes_consumer_lanes() {
        // Two muls consuming an array-load pair: dl loads share the
        // array's format, so mismatched result shifts can only be fixed
        // on the mul side.
        let src = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[2] = { 0.4, 0.3 };
    array dl[2];
    var m0;
    var m1;
    shiftin dl <- x;
    m0 = c[0] * dl[0];
    m1 = c[1] * dl[1];
    y = m0 + m1;
}
"#;
        let k = parse_kernel(src).unwrap();
        let r = determine_ranges(&k);
        let mut spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let eval = AnalyticalEvaluator::new(&k);
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_block(&k, &blocks[0]);
        let loads: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::LoadArray(..)))
            .map(|(i, _)| i)
            .collect();
        let muls: Vec<NodeId> = dfg
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Bin(BinOp::Mul)))
            .map(|(i, _)| i)
            .collect();
        let g_load = SimdGroup {
            elems: loads.clone(),
        };
        let g_mul = SimdGroup {
            elems: muls.clone(),
        };
        // Force mismatched mul result shifts: different output fwls.
        let mk0 = node_key(&dfg, muls[0]).unwrap();
        let mk1 = node_key(&dfg, muls[1]).unwrap();
        spec.set_format(mk0, QFormat::new(0, 18));
        spec.set_format(mk1, QFormat::new(0, 15));
        let groups = vec![g_load.clone(), g_mul.clone()];
        let before = scaling_amounts(&spec, &dfg, &g_load, &g_mul, 1);
        assert_ne!(before[0], before[1], "setup must mismatch: {before:?}");
        let report = scaling_optimize(&mut spec, &dfg, &groups, &eval, -10.0, &xentium());
        assert!(report.equalized >= 1, "{report:?}");
        let after = scaling_amounts(&spec, &dfg, &g_load, &g_mul, 1);
        assert_eq!(after[0], after[1], "consumer-side equalization: {after:?}");
        // Word lengths preserved.
        assert_eq!(spec.format(mk0).wl(), 18);
        assert_eq!(spec.format(mk1).wl(), 15);
    }
}
