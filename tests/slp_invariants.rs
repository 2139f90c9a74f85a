//! Property tests for SLP extraction invariants over generated kernels.
//!
//! goSLP's lesson: packing decisions are only trustworthy when they are
//! validated across diverse statement mixes, not just the three shapes
//! the paper evaluates. For a seeded corpus of generated kernels (the
//! in-tree deterministic `rand`, no proptest), every pack selected by
//! the accuracy-unaware extraction must be:
//!
//! * **conflict-free** — lanes pairwise independent, no node in two
//!   groups, and no dependency cycle through the coarsened group graph;
//! * **isomorphic** — all lanes the same operation kind;
//! * **realisable** — the lane count is a SIMD width the target
//!   supports;
//! * **beneficial** — the vectorized program never *costs* more than
//!   the scalar baseline under the cycle model (`benefit >= 0` at the
//!   whole-program level: packing that does not pay for its
//!   pack/unpack overhead must not be selected).
//!
//! The structural invariants (the first three bullets) are now owned by
//! `slpwlo::verify::verify_groups` — the library pass the flows run at
//! every boundary — so this harness checks them by calling that pass
//! rather than re-implementing them.

mod common;

use common::plain_ctx;
use slpwlo::core::{extract_on_spec, lower_fixed, lower_scalar, total_cycles_cached, PassCtx};
use slpwlo::fixedpoint::range::{determine_ranges, RangeOptions};
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::gen::KernelGen;
use slpwlo::ir::blocks::collect_blocks;
use slpwlo::ir::Dfg;
use slpwlo::slp::BenefitKind;
use slpwlo::targets::{vex, xentium, CycleCache, SchedKind};
use slpwlo::verify::verify_groups;

const SEEDS: u64 = 48;

#[test]
fn selected_packs_respect_structural_invariants() {
    for seed in 0..SEEDS {
        let kernel = KernelGen::with_seed(seed).gen();
        let ranges = determine_ranges(&kernel, &RangeOptions::default());
        for target in [xentium(), vex(4)] {
            for wl in [8, 16] {
                let spec = FixedPointSpec::from_ranges(&kernel, &ranges, wl);
                for (block, dfg, groups) in extract_on_spec(&kernel, &spec, &mut plain_ctx(&target))
                {
                    let ctx = format!("seed {seed} wl {wl} {} {}", target.name, block.id);
                    if let Err(e) = verify_groups(&dfg, &groups, &target, &ctx) {
                        panic!("{} ({}): {e}", ctx, kernel.name());
                    }
                }
            }
        }
    }
}

/// The model-level ranking-key guarantee, for both pricing strategies:
/// every candidate's ranking benefit is finite and non-negative (the
/// `argmax` is well-defined), and its full assessment carries finite
/// saved/reuse/pack components. Under the target-blind `Slots` model the
/// key is additionally *strictly* positive (a group of `L` lanes counts
/// `L - 1` saved issue slots unconditionally); the cycle-priced model
/// deliberately drops that — e.g. a gathered load pair with no reuse
/// saves nothing — which is exactly what lets the net-benefit admission
/// reject it.
#[test]
fn every_candidate_benefit_is_finite_and_rankable() {
    use slpwlo::slp::{BenefitModel, Round};
    let mut candidates_seen = 0usize;
    for seed in 0..SEEDS {
        let kernel = KernelGen::with_seed(seed).gen();
        for target in [xentium(), vex(4)] {
            for block in collect_blocks(&kernel) {
                let dfg = Dfg::from_block(&kernel, &block);
                let round = Round::new(&dfg, &target, &[]);
                for kind in [BenefitKind::Slots, BenefitKind::Cycles] {
                    let ctx = PassCtx::new(CycleCache::new(&target), kind, SchedKind::List, false);
                    let model = BenefitModel::new(&dfg, &round, &ctx, |_| 16, |_| None);
                    let alive = vec![true; round.candidates.len()];
                    for idx in 0..round.candidates.len() {
                        let b = model.benefit(idx, &alive, &[]);
                        assert!(
                            b.is_finite() && b >= 0.0,
                            "seed {seed} {} {} {kind}: candidate {idx} benefit {b}",
                            target.name,
                            block.id
                        );
                        if kind == BenefitKind::Slots {
                            assert!(b > 0.0, "the slots ranking key is strictly positive");
                        }
                        let assessed = model.assess(idx, &alive, &[]);
                        assert!(
                            assessed.saved.is_finite()
                                && assessed.reuse.is_finite()
                                && assessed.pack.is_finite()
                                && assessed.pack >= 0.0
                                && assessed.reuse >= 0.0,
                            "seed {seed} {kind}: candidate {idx} assessment {assessed:?}"
                        );
                        candidates_seen += 1;
                    }
                }
            }
        }
    }
    assert!(
        candidates_seen > 200,
        "corpus produced only {candidates_seen} candidates — coverage too thin"
    );
}

/// Whole-program benefit vs the scalar baseline: extraction runs the
/// way the flows run it — over the frozen spec's full format context
/// (`extract_on_spec`) — so the cycle-priced model sees word
/// lengths *and* per-lane scalings. Individual kernels may still lose a
/// few per-cent to scheduling effects the per-candidate estimate cannot
/// see, but losses must stay bounded on every kernel, and across the
/// corpus vectorization must win in aggregate.
#[test]
fn vectorization_benefit_holds_against_the_scalar_baseline() {
    let mut total_simd = 0u64;
    let mut total_scalar = 0u64;
    for seed in 0..SEEDS {
        let kernel = KernelGen::with_seed(seed).gen();
        let ranges = determine_ranges(&kernel, &RangeOptions::default());
        for target in [xentium(), vex(4)] {
            let spec = FixedPointSpec::from_ranges(&kernel, &ranges, 16);
            let blocks = extract_on_spec(&kernel, &spec, &mut plain_ctx(&target));
            let n_groups: usize = blocks.iter().map(|(_, _, g)| g.len()).sum();
            let simd = lower_fixed(&kernel, &spec, &target, &blocks);
            let scalar = lower_scalar(&kernel, &spec, &target);
            let costs = CycleCache::new(&target);
            let vc = total_cycles_cached(&costs, &simd, 64, SchedKind::List);
            let sc = total_cycles_cached(&costs, &scalar, 64, SchedKind::List);
            total_simd += vc;
            total_scalar += sc;
            // Per-kernel: losses happen (the op-count heuristic cannot
            // see scheduling, and tiny kernels amortize pack overhead
            // poorly) but must stay bounded — beyond 50% the benefit
            // and cycle models have genuinely diverged.
            assert!(
                2 * vc <= 3 * sc,
                "seed {seed} on {}: vectorized {vc} cycles vs scalar {sc} \
                 ({n_groups} groups) — packing overhead out of control",
                target.name
            );
        }
    }
    // Random kernels are deliberately pack-unfriendly (scalar-fed
    // operand trees, tiny blocks), so the op-count heuristic does not
    // win on this corpus the way it does on the DSP benchmarks — but
    // its aggregate regression must stay small. Tightening this to
    // "must win on net" is the acceptance bar for the cost-aware
    // benefit model (see ROADMAP).
    assert!(
        total_simd as f64 <= total_scalar as f64 * 1.15,
        "corpus aggregate: vectorized {total_simd} vs scalar {total_scalar} — \
         heuristic regression above 15%"
    );
}
