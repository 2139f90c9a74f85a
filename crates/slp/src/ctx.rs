//! The selection context: everything pack selection reads that is not
//! the round itself.

use crate::benefit::BenefitKind;
use crate::optimal::SelectStats;
use slpwlo_targets::{CycleCache, SchedKind, TargetModel};

/// One flow leg's selection context.
///
/// Everything but `stats` is fixed for the leg: the target and its
/// memoized op prices, the candidate-pricing strategy, the scheduler
/// blocks are priced under, and whether fig. 1b scaling equalization
/// follows extraction. The greedy loop, the exact selector and the
/// flows' scheduler guard all read them from here, and the exact
/// selector accumulates its search statistics into `stats`.
#[derive(Debug)]
pub struct PassCtx<'t> {
    /// The target the leg compiles for.
    pub target: &'t TargetModel,
    /// Memoized op prices of `target`, shared by every round and block
    /// of the leg's selection. The cache is a pure memo, so sharing it
    /// cannot move a decision.
    pub costs: CycleCache<'t>,
    /// The candidate-pricing strategy.
    pub benefit: BenefitKind,
    /// The scheduler the leg prices (and will run) blocks under. Under
    /// [`SchedKind::Modulo`] the cycle-priced model drops its
    /// latency-boundedness admission hedge: overlapped iterations hide
    /// pack/extract chain hops, so slot pressure is the honest price.
    pub sched: SchedKind,
    /// Whether a scaling-equalization pass (fig. 1b) runs after
    /// extraction. The cycle-priced model then prices equalizable
    /// mismatched scalings as one vector shift: the accuracy-aware
    /// WLO↔SLP flow sets it, the equalization-free `WLO-First` baseline
    /// does not.
    pub equalize: bool,
    /// Exact-selector search statistics accumulated across every round
    /// and block of the leg (all zeros under the greedy kinds).
    pub stats: SelectStats,
}

impl<'t> PassCtx<'t> {
    /// A fresh context compiling for `target`, with an empty price
    /// cache and zeroed statistics.
    pub fn new(
        target: &'t TargetModel,
        benefit: BenefitKind,
        sched: SchedKind,
        equalize: bool,
    ) -> Self {
        PassCtx {
            target,
            costs: CycleCache::new(target),
            benefit,
            sched,
            equalize,
            stats: SelectStats::default(),
        }
    }
}

#[cfg(test)]
impl<'t> PassCtx<'t> {
    /// A list-scheduled, equalization-free context over `target`.
    pub(crate) fn plain(target: &'t TargetModel, benefit: BenefitKind) -> Self {
        PassCtx::new(target, benefit, SchedKind::List, false)
    }
}
