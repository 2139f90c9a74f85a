//! Bit-accurate execution of lowered machine programs.
//!
//! Substitutes for the vendor instruction-set simulators of the paper's
//! evaluation: [`execute_fixed`] interprets a lowered fixed-point
//! program operation by operation, reproducing the exact arithmetic the
//! generated C would perform. Cycle counting (list and modulo
//! scheduling onto the target's issue slots and functional units) lives
//! in `slpwlo-core`'s `sched` module, where the compilation flows can
//! consult schedules when pruning unprofitable packs — use
//! `slpwlo_core::schedule_block` for a block's schedule and
//! `slpwlo_core::BlockPrices` for block and program cycle counts.

pub mod exec;

pub use exec::{execute_fixed, ExecError, Machine};

/// Speedup of `cycles` relative to `baseline` (equation (2) of the
/// paper: `baseline / cycles`).
///
/// # Panics
///
/// Panics if `cycles` is zero.
pub fn speedup(baseline: u64, cycles: u64) -> f64 {
    assert!(cycles > 0, "cycle count must be positive");
    baseline as f64 / cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_ratio() {
        assert_eq!(speedup(100, 50), 2.0);
        assert_eq!(speedup(50, 100), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycles_panics() {
        let _ = speedup(1, 0);
    }
}
