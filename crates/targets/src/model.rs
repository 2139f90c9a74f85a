//! The target description data model.

use std::fmt;

/// Functional-unit classes of the VLIW data-path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU (add/sub/logic/moves/packs).
    Alu,
    /// Multiplier.
    Mul,
    /// Memory port (loads/stores).
    Mem,
    /// Shifter.
    Shift,
    /// Floating-point unit (hardware-float targets only).
    Fpu,
}

/// Per-cycle issue capacity of each functional-unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuSet {
    /// Number of ALU issues per cycle.
    pub alu: u32,
    /// Number of multiplier issues per cycle.
    pub mul: u32,
    /// Number of memory accesses per cycle.
    pub mem: u32,
    /// Number of shift issues per cycle.
    pub shift: u32,
    /// Number of FP issues per cycle (zero without an FPU).
    pub fpu: u32,
}

impl FuSet {
    /// Capacity for one class.
    pub fn of(&self, class: OpClass) -> u32 {
        match class {
            OpClass::Alu => self.alu,
            OpClass::Mul => self.mul,
            OpClass::Mem => self.mem,
            OpClass::Shift => self.shift,
            OpClass::Fpu => self.fpu,
        }
    }
}

/// One supported SIMD configuration (`lanes` sub-words of `elem_wl` bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdConfig {
    /// Number of packed elements.
    pub lanes: u32,
    /// Element word length in bits.
    pub elem_wl: i32,
}

/// Which scheduler prices (and legalizes) machine blocks.
///
/// Lives next to the cost model rather than in `slpwlo-core` because
/// every layer that prices code — the SLP benefit model, the core
/// scheduler, the verifier, the driver — needs the type, and `slpwlo-slp`
/// cannot depend on `slpwlo-core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// Sequential-issue resource-constrained list scheduling: iterations
    /// of a loop block execute back to back.
    #[default]
    List,
    /// Iterative modulo scheduling (software pipelining) for in-loop
    /// blocks: a branch-and-bound search overlaps iterations at the
    /// smallest initiation interval it can decide. `budget` caps the
    /// branch-and-bound placement trials per candidate II; an II whose
    /// search exhausts the budget is abandoned and the next II is tried,
    /// and when no II yields a placement the block falls back to its
    /// list schedule, so pricing is always defined. Blocks that are not
    /// in a loop (or not pipelinable) use the list schedule regardless.
    Modulo {
        /// Maximum branch-and-bound placement trials per block.
        budget: u32,
    },
}

impl SchedKind {
    /// Default branch-and-bound budget of [`SchedKind::modulo`]: ample
    /// for every kernel in the suite (which needs a few hundred trials)
    /// while still bounding adversarial generated blocks.
    pub const DEFAULT_BUDGET: u32 = 65_536;

    /// Modulo scheduling with the default trial budget.
    pub fn modulo() -> Self {
        SchedKind::Modulo {
            budget: Self::DEFAULT_BUDGET,
        }
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedKind::List => "list",
            SchedKind::Modulo { .. } => "modulo",
        })
    }
}

/// Cost of issuing one (macro-)operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Functional unit consumed.
    pub class: OpClass,
    /// Cycles from issue to result availability.
    pub latency: u32,
    /// Number of unit issue slots consumed (macro-expansion for e.g.
    /// 32-bit multiplies on a 16x16 multiplier).
    pub slots: u32,
    /// When `true` the operation occupies the entire machine for
    /// `latency` cycles (soft-float library call — no ILP around calls).
    pub serialize: bool,
}

impl OpCost {
    fn unit(class: OpClass, latency: u32) -> Self {
        OpCost {
            class,
            latency,
            slots: 1,
            serialize: false,
        }
    }
}

/// Abstract machine operations whose cost a target can be asked for.
///
/// The lowered machine program of `slpwlo-core` maps onto these queries;
/// keeping them here avoids a dependency cycle between the target models
/// and the lowering. Queries are small `Copy` values and hash cheaply,
/// which is what lets [`crate::CycleCache`] memoize their prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpQuery {
    /// Scalar add/sub/neg at the given word length. Word lengths above
    /// the datapath split into a carry chain (add + add-with-carry).
    Add(i32),
    /// Scalar multiply at the given word length.
    Mul(i32),
    /// Scalar shift (scaling) at the given word length. Word lengths
    /// above the datapath need a multi-word shift (hi, lo, combine).
    Shift(i32),
    /// Scalar load of the given word length.
    Load(i32),
    /// Scalar store of the given word length.
    Store(i32),
    /// SIMD add/sub over `lanes` sub-words.
    VAdd(u32),
    /// SIMD multiply over `lanes` sub-words.
    VMul(u32),
    /// SIMD shift (same amount per lane) over `lanes` sub-words.
    VShift(u32),
    /// SIMD (contiguous, aligned) load of `lanes` sub-words.
    VLoad(u32),
    /// SIMD store of `lanes` sub-words.
    VStore(u32),
    /// SIMD load of `lanes` sub-words from a contiguous but misaligned
    /// address (the access plus the realign op lowering emits after it).
    VLoadU(u32),
    /// SIMD store of `lanes` sub-words to a misaligned address.
    VStoreU(u32),
    /// Non-contiguous vector load: `lanes` scalar loads feeding one
    /// register (the pack that completes the gather is ALU traffic,
    /// priced separately — see [`TargetModel::cycles`]).
    Gather(u32),
    /// Non-contiguous vector store: `lanes` scalar stores draining one
    /// register (the per-lane extracts are ALU traffic, priced
    /// separately — see [`TargetModel::cycles`]).
    Scatter(u32),
    /// Build one vector register from `lanes` scalar values.
    Pack(u32),
    /// Broadcast one scalar value into all `lanes`.
    Splat(u32),
    /// Extract one scalar from a vector register.
    Extract,
    /// Floating-point add (hardware or soft-float).
    FAdd,
    /// Floating-point multiply (hardware or soft-float).
    FMul,
    /// Float load.
    FLoad,
    /// Float store.
    FStore,
}

/// A complete processor description.
#[derive(Debug, Clone)]
pub struct TargetModel {
    /// Display name (e.g. `"XENTIUM"`).
    pub name: String,
    /// VLIW issue width (operations per cycle across all units).
    pub issue_width: u32,
    /// Scalar datapath width in bits (32 for all paper targets).
    pub datapath: i32,
    /// Natively supported scalar word lengths, descending.
    pub scalar_wls: Vec<i32>,
    /// Supported SIMD configurations.
    pub simd: Vec<SimdConfig>,
    /// Functional-unit capacities per cycle.
    pub units: FuSet,
    /// Latency of a native multiply (result width <= datapath).
    pub mul_latency: u32,
    /// Issue-slot expansion of a full-width (datapath-bit) multiply on
    /// targets whose multiplier is narrower (e.g. 16x16): number of
    /// multiplier slots consumed.
    pub wide_mul_slots: u32,
    /// Extra latency of a full-width multiply.
    pub wide_mul_latency: u32,
    /// Load-use latency.
    pub load_latency: u32,
    /// ALU ops needed to pack `lanes` scalars into one vector register is
    /// `pack_ops_per_lane * lanes`.
    pub pack_ops_per_lane: u32,
    /// ALU ops needed to extract one scalar from a vector register.
    pub unpack_ops: u32,
    /// `true` when a single-cycle barrel shifter is available (otherwise
    /// shifts cost one cycle per position — shift-register style).
    pub barrel_shifter: bool,
    /// Hardware floating point available.
    pub hw_float: bool,
    /// Latency of hardware FP add / serialized cost of soft-float add.
    pub fadd_cycles: u32,
    /// Latency of hardware FP mul / serialized cost of soft-float mul.
    pub fmul_cycles: u32,
    /// Per-iteration loop control overhead in issue slots (branch,
    /// induction update).
    pub loop_overhead_ops: u32,
}

impl TargetModel {
    /// Maximum natively supported scalar word length.
    pub fn max_wl(&self) -> i32 {
        self.scalar_wls
            .iter()
            .copied()
            .max()
            .unwrap_or(self.datapath)
    }

    /// Smallest natively supported scalar word length that can hold `wl`
    /// bits; `None` if `wl` exceeds the datapath.
    pub fn container_wl(&self, wl: i32) -> Option<i32> {
        self.scalar_wls.iter().copied().filter(|&c| c >= wl).min()
    }

    /// Equation (1) of the paper: the maximum supported element word
    /// length `m` such that `m * n_elem <= SIMD size`, restricted to the
    /// target's SIMD configurations. `None` when the target cannot
    /// execute groups of `n_elem` elements.
    pub fn simd_element_wl(&self, n_elem: u32) -> Option<i32> {
        self.simd
            .iter()
            .filter(|c| c.lanes == n_elem && c.elem_wl * n_elem as i32 <= self.datapath)
            .map(|c| c.elem_wl)
            .max()
    }

    /// All group sizes the target supports (ascending).
    pub fn group_sizes(&self) -> Vec<u32> {
        let mut sizes: Vec<u32> = self.simd.iter().map(|c| c.lanes).collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// Cost of one abstract machine operation.
    ///
    /// # Panics
    ///
    /// Panics if a SIMD query names an unsupported lane count — callers
    /// must consult [`simd_element_wl`](Self::simd_element_wl) first.
    pub fn cost(&self, q: OpQuery) -> OpCost {
        match q {
            OpQuery::Add(wl) => {
                if wl > self.datapath {
                    // Carry-chain split: low-word add + add-with-carry.
                    OpCost {
                        class: OpClass::Alu,
                        latency: 2,
                        slots: 2,
                        serialize: false,
                    }
                } else {
                    OpCost::unit(OpClass::Alu, 1)
                }
            }
            OpQuery::Mul(wl) => {
                if wl > self.native_mul_wl() {
                    OpCost {
                        class: OpClass::Mul,
                        latency: self.wide_mul_latency,
                        slots: self.wide_mul_slots,
                        serialize: false,
                    }
                } else {
                    OpCost::unit(OpClass::Mul, self.mul_latency)
                }
            }
            OpQuery::Shift(wl) => {
                // Shift-register style (no barrel shifter) occupies the
                // unit for its amount; modelled as a 2-cycle average.
                let base = if self.barrel_shifter { 1 } else { 2 };
                if wl > self.datapath {
                    // Multi-word shift: shift hi, shift lo, combine.
                    OpCost {
                        class: OpClass::Shift,
                        latency: base + 1,
                        slots: 3,
                        serialize: false,
                    }
                } else {
                    OpCost::unit(OpClass::Shift, base)
                }
            }
            OpQuery::Load(_) | OpQuery::VLoad(_) | OpQuery::FLoad => {
                OpCost::unit(OpClass::Mem, self.load_latency)
            }
            OpQuery::Store(_) | OpQuery::VStore(_) | OpQuery::FStore => {
                OpCost::unit(OpClass::Mem, 1)
            }
            // Composite queries: `cost()` prices exactly the
            // memory-access component of the op sequence lowering emits
            // (the ALU traffic — realign, pack, extracts — is lowered as
            // separate `Add`/`Pack`/`Extract` ops the scheduler prices
            // individually); [`cycles`](Self::cycles) folds the full
            // sequence. Both views derive from the same primitives, so
            // they can never drift apart.
            OpQuery::VLoadU(l) => {
                self.assert_lanes(l);
                self.cost(OpQuery::VLoad(l))
            }
            OpQuery::VStoreU(l) => {
                self.assert_lanes(l);
                self.cost(OpQuery::VStore(l))
            }
            OpQuery::Gather(l) => {
                let load = self.cost(OpQuery::Load(self.datapath));
                OpCost {
                    class: load.class,
                    latency: load.latency,
                    slots: l * load.slots,
                    serialize: false,
                }
            }
            OpQuery::Scatter(l) => {
                let store = self.cost(OpQuery::Store(self.datapath));
                OpCost {
                    class: store.class,
                    latency: store.latency,
                    slots: l * store.slots,
                    serialize: false,
                }
            }
            OpQuery::VAdd(l) => {
                self.assert_lanes(l);
                OpCost::unit(OpClass::Alu, 1)
            }
            OpQuery::VMul(l) => {
                self.assert_lanes(l);
                OpCost::unit(OpClass::Mul, self.mul_latency)
            }
            OpQuery::VShift(l) => {
                self.assert_lanes(l);
                OpCost::unit(OpClass::Shift, if self.barrel_shifter { 1 } else { 2 })
            }
            OpQuery::Pack(l) => OpCost {
                class: OpClass::Alu,
                latency: 1,
                slots: self.pack_ops_per_lane * l,
                serialize: false,
            },
            OpQuery::Splat(_) => OpCost::unit(OpClass::Alu, 1),
            OpQuery::Extract => OpCost {
                class: OpClass::Alu,
                latency: 1,
                slots: self.unpack_ops,
                serialize: false,
            },
            OpQuery::FAdd => self.float_cost(self.fadd_cycles),
            OpQuery::FMul => self.float_cost(self.fmul_cycles),
        }
    }

    /// Throughput price of one abstract operation in cycles — the
    /// steady-state cost of issuing it once per loop iteration, derived
    /// from [`cost`](Self::cost): `slots / min(unit capacity, issue
    /// width)` for pipelined ops, the full latency for serializing ones.
    ///
    /// Composite queries fold over the same primitive
    /// [`cost`](Self::cost) calls the scheduler prices for the lowered
    /// program, so selection and scheduling can never disagree on a
    /// pack/unpack/gather price:
    ///
    /// * [`OpQuery::Gather`] = `lanes` scalar loads + one [`OpQuery::Pack`];
    /// * [`OpQuery::Scatter`] = `lanes` extracts + `lanes` scalar stores;
    /// * [`OpQuery::VLoadU`]/[`OpQuery::VStoreU`] = the aligned access +
    ///   the one-ALU-op realign lowering emits after/before it.
    ///
    /// This is the single cost source of the SLP benefit layer
    /// (`slpwlo-slp`'s `BenefitKind::Cycles`).
    pub fn cycles(&self, q: OpQuery) -> f64 {
        match q {
            OpQuery::Gather(l) => {
                l as f64 * self.cycles(OpQuery::Load(self.datapath)) + self.cycles(OpQuery::Pack(l))
            }
            OpQuery::Scatter(l) => {
                l as f64
                    * (self.cycles(OpQuery::Extract) + self.cycles(OpQuery::Store(self.datapath)))
            }
            OpQuery::VLoadU(l) => {
                self.cycles(OpQuery::VLoad(l)) + self.cycles(OpQuery::Add(self.datapath))
            }
            OpQuery::VStoreU(l) => {
                self.cycles(OpQuery::VStore(l)) + self.cycles(OpQuery::Add(self.datapath))
            }
            _ => {
                let c = self.cost(q);
                if c.serialize {
                    c.latency as f64
                } else {
                    let cap = self.units.of(c.class).min(self.issue_width).max(1);
                    c.slots as f64 / cap as f64
                }
            }
        }
    }

    /// Widest multiply executed natively in one multiplier slot.
    fn native_mul_wl(&self) -> i32 {
        if self.wide_mul_slots > 1 {
            16
        } else {
            self.datapath
        }
    }

    fn float_cost(&self, cycles: u32) -> OpCost {
        if self.hw_float {
            OpCost::unit(OpClass::Fpu, cycles)
        } else {
            // Soft-float library call: serializes the machine.
            OpCost {
                class: OpClass::Alu,
                latency: cycles,
                slots: 1,
                serialize: true,
            }
        }
    }

    fn assert_lanes(&self, lanes: u32) {
        assert!(
            self.simd.iter().any(|c| c.lanes == lanes),
            "target {} does not support {}-lane SIMD",
            self.name,
            lanes
        );
    }
}

impl fmt::Display for TargetModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}-issue", self.name, self.issue_width)?;
        for c in &self.simd {
            write!(f, ", {}x{}", c.lanes, c.elem_wl)?;
        }
        write!(
            f,
            "{})",
            if self.hw_float {
                ", hw-float"
            } else {
                ", soft-float"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{st240, vex, xentium};

    #[test]
    fn equation_one_on_2x16_targets() {
        let x = xentium();
        assert_eq!(x.simd_element_wl(2), Some(16));
        assert_eq!(x.simd_element_wl(4), None, "XENTIUM has no 4x8 SIMD");
        let v = vex(4);
        assert_eq!(v.simd_element_wl(2), Some(16));
        assert_eq!(v.simd_element_wl(4), Some(8));
    }

    #[test]
    fn container_wl_rounds_up() {
        let x = xentium();
        assert_eq!(x.container_wl(13), Some(16));
        assert_eq!(x.container_wl(16), Some(16));
        assert_eq!(x.container_wl(17), Some(32));
        assert_eq!(x.container_wl(33), None);
    }

    #[test]
    fn wide_mul_expands_on_xentium_but_not_st240() {
        let x = xentium();
        let wide = x.cost(OpQuery::Mul(32));
        let narrow = x.cost(OpQuery::Mul(16));
        assert!(
            wide.slots > narrow.slots,
            "32-bit mul must expand on a 16x16 multiplier"
        );
        let s = st240();
        assert_eq!(
            s.cost(OpQuery::Mul(32)).slots,
            1,
            "ST240 multiplies 32-bit natively"
        );
    }

    #[test]
    fn soft_float_serializes_only_without_fpu() {
        let x = xentium();
        assert!(x.cost(OpQuery::FAdd).serialize);
        assert!(x.cost(OpQuery::FAdd).latency >= 20);
        let s = st240();
        assert!(!s.cost(OpQuery::FAdd).serialize);
        assert_eq!(s.cost(OpQuery::FAdd).class, OpClass::Fpu);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_lanes_panic() {
        let x = xentium();
        let _ = x.cost(OpQuery::VMul(4));
    }

    #[test]
    fn wide_add_and_shift_split_above_the_datapath() {
        let x = xentium();
        assert_eq!(x.cost(OpQuery::Add(32)).slots, 1);
        assert_eq!(x.cost(OpQuery::Add(40)).slots, 2, "carry-chain split");
        assert_eq!(x.cost(OpQuery::Shift(32)).slots, 1);
        assert_eq!(x.cost(OpQuery::Shift(40)).slots, 3, "multi-word shift");
    }

    #[test]
    fn composite_cycles_fold_over_primitive_costs() {
        for t in [xentium(), st240(), vex(4), vex(1)] {
            let l = 2;
            let gather = t.cycles(OpQuery::Gather(l));
            let parts = l as f64 * t.cycles(OpQuery::Load(t.datapath)) + t.cycles(OpQuery::Pack(l));
            assert_eq!(gather, parts, "{}", t.name);
            let scatter = t.cycles(OpQuery::Scatter(l));
            assert_eq!(
                scatter,
                l as f64 * (t.cycles(OpQuery::Extract) + t.cycles(OpQuery::Store(t.datapath))),
                "{}",
                t.name
            );
            assert!(
                t.cycles(OpQuery::VLoadU(l)) > t.cycles(OpQuery::VLoad(l)),
                "{}: misalignment must cost",
                t.name
            );
        }
    }

    #[test]
    fn single_issue_prices_packing_at_full_cycles() {
        // The motivating case: on VEX-1 every pack insert is a whole
        // cycle, while on 12-issue XENTIUM four ALUs absorb them.
        let narrow = vex(1);
        let wide = xentium();
        assert_eq!(narrow.cycles(OpQuery::Pack(2)), 2.0);
        assert_eq!(wide.cycles(OpQuery::Pack(2)), 0.5);
        assert_eq!(narrow.cycles(OpQuery::Extract), 1.0);
    }

    #[test]
    fn wide_mul_cycles_reflect_macro_expansion() {
        let x = xentium(); // 16x16 multiplier, 2 units
        assert!(x.cycles(OpQuery::Mul(32)) > x.cycles(OpQuery::Mul(16)));
        assert_eq!(x.cycles(OpQuery::Mul(32)), 2.0, "4 slots over 2 units");
        let s = st240(); // native 32x32
        assert_eq!(s.cycles(OpQuery::Mul(32)), s.cycles(OpQuery::Mul(16)));
    }

    #[test]
    fn soft_float_cycles_are_the_serialized_latency() {
        let x = xentium();
        assert_eq!(x.cycles(OpQuery::FAdd), x.fadd_cycles as f64);
    }

    #[test]
    fn splat_is_one_broadcast_op() {
        for t in [xentium(), vex(1)] {
            assert_eq!(t.cost(OpQuery::Splat(2)).slots, 1, "{}", t.name);
            assert!(t.cycles(OpQuery::Splat(2)) < t.cycles(OpQuery::Pack(2)));
        }
    }

    #[test]
    fn display_format() {
        let x = xentium();
        let s = x.to_string();
        assert!(s.contains("XENTIUM") && s.contains("2x16") && s.contains("soft-float"));
    }

    #[test]
    fn group_sizes_sorted() {
        assert_eq!(vex(1).group_sizes(), vec![2, 4]);
        assert_eq!(st240().group_sizes(), vec![2]);
    }
}
