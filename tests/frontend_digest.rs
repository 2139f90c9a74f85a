//! Golden front-end digests: pins range determination and noise-gain
//! measurement at their **default** options to constants, so a change to
//! the executors, the coefficient sweep or the cone lifetimes that must
//! not move a single bit is checked against the previous commit rather
//! than only against a second code path of the same commit.
//!
//! `gains_differential` compares the batched gain path with the
//! per-impulse reference at reduced sizes (128 coefficient activations).
//! Both paths replay the same kernel tape, and the reduced sizes never
//! reach a real coefficient-sweep warm-up on long-lived kernels (DOT's
//! lifetime is 256 activations, FIR's 64). These constants are recorded
//! at the defaults (1 024 coefficient activations) and do not depend on
//! any executor.
//!
//! Each kernel's range digest is a fixed-key FNV-1a hash over the range
//! method and the bits of every expression, array and parameter
//! interval; its gain digest hashes every measured source's `(G1, G2)`
//! bits in source order, and must be the same for 1 and 3 workers.
//!
//! When a change is *meant* to move these figures, the failure message
//! prints the whole table in source form for re-recording.

use slpwlo::accuracy::gains::measure_gains;
use slpwlo::accuracy::GainOptions;
use slpwlo::fixedpoint::range::RangeOptions;
use slpwlo::fixedpoint::{determine_ranges, Interval, RangeMethod};
use slpwlo::gen::KernelGen;
use slpwlo::ir::Kernel;
use slpwlo::kernels::all_benchmarks;

/// 64-bit FNV-1a with the standard offset basis and prime.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn interval(&mut self, iv: Interval) {
        self.u64(iv.lo.to_bits());
        self.u64(iv.hi.to_bits());
    }
}

fn ranges_digest(kernel: &Kernel) -> u64 {
    let r = determine_ranges(kernel, &RangeOptions::default());
    let mut h = Fnv::new();
    match r.method {
        RangeMethod::Interval => h.u64(0),
        RangeMethod::Simulation {
            activations,
            margin,
        } => {
            h.u64(1);
            h.u64(activations as u64);
            h.u64(margin.to_bits());
        }
    }
    for iv in &r.exprs {
        match iv {
            Some(iv) => {
                h.u64(1);
                h.interval(*iv);
            }
            None => h.u64(0),
        }
    }
    for iv in r.arrays.iter().chain(&r.params) {
        h.interval(*iv);
    }
    h.0
}

fn gains_digest(kernel: &Kernel, threads: usize) -> u64 {
    let opts = GainOptions {
        threads,
        ..GainOptions::default()
    };
    let gains = measure_gains(kernel, &opts);
    let mut h = Fnv::new();
    h.u64(gains.len() as u64);
    for (e, (g1, g2)) in gains.iter() {
        h.u64(e.index() as u64);
        h.u64(g1.to_bits());
        h.u64(g2.to_bits());
    }
    h.0
}

/// The 8 suite kernels plus the generator seeds of `GEN_SEEDS` that
/// build, labelled.
fn kernels() -> Vec<(String, Kernel)> {
    let mut out: Vec<(String, Kernel)> = all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), b.kernel))
        .collect();
    for seed in GEN_SEEDS {
        if let Ok(k) = KernelGen::with_seed(seed).gen_plan().build() {
            out.push((format!("gk{seed}"), k));
        }
    }
    out
}

/// The seeded `slpwlo-gen` slice.
const GEN_SEEDS: std::ops::Range<u64> = 0..32;

/// `(label, ranges digest, gains digest)`. Re-record only for a change
/// meant to move front-end figures, and say so in the change log.
const GOLDEN: &[(&str, (u64, u64))] = &[
    ("FIR", (0x5117ad593f81a03b, 0x67a9c3a73208e5c6)),
    ("IIR", (0xa98d28f2654897fb, 0x73ab7ebc7ddb6066)),
    ("CONV", (0x6520fd3945d70828, 0x11283ae23366db6d)),
    ("DOT", (0x9c14f91b58ceb0e4, 0xab1749ba3b14dcc7)),
    ("MATVEC", (0x7ed757f3200736ef, 0x4bccfeb9ab2c0eae)),
    ("BIQUAD", (0x3198b8f8bd910aac, 0xefe0a8d572c20a24)),
    ("CFIR", (0x533de20793f0f69c, 0x6d671070637b15b4)),
    ("POLY", (0x6fd2e988a4a20d4b, 0xaec050740ed0d152)),
    ("gk0", (0x65769858b152b203, 0xceb82ebf33e6a203)),
    ("gk1", (0xa119d7fd43c54de4, 0x0fc11a687b4d48bd)),
    ("gk2", (0xaab71a563cf0dd34, 0xca2ad5fe255e75b6)),
    ("gk3", (0xe4ad9f0d357c3a68, 0x3ae5328400e2a9a4)),
    ("gk4", (0x72362f212a273fa8, 0x6c4cf46a92467faa)),
    ("gk5", (0x2b8066d792fc0753, 0xf77819997106beac)),
    ("gk6", (0x675ec8ac680329b3, 0x0e1978c2073ac6c7)),
    ("gk7", (0x9837221386ab5cd5, 0xa6ae7e8ec07b27cc)),
    ("gk8", (0x1170b1781b1d3278, 0x1db9075a515d4ba9)),
    ("gk9", (0x085e01074bbd32ef, 0x15817975ea9cfdd4)),
    ("gk10", (0xce6d42d8cc4235ae, 0x0803c8f715a09ab8)),
    ("gk11", (0xd32be7f5e6732794, 0x9a14d4a5ddf850b3)),
    ("gk12", (0x16200ac79663b636, 0xe76896b693f0205d)),
    ("gk13", (0x19d7773951e5d061, 0x2214caeed1c79a52)),
    ("gk14", (0x48b18f0ca0a4832d, 0x44bd3bb26c506caf)),
    ("gk15", (0x4d8a0ad17be28920, 0x2aae2fcd31a022af)),
    ("gk16", (0x3e62dda3ad8264dc, 0x48b2e91e5abd9bd7)),
    ("gk17", (0xdab000803e1b5d2f, 0x5c5e1550f033a2b2)),
    ("gk18", (0xe9b09fb2f8b36391, 0x527bbdf50ebf4e8e)),
    ("gk19", (0xe03bcb7ce767c534, 0x9a2cd72dce3f48bf)),
    ("gk20", (0x224b0b66e78432d0, 0x087382e331bc18bc)),
    ("gk21", (0x774396f7ceb40ade, 0x4ea40c6818e9c10e)),
    ("gk22", (0xac7c874049977892, 0x7dcc20883ce33404)),
    ("gk23", (0x3c0525f0230bcdf5, 0xfbc65a0232205231)),
    ("gk24", (0x7b89711be64e831b, 0x7a47dec626d4509c)),
    ("gk25", (0x3363b4c6bf1cd249, 0xd7a7604633fa841d)),
    ("gk26", (0x5f4a3790db185750, 0x3a4092b859803b3d)),
    ("gk27", (0x983ae2a4b37657ce, 0x236d75f1be51d632)),
    ("gk28", (0xd2447efc5fe50ab3, 0x303b083abae7ddd9)),
    ("gk29", (0x0fef54ec6345f9d9, 0x49a70fda956d50ce)),
    ("gk30", (0xaaba39bfde94c273, 0xcc1a68eb7358b4ec)),
    ("gk31", (0x4cb74d0f924ad792, 0x93f2dcc4d9be4397)),
];

#[test]
fn front_end_matches_recorded_digests() {
    let mut got = Vec::new();
    for (label, k) in kernels() {
        let g1 = gains_digest(&k, 1);
        let g3 = gains_digest(&k, 3);
        assert_eq!(g1, g3, "{label}: gains differ between 1 and 3 workers");
        got.push((label, (ranges_digest(&k), g1)));
    }
    let expected: Vec<(String, (u64, u64))> =
        GOLDEN.iter().map(|(l, v)| (l.to_string(), *v)).collect();
    let table: String = got
        .iter()
        .map(|(l, (r, g))| format!("    (\"{l}\", ({r:#018x}, {g:#018x})),\n"))
        .collect();
    assert!(
        got == expected,
        "front-end digests drifted from the recorded ones; current table:\n{table}"
    );
}
