//! Golden report digests: pins the reports of a fixed slice of the
//! design space to constants, so a refactor that must not change
//! behaviour is checked against the previous commit rather than only
//! against a second code path of the same commit (which is what the
//! bitwise suites do).
//!
//! Each point's digest is a fixed-key FNV-1a hash over explicit
//! `Report` fields: every optimizable spec key's `(wl, fwl)`, the group
//! count, both cycle counts, the bits of the predicted noise and the
//! SIMD program's operations per activation. The slice is the 8 suite
//! kernels at -40 dB under both flows on XENTIUM and ST240 plus exact
//! selection with modulo scheduling on ST240 (`GOLDEN`), and on VEX-4
//! (the only target with 4-lane extension rounds) and VEX-1 plus exact
//! selection with modulo scheduling on VEX-1 (`GOLDEN_VEX`). Every
//! exact-selection point also pins all of its `Report::select` counters
//! (`SELECT`).
//!
//! When a change is *meant* to move reports, the failure message prints
//! the whole table in source form for re-recording.

use slpwlo::core::SchedKind;
use slpwlo::kernels::all_benchmarks;
use slpwlo::targets::{st240, vex, xentium, TargetModel};
use slpwlo::{BenefitKind, FlowKind, Optimizer, Report};

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

    fn i32(&mut self, v: i32) {
        self.u64(u64::from(v as u32));
    }
}

fn digest(r: &Report) -> u64 {
    let mut h = Fnv::new();
    if let Some(spec) = &r.spec {
        for key in spec.optimizable_keys(&r.kernel) {
            h.i32(spec.wl(key));
            h.i32(spec.format(key).fwl);
        }
    }
    h.u64(r.group_count as u64);
    h.u64(r.cycles_simd);
    h.u64(r.cycles_scalar);
    h.u64(r.noise_db.map_or(0, f64::to_bits));
    h.u64(r.simd.ops_per_activation());
    h.0
}

/// Digests of the slice. Re-record only for a change meant to move
/// reports, and say so in the change log.
const GOLDEN: &[(&str, u64)] = &[
    ("FIR/XENTIUM/wlo-slp", 0xf5032b0e2a41e331),
    ("FIR/XENTIUM/wlo-first", 0x08fac2bc5ddc9243),
    ("FIR/ST240/wlo-slp", 0x9911fd132b986710),
    ("FIR/ST240/wlo-first", 0xa4956eab47cb7bbc),
    ("FIR/ST240/wlo-slp/optimal+modulo", 0x9a009f4adbdd40a9),
    ("FIR/ST240/wlo-first/optimal+modulo", 0x5f672e698886dc1c),
    ("IIR/XENTIUM/wlo-slp", 0x42e42166b0db26bb),
    ("IIR/XENTIUM/wlo-first", 0x6cffd645d0d50b1c),
    ("IIR/ST240/wlo-slp", 0x6d023ec71bec37b5),
    ("IIR/ST240/wlo-first", 0x4931866c373db6cc),
    ("IIR/ST240/wlo-slp/optimal+modulo", 0x6ee95f6525c53c6d),
    ("IIR/ST240/wlo-first/optimal+modulo", 0x07a4541e1935102c),
    ("CONV/XENTIUM/wlo-slp", 0x43fa786739a0d105),
    ("CONV/XENTIUM/wlo-first", 0x43be887f6927c490),
    ("CONV/ST240/wlo-slp", 0x2cf45c2e1bdf4331),
    ("CONV/ST240/wlo-first", 0x4eefb795bebf7380),
    ("CONV/ST240/wlo-slp/optimal+modulo", 0x77db994a586ed622),
    ("CONV/ST240/wlo-first/optimal+modulo", 0xe0bc414b6a5cf4f4),
    ("DOT/XENTIUM/wlo-slp", 0x66de3a0bb046451c),
    ("DOT/XENTIUM/wlo-first", 0xb87c0c4ebc9d2ac8),
    ("DOT/ST240/wlo-slp", 0x8b689c509cc3804d),
    ("DOT/ST240/wlo-first", 0x2fb531af524868a8),
    ("DOT/ST240/wlo-slp/optimal+modulo", 0x85af31b43e779ef5),
    ("DOT/ST240/wlo-first/optimal+modulo", 0x0c424eaf29aefc18),
    ("MATVEC/XENTIUM/wlo-slp", 0x3e5a546c2e6e6161),
    ("MATVEC/XENTIUM/wlo-first", 0xe03dac202f810000),
    ("MATVEC/ST240/wlo-slp", 0x3cfac57750f4c381),
    ("MATVEC/ST240/wlo-first", 0x167f609b9781efef),
    ("MATVEC/ST240/wlo-slp/optimal+modulo", 0x1bcbc7a626e4701b),
    ("MATVEC/ST240/wlo-first/optimal+modulo", 0x103e58bcdb958161),
    ("BIQUAD/XENTIUM/wlo-slp", 0xe2f38bbadc429391),
    ("BIQUAD/XENTIUM/wlo-first", 0x6444c8172d689e47),
    ("BIQUAD/ST240/wlo-slp", 0xedcadb83cd69eb91),
    ("BIQUAD/ST240/wlo-first", 0xa147c30bdf9408c7),
    ("BIQUAD/ST240/wlo-slp/optimal+modulo", 0xa7d91091a53ab141),
    ("BIQUAD/ST240/wlo-first/optimal+modulo", 0xa147c30bdf9408c7),
    ("CFIR/XENTIUM/wlo-slp", 0x7d9ae419f7ee1b29),
    ("CFIR/XENTIUM/wlo-first", 0x860231238c7b4cca),
    ("CFIR/ST240/wlo-slp", 0x377474de8d43d7c2),
    ("CFIR/ST240/wlo-first", 0xb176887d7f83eba6),
    ("CFIR/ST240/wlo-slp/optimal+modulo", 0xec2c262080e3c7e4),
    ("CFIR/ST240/wlo-first/optimal+modulo", 0xd0a5ed61c5671eb6),
    ("POLY/XENTIUM/wlo-slp", 0x3d97c6f424d3a99f),
    ("POLY/XENTIUM/wlo-first", 0x2debfc356e9277a9),
    ("POLY/ST240/wlo-slp", 0xb032f18a805eb5e6),
    ("POLY/ST240/wlo-first", 0xdf46b55c80274a24),
    ("POLY/ST240/wlo-slp/optimal+modulo", 0x308a0bdba3345b24),
    ("POLY/ST240/wlo-first/optimal+modulo", 0x254fffb820b61e64),
];

/// Digests of the VEX slice, recorded like `GOLDEN`.
const GOLDEN_VEX: &[(&str, u64)] = &[
    ("FIR/VEX-4/wlo-slp", 0xcca01a6cde0786e6),
    ("FIR/VEX-4/wlo-first", 0x08abdcae1cb930bc),
    ("FIR/VEX-1/wlo-slp", 0xcf269fc48e1b4bbc),
    ("FIR/VEX-1/wlo-first", 0x39b7454a8141fc0c),
    ("FIR/VEX-1/wlo-slp/optimal+modulo", 0x0cc750195a2177c5),
    ("FIR/VEX-1/wlo-first/optimal+modulo", 0x1b18c42932293c4c),
    ("IIR/VEX-4/wlo-slp", 0x436e6fe099f652ce),
    ("IIR/VEX-4/wlo-first", 0x6b5535bd11d4632c),
    ("IIR/VEX-1/wlo-slp", 0x3b7d35382b4170ca),
    ("IIR/VEX-1/wlo-first", 0x806369e0a7c3e5dc),
    ("IIR/VEX-1/wlo-slp/optimal+modulo", 0x06b86702e1c17948),
    ("IIR/VEX-1/wlo-first/optimal+modulo", 0x806369e0a7c3e5dc),
    ("CONV/VEX-4/wlo-slp", 0x0638298790421964),
    ("CONV/VEX-4/wlo-first", 0x1024a244cbb86d30),
    ("CONV/VEX-1/wlo-slp", 0x17a458fbf1cb65e7),
    ("CONV/VEX-1/wlo-first", 0xed1abe7462b51f50),
    ("CONV/VEX-1/wlo-slp/optimal+modulo", 0x17a458fbf1cb65e7),
    ("CONV/VEX-1/wlo-first/optimal+modulo", 0xed1abe7462b51f50),
    ("DOT/VEX-4/wlo-slp", 0x199feda1a523a174),
    ("DOT/VEX-4/wlo-first", 0xeec9d12df9479e98),
    ("DOT/VEX-1/wlo-slp", 0x6ae403e10b5c0af8),
    ("DOT/VEX-1/wlo-first", 0xb9d870eadae5d618),
    ("DOT/VEX-1/wlo-slp/optimal+modulo", 0x18e2bee51eca1c93),
    ("DOT/VEX-1/wlo-first/optimal+modulo", 0xa1a0bff6c9dcb138),
    ("MATVEC/VEX-4/wlo-slp", 0x92e9a4e9284f3181),
    ("MATVEC/VEX-4/wlo-first", 0x0f1f7dcea762b941),
    ("MATVEC/VEX-1/wlo-slp", 0x83e9d37dc05cf510),
    ("MATVEC/VEX-1/wlo-first", 0x561cd390c9cc24c7),
    ("MATVEC/VEX-1/wlo-slp/optimal+modulo", 0x8a5a1c9f7f8e4bf6),
    ("MATVEC/VEX-1/wlo-first/optimal+modulo", 0x561cd390c9cc24c7),
    ("BIQUAD/VEX-4/wlo-slp", 0x02032ddda2e50974),
    ("BIQUAD/VEX-4/wlo-first", 0x72904bce4240b307),
    ("BIQUAD/VEX-1/wlo-slp", 0x95c0fd3e031e019c),
    ("BIQUAD/VEX-1/wlo-first", 0x053d44f162634817),
    ("BIQUAD/VEX-1/wlo-slp/optimal+modulo", 0x00fde1811d8cef71),
    ("BIQUAD/VEX-1/wlo-first/optimal+modulo", 0x053d44f162634817),
    ("CFIR/VEX-4/wlo-slp", 0x06757ba48ed62e88),
    ("CFIR/VEX-4/wlo-first", 0x901c383c81732836),
    ("CFIR/VEX-1/wlo-slp", 0xf5ba63e6b8c98047),
    ("CFIR/VEX-1/wlo-first", 0xf4a6cb5e74c38e36),
    ("CFIR/VEX-1/wlo-slp/optimal+modulo", 0x7d9d93033c844958),
    ("CFIR/VEX-1/wlo-first/optimal+modulo", 0xec31542812cfa776),
    ("POLY/VEX-4/wlo-slp", 0xe4799d23acde5de6),
    ("POLY/VEX-4/wlo-first", 0x649110a0fdba2c24),
    ("POLY/VEX-1/wlo-slp", 0x6358aecaf42dfa3e),
    ("POLY/VEX-1/wlo-first", 0x8e5921eca673afe4),
    ("POLY/VEX-1/wlo-slp/optimal+modulo", 0xd3578b2938e8c872),
    ("POLY/VEX-1/wlo-first/optimal+modulo", 0x8e5921eca673afe4),
];

/// `Report::select` of every exact-selection point: rounds, improved,
/// budget, veto and portfolio fallbacks, include-steps.
const SELECT: &[(&str, [u64; 6])] = &[
    ("FIR/ST240/wlo-slp/optimal+modulo", [1, 0, 0, 0, 0, 0]),
    ("FIR/ST240/wlo-first/optimal+modulo", [1, 1, 0, 0, 0, 31]),
    ("FIR/VEX-1/wlo-slp/optimal+modulo", [2, 1, 0, 0, 0, 6]),
    ("FIR/VEX-1/wlo-first/optimal+modulo", [2, 1, 0, 0, 0, 21]),
    ("IIR/ST240/wlo-slp/optimal+modulo", [4, 0, 0, 0, 0, 0]),
    ("IIR/ST240/wlo-first/optimal+modulo", [4, 4, 0, 0, 0, 32]),
    ("IIR/VEX-1/wlo-slp/optimal+modulo", [6, 2, 0, 0, 0, 6]),
    ("IIR/VEX-1/wlo-first/optimal+modulo", [6, 0, 0, 0, 0, 25]),
    ("CONV/ST240/wlo-slp/optimal+modulo", [1, 1, 0, 0, 1, 70]),
    ("CONV/ST240/wlo-first/optimal+modulo", [1, 1, 0, 0, 1, 1069]),
    ("CONV/VEX-1/wlo-slp/optimal+modulo", [2, 2, 0, 0, 1, 57]),
    ("CONV/VEX-1/wlo-first/optimal+modulo", [2, 1, 0, 0, 0, 1336]),
    ("DOT/ST240/wlo-slp/optimal+modulo", [1, 0, 0, 0, 0, 46]),
    ("DOT/ST240/wlo-first/optimal+modulo", [1, 0, 0, 0, 0, 0]),
    ("DOT/VEX-1/wlo-slp/optimal+modulo", [3, 1, 0, 0, 0, 23]),
    ("DOT/VEX-1/wlo-first/optimal+modulo", [1, 0, 0, 0, 0, 0]),
    ("MATVEC/ST240/wlo-slp/optimal+modulo", [17, 0, 0, 0, 0, 12]),
    (
        "MATVEC/ST240/wlo-first/optimal+modulo",
        [18, 0, 0, 0, 0, 13],
    ),
    ("MATVEC/VEX-1/wlo-slp/optimal+modulo", [33, 3, 0, 0, 0, 45]),
    (
        "MATVEC/VEX-1/wlo-first/optimal+modulo",
        [33, 5, 0, 0, 1, 81],
    ),
    ("BIQUAD/ST240/wlo-slp/optimal+modulo", [1, 0, 0, 0, 0, 13]),
    ("BIQUAD/ST240/wlo-first/optimal+modulo", [1, 0, 0, 0, 0, 0]),
    ("BIQUAD/VEX-1/wlo-slp/optimal+modulo", [2, 1, 0, 0, 0, 70]),
    ("BIQUAD/VEX-1/wlo-first/optimal+modulo", [1, 0, 0, 0, 0, 0]),
    ("CFIR/ST240/wlo-slp/optimal+modulo", [2, 0, 0, 0, 0, 1684]),
    ("CFIR/ST240/wlo-first/optimal+modulo", [2, 1, 0, 0, 0, 23]),
    ("CFIR/VEX-1/wlo-slp/optimal+modulo", [3, 2, 0, 0, 1, 2441]),
    ("CFIR/VEX-1/wlo-first/optimal+modulo", [2, 0, 0, 0, 0, 22]),
    ("POLY/ST240/wlo-slp/optimal+modulo", [2, 0, 0, 0, 0, 0]),
    ("POLY/ST240/wlo-first/optimal+modulo", [2, 1, 0, 0, 0, 31]),
    ("POLY/VEX-1/wlo-slp/optimal+modulo", [4, 2, 0, 0, 0, 12]),
    ("POLY/VEX-1/wlo-first/optimal+modulo", [3, 1, 0, 0, 0, 21]),
];

/// Runs every suite kernel at -40 dB under both flows for each
/// `(target, exact)` point, where `exact` selects exact pack selection
/// with modulo scheduling; labels follow the point order.
fn reports(points: &[(TargetModel, bool)]) -> Vec<(String, Report)> {
    let mut out = Vec::new();
    for bench in all_benchmarks() {
        let mut opt = Optimizer::for_kernel(bench.kernel).expect("suite kernel");
        for (target, exact) in points {
            opt = opt.target(target.clone()).constraint_db(-40.0);
            let mode = if *exact { "/optimal+modulo" } else { "" };
            opt = if *exact {
                opt.benefit_kind(BenefitKind::optimal())
                    .sched_kind(SchedKind::modulo())
            } else {
                opt.benefit_kind(BenefitKind::default())
                    .sched_kind(SchedKind::default())
            };
            for flow in [FlowKind::WloSlp, FlowKind::WloFirst] {
                let report = opt.run_with(flow).expect("feasible point");
                out.push((
                    format!("{}/{}/{flow}{mode}", bench.name, target.name),
                    report,
                ));
            }
        }
    }
    out
}

/// Asserts `got` equals the recorded table, printing the current table
/// in source form when it does not.
fn assert_table<T: PartialEq + std::fmt::Debug + Copy>(
    what: &str,
    got: &[(String, T)],
    recorded: &[(&str, T)],
    show: impl Fn(&T) -> String,
) {
    let expected: Vec<(String, T)> = recorded.iter().map(|(l, v)| (l.to_string(), *v)).collect();
    let table: String = got
        .iter()
        .map(|(l, v)| format!("    (\"{l}\", {}),\n", show(v)))
        .collect();
    assert!(
        got == expected,
        "{what} drifted from the recorded ones; current table:\n{table}"
    );
}

fn digests(reports: &[(String, Report)]) -> Vec<(String, u64)> {
    reports
        .iter()
        .map(|(l, r)| (l.clone(), digest(r)))
        .collect()
}

fn hex(d: &u64) -> String {
    format!("{d:#018x}")
}

#[test]
fn reports_match_recorded_digests() {
    let got = reports(&[(xentium(), false), (st240(), false), (st240(), true)]);
    assert_table("report digests", &digests(&got), GOLDEN, hex);
}

#[test]
fn vex_reports_match_recorded_digests() {
    let got = reports(&[(vex(4), false), (vex(1), false), (vex(1), true)]);
    assert_table("VEX report digests", &digests(&got), GOLDEN_VEX, hex);
}

#[test]
fn exact_selection_counters_match_recorded_values() {
    let got: Vec<(String, [u64; 6])> = reports(&[(st240(), true), (vex(1), true)])
        .into_iter()
        .map(|(l, r)| {
            let s = r.select;
            let counters = [
                s.rounds,
                s.improved,
                s.budget_fallbacks,
                s.veto_fallbacks,
                s.portfolio_fallbacks,
                s.include_steps,
            ];
            (l, counters)
        })
        .collect();
    assert_table("select counters", &got, SELECT, |c| format!("{c:?}"));
}
