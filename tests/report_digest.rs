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
//! kernels on XENTIUM and ST240 at -40 dB under both flows, plus exact
//! selection with modulo scheduling on ST240.
//!
//! When a change is *meant* to move reports, the failure message prints
//! the whole table in source form for re-recording.

use slpwlo::core::SchedKind;
use slpwlo::kernels::all_benchmarks;
use slpwlo::targets::{st240, xentium};
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

#[test]
fn reports_match_recorded_digests() {
    let mut got = Vec::new();
    for bench in all_benchmarks() {
        let mut opt = Optimizer::for_kernel(bench.kernel).expect("suite kernel");
        for (target, exact) in [(xentium(), false), (st240(), false), (st240(), true)] {
            opt = opt.target(target.clone()).constraint_db(-40.0);
            let mode = if exact { "/optimal+modulo" } else { "" };
            opt = if exact {
                opt.benefit_kind(BenefitKind::optimal())
                    .sched_kind(SchedKind::modulo())
            } else {
                opt.benefit_kind(BenefitKind::default())
                    .sched_kind(SchedKind::default())
            };
            for flow in [FlowKind::WloSlp, FlowKind::WloFirst] {
                let report = opt.run_with(flow).expect("feasible point");
                let label = format!("{}/{}/{flow}{mode}", bench.name, target.name);
                got.push((label, digest(&report)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert!(
        got == expected,
        "report digests drifted from the recorded ones; current table:\n{table}"
    );
}
