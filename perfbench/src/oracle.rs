//! Output checks, made outside the timed region.

use slpwlo_accuracy::simulate_fixed;
use slpwlo_core::{MachineProgram, PassArtifact, ProgramRole};
use slpwlo_driver::Report;
use slpwlo_fixedpoint::range::Ranges;
use slpwlo_sim::execute_fixed;
use slpwlo_verify::{verify_boundary, VerifyLevel};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Checks one report: the predicted noise meets the constraint, the
/// verifier accepts the kernel, the final spec (against the kernel's
/// `ranges`) and both programs, and
/// both programs execute bit-identically to the fixed-point simulation
/// of the spec on `inputs`. (Final groups are checked inside the flow,
/// where they are visible; see `trace::Forward`.)
pub fn check(report: &Report, ranges: &Ranges, inputs: &[Vec<f64>]) -> Result<(), String> {
    let (Some(db), Some(noise), Some(spec)) =
        (report.constraint_db, report.noise_db, report.spec.as_ref())
    else {
        return Err("report has no constraint, noise or spec".into());
    };
    if noise.is_nan() || noise > db {
        return Err(format!("noise {noise} dB exceeds the constraint {db} dB"));
    }
    let verify = |artifact: PassArtifact<'_>| {
        verify_boundary(VerifyLevel::Boundaries, &artifact).map_err(|e| e.to_string())
    };
    verify(PassArtifact::Kernel {
        kernel: &report.kernel,
    })?;
    verify(PassArtifact::Spec {
        kernel: &report.kernel,
        ranges,
        spec,
        is_final: true,
    })?;
    let programs = [
        (&report.simd, ProgramRole::Simd),
        (&report.scalar, ProgramRole::Scalar),
    ];
    for (program, role) in programs {
        verify(PassArtifact::Program {
            program,
            target: &report.target,
            role,
            sched: report.sched,
        })?;
    }
    let reference = simulate_fixed(&report.kernel, spec, inputs);
    for (program, role) in programs {
        bit_identical(program, inputs, &reference).map_err(|e| format!("{role:?} program: {e}"))?;
    }
    Ok(())
}

fn bit_identical(
    program: &MachineProgram,
    inputs: &[Vec<f64>],
    reference: &[Vec<f64>],
) -> Result<(), String> {
    let got = execute_fixed(program, inputs).map_err(|e| e.to_string())?;
    if got.len() != reference.len() {
        return Err(format!(
            "{} output streams, the simulation has {}",
            got.len(),
            reference.len()
        ));
    }
    for (o, (g, r)) in got.iter().zip(reference).enumerate() {
        if g.len() != r.len() {
            return Err(format!(
                "output {o}: {} samples, expected {}",
                g.len(),
                r.len()
            ));
        }
        if let Some(n) = (0..g.len()).find(|&n| g[n].to_bits() != r[n].to_bits()) {
            return Err(format!(
                "output {o} sample {n}: executed {}, simulated {}",
                g[n], r[n]
            ));
        }
    }
    Ok(())
}

/// A hash of everything a run decides: the spec, both programs, the
/// cycle counts, the noise and the selector statistics. Equal
/// fingerprints mean equal outputs, so a run whose fingerprint matches
/// a checked run carries that run's verdict.
pub fn fingerprint(r: &Report) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", r.spec).hash(&mut h);
    format!("{:?}", r.simd).hash(&mut h);
    format!("{:?}", r.scalar).hash(&mut h);
    format!("{:?}", r.select).hash(&mut h);
    (
        r.cycles_simd,
        r.cycles_scalar,
        r.cycles_simd_list,
        r.cycles_scalar_list,
        r.group_count,
    )
        .hash(&mut h);
    r.noise_db.map(f64::to_bits).hash(&mut h);
    h.finish()
}
