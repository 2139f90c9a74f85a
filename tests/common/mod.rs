//! Shared helpers for the compile-and-execute differential harnesses
//! (`tests/c_differential.rs`, `tests/pipeline_fuzz.rs`).
//!
//! Each integration-test binary gets its own copy of this module; not
//! every binary uses every helper.
#![allow(dead_code)]

use slpwlo::core::{extract_on_spec, lower_fixed, BenefitKind, MachineProgram, PassCtx};
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::ir::Kernel;
use slpwlo::kernels::Workload;
use slpwlo::targets::{SchedKind, TargetModel};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Plain (accuracy-unaware) SLP groups on a frozen spec, lowered to the
/// SIMD machine program — the WLO-First back half, used as the SIMD leg
/// of every differential harness.
pub fn simd_program(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    target: &TargetModel,
) -> MachineProgram {
    let blocks = extract_on_spec(kernel, spec, &mut plain_ctx(target));
    lower_fixed(kernel, spec, target, &blocks)
}

/// The `WLO-First` back half's selection context: default greedy
/// pricing under list scheduling, no scaling equalization.
pub fn plain_ctx(target: &TargetModel) -> PassCtx<'_> {
    PassCtx::new(target, BenefitKind::default(), SchedKind::List, false)
}

/// Is a C compiler available? With `SLPWLO_REQUIRE_CC=1` a missing
/// compiler is a hard failure (CI sets it), otherwise the caller skips.
pub fn cc_available() -> bool {
    let found = Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !found && std::env::var("SLPWLO_REQUIRE_CC").is_ok() {
        panic!("SLPWLO_REQUIRE_CC is set but no `cc` is on PATH");
    }
    if !found {
        eprintln!("skipping C differential tests: no `cc` on PATH");
    }
    found
}

/// Scratch directory for one compile tag.
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Emits a stdin/stdout test driver around `<kernel>_step`: one line of
/// hex-encoded f64 bits per input per activation in, one line per
/// output per activation out. Bit-faithful in both directions.
pub fn driver_c(kernel_name: &str, inputs: usize, outputs: usize) -> String {
    let mut s = String::new();
    s.push_str("#include <stdio.h>\n#include <stdint.h>\n#include <string.h>\n\n");
    s.push_str(&format!("void {kernel_name}_step("));
    let mut args: Vec<String> = (0..inputs).map(|i| format!("double in{i}")).collect();
    args.extend((0..outputs).map(|o| format!("double *out{o}")));
    s.push_str(&args.join(", "));
    s.push_str(");\n\nint main(void)\n{\n");
    s.push_str(&format!(
        "    double in[{inputs}];\n    double out[{outputs}];\n    unsigned long long w;\n"
    ));
    s.push_str("    memset(out, 0, sizeof out);\n    for (;;) {\n");
    s.push_str(&format!("        for (int i = 0; i < {inputs}; i++) {{\n"));
    s.push_str("            if (scanf(\"%llx\", &w) != 1) return 0;\n");
    s.push_str("            memcpy(&in[i], &w, 8);\n        }\n");
    let mut call: Vec<String> = (0..inputs).map(|i| format!("in[{i}]")).collect();
    call.extend((0..outputs).map(|o| format!("&out[{o}]")));
    s.push_str(&format!(
        "        {kernel_name}_step({});\n",
        call.join(", ")
    ));
    s.push_str(&format!("        for (int o = 0; o < {outputs}; o++) {{\n"));
    s.push_str(
        "            memcpy(&w, &out[o], 8);\n            printf(\"%llx\\n\", w);\n        }\n",
    );
    s.push_str("    }\n}\n");
    s
}

/// Compiles `{program C, driver C}` with `-std=c99 -Wall -Werror` and
/// runs it over the workload, returning `outputs[o][n]`.
pub fn compile_and_run(
    tag: &str,
    program_c: &str,
    header: Option<(&str, &str)>,
    kernel_name: &str,
    workload: &Workload,
    outputs: usize,
) -> Vec<Vec<f64>> {
    let dir = work_dir(tag);
    let prog_path = dir.join("program.c");
    let main_path = dir.join("main.c");
    let exe_path = dir.join("prog");
    std::fs::write(&prog_path, program_c).expect("write program.c");
    std::fs::write(
        &main_path,
        driver_c(kernel_name, workload.inputs.len(), outputs),
    )
    .expect("write main.c");
    if let Some((name, contents)) = header {
        std::fs::write(dir.join(name), contents).expect("write header");
    }
    let status = Command::new("cc")
        .args(["-std=c99", "-Wall", "-Werror", "-O2", "-I"])
        .arg(&dir)
        .arg("-o")
        .arg(&exe_path)
        .arg(&prog_path)
        .arg(&main_path)
        .arg("-lm")
        .status()
        .expect("invoke cc");
    assert!(status.success(), "cc failed on {tag} (see {dir:?})");

    let mut child = Command::new(&exe_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("run generated program");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        let n = workload.activations();
        let mut text = String::new();
        for a in 0..n {
            for stream in &workload.inputs {
                text.push_str(&format!("{:x}\n", stream[a].to_bits()));
            }
        }
        stdin.write_all(text.as_bytes()).expect("feed inputs");
    }
    let out = child.wait_with_output().expect("collect outputs");
    assert!(out.status.success(), "generated program crashed on {tag}");
    let words: Vec<u64> = String::from_utf8(out.stdout)
        .expect("utf8 output")
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).expect("hex output"))
        .collect();
    let n = workload.activations();
    assert_eq!(words.len(), n * outputs, "{tag}: output count");
    let mut res = vec![Vec::with_capacity(n); outputs];
    for (k, w) in words.into_iter().enumerate() {
        res[k % outputs].push(f64::from_bits(w));
    }
    res
}

/// First bitwise mismatch between two output matrices, as an error.
pub fn bit_diff(label: &str, reference: &[Vec<f64>], got: &[Vec<f64>]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{label}: output arity {} vs {}",
            reference.len(),
            got.len()
        ));
    }
    for (o, (r, g)) in reference.iter().zip(got).enumerate() {
        if r.len() != g.len() {
            return Err(format!(
                "{label}: output {o} length {} vs {}",
                r.len(),
                g.len()
            ));
        }
        for (n, (a, b)) in r.iter().zip(g).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "{label}: output {o} sample {n}: reference {a:e} vs got {b:e}"
                ));
            }
        }
    }
    Ok(())
}

/// Panicking wrapper over [`bit_diff`] for assert-style tests.
pub fn assert_bit_identical(label: &str, reference: &[Vec<f64>], got: &[Vec<f64>]) {
    if let Err(msg) = bit_diff(label, reference, got) {
        panic!("{msg}");
    }
}
