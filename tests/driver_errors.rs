//! Driver error paths: every user-input failure mode surfaces as a
//! typed `slpwlo::Error` instead of a panic.

use slpwlo::ir::builder::KernelBuilder;
use slpwlo::targets::xentium;
use slpwlo::{Error, FlowKind, Optimizer};

const GOOD: &str = r#"
kernel good {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.25, -0.5, 0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

#[test]
fn malformed_source_returns_parse_error() {
    for src in [
        "",
        "kernel {",
        "kernel k { input x range [-1 1]; output y; y = x; }",
        "kernel k { input x range [1, -1]; output y; y = x; }",
        "kernel k { input x range [nan, 1]; output y; y = x; }",
        "kernel k { output y; y = undeclared_name; }",
        "garbage £$% tokens",
    ] {
        match Optimizer::for_source(src) {
            Err(Error::Parse(_)) => {}
            Err(other) => panic!("{src:?}: expected Parse, got {other:?}"),
            Ok(_) => panic!("{src:?}: must not parse"),
        }
    }
}

#[test]
fn parse_errors_carry_location_and_chain() {
    use std::error::Error as _;
    let err = Optimizer::for_source("kernel k {\n  input x range [-1, 1];\n  !!\n}")
        .expect_err("must fail");
    // Displayable, with a source chain down to the IR error.
    assert!(err.to_string().contains("parse error"), "{err}");
    assert!(err.source().is_some());
}

#[test]
fn invalid_input_range_is_typed() {
    use slpwlo::ir::IrError;
    // lo > hi: programmatically-built kernels fail `Kernel::validate`
    // (run by `try_finish`) with a typed error instead of a delayed
    // panic deep inside range analysis.
    let mut b = KernelBuilder::new("bad_range");
    let x = b.input("x", 1.0, -1.0);
    let y = b.output("y");
    let xv = b.read_input(x);
    b.set_output(y, xv);
    match b.try_finish() {
        Err(IrError::InvalidRange { input, range }) => {
            assert_eq!(input, "x");
            assert_eq!(range, "[1, -1]");
        }
        other => panic!("expected InvalidRange, got {other:?}"),
    }

    // Non-finite bounds are rejected the same way.
    let mut b = KernelBuilder::new("nan_range");
    let x = b.input("x", f64::NEG_INFINITY, 1.0);
    let y = b.output("y");
    let xv = b.read_input(x);
    b.set_output(y, xv);
    assert!(matches!(b.try_finish(), Err(IrError::InvalidRange { .. })));
}

#[test]
fn unsatisfiable_constraint_returns_typed_error_not_panic() -> Result<(), Error> {
    let opt = Optimizer::for_source(GOOD)?
        .target(xentium())
        .flow(FlowKind::WloSlp);
    let floor = opt.noise_floor_db();
    // Just above the floor: satisfiable.
    assert!(opt.constraint_db(floor + 1.0).run().is_ok());
    // Below the floor: typed error carrying both numbers.
    let opt = Optimizer::for_source(GOOD)?.target(xentium());
    match opt.constraint_db(floor - 10.0).run() {
        Err(Error::Unsatisfiable {
            flow,
            constraint_db,
            floor_db,
        }) => {
            assert_eq!(flow, "wlo-slp");
            assert!((floor_db - floor).abs() < 1e-9);
            assert!((constraint_db - (floor - 10.0)).abs() < 1e-9);
        }
        other => panic!("expected Unsatisfiable, got {other:?}"),
    }
    Ok(())
}

#[test]
fn sweep_rejects_any_unsatisfiable_point_up_front() -> Result<(), Error> {
    let opt = Optimizer::for_source(GOOD)?;
    let floor = opt.noise_floor_db();
    let err = opt.sweep(&[-20.0, floor - 5.0, -40.0]).unwrap_err();
    assert!(matches!(err, Error::Unsatisfiable { .. }), "{err}");
    Ok(())
}

#[test]
fn invalid_builder_configuration_is_typed() -> Result<(), Error> {
    // Missing constraint on a quantizing flow.
    let err = Optimizer::for_source(GOOD)?
        .flow(FlowKind::WloFirst)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::Config {
                field: "constraint_db",
                ..
            }
        ),
        "{err}"
    );

    // Non-finite constraint.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = Optimizer::for_source(GOOD)?
            .constraint_db(bad)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "constraint_db",
                    ..
                }
            ),
            "{err}"
        );
    }

    // Zero-activation cycle reports.
    let err = Optimizer::for_source(GOOD)?
        .constraint_db(-30.0)
        .activations(0)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::Config {
                field: "activations",
                ..
            }
        ),
        "{err}"
    );

    // Sweeping the float flow (which ignores constraints) is refused.
    let err = Optimizer::for_source(GOOD)?
        .flow(FlowKind::Float)
        .sweep(&[-20.0])
        .unwrap_err();
    assert!(matches!(err, Error::Config { field: "flow", .. }), "{err}");
    Ok(())
}

#[test]
fn export_failures_are_typed() -> Result<(), Error> {
    let report = Optimizer::for_source(GOOD)?.constraint_db(-30.0).run()?;
    // Exporting under a path whose parent is a *file* must fail with a
    // structured Export error, not a panic.
    let dir = std::env::temp_dir().join(format!("slpwlo_export_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("temp file");
    match report.export_c(blocker.join("sub")) {
        Err(Error::Export { path, .. }) => assert!(path.starts_with(&blocker)),
        other => panic!("expected Export error, got {other:?}"),
    }
    // The float flow has nothing to export: typed Config error.
    let float = Optimizer::for_source(GOOD)?.flow(FlowKind::Float).run()?;
    assert!(matches!(float.export_c(&dir), Err(Error::Config { .. })));
    // Happy path still works, and the emitted artifacts are non-empty.
    let exported = report.export_c(&dir)?;
    for p in [&exported.fixed_c, &exported.simd_c, &exported.intrinsics_h] {
        assert!(
            std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false),
            "{p:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
