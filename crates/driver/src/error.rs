//! The workspace-wide structured error type.
//!
//! Every fallible user-input path of the tool-chain — kernel parsing and
//! validation, builder configuration, constraint feasibility, artifact
//! export — surfaces as one [`Error`] variant instead of a panic, so
//! drivers (CLIs, benches, services) can match on the failure class and
//! react.

use slpwlo_ir::IrError;
use std::fmt;
use std::path::PathBuf;

/// Errors produced by the [`Optimizer`](crate::Optimizer) driver API.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The kernel DSL source failed to lex or parse, or the kernel it
    /// describes failed validation (an unusable input range, an
    /// over-long table, an unset output, ...). Every `Kernel` is
    /// validated when it is built, so a kernel handed to
    /// [`Optimizer::for_kernel`](crate::Optimizer::for_kernel) cannot
    /// fail here.
    Parse(IrError),
    /// The builder was configured inconsistently.
    Config {
        /// The builder field at fault (e.g. `"constraint_db"`).
        field: &'static str,
        /// What is wrong with it.
        message: String,
    },
    /// The accuracy constraint cannot be met even with every node at the
    /// target's maximum word length.
    Unsatisfiable {
        /// Flow that was about to run.
        flow: String,
        /// The requested output-noise bound (dB).
        constraint_db: f64,
        /// The best (lowest) noise the target can reach (dB).
        floor_db: f64,
    },
    /// A flow was asked to run a [`FlowKind`](crate::FlowKind) it does
    /// not implement (raised by custom flows; no built-in flow does).
    UnknownFlow(String),
    /// Writing a generated artifact to disk failed.
    Export {
        /// Destination path.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A C back-end could not render the program.
    Codegen(slpwlo_codegen::CodegenError),
    /// A pass-boundary static check failed: some stage produced an
    /// artifact that violates one of its invariants (see
    /// [`slpwlo_verify::verify_boundary`]).
    Verify(slpwlo_verify::VerifyError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "kernel parse error: {e}"),
            Error::Config { field, message } => {
                write!(f, "invalid optimizer configuration ({field}): {message}")
            }
            Error::Unsatisfiable {
                flow,
                constraint_db,
                floor_db,
            } => write!(
                f,
                "constraint {constraint_db} dB is unsatisfiable for flow `{flow}`: \
                 the target's maximum word length bottoms out at {floor_db:.1} dB"
            ),
            Error::UnknownFlow(name) => write!(f, "flow `{name}` is not implemented here"),
            Error::Export { path, source } => {
                write!(f, "failed to export `{}`: {source}", path.display())
            }
            Error::Codegen(e) => write!(f, "code generation failed: {e}"),
            Error::Verify(e) => write!(f, "static verification failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Export { source, .. } => Some(source),
            Error::Codegen(e) => Some(e),
            Error::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for Error {
    fn from(e: IrError) -> Self {
        Error::Parse(e)
    }
}

impl From<slpwlo_codegen::CodegenError> for Error {
    fn from(e: slpwlo_codegen::CodegenError) -> Self {
        Error::Codegen(e)
    }
}

impl From<slpwlo_verify::VerifyError> for Error {
    fn from(e: slpwlo_verify::VerifyError) -> Self {
        Error::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_essentials() {
        let e = Error::Unsatisfiable {
            flow: "wlo-slp".into(),
            constraint_db: -160.0,
            floor_db: -131.4,
        };
        let s = e.to_string();
        assert!(s.contains("-160"));
        assert!(s.contains("-131.4"));
        assert!(s.contains("wlo-slp"));

        let e = Error::Config {
            field: "constraint_db",
            message: "must be finite".into(),
        };
        assert!(e.to_string().contains("constraint_db"));
    }

    #[test]
    fn source_chains_to_ir_errors() {
        use std::error::Error as _;
        let e = Error::Parse(IrError::Parse {
            line: 1,
            col: 2,
            msg: "boom".into(),
        });
        assert!(e.source().is_some());
        assert!(e.source().unwrap().to_string().contains("boom"));
    }
}
