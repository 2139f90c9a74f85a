//! Error types for IR construction, parsing and validation.

use std::error::Error;
use std::fmt;

/// Errors produced while building, parsing or validating kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An expression id was out of bounds for the kernel arena.
    InvalidExpr(u32),
    /// An expression node is referenced from more than one position.
    ExprReused(u32),
    /// An expression references an operand with a greater or equal id,
    /// which would create a cycle in the arena.
    ExprCycle(u32),
    /// A name was declared twice in the same namespace.
    DuplicateName(String),
    /// A referenced name does not exist.
    UnknownName(String),
    /// DSL parse error with line/column (1-based) and message.
    Parse {
        /// 1-based line of the offending token.
        line: u32,
        /// 1-based column of the offending token.
        col: u32,
        /// Human-readable description.
        msg: String,
    },
    /// A loop unrolling request was invalid (unknown loop, factor of zero).
    InvalidUnroll(String),
    /// An input's declared value range is unusable (non-finite bound or
    /// `lo > hi`). The bounds are carried pre-formatted so the error stays
    /// `Eq`-comparable.
    InvalidRange {
        /// Name of the offending input.
        input: String,
        /// The declared range, formatted as `[lo, hi]`.
        range: String,
    },
    /// A parameter table or state array was declared with zero elements.
    EmptyTable {
        /// `"param"` or `"array"`.
        kind: &'static str,
        /// Source-level name of the declaration.
        name: String,
    },
    /// A parameter table or state array has more than
    /// [`MAX_TABLE_LEN`](crate::kernel::MAX_TABLE_LEN) elements.
    TableTooLong {
        /// `"param"` or `"array"`.
        kind: &'static str,
        /// Source-level name of the declaration.
        name: String,
        /// The declared number of elements.
        len: usize,
    },
    /// A loop was opened with a trip count of zero.
    ZeroTripLoop,
    /// Loops were closed out of nesting order (or with none open).
    LoopNesting(String),
    /// An output index does not name a declared output.
    OutputOutOfRange {
        /// The requested output index.
        index: usize,
        /// Number of declared outputs.
        count: usize,
    },
    /// A declared output is never assigned a value anywhere in the body.
    OutputUnset(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::InvalidExpr(id) => write!(f, "expression id e{id} out of bounds"),
            IrError::ExprReused(id) => write!(f, "expression e{id} referenced more than once"),
            IrError::ExprCycle(id) => write!(f, "expression e{id} forms a cycle in the arena"),
            IrError::DuplicateName(n) => write!(f, "duplicate declaration of `{n}`"),
            IrError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            IrError::Parse { line, col, msg } => write!(f, "parse error at {line}:{col}: {msg}"),
            IrError::InvalidUnroll(msg) => write!(f, "invalid unroll request: {msg}"),
            IrError::InvalidRange { input, range } => {
                write!(f, "unusable value range {range} on input `{input}`")
            }
            IrError::EmptyTable { kind, name } => {
                write!(f, "{kind} `{name}` must have at least one element")
            }
            IrError::TableTooLong { kind, name, len } => write!(
                f,
                "{kind} `{name}` has {len} elements, more than the {} allowed",
                crate::kernel::MAX_TABLE_LEN
            ),
            IrError::ZeroTripLoop => write!(f, "loop trip count must be positive"),
            IrError::LoopNesting(msg) => write!(f, "loop nesting violation: {msg}"),
            IrError::OutputOutOfRange { index, count } => {
                write!(f, "output index {index} out of range (kernel has {count})")
            }
            IrError::OutputUnset(name) => {
                write!(f, "output `{name}` is never assigned")
            }
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            IrError::InvalidExpr(3).to_string(),
            "expression id e3 out of bounds"
        );
        assert_eq!(
            IrError::Parse {
                line: 2,
                col: 5,
                msg: "expected `;`".into()
            }
            .to_string(),
            "parse error at 2:5: expected `;`"
        );
        assert!(IrError::DuplicateName("x".into())
            .to_string()
            .contains("`x`"));
    }
}
