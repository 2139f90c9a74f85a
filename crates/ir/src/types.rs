//! Identifier newtypes and small value types shared across the IR.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index of this identifier.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a scalar variable declared in a [`crate::Kernel`].
    VarId,
    "v"
);
id_type!(
    /// Identifies a counted loop; loop variables are referenced by this id
    /// inside [`IndexExpr`].
    LoopId,
    "i"
);
id_type!(
    /// Identifies a per-activation input of a kernel.
    InputId,
    "in"
);
id_type!(
    /// Identifies a per-activation output of a kernel.
    OutputId,
    "out"
);
id_type!(
    /// Identifies a state array (delay line, line buffer) of a kernel.
    ArrayId,
    "a"
);
id_type!(
    /// Identifies a constant parameter table (e.g. filter coefficients).
    ParamId,
    "p"
);
id_type!(
    /// Identifies an expression node in a kernel's expression arena.
    ///
    /// Every `ExprId` denotes a distinct *operation instance*: unrolling a
    /// loop clones expressions under fresh ids, so ids map one-to-one onto
    /// the fixed-point specification "nodes" of the paper.
    ExprId,
    "e"
);

/// Binary operation kinds available in source kernels.
///
/// Scalings (shifts), packs and conversions do not appear at this level;
/// they are introduced during lowering to the machine program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl BinOp {
    /// Infix symbol used by the DSL and pretty printer.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operation kinds available in source kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
        }
    }
}

/// An affine index expression `sum(coeff_k * loop_k) + offset`.
///
/// Affine indices are what make memory-adjacency reasoning (and therefore
/// vector load/store formation) decidable: two loads from the same array are
/// contiguous iff their `IndexExpr`s differ by a constant offset of one.
///
/// # Example
///
/// ```
/// use slpwlo_ir::types::{IndexExpr, LoopId};
///
/// let i = LoopId(0);
/// let a = IndexExpr::affine(i, 4, 1); // 4*i + 1
/// let b = IndexExpr::affine(i, 4, 2); // 4*i + 2
/// assert_eq!(a.constant_distance(&b), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IndexExpr {
    /// `(loop, coefficient)` terms; kept sorted by loop id, no zero
    /// coefficients and no duplicate loops.
    terms: Vec<(LoopId, i64)>,
    /// Constant offset.
    offset: i64,
}

impl IndexExpr {
    /// A constant index.
    pub fn constant(offset: i64) -> Self {
        IndexExpr {
            terms: Vec::new(),
            offset,
        }
    }

    /// The single-term affine index `coeff * var + offset`.
    pub fn affine(var: LoopId, coeff: i64, offset: i64) -> Self {
        let mut e = IndexExpr::constant(offset);
        e.add_term(var, coeff);
        e
    }

    /// Adds `coeff * var` to the expression, merging with an existing term.
    pub fn add_term(&mut self, var: LoopId, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match self.terms.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(pos) => {
                self.terms[pos].1 += coeff;
                if self.terms[pos].1 == 0 {
                    self.terms.remove(pos);
                }
            }
            Err(pos) => self.terms.insert(pos, (var, coeff)),
        }
    }

    /// Adds a constant to the expression.
    pub fn add_offset(&mut self, delta: i64) {
        self.offset += delta;
    }

    /// The constant offset part.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// The affine terms, sorted by loop id.
    pub fn terms(&self) -> &[(LoopId, i64)] {
        &self.terms
    }

    /// Returns `Some(offset)` when the expression is a plain constant.
    pub fn as_constant(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.offset)
        } else {
            None
        }
    }

    /// Returns `true` if the expression references `var`.
    pub fn uses(&self, var: LoopId) -> bool {
        self.terms.iter().any(|&(v, _)| v == var)
    }

    /// Substitutes `var := factor * var' + add` (used by loop unrolling,
    /// where the original induction variable `i` becomes `factor*i' + k`).
    pub fn substitute(&self, var: LoopId, new_var: Option<LoopId>, factor: i64, add: i64) -> Self {
        let mut out = IndexExpr::constant(self.offset);
        for &(v, c) in &self.terms {
            if v == var {
                if let Some(nv) = new_var {
                    out.add_term(nv, c * factor);
                }
                out.add_offset(c * add);
            } else {
                out.add_term(v, c);
            }
        }
        out
    }

    /// Evaluates the expression under a loop-variable environment.
    ///
    /// `env` maps a loop id to its current trip value; loops absent from the
    /// environment evaluate as zero.
    pub fn eval(&self, env: &dyn Fn(LoopId) -> i64) -> i64 {
        let mut v = self.offset;
        for &(var, c) in &self.terms {
            v += c * env(var);
        }
        v
    }

    /// Distance `other - self` when both expressions share identical affine
    /// terms, i.e. when the distance is a compile-time constant.
    pub fn constant_distance(&self, other: &IndexExpr) -> Option<i64> {
        if self.terms == other.terms {
            Some(other.offset - self.offset)
        } else {
            None
        }
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(var, c) in &self.terms {
            if first {
                if c == 1 {
                    write!(f, "{var}")?;
                } else {
                    write!(f, "{c}*{var}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {var}")?;
                } else {
                    write!(f, " + {c}*{var}")?;
                }
            } else if c == -1 {
                write!(f, " - {var}")?;
            } else {
                write!(f, " - {}*{var}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.offset)?;
        } else if self.offset > 0 {
            write!(f, " + {}", self.offset)?;
        } else if self.offset < 0 {
            write!(f, " - {}", -self.offset)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_expr_constant_roundtrip() {
        let e = IndexExpr::constant(7);
        assert_eq!(e.as_constant(), Some(7));
        assert_eq!(e.eval(&|_| 0), 7);
        assert_eq!(e.to_string(), "7");
    }

    #[test]
    fn index_expr_affine_eval() {
        let i = LoopId(0);
        let e = IndexExpr::affine(i, 4, 3);
        assert_eq!(e.as_constant(), None);
        assert_eq!(e.eval(&|v| if v == i { 5 } else { 0 }), 23);
        assert!(e.uses(i));
        assert!(!e.uses(LoopId(1)));
    }

    #[test]
    fn index_expr_merges_terms() {
        let i = LoopId(0);
        let mut e = IndexExpr::affine(i, 4, 0);
        e.add_term(i, -4);
        assert_eq!(e.as_constant(), Some(0));
    }

    #[test]
    fn index_expr_distance() {
        let i = LoopId(0);
        let a = IndexExpr::affine(i, 4, 0);
        let b = IndexExpr::affine(i, 4, 1);
        let c = IndexExpr::affine(i, 2, 1);
        assert_eq!(a.constant_distance(&b), Some(1));
        assert_eq!(b.constant_distance(&a), Some(-1));
        assert_eq!(a.constant_distance(&c), None);
    }

    #[test]
    fn index_expr_substitution_unroll() {
        // i := 4*i' + 2 applied to [4*i + 1] gives [16*i' + 9].
        let i = LoopId(0);
        let i2 = LoopId(1);
        let e = IndexExpr::affine(i, 4, 1);
        let s = e.substitute(i, Some(i2), 4, 2);
        assert_eq!(s.terms(), &[(i2, 16)]);
        assert_eq!(s.offset(), 9);
        // Full unroll: i := 3 (no replacement variable).
        let s = e.substitute(i, None, 0, 3);
        assert_eq!(s.as_constant(), Some(13));
    }

    #[test]
    fn binop_properties() {
        assert_eq!(format!("{}", BinOp::Sub), "-");
    }

    #[test]
    fn display_ids() {
        assert_eq!(VarId(3).to_string(), "v3");
        assert_eq!(ExprId(12).to_string(), "e12");
        assert_eq!(LoopId(0).to_string(), "i0");
    }

    #[test]
    fn display_index_expr_signs() {
        let i = LoopId(0);
        let j = LoopId(1);
        let mut e = IndexExpr::affine(i, 1, -2);
        e.add_term(j, -3);
        assert_eq!(e.to_string(), "i0 - 3*i1 - 2");
    }
}
