//! The fixed-point specification: per-node formats with transactional
//! editing.
//!
//! The "nodes" of the paper's fixed-point specification map here onto
//! three key spaces:
//!
//! * **expressions** — every operation instance (and input-conversion
//!   site) carries its own format;
//! * **state arrays** — one storage format per array, shared by all loads
//!   and stores (a SIMD vector load requires homogeneous element storage);
//! * **parameter tables** — one storage format per coefficient table.
//!
//! WLO algorithms mutate formats speculatively ("set, evaluate accuracy,
//! maybe revert"), so every mutation is journaled; [`FixedPointSpec::mark`]
//! / [`FixedPointSpec::rollback`] provide nested transactions.

use crate::format::QFormat;
use crate::range::Ranges;
use slpwlo_ir::types::{ArrayId, ExprId, ParamId};
use slpwlo_ir::{ExprNode, Kernel};
use std::fmt;

/// Addresses one formatted node of the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecKey {
    /// An expression (operation instance / conversion site).
    Expr(ExprId),
    /// A state array's storage format.
    Array(ArrayId),
    /// A parameter table's storage format.
    Param(ParamId),
}

impl fmt::Display for SpecKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecKey::Expr(e) => write!(f, "{e}"),
            SpecKey::Array(a) => write!(f, "{a}"),
            SpecKey::Param(p) => write!(f, "{p}"),
        }
    }
}

/// A complete fixed-point specification with an undo journal.
#[derive(Debug, Clone)]
pub struct FixedPointSpec {
    exprs: Vec<QFormat>,
    arrays: Vec<QFormat>,
    params: Vec<QFormat>,
    max_wl: i32,
    journal: Vec<(SpecKey, QFormat)>,
}

impl FixedPointSpec {
    /// Builds the initial specification: every node at the minimal IWL
    /// covering its range and the **maximum word length** supported by the
    /// target (`max_wl`) — the starting point of the SLP-aware WLO
    /// algorithm (fig. 1a lines 1–3).
    pub fn from_ranges(kernel: &Kernel, ranges: &Ranges, max_wl: i32) -> Self {
        let exprs = kernel
            .exprs()
            .map(|(id, _)| {
                let iv = ranges.expr(id);
                QFormat::for_range(iv.lo, iv.hi, max_wl)
            })
            .collect();
        let arrays = ranges
            .arrays
            .iter()
            .map(|iv| QFormat::for_range(iv.lo, iv.hi, max_wl))
            .collect();
        let params = ranges
            .params
            .iter()
            .map(|iv| QFormat::for_range(iv.lo, iv.hi, max_wl))
            .collect();
        FixedPointSpec {
            exprs,
            arrays,
            params,
            max_wl,
            journal: Vec::new(),
        }
    }

    /// The maximum word length the specification was initialised with.
    pub fn max_wl(&self) -> i32 {
        self.max_wl
    }

    /// Number of expression formats.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Reads a node's format.
    pub fn format(&self, key: SpecKey) -> QFormat {
        match key {
            SpecKey::Expr(e) => self.exprs[e.index()],
            SpecKey::Array(a) => self.arrays[a.index()],
            SpecKey::Param(p) => self.params[p.index()],
        }
    }

    /// Writes a node's format, journaling the previous value.
    pub fn set_format(&mut self, key: SpecKey, fmt: QFormat) {
        let slot = match key {
            SpecKey::Expr(e) => &mut self.exprs[e.index()],
            SpecKey::Array(a) => &mut self.arrays[a.index()],
            SpecKey::Param(p) => &mut self.params[p.index()],
        };
        self.journal.push((key, *slot));
        *slot = fmt;
    }

    /// Resizes a node to `wl` total bits, preserving its IWL (range).
    pub fn set_wl(&mut self, key: SpecKey, wl: i32) {
        let fmt = self.format(key).with_wl(wl);
        self.set_format(key, fmt);
    }

    /// Current word length of a node.
    pub fn wl(&self, key: SpecKey) -> i32 {
        self.format(key).wl()
    }

    /// Opens a transaction: returns a mark to pass to [`rollback`] or
    /// [`commit`].
    ///
    /// [`rollback`]: FixedPointSpec::rollback
    /// [`commit`]: FixedPointSpec::commit
    pub fn mark(&self) -> usize {
        self.journal.len()
    }

    /// Reverts every mutation performed since `mark` (most recent first).
    pub fn rollback(&mut self, mark: usize) {
        while self.journal.len() > mark {
            let (key, old) = self.journal.pop().expect("journal shorter than mark");
            let slot = match key {
                SpecKey::Expr(e) => &mut self.exprs[e.index()],
                SpecKey::Array(a) => &mut self.arrays[a.index()],
                SpecKey::Param(p) => &mut self.params[p.index()],
            };
            *slot = old;
        }
    }

    /// Accepts every mutation performed since `mark`, forgetting the undo
    /// information (outer marks stay valid).
    pub fn commit(&mut self, mark: usize) {
        self.journal.truncate(mark);
    }

    /// The keys journaled since `mark`, oldest first — the write set of an
    /// open transaction. Incremental accuracy evaluators consume this to
    /// re-evaluate only the noise sources a trial actually touched; a key
    /// appears once per mutation, so consumers should deduplicate.
    pub fn changed_since(&self, mark: usize) -> impl Iterator<Item = SpecKey> + '_ {
        self.journal[mark.min(self.journal.len())..]
            .iter()
            .map(|(key, _)| *key)
    }

    /// The keys WLO is allowed to optimize: operation expressions,
    /// input-conversion sites, state arrays and parameter tables.
    ///
    /// Wiring expressions (variable reads), constants and loads are
    /// excluded: loads inherit their array/param storage format and
    /// variable reads inherit their producer's format.
    pub fn optimizable_keys(&self, kernel: &Kernel) -> Vec<SpecKey> {
        let mut keys = Vec::new();
        for (id, node) in kernel.exprs() {
            match node {
                ExprNode::Bin(..) | ExprNode::Unary(..) | ExprNode::ReadInput(_) => {
                    keys.push(SpecKey::Expr(id));
                }
                _ => {}
            }
        }
        for a in 0..self.arrays.len() {
            keys.push(SpecKey::Array(ArrayId(a as u32)));
        }
        for p in 0..self.params.len() {
            keys.push(SpecKey::Param(ParamId(p as u32)));
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::determine_ranges;
    use slpwlo_ir::parser::parse_kernel;

    fn spec_for(src: &str) -> (Kernel, FixedPointSpec) {
        let k = parse_kernel(src).unwrap();
        let r = determine_ranges(&k);
        let s = FixedPointSpec::from_ranges(&k, &r, 32);
        (k, s)
    }

    const SRC: &str = r#"
kernel k {
    input x range [-1, 1];
    output y;
    param c[2] = { 0.5, 0.25 };
    array dl[2];
    shiftin dl <- x;
    y = c[0] * dl[0] + c[1] * dl[1];
}
"#;

    #[test]
    fn initial_formats_use_max_wl() {
        let (k, s) = spec_for(SRC);
        for (id, _) in k.exprs() {
            assert_eq!(s.wl(SpecKey::Expr(id)), 32);
        }
        assert_eq!(s.wl(SpecKey::Array(ArrayId(0))), 32);
        assert_eq!(s.wl(SpecKey::Param(ParamId(0))), 32);
        // The input range [-1,1] gives IWL 1 => Q1.31 on the array.
        assert_eq!(s.format(SpecKey::Array(ArrayId(0))), QFormat::new(1, 31));
    }

    #[test]
    fn set_wl_preserves_iwl() {
        let (_, mut s) = spec_for(SRC);
        let key = SpecKey::Array(ArrayId(0));
        let before = s.format(key);
        s.set_wl(key, 16);
        let after = s.format(key);
        assert_eq!(after.iwl, before.iwl);
        assert_eq!(after.wl(), 16);
    }

    #[test]
    fn rollback_restores_nested() {
        let (_, mut s) = spec_for(SRC);
        let key = SpecKey::Param(ParamId(0));
        let orig = s.format(key);
        let outer = s.mark();
        s.set_wl(key, 16);
        let inner = s.mark();
        s.set_wl(key, 8);
        assert_eq!(s.wl(key), 8);
        s.rollback(inner);
        assert_eq!(s.wl(key), 16);
        s.rollback(outer);
        assert_eq!(s.format(key), orig);
    }

    #[test]
    fn commit_keeps_changes_and_outer_marks() {
        let (_, mut s) = spec_for(SRC);
        let key = SpecKey::Array(ArrayId(0));
        let orig = s.format(key);
        let outer = s.mark();
        s.set_wl(key, 16);
        let inner = s.mark();
        s.set_wl(key, 8);
        s.commit(inner); // keep the 8-bit change
        assert_eq!(s.wl(key), 8);
        s.rollback(outer); // outer rollback reverts to the pre-outer state
        assert_eq!(s.format(key), orig);
    }

    #[test]
    fn changed_since_reports_the_write_set() {
        let (_, mut s) = spec_for(SRC);
        let a = SpecKey::Array(ArrayId(0));
        let p = SpecKey::Param(ParamId(0));
        let mark = s.mark();
        assert_eq!(s.changed_since(mark).count(), 0);
        s.set_wl(a, 16);
        s.set_wl(p, 16);
        s.set_wl(a, 8);
        let keys: Vec<SpecKey> = s.changed_since(mark).collect();
        assert_eq!(keys, vec![a, p, a], "oldest first, one entry per write");
        // Inner marks slice the journal; rollback shrinks the write set.
        let inner = s.mark();
        s.set_wl(p, 8);
        assert_eq!(s.changed_since(inner).collect::<Vec<_>>(), vec![p]);
        s.rollback(inner);
        assert_eq!(s.changed_since(inner).count(), 0);
        assert_eq!(s.changed_since(mark).count(), 3);
    }

    #[test]
    fn optimizable_keys_exclude_wiring() {
        let (k, s) = spec_for(SRC);
        let keys = s.optimizable_keys(&k);
        // 3 bin ops (2 mul + 1 add) + 1 input read + 1 array + 1 param = 6.
        assert_eq!(keys.len(), 6);
        for key in keys {
            if let SpecKey::Expr(e) = key {
                assert!(matches!(
                    k.expr(e),
                    ExprNode::Bin(..) | ExprNode::Unary(..) | ExprNode::ReadInput(_)
                ));
            }
        }
    }
}
