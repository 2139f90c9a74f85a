//! Helpers mapping DFG nodes onto fixed-point specification keys.

use slpwlo_fixedpoint::{FixedPointSpec, QFormat, SpecKey};
use slpwlo_ir::dfg::{Dfg, NodeId, NodeKind};
use slpwlo_slp::resolve_producer;

/// The specification key carrying a node's *own* format, if any.
///
/// Loads map to their array/param storage; wiring nodes (`VarUse`,
/// `LiveIn`, `Const`) and sinks (`Output`, `ShiftIn`) carry none.
pub fn node_key(dfg: &Dfg, n: NodeId) -> Option<SpecKey> {
    let node = dfg.node(n);
    match &node.kind {
        NodeKind::Bin(_) | NodeKind::Un(_) | NodeKind::ReadInput(_) => node.expr.map(SpecKey::Expr),
        NodeKind::LoadArray(a, _) => Some(SpecKey::Array(*a)),
        NodeKind::StoreArray(a, _) => Some(SpecKey::Array(*a)),
        NodeKind::LoadParam(p, _) => Some(SpecKey::Param(*p)),
        _ => None,
    }
}

/// Format of the *value* a node delivers, resolving `VarUse` wiring to the
/// producer. Exact values (constants, initial zeros) report a very fine
/// format that never forces scaling.
pub fn value_format(spec: &FixedPointSpec, dfg: &Dfg, n: NodeId) -> QFormat {
    let p = resolve_producer(dfg, n);
    match node_key(dfg, p) {
        Some(key) => spec.format(key),
        None => QFormat::new(1, 61), // exact: constants / live-in zeros
    }
}

/// Current word length of a node's value.
pub fn value_wl(spec: &FixedPointSpec, dfg: &Dfg, n: NodeId) -> i32 {
    value_format(spec, dfg, n).wl()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_ir::blocks::collect_blocks;
    use slpwlo_ir::parser::parse_kernel;

    #[test]
    fn keys_and_value_formats() {
        let src = r#"
kernel k {
    input x range [-1, 1];
    output y;
    param c[2] = { 0.4, 0.2 };
    array dl[2];
    var m;
    shiftin dl <- x;
    m = c[0] * dl[0];
    y = m + c[1] * dl[1];
}
"#;
        let k = parse_kernel(src).unwrap();
        let r = determine_ranges(&k);
        let spec = slpwlo_fixedpoint::FixedPointSpec::from_ranges(&k, &r, 32);
        let blocks = collect_blocks(&k);
        let dfg = Dfg::from_stmts(&k, &blocks[0].stmts);
        for (id, node) in dfg.iter() {
            match &node.kind {
                NodeKind::LoadArray(..) => {
                    assert!(matches!(node_key(&dfg, id), Some(SpecKey::Array(_))));
                }
                NodeKind::LoadParam(..) => {
                    assert!(matches!(node_key(&dfg, id), Some(SpecKey::Param(_))));
                    assert_eq!(value_wl(&spec, &dfg, id), 32);
                }
                NodeKind::VarUse(_) => {
                    // Resolves to the mul's expression format.
                    assert_eq!(value_wl(&spec, &dfg, id), 32);
                }
                NodeKind::Const(_) => {
                    assert!(node_key(&dfg, id).is_none());
                    assert_eq!(value_format(&spec, &dfg, id).fwl, 61);
                }
                _ => {}
            }
        }
    }
}
