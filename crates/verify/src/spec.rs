//! The spec verifier: static overflow-freedom of a [`FixedPointSpec`].
//!
//! The paper's guarantee is that the chosen word lengths are *provably*
//! sufficient: every site's integer word length covers the dynamic
//! range the analysis established, so no saturation occurs beyond the
//! declared power-of-two envelope. This checker re-states that proof
//! independently of the optimizer that produced the spec:
//!
//! * every optimizable site's format covers the established range
//!   (`iwl >= iwl_for_range(lo, hi)` — the WLO only ever trades
//!   fractional bits, the scaling optimizer only ever *adds* integer
//!   bits, so this must hold after every transformation);
//! * every word length is positive, within the spec's budget and
//!   machine-representable (≤ 63 bits including the sign — beyond that
//!   the `i64` interpretation and the C backends are meaningless);
//! * in deep (paranoid) mode, the value ranges themselves are
//!   re-derived by interval abstract interpretation over
//!   `slpwlo_fixedpoint::interval` and the declared ranges are checked
//!   to *enclose* the re-derived fixpoint. Simulation-derived ranges
//!   (the fallback when interval iteration diverges on feedback) are
//!   exempt: they are deliberately narrower than any sound static
//!   bound, which is a modelling choice, not an invariant break.

use crate::{Invariant, Pass, VerifyError};
use slpwlo_fixedpoint::range::{interval_ranges, RangeMethod, Ranges};
use slpwlo_fixedpoint::spec::SpecKey;
use slpwlo_fixedpoint::{FixedPointSpec, Interval, QFormat};
use slpwlo_ir::Kernel;

fn err(
    kernel: &Kernel,
    invariant: Invariant,
    node: Option<String>,
    detail: impl Into<String>,
) -> VerifyError {
    VerifyError::new(
        Pass::Spec,
        invariant,
        format!("spec for kernel {}", kernel.name()),
        node,
        detail,
    )
}

fn key_range(ranges: &Ranges, key: SpecKey) -> Interval {
    match key {
        SpecKey::Expr(e) => ranges.expr(e),
        SpecKey::Array(a) => ranges.arrays[a.index()],
        SpecKey::Param(p) => ranges.params[p.index()],
    }
}

/// Verifies a fixed-point spec against the ranges it was derived from.
///
/// With `deep` set, additionally re-derives the ranges by interval
/// analysis and proves the declared ranges enclose the fixpoint
/// (skipped for simulation-derived ranges, where no convergent interval
/// fixpoint exists).
pub fn verify_spec(
    kernel: &Kernel,
    ranges: &Ranges,
    spec: &FixedPointSpec,
    deep: bool,
) -> Result<(), VerifyError> {
    let max_wl = spec.max_wl();
    for key in spec.optimizable_keys(kernel) {
        let fmt = spec.format(key);
        let wl = fmt.wl();
        if wl < 1 || wl > max_wl || wl > 63 {
            return Err(err(
                kernel,
                Invariant::WordLength,
                Some(key.to_string()),
                format!("wl {wl} outside [1, {}]", max_wl.min(63)),
            ));
        }
        let range = key_range(ranges, key);
        let need = QFormat::iwl_for_range(range.lo, range.hi);
        if fmt.iwl < need {
            return Err(err(
                kernel,
                Invariant::FormatOverflow,
                Some(key.to_string()),
                format!(
                    "format Q{}.{} cannot hold [{}, {}] (needs iwl {need})",
                    fmt.iwl, fmt.fwl, range.lo, range.hi
                ),
            ));
        }
    }
    if deep {
        verify_range_enclosure(kernel, ranges)?;
    }
    Ok(())
}

/// Re-derives interval ranges from the kernel's declared input ranges
/// and proves the declared [`Ranges`] enclose the fixpoint.
fn verify_range_enclosure(kernel: &Kernel, ranges: &Ranges) -> Result<(), VerifyError> {
    if !matches!(ranges.method, RangeMethod::Interval) {
        // Simulation ranges under-approximate by design; there is no
        // static fixpoint to compare against.
        return Ok(());
    }
    let Some(derived) = interval_ranges(kernel) else {
        return Err(err(
            kernel,
            Invariant::RangeDrift,
            None,
            "ranges claim interval convergence but re-derivation diverges",
        ));
    };
    for (id, _) in kernel.exprs() {
        let declared = ranges.expr(id);
        let re = derived.expr(id);
        if !declared.encloses(re) {
            return Err(err(
                kernel,
                Invariant::RangeDrift,
                Some(id.to_string()),
                format!(
                    "declared [{}, {}] does not enclose re-derived [{}, {}]",
                    declared.lo, declared.hi, re.lo, re.hi
                ),
            ));
        }
    }
    for (i, (declared, re)) in ranges.arrays.iter().zip(&derived.arrays).enumerate() {
        if !declared.encloses(*re) {
            return Err(err(
                kernel,
                Invariant::RangeDrift,
                Some(format!("array #{i}")),
                format!(
                    "declared [{}, {}] does not enclose re-derived [{}, {}]",
                    declared.lo, declared.hi, re.lo, re.hi
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_fixedpoint::range::determine_ranges;
    use slpwlo_ir::parser::parse_kernel;

    fn fir() -> Kernel {
        parse_kernel(
            r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[2] = { 0.5, 0.25 };
    array dl[2];
    var acc;
    shiftin dl <- x;
    acc = c[0] * dl[0] + c[1] * dl[1];
    y = acc;
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn accepts_freshly_derived_specs_at_every_wl() {
        let k = fir();
        let ranges = determine_ranges(&k);
        for wl in [8, 12, 16, 24, 32] {
            let spec = FixedPointSpec::from_ranges(&k, &ranges, wl);
            verify_spec(&k, &ranges, &spec, true).unwrap();
        }
    }

    #[test]
    fn kills_a_shrunk_iwl() {
        let k = fir();
        let ranges = determine_ranges(&k);
        let mut spec = FixedPointSpec::from_ranges(&k, &ranges, 16);
        let key = spec
            .optimizable_keys(&k)
            .into_iter()
            .find(|&key| {
                let r = key_range(&ranges, key);
                spec.format(key).iwl == QFormat::iwl_for_range(r.lo, r.hi)
            })
            .expect("some site sits exactly at its minimal iwl");
        let fmt = spec.format(key);
        spec.set_format(key, QFormat::new(fmt.iwl - 1, fmt.fwl));
        let e = verify_spec(&k, &ranges, &spec, false).unwrap_err();
        assert_eq!(e.invariant, Invariant::FormatOverflow);
        assert_eq!(e.pass, Pass::Spec);
    }

    #[test]
    fn kills_a_zero_word_length() {
        let k = fir();
        let ranges = determine_ranges(&k);
        let mut spec = FixedPointSpec::from_ranges(&k, &ranges, 16);
        let key = spec.optimizable_keys(&k)[0];
        let fmt = spec.format(key);
        spec.set_format(key, QFormat::new(fmt.iwl, -fmt.iwl));
        let e = verify_spec(&k, &ranges, &spec, false).unwrap_err();
        assert_eq!(e.invariant, Invariant::WordLength);
    }
}
