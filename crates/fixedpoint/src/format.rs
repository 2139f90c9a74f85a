//! Fixed-point formats.

use std::fmt;

/// A two's-complement fixed-point format `<IWL, FWL>`.
///
/// Following the ID.Fix convention used by the paper, the **integer word
/// length includes the sign bit** and the total word length is
/// `WL = IWL + FWL`. A value with format `<i, f>` is stored as an integer
/// `raw` and denotes `raw * 2^-f`, covering the closed-open range
/// `[-2^(i-1), 2^(i-1))` with step `2^-f`.
///
/// `FWL` may be negative (steps larger than one) and `IWL` may exceed the
/// word length of the container; only the *sum* is constrained by the
/// target processor.
///
/// # Example
///
/// ```
/// use slpwlo_fixedpoint::QFormat;
///
/// let q15 = QFormat::new(1, 15); // Q1.15: [-1, 1) with step 2^-15
/// assert_eq!(q15.wl(), 16);
/// assert_eq!(q15.step(), 2f64.powi(-15));
/// assert_eq!(q15.max_value(), 1.0 - 2f64.powi(-15));
/// assert_eq!(q15.min_value(), -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    /// Integer word length, sign bit included.
    pub iwl: i32,
    /// Fractional word length.
    pub fwl: i32,
}

impl QFormat {
    /// Creates a format from integer and fractional word lengths.
    pub fn new(iwl: i32, fwl: i32) -> Self {
        QFormat { iwl, fwl }
    }

    /// Total word length `IWL + FWL`.
    pub fn wl(self) -> i32 {
        self.iwl + self.fwl
    }

    /// Quantization step `2^-FWL`.
    pub fn step(self) -> f64 {
        pow2(-self.fwl)
    }

    /// Largest representable value, `2^(IWL-1) - step`.
    pub fn max_value(self) -> f64 {
        pow2(self.iwl - 1) - self.step()
    }

    /// Smallest representable value, `-2^(IWL-1)`.
    pub fn min_value(self) -> f64 {
        -pow2(self.iwl - 1)
    }

    /// Largest raw integer value.
    pub fn max_raw(self) -> i64 {
        debug_assert!(self.wl() <= 63, "format wider than i64");
        (1i64 << (self.wl() - 1)) - 1
    }

    /// Smallest raw integer value.
    pub fn min_raw(self) -> i64 {
        debug_assert!(self.wl() <= 63, "format wider than i64");
        -(1i64 << (self.wl() - 1))
    }

    /// The minimal IWL (sign included) covering the closed range
    /// `[lo, hi]`, letting the extreme positive value saturate by one step
    /// when `hi` is an exact power of two (Q1.15 practice: `[-1, 1]` maps
    /// to IWL 1 with `+1.0` saturating to `1 - 2^-15`).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn iwl_for_range(lo: f64, hi: f64) -> i32 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        assert!(lo.is_finite() && hi.is_finite(), "range must be finite");
        let mag = lo.abs().max(hi.abs());
        if mag == 0.0 {
            return 1; // sign bit only
        }
        // Smallest i with 2^(i-1) >= mag.
        let mut i = (mag.log2().ceil() as i32) + 1;
        // Guard against log2 rounding artefacts at power-of-two boundaries.
        while pow2(i - 1) < mag {
            i += 1;
        }
        while i > 1 && pow2(i - 2) >= mag {
            i -= 1;
        }
        i
    }

    /// Builds a format covering `[lo, hi]` within `wl` total bits: minimal
    /// IWL, all remaining bits fractional.
    pub fn for_range(lo: f64, hi: f64, wl: i32) -> Self {
        let iwl = Self::iwl_for_range(lo, hi);
        QFormat { iwl, fwl: wl - iwl }
    }

    /// Returns a copy resized to `wl` total bits, preserving IWL (the
    /// range) and trading fractional bits — the adjustment performed when
    /// a node's word length is changed by WLO.
    pub fn with_wl(self, wl: i32) -> Self {
        QFormat {
            iwl: self.iwl,
            fwl: wl - self.iwl,
        }
    }

    /// Returns a copy with the fractional length reduced by `delta`
    /// (IWL grows so the word length is preserved) — the adjustment
    /// performed by scaling optimization.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative.
    pub fn shrink_fwl(self, delta: i32) -> Self {
        assert!(delta >= 0, "shrink_fwl takes a non-negative delta");
        QFormat {
            iwl: self.iwl + delta,
            fwl: self.fwl - delta,
        }
    }

    /// Returns `true` if every value representable in `other` is exactly
    /// representable in `self`.
    pub fn covers(self, other: QFormat) -> bool {
        self.iwl >= other.iwl && self.fwl >= other.fwl
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},{}>", self.iwl, self.fwl)
    }
}

/// `2^e` as f64 for arbitrary (possibly negative) exponents.
///
/// In the normal range the result is assembled from its exponent bits,
/// which is exact and bit-identical to `powi`; subnormal and overflowing
/// exponents fall back to `powi` itself.
pub(crate) fn pow2(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        pow2_outside_normal(e)
    }
}

/// Out of line, so the optimizer cannot hoist the `powi` call into the
/// common path of [`pow2`].
#[cold]
#[inline(never)]
fn pow2_outside_normal(e: i32) -> f64 {
    f64::powi(2.0, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q15_basics() {
        let q = QFormat::new(1, 15);
        assert_eq!(q.wl(), 16);
        assert_eq!(q.max_raw(), 32767);
        assert_eq!(q.min_raw(), -32768);
        assert_eq!(q.min_value(), -1.0);
    }

    #[test]
    fn iwl_for_ranges() {
        assert_eq!(QFormat::iwl_for_range(-1.0, 1.0), 1);
        assert_eq!(QFormat::iwl_for_range(-0.5, 0.5), 0);
        assert_eq!(QFormat::iwl_for_range(-2.0, 1.5), 2);
        assert_eq!(QFormat::iwl_for_range(0.0, 0.0), 1);
        assert_eq!(QFormat::iwl_for_range(-4.0, 3.0), 3);
        assert_eq!(QFormat::iwl_for_range(-0.25, 0.2), -1);
        assert_eq!(QFormat::iwl_for_range(0.0, 100.0), 8);
    }

    #[test]
    fn for_range_uses_all_bits() {
        let q = QFormat::for_range(-1.0, 1.0, 16);
        assert_eq!(q, QFormat::new(1, 15));
        let q = QFormat::for_range(-8.0, 8.0, 32);
        assert_eq!(q, QFormat::new(4, 28));
    }

    #[test]
    fn with_wl_preserves_range() {
        let q = QFormat::for_range(-2.0, 2.0, 32);
        let h = q.with_wl(16);
        assert_eq!(h.iwl, q.iwl);
        assert_eq!(h.wl(), 16);
    }

    #[test]
    fn shrink_fwl_keeps_wl() {
        let q = QFormat::new(1, 15).shrink_fwl(3);
        assert_eq!(q, QFormat::new(4, 12));
        assert_eq!(q.wl(), 16);
    }

    #[test]
    fn covers_partial_order() {
        let wide = QFormat::new(4, 28);
        let narrow = QFormat::new(2, 14);
        assert!(wide.covers(narrow));
        assert!(!narrow.covers(wide));
        assert!(wide.covers(wide));
    }

    #[test]
    fn negative_fwl_is_allowed() {
        let q = QFormat::new(10, -2);
        assert_eq!(q.wl(), 8);
        assert_eq!(q.step(), 4.0);
        assert_eq!(q.max_value(), 512.0 - 4.0);
    }

    #[test]
    fn pow2_matches_powi_bitwise() {
        for e in -1100..=1100 {
            assert_eq!(pow2(e).to_bits(), 2f64.powi(e).to_bits(), "2^{e}");
        }
    }

    #[test]
    fn display() {
        assert_eq!(QFormat::new(1, 15).to_string(), "<1,15>");
    }
}
