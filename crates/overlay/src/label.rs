//! Fixed-point labels on the unit ring `[0, 1)`.
//!
//! The paper identifies every virtual node with a real-valued label in
//! `[0, 1)` and places elements of the DHT at real-valued keys in the same
//! interval.  Using `f64` for these would make protocol-critical comparisons
//! depend on floating-point rounding, so we represent a label as a `u64`
//! numerator over `2^64`: the label value is `raw / 2^64`.  Halving and the
//! De-Bruijn "distance-halving" maps `x ↦ x/2` and `x ↦ (x+1)/2` are exact
//! in this representation.

use std::fmt;

/// A point on the unit ring `[0, 1)`, stored as `raw / 2^64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label(pub u64);

impl Label {
    /// Raw numerator over `2^64`.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Creates a label from an `f64` in `[0, 1)`; values outside the range
    /// are clamped. Intended for tests and display-level code only.
    pub fn from_f64(x: f64) -> Self {
        let clamped = x.clamp(0.0, 1.0 - f64::EPSILON);
        Label((clamped * (u64::MAX as f64 + 1.0)) as u64)
    }

    /// The label as an `f64` (for display and plotting only).
    #[inline]
    pub(crate) fn to_f64(self) -> f64 {
        self.0 as f64 / (u64::MAX as f64 + 1.0)
    }

    /// The De-Bruijn left map `x ↦ x/2`, i.e. the label of `l(v)` given
    /// `m(v)`.
    #[inline]
    pub(crate) fn half(self) -> Label {
        Label(self.0 >> 1)
    }

    /// The De-Bruijn right map `x ↦ (x+1)/2`, i.e. the label of `r(v)` given
    /// `m(v)`.
    #[inline]
    pub(crate) fn half_plus(self) -> Label {
        Label((self.0 >> 1) | (1 << 63))
    }

    /// Clockwise (increasing-label) distance from `self` to `to` on the unit
    /// ring, as a raw `u64` fraction of the ring.
    #[inline]
    pub fn cw_distance(self, to: Label) -> u64 {
        to.0.wrapping_sub(self.0)
    }

    /// Counter-clockwise distance from `self` to `to` on the ring.
    #[inline]
    pub(crate) fn ccw_distance(self, to: Label) -> u64 {
        self.0.wrapping_sub(to.0)
    }

    /// True if `self` lies in the half-open ring interval `[lo, hi)`,
    /// handling wrap-around. The full ring (`lo == hi`) contains everything.
    #[inline]
    pub fn in_interval(self, lo: Label, hi: Label) -> bool {
        if lo == hi {
            // Degenerate interval: interpreted as the whole ring. This is the
            // convention needed for a single-node system, where a node is
            // responsible for every key.
            return true;
        }
        if lo < hi {
            lo <= self && self < hi
        } else {
            // Wraps around 1.0.
            self >= lo || self < hi
        }
    }
}

/// What the halving maps are checked against in the tests; the protocol
/// itself only ever halves.
#[cfg(test)]
impl Label {
    /// The inverse of the distance-halving maps: `x ↦ 2x mod 1`.
    #[inline]
    pub(crate) fn double(self) -> Label {
        Label(self.0 << 1)
    }

    /// Applies the distance-halving map with the given bit:
    /// `bit == false` gives `x/2`, `bit == true` gives `(x+1)/2`.
    #[inline]
    pub(crate) fn debruijn_step(self, bit: bool) -> Label {
        if bit {
            self.half_plus()
        } else {
            self.half()
        }
    }

    /// `true` for labels in `[0, 1/2)` — the range of left virtual nodes.
    #[inline]
    pub(crate) fn is_left_half(self) -> bool {
        self.0 < (1 << 63)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L({:.6})", self.to_f64())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_f64_roundtrip() {
        for x in [0.0, 0.1, 0.25, 0.5, 0.75, 0.999] {
            let l = Label::from_f64(x);
            assert!((l.to_f64() - x).abs() < 1e-9, "{x}");
        }
        // Out-of-range values are clamped.
        assert_eq!(Label::from_f64(-1.0), Label(0));
        assert!(Label::from_f64(2.0).to_f64() < 1.0);
    }

    #[test]
    fn half_and_half_plus_match_paper_definition() {
        let m = Label::from_f64(0.6);
        assert!((m.half().to_f64() - 0.3).abs() < 1e-9);
        assert!((m.half_plus().to_f64() - 0.8).abs() < 1e-9);
        // l(v) is always in [0, 0.5) and r(v) always in [0.5, 1).
        assert!(m.half().is_left_half());
        assert!(!m.half_plus().is_left_half());
    }

    #[test]
    fn double_inverts_half() {
        let x = Label(0x1234_5678_9abc_def0);
        assert_eq!(x.half().double(), Label(x.0 & !1));
        assert_eq!(x.half_plus().double(), Label(x.0 & !1));
    }

    #[test]
    fn debruijn_step_selects_map() {
        let x = Label::from_f64(0.3);
        assert_eq!(x.debruijn_step(false), x.half());
        assert_eq!(x.debruijn_step(true), x.half_plus());
    }

    #[test]
    fn distances_on_ring() {
        let a = Label::from_f64(0.1);
        let b = Label::from_f64(0.9);
        // Clockwise from 0.1 to 0.9 is 0.8 of the ring.
        assert!((a.cw_distance(b) as f64 / 2f64.powi(64) - 0.8).abs() < 1e-9);
        // Counter-clockwise is 0.2.
        assert!((a.ccw_distance(b) as f64 / 2f64.powi(64) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn interval_membership_without_wrap() {
        let lo = Label::from_f64(0.2);
        let hi = Label::from_f64(0.6);
        assert!(Label::from_f64(0.2).in_interval(lo, hi));
        assert!(Label::from_f64(0.4).in_interval(lo, hi));
        assert!(!Label::from_f64(0.6).in_interval(lo, hi));
        assert!(!Label::from_f64(0.1).in_interval(lo, hi));
        assert!(!Label::from_f64(0.9).in_interval(lo, hi));
    }

    #[test]
    fn interval_membership_with_wrap() {
        let lo = Label::from_f64(0.8);
        let hi = Label::from_f64(0.2);
        assert!(Label::from_f64(0.9).in_interval(lo, hi));
        assert!(Label::from_f64(0.1).in_interval(lo, hi));
        assert!(Label::from_f64(0.0).in_interval(lo, hi));
        assert!(!Label::from_f64(0.5).in_interval(lo, hi));
        assert!(!Label::from_f64(0.2).in_interval(lo, hi));
    }

    #[test]
    fn degenerate_interval_is_whole_ring() {
        let x = Label::from_f64(0.33);
        assert!(Label::from_f64(0.7).in_interval(x, x));
        assert!(x.in_interval(x, x));
    }

    #[test]
    fn display_formats() {
        let l = Label::from_f64(0.25);
        assert_eq!(format!("{l}"), "0.250000");
        assert!(format!("{l:?}").starts_with("L(0.25"));
    }

    proptest! {
        #[test]
        fn prop_half_lands_in_left_half(raw in any::<u64>()) {
            prop_assert!(Label(raw).half().is_left_half());
        }

        #[test]
        fn prop_half_plus_lands_in_right_half(raw in any::<u64>()) {
            prop_assert!(!Label(raw).half_plus().is_left_half());
        }

        #[test]
        fn prop_halving_preserves_order(a in any::<u64>(), b in any::<u64>()) {
            let (la, lb) = (Label(a), Label(b));
            prop_assert_eq!(la <= lb, la.half() <= lb.half());
            prop_assert_eq!(la <= lb, la.half_plus() <= lb.half_plus());
        }

        #[test]
        fn prop_cw_plus_ccw_is_full_ring(a in any::<u64>(), b in any::<u64>()) {
            let (la, lb) = (Label(a), Label(b));
            // cw + ccw distances wrap to 0 (i.e. a full ring) unless equal.
            prop_assert_eq!(la.cw_distance(lb).wrapping_add(la.ccw_distance(lb)), 0);
        }

        #[test]
        fn prop_interval_halves_partition(x in any::<u64>(), lo in any::<u64>(), hi in any::<u64>()) {
            prop_assume!(lo != hi);
            let (x, lo, hi) = (Label(x), Label(lo), Label(hi));
            // Every point is in exactly one of [lo, hi) and [hi, lo).
            prop_assert!(x.in_interval(lo, hi) ^ x.in_interval(hi, lo));
        }

        #[test]
        fn prop_debruijn_step_halves_absolute_distance(a in any::<u64>(), b in any::<u64>(), bit in any::<bool>()) {
            // Distance halving: the maps x ↦ x/2 and x ↦ (x+1)/2 contract the
            // *absolute* (non-wrapping) difference between two points by a
            // factor of 2 (up to one ulp of rounding).
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let before = hi - lo;
            let la = Label(lo).debruijn_step(bit);
            let lb = Label(hi).debruijn_step(bit);
            let after = lb.raw() - la.raw();
            prop_assert!(after <= before / 2 + 1);
            prop_assert!(after + 1 >= before / 2);
        }
    }
}
