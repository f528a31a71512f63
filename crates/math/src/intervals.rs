//! Sets of disjoint real intervals with exact open/closed endpoints.
//!
//! The conditional satisfaction set of an MF-CSL formula,
//! `cSat(Ψ, m̄, θ) = { t ∈ [0, θ] | m̄(t) ⊨ Ψ }` (Eq. 20 of the paper), is a
//! finite union of intervals whose endpoints are threshold-crossing times.
//! Whether an endpoint belongs to the set depends on the comparison operator
//! (`≥ p` vs `> p`), so open/closed-ness is tracked exactly. The boolean
//! structure of MF-CSL (`¬`, `∧`) maps onto complement and intersection of
//! these sets (Sec. V-B).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::MathError;

/// A nonempty real interval with individually open or closed endpoints.
///
/// Invariant: `lo < hi`, or `lo == hi` with both endpoints closed (a single
/// point).
///
/// # Example
///
/// ```
/// use mfcsl_math::Interval;
///
/// # fn main() -> Result<(), mfcsl_math::MathError> {
/// let i = Interval::closed_open(0.0, 14.5412)?;
/// assert!(i.contains(0.0));
/// assert!(!i.contains(14.5412));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
    lo_closed: bool,
    hi_closed: bool,
}

/// One endpoint of an [`Interval`]: a value plus whether it is included.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Endpoint {
    /// The coordinate of the endpoint.
    pub value: f64,
    /// Whether the endpoint itself belongs to the interval.
    pub closed: bool,
}

impl Interval {
    /// Creates an interval with explicit endpoint closedness.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if the endpoints are not
    /// finite, if `lo > hi`, or if `lo == hi` without both endpoints closed
    /// (which would denote the empty set — use [`IntervalSet::empty`]).
    pub fn new(lo: f64, hi: f64, lo_closed: bool, hi_closed: bool) -> Result<Self, MathError> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(MathError::InvalidArgument(format!(
                "interval endpoints must be finite, got [{lo}, {hi}]"
            )));
        }
        if lo > hi || (lo == hi && !(lo_closed && hi_closed)) {
            return Err(MathError::InvalidArgument(format!(
                "interval bounds are empty: {}{lo}, {hi}{}",
                if lo_closed { '[' } else { '(' },
                if hi_closed { ']' } else { ')' },
            )));
        }
        Ok(Interval {
            lo,
            hi,
            lo_closed,
            hi_closed,
        })
    }

    /// Creates the closed interval `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// See [`Interval::new`].
    pub fn closed(lo: f64, hi: f64) -> Result<Self, MathError> {
        Interval::new(lo, hi, true, true)
    }

    /// Creates the open interval `(lo, hi)`.
    ///
    /// # Errors
    ///
    /// See [`Interval::new`].
    pub fn open(lo: f64, hi: f64) -> Result<Self, MathError> {
        Interval::new(lo, hi, false, false)
    }

    /// Creates the half-open interval `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// See [`Interval::new`].
    pub fn closed_open(lo: f64, hi: f64) -> Result<Self, MathError> {
        Interval::new(lo, hi, true, false)
    }

    /// Creates the half-open interval `(lo, hi]`.
    ///
    /// # Errors
    ///
    /// See [`Interval::new`].
    pub fn open_closed(lo: f64, hi: f64) -> Result<Self, MathError> {
        Interval::new(lo, hi, false, true)
    }

    /// Creates the degenerate single-point interval `[x, x]`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if `x` is not finite.
    pub fn point(x: f64) -> Result<Self, MathError> {
        Interval::new(x, x, true, true)
    }

    /// Lower endpoint.
    #[must_use]
    pub fn lo(&self) -> Endpoint {
        Endpoint {
            value: self.lo,
            closed: self.lo_closed,
        }
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(&self) -> Endpoint {
        Endpoint {
            value: self.hi,
            closed: self.hi_closed,
        }
    }

    /// Returns `true` if `t` belongs to the interval.
    #[must_use]
    pub fn contains(&self, t: f64) -> bool {
        let above = t > self.lo || (t == self.lo && self.lo_closed);
        let below = t < self.hi || (t == self.hi && self.hi_closed);
        above && below
    }

    /// Lebesgue measure (length) of the interval.
    #[must_use]
    pub fn measure(&self) -> f64 {
        self.hi - self.lo
    }

    /// Intersection of two intervals, or `None` if disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        // Larger lower bound wins; on a tie the bound is closed only if both are.
        let (lo, lo_closed) = match self.lo.partial_cmp(&other.lo).expect("finite") {
            std::cmp::Ordering::Greater => (self.lo, self.lo_closed),
            std::cmp::Ordering::Less => (other.lo, other.lo_closed),
            std::cmp::Ordering::Equal => (self.lo, self.lo_closed && other.lo_closed),
        };
        let (hi, hi_closed) = match self.hi.partial_cmp(&other.hi).expect("finite") {
            std::cmp::Ordering::Less => (self.hi, self.hi_closed),
            std::cmp::Ordering::Greater => (other.hi, other.hi_closed),
            std::cmp::Ordering::Equal => (self.hi, self.hi_closed && other.hi_closed),
        };
        Interval::new(lo, hi, lo_closed, hi_closed).ok()
    }

    /// Returns `true` if the union of the two intervals is a single
    /// interval (they overlap or touch at a covered endpoint).
    #[must_use]
    pub fn touches(&self, other: &Interval) -> bool {
        let (a, b) = if self.lo <= other.lo {
            (self, other)
        } else {
            (other, self)
        };
        b.lo < a.hi || (b.lo == a.hi && (a.hi_closed || b.lo_closed))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}, {}{}",
            if self.lo_closed { '[' } else { '(' },
            self.lo,
            self.hi,
            if self.hi_closed { ']' } else { ')' },
        )
    }
}

/// A finite union of disjoint intervals, kept sorted and maximally merged.
///
/// # Example
///
/// ```
/// use mfcsl_math::{Interval, IntervalSet};
///
/// # fn main() -> Result<(), mfcsl_math::MathError> {
/// let a = IntervalSet::from_intervals(vec![
///     Interval::closed(0.0, 1.0)?,
///     Interval::closed(0.5, 2.0)?,
/// ]);
/// assert_eq!(a.intervals().len(), 1); // merged into [0, 2]
/// let c = a.complement(0.0, 3.0)?;
/// assert!(c.contains(2.5));
/// assert!(!c.contains(2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IntervalSet {
    intervals: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        IntervalSet::default()
    }

    /// The set containing a single interval.
    #[must_use]
    pub fn from_interval(interval: Interval) -> Self {
        IntervalSet {
            intervals: vec![interval],
        }
    }

    /// Builds a set from arbitrary intervals, normalizing (sorting and
    /// merging) as needed.
    #[must_use]
    pub fn from_intervals(intervals: Vec<Interval>) -> Self {
        let mut sorted = intervals;
        sorted.sort_by(|a, b| {
            a.lo.partial_cmp(&b.lo)
                .expect("finite")
                // Closed lower bound starts "earlier" than open at same value.
                .then_with(|| b.lo_closed.cmp(&a.lo_closed))
        });
        let mut merged: Vec<Interval> = Vec::with_capacity(sorted.len());
        for iv in sorted {
            match merged.last_mut() {
                Some(last) if last.touches(&iv) => {
                    // Extend the upper bound if iv reaches further.
                    match iv.hi.partial_cmp(&last.hi).expect("finite") {
                        std::cmp::Ordering::Greater => {
                            last.hi = iv.hi;
                            last.hi_closed = iv.hi_closed;
                        }
                        std::cmp::Ordering::Equal => {
                            last.hi_closed = last.hi_closed || iv.hi_closed;
                        }
                        std::cmp::Ordering::Less => {}
                    }
                    // Lower bound can only become closed (same value, sorted).
                    if iv.lo == last.lo {
                        last.lo_closed = last.lo_closed || iv.lo_closed;
                    }
                }
                _ => merged.push(iv),
            }
        }
        IntervalSet { intervals: merged }
    }

    /// The normalized component intervals, in increasing order.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Returns `true` if `t` belongs to the set.
    #[must_use]
    pub fn contains(&self, t: f64) -> bool {
        self.intervals.iter().any(|iv| iv.contains(t))
    }

    /// Total Lebesgue measure of the set.
    #[must_use]
    pub fn measure(&self) -> f64 {
        self.intervals
            .iter()
            .map(Interval::measure)
            .fold(0.0, |acc, m| acc + m)
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all = self.intervals.clone();
        all.extend(other.intervals.iter().copied());
        IntervalSet::from_intervals(all)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        for a in &self.intervals {
            for b in &other.intervals {
                if let Some(iv) = a.intersect(b) {
                    out.push(iv);
                }
            }
        }
        IntervalSet::from_intervals(out)
    }

    /// Complement within the closed universe `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if `lo > hi` or either bound
    /// is not finite.
    pub fn complement(&self, lo: f64, hi: f64) -> Result<IntervalSet, MathError> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(MathError::InvalidArgument(format!(
                "invalid complement universe [{lo}, {hi}]"
            )));
        }
        let universe = Interval::closed(lo, hi)?;
        // Clip the set to the universe first.
        let clipped = self.intersect(&IntervalSet::from_interval(universe));
        let mut out = Vec::new();
        let mut cursor = Endpoint {
            value: lo,
            closed: true,
        };
        for iv in &clipped.intervals {
            // Gap from cursor to the interval's lower endpoint.
            let gap_hi = Endpoint {
                value: iv.lo,
                closed: !iv.lo_closed,
            };
            if let Ok(gap) = Interval::new(cursor.value, gap_hi.value, cursor.closed, gap_hi.closed)
            {
                out.push(gap);
            }
            cursor = Endpoint {
                value: iv.hi,
                closed: !iv.hi_closed,
            };
        }
        if let Ok(tail) = Interval::new(cursor.value, hi, cursor.closed, true) {
            out.push(tail);
        }
        Ok(IntervalSet::from_intervals(out))
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter.into_iter().collect())
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.intervals.is_empty() {
            return write!(f, "∅");
        }
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_construction_and_contains() {
        let i = Interval::closed_open(0.0, 1.0).unwrap();
        assert!(i.contains(0.0));
        assert!(i.contains(0.999));
        assert!(!i.contains(1.0));
        assert!(!i.contains(-0.1));
        let p = Interval::point(2.0).unwrap();
        assert!(p.contains(2.0));
        assert_eq!(p.measure(), 0.0);
    }

    #[test]
    fn invalid_intervals_rejected() {
        assert!(Interval::closed(1.0, 0.0).is_err());
        assert!(Interval::open(1.0, 1.0).is_err());
        assert!(Interval::closed_open(1.0, 1.0).is_err());
        assert!(Interval::closed(f64::NAN, 1.0).is_err());
        assert!(Interval::closed(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn interval_intersection() {
        let a = Interval::closed(0.0, 2.0).unwrap();
        let b = Interval::open(1.0, 3.0).unwrap();
        let c = a.intersect(&b).unwrap();
        assert_eq!(c, Interval::open_closed(1.0, 2.0).unwrap());
        // Touching open/closed endpoints: [0,1) ∩ [1,2] = ∅.
        let d = Interval::closed_open(0.0, 1.0).unwrap();
        let e = Interval::closed(1.0, 2.0).unwrap();
        assert!(d.intersect(&e).is_none());
        // [0,1] ∩ [1,2] = {1}.
        let f = Interval::closed(0.0, 1.0).unwrap();
        assert_eq!(f.intersect(&e).unwrap(), Interval::point(1.0).unwrap());
    }

    #[test]
    fn touching_rules() {
        let ho = Interval::closed_open(0.0, 1.0).unwrap();
        let c = Interval::closed(1.0, 2.0).unwrap();
        let o = Interval::open(1.0, 2.0).unwrap();
        assert!(ho.touches(&c)); // [0,1) ∪ [1,2] is contiguous
        assert!(!ho.touches(&o)); // [0,1) ∪ (1,2] has a hole at 1
    }

    #[test]
    fn set_normalization_merges() {
        let s = IntervalSet::from_intervals(vec![
            Interval::closed(2.0, 3.0).unwrap(),
            Interval::closed_open(0.0, 1.0).unwrap(),
            Interval::closed(1.0, 2.5).unwrap(),
        ]);
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.intervals()[0], Interval::closed(0.0, 3.0).unwrap());
    }

    #[test]
    fn set_normalization_keeps_holes() {
        let s = IntervalSet::from_intervals(vec![
            Interval::closed_open(0.0, 1.0).unwrap(),
            Interval::open(1.0, 2.0).unwrap(),
        ]);
        assert_eq!(s.intervals().len(), 2);
        assert!(!s.contains(1.0));
        assert!((s.measure() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn union_and_intersection() {
        let a = IntervalSet::from_interval(Interval::closed(0.0, 2.0).unwrap());
        let b = IntervalSet::from_interval(Interval::closed(1.0, 3.0).unwrap());
        let u = a.union(&b);
        assert_eq!(u.intervals().len(), 1);
        assert_eq!(u.measure(), 3.0);
        let i = a.intersect(&b);
        assert_eq!(i.intervals()[0], Interval::closed(1.0, 2.0).unwrap());
    }

    #[test]
    fn complement_basics() {
        // Complement of [0, 14.5412) in [0, 20] is [14.5412, 20].
        let s = IntervalSet::from_interval(Interval::closed_open(0.0, 14.5412).unwrap());
        let c = s.complement(0.0, 20.0).unwrap();
        assert_eq!(c.intervals().len(), 1);
        assert_eq!(c.intervals()[0], Interval::closed(14.5412, 20.0).unwrap());
        // Complement of empty set is the universe.
        let all = IntervalSet::empty().complement(0.0, 1.0).unwrap();
        assert_eq!(all.intervals()[0], Interval::closed(0.0, 1.0).unwrap());
        // Complement of the universe is empty.
        assert!(all.complement(0.0, 1.0).unwrap().is_empty());
    }

    #[test]
    fn complement_produces_point_gaps() {
        // Complement of [0,1) ∪ (1,2] in [0,2] is the single point {1}.
        let s = IntervalSet::from_intervals(vec![
            Interval::closed_open(0.0, 1.0).unwrap(),
            Interval::open_closed(1.0, 2.0).unwrap(),
        ]);
        let c = s.complement(0.0, 2.0).unwrap();
        assert_eq!(c.intervals(), &[Interval::point(1.0).unwrap()]);
    }

    #[test]
    fn complement_invalid_universe() {
        assert!(IntervalSet::empty().complement(1.0, 0.0).is_err());
        assert!(IntervalSet::empty().complement(0.0, f64::NAN).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(IntervalSet::empty().to_string(), "∅");
        let s = IntervalSet::from_intervals(vec![
            Interval::closed_open(0.0, 1.0).unwrap(),
            Interval::open(2.0, 3.0).unwrap(),
        ]);
        assert_eq!(s.to_string(), "[0, 1) ∪ (2, 3)");
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (
            -5.0_f64..5.0,
            0.01_f64..3.0,
            proptest::bool::ANY,
            proptest::bool::ANY,
        )
            .prop_map(|(lo, len, lc, hc)| Interval::new(lo, lo + len, lc, hc).unwrap())
    }

    fn arb_set() -> impl Strategy<Value = IntervalSet> {
        proptest::collection::vec(arb_interval(), 0..5).prop_map(IntervalSet::from_intervals)
    }

    proptest! {
        /// De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B within a universe.
        #[test]
        fn prop_de_morgan(a in arb_set(), b in arb_set(), t in -10.0_f64..10.0) {
            let (lo, hi) = (-10.0, 10.0);
            let lhs = a.union(&b).complement(lo, hi).unwrap();
            let rhs = a.complement(lo, hi).unwrap().intersect(&b.complement(lo, hi).unwrap());
            prop_assert_eq!(lhs.contains(t), rhs.contains(t));
        }

        /// Double complement restores membership (within the universe).
        #[test]
        fn prop_double_complement(a in arb_set(), t in -10.0_f64..10.0) {
            let c2 = a.complement(-10.0, 10.0).unwrap().complement(-10.0, 10.0).unwrap();
            prop_assert_eq!(a.contains(t), c2.contains(t));
        }

        /// Union membership is pointwise disjunction; intersection is
        /// conjunction.
        #[test]
        fn prop_pointwise_semantics(a in arb_set(), b in arb_set(), t in -10.0_f64..10.0) {
            prop_assert_eq!(a.union(&b).contains(t), a.contains(t) || b.contains(t));
            prop_assert_eq!(a.intersect(&b).contains(t), a.contains(t) && b.contains(t));
        }

        /// Normalization is idempotent and components are disjoint and sorted.
        #[test]
        fn prop_normalized(a in arb_set()) {
            let again = IntervalSet::from_intervals(a.intervals().to_vec());
            prop_assert_eq!(a.clone(), again);
            for w in a.intervals().windows(2) {
                prop_assert!(w[0].hi().value <= w[1].lo().value);
                prop_assert!(!w[0].touches(&w[1]));
            }
        }
    }
}
