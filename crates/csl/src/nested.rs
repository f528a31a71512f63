//! Time-varying-set reachability (Sec. IV-C of the paper).
//!
//! Nested until formulas make the inner satisfaction sets *time-dependent*:
//! `Γ₁(t)`, `Γ₂(t)` are piecewise-constant with finitely many
//! *discontinuity points* `T₁ < … < T_k`. The reachability probability
//! `π^{[¬Γ₁∨Γ₂]}(t', t'+T)` is computed on an extended chain with a single
//! fresh goal state `s*` (the paper's improvement over the state-space
//! doubling of \[14\], see [`crate::doubling`]):
//!
//! * within each inter-discontinuity interval, transitions into `Γ₂` states
//!   are redirected to `s*` and everything outside `Γ₁` is absorbing;
//! * at each discontinuity the carry-over matrix `ζ(T_i)` keeps probability
//!   mass in states that stay in `Γ₁`, moves mass to `s*` in states that
//!   turn into `Γ₂` states, and drops the rest (Eq. 9);
//! * starting in a `Γ₂` state counts as immediate success (Eq. 10);
//! * the time-dependent variant `Υ(t, t+T)` for `t ∈ [t', θ]` follows the
//!   appendix algorithm: propagate the combined Kolmogorov ODE (Eq. 12)
//!   between breakpoints (points where `t` *or* `t+T` crosses some `T_i`)
//!   and re-assemble the product at each breakpoint.

use mfcsl_ctmc::inhomogeneous::{
    flat_to_matrix, propagate_window, transition_matrix, TimeVaryingGenerator,
};
use mfcsl_math::Matrix;
use mfcsl_ode::Trajectory;

use crate::{CslError, Tolerances};

/// A piecewise-constant time-dependent set of states over a time domain.
///
/// The set is right-continuous: at a boundary `b` the *new* set applies.
///
/// # Example
///
/// ```
/// use mfcsl_csl::nested::PiecewiseStateSet;
///
/// # fn main() -> Result<(), mfcsl_csl::CslError> {
/// // {s2, s3} on [0, 10.443), {s1, s2, s3} on [10.443, 15].
/// let s = PiecewiseStateSet::new(
///     0.0,
///     15.0,
///     vec![10.443],
///     vec![vec![false, true, true], vec![true, true, true]],
/// )?;
/// assert!(!s.set_at(5.0)[0]);
/// assert!(s.set_at(12.0)[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseStateSet {
    t_lo: f64,
    t_hi: f64,
    boundaries: Vec<f64>,
    sets: Vec<Vec<bool>>,
}

impl PiecewiseStateSet {
    /// Builds a piecewise set.
    ///
    /// # Errors
    ///
    /// Returns [`CslError::InvalidArgument`] if the domain is empty, the
    /// boundaries are not strictly increasing inside `(t_lo, t_hi)`, the
    /// number of sets is not `boundaries + 1`, or the sets differ in size.
    pub fn new(
        t_lo: f64,
        t_hi: f64,
        boundaries: Vec<f64>,
        sets: Vec<Vec<bool>>,
    ) -> Result<Self, CslError> {
        if !(t_hi >= t_lo) || !t_lo.is_finite() || !t_hi.is_finite() {
            return Err(CslError::InvalidArgument(format!(
                "invalid domain [{t_lo}, {t_hi}]"
            )));
        }
        if sets.len() != boundaries.len() + 1 {
            return Err(CslError::InvalidArgument(format!(
                "{} boundaries require {} sets, got {}",
                boundaries.len(),
                boundaries.len() + 1,
                sets.len()
            )));
        }
        if boundaries.windows(2).any(|w| !(w[0] < w[1]))
            || boundaries.iter().any(|&b| !(b > t_lo) || !(b < t_hi))
        {
            return Err(CslError::InvalidArgument(
                "boundaries must be strictly increasing and interior to the domain".into(),
            ));
        }
        let n = sets[0].len();
        if n == 0 || sets.iter().any(|s| s.len() != n) {
            return Err(CslError::InvalidArgument(
                "all sets must be nonempty and of equal size".into(),
            ));
        }
        Ok(PiecewiseStateSet {
            t_lo,
            t_hi,
            boundaries,
            sets,
        })
    }

    /// A set constant over the whole domain.
    ///
    /// # Errors
    ///
    /// See [`PiecewiseStateSet::new`].
    pub fn constant(t_lo: f64, t_hi: f64, set: Vec<bool>) -> Result<Self, CslError> {
        PiecewiseStateSet::new(t_lo, t_hi, Vec::new(), vec![set])
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.sets[0].len()
    }

    /// Domain start.
    #[must_use]
    pub fn t_lo(&self) -> f64 {
        self.t_lo
    }

    /// Domain end.
    #[must_use]
    pub fn t_hi(&self) -> f64 {
        self.t_hi
    }

    /// The interior discontinuity points.
    #[must_use]
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// The per-segment membership vectors (`boundaries().len() + 1` of
    /// them, in time order). Together with [`PiecewiseStateSet::t_lo`],
    /// [`PiecewiseStateSet::t_hi`] and [`PiecewiseStateSet::boundaries`]
    /// this is the full constructor input, so a set can be serialized and
    /// rebuilt bitwise through [`PiecewiseStateSet::new`].
    #[must_use]
    pub fn segment_sets(&self) -> &[Vec<bool>] {
        &self.sets
    }

    /// Index of the segment containing `t` (right-continuous; clamped to
    /// the domain).
    #[must_use]
    pub fn segment_index(&self, t: f64) -> usize {
        self.boundaries.partition_point(|&b| b <= t)
    }

    /// The set in force at time `t`.
    #[must_use]
    pub fn set_at(&self, t: f64) -> &[bool] {
        &self.sets[self.segment_index(t)]
    }

    /// The set in force *just before* time `t` (the left limit).
    #[must_use]
    pub fn set_before(&self, t: f64) -> &[bool] {
        let idx = self.boundaries.partition_point(|&b| b < t);
        &self.sets[idx]
    }

    /// `true` if the set never changes.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// Pointwise combination of two sets over the merged boundary grid.
    ///
    /// # Errors
    ///
    /// Returns [`CslError::InvalidArgument`] if domains or state counts
    /// differ.
    pub fn combine<F: Fn(bool, bool) -> bool>(
        &self,
        other: &PiecewiseStateSet,
        f: F,
    ) -> Result<PiecewiseStateSet, CslError> {
        if self.t_lo != other.t_lo || self.t_hi != other.t_hi {
            return Err(CslError::InvalidArgument(format!(
                "domains differ: [{}, {}] vs [{}, {}]",
                self.t_lo, self.t_hi, other.t_lo, other.t_hi
            )));
        }
        if self.n_states() != other.n_states() {
            return Err(CslError::InvalidArgument(format!(
                "state counts differ: {} vs {}",
                self.n_states(),
                other.n_states()
            )));
        }
        let mut boundaries: Vec<f64> = self
            .boundaries
            .iter()
            .chain(&other.boundaries)
            .copied()
            .collect();
        boundaries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        boundaries.dedup();
        let mut sets = Vec::with_capacity(boundaries.len() + 1);
        // Representative time for each segment.
        for i in 0..=boundaries.len() {
            let rep = if i == 0 { self.t_lo } else { boundaries[i - 1] };
            let a = self.set_at(rep);
            let b = other.set_at(rep);
            sets.push(a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect());
        }
        let merged = PiecewiseStateSet::new(self.t_lo, self.t_hi, boundaries, sets)?;
        Ok(merged.simplified())
    }

    /// Pointwise complement.
    #[must_use]
    pub fn complemented(&self) -> PiecewiseStateSet {
        PiecewiseStateSet {
            t_lo: self.t_lo,
            t_hi: self.t_hi,
            boundaries: self.boundaries.clone(),
            sets: self
                .sets
                .iter()
                .map(|s| s.iter().map(|&b| !b).collect())
                .collect(),
        }
    }

    /// Drops boundaries across which the set does not actually change.
    #[must_use]
    pub fn simplified(&self) -> PiecewiseStateSet {
        let mut boundaries = Vec::new();
        let mut sets = vec![self.sets[0].clone()];
        for (i, &b) in self.boundaries.iter().enumerate() {
            if self.sets[i + 1] != *sets.last().expect("nonempty") {
                boundaries.push(b);
                sets.push(self.sets[i + 1].clone());
            }
        }
        PiecewiseStateSet {
            t_lo: self.t_lo,
            t_hi: self.t_hi,
            boundaries,
            sets,
        }
    }
}

/// The pair `(Γ₁(t), Γ₂(t))` on a shared boundary grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseSets {
    gamma1: PiecewiseStateSet,
    gamma2: PiecewiseStateSet,
}

impl PiecewiseSets {
    /// Combines two piecewise sets (domains and state counts must agree).
    ///
    /// # Errors
    ///
    /// See [`PiecewiseStateSet::combine`].
    pub fn new(gamma1: PiecewiseStateSet, gamma2: PiecewiseStateSet) -> Result<Self, CslError> {
        if gamma1.t_lo != gamma2.t_lo
            || gamma1.t_hi != gamma2.t_hi
            || gamma1.n_states() != gamma2.n_states()
        {
            return Err(CslError::InvalidArgument(
                "gamma1 and gamma2 must share domain and state count".into(),
            ));
        }
        Ok(PiecewiseSets { gamma1, gamma2 })
    }

    /// Number of (original) states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.gamma1.n_states()
    }

    /// Domain start.
    #[must_use]
    pub fn t_lo(&self) -> f64 {
        self.gamma1.t_lo
    }

    /// Domain end.
    #[must_use]
    pub fn t_hi(&self) -> f64 {
        self.gamma1.t_hi
    }

    /// The invariant-side set `Γ₁`.
    #[must_use]
    pub fn gamma1(&self) -> &PiecewiseStateSet {
        &self.gamma1
    }

    /// The goal-side set `Γ₂`.
    #[must_use]
    pub fn gamma2(&self) -> &PiecewiseStateSet {
        &self.gamma2
    }

    /// All discontinuity points of either set, merged and sorted.
    #[must_use]
    pub fn boundaries(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .gamma1
            .boundaries
            .iter()
            .chain(&self.gamma2.boundaries)
            .copied()
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out.dedup();
        out
    }
}

/// The `(n+1)`-state extended chain of Sec. IV-C: original states plus the
/// fresh goal state `s* = n`. Transitions into `Γ₂(t)` states are redirected
/// to `s*`; states outside `Γ₁(t)\Γ₂(t)` are absorbing; `s*` is absorbing.
pub struct ExtendedGenerator<'a, G> {
    inner: &'a G,
    sets: &'a PiecewiseSets,
    /// Reusable `n×n` buffer for the inner generator — `write_generator`
    /// sits on the Kolmogorov hot path (7+ evaluations per solver step), so
    /// the base matrix is allocated once per wrapper, not per call.
    base: std::cell::RefCell<Matrix>,
}

impl<'a, G: TimeVaryingGenerator> ExtendedGenerator<'a, G> {
    /// Wraps the original generator with the piecewise sets.
    ///
    /// # Errors
    ///
    /// Returns [`CslError::InvalidArgument`] on a state-count mismatch.
    pub fn new(inner: &'a G, sets: &'a PiecewiseSets) -> Result<Self, CslError> {
        if inner.n_states() != sets.n_states() {
            return Err(CslError::InvalidArgument(format!(
                "generator has {} states, sets have {}",
                inner.n_states(),
                sets.n_states()
            )));
        }
        let n = inner.n_states();
        Ok(ExtendedGenerator {
            inner,
            sets,
            base: std::cell::RefCell::new(Matrix::zeros(n, n)),
        })
    }
}

impl<G: TimeVaryingGenerator> TimeVaryingGenerator for ExtendedGenerator<'_, G> {
    fn n_states(&self) -> usize {
        self.inner.n_states() + 1
    }

    fn write_generator(&self, t: f64, q: &mut Matrix) {
        let n = self.inner.n_states();
        let mut base = self.base.borrow_mut();
        self.inner.write_generator(t, &mut base);
        let base = &*base;
        let g1 = self.sets.gamma1.set_at(t);
        let g2 = self.sets.gamma2.set_at(t);
        for i in 0..=n {
            for j in 0..=n {
                q[(i, j)] = 0.0;
            }
        }
        for s in 0..n {
            let live = g1[s] && !g2[s];
            if !live {
                continue; // absorbing row
            }
            let mut row_sum = 0.0;
            for j in 0..n {
                if j == s {
                    continue;
                }
                let rate = base[(s, j)];
                if rate <= 0.0 {
                    continue;
                }
                if g2[j] {
                    q[(s, n)] += rate;
                } else {
                    q[(s, j)] += rate;
                }
                row_sum += rate;
            }
            q[(s, s)] = -row_sum;
        }
        // s* row stays zero (absorbing).
    }
}

/// Builds the carry-over matrix `ζ(T_i)` for a discontinuity of the sets:
/// mass in a state that remains live carries over; mass in a state that
/// becomes a goal state moves to `s*`; everything else is dropped.
fn zeta_matrix(sets: &PiecewiseSets, boundary: f64) -> Matrix {
    let n = sets.n_states();
    let g1_before = sets.gamma1.set_before(boundary);
    let g2_before = sets.gamma2.set_before(boundary);
    let g1_after = sets.gamma1.set_at(boundary);
    let g2_after = sets.gamma2.set_at(boundary);
    let mut z = Matrix::zeros(n + 1, n + 1);
    z[(n, n)] = 1.0;
    for s in 0..n {
        let was_live = g1_before[s] && !g2_before[s];
        if !was_live {
            continue;
        }
        if g2_after[s] {
            z[(s, n)] = 1.0;
        } else if g1_after[s] {
            z[(s, s)] = 1.0;
        }
        // otherwise the mass is lost (row stays zero).
    }
    z
}

/// Computes the full `Υ(t', t'+T)` product of Eq. 9 on the extended chain.
fn upsilon_product<G: TimeVaryingGenerator>(
    gen: &G,
    sets: &PiecewiseSets,
    t_prime: f64,
    big_t: f64,
    tol: &Tolerances,
) -> Result<Matrix, CslError> {
    let ext = ExtendedGenerator::new(gen, sets)?;
    let t_end = t_prime + big_t;
    let mut upsilon = Matrix::identity(gen.n_states() + 1);
    let mut cursor = t_prime;
    // A boundary exactly at the window's right edge still applies its ζ:
    // the goal set is right-continuous, so a witness at exactly t' + T is
    // judged against the *new* set (mass in a live state that turns into a
    // goal state at that instant succeeds).
    for &b in &sets.boundaries() {
        if b <= t_prime || b > t_end {
            continue;
        }
        let piece = transition_matrix(&ext, cursor, b - cursor, &tol.ode)?;
        upsilon = upsilon.matmul(&piece)?.matmul(&zeta_matrix(sets, b))?;
        cursor = b;
    }
    let piece = transition_matrix(&ext, cursor, t_end - cursor, &tol.ode)?;
    Ok(upsilon.matmul(&piece)?)
}

/// Computes `π^{[¬Γ₁∨Γ₂]}_{s,s*}(t', t'+T)` per start state (Eq. 10):
/// the probability of reaching a `Γ₂` state within `T` while staying in
/// `Γ₁`, with time-varying sets.
///
/// # Errors
///
/// Returns [`CslError::InvalidArgument`] if `[t', t'+T]` is not contained
/// in the sets' domain, and propagates ODE failures.
pub fn reach_probability<G: TimeVaryingGenerator>(
    gen: &G,
    sets: &PiecewiseSets,
    t_prime: f64,
    big_t: f64,
    tol: &Tolerances,
) -> Result<Vec<f64>, CslError> {
    check_window(sets, t_prime, big_t)?;
    tol.validate()?;
    let n = gen.n_states();
    let upsilon = upsilon_product(gen, sets, t_prime, big_t, tol)?;
    let g2 = sets.gamma2.set_at(t_prime);
    Ok((0..n)
        .map(|s| {
            let base = upsilon[(s, n)];
            if g2[s] {
                1.0
            } else {
                base.clamp(0.0, 1.0)
            }
        })
        .collect())
}

/// Time-dependent reachability `t ↦ π^{[¬Γ₁∨Γ₂]}_{s,s*}(t, t+T)` over
/// `t ∈ [t', θ]` (appendix algorithm).
#[derive(Debug)]
pub struct ReachEvaluator {
    n: usize,
    big_t: f64,
    /// Start time of each segment (breakpoints of the appendix algorithm).
    segment_starts: Vec<f64>,
    /// Dense `Υ(t, t+T)` per segment (flattened `(n+1)²` trajectories).
    segments: Vec<Trajectory>,
    /// Goal indicator data.
    gamma2: PiecewiseStateSet,
    t_lo: f64,
    t_hi: f64,
}

impl ReachEvaluator {
    /// Per-state reach probabilities at evaluation time `t` (clamped to
    /// the evaluator's `[t', θ]` range).
    #[must_use]
    pub fn probs_at(&self, t: f64) -> Vec<f64> {
        let t = t.clamp(self.t_lo, self.t_hi);
        // Right-continuous segment lookup.
        let idx = match self.segment_starts.partition_point(|&s| s <= t) {
            0 => 0,
            p => p - 1,
        };
        let m = flat_to_matrix(self.n + 1, &self.segments[idx].eval(t));
        let g2 = self.gamma2.set_at(t);
        (0..self.n)
            .map(|s| {
                if g2[s] {
                    1.0
                } else {
                    m[(s, self.n)].clamp(0.0, 1.0)
                }
            })
            .collect()
    }

    /// Probability for one state at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn prob_state_at(&self, s: usize, t: f64) -> f64 {
        assert!(s < self.n, "state index {s} out of range");
        self.probs_at(t)[s]
    }

    /// The breakpoints at which `Υ` was re-assembled.
    #[must_use]
    pub fn breakpoints(&self) -> &[f64] {
        &self.segment_starts
    }

    /// The reachability window length `T`.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.big_t
    }

    /// Decomposes the evaluator into its constructor data, for snapshot
    /// serialization: `(n, T, segment_starts, segments, gamma2, t_lo,
    /// t_hi)`.
    #[must_use]
    pub(crate) fn export_parts(
        &self,
    ) -> (
        usize,
        f64,
        Vec<f64>,
        Vec<Trajectory>,
        PiecewiseStateSet,
        f64,
        f64,
    ) {
        (
            self.n,
            self.big_t,
            self.segment_starts.clone(),
            self.segments.clone(),
            self.gamma2.clone(),
            self.t_lo,
            self.t_hi,
        )
    }

    /// Rebuilds an evaluator from exported parts, validating the structural
    /// coherence a corrupt snapshot could violate.
    pub(crate) fn from_parts(
        n: usize,
        big_t: f64,
        segment_starts: Vec<f64>,
        segments: Vec<Trajectory>,
        gamma2: PiecewiseStateSet,
        t_lo: f64,
        t_hi: f64,
    ) -> Result<ReachEvaluator, CslError> {
        if n == 0 || gamma2.n_states() != n {
            return Err(CslError::InvalidArgument(format!(
                "reach evaluator parts disagree: n = {n}, goal set has {} states",
                gamma2.n_states()
            )));
        }
        if segments.is_empty() || segments.len() != segment_starts.len() {
            return Err(CslError::InvalidArgument(format!(
                "reach evaluator needs one trajectory per segment start \
                 ({} starts, {} trajectories)",
                segment_starts.len(),
                segments.len()
            )));
        }
        let flat = (n + 1) * (n + 1);
        if segments.iter().any(|s| s.dim() != flat) {
            return Err(CslError::InvalidArgument(format!(
                "reach segment trajectories must have dimension {flat}"
            )));
        }
        if !(big_t >= 0.0) || !big_t.is_finite() || !(t_hi >= t_lo) || !t_lo.is_finite() {
            return Err(CslError::InvalidArgument(format!(
                "invalid reach evaluator window T = {big_t}, range [{t_lo}, {t_hi}]"
            )));
        }
        if segment_starts.iter().any(|s| !s.is_finite())
            || segment_starts.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(CslError::InvalidArgument(
                "reach segment starts must be finite and strictly increasing".into(),
            ));
        }
        Ok(ReachEvaluator {
            n,
            big_t,
            segment_starts,
            segments,
            gamma2,
            t_lo,
            t_hi,
        })
    }
}

/// Builds the time-dependent reach evaluator per the appendix algorithm:
/// between breakpoints (where `t` or `t+T` crosses a set discontinuity)
/// `Υ(t, t+T)` evolves by the combined Kolmogorov ODE (Eq. 12); at each
/// breakpoint it is re-assembled from the Eq. 9 product.
///
/// # Errors
///
/// Returns [`CslError::InvalidArgument`] if `[t', θ+T]` exceeds the sets'
/// domain, and propagates ODE failures.
pub fn reach_evaluator<G: TimeVaryingGenerator>(
    gen: &G,
    sets: &PiecewiseSets,
    t_prime: f64,
    theta: f64,
    big_t: f64,
    tol: &Tolerances,
) -> Result<ReachEvaluator, CslError> {
    if !(theta >= t_prime) {
        return Err(CslError::InvalidArgument(format!(
            "evaluation range [{t_prime}, {theta}] is reversed"
        )));
    }
    check_window(sets, t_prime, big_t)?;
    check_window(sets, theta, big_t)?;
    tol.validate()?;
    let ext = ExtendedGenerator::new(gen, sets)?;
    // Breakpoints: where t or t+T hits a discontinuity of the sets.
    let mut breaks: Vec<f64> = Vec::new();
    for &b in &sets.boundaries() {
        for candidate in [b, b - big_t] {
            if candidate > t_prime + tol.root_tol && candidate < theta - tol.root_tol {
                breaks.push(candidate);
            }
        }
    }
    breaks.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    breaks.dedup_by(|a, b| (*a - *b).abs() <= tol.root_tol);

    let mut segment_starts = vec![t_prime];
    segment_starts.extend(breaks.iter().copied());
    let mut segments = Vec::with_capacity(segment_starts.len());
    for (i, &start) in segment_starts.iter().enumerate() {
        let end = segment_starts.get(i + 1).copied().unwrap_or(theta);
        let init = upsilon_product(gen, sets, start, big_t, tol)?;
        let traj = propagate_window(&ext, &init, start, end.max(start), big_t, &tol.ode)?;
        segments.push(traj);
    }
    Ok(ReachEvaluator {
        n: gen.n_states(),
        big_t,
        segment_starts,
        segments,
        gamma2: sets.gamma2.clone(),
        t_lo: t_prime,
        t_hi: theta,
    })
}

fn check_window(sets: &PiecewiseSets, t_prime: f64, big_t: f64) -> Result<(), CslError> {
    if !(big_t >= 0.0) || !big_t.is_finite() {
        return Err(CslError::InvalidArgument(format!(
            "reachability horizon must be finite and non-negative, got {big_t}"
        )));
    }
    if t_prime < sets.t_lo() - 1e-12 || t_prime + big_t > sets.t_hi() + 1e-12 {
        return Err(CslError::InvalidArgument(format!(
            "window [{t_prime}, {}] exceeds the sets' domain [{}, {}]",
            t_prime + big_t,
            sets.t_lo(),
            sets.t_hi()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LocalTvModel;
    use crate::syntax::TimeInterval;
    use crate::until;
    use mfcsl_ctmc::inhomogeneous::{ConstGenerator, FnGenerator};
    use mfcsl_ctmc::CtmcBuilder;

    fn tol() -> Tolerances {
        let mut t = Tolerances::default();
        t.ode = t.ode.with_tolerances(1e-11, 1e-13);
        t
    }

    fn chain3() -> mfcsl_ctmc::Ctmc {
        CtmcBuilder::new()
            .state("s1", ["healthy"])
            .state("s2", ["sick"])
            .state("s3", ["dead"])
            .transition("s1", "s2", 0.6)
            .unwrap()
            .transition("s2", "s1", 0.3)
            .unwrap()
            .transition("s2", "s3", 0.5)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn piecewise_set_lookup_is_right_continuous() {
        let s = PiecewiseStateSet::new(
            0.0,
            10.0,
            vec![3.0, 7.0],
            vec![vec![true, false], vec![false, false], vec![true, true]],
        )
        .unwrap();
        assert_eq!(s.set_at(0.0), &[true, false]);
        assert_eq!(s.set_at(3.0), &[false, false]);
        assert_eq!(s.set_before(3.0), &[true, false]);
        assert_eq!(s.set_at(7.0), &[true, true]);
        assert_eq!(s.set_at(99.0), &[true, true]);
        assert_eq!(s.segment_index(2.9), 0);
        assert_eq!(s.segment_index(3.0), 1);
    }

    #[test]
    fn piecewise_set_validation() {
        assert!(PiecewiseStateSet::new(0.0, 1.0, vec![], vec![]).is_err());
        assert!(PiecewiseStateSet::new(1.0, 0.0, vec![], vec![vec![true]]).is_err());
        assert!(
            PiecewiseStateSet::new(0.0, 1.0, vec![2.0], vec![vec![true], vec![false]]).is_err()
        );
        assert!(
            PiecewiseStateSet::new(0.0, 1.0, vec![0.5], vec![vec![true], vec![false, true]])
                .is_err()
        );
        assert!(PiecewiseStateSet::new(
            0.0,
            1.0,
            vec![0.5, 0.5],
            vec![vec![true], vec![false], vec![true]]
        )
        .is_err());
    }

    #[test]
    fn combine_and_simplify() {
        let a = PiecewiseStateSet::new(
            0.0,
            10.0,
            vec![4.0],
            vec![vec![true, false], vec![false, false]],
        )
        .unwrap();
        let b = PiecewiseStateSet::new(
            0.0,
            10.0,
            vec![6.0],
            vec![vec![true, true], vec![true, false]],
        )
        .unwrap();
        let and = a.combine(&b, |x, y| x && y).unwrap();
        assert_eq!(and.set_at(0.0), &[true, false]);
        assert_eq!(and.set_at(5.0), &[false, false]);
        assert_eq!(and.set_at(7.0), &[false, false]);
        // The 6.0 boundary is dropped because nothing changes across it.
        assert_eq!(and.boundaries(), &[4.0]);
        let comp = a.complemented();
        assert_eq!(comp.set_at(0.0), &[false, true]);
    }

    #[test]
    fn constant_sets_match_single_until() {
        // With constant sets the nested machinery must agree with the
        // single-until machinery (Γ₁ = Φ₁, Γ₂ = Φ₂, interval [0, T]).
        let ctmc = chain3();
        let gen = ConstGenerator::new(&ctmc);
        let sat1 = vec![true, true, false];
        let sat2 = vec![false, false, true];
        let sets = PiecewiseSets::new(
            PiecewiseStateSet::constant(0.0, 5.0, sat1.clone()).unwrap(),
            PiecewiseStateSet::constant(0.0, 5.0, sat2.clone()).unwrap(),
        )
        .unwrap();
        let nested = reach_probability(&gen, &sets, 0.0, 2.0, &tol()).unwrap();
        let model = LocalTvModel::new(
            ConstGenerator::new(&ctmc),
            ctmc.labeling().clone(),
            ctmc.state_names().to_vec(),
        )
        .unwrap();
        let single = until::until_probabilities(
            &model,
            &sat1,
            &sat2,
            TimeInterval::bounded_by(2.0).unwrap(),
            &tol(),
        )
        .unwrap();
        for (a, b) in nested.iter().zip(&single) {
            assert!((a - b).abs() < 1e-7, "{nested:?} vs {single:?}");
        }
    }

    #[test]
    fn goal_set_switching_on_gains_probability() {
        // Γ₂ empty on [0, 1), {s2} on [1, 3]: reaching the goal within 2
        // time units from s1 requires being in s2 at some point after t=1.
        let ctmc = chain3();
        let gen = ConstGenerator::new(&ctmc);
        let g1 = PiecewiseStateSet::constant(0.0, 5.0, vec![true, true, false]).unwrap();
        let g2 = PiecewiseStateSet::new(
            0.0,
            5.0,
            vec![1.0],
            vec![vec![false, false, false], vec![false, true, false]],
        )
        .unwrap();
        let sets = PiecewiseSets::new(g1, g2).unwrap();
        let p = reach_probability(&gen, &sets, 0.0, 2.0, &tol()).unwrap();
        // Reference: mass in s2 at t=1 (staying in {s1,s2}) is converted to
        // the goal by ζ, plus paths that move into s2 during [1, 2].
        // Cross-check against a hand-constructed two-phase computation:
        // phase 1 on [0,1]: chain with s3 absorbing; at t=1 mass in s2 goes
        // to goal; phase 2 on [1,2]: from s1, reach s2 (absorbing) while
        // avoiding s3.
        let masked = until::MaskedGenerator::new(&gen, vec![false, false, true]).unwrap();
        let phase1 =
            mfcsl_ctmc::inhomogeneous::transition_matrix(&masked, 0.0, 1.0, &tol().ode).unwrap();
        // Phase 2: s2 and s3 absorbing, measure arrival at s2.
        let masked2 = until::MaskedGenerator::new(&gen, vec![false, true, true]).unwrap();
        let phase2 =
            mfcsl_ctmc::inhomogeneous::transition_matrix(&masked2, 1.0, 1.0, &tol().ode).unwrap();
        let expected = phase1[(0, 1)] + phase1[(0, 0)] * phase2[(0, 1)];
        assert!(
            (p[0] - expected).abs() < 1e-7,
            "got {}, expected {expected}",
            p[0]
        );
        // s3 is never live and never a goal.
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn losing_invariant_drops_mass() {
        // Γ₁ = {s1, s2} on [0, 1), {s1} on [1, ∞): mass sitting in s2 at
        // t=1 is lost. Γ₂ = {s3} throughout. With the one-way chain
        // s1→s2→s3 this forces paths to avoid being in s2 at time 1.
        let ctmc = CtmcBuilder::new()
            .state("s1", ["a"])
            .state("s2", ["b"])
            .state("s3", ["c"])
            .transition("s1", "s2", 1.0)
            .unwrap()
            .transition("s2", "s3", 1.0)
            .unwrap()
            .build()
            .unwrap();
        let gen = ConstGenerator::new(&ctmc);
        let g1 = PiecewiseStateSet::new(
            0.0,
            5.0,
            vec![1.0],
            vec![vec![true, true, false], vec![true, false, false]],
        )
        .unwrap();
        let g2 = PiecewiseStateSet::constant(0.0, 5.0, vec![false, false, true]).unwrap();
        let sets = PiecewiseSets::new(g1, g2).unwrap();
        let p = reach_probability(&gen, &sets, 0.0, 2.0, &tol()).unwrap();
        // From s1: reach s3 by time 2 via s2, but s2 must be traversed
        // entirely within [0,1) (enter and leave before 1) or entered after
        // t=1... after t=1, s2 is not in Γ₁, so transitions into s2 lead to
        // an absorbing non-goal state — wait, transitions into ¬Γ₁ states
        // still occur (into s2) and are then stuck. So the only successful
        // paths jump s1→s2→s3 with both jumps before... the second jump may
        // happen any time while the path is in s2 — but after t=1 the mass
        // in s2 was dropped at the boundary. Successful paths must complete
        // s2→s3 before t=1, or be in s1 at t=1 and then s1→s2→s3 in [1,2]
        // — no: after t=1, s2 ∉ Γ₁, so entering s2 is entering an absorbing
        // non-goal state. Hence: P = P(s1→s2→s3 both jumps < 1).
        // With unit rates: P(two Exp(1) jumps sum < 1) = 1 - e^{-1}(1+1) =
        // 1 - 2e^{-1} ≈ 0.2642.
        let expected = 1.0 - 2.0 * (-1.0_f64).exp();
        assert!(
            (p[0] - expected).abs() < 1e-7,
            "got {}, expected {expected}",
            p[0]
        );
    }

    #[test]
    fn evaluator_matches_fresh_products() {
        // Time-dependent evaluator vs fresh Eq. 9 products at many times.
        let ctmc = chain3();
        let gen = ConstGenerator::new(&ctmc);
        let g1 = PiecewiseStateSet::new(
            0.0,
            10.0,
            vec![2.0, 5.0],
            vec![
                vec![true, true, false],
                vec![true, false, false],
                vec![true, true, false],
            ],
        )
        .unwrap();
        let g2 = PiecewiseStateSet::new(
            0.0,
            10.0,
            vec![4.0],
            vec![vec![false, false, true], vec![false, true, true]],
        )
        .unwrap();
        let sets = PiecewiseSets::new(g1, g2).unwrap();
        let big_t = 1.5;
        let ev = reach_evaluator(&gen, &sets, 0.0, 8.0, big_t, &tol()).unwrap();
        for &t in &[0.0, 0.4, 1.1, 2.3, 3.9, 4.6, 5.5, 7.9] {
            let via_ev = ev.probs_at(t);
            let fresh = reach_probability(&gen, &sets, t, big_t, &tol()).unwrap();
            for (s, (a, b)) in via_ev.iter().zip(&fresh).enumerate() {
                assert!(
                    (a - b).abs() < 1e-6,
                    "state {s} at t = {t}: evaluator {a} vs fresh {b}"
                );
            }
        }
    }

    #[test]
    fn time_varying_generator_and_sets_together() {
        // Rates vary with time AND sets switch: compare evaluator against
        // fresh products.
        let gen = FnGenerator::new(3, |t: f64, q: &mut Matrix| {
            let r = 0.5 + 0.4 * (0.7 * t).sin();
            *q = Matrix::zeros(3, 3);
            q[(0, 1)] = r;
            q[(0, 0)] = -r;
            q[(1, 0)] = 0.2;
            q[(1, 2)] = 0.6;
            q[(1, 1)] = -0.8;
        });
        let g1 = PiecewiseStateSet::new(
            0.0,
            8.0,
            vec![3.0],
            vec![vec![true, true, false], vec![true, false, false]],
        )
        .unwrap();
        let g2 = PiecewiseStateSet::constant(0.0, 8.0, vec![false, false, true]).unwrap();
        let sets = PiecewiseSets::new(g1, g2).unwrap();
        let ev = reach_evaluator(&gen, &sets, 0.0, 6.0, 1.0, &tol()).unwrap();
        for &t in &[0.3, 1.9, 2.5, 3.2, 4.8] {
            let fresh = reach_probability(&gen, &sets, t, 1.0, &tol()).unwrap();
            let via = ev.probs_at(t);
            for (a, b) in via.iter().zip(&fresh) {
                assert!((a - b).abs() < 1e-6, "t = {t}: {via:?} vs {fresh:?}");
            }
        }
    }

    #[test]
    fn starting_in_goal_is_immediate_success() {
        let ctmc = chain3();
        let gen = ConstGenerator::new(&ctmc);
        let sets = PiecewiseSets::new(
            PiecewiseStateSet::constant(0.0, 5.0, vec![true, true, false]).unwrap(),
            PiecewiseStateSet::constant(0.0, 5.0, vec![false, true, false]).unwrap(),
        )
        .unwrap();
        let p = reach_probability(&gen, &sets, 0.0, 0.0, &tol()).unwrap();
        assert_eq!(p, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn window_validation() {
        let ctmc = chain3();
        let gen = ConstGenerator::new(&ctmc);
        let sets = PiecewiseSets::new(
            PiecewiseStateSet::constant(0.0, 2.0, vec![true, true, false]).unwrap(),
            PiecewiseStateSet::constant(0.0, 2.0, vec![false, false, true]).unwrap(),
        )
        .unwrap();
        assert!(reach_probability(&gen, &sets, 0.0, 3.0, &tol()).is_err());
        assert!(reach_probability(&gen, &sets, -1.0, 1.0, &tol()).is_err());
        assert!(reach_probability(&gen, &sets, 0.0, -1.0, &tol()).is_err());
        assert!(reach_evaluator(&gen, &sets, 1.0, 0.5, 0.5, &tol()).is_err());
        // Mismatched state counts.
        let small = PiecewiseSets::new(
            PiecewiseStateSet::constant(0.0, 2.0, vec![true]).unwrap(),
            PiecewiseStateSet::constant(0.0, 2.0, vec![false]).unwrap(),
        )
        .unwrap();
        assert!(ExtendedGenerator::new(&gen, &small).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// Randomized cross-validation of the three nested-reachability
        /// computations: the appendix-algorithm evaluator, fresh Eq. 9
        /// products, and the state-space doubling of \[14\] must agree for
        /// random boundaries and random set patterns.
        #[test]
        fn prop_nested_constructions_agree(
            b1 in 0.5_f64..2.0,
            gap in 0.5_f64..2.0,
            pattern in 0u16..512,
            eval_t in 0.0_f64..3.0,
        ) {
            use proptest::prelude::prop_assert;
            let ctmc = chain3();
            let gen = ConstGenerator::new(&ctmc);
            let b2 = b1 + gap;
            let bit = |k: u32| pattern >> k & 1 == 1;
            // Three segments of (γ1, γ2) over [0, 8]; force γ1 ⊉ ∅ to keep
            // the scenario nontrivial and make s3 never-live (γ2 only).
            let g1 = PiecewiseStateSet::new(
                0.0,
                8.0,
                vec![b1, b2],
                vec![
                    vec![true, bit(0), false],
                    vec![bit(1), bit(2), false],
                    vec![bit(3), true, false],
                ],
            )
            .unwrap();
            let g2 = PiecewiseStateSet::new(
                0.0,
                8.0,
                vec![b1, b2],
                vec![
                    vec![false, bit(4), bit(5)],
                    vec![false, bit(6), true],
                    vec![bit(7), bit(8), true],
                ],
            )
            .unwrap();
            let sets = PiecewiseSets::new(g1, g2).unwrap();
            let big_t = 1.2;
            let ev = reach_evaluator(&gen, &sets, 0.0, 3.0, big_t, &tol()).unwrap();
            // Keep the evaluation point away from set boundaries, where the
            // right-continuous indicator makes the value genuinely jump.
            let near_boundary = [b1, b2, b1 - big_t, b2 - big_t]
                .iter()
                .any(|&b| (eval_t - b).abs() < 1e-3);
            if near_boundary {
                return Ok(());
            }
            let via_ev = ev.probs_at(eval_t);
            let fresh = reach_probability(&gen, &sets, eval_t, big_t, &tol()).unwrap();
            let doubled = crate::doubling::reach_probability_doubled(
                &gen, &sets, eval_t, big_t, &tol(),
            )
            .unwrap();
            for s in 0..3 {
                prop_assert!(
                    (via_ev[s] - fresh[s]).abs() < 1e-5,
                    "evaluator vs fresh at state {}: {} vs {}",
                    s,
                    via_ev[s],
                    fresh[s]
                );
                prop_assert!(
                    (fresh[s] - doubled[s]).abs() < 1e-6,
                    "fresh vs doubled at state {}: {} vs {}",
                    s,
                    fresh[s],
                    doubled[s]
                );
                prop_assert!((0.0..=1.0 + 1e-9).contains(&via_ev[s]));
            }
        }
    }
}
