//! Recursive satisfaction-set development on the time-inhomogeneous local
//! model (Sec. IV-E of the paper).
//!
//! The checker walks the parse tree of a CSL formula and produces, for a
//! given evaluation window `[0, θ]`, the *time-dependent satisfaction set*
//! as a piecewise-constant [`PiecewiseStateSet`]: boundaries are the
//! discontinuity points where some state enters or leaves the set, located
//! by scanning the relevant probability curves for threshold crossings and
//! polishing with Brent's method (Eqs. 16–19).
//!
//! Probability curves come from three engines:
//! * single until with time-independent operands — [`crate::until`]
//!   (Eqs. 4–7);
//! * nested until (time-dependent operands) — [`crate::nested`]
//!   (Sec. IV-C);
//! * interval next — [`crate::next`], sampled on the scan grid.

use std::sync::Arc;

use mfcsl_ctmc::inhomogeneous::TimeVaryingGenerator;
use mfcsl_math::roots::brent;
use mfcsl_ode::Trajectory;

use crate::cache::SatCache;
use crate::model::LocalTvModel;
use crate::nested::{PiecewiseSets, PiecewiseStateSet, ReachEvaluator};
use crate::syntax::{Comparison, PathFormula, StateFormula};
use crate::until::UntilEvaluator;
use crate::{homogeneous, nested, next, until, CslError, Tolerances};

/// A per-state probability curve `t ↦ Prob(s, φ, m̄, t)` over `[0, θ]`.
#[derive(Debug)]
pub struct ProbCurve {
    n: usize,
    theta: f64,
    imp: CurveImpl,
}

#[derive(Debug)]
enum CurveImpl {
    Until(UntilEvaluator),
    Nested(ReachEvaluator),
    Sampled {
        ts: Vec<f64>,
        values: Vec<Vec<f64>>,
    },
    /// A θ = 0 point evaluation from the sparse vector lane: the curve
    /// degenerates to a single per-state vector at time 0.
    Point(Vec<f64>),
}

/// The serializable structural content of a [`ProbCurve`], used by warm-
/// state snapshots. Every numeric field round-trips bitwise, and
/// [`ProbCurve::from_export`] rebuilds a curve whose `probs_at` is bitwise
/// identical to the exported one's.
#[derive(Debug, Clone, PartialEq)]
pub enum CurveExport {
    /// A single-until curve (Eq. 6/7 window-propagated matrices).
    Until {
        /// Number of states.
        n: usize,
        /// Lower time bound `t₁` of the until interval.
        t1: f64,
        /// Satisfaction vector of the invariant operand.
        sat1: Vec<bool>,
        /// Satisfaction vector of the goal operand.
        sat2: Vec<bool>,
        /// Phase-A matrix trajectory (`None` when `t₁ = 0`).
        phase_a: Option<Trajectory>,
        /// Phase-B matrix trajectory.
        phase_b: Trajectory,
    },
    /// A nested-until curve (appendix time-varying-set algorithm).
    Nested {
        /// Number of states.
        n: usize,
        /// Reachability window length `T`.
        big_t: f64,
        /// Segment start times.
        segment_starts: Vec<f64>,
        /// Per-segment `Υ` trajectories (`(n+1)²`-dimensional).
        segments: Vec<Trajectory>,
        /// The goal indicator set.
        gamma2: PiecewiseStateSet,
        /// Evaluation range start.
        t_lo: f64,
        /// Evaluation range end.
        t_hi: f64,
    },
    /// A grid-sampled curve (interval next).
    Sampled {
        /// Sample times.
        ts: Vec<f64>,
        /// Per-state sample values (`values[s]` parallels `ts`).
        values: Vec<Vec<f64>>,
    },
    /// A θ = 0 point evaluation.
    Point(Vec<f64>),
}

impl ProbCurve {
    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// End of the evaluation window.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Per-state probabilities at evaluation time `t` (clamped to
    /// `[0, θ]`).
    #[must_use]
    pub fn probs_at(&self, t: f64) -> Vec<f64> {
        let t = t.clamp(0.0, self.theta);
        match &self.imp {
            CurveImpl::Until(ev) => ev.probs_at(t),
            CurveImpl::Nested(ev) => ev.probs_at(t),
            CurveImpl::Sampled { ts, values } => (0..self.n)
                .map(|s| {
                    mfcsl_math::interp::linear(ts, &values[s], t)
                        .expect("sampled curve is well-formed")
                })
                .collect(),
            CurveImpl::Point(p) => p.clone(),
        }
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

    /// Decomposes the curve into its serializable structural content, for
    /// warm-state snapshots.
    #[must_use]
    pub fn export(&self) -> CurveExport {
        match &self.imp {
            CurveImpl::Until(ev) => {
                let (n, t1, sat1, sat2, phase_a, phase_b) = ev.export_parts();
                CurveExport::Until {
                    n,
                    t1,
                    sat1,
                    sat2,
                    phase_a,
                    phase_b,
                }
            }
            CurveImpl::Nested(ev) => {
                let (n, big_t, segment_starts, segments, gamma2, t_lo, t_hi) = ev.export_parts();
                CurveExport::Nested {
                    n,
                    big_t,
                    segment_starts,
                    segments,
                    gamma2,
                    t_lo,
                    t_hi,
                }
            }
            CurveImpl::Sampled { ts, values } => CurveExport::Sampled {
                ts: ts.clone(),
                values: values.clone(),
            },
            CurveImpl::Point(p) => CurveExport::Point(p.clone()),
        }
    }

    /// Rebuilds a curve from exported content for evaluation window
    /// `[0, θ]`, validating structural coherence (a corrupt snapshot must
    /// fail here, not panic in `probs_at`). The rebuilt curve evaluates
    /// bitwise identically to the exported one.
    ///
    /// # Errors
    ///
    /// Returns [`CslError::InvalidArgument`] on any shape or bounds
    /// mismatch.
    pub fn from_export(theta: f64, export: CurveExport) -> Result<ProbCurve, CslError> {
        if !(theta >= 0.0) || !theta.is_finite() {
            return Err(CslError::InvalidArgument(format!(
                "curve horizon must be finite and non-negative, got {theta}"
            )));
        }
        let (n, imp) = match export {
            CurveExport::Until {
                n,
                t1,
                sat1,
                sat2,
                phase_a,
                phase_b,
            } => (
                n,
                CurveImpl::Until(UntilEvaluator::from_parts(
                    n, t1, sat1, sat2, phase_a, phase_b,
                )?),
            ),
            CurveExport::Nested {
                n,
                big_t,
                segment_starts,
                segments,
                gamma2,
                t_lo,
                t_hi,
            } => (
                n,
                CurveImpl::Nested(ReachEvaluator::from_parts(
                    n,
                    big_t,
                    segment_starts,
                    segments,
                    gamma2,
                    t_lo,
                    t_hi,
                )?),
            ),
            CurveExport::Sampled { ts, values } => {
                let n = values.len();
                if n == 0
                    || ts.len() < 2
                    || values.iter().any(|v| v.len() != ts.len())
                    || ts.iter().any(|t| !t.is_finite())
                    || ts.windows(2).any(|w| w[0] >= w[1])
                {
                    return Err(CslError::InvalidArgument(
                        "sampled curve needs >= 2 strictly increasing finite sample \
                         times and matching per-state value rows"
                            .into(),
                    ));
                }
                (n, CurveImpl::Sampled { ts, values })
            }
            CurveExport::Point(p) => {
                if p.is_empty() {
                    return Err(CslError::InvalidArgument(
                        "point curve needs at least one state".into(),
                    ));
                }
                (p.len(), CurveImpl::Point(p))
            }
        };
        Ok(ProbCurve { n, theta, imp })
    }
}

/// CSL checker for a time-inhomogeneous local model.
///
/// # Example
///
/// ```
/// use mfcsl_csl::checker::InhomogeneousChecker;
/// use mfcsl_csl::{parse_state_formula, LocalTvModel};
/// use mfcsl_ctmc::inhomogeneous::FnGenerator;
/// use mfcsl_ctmc::Labeling;
/// use mfcsl_math::Matrix;
///
/// # fn main() -> Result<(), mfcsl_csl::CslError> {
/// // One-way infection with rate growing in time.
/// let gen = FnGenerator::new(2, |t: f64, q: &mut Matrix| {
///     *q = Matrix::zeros(2, 2);
///     q[(0, 0)] = -(0.1 + 0.2 * t);
///     q[(0, 1)] = 0.1 + 0.2 * t;
/// });
/// let mut labels = Labeling::new(2);
/// labels.add(0, "healthy");
/// labels.add(1, "infected");
/// let model = LocalTvModel::new(gen, labels, vec!["s1".into(), "s2".into()])?;
/// let checker = InhomogeneousChecker::new(&model);
/// let phi = parse_state_formula("P{<0.5}[ healthy U[0,1] infected ]")?;
/// // Early on the infection probability from s1 is small; s2 is already
/// // infected, so the until holds there with probability 1 and `< 0.5`
/// // fails.
/// assert_eq!(checker.sat(&phi)?, vec![true, false]);
/// // ...but the satisfaction set eventually loses s1 as the rate grows.
/// let pw = checker.sat_over_time(&phi, 10.0)?;
/// assert!(!pw.set_at(10.0)[0]);
/// assert_eq!(pw.boundaries().len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct InhomogeneousChecker<'a, G> {
    model: &'a LocalTvModel<G>,
    tol: Tolerances,
}

impl<'a, G: TimeVaryingGenerator> InhomogeneousChecker<'a, G> {
    /// Creates a checker with default tolerances.
    #[must_use]
    pub fn new(model: &'a LocalTvModel<G>) -> Self {
        InhomogeneousChecker {
            model,
            tol: Tolerances::default(),
        }
    }

    /// Creates a checker with explicit tolerances.
    #[must_use]
    pub fn with_tolerances(model: &'a LocalTvModel<G>, tol: Tolerances) -> Self {
        InhomogeneousChecker { model, tol }
    }

    /// The tolerances in use.
    #[must_use]
    pub fn tolerances(&self) -> &Tolerances {
        &self.tol
    }

    /// The underlying model.
    #[must_use]
    pub fn model(&self) -> &'a LocalTvModel<G> {
        self.model
    }

    /// Satisfaction set at evaluation time 0 (Eqs. 16–17).
    ///
    /// # Errors
    ///
    /// Propagates every lower-layer error; see [`CslError`].
    pub fn sat(&self, phi: &StateFormula) -> Result<Vec<bool>, CslError> {
        let pw = self.sat_over_time(phi, 0.0)?;
        Ok(pw.set_at(0.0).to_vec())
    }

    /// Time-dependent satisfaction set over `[0, θ]` (Eqs. 18–19):
    /// piecewise-constant with located discontinuity points.
    ///
    /// # Errors
    ///
    /// Returns [`CslError::InvalidArgument`] for negative `θ`,
    /// [`CslError::Unsupported`] for formulas outside the implemented
    /// fragment (a nested until with `t₁ > 0`, or a Next with a
    /// time-dependent operand), and propagates numerical failures.
    pub fn sat_over_time(
        &self,
        phi: &StateFormula,
        theta: f64,
    ) -> Result<PiecewiseStateSet, CslError> {
        Ok(Arc::unwrap_or_clone(
            self.sat_over_time_rc(None, phi, theta)?,
        ))
    }

    /// [`InhomogeneousChecker::sat`] memoized through a [`SatCache`].
    ///
    /// Produces bitwise-identical results to the uncached method: hits
    /// return the stored set, misses run the exact same computation the
    /// uncached path runs (sharing one implementation) before storing it.
    ///
    /// # Errors
    ///
    /// See [`InhomogeneousChecker::sat_over_time`].
    pub fn sat_cached(&self, cache: &SatCache, phi: &StateFormula) -> Result<Vec<bool>, CslError> {
        let pw = self.sat_over_time_cached(cache, phi, 0.0)?;
        Ok(pw.set_at(0.0).to_vec())
    }

    /// [`InhomogeneousChecker::sat_over_time`] memoized through a
    /// [`SatCache`]; see [`InhomogeneousChecker::sat_cached`].
    ///
    /// # Errors
    ///
    /// See [`InhomogeneousChecker::sat_over_time`].
    pub fn sat_over_time_cached(
        &self,
        cache: &SatCache,
        phi: &StateFormula,
        theta: f64,
    ) -> Result<Arc<PiecewiseStateSet>, CslError> {
        self.sat_over_time_rc(Some(cache), phi, theta)
    }

    fn sat_over_time_rc(
        &self,
        cache: Option<&SatCache>,
        phi: &StateFormula,
        theta: f64,
    ) -> Result<Arc<PiecewiseStateSet>, CslError> {
        if !(theta >= 0.0) || !theta.is_finite() {
            return Err(CslError::InvalidArgument(format!(
                "evaluation horizon must be finite and non-negative, got {theta}"
            )));
        }
        self.tol.validate()?;
        self.sot(cache, phi, theta)
    }

    /// `Prob(s, φ, m̄)` per state at evaluation time 0 (Eq. 4).
    ///
    /// # Errors
    ///
    /// See [`InhomogeneousChecker::sat_over_time`].
    pub fn path_probabilities(&self, path: &PathFormula) -> Result<Vec<f64>, CslError> {
        Ok(self.path_prob_curve_rc(None, path, 0.0)?.probs_at(0.0))
    }

    /// [`InhomogeneousChecker::path_probabilities`] memoized through a
    /// [`SatCache`]; see [`InhomogeneousChecker::sat_cached`].
    ///
    /// # Errors
    ///
    /// See [`InhomogeneousChecker::sat_over_time`].
    pub fn path_probabilities_cached(
        &self,
        cache: &SatCache,
        path: &PathFormula,
    ) -> Result<Vec<f64>, CslError> {
        Ok(self
            .path_prob_curve_rc(Some(cache), path, 0.0)?
            .probs_at(0.0))
    }

    /// The probability curve `t ↦ Prob(s, φ, m̄, t)` over `[0, θ]` (Eq. 7 /
    /// Eq. 13). This is what the MF-CSL `EP` operator integrates against
    /// the occupancy trajectory.
    ///
    /// # Errors
    ///
    /// See [`InhomogeneousChecker::sat_over_time`].
    pub fn path_prob_curve(&self, path: &PathFormula, theta: f64) -> Result<ProbCurve, CslError> {
        let rc = self.path_prob_curve_rc(None, path, theta)?;
        Ok(Arc::try_unwrap(rc).expect("uncached curve is uniquely owned"))
    }

    /// [`InhomogeneousChecker::path_prob_curve`] memoized through a
    /// [`SatCache`]; see [`InhomogeneousChecker::sat_cached`].
    ///
    /// # Errors
    ///
    /// See [`InhomogeneousChecker::sat_over_time`].
    pub fn path_prob_curve_cached(
        &self,
        cache: &SatCache,
        path: &PathFormula,
        theta: f64,
    ) -> Result<Arc<ProbCurve>, CslError> {
        self.path_prob_curve_rc(Some(cache), path, theta)
    }

    fn path_prob_curve_rc(
        &self,
        cache: Option<&SatCache>,
        path: &PathFormula,
        theta: f64,
    ) -> Result<Arc<ProbCurve>, CslError> {
        if !(theta >= 0.0) || !theta.is_finite() {
            return Err(CslError::InvalidArgument(format!(
                "evaluation horizon must be finite and non-negative, got {theta}"
            )));
        }
        self.tol.validate()?;
        if let Some(cache) = cache {
            let id = cache.intern_path(path);
            if let Some(hit) = cache.lookup_curve(id, theta) {
                return Ok(hit);
            }
            let curve = Arc::new(self.build_prob_curve(Some(cache), path, theta)?);
            cache.store_curve(id, theta, Arc::clone(&curve));
            Ok(curve)
        } else {
            Ok(Arc::new(self.build_prob_curve(None, path, theta)?))
        }
    }

    /// The single implementation behind both the cached and uncached
    /// probability-curve paths.
    fn build_prob_curve(
        &self,
        cache: Option<&SatCache>,
        path: &PathFormula,
        theta: f64,
    ) -> Result<ProbCurve, CslError> {
        let n = self.model.n_states();
        match path {
            PathFormula::Until { interval, lhs, rhs } => {
                let look_ahead = theta + interval.hi();
                let lhs_pw = self.sot(cache, lhs, look_ahead)?;
                let rhs_pw = self.sot(cache, rhs, look_ahead)?;
                if lhs_pw.is_constant() && rhs_pw.is_constant() {
                    // Large-K sparse lane: a point evaluation (θ = 0) with
                    // constant operand sets needs no probability *curve*,
                    // only the vector at time 0 — two K-dim payload solves
                    // instead of two K² matrix ODEs. Engages only when the
                    // generator exposes a sparsity pattern above the
                    // density threshold, so small models are untouched.
                    if theta == 0.0 {
                        if let Some(p) = until::until_probabilities_sparse(
                            self.model,
                            lhs_pw.set_at(0.0),
                            rhs_pw.set_at(0.0),
                            *interval,
                            &self.tol,
                        )? {
                            return Ok(ProbCurve {
                                n,
                                theta,
                                imp: CurveImpl::Point(p),
                            });
                        }
                    }
                    let ev = until::until_evaluator(
                        self.model,
                        lhs_pw.set_at(0.0),
                        rhs_pw.set_at(0.0),
                        *interval,
                        theta,
                        &self.tol,
                    )?;
                    Ok(ProbCurve {
                        n,
                        theta,
                        imp: CurveImpl::Until(ev),
                    })
                } else {
                    if !interval.starts_at_zero() {
                        return Err(CslError::Unsupported(format!(
                            "nested until with a positive lower time bound ({}) — the \
                             time-varying-set algorithm of Sec. IV-C covers intervals [0, T]",
                            interval.lo()
                        )));
                    }
                    let sets = PiecewiseSets::new(
                        Arc::unwrap_or_clone(lhs_pw),
                        Arc::unwrap_or_clone(rhs_pw),
                    )?;
                    let ev = nested::reach_evaluator(
                        self.model.generator(),
                        &sets,
                        0.0,
                        theta,
                        interval.hi(),
                        &self.tol,
                    )?;
                    Ok(ProbCurve {
                        n,
                        theta,
                        imp: CurveImpl::Nested(ev),
                    })
                }
            }
            PathFormula::Next { interval, inner } => {
                let inner_pw = self.sot(cache, inner, theta + interval.hi())?;
                if !inner_pw.is_constant() {
                    return Err(CslError::Unsupported(
                        "the Next operator with a time-dependent operand".into(),
                    ));
                }
                let sat_inner = inner_pw.set_at(0.0).to_vec();
                let points = if theta == 0.0 {
                    1
                } else {
                    self.tol.scan_points + 1
                };
                let ts: Vec<f64> = if points == 1 {
                    vec![0.0]
                } else {
                    mfcsl_math::vec_ops::linspace(0.0, theta, points)
                };
                let mut values = vec![Vec::with_capacity(ts.len()); n];
                for &t in &ts {
                    let p =
                        next::next_probabilities(self.model, &sat_inner, *interval, t, &self.tol)?;
                    for (s, v) in p.into_iter().enumerate() {
                        values[s].push(v);
                    }
                }
                // A single sample cannot be interpolated; duplicate it.
                let (ts, values) = if ts.len() == 1 {
                    (
                        vec![0.0, 1.0],
                        values
                            .into_iter()
                            .map(|v| vec![v[0], v[0]])
                            .collect::<Vec<_>>(),
                    )
                } else {
                    (ts, values)
                };
                Ok(ProbCurve {
                    n,
                    theta,
                    imp: CurveImpl::Sampled { ts, values },
                })
            }
        }
    }

    /// The memo layer around [`InhomogeneousChecker::sot_node`]: with a
    /// cache, intern-lookup-compute-store; without one, just compute.
    fn sot(
        &self,
        cache: Option<&SatCache>,
        phi: &StateFormula,
        theta: f64,
    ) -> Result<Arc<PiecewiseStateSet>, CslError> {
        if let Some(cache) = cache {
            let id = cache.intern_state(phi);
            if let Some(hit) = cache.lookup_set(id, theta) {
                return Ok(hit);
            }
            let set = Arc::new(self.sot_node(Some(cache), phi, theta)?);
            cache.store_set(id, theta, Arc::clone(&set));
            Ok(set)
        } else {
            Ok(Arc::new(self.sot_node(None, phi, theta)?))
        }
    }

    fn sot_node(
        &self,
        cache: Option<&SatCache>,
        phi: &StateFormula,
        theta: f64,
    ) -> Result<PiecewiseStateSet, CslError> {
        let n = self.model.n_states();
        match phi {
            StateFormula::True => Ok(PiecewiseStateSet::constant(0.0, theta, vec![true; n])?),
            StateFormula::Ap(ap) => {
                let set = self.model.sat_ap(ap)?;
                Ok(PiecewiseStateSet::constant(0.0, theta, set)?)
            }
            StateFormula::Not(inner) => Ok(self.sot(cache, inner, theta)?.complemented()),
            StateFormula::And(a, b) => {
                let sa = self.sot(cache, a, theta)?;
                let sb = self.sot(cache, b, theta)?;
                sa.combine(&sb, |x, y| x && y)
            }
            StateFormula::Or(a, b) => {
                let sa = self.sot(cache, a, theta)?;
                let sb = self.sot(cache, b, theta)?;
                sa.combine(&sb, |x, y| x || y)
            }
            StateFormula::Steady { cmp, p, inner } => {
                let regime = self
                    .model
                    .stationary()
                    .ok_or(CslError::NoStationaryDistribution)?;
                let sat_inner = homogeneous::sat(&regime.frozen, inner, &self.tol)?;
                // Eq. 14: the long-run probability is Σ_{s_j ∈ Sat} m̃_j,
                // identical for every start state, constant in time (Eq. 15).
                let value: f64 = regime
                    .distribution
                    .iter()
                    .zip(&sat_inner)
                    .filter(|(_, &in_sat)| in_sat)
                    .map(|(&m, _)| m)
                    .sum();
                let holds = cmp.holds(value, *p);
                Ok(PiecewiseStateSet::constant(0.0, theta, vec![holds; n])?)
            }
            StateFormula::Prob { cmp, p, path } => {
                let curve = self.path_prob_curve_rc(cache, path, theta)?;
                self.threshold_set(&curve, *cmp, *p, theta)
            }
        }
    }

    /// Converts a probability curve and a threshold into a piecewise
    /// satisfaction set: crossings are scanned on a grid and refined with
    /// Brent's method.
    fn threshold_set(
        &self,
        curve: &ProbCurve,
        cmp: Comparison,
        p: f64,
        theta: f64,
    ) -> Result<PiecewiseStateSet, CslError> {
        let n = curve.n_states();
        if theta == 0.0 {
            let set: Vec<bool> = curve
                .probs_at(0.0)
                .into_iter()
                .map(|v| cmp.holds(v, p))
                .collect();
            return PiecewiseStateSet::constant(0.0, theta, set);
        }
        let grid = mfcsl_math::vec_ops::linspace(0.0, theta, self.tol.scan_points + 1);
        // Sample all states at once per time point.
        let samples: Vec<Vec<f64>> = grid.iter().map(|&t| curve.probs_at(t)).collect();
        let mut boundaries: Vec<f64> = Vec::new();
        for s in 0..n {
            for (w, pair) in samples.windows(2).enumerate() {
                let f0 = pair[0][s] - p;
                let f1 = pair[1][s] - p;
                if f0 == 0.0 || f0.signum() != f1.signum() {
                    if f0 == 0.0 && f1 == 0.0 {
                        continue;
                    }
                    let root = if f0 == 0.0 {
                        grid[w]
                    } else if f1 == 0.0 {
                        grid[w + 1]
                    } else {
                        brent(
                            |t| curve.prob_state_at(s, t) - p,
                            grid[w],
                            grid[w + 1],
                            self.tol.root_tol,
                        )?
                    };
                    if root > self.tol.root_tol && root < theta - self.tol.root_tol {
                        boundaries.push(root);
                    }
                }
            }
        }
        boundaries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        boundaries.dedup_by(|a, b| (*a - *b).abs() <= 2.0 * self.tol.root_tol);
        // Membership per segment, evaluated at the midpoint.
        let mut sets = Vec::with_capacity(boundaries.len() + 1);
        let mut edges = vec![0.0];
        edges.extend(boundaries.iter().copied());
        edges.push(theta);
        for w in 0..edges.len() - 1 {
            let mid = 0.5 * (edges[w] + edges[w + 1]);
            let set: Vec<bool> = curve
                .probs_at(mid)
                .into_iter()
                .map(|v| cmp.holds(v, p))
                .collect();
            sets.push(set);
        }
        Ok(PiecewiseStateSet::new(0.0, theta, boundaries, sets)?.simplified())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StationaryRegime;
    use crate::parser::{parse_path_formula, parse_state_formula};
    use mfcsl_ctmc::inhomogeneous::{ConstGenerator, FnGenerator};
    use mfcsl_ctmc::{CtmcBuilder, Labeling};
    use mfcsl_math::Matrix;

    fn tol() -> Tolerances {
        let mut t = Tolerances::default();
        t.ode = t.ode.with_tolerances(1e-10, 1e-13);
        t
    }

    fn const_model() -> (LocalTvModel<ConstGenerator>, mfcsl_ctmc::Ctmc) {
        let ctmc = CtmcBuilder::new()
            .state("s1", ["not_infected"])
            .state("s2", ["infected", "inactive"])
            .state("s3", ["infected", "active"])
            .transition("s1", "s2", 0.4)
            .unwrap()
            .transition("s2", "s1", 0.1)
            .unwrap()
            .transition("s2", "s3", 0.3)
            .unwrap()
            .transition("s3", "s2", 0.3)
            .unwrap()
            .transition("s3", "s1", 0.2)
            .unwrap()
            .build()
            .unwrap();
        let model = LocalTvModel::new(
            ConstGenerator::new(&ctmc),
            ctmc.labeling().clone(),
            ctmc.state_names().to_vec(),
        )
        .unwrap();
        (model, ctmc)
    }

    /// One-way infection with linearly growing rate; fully analytic.
    fn growing_model() -> LocalTvModel<FnGenerator<impl Fn(f64, &mut Matrix)>> {
        let gen = FnGenerator::new(2, |t: f64, q: &mut Matrix| {
            *q = Matrix::zeros(2, 2);
            let r = 0.1 + 0.2 * t;
            q[(0, 0)] = -r;
            q[(0, 1)] = r;
        });
        let mut labels = Labeling::new(2);
        labels.add(0, "healthy");
        labels.add(1, "infected");
        LocalTvModel::new(gen, labels, vec!["s1".into(), "s2".into()]).unwrap()
    }

    #[test]
    fn agrees_with_homogeneous_checker_on_constant_rates() {
        let (model, ctmc) = const_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let formulas = [
            "not_infected",
            "infected & !active",
            "P{<0.3}[ not_infected U[0,1] infected ]",
            "P{>0.5}[ tt U[0,3] active ]",
            "P{>0.1}[ infected U[0.5,2] not_infected ]",
            "!P{>0.9}[ tt U[0,1] infected ] | active",
        ];
        for text in formulas {
            let phi = parse_state_formula(text).unwrap();
            let inhom = checker.sat(&phi).unwrap();
            let hom = homogeneous::sat(&ctmc, &phi, &tol()).unwrap();
            assert_eq!(inhom, hom, "formula `{text}`");
        }
    }

    #[test]
    fn analytic_threshold_crossing() {
        // Prob(s1, healthy U[0,1] infected, t) = 1 - exp(-(0.1 + 0.2t + 0.1))
        // = 1 - exp(-(0.2 + 0.2 t))  [∫_t^{t+1}(0.1+0.2u)du = 0.1+0.2t+0.1].
        // Crossing 0.5: 0.2 + 0.2t = ln 2 → t = (ln 2 - 0.2)/0.2 ≈ 1.4657.
        let model = growing_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let phi = parse_state_formula("P{<0.5}[ healthy U[0,1] infected ]").unwrap();
        let pw = checker.sat_over_time(&phi, 10.0).unwrap();
        assert_eq!(pw.boundaries().len(), 1);
        let expected = (2.0_f64.ln() - 0.2) / 0.2;
        assert!(
            (pw.boundaries()[0] - expected).abs() < 1e-6,
            "crossing at {} vs {expected}",
            pw.boundaries()[0]
        );
        assert!(pw.set_at(0.0)[0]);
        assert!(!pw.set_at(5.0)[0]);
        // State s2 satisfies `infected` immediately, so the until holds
        // with probability 1 there (standard CSL semantics) and the strict
        // `< 0.5` bound fails at all times.
        assert!(!pw.set_at(0.0)[1] && !pw.set_at(5.0)[1]);
    }

    #[test]
    fn nested_until_goes_through_time_varying_sets() {
        // Inner formula's satisfaction set changes with time -> the outer
        // until takes the nested path. Cross-check the probability at t=0
        // against a fresh nested reach computation.
        let model = growing_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let phi =
            parse_state_formula("P{>0.3}[ tt U[0,4] P{>0.5}[ healthy U[0,1] infected ] ]").unwrap();
        let s = checker.sat(&phi).unwrap();
        assert_eq!(s.len(), 2);
        // The inner satisfaction set is {s2} early and gains s1 when
        // 1 - exp(-(0.2 + 0.2t)) crosses 0.5 at t = (ln2 - 0.2)/0.2 ≈
        // 2.466, which lies inside the outer window [0, 4]; the outer
        // until must therefore take the nested time-varying-set path.
        let path = parse_path_formula("tt U[0,4] P{>0.5}[ healthy U[0,1] infected ]").unwrap();
        let probs = checker.path_probabilities(&path).unwrap();
        assert_eq!(probs.len(), 2);
        assert!(probs.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        // From s1 every path succeeds: either it jumps into s2 ∈ Γ before
        // 2.466, or it is still in s1 when s1 itself joins the goal set.
        assert!(probs[0] > 0.999, "{probs:?}");
        assert!(probs[1] > 0.999, "{probs:?}");
        // With a shorter window that ends before the inner crossing the
        // probability from s1 is strictly the jump probability
        // 1 - exp(-0.6) ≈ 0.451.
        let short = parse_path_formula("tt U[0,2] P{>0.5}[ healthy U[0,1] infected ]").unwrap();
        let probs_short = checker.path_probabilities(&short).unwrap();
        assert!(
            (probs_short[0] - (1.0 - (-0.6_f64).exp())).abs() < 1e-6,
            "{probs_short:?}"
        );
    }

    #[test]
    fn steady_operator_uses_stationary_regime() {
        let (model, ctmc) = const_model();
        let stationary = mfcsl_ctmc::steady::steady_state(&ctmc).unwrap();
        let model = model
            .with_stationary(StationaryRegime {
                distribution: stationary.clone(),
                frozen: ctmc.clone(),
                settle_time: None,
            })
            .unwrap();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let p_infected = stationary[1] + stationary[2];
        let phi = parse_state_formula("S{>0.5}[ infected ]").unwrap();
        let expect = p_infected > 0.5;
        assert_eq!(checker.sat(&phi).unwrap(), vec![expect; 3]);
        // Without a regime the operator errors.
        let (bare, _) = const_model();
        let checker = InhomogeneousChecker::with_tolerances(&bare, tol());
        assert!(matches!(
            checker.sat(&phi),
            Err(CslError::NoStationaryDistribution)
        ));
    }

    #[test]
    fn next_operator_curves() {
        let model = growing_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let path = parse_path_formula("X[0,1] infected").unwrap();
        let curve = checker.path_prob_curve(&path, 3.0).unwrap();
        // Analytic: 1 - exp(-(0.2 + 0.2t)).
        for &t in &[0.0, 1.0, 2.7] {
            let exact = 1.0 - f64::exp(-(0.2 + 0.2 * t));
            let got = curve.prob_state_at(0, t);
            assert!((got - exact).abs() < 1e-4, "t = {t}: {got} vs {exact}");
        }
        let phi = parse_state_formula("P{>0.5}[ X[0,1] infected ]").unwrap();
        let pw = checker.sat_over_time(&phi, 5.0).unwrap();
        assert_eq!(pw.boundaries().len(), 1);
        let expected = (2.0_f64.ln() - 0.2) / 0.2;
        assert!((pw.boundaries()[0] - expected).abs() < 1e-3);
    }

    #[test]
    fn unsupported_fragments_are_reported() {
        let model = growing_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        // Nested until with positive lower bound.
        let phi =
            parse_state_formula("P{>0.3}[ tt U[1,2] P{>0.5}[ healthy U[0,1] infected ] ]").unwrap();
        assert!(matches!(
            checker.sat_over_time(&phi, 3.0),
            Err(CslError::Unsupported(_))
        ));
        // Next with time-dependent operand.
        let phi =
            parse_state_formula("P{>0.3}[ X[0,1] P{>0.5}[ healthy U[0,1] infected ] ]").unwrap();
        assert!(matches!(
            checker.sat_over_time(&phi, 3.0),
            Err(CslError::Unsupported(_))
        ));
    }

    #[test]
    fn boolean_structure_over_time() {
        let model = growing_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let a = parse_state_formula("P{<0.5}[ healthy U[0,1] infected ]").unwrap();
        let not_a = parse_state_formula("!P{<0.5}[ healthy U[0,1] infected ]").unwrap();
        let pa = checker.sat_over_time(&a, 6.0).unwrap();
        let pna = checker.sat_over_time(&not_a, 6.0).unwrap();
        for &t in &[0.0, 1.0, 2.0, 5.0] {
            for s in 0..2 {
                assert_ne!(pa.set_at(t)[s], pna.set_at(t)[s]);
            }
        }
        // AND of a formula with itself is itself.
        let both = parse_state_formula(
            "P{<0.5}[ healthy U[0,1] infected ] & P{<0.5}[ healthy U[0,1] infected ]",
        )
        .unwrap();
        let pb = checker.sat_over_time(&both, 6.0).unwrap();
        for &t in &[0.0, 2.0, 6.0] {
            assert_eq!(pa.set_at(t), pb.set_at(t));
        }
    }

    #[test]
    fn validation_of_horizon() {
        let model = growing_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let phi = parse_state_formula("healthy").unwrap();
        assert!(checker.sat_over_time(&phi, -1.0).is_err());
        assert!(checker.sat_over_time(&phi, f64::NAN).is_err());
    }

    #[test]
    fn curve_accessors() {
        let model = growing_model();
        let checker = InhomogeneousChecker::with_tolerances(&model, tol());
        let path = parse_path_formula("healthy U[0,1] infected").unwrap();
        let curve = checker.path_prob_curve(&path, 2.0).unwrap();
        assert_eq!(curve.n_states(), 2);
        assert_eq!(curve.theta(), 2.0);
        // Clamping.
        let early = curve.probs_at(-5.0);
        let zero = curve.probs_at(0.0);
        assert_eq!(early, zero);
    }
}
