//! Conditional satisfaction sets `cSat(Ψ, m̄, θ)` (Sec. V-B, Eq. 20 and
//! Table I of the paper).
//!
//! Once the initial occupancy is fixed, the set of time instants
//! `t ∈ [0, θ]` at which `m̄(t) ⊨ Ψ` is a finite union of intervals whose
//! endpoints are threshold crossings of expectation curves (or satisfaction
//! -set jump points). Boolean structure maps to exact interval-set algebra:
//! `∧` is intersection, `¬` is complement within `[0, θ]`.

use mfcsl_csl::checker::InhomogeneousChecker;
use mfcsl_csl::{homogeneous, Comparison, SatCache};
use mfcsl_math::roots::brent;
use mfcsl_math::{Interval, IntervalSet};

use crate::meanfield::{OccupancyTrajectory, TrajectoryGenerator};
use crate::mfcsl::check::Checker;
use crate::mfcsl::syntax::MfFormula;
use crate::{CoreError, Occupancy};

impl Checker<'_> {
    /// Computes `cSat(Ψ, m̄, θ) = { t ∈ [0, θ] | m̄(t) ⊨ Ψ }` as an exact
    /// interval set (open/closed endpoints follow the comparison
    /// operators).
    ///
    /// # Errors
    ///
    /// See [`Checker::check`]; additionally returns
    /// [`CoreError::InvalidArgument`] for a negative or non-finite `θ`.
    ///
    /// # Example
    ///
    /// ```
    /// use mfcsl_core::mfcsl::{parse_formula, Checker};
    /// use mfcsl_core::{LocalModel, Occupancy};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let model = LocalModel::builder()
    ///     .state("s", ["healthy"])
    ///     .state("i", ["infected"])
    ///     .transition("s", "i", |m: &Occupancy| 2.0 * m[1])?
    ///     .constant_transition("i", "s", 1.0)?
    ///     .build()?;
    /// let m0 = Occupancy::new(vec![0.9, 0.1])?;
    /// // The infected fraction grows from 0.1 toward 0.5, crossing 0.3
    /// // exactly once: the satisfaction set is a single interval [0, τ).
    /// let psi = parse_formula("E{<0.3}[ infected ]")?;
    /// let csat = Checker::new(&model).csat(&psi, &m0, 20.0)?;
    /// assert_eq!(csat.intervals().len(), 1);
    /// assert!(csat.contains(0.0));
    /// assert!(!csat.contains(20.0));
    /// # Ok(())
    /// # }
    /// ```
    pub fn csat(
        &self,
        psi: &MfFormula,
        m0: &Occupancy,
        theta: f64,
    ) -> Result<IntervalSet, CoreError> {
        if !(theta >= 0.0) || !theta.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "evaluation horizon must be finite and non-negative, got {theta}"
            )));
        }
        let solution = self.solve(psi, m0, theta)?;
        let tv = self.tv_model(&solution, psi, m0)?;
        let csl = InhomogeneousChecker::with_tolerances(&tv, *self.tolerances());
        self.csat_rec(None, psi, &csl, &solution, theta)
    }

    /// The recursion behind [`Checker::csat`], with an optional CSL-layer
    /// memo cache (used by the analysis engine; `csat` passes `None`).
    pub(crate) fn csat_rec(
        &self,
        cache: Option<&SatCache>,
        psi: &MfFormula,
        csl: &InhomogeneousChecker<'_, TrajectoryGenerator<'_>>,
        solution: &OccupancyTrajectory<'_>,
        theta: f64,
    ) -> Result<IntervalSet, CoreError> {
        match psi {
            MfFormula::True => Ok(full_window(theta)),
            MfFormula::Not(inner) => Ok(self
                .csat_rec(cache, inner, csl, solution, theta)?
                .complement(0.0, theta)
                .map_err(CoreError::Math)?),
            MfFormula::And(a, b) => {
                let sa = self.csat_rec(cache, a, csl, solution, theta)?;
                let sb = self.csat_rec(cache, b, csl, solution, theta)?;
                Ok(sa.intersect(&sb))
            }
            MfFormula::Or(a, b) => {
                let sa = self.csat_rec(cache, a, csl, solution, theta)?;
                let sb = self.csat_rec(cache, b, csl, solution, theta)?;
                Ok(sa.union(&sb))
            }
            MfFormula::Expect { cmp, p, inner } => {
                // Table I row 1: Σ_j m_j(t) · Ind(s_j ⊨ Φ at t) ⋈ p, with
                // jump points where the satisfaction set changes.
                let sat = match cache {
                    Some(c) => csl.sat_over_time_cached(c, inner, theta)?,
                    None => std::sync::Arc::new(csl.sat_over_time(inner, theta)?),
                };
                let value = |t: f64| solution.occupancy_at(t).mass_of(sat.set_at(t));
                self.threshold_intervals(&value, sat.boundaries(), *cmp, *p, theta)
            }
            MfFormula::ExpectPath { cmp, p, path } => {
                // Table I row 3: Σ_j m_j(t) · Prob(s_j, φ, m̄, t) ⋈ p.
                let curve = match cache {
                    Some(c) => csl.path_prob_curve_cached(c, path, theta)?,
                    None => std::sync::Arc::new(csl.path_prob_curve(path, theta)?),
                };
                let value = move |t: f64| -> f64 {
                    let m = solution.occupancy_at(t);
                    let probs = curve.probs_at(t);
                    m.as_slice()
                        .iter()
                        .zip(&probs)
                        .map(|(&mj, &pj)| mj * pj)
                        .sum()
                };
                self.threshold_intervals(&value, &[], *cmp, *p, theta)
            }
            MfFormula::ExpectSteady { cmp, p, inner } => {
                // Sec. V-A / Eq. 15: the compared value is constant in
                // time, so the set is all-or-nothing.
                let regime = csl.model().stationary().ok_or_else(|| {
                    CoreError::NoStationaryPoint(
                        "steady-state operator reached without a regime".into(),
                    )
                })?;
                let sat = homogeneous::sat(&regime.frozen, inner, self.tolerances())?;
                let value: f64 = regime
                    .distribution
                    .iter()
                    .zip(&sat)
                    .filter(|(_, &s)| s)
                    .map(|(&m, _)| m)
                    .sum();
                if cmp.holds(value, *p) {
                    Ok(full_window(theta))
                } else {
                    Ok(IntervalSet::empty())
                }
            }
        }
    }

    /// Builds `{ t | value(t) ⋈ p }` within `[0, θ]`.
    ///
    /// `jump_points` are times where `value` may jump (satisfaction-set
    /// changes); continuous threshold crossings are located by a grid scan
    /// refined with Brent's method. Elementary open pieces plus the exact
    /// point memberships at all breakpoints are assembled by the
    /// interval-set normalizer, which merges touching pieces.
    fn threshold_intervals(
        &self,
        value: &dyn Fn(f64) -> f64,
        jump_points: &[f64],
        cmp: Comparison,
        p: f64,
        theta: f64,
    ) -> Result<IntervalSet, CoreError> {
        let tol = self.tolerances();
        if theta == 0.0 {
            return Ok(if cmp.holds(value(0.0), p) {
                IntervalSet::from_interval(Interval::point(0.0).map_err(CoreError::Math)?)
            } else {
                IntervalSet::empty()
            });
        }
        // Locate continuous crossings.
        let grid = mfcsl_math::vec_ops::linspace(0.0, theta, tol.scan_points + 1);
        let samples: Vec<f64> = grid.iter().map(|&t| value(t)).collect();
        let mut crossings: Vec<f64> = Vec::new();
        for w in 0..grid.len() - 1 {
            let f0 = samples[w] - p;
            let f1 = samples[w + 1] - p;
            if f0 != 0.0 && f1 != 0.0 && f0.signum() != f1.signum() {
                let root = brent(|t| value(t) - p, grid[w], grid[w + 1], tol.root_tol)
                    .map_err(CoreError::Math)?;
                crossings.push(root);
            } else if f0 == 0.0 {
                crossings.push(grid[w]);
            }
        }
        if (samples[grid.len() - 1] - p) == 0.0 {
            crossings.push(theta);
        }

        // Assemble the breakpoint grid. Non-finite breakpoints mean an
        // upstream curve degenerated (e.g. a NaN sample); surface that as a
        // structured error rather than silently mis-sorting or panicking.
        let mut breaks: Vec<(f64, BreakKind)> =
            vec![(0.0, BreakKind::Edge), (theta, BreakKind::Edge)];
        for &b in jump_points {
            if !b.is_finite() {
                return Err(CoreError::InvalidArgument(format!(
                    "satisfaction-set jump point is not finite: {b}"
                )));
            }
            if b > 0.0 && b < theta {
                breaks.push((b, BreakKind::Jump));
            }
        }
        for &c in &crossings {
            if !c.is_finite() {
                return Err(CoreError::InvalidArgument(format!(
                    "threshold crossing is not finite: {c}"
                )));
            }
            if c >= 0.0 && c <= theta {
                breaks.push((c, BreakKind::Crossing));
            }
        }
        breaks.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Merge near-coincident breakpoints; a Jump wins over a Crossing.
        let mut merged: Vec<(f64, BreakKind)> = Vec::with_capacity(breaks.len());
        for (t, kind) in breaks {
            match merged.last_mut() {
                Some((lt, lk)) if (t - *lt).abs() <= 2.0 * tol.root_tol => {
                    if matches!(kind, BreakKind::Jump) {
                        *lk = BreakKind::Jump;
                    }
                    if matches!(kind, BreakKind::Edge) {
                        *lk = BreakKind::Edge;
                    }
                }
                _ => merged.push((t, kind)),
            }
        }

        let mut pieces: Vec<Interval> = Vec::new();
        // Point memberships at the breakpoints.
        for &(t, kind) in &merged {
            let belongs = match kind {
                // At a located crossing the value equals the bound exactly
                // (up to root tolerance): membership follows the operator.
                BreakKind::Crossing => cmp.includes_bound(),
                // At jumps and window edges, evaluate (right-continuously).
                BreakKind::Jump | BreakKind::Edge => cmp.holds(value(t), p),
            };
            if belongs {
                pieces.push(Interval::point(t).map_err(CoreError::Math)?);
            }
        }
        // Open elementary pieces between breakpoints, decided at midpoints.
        for w in merged.windows(2) {
            let (a, b) = (w[0].0, w[1].0);
            if b - a <= 2.0 * tol.root_tol {
                continue;
            }
            let mid = 0.5 * (a + b);
            if cmp.holds(value(mid), p) {
                pieces.push(Interval::open(a, b).map_err(CoreError::Math)?);
            }
        }
        Ok(IntervalSet::from_intervals(pieces))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakKind {
    Edge,
    Jump,
    Crossing,
}

fn full_window(theta: f64) -> IntervalSet {
    IntervalSet::from_interval(Interval::closed(0.0, theta).expect("validated window"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mfcsl::parse_formula;
    use crate::LocalModel;

    fn sis() -> LocalModel {
        LocalModel::builder()
            .state("s", ["healthy"])
            .state("i", ["infected"])
            .transition("s", "i", |m: &Occupancy| 2.0 * m[1])
            .unwrap()
            .constant_transition("i", "s", 1.0)
            .unwrap()
            .build()
            .unwrap()
    }

    fn m0() -> Occupancy {
        Occupancy::new(vec![0.9, 0.1]).unwrap()
    }

    /// Analytic SIS infected fraction from i0 = 0.1 with β = 2, γ = 1.
    fn infected_at(t: f64) -> f64 {
        0.5 / (1.0 + 4.0 * (-t).exp())
    }

    /// Analytic crossing time of the infected fraction through level `p`.
    fn crossing(p: f64) -> f64 {
        -((0.5 / p - 1.0) / 4.0).ln()
    }

    #[test]
    fn expect_crossing_matches_analytic_logistic() {
        let model = sis();
        let checker = Checker::new(&model);
        let psi = parse_formula("E{<0.3}[ infected ]").unwrap();
        let cs = checker.csat(&psi, &m0(), 20.0).unwrap();
        assert_eq!(cs.intervals().len(), 1);
        let iv = cs.intervals()[0];
        assert_eq!(iv.lo().value, 0.0);
        assert!(iv.lo().closed);
        let expected = crossing(0.3);
        assert!(
            (iv.hi().value - expected).abs() < 1e-6,
            "crossing at {} vs analytic {expected}",
            iv.hi().value
        );
        // `<` excludes the crossing instant.
        assert!(!iv.hi().closed);
        // Sanity against the analytic curve.
        assert!(infected_at(expected + 0.01) > 0.3);
    }

    #[test]
    fn closed_operator_includes_the_crossing() {
        let model = sis();
        let checker = Checker::new(&model);
        let psi = parse_formula("E{<=0.3}[ infected ]").unwrap();
        let cs = checker.csat(&psi, &m0(), 20.0).unwrap();
        assert_eq!(cs.intervals().len(), 1);
        assert!(cs.intervals()[0].hi().closed);
    }

    #[test]
    fn negation_is_complement() {
        let model = sis();
        let checker = Checker::new(&model);
        let psi = parse_formula("E{<0.3}[ infected ]").unwrap();
        let neg = parse_formula("!E{<0.3}[ infected ]").unwrap();
        let cs = checker.csat(&psi, &m0(), 20.0).unwrap();
        let csn = checker.csat(&neg, &m0(), 20.0).unwrap();
        for &t in &[0.0, 1.0, 2.0, 5.0, 19.9] {
            assert_ne!(cs.contains(t), csn.contains(t), "t = {t}");
        }
        // Measures add up to the window length.
        assert!((cs.measure() + csn.measure() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn conjunction_is_intersection() {
        let model = sis();
        let checker = Checker::new(&model);
        // 0.2 < i(t) < 0.4: a single interior window.
        let psi = parse_formula("E{>0.2}[ infected ] & E{<0.4}[ infected ]").unwrap();
        let cs = checker.csat(&psi, &m0(), 20.0).unwrap();
        assert_eq!(cs.intervals().len(), 1);
        let iv = cs.intervals()[0];
        assert!((iv.lo().value - crossing(0.2)).abs() < 1e-6);
        assert!((iv.hi().value - crossing(0.4)).abs() < 1e-6);
        assert!(!iv.lo().closed && !iv.hi().closed);
    }

    #[test]
    fn tautologies_and_contradictions() {
        let model = sis();
        let checker = Checker::new(&model);
        let cs = checker
            .csat(&parse_formula("tt").unwrap(), &m0(), 5.0)
            .unwrap();
        assert_eq!(cs.measure(), 5.0);
        let cs = checker
            .csat(&parse_formula("!tt").unwrap(), &m0(), 5.0)
            .unwrap();
        assert!(cs.is_empty());
        // p = 0 with `>=` is trivially satisfied everywhere.
        let cs = checker
            .csat(&parse_formula("E{>=0}[ infected ]").unwrap(), &m0(), 5.0)
            .unwrap();
        assert_eq!(cs.measure(), 5.0);
    }

    #[test]
    fn expect_steady_is_all_or_nothing() {
        let model = sis();
        let checker = Checker::new(&model);
        let cs = checker
            .csat(&parse_formula("ES{>0.45}[ infected ]").unwrap(), &m0(), 7.0)
            .unwrap();
        assert_eq!(cs.measure(), 7.0);
        let cs = checker
            .csat(&parse_formula("ES{>0.55}[ infected ]").unwrap(), &m0(), 7.0)
            .unwrap();
        assert!(cs.is_empty());
    }

    #[test]
    fn ep_satisfaction_window() {
        let model = sis();
        let checker = Checker::new(&model);
        // EP of the until grows along the trajectory; a `<` bound gives a
        // left window [0, τ).
        let psi = parse_formula("EP{<0.5}[ healthy U[0,1] infected ]").unwrap();
        let cs = checker.csat(&psi, &m0(), 15.0).unwrap();
        assert!(cs.contains(0.0));
        assert!(!cs.contains(15.0));
        assert_eq!(cs.intervals().len(), 1);
        // Verify the endpoint against the EP curve itself.
        let path = mfcsl_csl::parse_path_formula("healthy U[0,1] infected").unwrap();
        let curve = checker.ep_curve(&path, &m0(), 15.0).unwrap();
        let tau = cs.intervals()[0].hi().value;
        assert!((curve.expected_at(tau) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_theta_is_a_point_query() {
        let model = sis();
        let checker = Checker::new(&model);
        let psi = parse_formula("E{>=0.1}[ infected ]").unwrap();
        let cs = checker.csat(&psi, &m0(), 0.0).unwrap();
        assert!(cs.contains(0.0));
        assert_eq!(cs.measure().to_bits(), 0.0f64.to_bits());
        let psi = parse_formula("E{>0.1}[ infected ]").unwrap();
        let cs = checker.csat(&psi, &m0(), 0.0).unwrap();
        assert!(cs.is_empty());
        // An empty set measures +0.0, never -0.0 (which prints as "-0").
        assert_eq!(cs.measure().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nan_breakpoint_is_a_structured_error_not_a_panic() {
        let model = sis();
        let checker = Checker::new(&model);
        let value = |_t: f64| 0.5;
        // A NaN jump point must surface as InvalidArgument, never reach the
        // sort (where partial_cmp would have panicked).
        let err = checker
            .threshold_intervals(&value, &[f64::NAN], Comparison::Lt, 0.7, 5.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err:?}");
        let err = checker
            .threshold_intervals(&value, &[f64::INFINITY], Comparison::Lt, 0.7, 5.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidArgument(_)), "{err:?}");
        // Finite jump points still work.
        let cs = checker
            .threshold_intervals(&value, &[2.5], Comparison::Lt, 0.7, 5.0)
            .unwrap();
        assert_eq!(cs.measure(), 5.0);
    }

    #[test]
    fn invalid_theta_rejected() {
        let model = sis();
        let checker = Checker::new(&model);
        let psi = parse_formula("tt").unwrap();
        assert!(checker.csat(&psi, &m0(), -1.0).is_err());
        assert!(checker.csat(&psi, &m0(), f64::INFINITY).is_err());
    }
}
