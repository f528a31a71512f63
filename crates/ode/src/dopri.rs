//! Adaptive Dormand–Prince 5(4) integration.
//!
//! The production solver of the workspace: an explicit embedded Runge–Kutta
//! pair of orders 5 and 4 with FSAL (first-same-as-last), a smoothed
//! step-size controller, and dense output through the trajectory's cubic
//! Hermite representation.

use crate::problem::OdeSystem;
use crate::solution::{SolveStats, Trajectory};
use crate::{OdeError, OdeOptions};

/// Dormand–Prince 5(4) solver.
///
/// # Example
///
/// ```
/// use mfcsl_ode::dopri::Dopri5;
/// use mfcsl_ode::problem::FnSystem;
/// use mfcsl_ode::OdeOptions;
///
/// # fn main() -> Result<(), mfcsl_ode::OdeError> {
/// // Harmonic oscillator: y'' = -y.
/// let sys = FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
///     dy[0] = y[1];
///     dy[1] = -y[0];
/// });
/// let sol = Dopri5::new(OdeOptions::default()).solve(&sys, 0.0, std::f64::consts::PI, &[1.0, 0.0])?;
/// assert!((sol.final_state()[0] + 1.0).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dopri5 {
    options: OdeOptions,
}

/// Reusable integration scratch: the seven stage buffers, the current and
/// trial states, and the flat knot arenas that accumulate accepted steps.
///
/// A workspace is allocated once and handed to [`Dopri5::solve_into`] for
/// every integration that should reuse its buffers — the hot Kolmogorov
/// loops issue thousands of `solve` calls, and without a workspace each one
/// re-allocates ten state-sized vectors plus one `Vec` clone of the state
/// and derivative per accepted step. The arenas are moved into the returned
/// [`Trajectory`] (which owns its knot data), so only the stage buffers
/// persist across calls; they are resized on demand if the dimension
/// changes.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    k5: Vec<f64>,
    k6: Vec<f64>,
    k7: Vec<f64>,
    y: Vec<f64>,
    y_stage: Vec<f64>,
    y_new: Vec<f64>,
    ts: Vec<f64>,
    ys: Vec<f64>,
    ds: Vec<f64>,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Clears the arenas and sizes every stage buffer for dimension `n`.
    fn reset(&mut self, n: usize) {
        for buf in [
            &mut self.k1,
            &mut self.k2,
            &mut self.k3,
            &mut self.k4,
            &mut self.k5,
            &mut self.k6,
            &mut self.k7,
            &mut self.y,
            &mut self.y_stage,
            &mut self.y_new,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        self.ts.clear();
        self.ys.clear();
        self.ds.clear();
    }

    /// Moves the accumulated knot arenas into a trajectory.
    fn take_trajectory(&mut self, dim: usize, stats: SolveStats) -> Result<Trajectory, OdeError> {
        Trajectory::from_flat(
            dim,
            std::mem::take(&mut self.ts),
            std::mem::take(&mut self.ys),
            std::mem::take(&mut self.ds),
            stats,
        )
    }
}

// Butcher tableau of the Dormand–Prince 5(4) pair. `pub(crate)` so the
// batched lane (crate::batch) steps with the exact same coefficients.
pub(crate) const A21: f64 = 1.0 / 5.0;
pub(crate) const A31: f64 = 3.0 / 40.0;
pub(crate) const A32: f64 = 9.0 / 40.0;
pub(crate) const A41: f64 = 44.0 / 45.0;
pub(crate) const A42: f64 = -56.0 / 15.0;
pub(crate) const A43: f64 = 32.0 / 9.0;
pub(crate) const A51: f64 = 19372.0 / 6561.0;
pub(crate) const A52: f64 = -25360.0 / 2187.0;
pub(crate) const A53: f64 = 64448.0 / 6561.0;
pub(crate) const A54: f64 = -212.0 / 729.0;
pub(crate) const A61: f64 = 9017.0 / 3168.0;
pub(crate) const A62: f64 = -355.0 / 33.0;
pub(crate) const A63: f64 = 46732.0 / 5247.0;
pub(crate) const A64: f64 = 49.0 / 176.0;
pub(crate) const A65: f64 = -5103.0 / 18656.0;
pub(crate) const B1: f64 = 35.0 / 384.0;
pub(crate) const B3: f64 = 500.0 / 1113.0;
pub(crate) const B4: f64 = 125.0 / 192.0;
pub(crate) const B5: f64 = -2187.0 / 6784.0;
pub(crate) const B6: f64 = 11.0 / 84.0;
// Error coefficients: b (order 5) minus b* (order 4).
pub(crate) const E1: f64 = 71.0 / 57_600.0;
pub(crate) const E3: f64 = -71.0 / 16_695.0;
pub(crate) const E4: f64 = 71.0 / 1_920.0;
pub(crate) const E5: f64 = -17_253.0 / 339_200.0;
pub(crate) const E6: f64 = 22.0 / 525.0;
pub(crate) const E7: f64 = -1.0 / 40.0;

pub(crate) const C2: f64 = 1.0 / 5.0;
pub(crate) const C3: f64 = 3.0 / 10.0;
pub(crate) const C4: f64 = 4.0 / 5.0;
pub(crate) const C5: f64 = 8.0 / 9.0;

pub(crate) const SAFETY: f64 = 0.9;
pub(crate) const FAC_MIN: f64 = 0.2;
pub(crate) const FAC_MAX: f64 = 5.0;

impl Dopri5 {
    /// Creates a solver with the given options.
    #[must_use]
    pub fn new(options: OdeOptions) -> Self {
        Dopri5 { options }
    }

    /// Borrows the solver options.
    #[must_use]
    pub fn options(&self) -> &OdeOptions {
        &self.options
    }

    /// Integrates `sys` from `t0` to `t1 >= t0` starting at `y0`, returning
    /// a dense trajectory.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidArgument`] for `t1 < t0`, a state of the
    /// wrong dimension, or invalid options; [`OdeError::StepSizeTooSmall`] /
    /// [`OdeError::MaxStepsExceeded`] if the controller fails; and
    /// [`OdeError::NonFiniteDerivative`] if the right-hand side misbehaves.
    pub fn solve<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0: &[f64],
    ) -> Result<Trajectory, OdeError> {
        let mut ws = SolverWorkspace::new();
        self.solve_into(sys, t0, t1, y0, &mut ws)
    }

    /// Like [`Dopri5::solve`] but reuses a caller-owned [`SolverWorkspace`]
    /// for the stage buffers and knot arenas, so back-to-back integrations
    /// (the Kolmogorov row/column fan-outs, trajectory extensions) allocate
    /// nothing per call beyond the returned trajectory's own knot storage.
    ///
    /// The result is bitwise identical to [`Dopri5::solve`]: only the memory
    /// layout differs, not the arithmetic.
    ///
    /// # Errors
    ///
    /// Same contract as [`Dopri5::solve`].
    pub fn solve_into<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0: &[f64],
        ws: &mut SolverWorkspace,
    ) -> Result<Trajectory, OdeError> {
        self.options.validate()?;
        let n = sys.dim();
        if y0.len() != n {
            return Err(OdeError::InvalidArgument(format!(
                "initial state has dimension {}, system expects {n}",
                y0.len()
            )));
        }
        if !(t1 >= t0) {
            return Err(OdeError::InvalidArgument(format!(
                "integration range [{t0}, {t1}] is reversed or NaN"
            )));
        }
        ws.reset(n);
        let mut stats = SolveStats::default();
        let mut t = t0;
        ws.y.copy_from_slice(y0);
        sys.project(t, &mut ws.y);
        sys.rhs(t, &ws.y, &mut ws.k1);
        stats.rhs_evals += 1;
        check_finite(t, &ws.k1)?;

        ws.ts.push(t);
        ws.ys.extend_from_slice(&ws.y);
        ws.ds.extend_from_slice(&ws.k1);

        if t1 == t0 {
            return ws.take_trajectory(n, stats);
        }

        let mut h = match self.options.h_init {
            Some(h) => h.min(self.options.h_max).min(t1 - t0),
            None => self.initial_step(sys, t, &ws.y, &ws.k1, t1, &mut stats),
        };

        let mut steps = 0usize;
        while t < t1 {
            steps += 1;
            if steps > self.options.max_steps {
                return Err(OdeError::MaxStepsExceeded {
                    steps: self.options.max_steps,
                    t,
                });
            }
            h = h.min(t1 - t).min(self.options.h_max);
            if h < self.options.h_min {
                // Allow the final sliver of the interval to be smaller than
                // h_min; everything else is a genuine underflow.
                if t1 - t > self.options.h_min {
                    return Err(OdeError::StepSizeTooSmall { t, h });
                }
                h = t1 - t;
            }

            // Stage 2.
            for i in 0..n {
                ws.y_stage[i] = ws.y[i] + h * A21 * ws.k1[i];
            }
            sys.rhs(t + C2 * h, &ws.y_stage, &mut ws.k2);
            // Stage 3.
            for i in 0..n {
                ws.y_stage[i] = ws.y[i] + h * (A31 * ws.k1[i] + A32 * ws.k2[i]);
            }
            sys.rhs(t + C3 * h, &ws.y_stage, &mut ws.k3);
            // Stage 4.
            for i in 0..n {
                ws.y_stage[i] = ws.y[i] + h * (A41 * ws.k1[i] + A42 * ws.k2[i] + A43 * ws.k3[i]);
            }
            sys.rhs(t + C4 * h, &ws.y_stage, &mut ws.k4);
            // Stage 5.
            for i in 0..n {
                ws.y_stage[i] = ws.y[i]
                    + h * (A51 * ws.k1[i] + A52 * ws.k2[i] + A53 * ws.k3[i] + A54 * ws.k4[i]);
            }
            sys.rhs(t + C5 * h, &ws.y_stage, &mut ws.k5);
            // Stage 6 (c = 1).
            for i in 0..n {
                ws.y_stage[i] = ws.y[i]
                    + h * (A61 * ws.k1[i]
                        + A62 * ws.k2[i]
                        + A63 * ws.k3[i]
                        + A64 * ws.k4[i]
                        + A65 * ws.k5[i]);
            }
            sys.rhs(t + h, &ws.y_stage, &mut ws.k6);
            // 5th-order solution (also stage 7 location).
            for i in 0..n {
                ws.y_new[i] = ws.y[i]
                    + h * (B1 * ws.k1[i]
                        + B3 * ws.k3[i]
                        + B4 * ws.k4[i]
                        + B5 * ws.k5[i]
                        + B6 * ws.k6[i]);
            }
            sys.rhs(t + h, &ws.y_new, &mut ws.k7);
            stats.rhs_evals += 6;
            check_finite(t + h, &ws.k7)?;

            // Scaled error norm.
            let mut err_sq = 0.0;
            for i in 0..n {
                let err_i = h
                    * (E1 * ws.k1[i]
                        + E3 * ws.k3[i]
                        + E4 * ws.k4[i]
                        + E5 * ws.k5[i]
                        + E6 * ws.k6[i]
                        + E7 * ws.k7[i]);
                let scale =
                    self.options.atol + self.options.rtol * ws.y[i].abs().max(ws.y_new[i].abs());
                let q = err_i / scale;
                err_sq += q * q;
            }
            let err = (err_sq / n as f64).sqrt();

            if err <= 1.0 || h <= self.options.h_min {
                // Accept.
                stats.accepted += 1;
                let t_new = t + h;
                // Stash the pre-projection state in y_stage (free scratch at
                // this point) so we only pay the FSAL refresh when the
                // projection actually moved the accepted point; k7 was
                // evaluated at the unprojected state, so when the point is
                // unchanged the stored derivative is already exact and
                // skipping the refresh is bitwise-neutral.
                ws.y_stage.copy_from_slice(&ws.y_new);
                sys.project(t_new, &mut ws.y_new);
                if ws.y_new != ws.y_stage {
                    sys.rhs(t_new, &ws.y_new, &mut ws.k7);
                    stats.rhs_evals += 1;
                }
                t = t_new;
                std::mem::swap(&mut ws.y, &mut ws.y_new);
                std::mem::swap(&mut ws.k1, &mut ws.k7);
                ws.ts.push(t);
                ws.ys.extend_from_slice(&ws.y);
                ws.ds.extend_from_slice(&ws.k1);
            } else {
                stats.rejected += 1;
            }
            // Step-size update (order-5 controller).
            let fac = (SAFETY * err.powf(-0.2)).clamp(FAC_MIN, FAC_MAX);
            h *= fac;
        }
        ws.take_trajectory(n, stats)
    }

    /// Hairer-style automatic initial step selection.
    fn initial_step<S: OdeSystem>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[f64],
        f0: &[f64],
        t1: f64,
        stats: &mut SolveStats,
    ) -> f64 {
        let n = y0.len();
        let scale: Vec<f64> = y0
            .iter()
            .map(|&yi| self.options.atol + self.options.rtol * yi.abs())
            .collect();
        let d0 = rms(y0, &scale);
        let d1 = rms(f0, &scale);
        let h0 = if d0 < 1e-5 || d1 < 1e-5 {
            1e-6
        } else {
            0.01 * d0 / d1
        };
        // One explicit Euler step to estimate the second derivative.
        let y1: Vec<f64> = (0..n).map(|i| y0[i] + h0 * f0[i]).collect();
        let mut f1 = vec![0.0; n];
        sys.rhs(t0 + h0, &y1, &mut f1);
        stats.rhs_evals += 1;
        let diff: Vec<f64> = (0..n).map(|i| f1[i] - f0[i]).collect();
        let d2 = rms(&diff, &scale) / h0;
        let max_d = d1.max(d2);
        let h1 = if max_d <= 1e-15 {
            (h0 * 1e-3).max(1e-6)
        } else {
            (0.01 / max_d).powf(0.2)
        };
        (100.0 * h0)
            .min(h1)
            .min(t1 - t0)
            .min(self.options.h_max)
            .max(self.options.h_min)
    }
}

impl Default for Dopri5 {
    fn default() -> Self {
        Dopri5::new(OdeOptions::default())
    }
}

fn rms(v: &[f64], scale: &[f64]) -> f64 {
    let s: f64 = v
        .iter()
        .zip(scale)
        .map(|(a, s)| (a / s) * (a / s))
        .sum::<f64>()
        / v.len() as f64;
    s.sqrt()
}

fn check_finite(t: f64, v: &[f64]) -> Result<(), OdeError> {
    if v.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(OdeError::NonFiniteDerivative { t })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{FnSystem, ProjectedFnSystem};

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0])
    }

    #[test]
    fn exponential_decay_high_accuracy() {
        let sol = Dopri5::new(OdeOptions::default().with_tolerances(1e-12, 1e-14))
            .solve(&decay(), 0.0, 5.0, &[1.0])
            .unwrap();
        let exact = (-5.0_f64).exp();
        assert!((sol.final_state()[0] - exact).abs() < 1e-11);
    }

    #[test]
    fn dense_output_accuracy() {
        let sol = Dopri5::new(
            OdeOptions::default()
                .with_tolerances(1e-10, 1e-13)
                .with_h_max(0.1),
        )
        .solve(&decay(), 0.0, 3.0, &[1.0])
        .unwrap();
        for &t in &[0.123, 0.77, 1.5, 2.9] {
            let exact = (-t_f(t)).exp();
            assert!(
                (sol.eval(t)[0] - exact).abs() < 1e-8,
                "dense output at t = {t}"
            );
        }
        fn t_f(t: f64) -> f64 {
            t
        }
    }

    #[test]
    fn oscillator_conserves_energy_approximately() {
        let sys = FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -y[0];
        });
        let sol = Dopri5::new(OdeOptions::default().with_tolerances(1e-11, 1e-13))
            .solve(&sys, 0.0, 20.0 * std::f64::consts::PI, &[1.0, 0.0])
            .unwrap();
        let yf = sol.final_state();
        assert!((yf[0] - 1.0).abs() < 1e-7, "{yf:?}");
        assert!(yf[1].abs() < 1e-7);
    }

    #[test]
    fn time_dependent_rhs() {
        // dy/dt = 2t => y = t^2.
        let sys = FnSystem::new(1, |t, _y: &[f64], dy: &mut [f64]| dy[0] = 2.0 * t);
        let sol = Dopri5::default().solve(&sys, 0.0, 4.0, &[0.0]).unwrap();
        assert!((sol.final_state()[0] - 16.0).abs() < 1e-8);
    }

    #[test]
    fn zero_length_interval() {
        let sol = Dopri5::default().solve(&decay(), 1.0, 1.0, &[0.7]).unwrap();
        assert_eq!(sol.final_state(), vec![0.7]);
        assert_eq!(sol.stats().accepted, 0);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(Dopri5::default().solve(&decay(), 1.0, 0.0, &[1.0]).is_err());
        assert!(Dopri5::default()
            .solve(&decay(), 0.0, 1.0, &[1.0, 2.0])
            .is_err());
        let bad_opts = OdeOptions::default().with_tolerances(-1.0, 1e-9);
        assert!(Dopri5::new(bad_opts)
            .solve(&decay(), 0.0, 1.0, &[1.0])
            .is_err());
    }

    #[test]
    fn nan_rhs_is_reported() {
        let sys = FnSystem::new(1, |_t, _y: &[f64], dy: &mut [f64]| dy[0] = f64::NAN);
        let err = Dopri5::default().solve(&sys, 0.0, 1.0, &[1.0]).unwrap_err();
        assert!(matches!(err, OdeError::NonFiniteDerivative { .. }));
    }

    #[test]
    fn max_steps_is_enforced() {
        let opts = OdeOptions::default().with_max_steps(3).with_h_max(1e-3);
        let err = Dopri5::new(opts)
            .solve(&decay(), 0.0, 10.0, &[1.0])
            .unwrap_err();
        assert!(matches!(err, OdeError::MaxStepsExceeded { .. }));
    }

    #[test]
    fn projection_is_applied_at_every_knot() {
        // A system whose exact flow preserves the simplex; inject the
        // renormalizing projection and verify every stored knot satisfies it.
        let sys = ProjectedFnSystem::new(
            2,
            |_t, y: &[f64], dy: &mut [f64]| {
                dy[0] = -y[0] + 0.5 * y[1];
                dy[1] = y[0] - 0.5 * y[1];
            },
            |_t, y: &mut [f64]| {
                let s = y[0] + y[1];
                y[0] /= s;
                y[1] /= s;
            },
        );
        let sol = Dopri5::default()
            .solve(&sys, 0.0, 10.0, &[0.9, 0.1])
            .unwrap();
        for &t in sol.knots() {
            let y = sol.eval(t);
            assert!((y[0] + y[1] - 1.0).abs() < 1e-12);
        }
        // Converges to the stationary distribution (1/3, 2/3).
        let yf = sol.final_state();
        assert!((yf[0] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn solve_into_reuses_workspace_bitwise() {
        // One workspace across dimension changes and repeated solves; every
        // result must be bitwise identical to the allocating path.
        let mut ws = SolverWorkspace::new();
        let osc = FnSystem::new(2, |_t, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -y[0];
        });
        let solver = Dopri5::default();
        let a = solver.solve(&decay(), 0.0, 3.0, &[1.0]).unwrap();
        let b = solver
            .solve_into(&decay(), 0.0, 3.0, &[1.0], &mut ws)
            .unwrap();
        assert_eq!(a, b);
        let c = solver.solve(&osc, 0.0, 7.0, &[1.0, 0.0]).unwrap();
        let d = solver
            .solve_into(&osc, 0.0, 7.0, &[1.0, 0.0], &mut ws)
            .unwrap();
        assert_eq!(c, d);
        // Zero-length interval through the workspace path.
        let e = solver
            .solve_into(&decay(), 1.0, 1.0, &[0.5], &mut ws)
            .unwrap();
        assert_eq!(e.final_state(), vec![0.5]);
    }

    #[test]
    fn stats_are_plausible() {
        let sol = Dopri5::default().solve(&decay(), 0.0, 1.0, &[1.0]).unwrap();
        let st = sol.stats();
        assert!(st.accepted >= 1);
        // 6 stage evals per accepted step (FSAL saves the 7th when the
        // projection leaves the accepted point untouched), plus rejections.
        assert!(st.rhs_evals >= 6 * st.accepted);
    }

    #[test]
    fn convergence_order_is_five() {
        // Fixed-step behaviour approximated by constraining h_max; halving
        // h_max should cut the error by roughly 2^5 once tolerances are loose
        // enough that h_max binds.
        let sys = FnSystem::new(1, |t, y: &[f64], dy: &mut [f64]| dy[0] = y[0] * t.cos());
        let exact = (1.0_f64.sin()).exp();
        let run = |h: f64| {
            let opts = OdeOptions::default()
                .with_tolerances(1e-2, 1e-2)
                .with_h_max(h);
            let sol = Dopri5::new(opts).solve(&sys, 0.0, 1.0, &[1.0]).unwrap();
            (sol.final_state()[0] - exact).abs()
        };
        let e1 = run(0.2);
        let e2 = run(0.1);
        let order = (e1 / e2).log2();
        assert!(
            order > 4.0,
            "observed order {order} (errors {e1:.3e}, {e2:.3e})"
        );
    }
}
