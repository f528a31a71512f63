//! The integration **recovery ladder**.
//!
//! The model checker's whole output is computed from ODE-integrated
//! probabilities, so an integration failure is the product failing. This
//! module turns a hard [`Dopri5`] failure into a graceful degradation
//! sequence:
//!
//! 1. **Primary** — the exact [`Dopri5::solve_into`] call the caller would
//!    have made. When it succeeds, the result is bitwise identical to a
//!    ladder-free solve.
//! 2. **Relaxed controller** — on [`OdeError::StepSizeTooSmall`],
//!    [`OdeError::MaxStepsExceeded`] or [`OdeError::NonFiniteDerivative`],
//!    retry with tolerances loosened to at least
//!    ([`RELAXED_RTOL`], [`RELAXED_ATOL`]): a transiently fussy error
//!    estimate (fast but benign dynamics, a spiky derivative) often clears
//!    at engineering accuracy.
//! 3. **Stiff fallback** — if the relaxed controller also fails, hand the
//!    problem to the A-stable [`ImplicitTrapezoid`], whose step size is not
//!    stability-limited. Its output is a [`Trajectory`] like any other, so
//!    dense-output consumers are oblivious to which rung produced it.
//!
//! Recoveries are recorded in the returned trajectory's [`SolveStats`]
//! (`recoveries`, `stiff_fallbacks`) so every layer above — engine stats,
//! CLI `--stats`, the daemon's `/metrics` — sees them without extra
//! plumbing. Argument errors ([`OdeError::InvalidArgument`],
//! [`OdeError::Math`]) are never retried: they describe the request, not
//! the dynamics. If the whole ladder fails, the *primary* rung's error is
//! returned — it names the original failure mode, which is what callers
//! and tests want to see.
//!
//! [`SolveStats`]: crate::SolveStats

use crate::dopri::{Dopri5, SolverWorkspace};
use crate::error::OdeError;
use crate::options::OdeOptions;
use crate::problem::OdeSystem;
use crate::solution::Trajectory;
use crate::stiff::ImplicitTrapezoid;

/// Relative-tolerance floor used by the relaxed retry rung.
pub const RELAXED_RTOL: f64 = 1e-6;
/// Absolute-tolerance floor used by the relaxed retry rung.
pub const RELAXED_ATOL: f64 = 1e-9;

/// Trapezoid steps per `h_max` interval of the requested span: ×4
/// oversampling keeps the dense output's interpolation error comparable to
/// the adaptive solver's own `h_max` cap.
const FALLBACK_STEPS_PER_H_MAX: usize = 4;
/// Floor on trapezoid steps, so short spans still resolve the dynamics.
const FALLBACK_MIN_STEPS: usize = 64;
/// Ceiling on trapezoid steps, bounding fallback cost on huge horizons.
const FALLBACK_MAX_STEPS: usize = 50_000;

/// Which rung of the ladder produced a recovered solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The primary adaptive solve succeeded; output is bitwise identical to
    /// calling [`Dopri5::solve_into`] directly.
    None,
    /// The relaxed-tolerance retry succeeded.
    Relaxed,
    /// The A-stable implicit-trapezoid fallback produced the solution.
    StiffFallback,
}

/// `true` for failures worth climbing the ladder for: the controller gave
/// up or the right-hand side misbehaved. Argument and linear-algebra errors
/// are deterministic properties of the request and are not retried.
fn recoverable(e: &OdeError) -> bool {
    matches!(
        e,
        OdeError::StepSizeTooSmall { .. }
            | OdeError::MaxStepsExceeded { .. }
            | OdeError::NonFiniteDerivative { .. }
    )
}

/// The relaxed-rung options: same controller limits, tolerances loosened to
/// at least the engineering-accuracy floor.
#[must_use]
pub fn relaxed_options(options: &OdeOptions) -> OdeOptions {
    options.with_tolerances(
        options.rtol.max(RELAXED_RTOL),
        options.atol.max(RELAXED_ATOL),
    )
}

/// Number of fixed trapezoid steps used by the fallback rung for the span
/// `[t0, t1]` under `options`. Deterministic in its inputs.
#[must_use]
pub fn fallback_steps(t0: f64, t1: f64, options: &OdeOptions) -> usize {
    let span = (t1 - t0).abs();
    if !(span > 0.0) || !span.is_finite() {
        return FALLBACK_MIN_STEPS;
    }
    // h_max is validated positive before the ladder ever reaches this rung.
    let per_h_max = (span / options.h_max).ceil();
    let per_h_max = if per_h_max.is_finite() && per_h_max >= 0.0 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            per_h_max.min(usize::MAX as f64) as usize
        }
    } else {
        FALLBACK_MAX_STEPS
    };
    per_h_max
        .saturating_mul(FALLBACK_STEPS_PER_H_MAX)
        .clamp(FALLBACK_MIN_STEPS, FALLBACK_MAX_STEPS)
}

/// Integrates `sys` over `[t0, t1]` through the recovery ladder, reusing
/// `ws` for the adaptive rungs.
///
/// Returns the trajectory together with the rung that produced it. When the
/// result was recovered, its [`Trajectory::stats`] carry the recovery
/// counters.
///
/// # Errors
///
/// Non-recoverable errors (invalid arguments, linear-algebra failures)
/// propagate immediately. If every rung fails, the **primary** rung's error
/// is returned.
pub fn solve_recovering<S: OdeSystem>(
    sys: &S,
    t0: f64,
    t1: f64,
    y0: &[f64],
    options: &OdeOptions,
    ws: &mut SolverWorkspace,
) -> Result<(Trajectory, Recovery), OdeError> {
    let primary_err = match Dopri5::new(*options).solve_into(sys, t0, t1, y0, ws) {
        Ok(trajectory) => return Ok((trajectory, Recovery::None)),
        Err(e) if !recoverable(&e) => return Err(e),
        Err(e) => e,
    };
    // Rung 2: relaxed controller — only if it actually loosens something.
    let relaxed = relaxed_options(options);
    if relaxed != *options {
        match Dopri5::new(relaxed).solve_into(sys, t0, t1, y0, ws) {
            Ok(mut trajectory) => {
                trajectory.mark_recovered(false);
                return Ok((trajectory, Recovery::Relaxed));
            }
            Err(e) if !recoverable(&e) => return Err(e),
            Err(_) => {}
        }
    }
    // Rung 3: A-stable implicit trapezoid with a deterministic step count.
    let steps = fallback_steps(t0, t1, options);
    match ImplicitTrapezoid::default().solve(sys, t0, t1, y0, steps) {
        Ok(mut trajectory) => {
            trajectory.mark_recovered(true);
            Ok((trajectory, Recovery::StiffFallback))
        }
        Err(_) => Err(primary_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnSystem;

    /// y' = -λ(y - cos t), the classic stiff test problem: the solution
    /// hugs cos t but the stability limit forces h ≈ 2.8/λ on explicit
    /// methods.
    fn stiff_sys(lambda: f64) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, move |t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -lambda * (y[0] - t.cos());
        })
    }

    #[test]
    fn healthy_solve_is_bitwise_identical_to_plain_dopri() {
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
        let options = OdeOptions::default();
        let direct = Dopri5::new(options).solve(&sys, 0.0, 3.0, &[1.0]).unwrap();
        let mut ws = SolverWorkspace::new();
        let (ladder, recovery) =
            solve_recovering(&sys, 0.0, 3.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::None);
        assert_eq!(ladder, direct);
        assert_eq!(ladder.stats().recoveries, 0);
        assert_eq!(ladder.stats().stiff_fallbacks, 0);
    }

    #[test]
    fn stiff_problem_fails_plain_and_recovers_via_trapezoid() {
        let lambda = 1e7;
        let sys = stiff_sys(lambda);
        // Stability limits Dopri5 to h ≈ 2.8/λ; the step budget makes it
        // give up quickly instead of grinding out millions of tiny steps.
        // Start on the smooth solution (y(0) = cos 0): the trapezoid is
        // A-stable but not L-stable, so an inconsistent initial transient
        // would oscillate undamped instead of decaying.
        let options = OdeOptions::default().with_max_steps(20_000);
        let plain = Dopri5::new(options).solve(&sys, 0.0, 10.0, &[1.0]);
        assert!(
            matches!(
                plain,
                Err(OdeError::MaxStepsExceeded { .. }) | Err(OdeError::StepSizeTooSmall { .. })
            ),
            "expected the plain solver to fail on the stiff fixture, got {plain:?}"
        );
        let mut ws = SolverWorkspace::new();
        let (trajectory, recovery) =
            solve_recovering(&sys, 0.0, 10.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::StiffFallback);
        assert_eq!(trajectory.stats().recoveries, 1);
        assert_eq!(trajectory.stats().stiff_fallbacks, 1);
        // For large λ the exact solution is ≈ cos t + O(1/λ).
        let y5 = trajectory.eval(5.0)[0];
        assert!(
            (y5 - 5.0_f64.cos()).abs() < 1e-2,
            "fallback solution inaccurate: y(5) = {y5}"
        );
        assert_eq!(trajectory.t_start(), 0.0);
        assert_eq!(trajectory.t_end(), 10.0);
    }

    #[test]
    fn overtight_tolerances_recover_via_relaxed_rung() {
        // A tolerance far below machine precision makes every step reject
        // until the controller hits h_min; the relaxed rung clears it.
        let sys = FnSystem::new(1, |t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = -y[0] + t.sin();
        });
        let options = OdeOptions::default().with_tolerances(1e-300, 1e-300);
        assert!(Dopri5::new(options).solve(&sys, 0.0, 2.0, &[1.0]).is_err());
        let mut ws = SolverWorkspace::new();
        let (trajectory, recovery) =
            solve_recovering(&sys, 0.0, 2.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::Relaxed);
        assert_eq!(trajectory.stats().recoveries, 1);
        assert_eq!(trajectory.stats().stiff_fallbacks, 0);
    }

    #[test]
    fn argument_errors_are_not_retried() {
        let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
        let mut ws = SolverWorkspace::new();
        let r = solve_recovering(&sys, 0.0, 1.0, &[1.0, 2.0], &OdeOptions::default(), &mut ws);
        assert!(matches!(r, Err(OdeError::InvalidArgument(_))));
        let r = solve_recovering(&sys, 1.0, 0.0, &[1.0], &OdeOptions::default(), &mut ws);
        assert!(matches!(r, Err(OdeError::InvalidArgument(_))));
    }

    #[test]
    fn ladder_exhaustion_reports_the_primary_error() {
        // A right-hand side that is always NaN defeats every rung; the
        // error names the primary failure.
        let sys = FnSystem::new(1, |_t, _y: &[f64], dy: &mut [f64]| dy[0] = f64::NAN);
        let mut ws = SolverWorkspace::new();
        let r = solve_recovering(&sys, 0.0, 1.0, &[1.0], &OdeOptions::default(), &mut ws);
        assert!(
            matches!(r, Err(OdeError::NonFiniteDerivative { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn fallback_step_count_is_bounded_and_deterministic() {
        let o = OdeOptions::default();
        assert_eq!(fallback_steps(0.0, 10.0, &o), fallback_steps(0.0, 10.0, &o));
        assert!(fallback_steps(0.0, 1e-9, &o) >= 64);
        assert!(fallback_steps(0.0, 1e12, &o) <= 50_000);
        assert_eq!(fallback_steps(0.0, 0.0, &o), 64);
    }
}
