//! Deterministic, seeded fault injection at the ODE right-hand-side
//! boundary.
//!
//! This is a **test hook**: nothing in the workspace constructs a
//! [`FaultPlan`] on a production path unless the operator explicitly opts
//! in (the daemon requires `--allow-faults`, the chaos tests pass plans
//! directly). With no plan installed the wrappers are never built and the
//! healthy pipeline is bitwise unchanged.
//!
//! A [`FaultySystem`] wraps any [`OdeSystem`] and, on a deterministic
//! pseudo-random schedule derived from (`seed`, `period`), corrupts the
//! derivative it returns:
//!
//! * [`FaultMode::Nan`] — overwrite the derivative with NaN, which the
//!   solvers must surface as [`OdeError::NonFiniteDerivative`]
//!   (never a panic, never a poisoned worker);
//! * [`FaultMode::Reject`] — scale the derivative by a huge factor, forcing
//!   the adaptive error estimator to reject the step and shrink `h`;
//! * [`FaultMode::Stiffen`] — add an artificially stiff relaxation term
//!   `-K·(yᵢ − 1/n)` pulling the state toward the uniform point. The term
//!   sums to zero over the components, so simplex-projected systems stay
//!   consistent; with `period == 1` it yields a *consistent* stiff
//!   right-hand side that the implicit-trapezoid fallback can integrate,
//!   exercising the whole recovery ladder.
//!
//! Firing is decided by an xorshift64 draw per `rhs` call — same seed,
//! same call sequence, same faults, so every chaos test is reproducible.
//!
//! [`OdeError::NonFiniteDerivative`]: crate::OdeError::NonFiniteDerivative

use std::cell::Cell;

use crate::problem::OdeSystem;

/// Rate constant of the artificial stiff term: large enough that explicit
/// stability limits bite at any practical tolerance.
const STIFF_RATE: f64 = 1e12;

/// Scale factor used by [`FaultMode::Reject`] to blow up the local error
/// estimate.
const REJECT_SCALE: f64 = 1e6;

/// What a firing fault does to the derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// Overwrite the derivative with NaN.
    Nan,
    /// Scale the derivative so the step-error estimator rejects the step.
    Reject,
    /// Add an artificially stiff relaxation toward the uniform point.
    Stiffen,
}

impl FaultMode {
    /// Parses the wire/CLI spelling of a mode.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "nan" => Some(FaultMode::Nan),
            "reject" => Some(FaultMode::Reject),
            "stiffen" => Some(FaultMode::Stiffen),
            _ => None,
        }
    }

    /// The wire/CLI spelling of this mode.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultMode::Nan => "nan",
            FaultMode::Reject => "reject",
            FaultMode::Stiffen => "stiffen",
        }
    }
}

/// A deterministic, seeded fault-injection schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// What a firing fault does.
    pub mode: FaultMode,
    /// A fault fires on average once per `period` derivative evaluations
    /// (`1` fires on every evaluation). Clamped to at least 1.
    pub period: u64,
    /// Seed of the xorshift64 draw stream.
    pub seed: u64,
}

impl FaultPlan {
    /// Creates a plan; `period` is clamped to at least 1.
    #[must_use]
    pub fn new(mode: FaultMode, period: u64, seed: u64) -> FaultPlan {
        FaultPlan {
            mode,
            period: period.max(1),
            seed,
        }
    }
}

/// An [`OdeSystem`] wrapper that injects faults per a [`FaultPlan`].
///
/// Interior mutability (`Cell`) keeps the wrapper usable through the
/// `&self` right-hand-side interface; the draw stream advances once per
/// `rhs` call regardless of mode, so the schedule depends only on the call
/// sequence.
#[derive(Debug)]
pub struct FaultySystem<'a, S: OdeSystem> {
    inner: &'a S,
    plan: FaultPlan,
    state: Cell<u64>,
    injected: Cell<u64>,
}

impl<'a, S: OdeSystem> FaultySystem<'a, S> {
    /// Wraps `inner` with the given plan.
    #[must_use]
    pub fn new(inner: &'a S, plan: FaultPlan) -> FaultySystem<'a, S> {
        // Scramble the seed so nearby seeds give unrelated streams; the
        // xorshift state must be non-zero.
        let state = (plan.seed ^ 0x9E37_79B9_7F4A_7C15).max(1);
        FaultySystem {
            inner,
            plan,
            state: Cell::new(state),
            injected: Cell::new(0),
        }
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.get()
    }

    /// Advances the xorshift64 stream and decides whether this call fires.
    fn fires(&self) -> bool {
        let mut x = self.state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state.set(x);
        x.is_multiple_of(self.plan.period)
    }
}

impl<S: OdeSystem> OdeSystem for FaultySystem<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        self.inner.rhs(t, y, dy);
        if !self.fires() {
            return;
        }
        self.injected.set(self.injected.get() + 1);
        match self.plan.mode {
            FaultMode::Nan => dy.fill(f64::NAN),
            FaultMode::Reject => {
                for d in dy.iter_mut() {
                    *d *= REJECT_SCALE;
                }
            }
            FaultMode::Stiffen => {
                let n = dy.len() as f64;
                for (d, &yi) in dy.iter_mut().zip(y) {
                    *d -= STIFF_RATE * (yi - 1.0 / n);
                }
            }
        }
    }

    fn project(&self, t: f64, y: &mut [f64]) {
        self.inner.project(t, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dopri::{Dopri5, SolverWorkspace};
    use crate::problem::FnSystem;
    use crate::recover::{solve_recovering, Recovery};
    use crate::{OdeError, OdeOptions};

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0])
    }

    #[test]
    fn mode_spellings_round_trip() {
        for mode in [FaultMode::Nan, FaultMode::Reject, FaultMode::Stiffen] {
            assert_eq!(FaultMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(FaultMode::parse("bogus"), None);
    }

    #[test]
    fn nan_fault_surfaces_as_structured_error() {
        let sys = decay();
        let faulty = FaultySystem::new(&sys, FaultPlan::new(FaultMode::Nan, 1, 42));
        let r = Dopri5::new(OdeOptions::default()).solve(&faulty, 0.0, 1.0, &[1.0]);
        assert!(
            matches!(r, Err(OdeError::NonFiniteDerivative { .. })),
            "{r:?}"
        );
        assert!(faulty.injected() >= 1);
    }

    #[test]
    fn same_seed_same_faults() {
        let sys = decay();
        let run = |seed: u64| {
            let faulty = FaultySystem::new(&sys, FaultPlan::new(FaultMode::Reject, 8, seed));
            let r = Dopri5::new(OdeOptions::default().with_max_steps(500)).solve(
                &faulty,
                0.0,
                5.0,
                &[1.0],
            );
            (r, faulty.injected())
        };
        let (r1, n1) = run(7);
        let (r2, n2) = run(7);
        assert_eq!(r1, r2);
        assert_eq!(n1, n2);
        let (_, n3) = run(8);
        assert!(n3 > 0 || n1 > 0);
    }

    #[test]
    fn reject_fault_inflates_rejections() {
        let sys = decay();
        let clean = Dopri5::new(OdeOptions::default())
            .solve(&sys, 0.0, 5.0, &[1.0])
            .unwrap();
        let faulty = FaultySystem::new(&sys, FaultPlan::new(FaultMode::Reject, 64, 3));
        let shaken = Dopri5::new(OdeOptions::default())
            .solve(&faulty, 0.0, 5.0, &[1.0])
            .unwrap();
        assert!(
            shaken.stats().rejected > clean.stats().rejected,
            "expected forced rejections: clean {} vs faulty {}",
            clean.stats().rejected,
            shaken.stats().rejected
        );
    }

    #[test]
    fn stiffen_fault_drives_the_full_ladder() {
        let sys = decay();
        // Every evaluation stiffened: a consistent, A-stable-solvable RHS
        // that defeats the explicit rungs within the step budget.
        let faulty = FaultySystem::new(&sys, FaultPlan::new(FaultMode::Stiffen, 1, 11));
        let options = OdeOptions::default().with_max_steps(20_000);
        // Start at the uniform point the stiff term relaxes toward, so the
        // non-L-stable trapezoid fallback is not handed an undamped
        // transient.
        assert!(Dopri5::new(options)
            .solve(&faulty, 0.0, 1.0, &[1.0])
            .is_err());
        let mut ws = SolverWorkspace::new();
        let (trajectory, recovery) =
            solve_recovering(&faulty, 0.0, 1.0, &[1.0], &options, &mut ws).unwrap();
        assert_eq!(recovery, Recovery::StiffFallback);
        // The stiff term pins y to the quasi-steady state K/(K+1) ≈ 1.
        assert!((trajectory.final_state()[0] - 1.0).abs() < 1e-3);
    }
}
