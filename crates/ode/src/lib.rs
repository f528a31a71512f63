//! Initial-value ODE solvers for the `mfcsl` mean-field model checker.
//!
//! Everything the paper delegates to Wolfram Mathematica is implemented
//! here:
//!
//! * the mean-field occupancy ODE `dm̄/dt = m̄·Q(m̄)` (Eq. 1 of the paper);
//! * forward Kolmogorov transients of modified local chains (Eq. 5);
//! * the combined forward/backward propagation of time-dependent
//!   reachability matrices (Eqs. 6 and 12).
//!
//! # Solvers
//!
//! * [`dopri::Dopri5`] — adaptive Dormand–Prince 5(4) with PI step-size
//!   control and cubic-Hermite dense output; the production solver;
//! * [`fixed`] — fixed-step Euler, Heun and classic RK4, used for
//!   convergence testing and as ablation baselines;
//! * [`stiff::ImplicitTrapezoid`] — an A-stable implicit method with Newton
//!   iteration, the fallback for stiff rate regimes.
//!
//! [`recover::solve_recovering`] chains them into a **recovery ladder**
//! (plain Dopri5 → relaxed controller → implicit trapezoid) that the
//! checking pipeline uses for every trajectory solve, and [`fault`]
//! provides a deterministic, seeded fault-injection wrapper for chaos
//! testing that ladder.
//!
//! # Events
//!
//! [`events::EventLocator`] finds times where a scalar function of the state
//! crosses zero, by monitoring sign changes over accepted steps and refining
//! with Brent's method on the dense output. The model checker uses this to
//! find satisfaction-set discontinuity points and `cSat` boundaries.
//!
//! # Example
//!
//! ```
//! use mfcsl_ode::dopri::Dopri5;
//! use mfcsl_ode::problem::FnSystem;
//! use mfcsl_ode::OdeOptions;
//!
//! # fn main() -> Result<(), mfcsl_ode::OdeError> {
//! // dy/dt = -y, y(0) = 1.
//! let sys = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| dy[0] = -y[0]);
//! let sol = Dopri5::new(OdeOptions::default()).solve(&sys, 0.0, 2.0, &[1.0])?;
//! let y1 = sol.eval(1.0)[0];
//! assert!((y1 - (-1.0_f64).exp()).abs() < 1e-7);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they classify NaN as invalid input instead of letting it
// through, which is exactly the intent of the validation sites.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod batch;
pub mod dopri;
pub mod error;
pub mod events;
pub mod fault;
pub mod fixed;
pub mod options;
pub mod problem;
pub mod recover;
pub mod solution;
pub mod stiff;

pub use batch::{
    solve_batch_recovering, BatchMode, BatchOutcome, BatchSolution, BatchStats, BatchWorkspace,
};
pub use dopri::SolverWorkspace;
pub use error::OdeError;
pub use fault::{FaultMode, FaultPlan, FaultySystem};
pub use options::OdeOptions;
pub use problem::{FnSystem, OdeSystem};
pub use recover::{solve_recovering, Recovery};
pub use solution::{SolveStats, Trajectory};
